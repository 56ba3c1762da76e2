import os

from hypothesis import settings

# CI runs the properties hard: HYPOTHESIS_PROFILE=ci
settings.register_profile("ci", max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
