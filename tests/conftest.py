import os

from hypothesis import settings

# CI runs the properties hard: HYPOTHESIS_PROFILE=ci keeps Hypothesis's own ci
# settings (no deadline, derandomized, blobs printed) and raises the example count
settings.register_profile("ci", settings.get_profile("ci"), max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
