"""Run one transecg CLI command in this process and write its timings as JSON.

    python3 perfbench/stage.py RESULT_JSON TRACE CLI_ARG...

transecg is imported from the checkout's own src/, never from an installed
copy.  With TRACE=1 the program's public functions are wrapped for the
duration of the command and restored before the result is written.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    out_path, trace, cli_args = Path(argv[0]), argv[1] == "1", argv[2:]
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    from transecg import autodiff, cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"stage: transecg imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    imported_at = time.time()

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        t0 = time.perf_counter()
        rc = cli.main(cli_args)
        stage_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()

    result = {
        "rc": rc,
        # wall clock, so the parent can add the interpreter's own start-up
        "imported_at": imported_at,
        "stage_s": stage_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        # nodes the command left on the global autodiff tape
        "tape_leaked": len(getattr(autodiff, "_TAPE", ())),
        "trace": tracer.summary() if tracer is not None else None,
    }
    out_path.write_text(json.dumps(result), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
