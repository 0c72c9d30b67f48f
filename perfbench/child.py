"""Run one rotorkick CLI command in this fresh process and report its timings.

    python3 perfbench/child.py REPORT MODE [CLI ARGUMENTS...]

MODE is `plain` (run the command), `traced` (run it with every package
layer wrapped by tracer.py) or `setup` (stop once set-up is done).  Set-up
ends when rotorkick.cli is imported and one tiny LAPACK call has returned;
the command then runs through rotorkick.cli.main, as the `rotorkick`
console script does.  The monotonic timestamps written to REPORT are
comparable with those of the process that spawned this one.  The package
is found through PYTHONPATH.
"""

import sys
import time


def main() -> int:
    report, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import numpy as np

    from rotorkick import cli

    np.linalg.eigh(np.eye(2))
    ready = time.monotonic()
    payload = {"ready": ready}
    rc = 0
    if mode != "setup":
        recorder = None
        if mode == "traced":
            import tracer

            recorder = tracer.Recorder()
            tracer.install(recorder)
        start = time.monotonic()
        rc = cli.main(argv)
        end = time.monotonic()
        payload.update(start=start, end=end, rc=rc)
        if recorder is not None:
            payload["trace"] = recorder.summary()

    import json

    with open(report, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
