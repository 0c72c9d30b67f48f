#!/usr/bin/env python3
"""Re-record tests/snapshot.json, the key outputs of every command on every preset.

The tier-1 test tests/test_snapshot.py reruns the commands in-process and
compares their outputs with this file.  A change that moves a result
re-records it and says why in CHANGES.md:

    PYTHONPATH=src python scripts/record_snapshot.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import snapshot  # noqa: E402

if __name__ == "__main__":
    snapshot.record()
    print(snapshot.SNAPSHOT)
