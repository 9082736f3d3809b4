"""Rewrite ``tests/golden/cli.json`` from the current code.

Run from the repository root: ``PYTHONPATH=src python tests/regen_golden.py``.
The test suite never runs this; it only compares against the file.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from test_golden import COMMANDS, GOLDEN, capture, write_input_files


def main() -> None:
    here = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write_input_files(Path(tmp))
            golden = [capture(command, "cache.jsonl") for command in COMMANDS]
        finally:
            os.chdir(here)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True, ensure_ascii=False) + "\n")
    print(f"wrote {len(golden)} commands to {GOLDEN}")


if __name__ == "__main__":
    main()
