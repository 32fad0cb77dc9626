"""Rewrite tests/golden.json from the current code.

Run from the repository root with ``PYTHONPATH=src python tests/regen_golden.py``
after a change that alters the pinned values on purpose, and list old -> new
in CHANGES.md.
"""

import json
import tempfile
from pathlib import Path

from test_golden import GOLDEN_PATH, golden_chain

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work_dir:
        values = golden_chain(Path(work_dir))
    GOLDEN_PATH.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
