"""Rewrite the values of tests/golden.json that the current code moves.

Run from the repository root with ``PYTHONPATH=src python tests/regen_golden.py``
after a change that alters the pinned values on purpose, and list old -> new
in CHANGES.md.  Only the leaves that ``golden_mismatches`` reports change,
keys the chain adds or drops included; every other leaf keeps its bytes, so
the file does not take up the rounding of another BLAS build.
"""

import json
import tempfile
from pathlib import Path

from test_golden import GOLDEN_PATH, _leaves, golden_chain, mismatched_paths


def _merged(tree, pinned: dict, path: str = ""):
    """``tree`` with each leaf at a path of ``pinned`` replaced by that value."""
    if isinstance(tree, dict):
        return {key: _merged(value, pinned, f"{path}/{key}") for key, value in tree.items()}
    if isinstance(tree, list):
        return [_merged(value, pinned, f"{path}/{i}") for i, value in enumerate(tree)]
    return pinned.get(path, tree)


def regenerate(golden_path: Path, got: dict) -> list[str]:
    """Rewrite the golden file at ``golden_path`` where ``got`` misses it and
    return one ``path: old -> new`` line per leaf rewritten; a result that
    misses no value leaves the file as it is."""
    expected = json.loads(golden_path.read_text())
    redo = mismatched_paths(expected, got)
    want, have = dict(_leaves(expected)), dict(_leaves(got))
    kept = {path: value for path, value in want.items() if path not in redo}
    golden_path.write_text(json.dumps(_merged(got, kept), indent=1, sort_keys=True) + "\n")
    return [f"{path}: {_show(want, path)} -> {_show(have, path)}" for path in redo]


def _show(leaves: dict, path: str) -> str:
    return repr(leaves[path]) if path in leaves else "absent"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work_dir:
        changes = regenerate(GOLDEN_PATH, golden_chain(Path(work_dir)))
    for line in changes:
        print(line)
    print(f"{len(changes)} values rewritten in {GOLDEN_PATH}")
