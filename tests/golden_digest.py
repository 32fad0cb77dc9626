"""Print one SHA-256 over the golden chain's exact outputs.

``tests/golden.json`` pins the chain's values to a relative tolerance; this
digest pins them bit for bit: the values ``golden_chain`` returns (as
sorted-key JSON, whose floats round-trip exactly) and the bytes of both
checkpoint files it writes.  A refactor that promises byte-identical seeded
runs prints the same digest before and after.  Run from the repository root
at one BLAS thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/golden_digest.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

from test_golden import golden_chain

CHECKPOINTS = ("pretrain.gbck", "align.gbck")


def golden_digest() -> str:
    with tempfile.TemporaryDirectory() as work_dir:
        values = golden_chain(Path(work_dir))
        digest = hashlib.sha256(json.dumps(values, sort_keys=True).encode())
        for name in CHECKPOINTS:
            digest.update((Path(work_dir) / name).read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    print(golden_digest())
