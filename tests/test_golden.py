"""Golden values: a seeded tiny synth -> pretrain -> align chain, pinned.

``test_cli.py::test_rerun_byte_identical`` shows that one commit repeats
itself; this test shows when a commit changes what the pipeline computes.
It pins continuous quantities only: every metrics line of both stages, and
a float64 sum and sum of squares of each checkpoint tensor and each
aligned-table matrix.  Rank-derived numbers (MRR, top-k, probes) are left
out, because a near-tie can flip them with rounding alone.

A change that alters these values on purpose rewrites the values it moves
with ``PYTHONPATH=src python tests/regen_golden.py`` and lists old -> new.
"""

import json
import math
from pathlib import Path

import numpy as np

from genalign import gbio
from genalign.aggregator import AggregatorConfig
from genalign.align import AlignConfig, train_align
from genalign.pretrain import PretrainConfig, load_checkpoint, train_pretrain
from genalign.synthcohort import SynthConfig, generate

GOLDEN_PATH = Path(__file__).with_name("golden.json")
# Relative tolerance on every pinned float.  On this chain, 1 vs 2 OpenBLAS
# threads moved a value by at most 5.3e-7 (pretraining stayed exact), and
# the GELU coefficient 0.044715 set to 0.0447 moved one by 2.9e-5.
RTOL = 5e-6


def _moments(arr: np.ndarray) -> dict:
    x = np.asarray(arr, dtype=np.float64)
    return {"sum": float(x.sum()), "sumsq": float((x * x).sum())}


def golden_chain(work_dir: Path) -> dict:
    """Run the pinned chain; each stage's checkpoint is read back from its file."""
    cohort = generate(SynthConfig(n_patients=40, cells_min=24, cells_max=32, input_dim=32, seed=0))
    agg = AggregatorConfig(depth=2, heads=2, embed_dim=32, input_dim=32, max_cells=32)
    pre_config = PretrainConfig(epochs=2, batch_size=16, k_local=4, n_prototypes=64,
                                head_hidden=64, head_bottleneck=32, seed=0)
    pre = train_pretrain([p.bag for p in cohort.patients], agg, pre_config)
    pre.save(work_dir / "pretrain.gbck")
    student, _ = load_checkpoint(work_dir / "pretrain.gbck")
    align_config = AlignConfig(epochs=3, batch_size=16, seed=0)
    aligned = train_align(cohort, agg, align_config, pretrained_aggregator=student)
    aligned.save(work_dir / "align.gbck")
    table = aligned.table
    matrices = {"slide": table.slide, "z_slide": table.z_slide,
                "z_karyotype": table.z_karyotype, "z_mutation": table.z_mutation}
    return {
        "pretrain_metrics": pre.metrics,
        "pretrain_checkpoint": {name: _moments(t) for name, t in
                                sorted(gbio.read_gbck(work_dir / "pretrain.gbck")[0].items())},
        "align_metrics": aligned.metrics,
        "align_checkpoint": {name: _moments(t) for name, t in
                             sorted(gbio.read_gbck(work_dir / "align.gbck")[0].items())},
        "aligned_table": {name: _moments(mat) for name, mat in matrices.items()},
    }


def _leaves(tree, path=""):
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _leaves(value, f"{path}/{key}")
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            yield from _leaves(value, f"{path}/{i}")
    else:
        yield path, tree


def mismatched_paths(expected: dict, got: dict) -> list[str]:
    """The path of every pinned value that ``got`` misses: a missing or
    extra key, an integer that differs, or a float off by more than ``RTOL``
    relative.

    A tensor's sum is read relative to its l2 norm, sqrt(sumsq): a sum that
    cancels to near zero is no more exact than the entries it adds up."""
    want, have = dict(_leaves(expected)), dict(_leaves(got))
    bad = list(want.keys() ^ have.keys())
    for path in want.keys() & have.keys():
        a, b = want[path], have[path]
        if isinstance(a, int) and isinstance(b, int):
            ok = a == b
        else:
            scale = math.sqrt(want[path[: -len("sum")] + "sumsq"]) if path.endswith("/sum") else abs(a)
            ok = abs(a - b) <= RTOL * scale
        if not ok:
            bad.append(path)
    return sorted(bad)


def golden_mismatches(expected: dict, got: dict) -> list[str]:
    """Each of ``mismatched_paths`` with the golden value and the one got."""
    want, have = dict(_leaves(expected)), dict(_leaves(got))
    return [f"{path}: missing" if path not in have else f"{path}: not pinned" if path not in want
            else f"{path}: golden {want[path]!r}, got {have[path]!r}"
            for path in mismatched_paths(expected, got)]


def test_golden_chain(tmp_path):
    expected = json.loads(GOLDEN_PATH.read_text())
    mismatches = golden_mismatches(expected, golden_chain(tmp_path))
    assert not mismatches, "\n".join(mismatches)
