"""The reference kernel: fixed numpy work that never uses genalign.

On a shared machine the speed of a core drifts by a third or more over
minutes, as other tenants come and go.  ``run.py`` times this kernel after
every repetition of a workload, and reports the workload's times in units
of it (``ref``): a slowdown of the machine stretches both, and the ratio
stays.  The raw seconds of both go to the result file.

It is one aggregator-sized attention block: BLAS projections and a softmax
over 960 x 960 scores per head, on a fixed input.  Over 30-second windows of
a 2-vCPU VM whose raw times spread 16-26%, the ratio of ``embed_large`` to
it spread 1% and that of ``pretrain`` 5%.  With a loop of small-array numpy
calls added as a second part, ``pretrain`` and ``align_eval`` tracked it
somewhat better within a process, but over five seeds the spread of their
ratios did not shrink and that of ``embed_large`` doubled.  Changing this
file changes the unit of every ``*_ref`` metric, so it changes only with
the benchmark's definition.
"""
import numpy as np

_rng = np.random.default_rng(0)
_CELLS = _rng.standard_normal((960, 64)).astype(np.float32)
_QKV = (_rng.standard_normal((64, 192)) * 0.1).astype(np.float32)
HEADS, HEAD_DIM = 4, 16


def reference() -> None:
    for _ in range(3):
        qkv = _CELLS @ _QKV
        for h in range(HEADS):
            q, k, v = (qkv[:, (j * HEADS + h) * HEAD_DIM:(j * HEADS + h + 1) * HEAD_DIM]
                       for j in range(3))
            s = q @ k.T
            s -= s.max(axis=1, keepdims=True)
            np.exp(s, out=s)
            s /= s.sum(axis=1, keepdims=True)
            s @ v
