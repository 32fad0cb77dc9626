import numpy as np
import pytest

from genalign.ndiff import Tensor
from genalign.optim import AdamW


def reference_step(opt, m, v, grads, lr):
    """AdamW's out-of-place update, one fresh array per operation."""
    step = opt.step_count + 1
    bc1 = 1.0 - opt.beta1**step
    bc2 = 1.0 - opt.beta2**step
    out = {}
    for name in sorted(opt.params):
        param = opt.params[name]
        grad = grads.get(param)
        if grad is None:
            out[name] = param.data
            continue
        m[name] = m[name] + (1.0 - opt.beta1) * (grad - m[name])
        v[name] = v[name] + (1.0 - opt.beta2) * (grad * grad - v[name])
        step_lr = lr * opt._scale_for(name)
        update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + opt.eps)
        if opt.weight_decay:
            update = update + opt.weight_decay * param.data
        out[name] = param.data - step_lr * update
    return out


@pytest.mark.parametrize("weight_decay", [0.0, 0.05])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_step_matches_out_of_place_update_bit_for_bit(rng, dtype, weight_decay):
    shapes = {"backbone.w": (5, 3), "backbone.b": (1, 3), "head.w": (3, 4), "frozen": (2,)}
    params = {k: Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True)
              for k, s in shapes.items()}
    # a parameter of the other dtype gets scratch of its own dtype
    other = np.float64 if dtype == np.float32 else np.float32
    params["head.other"] = Tensor(rng.standard_normal((2, 2)).astype(other), requires_grad=True)
    opt = AdamW(params, weight_decay=weight_decay, lr_scale={"backbone.": 0.1})
    m = {k: np.zeros_like(p.data) for k, p in params.items()}
    v = {k: np.zeros_like(p.data) for k, p in params.items()}
    for step in range(6):
        # "frozen" never gets a gradient; lr varies as a schedule would vary it
        grads = {p: rng.standard_normal(p.shape).astype(p.data.dtype)
                 for k, p in params.items() if k != "frozen"}
        lr = 1e-2 * (step + 1) / 6
        expected = reference_step(opt, m, v, grads, lr)
        before = {k: p.data for k, p in params.items()}
        snapshots = {k: p.data.copy() for k, p in params.items()}
        opt.step(grads, lr=lr)
        for name, p in params.items():
            assert p.data.dtype == expected[name].dtype == snapshots[name].dtype
            assert p.data.tobytes() == expected[name].tobytes(), (step, name)
            # the update rebinds param.data; an array a caller held is left as it was
            assert np.array_equal(before[name], snapshots[name])
            if name != "frozen":
                assert p.data is not before[name]
        for name in params:
            assert opt._m[name].tobytes() == m[name].tobytes()
            assert opt._v[name].tobytes() == v[name].tobytes()
