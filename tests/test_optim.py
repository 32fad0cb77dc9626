import math
import tracemalloc

import numpy as np
import pytest

from genalign import ndiff, optim
from genalign.ndiff import Tape, Tensor
from genalign.optim import AdamW, TrainingError, warmup_cosine_lr


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
    # a parameter of the other dtype goes to a flat buffer of its own dtype
    other = np.float64 if dtype == np.float32 else np.float32
    params["head.other"] = Tensor(rng.standard_normal((2, 2)).astype(other), requires_grad=True)
    passed_in = {k: p.data for k, p in params.items()}
    initial = {k: p.data.copy() for k, p in params.items()}
    opt = AdamW(params, 1e-2, 6, weight_decay=weight_decay, lr_scale={"backbone.": 0.1})
    held = {k: p.data for k, p in params.items()}
    m = {k: np.zeros_like(p.data) for k, p in params.items()}
    v = {k: np.zeros_like(p.data) for k, p in params.items()}
    for step in range(6):
        # "frozen" never gets a gradient; lr varies as a schedule would vary it
        grads = {p: rng.standard_normal(p.shape).astype(p.data.dtype)
                 for k, p in params.items() if k != "frozen"}
        lr = 1e-2 * (step + 1) / 6
        expected = reference_step(opt, m, v, grads, lr)
        opt.step(grads, lr=lr)
        for name, p in params.items():
            assert p.data.dtype == expected[name].dtype == initial[name].dtype
            assert p.data.tobytes() == expected[name].tobytes(), (step, name)
            # the update is in place: param.data stays the array it became at
            # construction, and the array passed in is left as it was
            assert p.data is held[name]
            assert passed_in[name].tobytes() == initial[name].tobytes()
        for name in params:
            assert opt._m[name].tobytes() == m[name].tobytes()
            assert opt._v[name].tobytes() == v[name].tobytes()


def test_step_allocates_no_parameter_sized_array(rng):
    """After a warm-up, a step on a model of about 50k floats allocates less
    than one of its parameters takes."""
    shapes = {f"w{i}": (128, 128) for i in range(3)} | {f"b{i}": (1, 128) for i in range(3)}
    params = {k: Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
              for k, s in shapes.items()}
    grads = {p: rng.standard_normal(p.shape).astype(np.float32) for p in params.values()}
    opt = AdamW(params, 1e-3, 10, weight_decay=0.05, lr_scale={"w0": 0.1})
    opt.step(grads, lr=1e-3)
    tracemalloc.start()
    try:
        opt.step(grads, lr=1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < params["w0"].data.nbytes


def quadratic_loss(opt, target):
    """mean((w - target)^2) of ``opt``'s one parameter ``w``, on a new tape."""
    with Tape() as tape:
        diff = ndiff.add(opt.params["w"], Tensor(-target))
        loss = ndiff.mean(ndiff.mul(diff, diff))
    return tape, loss


def test_checked_step_steps_at_the_scheduled_rate(rng):
    init, target = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    checked = AdamW({"w": Tensor(init.copy(), requires_grad=True)}, 0.1, 5, weight_decay=0.01)
    plain = AdamW({"w": Tensor(init.copy(), requires_grad=True)}, 0.1, 5, weight_decay=0.01)
    for step in range(5):
        tape, loss = quadratic_loss(checked, target)
        assert checked.checked_step(tape, loss, f"step {step}") == float(loss.data)
        tape, loss = quadratic_loss(plain, target)
        plain.step(tape.backward(loss), warmup_cosine_lr(step, 5, 0.1))
        assert checked.step_count == plain.step_count == step + 1
        assert checked.params["w"].data.tobytes() == plain.params["w"].data.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_checked_step_refuses_a_non_finite_loss_leaving_the_state_as_it_was(rng, bad):
    target = rng.standard_normal((3, 4))
    opt = AdamW({"w": Tensor(rng.standard_normal((3, 4)), requires_grad=True)}, 0.1, 5)
    opt.checked_step(*quadratic_loss(opt, target), "warm-up")
    state = [opt.params["w"].data.copy(), opt._m["w"].copy(), opt._v["w"].copy()]
    tape, loss = quadratic_loss(opt, target)
    loss.data = np.asarray(bad)
    with pytest.raises(TrainingError, match="non-finite loss in epoch3/batch1"):
        opt.checked_step(tape, loss, "epoch3/batch1")
    assert opt.step_count == 1
    for before, after in zip(state, [opt.params["w"].data, opt._m["w"], opt._v["w"]]):
        assert before.tobytes() == after.tobytes()


def test_schedule_is_planned_over_the_steps_given(monkeypatch):
    schedule = []
    lr = optim.warmup_cosine_lr

    def recording_lr(step, total_steps, base_lr):
        schedule.append((step, total_steps, base_lr))
        return lr(step, total_steps, base_lr)

    monkeypatch.setattr(optim, "warmup_cosine_lr", recording_lr)
    opt = AdamW({"w": Tensor(np.ones((2, 2)), requires_grad=True)}, 0.5, 3)
    for _ in range(3):
        opt.checked_step(*quadratic_loss(opt, np.zeros((2, 2))), "x")
    assert schedule == [(0, 3, 0.5), (1, 3, 0.5), (2, 3, 0.5)]
