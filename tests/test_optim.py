import math
import tracemalloc

import numpy as np
import pytest

from genalign import ndiff, optim
from genalign.ndiff import NdiffError, Tape, Tensor
from genalign.optim import AdamW, TrainingError, warmup_cosine_lr


def write_slots(opt, grads):
    """Write ``grads`` into ``opt``'s gradient slots, as a backward given
    them would, and return them."""
    for param, grad in grads.items():
        opt.slots[param][1][...] = grad
    return grads


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
        opt.step(write_slots(opt, grads), lr=lr)
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
    opt.step(write_slots(opt, grads), lr=1e-3)
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
        # a slot-less backward's gradients, copied into the slots
        tape, loss = quadratic_loss(plain, target)
        plain.step(write_slots(plain, tape.backward(loss)), warmup_cosine_lr(step, 5, 0.1))
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


def test_a_parameter_given_a_new_array_is_refused_before_anything_moves():
    """Assigning ``w.data`` detaches it from its slot: a step would move the
    slot to 0.9 and leave w at 3.0.  It is refused, naming w, before the
    backward writes a gradient slot or the step count moves; the refusal
    stands for ``step`` called directly."""
    params = {"b": Tensor(np.ones(3), requires_grad=True), "w": Tensor(np.ones((2, 2)), requires_grad=True)}
    opt = AdamW(params, 0.1, 1)
    params["w"].data = 3 * np.ones((2, 2))
    (flat,) = opt._flats
    state = [a.copy() for a in (flat.param, flat.grad, flat.m, flat.v)]
    with Tape() as tape:
        loss = ndiff.add(ndiff.mean(params["b"]), ndiff.mean(params["w"]))
    with pytest.raises(TrainingError, match=r"^w: its data is no longer the view of its optimizer slot"):
        opt.checked_step(tape, loss, "x")
    with pytest.raises(TrainingError, match=r"^w: "):
        opt.step(opt.slots, 0.1)
    assert opt.step_count == 0
    for before, after in zip(state, (flat.param, flat.grad, flat.m, flat.v)):
        assert before.tobytes() == after.tobytes()
    assert np.all(params["w"].data == 3.0)


def kernel(w, grad):
    """A hand-recorded node on ``w`` whose backward returns ``grad``."""
    return ndiff._record(Tensor(w.data.sum()), (w,), lambda g: (grad,))


@pytest.mark.parametrize("grad,match", [
    (np.ones((1, 3)), r"float64 \(1, 3\)"),
    (np.ones((1, 3), np.float32), r"float32 \(1, 3\)"),
    (np.ones((5, 3)), r"float64 \(5, 3\)"),
], ids=["shape_and_dtype", "shape", "dtype"])
def test_backward_refuses_a_gradient_unlike_its_slot_writing_nothing(rng, grad, match):
    """np.copyto would broadcast a (1, 3) row over all five rows and cast
    f64 to f32.  The contribution to w is refused where it arrives, before
    the slot of "a", recorded earlier and so reached later, is written."""
    params = {name: Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
              for name, shape in (("a", (2, 2)), ("w", (5, 3)))}
    opt = AdamW(params, 1e-2, 4)
    (flat,) = opt._flats
    state = [a.copy() for a in (flat.param, flat.grad, flat.m, flat.v)]
    with Tape() as tape:
        a_term = ndiff.mean(ndiff.mul(params["a"], params["a"]))
        loss = ndiff.add(a_term, kernel(params["w"], grad))
    with pytest.raises(NdiffError, match=f"gradient of w: {match}, but its slot is float32 \\(5, 3\\)"):
        opt.checked_step(tape, loss, "x")
    assert opt.step_count == 0
    for before, after in zip(state, (flat.param, flat.grad, flat.m, flat.v)):
        assert before.tobytes() == after.tobytes()


def test_no_slot_is_offered_to_a_leaf_whose_array_it_does_not_fit(rng):
    """A leaf given an f64 array after the optimizer took its f32 one: its
    kernel would cast an in-place write into the f32 slot, so it is offered
    none, and its f64 gradient is refused naming it."""
    params = {"gamma": Tensor(np.ones((1, 3), np.float32), requires_grad=True),
              "beta": Tensor(np.zeros((1, 3), np.float32), requires_grad=True)}
    opt = AdamW(params, 1e-2, 4)
    for p in params.values():
        p.data = p.data.astype(np.float64)
    with Tape() as tape:
        y = ndiff.layer_norm(Tensor(rng.standard_normal((4, 3))), params["gamma"], params["beta"])
        loss = ndiff.mean(ndiff.mul(y, y))
    with pytest.raises(NdiffError,
                       match=r"gradient of (gamma|beta): float64 \(1, 3\), but its slot is float32"):
        tape.backward(loss, opt.slots)


def two_forward_loss(params, xs):
    """Layer norm, attention and a three-layer MLP whose last two layers share
    ``w2``/``b2``, run once per input as two forward calls on one tape."""
    with Tape() as tape:
        terms = []
        for x in xs:
            h = ndiff.layer_norm(Tensor(x), params["gamma"], params["beta"])
            h = ndiff.multi_head_attention(h, params["wq"], params["wk"], params["wv"], params["wo"],
                                           2, np.array([3, 5]))
            y = ndiff.mlp(h, *(params[k] for k in ("w1", "b1", "w2", "b2", "w2", "b2")))
            terms.append(ndiff.mean(ndiff.mul(y, y)))
        loss = ndiff.add(*terms)
    return tape, loss


def test_slots_sum_contributions_as_a_slotless_tape_does(rng):
    """Each leaf gets two to four contributions; its slot, the first written
    in place and the rest added, equals the slot-less tape's sum bit for bit."""
    shapes = {"gamma": (1, 4), "beta": (1, 4), "wq": (4, 4), "wk": (4, 4), "wv": (4, 4), "wo": (4, 4),
              "w1": (4, 6), "b1": (1, 6), "w2": (6, 6), "b2": (1, 6)}
    params = {k: Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
              for k, s in shapes.items()}
    xs = [rng.standard_normal((8, 4)).astype(np.float32) for _ in range(2)]
    opt = AdamW(params, 1e-2, 4)
    tape, loss = two_forward_loss(params, xs)
    expected = tape.backward(loss)
    tape, loss = two_forward_loss(params, xs)
    got = tape.backward(loss, opt.slots)
    for name, p in params.items():
        assert got[p] is opt.slots[p][1]
        assert got[p].tobytes() == expected[p].tobytes(), name


def test_checked_step_holds_no_gradient_beside_its_slots(rng):
    """One step of a karyotype projection (1,104 -> 256 -> 128 MLP, then
    l2_normalize) on 32 binary rows: the backward writes every gradient into
    its slot, so the step's traced peak stays below the gradients' bytes."""
    shapes = {"w1": (1104, 256), "b1": (1, 256), "w2": (256, 128), "b2": (1, 128)}
    params = {k: Tensor((0.02 * rng.standard_normal(s)).astype(np.float32), requires_grad=True)
              for k, s in shapes.items()}
    opt = AdamW(params, 1e-3, 4)
    rows = Tensor((rng.random((32, 1104)) < 0.1).astype(np.float32))
    target = Tensor(rng.standard_normal((32, 128)).astype(np.float32))

    def loss_tape():
        with Tape() as tape:
            z = ndiff.l2_normalize(ndiff.mlp(rows, *(params[k] for k in ("w1", "b1", "w2", "b2"))))
            loss = ndiff.mean(ndiff.mul(z, target))
        return tape, loss

    opt.checked_step(*loss_tape(), "warm-up")
    tape, loss = loss_tape()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        opt.checked_step(tape, loss, "step")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < sum(p.data.nbytes for p in params.values())


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
