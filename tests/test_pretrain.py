import math
from types import SimpleNamespace

import numpy as np
import pytest

from genalign import aggregator, gbio, ndiff, pretrain
from genalign.aggregator import AggregatorConfig, CellBag, forward, init_params, param_specs, sample_views
from genalign.ndiff import Tape, Tensor
from genalign.pretrain import (
    PretrainConfig,
    center_update,
    dino_ibot_loss,
    ema_update,
    head_forward,
    init_head_params,
    load_checkpoint,
    pretrain_objective,
    teacher_targets,
    train_pretrain,
)
from test_ndiff import _assert_same_bits, _reference_mlp, _run_taped

TINY_AGG = AggregatorConfig(depth=1, heads=2, embed_dim=16, mlp_dim=32,
                            input_dim=8, max_cells=16)
TINY_PRE = PretrainConfig(epochs=2, batch_size=4, k_global=2, k_local=2,
                          mask_ratio=0.25, n_prototypes=16, head_hidden=32,
                          head_bottleneck=8, seed=7)


def np_softmax(x, axis=-1):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def np_log_softmax(x, axis=-1):
    s = x - x.max(axis=axis, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=axis, keepdims=True))


def dino_oracle(teacher_logits, student_logits, center, tt, ts):
    terms = []
    for g, t in enumerate(teacher_logits):
        p_t = np_softmax((t - center) / tt)
        for k, s in enumerate(student_logits):
            if k == g:
                continue
            ce = -(p_t * np_log_softmax(s / ts)).sum(-1).mean()
            terms.append(ce)
    return float(np.mean(terms))


def stacked_loss(teacher, student, center, tt, ts, teacher_masked=(), student_masked=()):
    """``dino_ibot_loss`` on per-view (patients, K) arrays: the teacher's
    global views and the student's views, plus optional masked-token rows."""
    config = PretrainConfig(k_global=len(teacher), k_local=len(student) - len(teacher),
                            student_temp=ts)
    return dino_ibot_loss(
        np.concatenate([*teacher, *teacher_masked]),
        Tensor(np.concatenate([*student, *student_masked])),
        teacher[0].shape[0], center, tt, config,
    )


class TestDinoLoss:
    def test_uniform_teacher_and_student(self):
        K = 4
        dino, _, _ = stacked_loss([np.zeros((3, K))], [np.zeros((3, K))] * 2,
                                  np.zeros(K), 0.04, 0.1)
        assert float(dino.data) == pytest.approx(math.log(4), rel=1e-6)

    def test_one_hot_teacher_uniform_student(self):
        K = 4
        t_logits = np.full((1, K), -1e4)
        t_logits[0, 2] = 1e4
        dino, _, _ = stacked_loss([t_logits], [np.zeros((1, K))] * 2, np.zeros(K), 1.0, 1.0)
        assert float(dino.data) == pytest.approx(math.log(4), rel=1e-6)

    def test_matches_pair_enumeration_oracle(self, rng):
        K, B = 8, 5
        teacher = [rng.standard_normal((B, K)) for _ in range(2)]
        student = [rng.standard_normal((B, K)) for _ in range(4)]
        center = rng.standard_normal(K)
        dino, _, _ = stacked_loss(teacher, student, center, 0.05, 0.12)
        assert float(dino.data) == pytest.approx(
            dino_oracle(teacher, student, center, 0.05, 0.12), rel=1e-9
        )

    def test_requires_two_student_views(self):
        with pytest.raises(ValueError, match="two views"):
            stacked_loss([np.zeros((1, 4))], [np.zeros((1, 4))], np.zeros(4), 0.04, 0.1)


def tiny_step_inputs(rng, mask_ratio):
    """Two f32 bags with sampled views, student/teacher params and the teacher
    targets for one step of TINY_PRE at ``mask_ratio``."""
    pre = PretrainConfig(**{**TINY_PRE.to_dict(), "mask_ratio": mask_ratio})
    prng = np.random.default_rng(1)
    student = init_params(TINY_AGG, prng)
    student.update(init_head_params(TINY_AGG.embed_dim, pre, prng))
    teacher = {k: Tensor(v.data.copy()) for k, v in student.items()}
    bags = [CellBag(f"p{i}", rng.standard_normal((8, TINY_AGG.input_dim)))
            for i in range(2)]
    views = [sample_views(b, pre.k_global, pre.k_local, pre.mask_ratio, rng) for b in bags]
    _, targets = teacher_targets(bags, views, teacher, TINY_AGG, pre)
    center = np.zeros(pre.n_prototypes, dtype=np.float32)
    return pre, student, teacher, bags, views, targets, center


class TestIbotLoss:
    def test_empty_mask_returns_zero(self, rng):
        pre, student, _, bags, views, targets, center = tiny_step_inputs(rng, 0.0)
        dino, ibot, total = pretrain_objective(
            bags, views, student, targets, center, TINY_AGG, pre, 0.04
        )
        assert float(ibot.data) == 0.0
        assert float(total.data) == float(dino.data)

    def test_identical_distributions_give_entropy(self, rng):
        logits = rng.standard_normal((4, 6))
        tau = 0.3
        cls = np.zeros((1, 6))
        _, ibot, _ = stacked_loss([cls], [cls, cls], np.zeros(6), tau, tau,
                                  teacher_masked=[logits[[2]]], student_masked=[logits[[2]]])
        p = np_softmax(logits[2] / tau)
        entropy = -(p * np.log(p)).sum()
        assert float(ibot.data) == pytest.approx(entropy, rel=1e-9)

    def test_two_masked_tokens_mean_of_hand_sum(self, rng):
        t = rng.standard_normal((6, 5))
        s = rng.standard_normal((6, 5))
        center = rng.standard_normal(5)
        masked = np.array([1, 4])
        cls = rng.standard_normal((1, 5))
        _, ibot, _ = stacked_loss([cls], [cls, cls], center, 0.07, 0.1,
                                  teacher_masked=[t[masked]], student_masked=[s[masked]])
        terms = []
        for i in masked:
            p_t = np_softmax((t[i] - center) / 0.07)
            terms.append(-(p_t * np_log_softmax(s[i] / 0.1)).sum())
        assert float(ibot.data) == pytest.approx(np.mean(terms), rel=1e-9)

    def test_out_of_range_mask_rejected(self, rng):
        pre, student, _, bags, views, targets, center = tiny_step_inputs(rng, 0.25)
        view = views[0][0]
        view.mask = np.array([len(view.indices)])
        with pytest.raises(ValueError, match="out of range"):
            pretrain_objective(bags, views, student, targets, center, TINY_AGG, pre, 0.04)

    def test_masked_local_view_rejected_by_name(self, rng):
        pre, student, _, bags, views, targets, center = tiny_step_inputs(rng, 0.25)
        views[0][pre.k_global].mask = np.array([0, 1])
        with pytest.raises(ValueError, match=rf"patient p0: view {pre.k_global} is a local "
                                             r"view with a mask; only the \d+ global views"):
            pretrain_objective(bags, views, student, targets, center, TINY_AGG, pre, 0.04)


class TestEmaAndCenter:
    def test_ema_basic(self):
        t = {"w": Tensor(np.zeros(3))}
        s = {"w": Tensor(np.ones(3))}
        ema_update(t, s, 0.99)
        assert np.allclose(t["w"].data, 0.01)

    def test_ema_frozen_and_copy(self):
        t = {"w": Tensor(np.full(3, 5.0))}
        s = {"w": Tensor(np.ones(3))}
        ema_update(t, s, 1.0)
        assert np.allclose(t["w"].data, 5.0)
        ema_update(t, s, 0.0)
        assert np.allclose(t["w"].data, 1.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ema_equals_out_of_place_update_bit_for_bit(self, rng, dtype):
        shapes = {"w": (5, 3), "b": (1, 7), "proto": (11,), "token": (1, 1)}
        teacher, student = ({k: Tensor(rng.standard_normal(s).astype(dtype)) for k, s in shapes.items()}
                            for _ in range(2))
        held = {k: t.data for k, t in teacher.items()}
        for momentum in (0.99, 0.996, 0.5):
            expected = {k: momentum * t.data + (1.0 - momentum) * student[k].data for k, t in teacher.items()}
            ema_update(teacher, student, momentum)
            for k, t in teacher.items():
                assert t.data is held[k]  # updated in place
                assert t.data.dtype == dtype and t.data.tobytes() == expected[k].tobytes(), (momentum, k)

    def test_ema_shape_mismatch(self):
        t = {"w": Tensor(np.zeros(3))}
        s = {"w": Tensor(np.zeros(4))}
        with pytest.raises(ValueError, match="shape"):
            ema_update(t, s, 0.5)

    def test_center_update_trivials(self, rng):
        logits = rng.standard_normal((10, 6))
        c0 = rng.standard_normal(6)
        assert np.allclose(center_update(c0, logits, 0.0), logits.mean(axis=0))
        assert np.allclose(center_update(c0, logits, 1.0), c0)
        out = center_update(np.zeros(6), np.ones((4, 6)), 0.9)
        assert np.allclose(out, 0.1)


def reference_token_ce(teacher_logits, student_logits, center, teacher_temp, student_temp):
    """Mean CE between teacher and student distributions over the given rows."""
    p_t = Tensor(np_softmax((teacher_logits - center) / teacher_temp))
    log_q = ndiff.log_softmax(ndiff.scalar_mul(student_logits, 1.0 / student_temp))
    return ndiff.mean(ndiff.cross_entropy(p_t, log_q))


def reference_dino(teacher_cls_logits, student_cls_logits, center, teacher_temp, student_temp):
    """Taped mean CE over every (teacher global g, student view k != g) pair."""
    total, n_pairs = None, 0
    for g, t_logits in enumerate(teacher_cls_logits):
        for k, s_logits in enumerate(student_cls_logits):
            if k == g:
                continue
            ce = reference_token_ce(t_logits.data, s_logits, center, teacher_temp, student_temp)
            total = ce if total is None else ndiff.add(total, ce)
            n_pairs += 1
    return ndiff.scalar_mul(total, 1.0 / n_pairs)


def reference_ibot_term(teacher_token_logits, student_token_logits, mask,
                        center, teacher_temp, student_temp):
    """Token CE with the head applied to every token and the masked rows
    picked afterwards by a one-hot matmul."""
    select = np.zeros((mask.size, student_token_logits.shape[0]))
    select[np.arange(mask.size), mask] = 1.0
    picked = ndiff.matmul(Tensor(select), student_token_logits)
    return reference_token_ce(teacher_token_logits.data[mask], picked, center,
                              teacher_temp, student_temp)


TEACHER_TEMP = 0.05


def cls_and_tokens(hidden):
    """One view's CLS row and cell rows from ``forward``'s hidden rows."""
    return ndiff.gather_rows(hidden, [0]), ndiff.gather_rows(hidden, np.arange(1, hidden.shape[0]))


def build_microbatch(seed=5):
    """Tiny 3-patient f64 setting: teacher targets precomputed as constants,
    student path rebuilt per call.  Teacher outputs carry stop-gradient in
    the objective, so the checkable function holds them fixed.  Cells are
    f32-representable so the f32 bags the production objective reads hold
    the same values as the f64 cells the reference reads.  Two bags share a
    size, so the production path stacks their equal-length views into one
    aggregator forward, next to the third bag's views of other lengths."""
    config = AggregatorConfig(depth=1, heads=2, embed_dim=12, mlp_dim=24,
                              input_dim=6, max_cells=8)
    pre = PretrainConfig(epochs=1, batch_size=3, k_global=2, k_local=1,
                         mask_ratio=0.4, n_prototypes=8, head_hidden=16,
                         head_bottleneck=6, seed=3)
    prng = np.random.default_rng(seed)
    params = init_params(config, prng, dtype=np.float64)
    params.update(init_head_params(config.embed_dim, pre, prng, dtype=np.float64))
    teacher = {k: Tensor(v.data.copy()) for k, v in params.items()}
    # bag sizes differ so masked views hold different numbers of cells and
    # the mask-size weighting of the token term matters
    cells = [prng.standard_normal((n_cells, config.input_dim)).astype(np.float32)
             .astype(np.float64) for n_cells in (9, 5, 9)]
    center = prng.standard_normal(pre.n_prototypes) * 0.1
    view_rng = np.random.default_rng(seed + 100)
    bags = [CellBag(f"p{p}", c) for p, c in enumerate(cells)]
    views = [sample_views(b, pre.k_global, pre.k_local, pre.mask_ratio, view_rng)
             for b in bags]
    t_cls_rows = [[] for _ in range(pre.k_global)]
    t_tok = {}
    for p in range(len(cells)):
        for v, view in enumerate(views[p]):
            cls, tokens = cls_and_tokens(
                forward(cells[p][view.indices], np.empty(0, np.int64), teacher, config,
                        np.arange(len(view.indices)))
            )
            t_tok[(p, v)] = Tensor(head_forward(tokens, teacher).data)
            if v < pre.k_global:
                t_cls_rows[v].append(cls)
    t_cls = [Tensor(head_forward(ndiff.gather_rows(r, np.arange(len(r))), teacher).data) for r in t_cls_rows]

    def loss_given(cell_tensors):
        n_views = pre.k_global + pre.k_local
        s_cls_rows = [[] for _ in range(n_views)]
        ibot_terms = []
        for p in range(len(cells)):
            for v, view in enumerate(views[p]):
                sel = np.zeros((len(view.indices), len(cells[p])))
                sel[np.arange(len(view.indices)), view.indices] = 1.0
                sub = ndiff.matmul(Tensor(sel), cell_tensors[p])
                cls, tokens = cls_and_tokens(
                    forward(sub, view.mask, params, config, np.arange(len(view.indices)))
                )
                s_cls_rows[v].append(cls)
                if view.mask.size:
                    tok = head_forward(tokens, params)
                    ibot_terms.append(
                        (reference_ibot_term(t_tok[(p, v)], tok, view.mask, center,
                                             TEACHER_TEMP, pre.student_temp),
                         view.mask.size)
                    )
        s_cls = [head_forward(ndiff.gather_rows(r, np.arange(len(r))), params) for r in s_cls_rows]
        loss = reference_dino(t_cls, s_cls, center, TEACHER_TEMP, pre.student_temp)
        total_m = sum(m for _, m in ibot_terms)
        for term, m in ibot_terms:
            loss = ndiff.add(loss, ndiff.scalar_mul(term, m / total_m))
        return loss

    def production_loss():
        _, targets = teacher_targets(bags, views, teacher, config, pre)
        return pretrain_objective(bags, views, params, targets, center, config, pre,
                                  TEACHER_TEMP)[2]

    return SimpleNamespace(config=config, pre=pre, params=params, teacher=teacher,
                           center=center, cells=cells, bags=bags, views=views,
                           loss_given=loss_given, production_loss=production_loss)


def grad_check_param(params, name, loss_fn):
    original = params[name]

    def f(w):
        params[name] = w
        return loss_fn()

    try:
        return ndiff.grad_check(f, Tensor(original.data), eps=1e-5, tol=1e-4)
    finally:
        params[name] = original


class TestFullLossGradients:
    def test_image_loss_grad_check_wrt_cells(self):
        mb = build_microbatch()
        others = [Tensor(c) for c in mb.cells[1:]]

        def f(cells_a):
            return mb.loss_given([cells_a, *others])

        report = ndiff.grad_check(f, Tensor(mb.cells[0]), eps=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_err

    def test_image_loss_grad_check_wrt_parameter(self):
        mb = build_microbatch(seed=8)
        constants = [Tensor(c) for c in mb.cells]
        report = grad_check_param(mb.params, "head.w3", lambda: mb.loss_given(constants))
        assert report.passed, report.max_rel_err

    @pytest.mark.parametrize("name", ["head.w3", "embed.w1"])
    def test_production_objective_grad_check(self, name):
        mb = build_microbatch(seed=8)
        report = grad_check_param(mb.params, name, mb.production_loss)
        assert report.passed, report.max_rel_err

    def test_production_objective_matches_reference(self):
        mb = build_microbatch(seed=8)
        lengths = [len(view.indices) for views in mb.views for view in views]
        assert max(map(lengths.count, lengths)) >= 2 and len(set(lengths)) >= 2
        constants = [Tensor(c) for c in mb.cells]
        with Tape() as tape:
            reference = mb.loss_given(constants)
        ref_grads = tape.backward(reference)
        with Tape() as tape:
            production = mb.production_loss()
        prod_grads = tape.backward(production)
        assert float(production.data) == pytest.approx(float(reference.data), rel=1e-12)
        for name, p in mb.params.items():
            assert np.allclose(prod_grads[p], ref_grads[p], rtol=1e-9, atol=1e-12), name

    def test_one_forward_per_pass(self, monkeypatch):
        mb = build_microbatch(seed=8)
        taped, heads = [], []

        def counting_forward(*args):
            taped.append((ndiff._ACTIVE_TAPE is not None, len(args[-1])))
            return forward(*args)

        def counting_head(*args):
            heads.append(args[0].shape[0])
            return head_forward(*args)

        log_softmax, log_softmax_calls = ndiff.log_softmax, []

        def counting_log_softmax(*args):
            log_softmax_calls.append(args[0].shape[0])
            return log_softmax(*args)

        monkeypatch.setattr(aggregator, "forward", counting_forward)
        monkeypatch.setattr(pretrain, "head_forward", counting_head)
        monkeypatch.setattr(ndiff, "log_softmax", counting_log_softmax)
        _, targets = teacher_targets(mb.bags, mb.views, mb.teacher, mb.config, mb.pre)
        with Tape():
            pretrain_objective(mb.bags, mb.views, mb.params, targets, mb.center,
                               mb.config, mb.pre, TEACHER_TEMP)
        views = [view for per_patient in mb.views for view in per_patient]
        assert len({len(view.indices) for view in views}) > 1
        # one untaped teacher call on the global views, the only masked ones,
        # then one taped student call on every view, whatever their lengths
        assert taped == [(False, len(mb.bags) * mb.pre.k_global), (True, len(views))]
        n_masked = sum(view.mask.size for view in views)
        n_cls = len(mb.bags) * (mb.pre.k_global + mb.pre.k_local)
        assert heads == [len(mb.bags) * mb.pre.k_global + n_masked, n_cls + n_masked]
        assert log_softmax_calls == [n_cls + n_masked]

    def test_teacher_runs_the_global_views_alone(self, rng, monkeypatch):
        pre = PretrainConfig(**{**TINY_PRE.to_dict(), "k_local": 3})
        params = init_params(TINY_AGG, rng)
        params.update(init_head_params(TINY_AGG.embed_dim, pre, rng))
        # global views of 14 and 12 cells, local views of 4 (one masked cell
        # each, were local views masked)
        bags = [CellBag(f"p{i}", rng.standard_normal((n, TINY_AGG.input_dim)))
                for i, n in enumerate((20, 16, 20))]
        views = [sample_views(b, pre.k_global, pre.k_local, pre.mask_ratio, rng) for b in bags]
        calls, heads = [], []

        def counting_forward(cells, mask, params, config, tokens, lengths):
            calls.append((ndiff._ACTIVE_TAPE is not None, tuple(lengths), sum(map(np.size, mask))))
            return forward(cells, mask, params, config, tokens, lengths)

        def counting_head(*args):
            heads.append(args[0].shape[0])
            return head_forward(*args)

        monkeypatch.setattr(aggregator, "forward", counting_forward)
        monkeypatch.setattr(pretrain, "head_forward", counting_head)
        cls_rows, targets = teacher_targets(bags, views, params, TINY_AGG, pre)
        global_views = [view for per_patient in views for view in per_patient[:pre.k_global]]
        assert all(view.mask.size == 0 for per_patient in views
                   for view in per_patient[pre.k_global:])
        # one untaped, unmasked forward on the global views of both lengths
        assert calls == [(False, tuple(sorted(len(view.indices) for view in global_views)), 0)]
        assert len(set(calls[0][1])) == 2
        n_masked = sum(view.mask.size for view in global_views)
        assert n_masked > 0
        assert heads == [pre.k_global * len(bags) + n_masked] == [targets.shape[0]]
        assert cls_rows.shape == (pre.k_global * len(bags), TINY_AGG.embed_dim)

    def test_teacher_params_absent_from_gradient_map(self, rng):
        pre, student, teacher, bags, views, targets, center = tiny_step_inputs(rng, 0.25)
        with Tape() as tape:
            _, _, loss = pretrain_objective(
                bags, views, student, targets, center, TINY_AGG, pre, 0.04
            )
        grads = tape.backward(loss)
        teacher_tensors = set(map(id, teacher.values()))
        assert all(id(t) not in teacher_tensors for t in grads)
        assert any(t is student["head.proto"] for t in grads)


def make_cohort(n, rng, n_cells=10, dim=8):
    return [
        CellBag(f"p{i:03d}", rng.standard_normal((n_cells, dim)).astype(np.float32))
        for i in range(n)
    ]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_head_forward_equals_separate_layer_nodes_bit_for_bit(rng, dtype):
    """The head's one MLP node against linear, GELU, linear, GELU and
    linear as separate test-side nodes, on more rows than one MLP tile: the
    logits and every gradient."""
    params = init_head_params(TINY_AGG.embed_dim, TINY_PRE, rng, dtype)
    rows = ndiff.MLP_TILE_ROWS + 5
    x = Tensor(rng.standard_normal((rows, TINY_AGG.embed_dim)).astype(dtype), requires_grad=True)
    probe = rng.standard_normal((rows, TINY_PRE.n_prototypes)).astype(dtype)

    def reference(x, *values):
        p = dict(zip(params, values))
        z = ndiff.l2_normalize(_reference_mlp(x, *(p[f"head.{kind}{i}"] for i in (1, 2, 3) for kind in "wb")))
        return ndiff.matmul(z, ndiff.transpose(ndiff.l2_normalize(p["head.proto"])))

    leaves = [x, *params.values()]
    _assert_same_bits(_run_taped(lambda x, *values: head_forward(x, dict(zip(params, values))), leaves, probe),
                      _run_taped(reference, leaves, probe), dtype)


def test_embed_bags_of_no_bags_is_empty():
    params = init_params(TINY_AGG, np.random.default_rng(0))
    assert pretrain.embed_bags([], params, TINY_AGG).shape == (0, TINY_AGG.embed_dim)


class TestTrainLoop:
    def test_runs_and_logs(self, rng, tmp_path):
        bags = make_cohort(8, rng)
        log = tmp_path / "metrics.jsonl"
        result = train_pretrain(bags, TINY_AGG, TINY_PRE, metrics_path=log)
        assert len(result.metrics) == TINY_PRE.epochs
        for record in result.metrics:
            assert set(record) == {"epoch", "dino_loss", "ibot_loss", "total", "cls_std"}
            assert np.isfinite(record["total"])
        assert len(log.read_text().strip().splitlines()) == TINY_PRE.epochs

    def test_makes_no_full_bag_forward(self, rng, monkeypatch):
        def no_full_bags(*args):
            raise AssertionError("train_pretrain embedded the full bags")

        monkeypatch.setattr(pretrain, "embed_bags", no_full_bags)
        result = train_pretrain(make_cohort(5, rng), TINY_AGG, TINY_PRE)
        assert all(record["cls_std"] > 0 for record in result.metrics)

    def test_cls_std_is_the_spread_of_the_teacher_global_cls_rows(self, rng, monkeypatch):
        # with the EMA switched off the teacher keeps its initial weights, so
        # replaying the run's random draws rebuilds every global view it ran
        monkeypatch.setattr(pretrain, "ema_update", lambda *args: None)
        cfg = PretrainConfig(**{**TINY_PRE.to_dict(), "epochs": 1, "batch_size": 3})
        bags = make_cohort(6, rng)
        result = train_pretrain(bags, TINY_AGG, cfg)
        replay = np.random.default_rng(cfg.seed)
        teacher = init_params(TINY_AGG, replay)
        init_head_params(TINY_AGG.embed_dim, cfg, replay)
        order = replay.permutation(len(bags))
        rows = []
        for batch in (order[:3], order[3:]):
            for i in batch:
                views = sample_views(bags[i], cfg.k_global, cfg.k_local, cfg.mask_ratio, replay)
                rows += [forward(bags[i].cells[view.indices], np.empty(0, np.int64), teacher,
                                 TINY_AGG).data for view in views if view.kind == "global"]
        assert len(rows) == cfg.k_global * len(bags)
        expected = pretrain.cls_dimension_std(np.concatenate(rows))
        assert result.metrics[0]["cls_std"] == pytest.approx(expected, rel=1e-5)

    def test_lambda_zero_reduces_to_dino(self, rng):
        bags = make_cohort(4, rng)
        cfg = PretrainConfig(**{**TINY_PRE.to_dict(), "ibot_weight": 0.0, "epochs": 1})
        result = train_pretrain(bags, TINY_AGG, cfg)
        record = result.metrics[0]
        assert record["total"] == pytest.approx(record["dino_loss"], rel=1e-7)

    def test_single_patient_batch_one(self, rng):
        bags = make_cohort(1, rng)
        cfg = PretrainConfig(**{**TINY_PRE.to_dict(), "batch_size": 1, "epochs": 1})
        result = train_pretrain(bags, TINY_AGG, cfg)
        assert np.isfinite(result.metrics[0]["total"])

    def test_checkpoint_roundtrip_and_determinism(self, rng, tmp_path):
        bags = make_cohort(6, rng)
        a, b = tmp_path / "a.gbck", tmp_path / "b.gbck"
        train_pretrain(bags, TINY_AGG, TINY_PRE).save(a)
        train_pretrain(bags, TINY_AGG, TINY_PRE).save(b)
        assert a.read_bytes() == b.read_bytes()
        student, agg_config = load_checkpoint(a)
        assert agg_config == TINY_AGG
        # the student's aggregator alone, as the config declares it
        expected = init_params(TINY_AGG, rng)
        assert {name: p.shape for name, p in student.items()} == {
            name: p.shape for name, p in expected.items()}
        # and the file holds nothing else: no head, no teacher, no center
        tensors, _ = gbio.read_gbck(a)
        assert set(tensors) == {f"student.{name}" for name in param_specs(TINY_AGG)}

    def test_a_file_of_the_former_layout_loads_as_the_new_one(self, rng, tmp_path):
        """Files written before the checkpoint held the student's aggregator
        alone also held the student's head, the teacher (aggregator and
        head) and the center; they load to the same arrays."""
        new, former = tmp_path / "new.gbck", tmp_path / "former.gbck"
        result = train_pretrain(make_cohort(3, rng), TINY_AGG, TINY_PRE)
        result.save(new)
        tensors, header = gbio.read_gbck(new)
        heads = init_head_params(TINY_AGG.embed_dim, TINY_PRE, rng)
        tensors.update({f"student.{name}": result.student_params[name].data for name in heads})
        tensors.update({f"teacher.{name}": 0.5 * p.data for name, p in result.student_params.items()})
        tensors["center"] = rng.standard_normal(TINY_PRE.n_prototypes)
        gbio.write_gbck(former, tensors, header["config"])
        assert len(gbio.read_gbck(former)[0]) == 2 * len(result.student_params) + 1
        (got, got_config), (want, want_config) = load_checkpoint(former), load_checkpoint(new)
        assert got_config == want_config == TINY_AGG
        assert got.keys() == want.keys() == set(param_specs(TINY_AGG))
        for name, p in want.items():
            assert got[name].data.tobytes() == p.data.tobytes()

    @pytest.mark.parametrize("edit, message", [
        ("missing", r"no tensor 'student\.block0\.mlp\.w1'"),
        ("extra_block", r"tensor 'student\.block1\.attn\.bo' is not in the model"),
        ("misshapen", r"tensor 'student\.block0\.attn\.wq' has shape \[12, 16\], not \[16, 16\]"),
        ("depth_raised", r"no tensor 'student\.block1\.attn\.bo'"),
        # neither the student's aggregator nor a tensor the former layout wrote
        ("stray", r"tensor 'foo' is not in the model"),
        ("stray_teacher", r"tensor 'teacher' is not in the model"),
    ])
    def test_load_checkpoint_refuses_tensors_its_config_does_not_declare(
            self, rng, tmp_path, edit, message):
        path = tmp_path / "c.gbck"
        train_pretrain(make_cohort(2, rng), TINY_AGG, TINY_PRE).save(path)
        tensors, header = gbio.read_gbck(path)
        config = header["config"]
        if edit == "missing":
            del tensors["student.block0.mlp.w1"]
        elif edit == "extra_block":
            tensors.update({name.replace("block0", "block1"): arr for name, arr in tensors.items()
                            if name.startswith("student.block0.")})
        elif edit in ("stray", "stray_teacher"):
            tensors["foo" if edit == "stray" else "teacher"] = np.zeros(3)
        elif edit == "misshapen":
            tensors["student.block0.attn.wq"] = tensors["student.block0.attn.wq"][:12]
        else:
            config = {**config, "aggregator": {**config["aggregator"], "depth": 2}}
        gbio.write_gbck(path, tensors, config)
        with pytest.raises(gbio.FormatError, match=rf"c\.gbck: tensors differ from the model "
                                                   rf"its header's configs declare: {message}"):
            load_checkpoint(path)

    def test_load_checkpoint_draws_no_random_model(self, rng, tmp_path, monkeypatch):
        """The loader checks names and shapes against the config's spec,
        not against a random model: it makes no generator, and still
        refuses a misshapen tensor by name."""
        path = tmp_path / "c.gbck"
        train_pretrain(make_cohort(2, rng), TINY_AGG, TINY_PRE).save(path)
        tensors, header = gbio.read_gbck(path)

        def no_rng(*args, **kwargs):
            raise AssertionError("a checkpoint load drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        student, _ = load_checkpoint(path)
        assert all(np.array_equal(p.data, tensors[f"student.{name}"]) for name, p in student.items())
        tensors["student.embed.w1"] = tensors["student.embed.w1"][:, :3]
        gbio.write_gbck(path, tensors, header["config"])
        with pytest.raises(gbio.FormatError, match=r"tensor 'student\.embed\.w1' has shape \[8, 3\], not \[8, 16\]"):
            load_checkpoint(path)

    def test_load_checkpoint_refuses_other_files(self, rng, tmp_path):
        path = tmp_path / "c.gbck"
        train_pretrain(make_cohort(2, rng), TINY_AGG, TINY_PRE).save(path)
        tensors, header = gbio.read_gbck(path)
        gbio.write_gbck(path, tensors, {**header["config"], "stage": "align"})
        with pytest.raises(gbio.FormatError, match=r"c\.gbck: stage 'align'"):
            load_checkpoint(path)
        no_aggregator = {k: v for k, v in header["config"].items() if k != "aggregator"}
        gbio.write_gbck(path, tensors, no_aggregator)
        with pytest.raises(gbio.FormatError, match=r"c\.gbck: .* no 'aggregator' config section"):
            load_checkpoint(path)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PretrainConfig(ema_momentum=1.5)
        with pytest.raises(ValueError):
            PretrainConfig(k_global=0)
        with pytest.raises(ValueError, match="two views"):
            PretrainConfig(k_global=1, k_local=0)
        with pytest.raises(ValueError):
            PretrainConfig(student_temp=0.0)
        with pytest.raises(ValueError, match="epochs"):
            PretrainConfig(epochs=0)

    @pytest.mark.parametrize("field,value", [
        ("batch_size", 0), ("batch_size", -3), ("mask_ratio", 1.0), ("mask_ratio", -0.1),
        ("k_local", -1), ("lr", 0.0), ("lr", -1e-4), ("n_prototypes", 0), ("head_hidden", 0),
        ("head_hidden", -1), ("head_bottleneck", 0), ("weight_decay", -1.0), ("ibot_weight", -0.5),
    ])
    def test_config_rejects_settings_that_cannot_train(self, field, value):
        # k_global=3 keeps two views in total when k_local is -1
        with pytest.raises(ValueError, match=field):
            PretrainConfig(k_global=3, **{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["lr", "weight_decay", "ibot_weight", "student_temp",
                                       "ema_momentum", "mask_ratio"])
    def test_config_rejects_non_finite_floats(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            PretrainConfig(**{field: value})

    def test_config_file_with_a_nan_weight_refused(self, tmp_path):
        # json.loads reads the NaN token, so only the config can refuse it
        path = tmp_path / "pretrain.json"
        path.write_text('{"epochs": 1, "weight_decay": -1.0, "ibot_weight": NaN}')
        with pytest.raises(gbio.FormatError, match=r"pretrain\.json, section 'pretrain': ibot_weight must "
                                                   r"be finite, got nan"):
            gbio.config_from(PretrainConfig, gbio.read_json(path), path, "pretrain")

    def test_teacher_temp_schedule(self):
        cfg = PretrainConfig(epochs=30)
        assert pretrain.TEACHER_TEMP_START < cfg.teacher_temp_at(0) < pretrain.TEACHER_TEMP_END
        assert cfg.teacher_temp_at(3) == pretrain.TEACHER_TEMP_END
        assert cfg.teacher_temp_at(29) == pretrain.TEACHER_TEMP_END
