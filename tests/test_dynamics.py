"""Linear-model gradient dynamics: init, gradients, conservation laws."""

import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgeo.dynamics import (
    LOSS_KINDS,
    DivergenceError,
    ToyConfig,
    _error_matrix,
    _loss,
    check_conservation,
    check_growth_law,
    gd_step,
    init_balanced,
    phase_summary,
    primacy_selection_probe,
    run_trajectory,
    softmax_alpha,
    target_matrix,
)
from specgeo.spectral import EigenSpectrum, rankme

from oracles import (frequent_first_pairs, min_norm_margin_rankme, softmax_mp,
                     trajectory_reference, window_selection)


SHORT = ToyConfig(steps=400)
INF = float("inf")
_WINDOW_KEYS = ("late_sigma_growth", "selection_correlation", "window_start_step")


def _vocab8(d, counts=(8, 4, 3, 2, 2, 1, 1, 1)):
    """A 20 000-step config at |V| = 8, by default with Zipf class counts;
    d_in is the larger of the batch and 8."""
    return ToyConfig(d_in=max(sum(counts), 8), d=d, vocab=8, class_counts=counts,
                     steps=20_000, record_every=10)

# configs that diverge within a few dozen steps, one under a loss with a
# softmax and one without
DIVERGING = {
    "mse": dict(loss_kind="mse", lr=50.0),
    "xent": dict(lr=400.0, steps=2000),
    # parameters stay finite, but conserve_err (a norm of f^T f) overflows
    "observables": dict(lr=1e3, steps=30),
}


def _random_targets(rng, b, vocab):
    p = rng.uniform(0.0, 1.0, size=(b, vocab)) ** 3
    return p / p.sum(axis=1, keepdims=True)


class TestInitBalanced:
    def test_balance_exact(self):
        for seed in range(5):
            state = init_balanced(ToyConfig(seed=seed))
            f = state.features()
            lhs = f.T @ f
            assert state.balance_residual <= 1e-12 * max(np.linalg.norm(lhs), 1e-30)

    def test_orthonormal_rows(self):
        state = init_balanced(ToyConfig(seed=3))
        gram = state.inputs @ state.inputs.T
        assert np.linalg.norm(gram - np.eye(gram.shape[0])) < 1e-10

    def test_deterministic(self):
        a = init_balanced(ToyConfig(seed=11))
        b = init_balanced(ToyConfig(seed=11))
        np.testing.assert_array_equal(a.theta, b.theta)
        np.testing.assert_array_equal(a.w, b.w)
        np.testing.assert_array_equal(a.inputs, b.inputs)

    def test_batch_too_large(self):
        with pytest.raises(ValueError, match="orthonormal"):
            ToyConfig(d_in=4, class_counts=(4, 2, 1, 1))

    def test_labels_match_counts(self):
        state = init_balanced(ToyConfig(seed=0))
        assert np.bincount(state.labels, minlength=4).tolist() == [4, 2, 1, 1]

    def test_label_odds_validated(self):
        assert ToyConfig(label_odds=INF).label_odds == INF
        assert ToyConfig(label_odds=1.0).label_odds == 1.0
        for bad in (float("nan"), 0.999, 0.0, -INF):
            with pytest.raises(ValueError, match=r"label_odds must be in \[1, inf\]"):
                ToyConfig(label_odds=bad)

    def test_unknown_loss_kind_rejected(self):
        with pytest.raises(ValueError, match=r"^loss_kind must be one of \('xent_exact', "
                                             r"'xent_linearized', 'mse'\)$"):
            ToyConfig(loss_kind="hinge")

    def test_nan_learning_rate_rejected(self):
        with pytest.raises(ValueError, match="learning rate"):
            ToyConfig(lr=float("nan"))

    def test_unbalanceable_rejected(self):
        with pytest.raises(ValueError, match=r"^cannot balance: rank\(f\)=5 exceeds vocab=4, "
                                             r"so no W with W W\^T = f\^T f exists$"):
            ToyConfig(d=5)
        # rank(f) = min(batch, d): a batch of 3 fits 4 classes at any d
        init_balanced(ToyConfig(d=5, class_counts=(1, 1, 1, 0)))
        # the checks that came first still come first
        with pytest.raises(ValueError, match="learning rate"):
            ToyConfig(d=5, lr=0.0, seed=-1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            ToyConfig(seed=-1)

    @settings(max_examples=200, deadline=None)
    @given(d_in=st.integers(1, 12), d=st.integers(1, 8),
           class_counts=st.lists(st.integers(0, 3), min_size=1, max_size=6),
           seed=st.integers(-5, 2**70))
    def test_every_config_initialises(self, d_in, d, class_counts, seed):
        """A config either fails to construct, or init_balanced takes it."""
        try:
            cfg = ToyConfig(d_in=d_in, d=d, vocab=len(class_counts),
                            class_counts=tuple(class_counts), seed=seed)
        except ValueError:
            return
        state = init_balanced(cfg)
        assert state.w.shape == (d, len(class_counts))
        f = state.features()
        assert state.balance_residual <= 1e-12 * max(np.linalg.norm(f.T @ f), 1e-30)

    def test_state_carries_config_targets(self):
        cfg = ToyConfig(seed=2, label_odds=7.0)
        state = init_balanced(cfg)
        np.testing.assert_array_equal(
            state.targets,
            target_matrix(state.labels, cfg.class_counts, cfg.label_odds),
        )


class TestTargetMatrix:
    LABELS = np.repeat(np.arange(4), (4, 2, 1, 1))
    COUNTS = (4, 2, 1, 1)

    def test_infinite_odds_is_exact_onehot(self):
        p = target_matrix(self.LABELS, self.COUNTS, INF)
        np.testing.assert_array_equal(p, np.eye(4)[self.LABELS])

    def test_unit_odds_is_unigram(self):
        p = target_matrix(self.LABELS, self.COUNTS, 1.0)
        np.testing.assert_allclose(p, np.tile([0.5, 0.25, 0.125, 0.125], (8, 1)),
                                   rtol=0, atol=1e-15)

    def test_odds_below_one_rejected(self):
        for bad in (0.5, float("nan")):
            with pytest.raises(ValueError, match=r"label_odds must be in \[1, inf\]"):
                target_matrix(self.LABELS, self.COUNTS, bad)

    @pytest.mark.parametrize("labels, counts, text", [
        ([0], (1, -1), "class counts must be nonnegative"),
        ([-1], (1, 1), "labels must be in [0, 2), got -1"),
        ([0, 1, 2], (1, 1), "labels must be in [0, 2), got 2"),
        ([0], (0, 0), "class counts are all zero: the targets have no distribution"),
        ([0], (float("nan"), 1), "class counts must be finite whole numbers, got nan"),
        ([0], (INF, 1), "class counts must be finite whole numbers, got inf"),
        ([0], (1.5, 1), "class counts must be finite whole numbers, got 1.5"),
        ([1.5], (1, 1), "labels must be whole numbers, got 1.5"),
        ([float("nan")], (1, 1), "labels must be whole numbers, got nan"),
    ], ids=["negative-count", "negative-label", "label-past-vocab", "zero-counts",
            "nan-count", "infinite-count", "fractional-count", "fractional-label",
            "nan-label"])
    @pytest.mark.parametrize("odds", [2.0, INF])
    def test_bad_input_rejected(self, labels, counts, text, odds):
        with pytest.raises(ValueError) as err:
            target_matrix(labels, counts, odds)
        assert str(err.value) == text

    @pytest.mark.parametrize("counts, text", [
        ((1.5, 2.5), "class counts must be finite whole numbers, got 1.5"),
        ((float("nan"), 1), "class counts must be finite whole numbers, got nan"),
        ((INF, 1), "class counts must be finite whole numbers, got inf"),
    ], ids=["fractional", "nan", "infinite"])
    def test_config_refuses_counts_that_are_not_whole(self, counts, text):
        with pytest.raises(ValueError) as err:
            ToyConfig(vocab=2, class_counts=counts)
        assert str(err.value) == text

    def test_no_labels_no_rows(self):
        """Without labels there are no rows: all-zero counts are no error,
        so ToyConfig reports the empty batch."""
        assert target_matrix((), (0, 0), 2.0).shape == (0, 2)
        with pytest.raises(ValueError, match="^batch must be nonempty$"):
            ToyConfig(class_counts=(0, 0, 0, 0))

    def test_own_token_odds_scaled_by_beta(self):
        beta = 100.0
        p = target_matrix(self.LABELS, self.COUNTS, beta)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        counts = np.asarray(self.COUNTS, dtype=float)
        for r, y in enumerate(self.LABELS):
            for c in range(4):
                if c != y:
                    odds = p[r, y] / p[r, c]
                    assert odds == pytest.approx(beta * counts[y] / counts[c],
                                                 rel=1e-13)


class TestSoftmax:
    def test_uniform_row(self):
        out = softmax_alpha(np.zeros((1, 4)))
        np.testing.assert_allclose(out, 0.25, atol=1e-15)

    def test_saturated_row(self):
        row = np.array([[0.0, 1000.0, 0.0, 0.0]])
        out = softmax_alpha(row)
        np.testing.assert_allclose(out[0], [0, 1, 0, 0], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = softmax_alpha(rng.normal(size=(6, 5)) * 30)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_high_precision(self):
        rng = np.random.default_rng(1)
        row = rng.normal(size=7) * 3
        ours = softmax_alpha(row[None, :])[0]
        ref = softmax_mp(row)
        np.testing.assert_allclose(ours, ref, atol=1e-14)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            softmax_alpha(np.array([[np.inf, 0.0]]))

    def test_same_bits_as_method_reductions(self):
        # the ufunc reductions must round exactly as ndarray.max/.sum do,
        # on single batches and on the observables' stacked ones
        rng = np.random.default_rng(5)
        for shape in ((8, 4), (1, 16), (37, 8, 4)):
            logits = rng.normal(size=shape) * 20
            z = logits - logits.max(axis=-1, keepdims=True)
            e = np.exp(z)
            expected = e / e.sum(axis=-1, keepdims=True)
            np.testing.assert_array_equal(softmax_alpha(logits), expected)


class TestAMatrix:
    """The run's own error matrix A against the run's own loss."""

    def test_uniform_alpha(self):
        a = _error_matrix(np.zeros((1, 4)), np.eye(4)[[2]], "xent_exact", None)
        np.testing.assert_allclose(a, [[0.25, 0.25, -0.75, 0.25]])

    def test_perfect_prediction(self):
        targets = np.eye(3)[[1]]
        a = _error_matrix(np.array([[0.0, 1000.0, 0.0]]), targets, "xent_exact", None)
        np.testing.assert_allclose(a, 0.0, atol=1e-15)
        np.testing.assert_array_equal(_error_matrix(targets, targets, "mse", None), 0.0)

    def test_rows_sum_to_zero(self):
        # alpha and P rows are both distributions for the cross-entropy kinds
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(8, 6)) * 3
        targets = _random_targets(rng, 8, 6)
        alpha0 = softmax_alpha(rng.normal(size=(8, 6)))
        for kind in ("xent_exact", "xent_linearized"):
            a = _error_matrix(logits, targets, kind, alpha0)
            np.testing.assert_allclose(a.sum(axis=1), 0.0, atol=1e-12, err_msg=kind)

    @staticmethod
    def _check_fd_gradient(logits, targets, alpha0):
        # A is the gradient of the summed loss w.r.t. the logits, for every
        # kind; _loss takes the stack of all bumped logit matrices at once
        h = 1e-6
        bump = h * np.eye(logits.size).reshape(-1, *logits.shape)
        for kind in LOSS_KINDS:
            a = _error_matrix(logits, targets, kind, alpha0)
            fd = (_loss(logits + bump, targets, kind, alpha0)
                  - _loss(logits - bump, targets, kind, alpha0)) / (2 * h)
            np.testing.assert_allclose(a.ravel(), fd, rtol=0, atol=1e-6, err_msg=kind)

    def test_matches_finite_difference_gradient(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(4, 6))
        onehot = np.eye(6)[rng.integers(0, 6, size=4)]
        self._check_fd_gradient(logits, onehot, softmax_alpha(rng.normal(size=(4, 6))))

    def test_soft_targets_match_finite_difference_gradient(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(4, 6)) * 2
        targets = _random_targets(rng, 4, 6)
        self._check_fd_gradient(logits, targets, softmax_alpha(rng.normal(size=(4, 6))))

    def test_xent_bounded_below_by_target_entropy(self):
        # Gibbs: sum_r -P_r . log softmax(z_r) >= sum_r H(P_r), with
        # equality at z = log P, so soft-target losses level off above 0
        rng = np.random.default_rng(7)
        targets = _random_targets(rng, 6, 5)
        entropy = float(-np.sum(targets * np.log(targets)))
        for _ in range(10):
            logits = rng.normal(size=(6, 5)) * 3
            assert _loss(logits, targets, "xent_exact", None) >= entropy
        assert _loss(np.log(targets), targets, "xent_exact", None) == pytest.approx(
            entropy, rel=1e-14)


class TestGdStep:
    def test_stationary_when_error_zero(self):
        # mse loss with logits equal to targets: A = 0 exactly
        cfg = ToyConfig(d_in=8, d=4, vocab=4, class_counts=(2, 2, 2, 2),
                        loss_kind="mse", steps=5)
        state = init_balanced(cfg)
        # force a perfect fit: the inputs are orthonormal and square, so
        # theta = S^T P with W = I gives logits S S^T P = P up to round-off
        state.theta = state.inputs.T @ state.targets
        state.w = np.eye(4)
        assert np.linalg.norm(state.logits() - state.targets) < 1e-12
        after = gd_step(state, cfg)
        np.testing.assert_allclose(after.theta, state.theta, atol=1e-12)
        np.testing.assert_allclose(after.w, state.w, atol=1e-12)

    def test_zero_lr_is_identity_up_to_roundoff(self):
        cfg = ToyConfig(lr=1e-300, steps=1)
        state = init_balanced(cfg)
        after = gd_step(state, cfg)
        np.testing.assert_allclose(after.theta, state.theta, atol=1e-15)
        np.testing.assert_allclose(after.w, state.w, atol=1e-15)

    def test_matches_hand_rolled_oracle(self):
        # one-hot labels: the update this oracle spells out needs beta = inf
        cfg = ToyConfig(d_in=4, d=2, vocab=2, class_counts=(3, 1), seed=5,
                        steps=1, label_odds=INF)
        state = init_balanced(cfg)
        f = state.inputs @ state.theta
        logits = f @ state.w
        # hand-rolled softmax and update with explicit loops
        b, v = logits.shape
        alpha = np.empty_like(logits)
        for i in range(b):
            m = max(logits[i])
            exps = [np.exp(z - m) for z in logits[i]]
            s = sum(exps)
            alpha[i] = [e / s for e in exps]
        a = alpha.copy()
        for i, lab in enumerate(state.labels):
            a[i, lab] -= 1.0
        theta_expected = state.theta - cfg.lr * state.inputs.T @ (a @ state.w.T)
        w_expected = state.w - cfg.lr * f.T @ a
        after = gd_step(state, cfg)
        np.testing.assert_allclose(after.theta, theta_expected, atol=1e-12)
        np.testing.assert_allclose(after.w, w_expected, atol=1e-12)

    def test_matches_hand_rolled_oracle_soft_targets(self):
        beta = 30.0
        counts = (3, 2, 1)
        cfg = ToyConfig(d_in=6, d=2, vocab=3, class_counts=counts, seed=5,
                        steps=1, label_odds=beta)
        state = init_balanced(cfg)
        f = state.inputs @ state.theta
        logits = f @ state.w
        b, v = logits.shape
        # hand-rolled target rows: counts, own token's odds times beta
        targets = np.empty_like(logits)
        for i, lab in enumerate(state.labels):
            weights = [counts[c] * (beta if c == lab else 1.0) for c in range(v)]
            total = sum(weights)
            targets[i] = [wt / total for wt in weights]
        alpha = np.empty_like(logits)
        for i in range(b):
            m = max(logits[i])
            exps = [np.exp(z - m) for z in logits[i]]
            s = sum(exps)
            alpha[i] = [e / s for e in exps]
        a = alpha - targets
        theta_expected = state.theta - cfg.lr * state.inputs.T @ (a @ state.w.T)
        w_expected = state.w - cfg.lr * f.T @ a
        after = gd_step(state, cfg)
        np.testing.assert_allclose(after.theta, theta_expected, atol=1e-12)
        np.testing.assert_allclose(after.w, w_expected, atol=1e-12)

    @pytest.mark.parametrize("cfg", [
        pytest.param(ToyConfig(steps=200, seed=4, loss_kind=kind), id=kind)
        for kind in ("xent_exact", "xent_linearized", "mse")
    ] + [
        pytest.param(ToyConfig(steps=200, seed=4, label_odds=INF), id="onehot"),
        # 200 is off the 7-step grid, so the final record is forced
        pytest.param(ToyConfig(steps=200, seed=4, record_every=7), id="every7"),
    ])
    def test_trajectory_loop_matches_gd_step(self, cfg):
        # the f-space loop with stacked observables against repeated
        # gd_step on theta with every observable computed per record
        traj = run_trajectory(cfg)
        ref = trajectory_reference(cfg)
        assert set(ref) == set(vars(traj)) - {"cfg"}
        np.testing.assert_array_equal(traj.steps, ref["steps"])
        np.testing.assert_array_equal(traj.align_grouped, ref["align_grouped"])
        for name in ("loss", "rankme", "sigma_f", "sigma_w", "a_norm", "g",
                     "margins"):
            scale = np.max(np.abs(ref[name]), axis=0)  # per column
            excess = np.abs(getattr(traj, name) - ref[name]) / scale
            assert excess.max() <= 1e-12, (name, excess.max())
        np.testing.assert_allclose(traj.align_err, ref["align_err"], rtol=0,
                                   atol=1e-9)
        np.testing.assert_allclose(traj.conserve_err, ref["conserve_err"], rtol=0,
                                   atol=1e-12 * ref["sigma_f"].max() ** 2)

    @pytest.mark.parametrize("kind", ["xent_exact", "xent_linearized", "mse"])
    def test_first_step_expands_at_initial_softmax(self, kind):
        # the state carries alpha_0, so gd_step needs nothing else for any
        # loss; its step is _step with alpha_0 = softmax of the init logits
        from specgeo.dynamics import _step

        cfg = ToyConfig(loss_kind=kind, seed=3)
        state = init_balanced(cfg)
        alpha0 = softmax_alpha(state.logits())
        np.testing.assert_array_equal(state.alpha0, alpha0)
        f = state.features()
        f_new, w_new = _step(f, state.w, state.targets, kind, cfg.lr, alpha0)
        after = gd_step(state, cfg)
        np.testing.assert_array_equal(after.w, w_new)
        np.testing.assert_array_equal(
            after.theta, state.theta + state.inputs.T @ (f_new - f))
        assert after.alpha0 is state.alpha0

    def test_divergence_detected(self):
        cfg = ToyConfig(lr=1e150, steps=2, loss_kind="mse")
        state = init_balanced(cfg)
        state.theta = state.theta * 1e150
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError):
                gd_step(gd_step(state, cfg), cfg)


class TestLegendreTangency:
    @staticmethod
    def _check_tangency(rng, draw_targets):
        # the linearized loss expanded at softmax(z) equals the exact one at z
        for _ in range(20):
            logits = rng.normal(size=(5, 7)) * rng.uniform(0.1, 5)
            targets = draw_targets()
            lin = _loss(logits, targets, "xent_linearized", softmax_alpha(logits))
            exact = _loss(logits, targets, "xent_exact", None)
            assert lin == pytest.approx(exact, abs=1e-12 * max(1.0, abs(exact)))

    def test_linearized_equals_exact_at_expansion(self):
        rng = np.random.default_rng(4)
        self._check_tangency(rng, lambda: np.eye(7)[rng.integers(0, 7, size=5)])

    def test_linearized_equals_exact_at_expansion_soft_targets(self):
        rng = np.random.default_rng(8)
        self._check_tangency(rng, lambda: _random_targets(rng, 5, 7))


class TestRunTrajectory:
    def test_deterministic(self):
        a = run_trajectory(SHORT)
        b = run_trajectory(SHORT)
        np.testing.assert_array_equal(a.rankme, b.rankme)
        np.testing.assert_array_equal(a.sigma_f, b.sigma_f)
        np.testing.assert_array_equal(a.loss, b.loss)

    def test_loss_decreases(self):
        traj = run_trajectory(SHORT)
        assert traj.loss[-1] < traj.loss[0]

    def test_observables_do_not_depend_on_the_block_size(self, monkeypatch):
        from specgeo import dynamics

        cfg = ToyConfig(steps=300, seed=5)
        whole = run_trajectory(cfg)
        monkeypatch.setattr(dynamics, "_BLOCK", 7)
        blocked = run_trajectory(cfg)
        for field in dataclasses.fields(whole):
            if field.name != "cfg":
                np.testing.assert_array_equal(getattr(blocked, field.name),
                                              getattr(whole, field.name), strict=True)

    def test_record_every(self):
        traj = run_trajectory(ToyConfig(steps=100, record_every=10))
        assert traj.steps.tolist() == list(range(0, 101, 10))

    def test_finite_records(self):
        traj = run_trajectory(SHORT)
        for arr in (traj.loss, traj.rankme, traj.sigma_f, traj.align_err,
                    traj.conserve_err, traj.a_norm):
            assert np.all(np.isfinite(arr))

    @pytest.mark.parametrize("name", sorted(DIVERGING))
    def test_divergence_is_one_error_at_a_record_step(self, name):
        # one error type whatever overflows, and no numpy warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match=r"at record step \d+ "):
                run_trajectory(ToyConfig(**DIVERGING[name]))

    @pytest.mark.parametrize("name", [*sorted(DIVERGING), "xent_linearized"])
    def test_divergence_step_does_not_depend_on_the_horizon(self, name):
        # the linearized run's conserve_err overflows thousands of steps
        # before its parameters do
        config = DIVERGING.get(name, dict(loss_kind="xent_linearized"))

        def cut(steps):
            return ToyConfig(**{**config, "steps": steps})

        def diverges_at(cfg):
            with pytest.raises(DivergenceError) as exc:
                run_trajectory(cfg)
            return int(re.search(r"at record step (\d+) ", str(exc.value))[1])

        step = diverges_at(ToyConfig(**config))
        assert diverges_at(cut(step)) == step
        assert len(run_trajectory(cut(step - 1))) == step  # records 0 .. step - 1

    def test_divergence_between_records_names_the_record_after(self):
        # record 0 is finite and the logits overflow before record 100
        with pytest.raises(DivergenceError,
                           match=r"^non-finite parameters or logits at record step 100 "):
            run_trajectory(ToyConfig(**DIVERGING["mse"], record_every=100))

    def test_mse_and_linearized_kinds_run(self):
        for kind in ("mse", "xent_linearized"):
            traj = run_trajectory(ToyConfig(steps=200, loss_kind=kind))
            assert len(traj) == 201

    def test_infinite_odds_is_the_onehot_classifier(self):
        # beta = inf must reproduce the one-hot run: an explicit loop with
        # A = softmax - onehot and loss sum(lse - z_label)
        cfg = ToyConfig(steps=400, label_odds=INF)
        traj = run_trajectory(cfg)
        state = init_balanced(cfg)
        theta, w = state.theta.copy(), state.w.copy()
        labels, idx = state.labels, np.arange(state.labels.size)
        for _ in range(cfg.steps):
            f = state.inputs @ theta
            a = softmax_alpha(f @ w)
            a[idx, labels] -= 1.0
            theta, w = (theta - cfg.lr * state.inputs.T @ (a @ w.T),
                        w - cfg.lr * f.T @ a)
        f = state.inputs @ theta
        logits = f @ w
        zmax = logits.max(axis=1)
        lse = zmax + np.log(np.exp(logits - zmax[:, None]).sum(axis=1))
        loss = float(np.sum(lse - logits[idx, labels]))
        assert traj.loss[-1] == pytest.approx(loss, rel=1e-12)
        np.testing.assert_allclose(traj.sigma_f[-1],
                                   np.linalg.svd(f, compute_uv=False), rtol=1e-12)

    def test_rankme_uses_uncentred_second_moment(self):
        # the sandbox's RankMe is that of f^T f / b with no mean removed
        cfg = ToyConfig(steps=1)
        traj = run_trajectory(cfg)
        f = init_balanced(cfg).features()
        b = f.shape[0]
        lam = np.sort(np.linalg.eigvalsh(f.T @ f / b))[::-1]
        assert traj.rankme[0] == pytest.approx(
            rankme(EigenSpectrum(values=lam)), rel=1e-12)
        fc = f - f.mean(axis=0)
        lam_c = np.sort(np.linalg.eigvalsh(fc.T @ fc / b))[::-1]
        assert abs(traj.rankme[0] - rankme(EigenSpectrum(values=lam_c))) > 1e-3

    def test_onehot_run_climbs_below_its_max_margin_limit(self):
        """With one-hot targets the batch is separable, so RankMe tends to
        that of the min-norm margin solution (README): 1.989 for the stock
        counts at d = 2.  The seed-0 run is still below it and rising at
        step 50k, so it cannot rise and then fall."""
        cfg = ToyConfig(label_odds=INF, record_every=12_500)
        limit = min_norm_margin_rankme(cfg.class_counts, cfg.d)
        assert limit == pytest.approx(1.989, abs=1e-3)
        traj = run_trajectory(cfg)
        assert traj.steps[-1] == 50_000
        assert np.all(np.diff(traj.rankme) > 0) and traj.rankme[-1] < limit


class TestConservation:
    def test_step0_residual(self):
        traj = run_trajectory(SHORT)
        report = check_conservation(traj)
        assert report["residual_step0"] <= 1e-12
        assert report["alignment_error_step0"] <= 1e-10

    def test_drift_shrinks_linearly_in_lr_at_fixed_horizon(self):
        # Euler drift per unit flow-time is O(eta): halving eta with twice
        # the steps should roughly halve the final drift
        t_full = run_trajectory(ToyConfig(steps=800, lr=1e-2))
        t_half = run_trajectory(ToyConfig(steps=1600, lr=5e-3))
        ratio = t_full.conserve_err[-1] / t_half.conserve_err[-1]
        assert 1.4 < ratio < 2.8

    def test_per_step_drift_growth_quarters_when_lr_halves(self):
        # early drift growth rate scales as eta^2
        t_full = run_trajectory(ToyConfig(steps=10, lr=1e-2))
        t_half = run_trajectory(ToyConfig(steps=10, lr=5e-3))
        ratio = t_full.conserve_err[-1] / t_half.conserve_err[-1]
        assert 3.0 < ratio < 5.0

    def test_alignment_error_scales_linearly_with_lr(self):
        a = run_trajectory(ToyConfig(steps=500, lr=1e-2)).align_err.max()
        b = run_trajectory(ToyConfig(steps=1000, lr=5e-3)).align_err.max()
        assert 1.4 < a / b < 2.8

    def test_degenerate_sigmas_use_subspace_projectors(self):
        from specgeo.dynamics import _alignment_error

        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.normal(size=(4, 2)))
        theta = np.pi / 5
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        v1t = q.T[None]
        u2 = (q @ rot)[None]  # same 2-D subspace, rotated basis
        err, grouped = _alignment_error(v1t, u2, np.array([[1.0, 0.3]]))
        assert not grouped[0] and err[0] > 0.5  # distinct sigmas: vectors compared
        err, grouped = _alignment_error(v1t, u2, np.array([[1.0, 1.0 - 1e-9]]))
        assert grouped[0] and err[0] < 1e-10  # degenerate: subspace is what counts

    def test_singleton_block_of_a_degenerate_record(self):
        # d = 3 with sigma_1 = sigma_2 != sigma_3: the tied pair is compared
        # through its projectors, the lone third pair by the per-pair formula
        from specgeo.dynamics import _alignment_error

        rng = np.random.default_rng(2)
        v, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        err, grouped = _alignment_error(v.T[None], u[None], np.array([[2.0, 2.0, 1.0]]))
        pair = v[:, :2] @ v[:, :2].T - u[:, :2] @ u[:, :2].T
        lone = abs(v[:, 2] @ u[:, 2]) - 1.0
        assert grouped[0] and lone ** 2 > 1e-3
        assert err[0] == pytest.approx(np.sqrt(np.sum(pair * pair) + lone ** 2),
                                       rel=1e-12)

    def test_stacked_records_group_only_degenerate_rows(self):
        from specgeo.dynamics import _alignment_error, _observables

        state = init_balanced(ToyConfig())
        rng = np.random.default_rng(1)
        q1, _ = np.linalg.qr(rng.normal(size=(8, 2)))
        q2, _ = np.linalg.qr(rng.normal(size=(4, 2)))
        rot = np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]])
        # f = Q1 S and W = rot S Q2^T: equal sigmas, right factors of f
        # rotated against the left factors of W
        sigmas = np.array([[1.0, 1.0], [1.0, 0.5]])
        f = np.stack([q1 * s for s in sigmas])
        w = np.stack([rot @ (s[:, None] * q2.T) for s in sigmas])
        obs = _observables(f, w, state, "mse")
        assert obs["align_grouped"].tolist() == [True, False]
        assert obs["align_err"][0] < 1e-12
        _, _, v1t = np.linalg.svd(f[1], full_matrices=False)
        u2, _, _ = np.linalg.svd(w[1], full_matrices=False)
        err, grouped = _alignment_error(v1t[None], u2[None], sigmas[1:])
        assert not grouped[0] and err[0] > 0.3
        assert obs["align_err"][1] == pytest.approx(err[0], abs=1e-12)


class TestGrowthLaw:
    def test_growth_law_on_short_run(self):
        traj = run_trajectory(ToyConfig(steps=1500))
        report = check_growth_law(traj)
        assert report["f_side"]["max"] <= 0.05
        assert report["w_side"]["max"] <= 0.05
        assert report["rate_identity"]["max"] <= 0.05

    def test_g_bounded_by_dominant_class_count(self):
        # |g_i| <= sigma_max(A); at uniform prediction the dominant class
        # sets the scale of A's top singular value
        for counts, d_in in (((4, 2, 1, 1), 8), ((12, 2, 1, 1), 16)):
            traj = run_trajectory(ToyConfig(d_in=d_in, class_counts=counts,
                                            steps=2))
            n_dom = max(counts)
            assert check_growth_law(traj)["g_abs_max_step0"] <= n_dom

    def test_g_scaling_across_skews(self):
        small = run_trajectory(ToyConfig(d_in=8, class_counts=(4, 2, 1, 1),
                                         steps=2))
        big = run_trajectory(ToyConfig(d_in=24, class_counts=(20, 2, 1, 1),
                                       steps=2))
        g_small = check_growth_law(small)["g_abs_max_step0"]
        g_big = check_growth_law(big)["g_abs_max_step0"]
        # growth of the coupling is bounded by the dominant-count ratio
        assert g_big / g_small <= 20 / 4 + 1e-9

    @pytest.mark.parametrize("floor", [float("nan"), float("inf"), -1e-6])
    def test_floor_must_be_finite_and_nonnegative(self, floor):
        traj = run_trajectory(ToyConfig(steps=50))
        with pytest.raises(ValueError, match=f"sigma_floor_rel must be finite and >= 0, "
                                             f"got {floor!r}"):
            check_growth_law(traj, sigma_floor_rel=floor)

    def test_zero_sigma_skipped(self):
        traj = run_trajectory(ToyConfig(steps=50))
        report = check_growth_law(traj, sigma_floor_rel=0.99)
        assert report["skipped_small_sigma"] > 0
        report = check_growth_law(traj, sigma_floor_rel=2.0)  # every index skipped
        empty = {"max": 0.0, "p95": 0.0, "count": 0}
        assert [report[key] for key in ("f_side", "w_side", "rate_identity",
                                        "rate_identity_fd")] == [empty] * 4

    @pytest.mark.parametrize("steps, record_every", [
        (1, 1), (7, 1), (9, 3), (10, 3), (10, 10), (5, 10)])
    def test_record_count_is_the_runs(self, steps, record_every):
        from specgeo.dynamics import _record_count

        cfg = ToyConfig(steps=steps, record_every=record_every)
        assert _record_count(cfg) == len(run_trajectory(cfg))

    def test_singular_value_that_never_moves(self):
        # one class: the softmax is 1 and matches its target, so A = 0 and
        # every velocity and prediction is 0, an error of 0 and no 0 / 0
        traj = run_trajectory(ToyConfig(steps=100, vocab=1, class_counts=(3,), d=1))
        report = check_growth_law(traj)
        zero = {"max": 0.0, "p95": 0.0, "count": 99}
        assert [report[key] for key in ("f_side", "w_side", "rate_identity",
                                        "rate_identity_fd")] == [zero] * 4

    def test_short_and_sparse_runs_rejected(self):
        with pytest.raises(ValueError, match="need at least 3 records"):
            check_growth_law(run_trajectory(ToyConfig(steps=1)))
        with pytest.raises(ValueError, match="needs per-step records"):
            check_growth_law(run_trajectory(ToyConfig(steps=20, record_every=2)))


class TestPrimacyProbe:
    def test_two_class_skew_crossing_order(self):
        cfg = ToyConfig(d_in=10, d=2, vocab=2, class_counts=(9, 1),
                        steps=2500, seed=0)
        probe = primacy_selection_probe(run_trajectory(cfg))
        cross = probe["margin_crossing_step"]
        assert cross[0] is not None and cross[1] is not None
        assert cross[0] < cross[1]  # frequent class strictly earlier

    def test_default_config_frequency_order(self):
        # crossings at steps 355, 516, 1199 and 606
        probe = primacy_selection_probe(run_trajectory(ToyConfig(steps=2500)))
        assert probe["frequent_classes_cross_first"]

    @staticmethod
    def _crossing_at(counts, crossings):
        """A 60-step run whose class c has a margin 1 above the crossing
        threshold from step crossings[c] on (never if None) and 1 below it
        before, under the given class counts."""
        traj = run_trajectory(ToyConfig(steps=60))
        cfg = ToyConfig(vocab=len(counts), class_counts=tuple(counts), d_in=12, steps=60)
        at = np.array([INF if t is None else t for t in crossings])
        threshold = 0.5 * np.log(cfg.label_odds)
        return dataclasses.replace(
            traj, cfg=cfg, margins=threshold + np.where(traj.steps[:, None] >= at, 1.0, -1.0))

    @pytest.mark.parametrize("counts, crossings, want", [
        # a tie group meets the group above it through each of its classes
        ((3, 2, 2, 1), (1, 50, 3, 10), False),
        ((4, 2, 1, 1), (50, 50, 60, 0), False),
        ((4, 2, 1, 1), (50, 50, 60, 55), True),
        ((3, 2, 2, 1), (1, 3, 50, 50), True),
        ((2, 2, 2, 2), (30, None, 1, 0), True),
        ((3, 1, 0), (5, None, None), False),
        ((3, 1, 0), (5, 7, None), True),
        ((3, 1, 0), (None, 7, None), False),
    ])
    def test_frequency_order_is_pairwise(self, counts, crossings, want):
        probe = primacy_selection_probe(self._crossing_at(counts, crossings))
        assert probe["margin_crossing_step"] == dict(enumerate(crossings))
        assert probe["frequent_classes_cross_first"] is want
        assert frequent_first_pairs(counts, dict(enumerate(crossings))) is want

    @settings(max_examples=100, deadline=None)
    @given(counts=st.lists(st.integers(0, 3), min_size=4, max_size=4),
           crossings=st.lists(st.none() | st.integers(0, 60), min_size=4, max_size=4))
    def test_frequency_order_matches_pair_loop(self, counts, crossings):
        if sum(counts) == 0:
            return
        probe = primacy_selection_probe(self._crossing_at(counts, crossings))
        assert probe["frequent_classes_cross_first"] is frequent_first_pairs(
            counts, dict(enumerate(crossings)))

    def test_uniform_spread_reported(self):
        cfg = ToyConfig(class_counts=(2, 2, 2, 2), steps=2500)
        probe = primacy_selection_probe(run_trajectory(cfg))
        assert probe["crossing_spread"] is not None
        assert probe["crossing_spread"] >= 0
        # one-hot targets: the threshold is infinite, and no class crosses
        never = primacy_selection_probe(run_trajectory(dataclasses.replace(cfg, label_odds=INF)))
        assert set(never["margin_crossing_step"].values()) == {None}
        assert never["crossing_spread"] is None

    @pytest.mark.parametrize("cfg, tie, peak", [
        (_vocab8(d=2), None, True),
        (_vocab8(d=3), None, True),
        (_vocab8(d=3), "start", True),
        (_vocab8(d=3), "frozen", True),
        (ToyConfig(d=1, steps=200), None, False),
        (ToyConfig(steps=30_000, record_every=10), None, True),
        (ToyConfig(steps=2500), None, False),
    ], ids=["d2", "d3", "d3_ties", "d3_frozen", "one_direction", "interior_peak",
            "no_peak"])
    def test_window_statistics_match_formula(self, cfg, tie, peak):
        traj = run_trajectory(cfg)
        summary = phase_summary(traj.rankme)
        assert summary.has_interior_maximum is peak
        if not peak:  # no compression window: no statistics
            probe = primacy_selection_probe(traj)
            assert [probe[key] for key in _WINDOW_KEYS] == [None] * 3
            return
        start = min(summary.peak_index + summary.smooth_window // 2, len(traj) - 2)
        sig = traj.sigma_f.copy()
        if tie == "start":  # two directions equal at the window's first record
            sig[start, 1:] = sig[start, 1:].mean()
        elif tie == "frozen":  # no direction moves over the window: no value
            sig[start:] = sig[start]
        probe = primacy_selection_probe(dataclasses.replace(traj, sigma_f=sig))
        growth, corr = window_selection(sig[start:])
        assert probe["window_start_step"] == traj.steps[start]
        assert probe["late_sigma_growth"] == growth
        if corr is None:
            assert probe["selection_correlation"] is None
        else:
            assert probe["selection_correlation"] == pytest.approx(corr, abs=1e-12)
        if sig.shape[1] == 2:  # two points: the correlation is +-1
            assert abs(probe["selection_correlation"]) == pytest.approx(1, abs=1e-12)

    def test_selection_positive_late_default_seed(self):
        traj = run_trajectory(ToyConfig(steps=30_000, record_every=10))
        probe = primacy_selection_probe(traj)
        assert probe["selection_correlation"] > 0
        # over the compression window the dominant direction grows and the
        # other contracts
        growth = probe["late_sigma_growth"]
        assert growth[0] > 0.1 and growth[1] < 0

    def test_zipf_counts_compress_and_select_where_uniform_do_not(self):
        # at |V| = 8 and d = 2 or 3, Zipf counts give RankMe an interior
        # maximum and sigma growth on the dominant directions; uniform
        # counts give no compression window, so no window statistics
        for d in (2, 3):
            zipf = primacy_selection_probe(run_trajectory(_vocab8(d=d)))
            assert zipf["window_start_step"] is not None
            assert zipf["selection_correlation"] > 0
            uniform = primacy_selection_probe(run_trajectory(_vocab8(d=d, counts=(2,) * 8)))
            assert [uniform[key] for key in _WINDOW_KEYS] == [None] * 3


class TestPhaseSummary:
    def test_detects_synthetic_hump(self):
        t = np.linspace(0, 1, 400)
        series = 1.0 + np.sin(np.pi * t)  # rise then fall
        summary = phase_summary(series)
        assert summary.has_interior_maximum
        assert 150 < summary.peak_index < 250

    def test_monotone_series_has_no_interior_max(self):
        series = np.linspace(1.0, 2.0, 300)
        summary = phase_summary(series)
        assert not summary.has_interior_maximum
        assert summary.post_warmup_drawdown <= 1e-12

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="need at least 3 records"):
            phase_summary(np.array([1.0, 2.0]))

    @pytest.mark.parametrize("bad", [INF, float("nan")])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError, match=f"RankMe series must be finite, got {bad}"):
            phase_summary(np.array([1, 2, 3, bad, 2, 1.0]))

    def test_collapse_then_rise(self):
        t = np.linspace(0, 1, 500)
        series = np.where(t < 0.2, 2.0 - 5 * t, 1.0 + (t - 0.2))
        summary = phase_summary(series)
        assert not summary.has_interior_maximum
        assert summary.warmup_end > 0
