import numpy as np
import pytest

from omoe_lab import (OMoEState, OrthoProjector, direct_projector, make_optimizer,
                      new_omoe_state)
from omoe_lab.errors import ContractViolation
from omoe_lab.linalg import sym_eigvals
from tests.test_model import small_model


class TestConstruction:
    def test_starts_at_identity(self):
        p = OrthoProjector(3)
        np.testing.assert_array_equal(p.P, np.eye(3))

    def test_identity_spectrum(self):
        np.testing.assert_allclose(sym_eigvals(OrthoProjector(3).P), np.ones(3))

    def test_fresh_effective_rank(self):
        assert OrthoProjector(3).effective_rank(0.5) == 3

    def test_bad_dimension(self):
        with pytest.raises(ContractViolation):
            OrthoProjector(0)

    def test_bad_alpha0(self):
        with pytest.raises(ContractViolation, match="alpha0"):
            new_omoe_state(make_optimizer("sgd", 0.1), small_model(M=2), s=2, n_total=10,
                           alpha0=0.0, lam=0.9, avg_norm="paper", o_lr=0.1)

    def test_bad_lambda(self):
        with pytest.raises(ContractViolation, match="lambda"):
            new_omoe_state(make_optimizer("sgd", 0.1), small_model(M=2), s=2, n_total=10,
                           alpha0=1e-3, lam=1.5, avg_norm="paper", o_lr=0.1)


def decay_state(n_total=10, alpha0=1e-3, lam=0.9):
    """An OMoE state holding only the alpha schedule."""
    return OMoEState(base=make_optimizer("sgd", 0.1), M=2, s=2, n_total=n_total,
                     alpha0=alpha0, lam=lam, avg_norm="paper", o_lr=0.1)


class TestAlphaDecay:
    def test_at_zero(self):
        assert decay_state(alpha0=1e-3, lam=0.5).alpha_at(0) == 1e-3

    def test_at_end(self):
        assert decay_state(alpha0=1e-3, lam=0.5).alpha_at(10) == pytest.approx(1e-3 * 0.5)

    def test_halfway(self):
        assert decay_state(alpha0=1e-3, lam=0.5).alpha_at(5) == \
            pytest.approx(1e-3 * np.sqrt(0.5), rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ContractViolation):
            decay_state().alpha_at(11)


class TestRlsUpdate:
    def test_zero_input_noop(self):
        p = OrthoProjector(3)
        p.rls_update(np.zeros(3), alpha=1.0)
        np.testing.assert_array_equal(p.P, np.eye(3))

    def test_hand_single_axis(self):
        p = OrthoProjector(2)
        p.rls_update(np.array([1.0, 0.0]), alpha=1.0)
        np.testing.assert_allclose(p.P, np.array([[0.5, 0.0], [0.0, 1.0]]))

    def test_hand_both_axes_matches_oracle(self):
        p = OrthoProjector(2)
        p.rls_update(np.array([1.0, 0.0]), alpha=1.0)
        p.rls_update(np.array([0.0, 1.0]), alpha=1.0)
        np.testing.assert_allclose(p.P, 0.5 * np.eye(2))
        np.testing.assert_allclose(p.P, direct_projector(np.eye(2), 1.0), atol=1e-12)

    def test_rejects_bad_alpha(self):
        for alpha in (0.0, float("nan"), float("inf")):  # NaN would fill P with NaN
            p = OrthoProjector(2)
            with pytest.raises(ContractViolation, match="alpha"):
                p.rls_update(np.ones(2), alpha=alpha)
            np.testing.assert_array_equal(p.P, np.eye(2))

    def test_rejects_wrong_dim(self):
        with pytest.raises(ContractViolation):
            OrthoProjector(2).rls_update(np.ones(3), alpha=1.0)

    def test_updates_counted(self):
        p = OrthoProjector(2)
        p.rls_update(np.ones(2), 1.0)
        p.rls_update(np.ones(2), 1.0)
        assert p.updates_applied == 2


class TestDirectProjector:
    def test_rejects_bad_alpha(self):
        # a scalar or one per column: each must be finite and > 0, and the lengths must agree
        for alpha in (0.0, -1.0, float("nan"), float("inf"), [1.0, 0.0, 1.0],
                      [1.0, float("nan"), 1.0], [1.0, float("inf"), 1.0], [1.0, 1.0],
                      np.ones((3, 1))):
            with pytest.raises(ContractViolation, match="alpha"):
                direct_projector(np.eye(3), alpha)

    def test_rejects_non_finite_columns(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            a = np.random.default_rng(0).normal(size=(4, 3))
            a[2, 1] = bad
            with pytest.raises(ContractViolation, match="columns"):
                direct_projector(a, 1e-3)

    def test_empty_is_identity(self):
        np.testing.assert_array_equal(direct_projector(np.zeros((4, 0)), 1.0), np.eye(4))

    def test_single_axis_closed_form(self):
        e1 = np.zeros(4)
        e1[0] = 1.0
        expected = np.eye(4)
        expected[0, 0] = 0.5
        np.testing.assert_allclose(direct_projector(e1, 1.0), expected, atol=1e-12)

    def test_equals_woodbury_form(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(6, 3))
        alpha = 1e-2
        left = direct_projector(a, alpha)
        right = alpha * np.linalg.inv(a @ a.T + alpha * np.eye(6))
        np.testing.assert_allclose(left, right, atol=1e-10)

    def test_per_column_alphas_match_decayed_recursion(self):
        # the training path's schedule: column i enters at batch index i with alpha_at(i)
        rng = np.random.default_rng(11)
        worst = 0.0
        for case in range(60):
            d = int(rng.choice([4, 8, 16]))
            m = int(rng.integers(1, 2 * d + 1))
            schedule = decay_state(n_total=m, alpha0=[1.0, 1e-2, 1e-3][case % 3], lam=0.9)
            alphas = np.array([schedule.alpha_at(i) for i in range(1, m + 1)])
            cols = rng.normal(size=(d, m))
            cols *= rng.uniform(0.1, 10.0, size=m) / np.linalg.norm(cols, axis=0)
            p = OrthoProjector(d)
            for j in range(m):
                p.rls_update(cols[:, j], alphas[j])
            oracle = direct_projector(cols, alphas)
            worst = max(worst, np.linalg.norm(p.P - oracle) / np.linalg.norm(oracle))
        assert worst <= 1e-9  # criterion 01's bound

    def test_matches_recursion(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(6, 3))
        p = OrthoProjector(6)
        for j in range(3):
            p.rls_update(a[:, j], alpha=1e-2)
        expected = direct_projector(a, 1e-2)
        rel = np.linalg.norm(p.P - expected) / np.linalg.norm(expected)
        assert rel <= 1e-10


class TestInvariants:
    def _random_sequence(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 12))
        n = int(rng.integers(1, 25))
        alpha = float(10.0 ** rng.uniform(-4, 0))
        cols = rng.normal(size=(d, n)) * rng.uniform(0.1, 10.0)
        return d, alpha, cols

    def test_symmetry_and_spectrum(self):
        for seed in range(20):
            d, alpha, cols = self._random_sequence(seed)
            p = OrthoProjector(d)
            for j in range(cols.shape[1]):
                p.rls_update(cols[:, j], alpha)
                assert np.max(np.abs(p.P - p.P.T)) <= 1e-10
                eigs = sym_eigvals(p.P)
                assert eigs.min() >= -1e-10 and eigs.max() <= 1 + 1e-10

    def test_effective_rank_non_increasing(self):
        for seed in range(10):
            d, _alpha, cols = self._random_sequence(seed)
            p = OrthoProjector(d)
            prev = p.effective_rank(0.5)
            for j in range(cols.shape[1]):
                p.rls_update(cols[:, j], 1e-3)
                cur = p.effective_rank(0.5)
                assert cur <= prev
                prev = cur

    def test_attenuation_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            d = 8
            m = 4
            alpha = float(10.0 ** rng.uniform(-4, -1))
            a = rng.normal(size=(d, m))
            a /= np.linalg.norm(a, axis=0)
            p = OrthoProjector(d)
            for j in range(m):
                p.rls_update(a[:, j], alpha)
            sigma_min = np.linalg.svd(a, compute_uv=False).min()
            bound = alpha / (alpha + sigma_min ** 2)
            for j in range(m):
                col = a[:, j]
                assert np.linalg.norm(p.P @ col) <= bound * np.linalg.norm(col) + 1e-9
