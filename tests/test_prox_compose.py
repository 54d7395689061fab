import math

import numpy as np
import pytest

from proxdeconv import (FBDiagnostics, default_tau, diagonal_operator,
                        identity_operator, make_starlet, matrix_operator,
                        prox_affine_fb, prox_affine_tight, prox_poisson,
                        verify_tight_frame)
from proxdeconv.errors import TightFrameError

from oracles import max_vi_violation


def _quad_prox(b):
    """Prox family of f = ||. - b||^2 / 2: prox_{s f}(v) = (v + s b) / (1 + s)."""
    b = np.asarray(b, dtype=np.float64)
    return lambda v, s: (v + s * b) / (1.0 + s)


def _positive_prox(v, s):
    return np.maximum(v, 0.0)


def _quad_compose_solution(f_mat, b, x):
    """Dense solve of min_p ||F p - b||^2/2 + ||p - x||^2/2."""
    f = np.asarray(f_mat, dtype=np.float64)
    lhs = np.eye(f.shape[1]) + f.T @ f
    rhs = x + f.T @ np.asarray(b)
    return np.linalg.solve(lhs, rhs)


class TestConfig:
    def test_defaults(self):
        op = diagonal_operator([1.0, 2.0])
        _, diag = prox_affine_fb(_positive_prox, op, 4.0, np.ones(2))
        assert len(diag.residuals) == 10
        default, _ = prox_affine_fb(_positive_prox, op, 4.0, np.ones(2))
        cold, _ = prox_affine_fb(_positive_prox, op, 4.0, np.ones(2),
                                 inner_iters=10, warm=None)
        assert np.array_equal(default, cold)

    def test_validation(self):
        op = identity_operator(2)
        for bad in (0, 2.5, 3.0):
            with pytest.raises(ValueError, match="inner_iters"):
                prox_affine_fb(_positive_prox, op, 1.0, np.zeros(2),
                               inner_iters=bad)
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="scale"):
                prox_affine_fb(_positive_prox, op, 1.0, np.zeros(2), scale=bad)
        _, diag = prox_affine_fb(_positive_prox, op, 1.0, np.zeros(2),
                                 inner_iters=np.int64(3))
        assert len(diag.residuals) == 3

    def test_default_tau(self):
        assert default_tau(4.0, 1.0) == pytest.approx(0.4)
        assert default_tau(2.0) == pytest.approx(0.9)
        with pytest.raises(ValueError):
            default_tau(0.0)
        with pytest.raises(ValueError):
            default_tau(1.0, 2.0)
        for c2 in (math.inf, math.nan):
            with pytest.raises(ValueError, match="c2"):
                default_tau(c2)
            with pytest.raises(ValueError, match="c2"):
                default_tau(c2, 1.0)


class TestVerifyTightFrame:
    def test_accepts_parseval_frames(self):
        verify_tight_frame(make_starlet(8, 8, levels=2), 1.0)

    def test_rejects_general_operators(self):
        with pytest.raises(TightFrameError):
            verify_tight_frame(diagonal_operator([1.0, 2.0]), 1.0)

    @pytest.mark.parametrize("c", [0.0, -1.0])
    def test_rejects_a_non_positive_constant(self, c):
        with pytest.raises(ValueError):
            verify_tight_frame(identity_operator(3), c)

    @pytest.mark.parametrize("c", [math.inf, math.nan])
    def test_rejects_a_non_finite_constant(self, c):
        with pytest.raises(ValueError):
            verify_tight_frame(identity_operator(3), c)

    def test_rejects_wrong_constant(self):
        with pytest.raises(TightFrameError):
            verify_tight_frame(identity_operator(3), 2.0)


class TestProxAffineTight:
    def test_identity_frame_collapses_to_the_plain_prox(self):
        b = np.array([1.0, -2.0, 0.5])
        x = np.array([0.3, 4.0, -1.0])
        got = prox_affine_tight(_quad_prox(b), identity_operator(3), 1.0, x)
        assert np.allclose(got, _quad_prox(b)(x, 1.0), atol=1e-14)

    def test_point_indicator_returns_the_shift(self):
        # f = indicator of {shift}, whose prox family carries the shift:
        # prox_{cf}(v) = shift, so the output solves min ||p - x||^2/2
        # subject to p = shift, i.e. the shift itself.
        shift = np.array([2.0, -1.0])
        x = np.array([10.0, 3.0])
        got = prox_affine_tight(lambda v, s: shift, identity_operator(2),
                                1.0, x)
        assert np.allclose(got, shift, atol=1e-14)

    def test_quadratic_against_normal_equations(self):
        # F = [I I] has F F^T = 2 I; dense normal-equations solve is the oracle.
        f_mat = np.hstack([np.eye(2), np.eye(2)])
        frame = matrix_operator(f_mat)
        b = np.array([0.9, -0.7])
        x = np.array([1.0, -2.0, 3.0, 0.5])
        got = prox_affine_tight(_quad_prox(b), frame, 2.0, x)
        expected = _quad_compose_solution(f_mat, b, x)
        assert np.max(np.abs(got - expected)) <= 1e-8

    def test_non_positive_scale_rejected(self):
        for scale in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="scale"):
                prox_affine_tight(_positive_prox, identity_operator(2), 1.0,
                                  np.zeros(2), scale=scale)

    @pytest.mark.parametrize("check", [True, False])
    @pytest.mark.parametrize("c", [-1.0, 0.0, math.inf, math.nan])
    def test_constant_must_be_finite_and_positive(self, c, check):
        with pytest.raises(ValueError, match="constant"):
            prox_affine_tight(_positive_prox, identity_operator(2), c,
                              np.array([1.0, -1.0]), check=check)

    def test_non_tight_operator_raises(self):
        with pytest.raises(TightFrameError):
            prox_affine_tight(_quad_prox([0.0, 0.0]), diagonal_operator([1.0, 2.0]),
                              1.0, np.zeros(2))

    def test_scale_multiplies_the_function(self):
        # prox of 3 * f(F x) via the scale argument equals the closed form
        # computed with the pre-scaled prox family.
        b = np.array([1.0, 2.0])
        x = np.array([-1.0, 0.5])
        via_scale = prox_affine_tight(_quad_prox(b), identity_operator(2),
                                      1.0, x, scale=3.0)
        direct = prox_affine_tight(lambda v, s: _quad_prox(b)(v, 3.0 * s),
                                   identity_operator(2), 1.0, x)
        assert np.allclose(via_scale, direct, atol=1e-14)


class TestProxAffineFB:
    def test_identity_frame_matches_the_closed_form(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal(5)
        x = rng.standard_normal(5)
        tight = prox_affine_tight(_quad_prox(b), identity_operator(5), 1.0, x)
        # The loose bound c2 = 2 makes the step 1.8 / c2 = 0.9 < 1, so the
        # dual iteration contracts instead of landing in one step.
        fb, diag = prox_affine_fb(_quad_prox(b), identity_operator(5), 2.0, x,
                                  inner_iters=30)
        assert np.max(np.abs(fb - tight)) <= 1e-6
        assert len(diag.residuals) == 30

    def test_parseval_frame_matches_the_closed_form(self):
        d = make_starlet(8, 8, levels=2)
        rng = np.random.default_rng(1)
        y = rng.integers(0, 9, size=64).astype(float)
        x = rng.standard_normal(d.coeff_dim)
        fam = lambda v, s: prox_poisson(v, s, y)
        tight = prox_affine_tight(fam, d, 1.0, x)
        fb, _ = prox_affine_fb(fam, d, 2.0, x, inner_iters=30)  # step 0.9
        assert np.max(np.abs(fb - tight)) <= 1e-6

    def test_projection_through_a_diagonal_frame(self):
        # min ||p - x||^2/2 s.t. diag(1,2) p >= 0 projects (-1,-1) to (0,0).
        p, _ = prox_affine_fb(_positive_prox, diagonal_operator([1.0, 2.0]), 4.0,
                              np.array([-1.0, -1.0]), inner_iters=200, c1=1.0)
        assert np.max(np.abs(p)) <= 1e-6

    def test_contraction_rate_of_the_diagonal_frame(self):
        # Frame bounds c1=1, c2=4 predict a linear factor <= 3/5 at tau=0.4.
        f_mat = np.diag([1.0, 2.0])
        b = np.array([1.3, -2.7])
        x = np.array([-1.0, 2.0])
        target = _quad_compose_solution(f_mat, b, x)
        errors = []
        for iters in range(1, 14):
            p, _ = prox_affine_fb(_quad_prox(b), matrix_operator(f_mat), 4.0, x,
                                  inner_iters=iters, c1=1.0)
            errors.append(float(np.linalg.norm(p - target)))
        ratios = [e2 / e1 for e1, e2 in zip(errors, errors[1:]) if e1 > 1e-13]
        assert max(ratios[2:]) <= (4.0 - 1.0) / (4.0 + 1.0) + 0.05

    def test_dual_fixed_point_consistency(self):
        # Returned p must equal x - F^T u for the returned dual u, and u must
        # be nearly stationary under one more update once converged.
        f_mat = np.diag([1.0, 2.0])
        b = np.array([0.5, 1.5])
        x = np.array([2.0, -1.0])
        tau = default_tau(4.0, 1.0)
        p, diag = prox_affine_fb(_quad_prox(b), matrix_operator(f_mat), 4.0, x,
                                 inner_iters=120, c1=1.0)
        assert np.allclose(p, x - f_mat.T @ diag.dual, atol=1e-12)
        w = diag.dual / tau + f_mat @ p
        u_next = tau * (w - _quad_prox(b)(w, 1.0 / tau))
        assert np.max(np.abs(u_next - diag.dual)) <= 1e-9

    def test_variational_inequality_on_the_converged_output(self):
        f_mat = np.diag([1.0, 2.0])
        b = np.array([1.1, 0.2])
        x = np.array([0.5, 0.5])
        p, _ = prox_affine_fb(_quad_prox(b), matrix_operator(f_mat), 4.0, x,
                              inner_iters=300, c1=1.0)
        f = lambda v: 0.5 * float(np.sum((f_mat @ v - b) ** 2))
        rng = np.random.default_rng(2)
        assert max_vi_violation(p, x, f, rng, probes=100) <= 1e-6

    def test_step_bound_enforced(self):
        # The step is always default_tau(c2, c1) < 2/c2; bounds that admit
        # no such step (c2 <= 0, or c1 > c2) are rejected.
        op = identity_operator(2)
        for c2, c1 in ((0.0, None), (1.0, 2.0)):
            with pytest.raises(ValueError):
                prox_affine_fb(_positive_prox, op, c2, np.zeros(2), c1=c1)

    def test_truncation_is_visible_in_residuals(self):
        _, diag = prox_affine_fb(_quad_prox([1.0, 1.0]),
                                 diagonal_operator([1.0, 2.0]), 4.0,
                                 np.array([5.0, -5.0]), inner_iters=5, c1=1.0)
        assert len(diag.residuals) == 5
        assert diag.residuals[-1] < diag.residuals[0]


class TestWarmStartedProx:
    """Each call's diagnostics, passed back as ``warm``, resume the next."""

    def test_dual_cache_carries_across_calls(self):
        f_mat = np.diag([1.0, 2.0])
        b = np.array([1.0, -1.0])
        x = np.array([0.7, 0.9])
        target = _quad_compose_solution(f_mat, b, x)
        op = diagonal_operator([1.0, 2.0])
        first, diag = prox_affine_fb(_quad_prox(b), op, 4.0, x, inner_iters=8,
                                     c1=1.0)
        err_first = np.linalg.norm(first - target)
        for _ in range(6):
            latest, diag = prox_affine_fb(_quad_prox(b), op, 4.0, x,
                                          inner_iters=8, c1=1.0, warm=diag)
        assert np.linalg.norm(latest - target) < err_first * 1e-3

    def test_matches_cold_fb_on_the_first_call(self):
        # A zero dual is the cold start.
        op = diagonal_operator([1.0, 2.0])
        x = np.array([1.0, 2.0])
        cold, _ = prox_affine_fb(_quad_prox([0.0, 0.0]), op, 4.0, x,
                                 inner_iters=10, c1=1.0)
        warm, _ = prox_affine_fb(_quad_prox([0.0, 0.0]), op, 4.0, x,
                                 inner_iters=10, c1=1.0,
                                 warm=FBDiagnostics(residuals=[],
                                                    dual=np.zeros(2)))
        assert np.array_equal(warm, cold)
