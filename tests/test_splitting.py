import math
from dataclasses import replace

import numpy as np
import pytest

from proxdeconv import (ProxTerm, SplittingConfig, diagonal_operator,
                        identity_operator, project_positive, relative_change,
                        soft_threshold, solve)
from proxdeconv.errors import DimensionMismatchError, NonFiniteIterateError
from proxdeconv.splitting import objective_value

from oracles import grid_minimize


def _quad_prox(a):
    """prox_{s * ||. - a||^2 / 2}(v) = (v + s a) / (1 + s)."""
    a = np.asarray(a, dtype=np.float64)
    return lambda v, s: (v + s * a) / (1.0 + s)


def _positive_prox(v, s):
    return np.maximum(v, 0.0)


def _terms(*pairs):
    return [ProxTerm(prox=p, label=label) for label, p in pairs]


class TestRelativeChange:
    def test_no_change(self):
        assert relative_change([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_perturbation(self):
        assert relative_change([1.0, 1.0], [1.0, 0.0]) == pytest.approx(1.0)

    def test_one_percent_growth(self):
        old = np.array([3.0, 4.0])
        assert relative_change(old * 1.01, old) == pytest.approx(0.01, rel=1e-12)

    def test_zero_edge_cases(self):
        assert relative_change([0.0], [0.0]) == 0.0
        assert relative_change([1.0], [0.0]) == math.inf

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            relative_change([1.0], [1.0, 2.0])


class TestSingleTerm:
    def test_quadratic_reaches_its_minimizer(self):
        a = np.array([2.0, -1.0, 3.0])
        terms = [ProxTerm(prox=_quad_prox(a), label="quad")]
        x, state = solve(terms, SplittingConfig(max_outer=500, tol=1e-12),
                         np.zeros(3))
        assert np.max(np.abs(x - a)) <= 1e-6
        assert state.converged


class TestTwoTerms:
    def test_constrained_quadratic(self):
        # ||x + 3||^2 / 2 over x >= 0 has its minimum at 0.
        terms = _terms(("quad", _quad_prox([-3.0])),
                       ("positive", _positive_prox))
        x, state = solve(terms, SplittingConfig(max_outer=2000, tol=1e-12),
                         np.array([5.0]))
        assert abs(x[0]) <= 1e-6

    @pytest.mark.parametrize("theta", [0.5, 1.0, 1.5])
    def test_relaxation_choices_all_converge(self, theta):
        terms = _terms(("quad", _quad_prox([-3.0])),
                       ("positive", _positive_prox))
        x, _ = solve(terms, SplittingConfig(theta=theta, max_outer=4000,
                                            tol=1e-12), np.array([5.0]))
        assert abs(x[0]) <= 1e-6


class TestThreeTerms:
    def _instance(self):
        b = np.array([2.0, -1.0])
        gamma = 1.0
        terms = [
            ProxTerm(prox=_quad_prox(b), label="quad",
                     value=lambda x: 0.5 * float(np.sum((x - b) ** 2))),
            ProxTerm(prox=lambda v, s: soft_threshold(v, s * gamma),
                     label="l1",
                     value=lambda x: gamma * float(np.sum(np.abs(x)))),
            ProxTerm(prox=_positive_prox, label="positive",
                     value=lambda x: 0.0 if np.min(x) >= 0.0 else math.inf),
        ]
        return terms, lambda x: objective_value(terms, x)

    def test_reaches_the_separable_optimum(self):
        terms, objective = self._instance()
        x, _ = solve(terms, SplittingConfig(max_outer=2000, tol=1e-12),
                     np.zeros(2))
        # Soft-threshold then project: (max(2-1, 0), 0).
        assert np.max(np.abs(x - np.array([1.0, 0.0]))) <= 1e-6

    def test_objective_matches_the_grid_oracle(self):
        terms, objective = self._instance()
        x, state = solve(terms, SplittingConfig(max_outer=2000, tol=1e-12),
                         np.zeros(2))
        assert state.objectives[-1] == objective(x)
        # The averaged iterate can sit a hair outside the constraint set;
        # score its projection, as the pipeline does before reporting.
        x = project_positive(x)

        def batch(pts):
            quad = 0.5 * np.sum((pts - np.array([2.0, -1.0])) ** 2, axis=1)
            l1 = np.sum(np.abs(pts), axis=1)
            feasible = np.min(pts, axis=1) >= 0.0
            return np.where(feasible, quad + l1, np.inf)

        _, oracle_value = grid_minimize(batch, [-3.0, -3.0], [3.0, 3.0])
        assert objective(x) <= oracle_value + 1e-6
        assert len(state.objectives) == state.iterations


class TestAlgorithmMechanics:
    def test_update_recurrence_matches_a_hand_rollout(self):
        # Mechanical replication of the iteration: same proxes, same theta,
        # tracked copy by copy. Guards the reflection and averaging lines.
        prox1 = lambda v, s: v / (1.0 + s)
        prox2 = lambda v, s: v - s
        terms = [ProxTerm(prox=prox1, label="a"),
                 ProxTerm(prox=prox2, label="b")]
        theta, iters = 1.3, 7
        mu = 0.8
        init = np.array([2.0, -1.0, 0.5])

        x = init.copy()
        copies = [init.copy(), init.copy()]
        proxes = [prox1, prox2]
        for _ in range(iters):
            # Equal weights 1/2: each term is proxed at mu / (1/2).
            xi = [p(c, 2.0 * mu) for p, c in zip(proxes, copies)]
            xi_bar = 0.5 * xi[0] + 0.5 * xi[1]
            copies = [c + theta * (2.0 * xi_bar - x - z)
                      for c, z in zip(copies, xi)]
            x = x + theta * (xi_bar - x)

        got, state = solve(terms, SplittingConfig(
            mu=mu, theta=theta, max_outer=iters, tol=0.0), init)
        assert np.allclose(got, x, atol=1e-12)
        for ours, theirs in zip(state.aux, copies):
            assert np.allclose(ours, theirs, atol=1e-12)

    def test_term_order_does_not_matter(self):
        b = np.array([2.0, -1.0])
        forward = _terms(("quad", _quad_prox(b)),
                         ("l1", lambda v, s: soft_threshold(v, s)),
                         ("positive", _positive_prox))
        backward = list(reversed(forward))
        cfg = SplittingConfig(max_outer=150, tol=0.0)
        x_fwd, _ = solve(forward, cfg, np.zeros(2))
        x_bwd, _ = solve(backward, cfg, np.zeros(2))
        assert np.max(np.abs(x_fwd - x_bwd)) <= 1e-12


class TestStoppingAndTrace:
    def test_stops_once_relative_change_is_small(self):
        a = np.array([1.0])
        terms = [ProxTerm(prox=_quad_prox(a), label="quad")]
        x, state = solve(terms, SplittingConfig(max_outer=10000, tol=1e-6),
                         np.array([100.0]))
        assert state.converged
        assert state.relative_changes[-1] <= 1e-6
        assert state.iterations == len(state.relative_changes)
        assert state.iterations < 10000

    def test_iteration_cap_reported(self):
        terms = [ProxTerm(prox=_quad_prox([1.0]), label="quad")]
        _, state = solve(terms, SplittingConfig(max_outer=3, tol=0.0),
                         np.array([100.0]))
        assert not state.converged
        assert state.iterations == 3


class TestValidation:
    def test_empty_term_list_rejected(self):
        with pytest.raises(ValueError, match="at least one prox term"):
            solve([], SplittingConfig(), np.zeros(1))

    def test_init_required(self):
        terms = [ProxTerm(prox=_quad_prox([0.0]), label="a")]
        with pytest.raises(TypeError):
            solve(terms, SplittingConfig())

    def test_theta_outside_the_open_interval_rejected(self):
        for bad in (0.0, 2.0, -0.5, math.nan):
            with pytest.raises(ValueError):
                SplittingConfig(theta=bad)

    def test_config_field_validation(self):
        with pytest.raises(ValueError):
            SplittingConfig(mu=0.0)
        with pytest.raises(ValueError):
            SplittingConfig(max_outer=0)
        for bad in (2.5, 3.0, "3", True):
            with pytest.raises(ValueError, match="max_outer"):
                SplittingConfig(max_outer=bad)
        assert SplittingConfig(max_outer=np.int64(3)).max_outer == 3
        with pytest.raises(ValueError):
            SplittingConfig(tol=-1.0)

    @pytest.mark.parametrize("setting", [
        {"mu": math.inf}, {"tol": math.inf}, {"tol": math.nan},
    ])
    def test_non_finite_settings_rejected(self, setting):
        with pytest.raises(ValueError):
            SplittingConfig(**setting)

    def test_non_finite_prox_output_identifies_the_term(self):
        nan_prox = lambda v, s: np.full_like(v, np.nan)
        terms = _terms(("good", _quad_prox([0.0])), ("bad", nan_prox))
        with pytest.raises(NonFiniteIterateError) as err:
            solve(terms, SplittingConfig(), np.zeros(2))
        assert err.value.label == "bad"
        assert err.value.iteration == 0


class TestPrimalDual:
    """Terms with maps run the primal-dual iteration; exactly one has none."""

    def _terms(self, b, gamma=1.0):
        eye = identity_operator(len(b))
        return [ProxTerm(prox=_quad_prox(b), label="quad", op=eye),
                ProxTerm(prox=lambda v, s: soft_threshold(v, s * gamma),
                         label="l1"),
                ProxTerm(prox=_positive_prox, label="positive", op=eye)]

    def test_reaches_the_separable_optimum(self):
        terms = self._terms(np.array([2.0, -1.0]))
        terms[1] = replace(terms[1], value=lambda v: float(np.sum(np.abs(v))))
        x, state = solve(terms, SplittingConfig(max_outer=2000, tol=1e-12),
                         np.zeros(2))
        # Soft-threshold then project: (max(2-1, 0), 0).
        assert np.max(np.abs(x - np.array([1.0, 0.0]))) <= 1e-6
        assert state.converged
        assert len(state.aux) == 2
        assert len(state.objectives) == state.iterations

    def test_a_map_reaches_the_scaled_optimum(self):
        # ||2 x - 4||^2 / 2 + |x|: x = (8 - 1) / 4.
        terms = [ProxTerm(prox=_quad_prox([4.0]), label="quad",
                          op=diagonal_operator([2.0])),
                 ProxTerm(prox=lambda v, s: soft_threshold(v, s), label="l1")]
        x, state = solve(terms, SplittingConfig(mu=0.5, theta=1.5,
                                                max_outer=2000, tol=1e-13),
                         np.zeros(1))
        assert state.converged
        assert abs(x[0] - 1.75) <= 1e-9

    def test_update_recurrence_matches_a_hand_rollout(self):
        # Condat's iteration written out for one map a = diag(1, 2).
        a = np.array([1.0, 2.0])
        f_prox = lambda v, s: v / (1.0 + s)  # f = ||.||^2 / 2
        g_prox = lambda v, s: soft_threshold(v, 0.3 * s)
        terms = [ProxTerm(prox=f_prox, label="f", op=diagonal_operator(a)),
                 ProxTerm(prox=g_prox, label="g")]
        tau, theta, iters = 0.7, 1.4, 6
        sigma = 0.99 / (tau * 4.0)
        x, u = np.array([2.0, -1.0]), np.zeros(2)
        for _ in range(iters):
            x_new = g_prox(x - tau * a * u, tau)
            v = u + sigma * a * (2.0 * x_new - x)
            u_new = v - sigma * f_prox(v / sigma, 1.0 / sigma)
            x, u = x + theta * (x_new - x), u + theta * (u_new - u)
        got, state = solve(terms, SplittingConfig(
            mu=tau, theta=theta, max_outer=iters, tol=0.0),
            np.array([2.0, -1.0]))
        assert np.allclose(got, x, atol=1e-12)
        assert np.allclose(state.aux[0], u, atol=1e-12)

    @pytest.mark.parametrize("free", [0, 2])
    def test_needs_exactly_one_term_without_a_map(self, free):
        terms = self._terms(np.array([2.0, -1.0]))
        terms[1] = ProxTerm(prox=terms[1].prox, label="l1",
                            op=identity_operator(2) if free == 0 else None)
        if free == 2:
            terms[2] = ProxTerm(prox=_positive_prox, label="positive")
        with pytest.raises(ValueError, match="exactly one term without"):
            solve(terms, SplittingConfig(), np.zeros(2))

    def test_map_must_take_the_variable(self):
        terms = self._terms(np.array([2.0, -1.0]))
        terms[0] = ProxTerm(prox=terms[0].prox, label="quad",
                            op=identity_operator(3))
        with pytest.raises(DimensionMismatchError):
            solve(terms, SplittingConfig(), np.zeros(2))

    def test_non_finite_prox_output_identifies_the_term(self):
        terms = self._terms(np.array([2.0, -1.0]))
        terms[2] = ProxTerm(prox=lambda v, s: np.full_like(v, np.nan),
                            label="bad", op=identity_operator(2))
        with pytest.raises(NonFiniteIterateError) as err:
            solve(terms, SplittingConfig(), np.zeros(2))
        assert err.value.label == "bad"
        assert err.value.iteration == 0
