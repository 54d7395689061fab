import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from proxdeconv import (LinearOperator, ProxTerm, SplittingConfig,
                        diagonal_operator, identity_operator, project_positive,
                        soft_threshold, solve)
import proxdeconv.splitting as splitting_module
from proxdeconv.errors import DimensionMismatchError, NonFiniteIterateError
from proxdeconv.splitting import objective_value

from oracles import douglas_rachford, grid_minimize, relative_change


def _quad_prox(a):
    """prox_{s * ||. - a||^2 / 2}(v) = (v + s a) / (1 + s)."""
    a = np.asarray(a, dtype=np.float64)
    return lambda v, s: (v + s * a) / (1.0 + s)


def _positive_prox(v, s):
    return np.maximum(v, 0.0)


def _terms(*pairs):
    return [ProxTerm(prox=p, label=label) for label, p in pairs]


class TestRelativeChange:
    """The reference ``relative_change`` the hand rollouts compare against."""

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
    def test_reaches_the_minimizer_of_the_reference_douglas_rachford(self):
        # The paper's outer loop, kept as an oracle, on criterion 5's three
        # analytic problems and on TestThreeTerms.
        a, b = np.array([2.0, -1.0, 3.0]), np.array([2.0, -1.0])
        l1 = lambda v, s: soft_threshold(v, s)
        problems = [
            ([_quad_prox(a)], np.zeros(3)),
            ([_quad_prox([-3.0]), _positive_prox], np.array([5.0])),
            ([_quad_prox(b), l1, _positive_prox], np.zeros(2)),
            ([term.prox for term in TestThreeTerms()._instance()[0]],
             np.zeros(2)),
        ]
        for proxes, init in problems:
            terms = [ProxTerm(prox=p) for p in proxes]
            x, state = solve(terms, SplittingConfig(max_outer=2000, tol=1e-13),
                             init)
            assert state.converged
            want = douglas_rachford(proxes, mu=1.0, theta=1.0, iters=2000,
                                    init=init)
            assert np.max(np.abs(x - want)) <= 1e-9

    def test_no_maps_run_as_identity_maps_behind_the_first_term(self):
        b = np.array([2.0, -1.0])
        terms = _terms(("quad", _quad_prox(b)),
                       ("l1", lambda v, s: soft_threshold(v, s)),
                       ("positive", _positive_prox))
        terms[0] = replace(terms[0], value=lambda v: float(np.sum((v - b) ** 2)))
        terms[1] = replace(terms[1], value=lambda v: float(np.sum(np.abs(v))))
        eye = identity_operator(2)
        mapped = terms[:1] + [replace(term, op=eye) for term in terms[1:]]
        cfg = SplittingConfig(theta=1.5, max_outer=40, tol=0.0)
        runs = []
        for listed in (terms, mapped):
            x, state = solve(listed, cfg, np.array([0.1, 1.7]))
            runs.append(([a.tobytes() for a in (x, *state.aux)],
                         state.relative_changes, state.objectives))
        assert len(runs[0][0]) == 3
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("theta", [0.5, 1.0, 1.7])
    def test_a_lone_term_takes_proximal_point_steps(self, theta):
        # x <- x + theta (prox_{mu f}(x) - x), bit for bit, to the same stop;
        # the change is theta ||prox_{mu f}(x) - x|| / ||x||.
        prox = _quad_prox([2.0, -1.0, 3.0])
        cfg = SplittingConfig(mu=0.8, theta=theta, max_outer=2000, tol=1e-12)
        got, state = solve([ProxTerm(prox=prox)], cfg, np.array([1.0, 1.0, 1.0]))
        x, changes = np.array([1.0, 1.0, 1.0]), []
        while not changes or changes[-1] > cfg.tol:
            step = prox(x, cfg.mu) - x
            changes.append(theta * float(np.linalg.norm(step))
                           / float(np.linalg.norm(x)))
            x = x + theta * step
        assert state.relative_changes == changes
        assert got.tobytes() == x.tobytes()
        assert state.aux == []

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

    def test_the_objective_sums_the_same_on_every_interpreter(self, monkeypatch):
        # From Python 3.12 on, builtin sum() is compensated, as fsum is, and
        # gives 2.0 here; a running sum from 0.0 gives 1.0 on any version.
        monkeypatch.setattr(splitting_module, "sum", math.fsum, raising=False)
        terms = [ProxTerm(prox=_quad_prox([0.0]), value=lambda v, c=c: c)
                 for c in (1e16, 1.0, -1e16, 1.0)]
        assert objective_value(terms, np.zeros(1), images=[]) == 1.0


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

    def test_maps_that_all_have_spectral_bound_zero_are_rejected(self):
        # The dual step sigma would divide by zero.
        zero = diagonal_operator(np.zeros(2))
        terms = [ProxTerm(prox=_quad_prox([0.0, 0.0]), label="g"),
                 ProxTerm(prox=_quad_prox([1.0, 1.0]), label="f", op=zero)]
        with pytest.raises(ValueError, match="every map has spectral bound 0"):
            solve(terms, SplittingConfig(), np.zeros(2))

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

    def _run(self, prox=None, position=0, op=None):
        """20 over-relaxed iterations from (0.1, 1.7), the quad term traced;
        ``prox`` replaces the prox of term ``position`` and ``op`` both
        maps."""
        b = np.array([2.0, -1.0])
        terms = self._terms(b)
        terms[0] = replace(terms[0], value=lambda v: float(np.sum((v - b) ** 2)))
        if prox is not None:
            terms[position] = replace(terms[position], prox=prox)
        if op is not None:
            terms[0], terms[2] = replace(terms[0], op=op), replace(terms[2], op=op)
        x, state = solve(terms, SplittingConfig(theta=1.5, max_outer=20,
                                                tol=0.0), np.array([0.1, 1.7]))
        return [a.tobytes() for a in (x, *state.aux)], state.objectives

    # The loop writes into arrays it allocated itself, never into what a
    # prox or a map hands back.
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_a_prox_may_return_its_input(self, position):
        assert self._run(lambda v, s: v, position) == \
            self._run(lambda v, s: v.copy(), position)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_a_prox_may_return_an_array_it_keeps(self, position):
        kept = np.array([0.3, -0.7])
        got = self._run(lambda v, s: kept, position)
        assert kept.tolist() == [0.3, -0.7]
        assert got == self._run(lambda v, s: kept.copy(), position)

    def test_a_map_may_return_its_input(self):
        passthrough = LinearOperator(2, 2, lambda x: x, lambda u: u, 1.0)
        assert self._run(op=passthrough) == self._run(op=identity_operator(2))

    @pytest.mark.parametrize("free", [0, 2])
    def test_needs_exactly_one_term_without_a_map(self, free):
        terms = self._terms(np.array([2.0, -1.0]))
        terms[1] = ProxTerm(prox=terms[1].prox, label="l1",
                            op=identity_operator(2) if free == 0 else None)
        if free == 2:
            terms[2] = ProxTerm(prox=_positive_prox, label="positive")
        with pytest.raises(ValueError, match="exactly one term without"):
            solve(terms, SplittingConfig(), np.zeros(2))

    def test_a_map_output_of_the_wrong_size_is_rejected(self):
        # It used to broadcast into its slice: iterates of 2.3e43 at 50.
        total = LinearOperator(3, 3, lambda x: np.array([x.sum()]),
                               lambda u: u.copy(), 1.0)
        terms = [ProxTerm(prox=_quad_prox([1.0, 2.0, 3.0]), label="quad",
                          op=total),
                 ProxTerm(prox=_positive_prox, label="positive")]
        with pytest.raises(DimensionMismatchError):
            solve(terms, SplittingConfig(max_outer=50, tol=0.0), np.ones(3))

    def test_map_must_take_the_variable(self):
        terms = self._terms(np.array([2.0, -1.0]))
        terms[0] = ProxTerm(prox=terms[0].prox, label="quad",
                            op=identity_operator(3))
        with pytest.raises(DimensionMismatchError):
            solve(terms, SplittingConfig(), np.zeros(2))

    def test_a_conj_step_stands_in_for_moreau(self):
        # f = ||. - b||^2 / 2 has prox_{s f*}(v) = (v - s b) / (1 + s), and
        # the positivity prox_{s f*}(v) = min(v, 0).
        b = np.array([2.0, -1.0])

        def quad_conj(v, s):
            v -= s * b
            v /= 1.0 + s
        conj = [quad_conj, None,
                lambda v, s: np.minimum(v, 0.0, out=v)]
        runs = []
        for given in (conj, [None] * 3):
            terms = [replace(term, conj=c)
                     for term, c in zip(self._terms(b), given)]
            runs.append(solve(terms, SplittingConfig(theta=1.5, max_outer=300,
                                                     tol=1e-12), np.zeros(2)))
        (x, state), (x_moreau, state_moreau) = runs
        assert state.iterations == state_moreau.iterations < 300
        assert np.allclose(x, x_moreau, rtol=0.0, atol=1e-12)
        assert np.allclose(np.concatenate(state.aux),
                           np.concatenate(state_moreau.aux), rtol=0.0,
                           atol=1e-12)

    @pytest.mark.parametrize("bad", [[0], [2], [0, 2]])
    def test_a_non_finite_dual_step_names_the_first_term(self, bad):
        # One check over the updated dual stack names the first term, in
        # term order, whose part is not finite.
        terms = self._terms(np.array([2.0, -1.0]))
        for i in bad:
            terms[i] = replace(terms[i], label=f"bad{i}",
                               conj=lambda v, s: v.fill(np.inf))
        with pytest.raises(NonFiniteIterateError) as err:
            solve(terms, SplittingConfig(), np.zeros(2))
        assert err.value.label == f"bad{bad[0]}"
        assert err.value.iteration == 0

    def test_non_finite_prox_output_identifies_the_term(self):
        terms = self._terms(np.array([2.0, -1.0]))
        terms[2] = ProxTerm(prox=lambda v, s: np.full_like(v, np.nan),
                            label="bad", op=identity_operator(2))
        with pytest.raises(NonFiniteIterateError) as err:
            solve(terms, SplittingConfig(), np.zeros(2))
        assert err.value.label == "bad"
        assert err.value.iteration == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_primal_step_names_the_term_without_a_map(self, bad):
        # Its check fires at the iteration whose output is not finite,
        # before the duals see it.
        terms = self._terms(np.array([2.0, -1.0]))
        outputs = []

        def prox(v, s):
            outputs.append(soft_threshold(v, s))
            if len(outputs) == 3:
                outputs[-1][1] = bad
            return outputs[-1]
        terms[1] = ProxTerm(prox=prox, label="primal")
        with pytest.raises(NonFiniteIterateError) as err:
            solve(terms, SplittingConfig(), np.array([1.0, 1.0]))
        assert err.value.label == "primal"
        assert err.value.iteration == 2

    def test_a_step_whose_square_overflows_is_not_non_finite(self):
        # d . d of a finite step d = x~ - x can overflow; only a scan of x~
        # tells that from a non-finite step. The norms overflow too, which
        # numpy warns of.
        prox = lambda v, s: np.full_like(v, 1e300)
        with np.errstate(over="ignore"):
            x, state = solve([ProxTerm(prox=prox)],
                             SplittingConfig(max_outer=5, tol=0.0), np.zeros(2))
        assert np.array_equal(x, [1e300, 1e300])
        assert state.relative_changes == [math.inf, 0.0]

    # CPython 3.11 hands a call's arguments over to the callee's frame;
    # earlier versions keep them on the caller's stack until it returns.
    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="the caller holds its arguments during a call")
    def test_the_start_point_is_freed_once_copied(self):
        # A caller's temporary start (deconvolve's Phi^T y) must not live
        # through the loop beside the solver's own iterates. A start that
        # the caller keeps was allocated before tracing began, so the
        # traced memory inside the loop differs by the start only if the
        # solver holds it.
        n = 1 << 14
        kept = np.ones(n)
        terms = [ProxTerm(prox=lambda v, s: v.clip(0.0, 1.0)),
                 ProxTerm(prox=_positive_prox, op=identity_operator(n))]

        def traced_in_the_loop(start):
            seen = []
            terms[0] = replace(terms[0], value=lambda x: seen.append(
                tracemalloc.get_traced_memory()[0]) or 0.0)
            tracemalloc.start()
            try:
                solve(terms, SplittingConfig(max_outer=2, tol=0.0), start())
            finally:
                tracemalloc.stop()
            return seen[0]
        held = traced_in_the_loop(lambda: kept)
        freed = traced_in_the_loop(lambda: np.ones(n))
        assert freed - held < kept.nbytes // 2
