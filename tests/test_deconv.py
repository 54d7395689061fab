import json
import math
from dataclasses import replace

import numpy as np
import pytest

import proxdeconv.deconv as deconv_module
import proxdeconv.operators as operators_module
import proxdeconv.prox_compose as prox_compose_module
import proxdeconv.prox_core as prox_core_module
import proxdeconv.splitting as splitting_module
from proxdeconv import (DeconvProblem, DeconvResult, FrameDictionary, Image,
                        LinearOperator, ProxTerm, SplittingConfig,
                        SplittingState, deconvolve, gcv_score,
                        make_circular_convolution, make_dirac, make_haar_dwt,
                        make_starlet, make_union, mae, objective,
                        parse_dictionary_spec,
                        relative_mae, result_metrics, richardson_lucy,
                        scale_to_peak, select_gamma_gcv, simulate, solve)
from proxdeconv.errors import DimensionMismatchError

from oracles import grid_minimize, scene32, scene64
from test_dictionary import _diag_pseudo_dictionary

MA3 = Image.from_2d(np.full((3, 3), 1.0 / 9.0))

# Four-pixel ring: eta_i = (x_i + x_{i-1}) / 2, counts [4, 4, 0, 0],
# gamma 0.1. Zero counts force x_1 = x_2 = x_3 = 0, leaving the scalar
# problem 1.1 t - 8 log(t / 2) with minimum at t = 8 / 1.1.
RING_COUNTS = Image.from_2d([[4.0, 4.0, 0.0, 0.0]])
RING_XSTAR = np.array([8.0 / 1.1, 0.0, 0.0, 0.0])
RING_JSTAR = 8.0 - 8.0 * math.log(4.0 / 1.1)


def ring_blur():
    return make_circular_convolution(Image.from_2d([[0.5, 0.5]]), 4, 1,
                                     origin=(0, 0))


def ring_problem(prior, gamma=0.1, **cfg_kwargs):
    cfg = SplittingConfig(mu=1.0, max_outer=3000, tol=1e-13, **cfg_kwargs)
    return DeconvProblem(counts=RING_COUNTS, blur=ring_blur(),
                         dictionary=make_dirac(4, 1), gamma=gamma,
                         prior=prior, splitting=cfg)


def identity_blur(width, height):
    return make_circular_convolution(Image.from_2d([[1.0]]), width, height,
                                     origin=(0, 0))


def ring_objective_batch(pts):
    eta = 0.5 * pts + 0.5 * np.roll(pts, 1, axis=1)
    y = np.array([4.0, 4.0, 0.0, 0.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        fit = np.where(y > 0.0,
                       np.where(eta > 0.0, eta - y * np.log(eta), np.inf),
                       eta)
    return np.sum(fit, axis=1) + 0.1 * np.sum(np.abs(pts), axis=1)


class TestRingInstance:
    def test_synthesis_matches_the_closed_form(self):
        prob = ring_problem("synthesis")
        res = deconvolve(prob)
        assert res.converged
        assert np.max(np.abs(res.restored.data - RING_XSTAR)) <= 1e-6
        value = objective(prob, res.coefficients, feasibility_tol=1e-8)
        assert value <= RING_JSTAR + 1e-8

    def test_analysis_matches_the_closed_form(self):
        prob = ring_problem("analysis")
        res = deconvolve(prob)
        assert res.converged
        assert np.array_equal(res.coefficients,
                              prob.dictionary.analysis(res.restored.data))
        assert np.max(np.abs(res.restored.data - RING_XSTAR)) <= 1e-6
        value = objective(prob, res.restored.data, feasibility_tol=1e-8)
        assert value <= RING_JSTAR + 1e-8

    def test_grid_search_oracle_agrees(self):
        _, oracle_value = grid_minimize(ring_objective_batch,
                                        [0.0] * 4, [8.0] * 4)
        assert oracle_value == pytest.approx(RING_JSTAR, abs=1e-10)
        res = deconvolve(ring_problem("synthesis"))
        got = ring_objective_batch(res.restored.data[None, :])[0]
        assert got <= oracle_value + 1e-4

    def test_objective_trace_improves_on_the_start(self):
        res = deconvolve(ring_problem("synthesis"))
        trace = res.state.objectives
        assert len(trace) == res.state.iterations
        assert trace[-1] <= trace[0]

    def test_vanishing_penalty_returns_the_counts_under_identity_blur(self):
        y = np.zeros((5, 5))
        y[1:4, 1:4] = [[3, 0, 7], [0, 5, 0], [9, 2, 4]]
        counts = Image.from_2d(y)
        prob = DeconvProblem(
            counts=counts, blur=identity_blur(5, 5),
            dictionary=make_dirac(5, 5), gamma=1e-8, prior="synthesis",
            splitting=SplittingConfig(mu=1.0, max_outer=4000, tol=1e-12))
        res = deconvolve(prob)
        assert mae(res.restored, counts) <= 1e-5

    def test_deterministic_across_runs(self):
        first = deconvolve(ring_problem("synthesis"))
        second = deconvolve(ring_problem("synthesis"))
        assert np.array_equal(first.restored.data, second.restored.data)
        assert np.array_equal(first.coefficients, second.coefficients)

    def test_clip_mass_accounts_for_negative_overshoot(self):
        res = deconvolve(ring_problem("synthesis"))
        assert res.clip_mass >= 0.0
        assert float(np.min(res.restored.data)) >= 0.0


class TestProblemValidation:
    def test_bad_prior(self):
        with pytest.raises(ValueError):
            ring_problem("dictionary")

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            ring_problem("synthesis", gamma=0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_gamma_must_be_finite(self, bad):
        with pytest.raises(ValueError):
            ring_problem("synthesis", gamma=bad)

    def test_counts_must_be_counts(self):
        with pytest.raises(ValueError):
            DeconvProblem(counts=Image.from_2d([[1.5, 2.0]]),
                          blur=identity_blur(2, 1),
                          dictionary=make_dirac(2, 1), gamma=0.1)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_counts_must_be_finite(self, bad):
        with pytest.raises(ValueError):
            DeconvProblem(counts=Image.from_2d([[bad, 2.0]]),
                          blur=identity_blur(2, 1),
                          dictionary=make_dirac(2, 1), gamma=0.1)

    def test_blur_dimensions_checked(self):
        with pytest.raises(DimensionMismatchError):
            DeconvProblem(counts=RING_COUNTS, blur=identity_blur(3, 1),
                          dictionary=make_dirac(4, 1), gamma=0.1)

    def test_dictionary_dimensions_checked(self):
        with pytest.raises(DimensionMismatchError):
            DeconvProblem(counts=RING_COUNTS, blur=ring_blur(),
                          dictionary=make_dirac(3, 1), gamma=0.1)

    @pytest.mark.parametrize("in_dim, out_dim", [(64, 65), (65, 64)])
    def test_blur_mismatch_reports_the_wrong_dimension(self, in_dim, out_dim):
        blur = LinearOperator(in_dim, out_dim, None, None, 1.0)
        with pytest.raises(DimensionMismatchError, match="expected 64, got 65"):
            DeconvProblem(counts=Image(8, 8, np.ones(64)), blur=blur,
                          dictionary=make_dirac(8, 8), gamma=0.1)

    # 16 wide and 4 high: the pixel count of an 8x8 or a 4-wide grid.
    @pytest.mark.parametrize("which", ["blur", "dictionary"])
    def test_grid_must_match_the_counts(self, which):
        blur = make_circular_convolution(MA3, 16, 4)
        d = make_dirac(16, 4)
        if which == "blur":
            blur = make_circular_convolution(MA3, 4, 16)
        else:
            d = make_starlet(8, 8, levels=2)
        with pytest.raises(DimensionMismatchError, match=which):
            DeconvProblem(counts=Image(16, 4, np.ones(64)), blur=blur,
                          dictionary=d, gamma=0.1)

    def test_blur_with_zero_bound_rejected(self):
        # An all-zero kernel: the dual FB step 1.8 / ||H||^2 is undefined.
        blur = make_circular_convolution(Image.from_2d([[0.0]]), 4, 1,
                                         origin=(0, 0))
        with pytest.raises(ValueError, match="blur"):
            DeconvProblem(counts=RING_COUNTS, blur=blur,
                          dictionary=make_dirac(4, 1), gamma=0.1)

    def test_a_generic_blur_is_checked_by_pixel_count(self):
        # A LinearOperator has no grid, so a transposed one passes.
        blur = make_circular_convolution(MA3, 4, 16)
        blur = LinearOperator(64, 64, blur.apply, blur.adjoint, 1.0)
        DeconvProblem(counts=Image(16, 4, np.ones(64)), blur=blur,
                      dictionary=make_dirac(16, 4), gamma=0.1)

    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_objective_is_infinite_outside_the_orthant(self, prior):
        prob = ring_problem(prior)
        point = np.array([1.0, 1.0, 1.0, -0.1])
        assert objective(prob, point) == math.inf
        assert math.isfinite(objective(prob, point, feasibility_tol=1.0))


class TestPriorEquivalenceOnAnOrthobasis:
    def test_synthesis_and_analysis_agree_for_haar(self):
        t8 = np.full((8, 8), 0.15)
        t8[2:6, 1:4] += 1.0
        t8[5, 6] += 2.0
        truth = Image.from_2d(t8)
        blur = make_circular_convolution(MA3, 8, 8)
        counts = simulate(truth, blur, 50.0, 3)
        cfg = SplittingConfig(mu=50.0, max_outer=4000, tol=1e-10)
        results = {}
        for prior in ("synthesis", "analysis"):
            prob = DeconvProblem(counts=counts, blur=blur,
                                 dictionary=make_haar_dwt(8, 8, 1),
                                 gamma=0.5, prior=prior, splitting=cfg)
            results[prior] = deconvolve(prob)
        assert results["synthesis"].converged
        assert results["analysis"].converged
        assert mae(results["synthesis"].restored,
                   results["analysis"].restored) <= 1e-5


class TestRichardsonLucy:
    def test_identity_blur_reproduces_counts_in_one_step(self):
        y = np.zeros((4, 4))
        y[1:3, 1:3] = [[5, 2], [0, 7]]
        counts = Image.from_2d(y)
        out = richardson_lucy(counts, identity_blur(4, 4), 1)
        assert np.max(np.abs(out.data - counts.data)) <= 1e-12

    def test_zero_iterations_return_the_start(self):
        # The start is the flat image at the mean count, floored at 1.
        counts = Image.from_2d([[4.0, 0.0], [1.0, 3.0]])
        out = richardson_lucy(counts, identity_blur(2, 2), 0)
        assert np.array_equal(out.data, np.full(4, 2.0))
        dim = Image.from_2d([[1.0, 0.0], [0.0, 0.0]])
        out = richardson_lucy(dim, identity_blur(2, 2), 0)
        assert np.array_equal(out.data, np.ones(4))

    def test_flux_is_conserved(self):
        truth = Image.from_2d(scene32())
        blur = make_circular_convolution(MA3, 32, 32)
        counts = simulate(truth, blur, 100.0, 11)
        out = richardson_lucy(counts, blur, 10)
        total = float(np.sum(counts.data))
        assert float(np.sum(out.data)) == pytest.approx(total, rel=1e-10)

    def test_one_step_beats_the_raw_counts(self):
        truth = Image.from_2d(scene32())
        blur = make_circular_convolution(MA3, 32, 32)
        counts = simulate(truth, blur, 100.0, 11)
        scaled = scale_to_peak(truth, 100.0)
        assert mae(richardson_lucy(counts, blur, 1), scaled) \
            < mae(counts, scaled)

    def test_input_validation(self):
        counts = Image.from_2d([[4.0, 0.0], [1.0, 3.0]])
        blur = identity_blur(2, 2)
        for bad in (-1, 2.5, 2.0, True):
            with pytest.raises(ValueError, match="iters"):
                richardson_lucy(counts, blur, bad)
        assert np.array_equal(richardson_lucy(counts, blur, np.int64(2)).data,
                              richardson_lucy(counts, blur, 2).data)
        with pytest.raises(ValueError):
            richardson_lucy(Image.from_2d([[0.5, 1.0], [1.0, 1.0]]), blur, 1)


class TestGcvScore:
    def _flat_instance(self):
        counts = Image.from_2d([[1.0, 1.0], [1.0, 1.0]])
        restored = Image.from_2d([[0.0, 0.0], [0.0, 0.0]])
        return counts, identity_blur(2, 2), restored

    def test_perfect_fit_scores_zero(self):
        counts = Image.from_2d([[2.0, 5.0], [0.0, 3.0]])
        score = gcv_score(0.5, counts, identity_blur(2, 2), counts,
                          np.zeros(4))
        assert score == 0.0

    def test_hand_computed_value(self):
        # Four unit counts fitted by zero: each stabilized residual is
        # 2 sqrt(1.375) - 2 sqrt(0.375), df = 0.
        counts, blur, restored = self._flat_instance()
        expected = 4.0 * (2.0 * math.sqrt(1.375)
                          - 2.0 * math.sqrt(0.375)) ** 2 / 16.0
        score = gcv_score(0.5, counts, blur, restored, np.zeros(4))
        assert score == pytest.approx(expected, rel=1e-15)
        assert score == pytest.approx(0.31385933836549296, rel=1e-12)

    def test_active_coefficients_shrink_the_denominator(self):
        counts, blur, restored = self._flat_instance()
        base = gcv_score(0.5, counts, blur, restored, np.zeros(4))
        halved = gcv_score(0.5, counts, blur, restored,
                           np.array([10.0, 10.0, 0.0, 0.0]))
        assert halved == pytest.approx(4.0 * base, rel=1e-12)

    def test_saturated_degrees_of_freedom_rejected(self):
        counts, blur, restored = self._flat_instance()
        with pytest.raises(ValueError):
            gcv_score(0.5, counts, blur, restored, np.full(5, 10.0))

    def test_gamma_validation(self):
        counts, blur, restored = self._flat_instance()
        with pytest.raises(ValueError):
            gcv_score(0.0, counts, blur, restored, np.zeros(4))


class TestSelectGammaGcv:
    def _noiseless_problem(self):
        y = np.zeros((6, 6))
        y[1:4, 2:5] = [[3, 0, 7], [0, 5, 0], [9, 0, 4]]
        return DeconvProblem(
            counts=Image.from_2d(y), blur=identity_blur(6, 6),
            dictionary=make_dirac(6, 6), gamma=1.0, prior="synthesis",
            splitting=SplittingConfig(mu=1.0, max_outer=4000, tol=1e-12))

    def test_single_point_grid(self):
        best, rows = select_gamma_gcv([0.3], self._noiseless_problem())
        assert best.gamma_used == 0.3
        assert len(rows) == 1
        assert rows[0][2] is None

    def test_noiseless_identity_prefers_the_smallest_gamma(self):
        best, rows = select_gamma_gcv([1e-6, 2.0], self._noiseless_problem())
        assert best.gamma_used == 1e-6
        assert rows[0][1] < rows[1][1]

    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_winner_is_the_fixed_gamma_solve(self, prior):
        prob = replace(self._noiseless_problem(), prior=prior,
                       splitting=SplittingConfig(mu=1.0, max_outer=300))
        best, _ = select_gamma_gcv([0.1, 0.5], prob)
        again = deconvolve(replace(prob, gamma=best.gamma_used))
        assert best.restored.data.tobytes() == again.restored.data.tobytes()
        assert best.coefficients.tobytes() == again.coefficients.tobytes()
        assert best.state.iterations == again.state.iterations

    def test_truth_column_reports_mae(self):
        prob = self._noiseless_problem()
        _, rows = select_gamma_gcv([1e-6], prob, truth=prob.counts)
        assert rows[0][2] == pytest.approx(0.0, abs=1e-5)

    def test_ties_break_toward_larger_gamma(self, monkeypatch):
        prob = self._noiseless_problem()
        canned = DeconvResult(
            restored=Image(6, 6, np.zeros(36)), coefficients=np.zeros(36),
            state=SplittingState(x=np.zeros(36), aux=[], iterations=1,
                                 converged=True, relative_changes=[0.0],
                                 objectives=[]),
            gamma_used=1.0, wall_time_s=0.0, clip_mass=0.0)
        monkeypatch.setattr(deconv_module, "deconvolve",
                            lambda p: replace(canned, gamma_used=p.gamma))
        best, rows = select_gamma_gcv([0.1, 0.2, 0.4], prob)
        assert best.gamma_used == 0.4
        assert len({row[1] for row in rows}) == 1

    def test_grid_validation(self):
        prob = self._noiseless_problem()
        with pytest.raises(ValueError):
            select_gamma_gcv([], prob)
        with pytest.raises(ValueError):
            select_gamma_gcv([0.2, 0.1], prob)
        with pytest.raises(ValueError):
            select_gamma_gcv([0.1, 0.1], prob)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_grid_fails_before_any_solve(self, bad, monkeypatch):
        solves = []
        monkeypatch.setattr(deconv_module, "deconvolve", solves.append)
        with pytest.raises(ValueError, match="finite"):
            select_gamma_gcv([0.1, bad], self._noiseless_problem())
        assert solves == []

    def test_redundant_analysis_fails_before_any_solve(self, monkeypatch):
        # A redundant analysis has more active coefficients than degrees of
        # freedom; GCV would divide by n - df <= 0 after a full solve.
        solves = []
        monkeypatch.setattr(deconv_module, "deconvolve", solves.append)
        prob = replace(self._noiseless_problem(), prior="analysis",
                       dictionary=make_starlet(6, 6, 1))
        with pytest.raises(ValueError, match="72 coefficients for 36 pixels"):
            select_gamma_gcv([0.1, 0.2], prob)
        assert solves == []

    def test_wrong_size_truth_fails_before_any_solve(self, monkeypatch):
        solves = []
        monkeypatch.setattr(deconv_module, "deconvolve", solves.append)
        # 4x9 holds the counts' 36 pixels on another grid.
        for shape in ((5, 6), (4, 9)):
            with pytest.raises(DimensionMismatchError, match="truth"):
                select_gamma_gcv([0.1, 0.2], self._noiseless_problem(),
                                 truth=Image.from_2d(np.ones(shape)))
        assert solves == []

    def _redundant_problem(self):
        # Two stacked Diracs give 72 coefficients for 36 positive pixels, so
        # a small gamma leaves more active coefficients than pixels.
        y = np.arange(36, dtype=np.float64).reshape(6, 6) % 7 + 1
        return DeconvProblem(
            counts=Image.from_2d(y), blur=identity_blur(6, 6),
            dictionary=make_union([make_dirac(6, 6), make_dirac(6, 6)]),
            gamma=1.0, splitting=SplittingConfig(mu=1.0, max_outer=200))

    def test_saturated_point_scores_inf_and_is_never_selected(self):
        best, rows = select_gamma_gcv([1e-3, 100.0], self._redundant_problem())
        assert rows[0][1] == math.inf
        assert math.isfinite(rows[1][1])
        assert best.gamma_used == 100.0

    def test_grid_with_no_scorable_point_rejected(self):
        with pytest.raises(ValueError, match="can be scored"):
            select_gamma_gcv([1e-3, 2e-3], self._redundant_problem())


class TestSimulate:
    def test_zero_truth_yields_zero_counts(self):
        truth = Image.from_2d(np.zeros((3, 3)))
        counts = simulate(truth, identity_blur(3, 3), 10.0, 0)
        assert np.array_equal(counts.data, np.zeros(9))
        assert np.array_equal(scale_to_peak(truth, 10.0).data, np.zeros(9))

    def test_flat_field_statistics(self):
        truth = Image.from_2d(np.ones((100, 100)))
        counts = simulate(truth, identity_blur(100, 100), 100.0, 7)
        mean = float(np.mean(counts.data))
        ratio = float(np.var(counts.data)) / mean
        assert 97.0 <= mean <= 103.0
        assert 0.9 <= ratio <= 1.1
        assert counts.is_counts()

    def test_seed_determinism(self):
        truth = Image.from_2d(scene32())
        blur = make_circular_convolution(MA3, 32, 32)
        a = simulate(truth, blur, 30.0, 5)
        b = simulate(truth, blur, 30.0, 5)
        c = simulate(truth, blur, 30.0, 6)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_peak_rescaling_matches_scale_to_peak(self):
        truth = Image.from_2d(scene32())
        scaled = scale_to_peak(truth, 30.0)
        assert float(np.max(scaled.data)) == pytest.approx(30.0, rel=1e-12)
        big = simulate(truth, identity_blur(32, 32), 255.0, 1)
        assert float(np.max(big.data)) > 150.0

    def test_negative_kernel_rejected(self):
        truth = Image.from_2d([[0.0, 0.0, 5.0, 0.0, 0.0]])
        blur = make_circular_convolution(Image.from_2d([[1.0, -0.2]]), 5, 1,
                                         origin=(0, 0))
        with pytest.raises(ValueError):
            simulate(truth, blur, 10.0, 0)

    def test_input_validation(self):
        truth = Image.from_2d([[1.0]])
        blur = identity_blur(1, 1)
        with pytest.raises(ValueError):
            simulate(Image.from_2d([[-1.0]]), blur, 10.0, 0)
        for sample in (np.nan, np.inf):
            # Checked before scaling, where inf meets inf * 0, and before
            # NaN reaches the Poisson sampler.
            with pytest.raises(ValueError, match="truth image"):
                simulate(Image.from_2d([[1.0, sample]]), identity_blur(2, 1),
                         10.0, 0)
        for peak in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="peak"):
                simulate(truth, blur, peak, 0)
            with pytest.raises(ValueError, match="peak"):
                scale_to_peak(truth, peak)


class TestErrorMetrics:
    def test_mae_basics(self):
        a = Image.from_2d([[1.0, 2.0], [3.0, 4.0]])
        assert mae(a, a) == 0.0
        b = Image.from_2d([[2.0, 3.0], [4.0, 5.0]])
        assert mae(a, b) == pytest.approx(1.0)
        assert mae(np.array([1.0, 5.0]), np.array([2.0, 3.0])) \
            == pytest.approx(1.5)

    def test_mae_size_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mae(np.ones(3), np.ones(4))
        # Rasters compare by grid: 4x9 and 6x6 hold the same pixel count.
        with pytest.raises(DimensionMismatchError, match=r"\(6, 6\)"):
            mae(Image.from_2d(np.ones((4, 9))), Image.from_2d(np.ones((6, 6))))
        # A flat array still compares by size.
        assert mae(np.ones(36), Image.from_2d(np.ones((6, 6)))) == 0.0

    def test_relative_mae(self):
        truth = Image.from_2d([[2.0, 2.0], [2.0, 2.0]])
        est = Image.from_2d([[3.0, 3.0], [3.0, 3.0]])
        assert relative_mae(est, truth) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            relative_mae(est, Image.from_2d([[0.0, 0.0], [0.0, 0.0]]))


class TestResultMetrics:
    def test_document_shape(self):
        res = deconvolve(ring_problem("synthesis"))
        doc = result_metrics(res)
        expected_keys = {"gamma", "iterations", "converged",
                         "relative_change_trace", "objective_trace",
                         "wall_time_s", "clip_mass"}
        assert set(doc) == expected_keys
        assert doc["gamma"] == 0.1
        assert doc["converged"] is True
        assert len(doc["relative_change_trace"]) == doc["iterations"]
        assert doc["wall_time_s"] > 0.0

    def test_timing_can_be_suppressed(self):
        res = deconvolve(ring_problem("synthesis"))
        doc = result_metrics(res, include_timing=False)
        assert doc["wall_time_s"] == 0.0
        assert "mae" not in doc

    def test_objective_trace_optional(self):
        # deconvolve always traces; a solve whose terms have no value
        # traces [].
        res = deconvolve(ring_problem("synthesis"))
        _, state = solve([ProxTerm(prox=lambda v, s: v)],
                         SplittingConfig(max_outer=2), res.state.x)
        assert state.objectives == []
        doc = result_metrics(replace(res, state=state))
        assert doc["objective_trace"] == []

    def test_non_finite_trace_entries_are_null(self):
        # A step away from a zero iterate has relative change +inf; strict
        # JSON has no infinity.
        state = SplittingState(x=np.ones(4), aux=[], iterations=2,
                               converged=False,
                               relative_changes=[math.inf, 0.5],
                               objectives=[math.inf, 1.5])
        res = DeconvResult(restored=Image(2, 2, np.ones(4)),
                           coefficients=np.ones(4), state=state,
                           gamma_used=0.1, wall_time_s=0.0, clip_mass=0.0)
        doc = result_metrics(res)
        assert doc["relative_change_trace"] == [None, 0.5]
        assert doc["objective_trace"] == [None, 1.5]
        json.dumps(doc, allow_nan=False)


class TestStoppingWhileTheDualsMove:
    def test_a_zero_iterate_does_not_stop_the_run(self):
        # The synthesis step tau = 2 mean(y) = 9 times gamma = 1 exceeds every
        # count, so the first two primal-dual iterates threshold to 0, where
        # the Poisson objective is +inf. The second has primal change 0; only
        # the duals move. The minimizer is y / (1 + gamma) = y / 2.
        counts = Image.from_2d([[3.0, 5.0], [4.0, 6.0]])
        prob = DeconvProblem(
            counts=counts, blur=identity_blur(2, 2),
            dictionary=make_dirac(2, 2), gamma=1.0,
            splitting=SplittingConfig(max_outer=2, tol=1e-10))
        early = deconvolve(prob)
        assert not np.any(early.state.x)
        assert early.state.objectives == [math.inf, math.inf]
        assert not early.converged
        assert early.state.relative_changes[-1] == math.inf
        res = deconvolve(replace(prob, splitting=SplittingConfig(
            max_outer=2000, tol=1e-10)))
        assert res.converged
        assert math.isfinite(res.state.objectives[-1])
        assert np.max(np.abs(res.restored.data - counts.data / 2.0)) <= 1e-6


class TestNonTightFrame:
    """Frame diag(1, 3) on a 2x1 ring: every composed prox runs dual FB.

    Counts [5, 1] under the blur [0.75, 0.25] fit x = [7, -1] unconstrained,
    so the positivity constraint is active at the optimum.
    """

    COUNTS = np.array([5.0, 1.0])
    SCALE = np.array([1.0, 3.0])

    def _objective_batch(self, pts, gamma, prior):
        if prior == "synthesis":
            x, coeffs = pts * self.SCALE, pts
        else:
            x, coeffs = pts, pts * self.SCALE
        eta = 0.75 * x + 0.25 * x[:, ::-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            fit = np.where(eta > 0.0, eta - self.COUNTS * np.log(eta), np.inf)
        return np.sum(fit, axis=1) + gamma * np.sum(np.abs(coeffs), axis=1)

    @pytest.mark.parametrize("gamma", [0.1, 0.5])
    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_reaches_the_grid_oracle(self, prior, gamma):
        blur = make_circular_convolution(Image.from_2d([[0.75, 0.25]]), 2, 1,
                                         origin=(0, 0))
        prob = DeconvProblem(
            counts=Image.from_2d([self.COUNTS]), blur=blur,
            dictionary=_diag_pseudo_dictionary(), gamma=gamma, prior=prior,
            splitting=SplittingConfig(mu=1.0, max_outer=5000, tol=1e-13))
        res = deconvolve(prob)
        if prior == "synthesis":
            value = objective(prob, res.coefficients, feasibility_tol=1e-8)
        else:
            value = objective(prob, res.restored.data)
        _, oracle = grid_minimize(
            lambda pts: self._objective_batch(pts, gamma, prior),
            [0.0, 0.0], [10.0, 10.0])
        assert value <= oracle + 1e-8


class TestAnalysisFeasibility:
    def test_restoration_needs_no_clipping(self):
        # The primal-dual iterate at theta = 1 is the positivity projection,
        # so it never leaves the orthant. The Douglas-Rachford average did:
        # it clipped 0.223 here at mu 30, which the primal-dual step ignores.
        truth = Image.from_2d(scene64()[::4, ::4])
        blur = make_circular_convolution(MA3, 16, 16)
        prob = DeconvProblem(
            counts=simulate(truth, blur, 30.0, 0), blur=blur,
            dictionary=parse_dictionary_spec("starlet:levels=2", 16, 16),
            gamma=0.2, prior="analysis",
            splitting=SplittingConfig(mu=30.0, theta=1.0, max_outer=20))
        res = deconvolve(prob)
        assert res.state.iterations == 20
        assert res.clip_mass == 0.0
        assert np.array_equal(res.restored.data, res.state.x)


class TestNameLookup:
    """The solver looks its elementwise proxes up by module name on every
    call, so a function rebound there (as a tracing wrapper is) sees every
    call. Both priors' primal-dual iteration calls each prox once per outer
    iteration and never calls the dual FB solve, which a tracer rebinds too.
    """

    PER_ITERATION = {
        "synthesis": {"project_positive": 1, "prox_affine_fb": 0,
                      "prox_poisson": 1, "soft_threshold": 1},
        "analysis": {"project_positive": 1, "prox_affine_fb": 0,
                     "prox_poisson": 1, "soft_threshold": 1},
    }

    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_rebound_names_see_every_call(self, prior, monkeypatch):
        calls = {}

        def counting(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        for name in ("project_positive", "prox_poisson", "soft_threshold"):
            counting(deconv_module, name)
        counting(prox_compose_module, "prox_affine_fb")
        assert deconvolve(_counts_problem(prior)).state.iterations == 3
        assert calls == {name: 3 * n
                         for name, n in self.PER_ITERATION[prior].items() if n}

    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_one_solve_with_one_positivity_call_per_iteration(self, prior,
                                                              monkeypatch):
        # A tracer sums outer iterations from what deconv.solve returns and
        # ticks its clock on deconv.project_positive.
        solves, positives = [], []
        original_solve = deconv_module.solve
        original_positive = deconv_module.project_positive

        def solve(*args, **kwargs):
            before = len(positives)
            result = original_solve(*args, **kwargs)
            solves.append((result[1].iterations, len(positives) - before))
            return result

        def positive(*args, **kwargs):
            positives.append(None)
            return original_positive(*args, **kwargs)
        monkeypatch.setattr(deconv_module, "solve", solve)
        monkeypatch.setattr(deconv_module, "project_positive", positive)
        res = deconvolve(_counts_problem(prior, max_outer=5))
        assert res.state.iterations == 5
        assert solves == [(5, 5)]


def _counts_problem(prior, levels=2, max_outer=3, spec=None, wrap=False):
    """16x16 Poisson counts under a 3x3 box blur, gamma 0.2, mu 20."""
    rng = np.random.default_rng(0)
    counts = Image(16, 16, rng.poisson(20.0, 256).astype(np.float64))
    blur = make_circular_convolution(MA3, 16, 16)
    d = parse_dictionary_spec(spec or f"starlet:levels={levels}", 16, 16)
    if wrap:
        # Rebuilt through the public constructors, as a tracing wrapper does.
        blur = LinearOperator(blur.in_dim, blur.out_dim, blur.apply,
                              blur.adjoint, blur.spectral_bound)
        d = FrameDictionary(d.width, d.height, d.coeff_dim, d.synthesis,
                            d.analysis, d.c1, d.c2, d.tight)
    return DeconvProblem(
        counts=counts, blur=blur, dictionary=d, gamma=0.2, prior=prior,
        splitting=SplittingConfig(mu=20.0, max_outer=max_outer, tol=0.0))


class TestFourierPath:
    # 2-D FFTs per outer iteration, from the operators module's counter:
    # synthesis: blur o synthesis and the synthesis applied to one band
    # stack (bands + 2) and their adjoints summed in the spectrum (2 +
    # bands); analysis: the blur and the analysis applied to one image (1 +
    # 1 + bands) and their adjoints summed in the spectrum (1 + bands + 1).
    # The objective trace is carried from the maps' outputs and costs none.
    # A multiplier transforms all bands of a stack in one numpy call, so
    # the calls per iteration do not grow with the levels.
    FFT2_PER_ITERATION = {("synthesis", 2): 10, ("analysis", 2): 10,
                          ("synthesis", 3): 12, ("analysis", 3): 12}
    NUMPY_FFT_CALLS_PER_ITERATION = {"synthesis": 5, "analysis": 5}

    @pytest.mark.parametrize("prior, levels", sorted(FFT2_PER_ITERATION))
    def test_fft2_per_outer_iteration(self, prior, levels, monkeypatch):
        calls = []

        def counted(fn):
            return lambda *args, **kw: calls.append(fn) or fn(*args, **kw)
        for name in ("rfft2", "irfft2"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        spent, called = [], []
        for max_outer in (1, 3):
            before, calls_before = operators_module.fft2_count, len(calls)
            deconvolve(_counts_problem(prior, levels, max_outer))
            spent.append(operators_module.fft2_count - before)
            called.append(len(calls) - calls_before)
        assert (spent[1] - spent[0]) / 2 == \
            self.FFT2_PER_ITERATION[(prior, levels)]
        assert (called[1] - called[0]) / 2 == \
            self.NUMPY_FFT_CALLS_PER_ITERATION[prior]

    @pytest.mark.parametrize("spec", ["starlet:levels=2",
                                      "union(starlet:levels=2,dirac)",
                                      "haar:levels=2"])
    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_wrapped_operators_give_identical_results(self, prior, spec):
        plain = deconvolve(_counts_problem(prior, spec=spec))
        wrapped = deconvolve(_counts_problem(prior, spec=spec, wrap=True))
        assert plain.restored.data.tobytes() == wrapped.restored.data.tobytes()
        assert result_metrics(plain, include_timing=False) == \
            result_metrics(wrapped, include_timing=False)

    @pytest.mark.parametrize("spec", ["starlet:levels=2", "haar:levels=2",
                                      "union(starlet:levels=2,dirac)",
                                      "dirac"])
    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_objective_trace_is_the_objective(self, prior, spec):
        # objective is the traced value itself, bit for bit.
        prob = _counts_problem(prior, max_outer=50, spec=spec)
        res = deconvolve(prob)
        traced = res.state.objectives[-1]
        assert math.isfinite(traced)
        assert objective(prob, res.state.x, feasibility_tol=math.inf) == traced

    @pytest.mark.parametrize("spec", ["starlet:levels=2", "haar:levels=2",
                                      "union(starlet:levels=2,dirac)",
                                      "dirac"])
    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_carried_trace_is_the_exact_objective(self, prior, spec,
                                                  monkeypatch):
        # The solver carries K x by linearity from the K x_bar it computes
        # for the duals; every entry is scored against the exact value at
        # the same iterate, recomputed from x through the maps.
        pairs = []
        exact = splitting_module.objective_value

        def scored(terms, x, images=None):
            value = exact(terms, x, images)
            if images is not None:
                pairs.append((value, exact(terms, x)))
            return value
        monkeypatch.setattr(splitting_module, "objective_value", scored)
        res = deconvolve(_counts_problem(prior, max_outer=200, spec=spec))
        carried, want = np.array(pairs).T
        assert carried.size == res.state.iterations == 200
        assert np.array_equal(np.isfinite(carried), np.isfinite(want))
        finite = np.isfinite(want)
        assert np.all(np.abs(carried[finite] - want[finite])
                      <= 1e-14 * np.abs(want[finite]))
        assert res.state.objectives[:-1] == list(carried[:-1])
        assert res.state.objectives[-1] == want[-1]

    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_solver_skips_the_per_call_count_scan(self, prior, monkeypatch):
        # DeconvProblem validates the counts; the proxes must not rescan.
        scans = []
        monkeypatch.setattr(prox_core_module, "all_counts",
                            lambda y: scans.append(y.size) or True)
        deconvolve(_counts_problem(prior))
        assert scans == []


def _same_result(a, b):
    assert a.restored.data.tobytes() == b.restored.data.tobytes()
    assert a.coefficients.tobytes() == b.coefficients.tobytes()
    assert a.state.relative_changes == b.state.relative_changes
    assert a.state.objectives == b.state.objectives
    assert a.state.iterations == b.state.iterations


class TestRerunsInOneProcess:
    """One problem object, run twice: no warm start, probed Fourier form or
    other state may outlive a solve."""

    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_one_problem_solved_twice(self, prior):
        p = _counts_problem(prior, max_outer=8)
        _same_result(deconvolve(p), deconvolve(p))

    def test_one_problem_scanned_twice(self):
        # gamma 1 leaves 256 active coefficients for 256 pixels: an inf row.
        p = _counts_problem("synthesis", max_outer=8)
        best_a, rows_a = select_gamma_gcv([1.0, 5.0], p)
        best_b, rows_b = select_gamma_gcv([1.0, 5.0], p)
        assert rows_a == rows_b
        _same_result(best_a, best_b)
