import decimal
import json
import math
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import proxdeconv.deconv as deconv_module
import proxdeconv.operators as operators_module
import proxdeconv.prox_compose as prox_compose_module
import proxdeconv.splitting as splitting_module
from proxdeconv import (DeconvProblem, DeconvResult, FourierMultiplier,
                        FrameDictionary, Image, LinearOperator, ProxTerm, SplittingConfig,
                        SplittingState, deconvolve, fourier_form, gcv_score,
                        make_circular_convolution, make_dirac, make_haar_dwt,
                        make_starlet, make_union, mae, objective,
                        parse_dictionary_spec, relative_mae, result_metrics,
                        richardson_lucy, scale_to_peak, select_gamma_gcv,
                        simulate, soft_threshold, solve)
from proxdeconv.errors import DimensionMismatchError, NonFiniteIterateError
from proxdeconv.operators import MapStack

from oracles import (GainMatrixStack, grid_minimize, rank_one_adjoint,
                     rank_one_apply, scene32, scene64)
from test_dictionary import _diag_pseudo_dictionary
from test_prox_core import _peak_growth

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

    def test_a_plain_dictionary_must_map_to_the_pixels(self):
        # A LinearOperator dictionary has no grid, but its images must hold
        # the counts' pixels; 67 for 64 failed only inside the solve.
        for out_dim in (67, 32):
            d = LinearOperator(64, out_dim, None, None, 1.0)
            with pytest.raises(DimensionMismatchError,
                               match=f"dictionary.*expected 64, got {out_dim}"):
                DeconvProblem(counts=Image(8, 8, np.ones(64)),
                              blur=make_circular_convolution(MA3, 8, 8),
                              dictionary=d, gamma=0.1)

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

    @pytest.mark.parametrize("tol", [math.nan, -1e-12, -math.inf])
    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_objective_rejects_a_nan_or_negative_tolerance(self, prior, tol):
        # A NaN tolerance used to switch the check off (an analysis image
        # with a pixel at -3 scored finite), and a negative one to make
        # feasible points +inf.
        prob = _counts_problem(prior)
        point = np.ones(prob.dictionary.coeff_dim if prior == "synthesis"
                        else prob.counts.n)
        with pytest.raises(ValueError, match="feasibility_tol"):
            objective(prob, point, feasibility_tol=tol)

    def test_objective_takes_an_infinite_tolerance(self):
        # +inf skips the check: the blurred image is still positive.
        prob = _counts_problem("analysis")
        point = np.ones(prob.counts.n)
        point[5] = -3.0
        assert objective(prob, point) == math.inf
        assert math.isfinite(objective(prob, point, feasibility_tol=math.inf))


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

    def test_saturated_degrees_of_freedom_score_inf(self):
        # df >= n = 4 scores +inf, the limit of the score as df -> n.
        counts, blur, restored = self._flat_instance()
        for active in (4, 5):
            coefficients = np.r_[np.full(active, 10.0), 0.0]
            assert gcv_score(0.5, counts, blur, restored, coefficients) == math.inf

    def test_gamma_validation(self):
        counts, blur, restored = self._flat_instance()
        with pytest.raises(ValueError):
            gcv_score(0.0, counts, blur, restored, np.zeros(4))

    def test_restored_raster_on_another_grid_is_rejected(self):
        # Counts 4 wide and 8 high; a restoration 8 wide and 4 high has
        # their pixel count on another grid.
        counts = Image(4, 8, np.arange(32.0))
        blur, data = identity_blur(4, 8), np.linspace(0.0, 40.0, 32)
        gcv_score(0.5, counts, blur, Image(4, 8, data), np.zeros(32))
        with pytest.raises(DimensionMismatchError,
                           match="gcv_score restored: expected \\(8, 4\\), "
                                 "got \\(4, 8\\)"):
            gcv_score(0.5, counts, blur, Image(8, 4, data), np.zeros(32))

    def test_infinite_gamma_rejected(self):
        # Every coefficient lies below an infinite gamma, so df = 0 would
        # score a gamma that no solve can use.
        counts, blur, restored = self._flat_instance()
        with pytest.raises(ValueError, match="gamma"):
            gcv_score(math.inf, counts, blur, restored, np.zeros(4))


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
            state=SplittingState(x=np.zeros(36), aux=[], images=[], iterations=1,
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

    def test_a_plain_operator_dictionary_under_the_analysis_prior(self):
        # DeconvProblem and deconvolve take any LinearOperator as the
        # dictionary; the redundancy check read FrameDictionary.coeff_dim.
        d = make_dirac(6, 6)
        plain = LinearOperator(d.in_dim, d.out_dim, d.apply, d.adjoint,
                               d.spectral_bound)
        prob = replace(self._noiseless_problem(), prior="analysis",
                       splitting=SplittingConfig(mu=1.0, max_outer=50))
        best, _ = select_gamma_gcv([0.1, 0.5], replace(prob, dictionary=plain))
        want, _ = select_gamma_gcv([0.1, 0.5], prob)
        assert best.gamma_used == want.gamma_used
        assert best.restored.data.tobytes() == want.restored.data.tobytes()
        redundant = LinearOperator(72, 36, lambda c: c[:36] + c[36:],
                                   lambda x: np.concatenate([x, x]), 2.0)
        with pytest.raises(ValueError, match="72 coefficients for 36 pixels"):
            select_gamma_gcv([0.1], replace(prob, dictionary=redundant))

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
        for seed in (-1, 2.5, "3", True):
            with pytest.raises(ValueError, match="seed"):
                simulate(truth, blur, 10.0, seed)
        assert np.array_equal(simulate(truth, blur, 10.0, np.int64(3)).data,
                              simulate(truth, blur, 10.0, 3).data)


class TestBlurGrid:
    """``simulate``, ``richardson_lucy`` and ``gcv_score`` take the blurs
    that ``DeconvProblem`` takes: a Fourier multiplier must lie on the
    image's grid, any other blur needs its pixel count."""

    NAMES = ["simulate", "richardson_lucy", "gcv_score"]

    def _call(self, name, blur):
        image = Image(4, 8, np.arange(32.0))  # 4 wide and 8 high
        if name == "simulate":
            return simulate(image, blur, 10.0, 0)
        if name == "richardson_lucy":
            return richardson_lucy(image, blur, 1)
        return gcv_score(0.5, image, blur, image, np.zeros(32))

    @pytest.mark.parametrize("name", NAMES)
    def test_a_multiplier_on_the_transposed_grid_is_rejected(self, name):
        # 8 wide and 4 high: the image's pixel count on another grid.
        blur = make_circular_convolution(MA3, 8, 4)
        with pytest.raises(DimensionMismatchError,
                           match=f"{name} blur grid: expected \\(8, 4\\), "
                                 "got \\(4, 8\\)"):
            self._call(name, blur)

    @pytest.mark.parametrize("name", NAMES)
    def test_a_generic_blur_is_checked_by_pixel_count(self, name):
        blur = make_circular_convolution(MA3, 8, 4)
        self._call(name, LinearOperator(32, 32, blur.apply, blur.adjoint, 1.0))
        for in_dim, out_dim in [(36, 32), (32, 36)]:
            wrong = LinearOperator(in_dim, out_dim, None, None, 1.0)
            with pytest.raises(DimensionMismatchError,
                               match=f"{name} blur: expected 32, got 36"):
                self._call(name, wrong)


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
                         "relative_change_trace", "primal_change_trace",
                         "dual_change_trace", "objective_trace",
                         "wall_time_s", "clip_mass"}
        assert set(doc) == expected_keys
        assert doc["gamma"] == 0.1
        assert doc["converged"] is True
        assert len(doc["relative_change_trace"]) == doc["iterations"]
        # The stopping rule reads the larger of the two changes.
        assert doc["relative_change_trace"] == [
            max(p, d) for p, d in zip(doc["primal_change_trace"],
                                      doc["dual_change_trace"])]
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
        state = SplittingState(x=np.ones(4), aux=[], images=[], iterations=2,
                               converged=False,
                               relative_changes=[math.inf, 0.5],
                               objectives=[math.inf, 1.5],
                               primal_changes=[0.25, 0.5],
                               dual_changes=[math.inf, 0.125])
        res = DeconvResult(restored=Image(2, 2, np.ones(4)),
                           coefficients=np.ones(4), state=state,
                           gamma_used=0.1, wall_time_s=0.0, clip_mass=0.0)
        doc = result_metrics(res)
        assert doc["relative_change_trace"] == [None, 0.5]
        assert doc["primal_change_trace"] == [0.25, 0.5]
        assert doc["dual_change_trace"] == [None, 0.125]
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
    call. Both priors' primal-dual iteration calls the positivity's
    projection once per outer iteration, the primal prox once per block of
    the variable (the analysis prior's one image is one block), takes the
    mapped terms' dual steps in closed form, without ``prox_poisson`` or
    ``soft_threshold``, and never calls the dual FB solve, which a tracer
    rebinds too. The objective trace calls ``eval_poisson`` once per
    iteration and once more for its exact last entry.
    """

    PER_ITERATION = {
        "synthesis": {"project_positive": 1, "prox_affine_fb": 0,
                      "prox_poisson": 0, "soft_threshold": 1},
        "analysis": {"project_positive": 1, "prox_affine_fb": 0,
                     "prox_poisson": 0, "soft_threshold": 0},
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

        for name in ("project_positive", "prox_poisson", "soft_threshold",
                     "eval_poisson"):
            counting(deconv_module, name)
        counting(prox_compose_module, "prox_affine_fb")
        assert deconvolve(_counts_problem(prior)).state.iterations == 3
        assert calls == {"eval_poisson": 3 + 1} | {
            name: 3 * n for name, n in self.PER_ITERATION[prior].items() if n}

    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_the_primal_prox_runs_once_per_block(self, prior, monkeypatch):
        # One 16 x 16 band per block: the synthesis prior's three bands are
        # three blocks, each thresholded alone, while the positivity's
        # projection stays once per iteration under either prior.
        calls = {}

        def counting(name):
            original = getattr(deconv_module, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)
            monkeypatch.setattr(deconv_module, name, counted)

        for name in ("project_positive", "soft_threshold"):
            counting(name)
        monkeypatch.setattr(operators_module, "BLOCK_BYTES", 256 * 8)
        assert deconvolve(_counts_problem(prior)).state.iterations == 3
        blocks = {"synthesis": 3, "analysis": 0}[prior]
        assert calls == {"project_positive": 3} | (
            {"soft_threshold": 3 * blocks} if blocks else {})

    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_one_solve_with_one_positivity_call_per_iteration(self, prior,
                                                              monkeypatch):
        # A tracer sums outer iterations from what deconv.solve returns and
        # ticks its clock on deconv.project_positive, which it rebinds as
        # project_positive(x): a call with another signature fails here.
        solves, positives = [], []
        original_solve = deconv_module.solve
        original_positive = deconv_module.project_positive

        def solve(*args, **kwargs):
            before = len(positives)
            result = original_solve(*args, **kwargs)
            solves.append((result[1].iterations, len(positives) - before))
            return result

        def positive(x):
            positives.append(None)
            return original_positive(x)
        monkeypatch.setattr(deconv_module, "solve", solve)
        monkeypatch.setattr(deconv_module, "project_positive", positive)
        res = deconvolve(_counts_problem(prior, max_outer=5))
        assert res.state.iterations == 5
        assert solves == [(5, 5)]


# A kernel that is not symmetric about its centre has complex gains.
SKEWED = Image.from_2d([[0.1, 0.3, 0.05], [0.2, 0.1, 0.0], [0.15, 0.05, 0.05]])
# Dictionaries and blurs that the rollout and solver comparisons run.
MAPS = pytest.mark.parametrize("spec, psf", [
    ("starlet:levels=2", MA3), ("starlet:levels=2", SKEWED),
    ("union(starlet:levels=2,dirac)", MA3), ("haar:levels=2", MA3),
    ("dirac", MA3)], ids=["starlet", "starlet-skewed", "union", "haar", "dirac"])


def _counts_problem(prior, levels=2, max_outer=3, spec=None, wrap=False,
                    psf=MA3, theta=1.0):
    """16x16 Poisson counts under a 3x3 blur (a box by default), gamma 0.2,
    mu 20."""
    rng = np.random.default_rng(0)
    counts = Image(16, 16, rng.poisson(20.0, 256).astype(np.float64))
    blur = make_circular_convolution(psf, 16, 16)
    d = parse_dictionary_spec(spec or f"starlet:levels={levels}", 16, 16)
    if wrap:
        # Rebuilt through the public constructors, as a tracing wrapper does.
        blur = LinearOperator(blur.in_dim, blur.out_dim, blur.apply,
                              blur.adjoint, blur.spectral_bound)
        d = FrameDictionary(d.width, d.height, d.coeff_dim, d.synthesis,
                            d.analysis, d.c1, d.c2, d.tight)
    return DeconvProblem(
        counts=counts, blur=blur, dictionary=d, gamma=0.2, prior=prior,
        splitting=SplittingConfig(mu=20.0, theta=theta, max_outer=max_outer,
                                  tol=0.0))


def _unbuffered_rollout(problem, relaxed=False):
    """``deconvolve``'s primal-dual recurrence with every iterate, dual and
    map output a new array, each dual step the term's conjugate (or
    Moreau's identity) applied to a fresh array: multipliers on one grid
    that share their input gains run by plain numpy FFTs in the rank-1
    order (``oracles.rank_one_apply`` and ``rank_one_adjoint``); other maps
    apply one by one. At theta = 1 the new iterates are x~ and u~
    themselves, x_bar = x~ + (x~ - x) and K x = (K x_bar + K x) / 2; at any
    other theta, or with ``relaxed``, they are the relaxed x + theta (x~ -
    x) and u + theta (u~ - u), x_bar = x + 2 (x~ - x) and K x += (theta / 2)
    (K x_bar - K x). Returns the restored image, the objective and
    relative-change traces and the duals."""
    terms, cfg = deconv_module._terms(problem)
    image = terms[-1].op  # Phi, or None where the solver's variable is the image
    g = next(term for term in terms if term.op is None)
    mapped = [term for term in terms if term.op is not None]
    ops = [term.op for term in mapped]

    def value(x, images=None):
        valued = [term for term in terms if term.value is not None]
        if images is None:
            images = rank_one_apply([t.op for t in valued if t.op is not None], x)
        images = iter(images)
        return sum(float(term.value(x if term.op is None else next(images)))
                   for term in valued)

    def ratio(num, denom):
        return num / denom if denom else (0.0 if num == 0.0 else math.inf)

    tau, theta = cfg.mu, cfg.theta
    unrelaxed = theta == 1.0 and not relaxed
    sigma = 0.99 / (tau * sum(op.spectral_bound ** 2 for op in ops))
    y = problem.counts.data
    x = np.array(y if image is None else image.adjoint(y), dtype=np.float64)
    duals = [np.zeros(op.out_dim) for op in ops]
    back = np.zeros(x.size)
    carried = [i for i, term in enumerate(mapped) if term.value is not None]
    kx = {i: k.copy() for i, k in
          zip(carried, rank_one_apply([ops[i] for i in carried], x))}
    objectives, changes = [], []
    for _ in range(cfg.max_outer):
        # A copy: the l1 prox writes into an array it keeps.
        x_new = g.prox(x - tau * back, tau).copy()
        d = x_new - x
        x_bar = x_new + d if unrelaxed else x + 2.0 * d
        for i, (term, u, k_bar) in enumerate(zip(mapped, duals,
                                                 rank_one_apply(ops, x_bar))):
            v = u + sigma * k_bar
            if term.conj is None:
                v -= sigma * term.prox(v / sigma, 1.0 / sigma)
            else:
                term.conj(v, sigma)
            duals[i] = v if unrelaxed else u + theta * (v - u)
            if i in kx and unrelaxed:
                kx[i] = (k_bar + kx[i]) * 0.5
            elif i in kx:
                kx[i] += (0.5 * theta) * (k_bar - kx[i])
        back_next = rank_one_adjoint(ops, duals)
        x_next = x_new if unrelaxed else x + theta * d
        shift = tau * float(np.linalg.norm(back_next - back))
        reach = max(float(np.linalg.norm(x)), float(np.linalg.norm(x_next)))
        # The primal change is theta ||x~ - x||, as the solver defines it.
        change = ratio(theta * float(np.linalg.norm(d)), float(np.linalg.norm(x)))
        changes.append(max(change, ratio(shift, reach)))
        x, back = x_next, back_next
        objectives.append(value(x, kx.values()))
        if changes[-1] <= cfg.tol:
            break
    objectives[-1] = value(x)
    raw = x if image is None else image.apply(x)
    return np.maximum(raw, 0.0), objectives, changes, duals


class TestFourierPath:
    # 2-D FFTs per outer iteration, from the operators module's counter:
    # synthesis: blur o synthesis and the synthesis applied to one band
    # stack (bands + 2) and their adjoints summed in the spectrum (2 +
    # bands); analysis: the blur and the analysis applied to one image (1 +
    # 1 + bands) and their adjoints summed in the spectrum (1 + bands + 1).
    # The objective trace is carried from the maps' outputs and costs none.
    # The maps' outputs and the duals are one stack, and a stack transforms
    # all its bands in one numpy call, so the calls per iteration do not
    # grow with the levels: one forward transform (rfft, then fft) of the
    # primal point, one inverse (ifft, then irfft) into every map's output,
    # one forward transform of the duals and one inverse of their adjoint
    # sum, each as its two 1-D passes.
    FFT2_PER_ITERATION = {("synthesis", 2): 10, ("analysis", 2): 10,
                          ("synthesis", 3): 12, ("analysis", 3): 12}
    NUMPY_FFT_CALLS_PER_ITERATION = {"synthesis": 8, "analysis": 8}

    @pytest.mark.parametrize("prior, levels", sorted(FFT2_PER_ITERATION))
    def test_fft2_per_outer_iteration(self, prior, levels, monkeypatch):
        calls = []

        def counted(fn):
            return lambda *args, **kw: calls.append(fn) or fn(*args, **kw)
        # Every transform numpy.fft offers, so no route to an FFT escapes.
        for name in np.fft.__all__:
            fn = getattr(np.fft, name)
            if callable(fn):
                monkeypatch.setattr(np.fft, name, counted(fn))
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

    # 2-D FFTs outside the iterations at starlet:levels=2 (3 bands): reading
    # the forms of H (3: its impulse response 2, its transform 1) and Phi
    # (7: 4 + 3), both multipliers by construction and so not probed, then
    # the maps' images. Both
    # priors apply the solve's one map stack twice, to the start point and
    # to the last iterate: under the synthesis prior H Phi x and the
    # restored image Phi x share one forward transform of the 3 bands and
    # take 2 inverse ones, 5, after the start point Phi^T y, 4; under the
    # analysis prior H x and Phi^T x take 1 + 4, 5, and the coefficients
    # Phi^T x 4. H Phi is the product of the probed H and Phi and costs no
    # probe, where probing it whole would cost 30 more. ``objective``
    # reads the forms as a solve does, then applies the same stack once
    # (5). Haar has no Fourier form: its probe stops at the first mismatch
    # (its transform 1, one probe 2), it computes no FFT itself, and H Haar
    # is not probed, so both priors spend 3 + 3 on the forms and 2 on each
    # blur image: the start and the last H x (or H Phi x). An iteration
    # then transforms only through H, 2 each way.
    SETUP_FFT2 = {"synthesis": 10 + 4 + 2 * 5, "analysis": 10 + 2 * 5 + 4,
                  "synthesis-haar": 6 + 2 * 2, "analysis-haar": 6 + 2 * 2}
    OBJECTIVE_FFT2 = {"synthesis": 10 + 5, "analysis": 10 + 5,
                      "synthesis-haar": 6 + 2, "analysis-haar": 6 + 2}

    @pytest.mark.parametrize("case", sorted(SETUP_FFT2))
    def test_fft2_outside_the_iterations(self, case):
        prior, _, haar = case.partition("-")
        spec = "haar:levels=2" if haar else None
        spent = []
        for max_outer in (1, 3):
            problem = _counts_problem(prior, max_outer=max_outer, spec=spec)
            before = operators_module.fft2_count
            res = deconvolve(problem)
            spent.append(operators_module.fft2_count - before)
        per_iteration = 4 if haar else self.FFT2_PER_ITERATION[(prior, 2)]
        assert spent[1] - spent[0] == 2 * per_iteration
        assert spent[0] - per_iteration == self.SETUP_FFT2[case]
        before = operators_module.fft2_count
        objective(problem, res.state.x)
        assert operators_module.fft2_count - before == self.OBJECTIVE_FFT2[case]

    # numpy's dispatch wrappers: at 64 x 64 their argument handling costs as
    # much as the arithmetic, so the loop uses array methods and 1-D passes.
    WRAPPERS = [(np, "all"), (np, "any"), (np, "sum"), (np, "max"),
                (np, "min"), (np, "clip"), (np.linalg, "norm"),
                (np.fft, "rfft2")]

    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_no_dispatch_wrapper_per_iteration(self, prior, monkeypatch):
        calls = []

        def counted(name, fn):
            return lambda *args, **kw: calls.append(name) or fn(*args, **kw)
        for module, name in self.WRAPPERS:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        spent = []
        for max_outer in (3, 6):
            before = len(calls)
            deconvolve(_counts_problem(prior, max_outer=max_outer))
            spent.append(sorted(calls[before:]))
        # Set-up calls some (the count scan, the Fourier forms' round-off
        # test), and as many for any iteration count.
        assert "min" in spent[0] and "max" in spent[0]
        assert spent[1] == spent[0]

    @pytest.mark.parametrize("spec, psf", [
        ("starlet:levels=2", MA3), ("union(starlet:levels=2,dirac)", MA3),
        ("haar:levels=2", MA3), ("starlet:levels=2", SKEWED), ("dirac", MA3)],
        ids=["starlet:levels=2", "union(starlet:levels=2,dirac)",
             "haar:levels=2", "starlet-skewed", "dirac"])
    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_wrapped_operators_give_identical_results(self, prior, spec, psf):
        # Shipped operators and the same ones rebuilt from their callables
        # (as a tracer rebuilds them) are probed alike, so they give the
        # same gains and the same bits.
        plain = deconvolve(_counts_problem(prior, spec=spec, psf=psf))
        wrapped = deconvolve(_counts_problem(prior, spec=spec, wrap=True, psf=psf))
        assert plain.restored.data.tobytes() == wrapped.restored.data.tobytes()
        assert result_metrics(plain, include_timing=False) == \
            result_metrics(wrapped, include_timing=False)

    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_operators_are_called_only_by_the_probe(self, prior):
        # fourier_form reads an impulse response and checks one probe each
        # way; the dictionary, from a stack to an image, is probed through
        # its transpose. Start point, restored image, coefficients and the
        # feasibility check then all run through the forms.
        calls = {}

        def counted(name, fn):
            def wrapped(x):
                calls[name] = calls.get(name, 0) + 1
                return fn(x)
            return wrapped
        problem = _counts_problem(prior)
        h, d = problem.blur, problem.dictionary
        problem = replace(
            problem,
            blur=LinearOperator(h.in_dim, h.out_dim, counted("blur", h.apply),
                                counted("blur", h.adjoint), h.spectral_bound),
            dictionary=FrameDictionary(
                d.width, d.height, d.coeff_dim, counted("synthesis", d.synthesis),
                counted("analysis", d.analysis), d.c1, d.c2, d.tight))
        probe = {"blur": 3, "synthesis": 1, "analysis": 2}
        res = deconvolve(problem)
        assert calls == probe
        calls.clear()
        objective(problem, res.state.x)
        assert calls == probe

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
        # the same iterate, recomputed from x through the maps. After the
        # loop the solver recomputes K x itself and scores the last entry
        # again from those images.
        pairs = []
        exact = splitting_module.objective_value

        def scored(terms, x, images=None):
            value = exact(terms, x, images)
            pairs.append((value, exact(terms, x)))
            return value
        monkeypatch.setattr(splitting_module, "objective_value", scored)
        res = deconvolve(_counts_problem(prior, max_outer=200, spec=spec))
        carried, want = np.array(pairs).T
        assert carried.size == res.state.iterations + 1 == 201
        assert np.array_equal(np.isfinite(carried), np.isfinite(want))
        finite = np.isfinite(want)
        assert np.all(np.abs(carried[finite] - want[finite])
                      <= 1e-14 * np.abs(want[finite]))
        assert res.state.objectives[:-1] == list(carried[:-2])
        assert res.state.objectives[-1] == carried[-1] == want[-1] == want[-2]

    @MAPS
    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_bits_match_the_unbuffered_recurrence(self, prior, spec, psf):
        # The solver writes into arrays it allocates once per solve; the
        # rollout allocates every array afresh, as the loop once did.
        self._same_bits(_counts_problem(prior, max_outer=4, spec=spec, psf=psf))

    @MAPS
    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_relaxed_bits_match_the_unbuffered_recurrence(self, prior, spec,
                                                          psf):
        # theta != 1 runs the relaxed update, in the solver and the rollout.
        self._same_bits(_counts_problem(prior, max_outer=4, spec=spec, psf=psf,
                                        theta=1.5))

    @staticmethod
    def _same_bits(problem):
        res = deconvolve(problem)
        restored, objectives, changes, duals = _unbuffered_rollout(problem)
        assert res.restored.data.tobytes() == restored.tobytes()
        assert np.array(res.state.objectives).tobytes() == \
            np.array(objectives).tobytes()
        assert np.array(res.state.relative_changes).tobytes() == \
            np.array(changes).tobytes()
        assert [u.tobytes() for u in res.state.aux] == \
            [u.tobytes() for u in duals]

    @MAPS
    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_theta_one_stays_near_the_relaxed_form(self, prior, spec, psf):
        # At theta = 1 the solver takes x~ and u~ as its new iterates; the
        # relaxed form x + (x~ - x), u + (u~ - u) differs by round-off.
        problem = replace(_counts_problem(prior, spec=spec, psf=psf),
                          splitting=SplittingConfig(max_outer=3000, tol=3e-4))
        res = deconvolve(problem)
        restored, _, changes, _ = _unbuffered_rollout(problem, relaxed=True)
        assert res.converged
        assert res.state.iterations == len(changes)
        peak = float(np.max(restored))
        assert np.max(np.abs(res.restored.data - restored)) <= 1e-12 * peak

    @MAPS
    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_rank_one_maps_match_the_probed_composition(self, prior, spec, psf,
                                                        monkeypatch):
        # The solver's maps as they were: H Phi probed as one operator and
        # every multiplier read as a gain matrix (oracles.GainMatrixStack).
        problem = _counts_problem(prior, spec=spec, psf=psf)
        # Each case converges, after 22 to 1 621 iterations.
        problem = replace(problem, splitting=SplittingConfig(
            max_outer=3000, tol=3e-4))
        factored = deconvolve(problem)

        def probed_whole(outer, inner):
            plain = LinearOperator(inner.in_dim, outer.out_dim,
                                   lambda x: outer.apply(inner.apply(x)),
                                   lambda u: inner.adjoint(outer.adjoint(u)),
                                   outer.spectral_bound * inner.spectral_bound)
            form = fourier_form(plain, 16, 16)
            return plain if form is None else form
        monkeypatch.setattr(deconv_module, "compose", probed_whole)
        monkeypatch.setattr(splitting_module, "MapStack", GainMatrixStack)
        probed = deconvolve(problem)
        assert factored.converged and probed.converged
        assert factored.state.iterations == probed.state.iterations
        peak = float(np.max(probed.restored.data))
        assert np.max(np.abs(factored.restored.data - probed.restored.data)) \
            <= 1e-12 * peak

    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_solver_skips_the_per_call_count_scan(self, prior, monkeypatch):
        # DeconvProblem validates the counts; the proxes must not rescan.
        # Every count check runs operators.all_counts, so the problem is
        # built before the predicate is patched.
        problem = _counts_problem(prior)
        scans = []
        monkeypatch.setattr(operators_module, "all_counts",
                            lambda y: scans.append(y.size) or True)
        deconvolve(problem)
        assert scans == []


class TestOneMapStack:
    """A solve applies its maps through one ``MapStack``, and returns their
    images at the last iterate as ``state.images``."""

    SPECS = ["starlet:levels=2", "haar:levels=2",
             "union(starlet:levels=2,dirac)"]

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_images_are_the_maps_at_the_last_iterate(self, prior, spec):
        problem = _counts_problem(prior, max_outer=20, spec=spec)
        res = deconvolve(problem)
        terms, _ = deconv_module._terms(problem)
        maps = MapStack([term.op for term in terms if term.op is not None])
        want = maps.split(maps.apply(res.state.x))
        assert [k.tobytes() for k in res.state.images] == \
            [k.tobytes() for k in want]

    @pytest.mark.parametrize("spec", SPECS)
    def test_the_synthesis_image_is_the_positivity_map_image(self, spec):
        res = deconvolve(_counts_problem("synthesis", max_outer=20, spec=spec))
        assert res.restored.data.tobytes() == \
            np.maximum(res.state.images[-1], 0.0).tobytes()

    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_one_stack_per_solve(self, prior, monkeypatch):
        built = []

        class Counted(MapStack):
            def __init__(self, ops):
                built.append(len(ops))
                super().__init__(ops)
        monkeypatch.setattr(splitting_module, "MapStack", Counted)
        deconvolve(_counts_problem(prior, max_outer=3))
        assert built == [2]

    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_both_priors_take_the_primal_prox_in_applys_hand(self, prior,
                                                             monkeypatch):
        # The primal prox, the l1 term's or the positivity's, acts entry by
        # entry, so each iteration's apply takes it in its hand. The first
        # and the last apply, which compute K x, take no hooks.
        problem = _counts_problem(prior, max_outer=3)
        terms, _ = deconv_module._terms(problem)
        assert all(term.separable for term in terms[1:])
        hands = []

        class Recorded(MapStack):
            def apply(self, x, out=None, fill=None, drain=None, hand=None):
                hands.append(hand)
                return super().apply(x, out, fill, drain, hand)
        monkeypatch.setattr(splitting_module, "MapStack", Recorded)
        assert deconvolve(problem).state.iterations == 3
        assert len(hands) == 5 and hands[0] is hands[-1] is None
        assert all(callable(hand) for hand in hands[1:-1])


class TestBlockedSolve:
    """A synthesis solve whose coefficients run in blocks of whole bands
    (``operators.BLOCK_BYTES`` patched to some 16 x 16 bands) against the
    same solve in one block: the iterates' and the objective trace's bits
    do not depend on the blocks. Only the change traces, whose dots the
    loop sums block by block, may round differently."""

    @staticmethod
    def _solve(problem, monkeypatch, bands=None):
        """The result and the stack's block counts, with ``bands`` 16 x 16
        bands per block, or the default budget."""
        built = []

        class Recorded(MapStack):
            def __init__(self, ops):
                super().__init__(ops)
                built.append(len(self.blocks))
        with monkeypatch.context() as patched:
            patched.setattr(splitting_module, "MapStack", Recorded)
            if bands:
                patched.setattr(operators_module, "BLOCK_BYTES", 256 * 8 * bands)
            res = deconvolve(problem)
        return res, built

    @staticmethod
    def _assert_same_run(blocked, whole, iterations):
        assert blocked.restored.data.tobytes() == whole.restored.data.tobytes()
        assert blocked.coefficients.tobytes() == whole.coefficients.tobytes()
        for got, want in ((blocked.state.aux, whole.state.aux),
                          (blocked.state.images, whole.state.images)):
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert blocked.state.iterations == whole.state.iterations == iterations
        got = np.array(blocked.state.objectives)
        want = np.array(whole.state.objectives)
        assert got.shape == want.shape == (iterations,)
        assert got.tobytes() == want.tobytes()
        for trace in ("relative_changes", "primal_changes", "dual_changes"):
            got = np.array(getattr(blocked.state, trace))
            want = np.array(getattr(whole.state, trace))
            assert got.shape == want.shape == (iterations,)
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), trace

    @pytest.mark.parametrize("theta", [1.0, 1.5])
    @pytest.mark.parametrize("levels", [2, 3])
    def test_blocked_iterates_are_the_one_block_bits(self, levels, theta,
                                                     monkeypatch):
        problem = _counts_problem("synthesis", levels=levels, max_outer=40,
                                  theta=theta)
        whole, one = self._solve(problem, monkeypatch)
        blocked, bands = self._solve(problem, monkeypatch, bands=1)
        assert one == [1] and bands == [levels + 1]
        self._assert_same_run(blocked, whole, 40)

    @pytest.mark.parametrize("theta", [1.0, 1.5])
    @pytest.mark.parametrize("bands", [1, 2, 3])
    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_blocks_of_one_to_three_bands_give_the_one_block_bits(
            self, prior, bands, theta, monkeypatch):
        # starlet:levels=3 has four bands: blocks of 1, 1, 1, 1 or 2, 2 or
        # 3, 1 under the synthesis prior, whose l1 prox runs per block. The
        # analysis prior's variable, one image, is one block whatever the
        # budget, so the change traces keep their bits there too.
        problem = _counts_problem(prior, levels=3, max_outer=30, theta=theta)
        whole, one = self._solve(problem, monkeypatch)
        blocked, built = self._solve(problem, monkeypatch, bands=bands)
        assert one == [1]
        assert built == [{1: 4, 2: 2, 3: 2}[bands] if prior == "synthesis" else 1]
        self._assert_same_run(blocked, whole, 30)
        if prior == "analysis":
            assert blocked.state.relative_changes == whole.state.relative_changes

    @pytest.mark.parametrize("theta", [1.0, 1.5])
    def test_a_non_separable_primal_prox_gets_the_whole_vector(self, theta,
                                                               monkeypatch):
        # The same l1 term, not declared separable: its prox runs once per
        # iteration on the whole coefficient vector, before apply; the
        # iterates and the objective trace keep their bits, whether the
        # prox returns a new array, as a user term's would, or writes over
        # the point it is given. On two threads (blocks 2 and 3 on the
        # worker) the prox runs as often and every bit is the one thread's.
        problem = _counts_problem("synthesis", levels=3, max_outer=20,
                                  theta=theta)
        separable, _ = self._solve(problem, monkeypatch, bands=1)
        terms_of = deconv_module._terms
        for in_place in (False, True):
            sizes = []

            def whole_terms(p):
                terms, cfg = terms_of(p)
                prox = terms[1].prox

                def recorded(v, s):
                    sizes.append(v.size)
                    return prox(v if in_place else v.copy(), s)
                terms[1] = replace(terms[1], prox=recorded, separable=False)
                return terms, cfg
            monkeypatch.setattr(deconv_module, "_terms", whole_terms)
            whole, built = self._solve(problem, monkeypatch, bands=1)
            assert built == [4]
            assert sizes == [4 * 256] * 20
            self._assert_same_run(separable, whole, 20)
            sizes.clear()
            split, two = TestThreadedSolve._solve(problem, monkeypatch, bands=1)
            assert two == 2 and sizes == [4 * 256] * 20
            TestThreadedSolve._assert_same_bits(split, whole)

    @pytest.mark.parametrize("theta", [1.0, 1.5])
    @pytest.mark.parametrize("levels", [2, 3])
    def test_a_run_stopped_by_tol_returns_its_iterate(self, levels, theta,
                                                      monkeypatch):
        # The last iteration's adjoint already took the next gradient step
        # into a spent buffer; the run must return the iterate it stopped
        # at, as a run capped at that iteration does.
        problem = _counts_problem("synthesis", levels=levels, theta=theta)
        stopped, _ = self._solve(replace(problem, splitting=replace(
            problem.splitting, max_outer=3000, tol=1e-3)), monkeypatch, bands=1)
        assert stopped.converged and stopped.state.iterations < 3000
        capped, _ = self._solve(replace(problem, splitting=replace(
            problem.splitting, max_outer=stopped.state.iterations)),
            monkeypatch, bands=1)
        assert stopped.state.x.tobytes() == capped.state.x.tobytes()
        assert stopped.restored.data.tobytes() == capped.restored.data.tobytes()
        assert [a.tobytes() for a in stopped.state.aux] == \
            [a.tobytes() for a in capped.state.aux]

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("band", [0, 1, 2])
    def test_a_non_finite_block_stops_before_its_transform(self, band, bad,
                                                           monkeypatch):
        # Past its block's transform an infinite coefficient makes invalid
        # values, which numpy warns of, and warnings are errors here: each
        # block's check must come before its forward transform. The l1
        # prox runs per block, three per iteration; the third iteration's
        # call on ``band`` is poisoned, and no transform follows it.
        problem = _counts_problem("synthesis", max_outer=5)
        threshold, calls = deconv_module.soft_threshold, []
        transform, transforms, poisoned_at = operators_module._rfft2, [], []

        def poisoned(v, t, **kwargs):
            result = threshold(v, t, **kwargs)
            calls.append(None)
            if len(calls) == 2 * 3 + band + 1:
                result[7] = bad
                poisoned_at.append(len(transforms))
            return result

        def counted(*args, **kwargs):
            transforms.append(None)
            return transform(*args, **kwargs)
        monkeypatch.setattr(deconv_module, "soft_threshold", poisoned)
        monkeypatch.setattr(operators_module, "_rfft2", counted)
        with pytest.raises(NonFiniteIterateError) as err:
            self._solve(problem, monkeypatch, bands=1)
        assert err.value.label == "sparsity" and err.value.iteration == 2
        assert poisoned_at == [len(transforms)]


class TestThreadedSolve:
    """A synthesis solve whose map stack runs its upper blocks on a worker
    thread (``operators.THREAD_PIXELS`` patched to a 16 x 16 band, and two
    CPUs) against the same blocks on one thread: every bit, trace and
    metric is the same, the hooks run on the caller's thread only, and no
    thread outlives the solve."""

    @staticmethod
    def _solve(problem, monkeypatch, bands=None, threaded=True):
        """The result and the threads that ran forward transforms, with
        ``bands`` 16 x 16 bands per block (or the default budget), on two
        threads or on one."""
        transform, seen = operators_module._rfft2, set()

        def recorded(*args, **kwargs):
            seen.add(threading.get_ident())
            return transform(*args, **kwargs)
        with monkeypatch.context() as patched:
            patched.setattr(operators_module, "_rfft2", recorded)
            patched.setattr(operators_module, "_cpus", lambda: 2 if threaded else 1)
            if bands:
                patched.setattr(operators_module, "BLOCK_BYTES", 256 * 8 * bands)
                patched.setattr(operators_module, "THREAD_PIXELS", 256)
            before = threading.active_count()
            try:
                res = deconvolve(problem)
            finally:
                assert threading.active_count() == before
        return res, len(seen)

    @staticmethod
    def _assert_same_bits(got, want):
        for a, b in ((got.restored.data, want.restored.data),
                     (got.coefficients, want.coefficients), (got.state.x, want.state.x)):
            assert a.tobytes() == b.tobytes()
        for a, b in ((got.state.aux, want.state.aux),
                     (got.state.images, want.state.images)):
            assert [p.tobytes() for p in a] == [p.tobytes() for p in b]
        for trace in ("relative_changes", "primal_changes", "dual_changes",
                      "objectives"):
            assert np.array(getattr(got.state, trace)).tobytes() == \
                np.array(getattr(want.state, trace)).tobytes(), trace
        text = [json.dumps(result_metrics(r, include_timing=False), sort_keys=True)
                for r in (got, want)]
        assert text[0] == text[1]
        assert got.clip_mass == want.clip_mass

    @pytest.mark.parametrize("theta", [1.0, 1.5])
    @pytest.mark.parametrize("psf", ["box", "skewed"])
    @pytest.mark.parametrize("levels, bands", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
    def test_two_threads_give_the_one_thread_bits(self, levels, bands, psf, theta,
                                                  monkeypatch):
        # starlet:levels=2 has 3 bands (blocks of 1, 1, 1 or 2, 1) and
        # levels=3 has 4 (1, 1, 1, 1 or 2, 2 or 3, 1); the skewed kernel's
        # gains are complex, so the adjoint's output gains are conjugated.
        problem = _counts_problem("synthesis", levels=levels, max_outer=30,
                                  theta=theta, psf=SKEWED if psf == "skewed" else MA3)
        serial, one = self._solve(problem, monkeypatch, bands, threaded=False)
        threaded, two = self._solve(problem, monkeypatch, bands)
        assert (one, two) == (1, 2)
        assert threaded.state.iterations == 30
        self._assert_same_bits(threaded, serial)

    def test_a_256_solve_runs_on_two_threads_with_the_one_thread_bits(
            self, monkeypatch):
        # The shipped constants: 256 x 256 bands, one per block.
        n = 256
        problem = DeconvProblem(
            counts=Image(n, n, np.random.default_rng(1).poisson(
                20.0, n * n).astype(np.float64)),
            blur=make_circular_convolution(MA3, n, n),
            dictionary=make_starlet(n, n, levels=3), gamma=0.2,
            splitting=SplittingConfig(max_outer=3, tol=0.0))
        serial, one = self._solve(problem, monkeypatch, threaded=False)
        threaded, two = self._solve(problem, monkeypatch)
        assert (one, two) == (1, 2)
        self._assert_same_bits(threaded, serial)

    def test_a_256_objective_trace_is_the_one_block_trace(self, monkeypatch):
        # The shipped four blocks of one 256 x 256 band, two of them on the
        # worker, against one block of all four bands. Summed block by
        # block, this scene's l1 value rounded differently at the second
        # entry; taken on the whole iterate, every entry keeps its bits.
        n = 256
        truth = Image.from_2d(np.kron(scene64(), np.ones((4, 4))))
        blur = make_circular_convolution(MA3, n, n)
        problem = DeconvProblem(
            counts=simulate(truth, blur, 30.0, 1), blur=blur,
            dictionary=make_starlet(n, n, levels=3), gamma=0.2,
            splitting=SplittingConfig(max_outer=3, tol=0.0))
        blocked, two = self._solve(problem, monkeypatch)
        whole, one = self._solve(problem, monkeypatch, bands=4 * 256,
                                 threaded=False)
        assert (one, two) == (1, 2)
        TestBlockedSolve._assert_same_run(blocked, whole, 3)

    def test_the_hooks_run_on_the_callers_thread(self, monkeypatch):
        problem = _counts_problem("synthesis", levels=3, max_outer=5)
        callers = []
        for name in ("soft_threshold", "project_positive", "eval_poisson"):
            def hooked(*args, _original=getattr(deconv_module, name), **kwargs):
                callers.append(threading.get_ident())
                return _original(*args, **kwargs)
            monkeypatch.setattr(deconv_module, name, hooked)
        _, two = self._solve(problem, monkeypatch, bands=1)
        assert two == 2
        # Four blocks' proxes, one positivity step and one fit per
        # iteration, and the exact last objective entry's fit.
        assert len(callers) == 5 * (4 + 1 + 1) + 1
        assert set(callers) == {threading.get_ident()}

    def test_every_term_callback_runs_on_the_callers_thread(self, monkeypatch):
        # The ProxTerm contract: prox, value and conj of every term, the
        # separable l1 term's on the worker's blocks too.
        problem = _counts_problem("synthesis", levels=3, max_outer=5)
        terms_of, called = deconv_module._terms, []

        def recorded(name, call):
            def wrapped(*args):
                called.append((name, threading.get_ident()))
                return call(*args)
            return wrapped

        def wrapped_terms(p):
            terms, cfg = terms_of(p)
            return [replace(term, **{name: recorded((term.label, name), call)
                                     for name in ("prox", "value", "conj")
                                     if (call := getattr(term, name)) is not None})
                    for term in terms], cfg
        monkeypatch.setattr(deconv_module, "_terms", wrapped_terms)
        _, two = self._solve(problem, monkeypatch, bands=1)
        assert two == 2
        names = {name for name, _ in called}
        assert ("sparsity", "prox") in names and ("sparsity", "value") in names
        assert {ident for _, ident in called} == {threading.get_ident()}

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("band", [0, 1, 2, 3])
    def test_a_non_finite_block_on_either_thread_stops_before_its_transform(
            self, band, bad, monkeypatch):
        # Four blocks of one band: 0 and 1 run on the calling thread, 2 and
        # 3 on the worker. The third iteration's l1 prox of ``band`` is
        # poisoned; the error names the term and that iteration, and no
        # transform reads a non-finite image.
        problem = _counts_problem("synthesis", levels=3, max_outer=5)
        threshold, calls = deconv_module.soft_threshold, []
        transform, finite = operators_module._rfft2, []

        def poisoned(v, t, **kwargs):
            result = threshold(v, t, **kwargs)
            block = (v.ctypes.data - v.base.ctypes.data) // v.nbytes
            calls.append(block)
            if block == band and calls.count(block) == 3:
                result[7] = bad
            return result

        def checked(images, *args, **kwargs):
            finite.append(bool(np.isfinite(images).all()))
            return transform(images, *args, **kwargs)
        monkeypatch.setattr(deconv_module, "soft_threshold", poisoned)
        monkeypatch.setattr(operators_module, "_rfft2", checked)
        with pytest.raises(NonFiniteIterateError) as err:
            self._solve(problem, monkeypatch, bands=1)
        assert err.value.label == "sparsity" and err.value.iteration == 2
        assert calls.count(band) == 3
        assert finite and all(finite)

    @pytest.mark.parametrize("term", ["data-fidelity", "positivity", "both"])
    def test_a_non_finite_dual_image_on_either_thread_stops_before_its_transform(
            self, term, monkeypatch):
        # Each dual image goes to the worker once its step has returned on
        # the calling thread, the positivity's (the second image) first.
        # The third iteration's step of ``term`` is poisoned: the error
        # names the term and that iteration, as on one thread, and no
        # transform reads a non-finite image. With both steps poisoned, one
        # thread checks the whole dual stack and names the first term,
        # two threads check the positivity's image first and name it.
        problem = _counts_problem("synthesis", levels=3, max_outer=5)
        conj_poisson, positive = deconv_module._conj_poisson, deconv_module.project_positive
        forward, inverse = operators_module._rfft2, operators_module._irfft2
        counts, finite = {"data-fidelity": [], "positivity": []}, []

        def poisoned(result, label):
            calls = counts[label]
            calls.append(None)
            if len(calls) == 3:
                result[7] = math.nan
            return result

        def poisoned_conj(y):
            step = conj_poisson(y)

            def poisoned_step(a, sigma):
                step(a, sigma)
                poisoned(a, "data-fidelity")
            return poisoned_step

        def checked(transform):
            def call(images, *args, **kwargs):
                finite.append(bool(np.isfinite(images).all()))
                return transform(images, *args, **kwargs)
            return call
        if term != "positivity":
            monkeypatch.setattr(deconv_module, "_conj_poisson", poisoned_conj)
        if term != "data-fidelity":
            monkeypatch.setattr(deconv_module, "project_positive",
                                lambda x: poisoned(positive(x), "positivity"))
        monkeypatch.setattr(operators_module, "_rfft2", checked(forward))
        monkeypatch.setattr(operators_module, "_irfft2", checked(inverse))
        raised = []
        for threaded in (False, True):
            for calls in counts.values():
                calls.clear()
            with pytest.raises(NonFiniteIterateError) as err:
                self._solve(problem, monkeypatch, bands=1, threaded=threaded)
            raised.append((err.value.label, err.value.iteration))
        assert raised == ([("data-fidelity", 2), ("positivity", 2)] if term == "both"
                          else [(term, 2)] * 2)
        assert finite and all(finite)

    def test_no_worker_job_runs_during_the_positivity_step(self, monkeypatch):
        # The benchmark times its reference tick inside project_positive:
        # worker work that overlapped it would slow the tick, and the
        # tick's time is subtracted from the solve's. The step here sleeps
        # a millisecond, releasing the GIL as the tick's FFTs do, so that a
        # queued job would run then.
        problem = _counts_problem("synthesis", levels=3, max_outer=5)
        put, positive = operators_module._Worker.put, deconv_module.project_positive
        jobs, steps = [], []

        def timed(call, intervals, pause=0.0):
            def run(*args):
                start = time.perf_counter()
                try:
                    time.sleep(pause)
                    return call(*args)
                finally:
                    intervals.append((start, time.perf_counter(), threading.get_ident()))
            return run
        monkeypatch.setattr(operators_module._Worker, "put",
                            lambda worker, job: put(worker, timed(job, jobs)))
        monkeypatch.setattr(deconv_module, "project_positive",
                            timed(positive, steps, 1e-3))
        _, two = self._solve(problem, monkeypatch, bands=1)
        assert two == 2
        here = threading.get_ident()
        assert len(steps) == 5 and {ident for *_, ident in steps} == {here}
        assert jobs and here not in {ident for *_, ident in jobs}
        for lo, hi, _ in steps:
            assert all(end <= lo or hi <= start for start, end, _ in jobs)

    def test_a_solve_that_raises_joins_its_thread(self, monkeypatch):
        # An error on the solve's own thread, in the dual step between the
        # two map calls: the worker is parked then, and is joined.
        problem = _counts_problem("synthesis", levels=3, max_outer=5)

        def interrupted(x):
            raise KeyboardInterrupt
        monkeypatch.setattr(deconv_module, "project_positive", interrupted)
        with pytest.raises(KeyboardInterrupt):
            self._solve(problem, monkeypatch, bands=1)


class TestTermValues:
    def test_l1_value_allocates_no_coefficient_array(self):
        # |c| goes into the l1 prox's output array, free between iterations.
        problem = DeconvProblem(counts=Image(64, 64, np.ones(4096)),
                                blur=identity_blur(64, 64),
                                dictionary=make_starlet(64, 64, levels=3),
                                gamma=0.5)
        sparsity = deconv_module._terms(problem)[0][1]
        c = np.random.default_rng(3).standard_normal(problem.dictionary.coeff_dim)
        assert _peak_growth(lambda: sparsity.value(c)) < c.nbytes
        assert sparsity.value(c) == 0.5 * float(np.abs(c).sum())

    def test_l1_prox_and_value_on_a_block_allocate_nothing(self):
        # The solver hands the separable l1 term one block of bands at a
        # time: its prox thresholds the block in place, clipping into the
        # head of the term's kept array, and its value sums |block| there.
        problem = DeconvProblem(counts=Image(64, 64, np.ones(4096)),
                                blur=identity_blur(64, 64),
                                dictionary=make_starlet(64, 64, levels=3),
                                gamma=0.5)
        sparsity = deconv_module._terms(problem)[0][1]
        assert sparsity.separable
        c = np.random.default_rng(3).standard_normal(problem.dictionary.coeff_dim)
        want = soft_threshold(c, 2.0 * 0.5)
        block = c[4096:8192]
        returned = []
        grown = _peak_growth(lambda: returned.append(sparsity.prox(block, 2.0)))
        assert grown < block.nbytes // 4
        assert returned[0] is block
        assert c[4096:8192].tobytes() == want[4096:8192].tobytes()
        assert _peak_growth(lambda: sparsity.value(block)) < block.nbytes // 4
        assert sparsity.value(block) == 0.5 * float(np.abs(block).sum())


class TestIterationAllocations:
    """Iterations 4 to 6 of a 64x64 starlet:levels=2 solve: the peak of
    traced memory above what the loop holds after iteration 3, the map
    stack's own calls included. Two steps allocate one image per
    iteration each, and their images never live at once: the positivity
    step (``project_positive``, which a benchmark hook rebinds; ROADMAP
    item 13) and the objective trace's fit, whose ``eval_poisson`` takes
    ``np.log(eta)`` into a new array. A log buffer kept per solve measured
    no faster (89-94 us per call against 85-91 us with the temporary at
    256^2, 6.9 against 6.5 us at 64^2), so the fit keeps its temporary.
    Everything else stays below a quarter image: numpy's FFT passes keep
    about 1.4 KB once warm, and the map stack's gains are complex and
    filter one band at a time, which needs neither numpy's casting buffer
    nor its broadcast buffer, each about product-sized (a 3-band product is
    101 KB here). A prox or a check that allocates a temporary again
    reaches another image."""

    @staticmethod
    def _problem(prior):
        n = 64
        return DeconvProblem(
            counts=Image(n, n, np.random.default_rng(0).poisson(
                20.0, n * n).astype(np.float64)),
            blur=make_circular_convolution(MA3, n, n),
            dictionary=make_starlet(n, n, levels=2), gamma=0.2, prior=prior,
            splitting=SplittingConfig(max_outer=6, tol=0.0))

    @staticmethod
    def _growth(prior, monkeypatch, budget=None):
        """The growth, and the image's bytes; a ``budget`` patched into
        ``operators.BLOCK_BYTES`` before the solve plans its blocks."""
        if budget is not None:
            monkeypatch.setattr(operators_module, "BLOCK_BYTES", budget)
        problem, n = TestIterationAllocations._problem(prior), 64
        window = []
        exact = splitting_module.objective_value

        def scored(terms, x, images=None):
            value = exact(terms, x, images)
            window.append(tracemalloc.get_traced_memory())
            if len(window) == 3:
                tracemalloc.reset_peak()
            return value
        monkeypatch.setattr(splitting_module, "objective_value", scored)
        tracemalloc.start()
        try:
            deconvolve(problem)
        finally:
            tracemalloc.stop()
        assert len(window) == 7  # six iterations and the exact last entry
        return window[5][1] - window[2][0], n * n * 8

    def test_a_synthesis_iteration_allocates_no_primal_sized_array(
            self, monkeypatch):
        grown, image = self._growth("synthesis", monkeypatch)
        assert grown < image + image // 4

    def test_a_blocked_synthesis_iteration_allocates_no_band_sized_array(
            self, monkeypatch):
        # One band per block, so a band is an image here: the three bands
        # run through one band of spectra. The iteration keeps the bound
        # above, and the stack's calls that run the loop's primal steps
        # block by block (fill and drain) allocate less than a quarter band
        # each once warm. The adjoint's dual steps and trace (its hand and
        # meanwhile), which allocate the positivity's and the fit's images,
        # run outside the measured call, where the one-thread adjoint runs
        # them.
        grown, image = self._growth("synthesis", monkeypatch, budget=64 * 64 * 8)
        assert grown < image + image // 4
        peaks = []

        def measured(call, *args):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = call(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return result

        class Measured(MapStack):
            def apply(self, x, out=None, fill=None, drain=None, hand=None):
                return measured(super().apply, x, out, fill, drain, hand)

            def adjoint(self, u, out=None, drain=None, hand=None, meanwhile=None):
                hand(slice(0, self.out_dim))
                meanwhile()
                return measured(super().adjoint, u, out, drain)
        monkeypatch.setattr(splitting_module, "MapStack", Measured)
        tracemalloc.start()
        try:
            deconvolve(self._problem("synthesis"))
        finally:
            tracemalloc.stop()
        # The first apply, an apply and an adjoint per iteration, the last
        # apply; the first iteration warms the FFT passes.
        assert len(peaks) == 14
        assert max(peaks[3:]) < image // 4

    def test_an_analysis_iteration_allocates_only_the_positivity_image(
            self, monkeypatch):
        grown, image = self._growth("analysis", monkeypatch)
        assert grown < image + image // 4


def _poisson_conj_reference(a, sigma, y):
    """(a + 1 - sqrt((a - 1)^2 + 4 sigma y)) / 2 in 60-digit decimals, from
    the floats' exact values, rounded once to a float."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        a, sy = decimal.Decimal(a), decimal.Decimal(sigma) * decimal.Decimal(y)
        root = ((a - 1) ** 2 + 4 * sy).sqrt()
        return float((a + 1 - root) / 2)


class TestConjugateSteps:
    """The dual steps prox_{sigma f*} that deconvolve's terms carry in
    closed form, written into their argument."""

    def _terms(self, counts):
        n = len(counts)
        problem = DeconvProblem(counts=Image.from_2d([counts]),
                                blur=identity_blur(n, 1),
                                dictionary=make_dirac(n, 1), gamma=0.5)
        return deconv_module._terms(problem)[0]

    @pytest.mark.parametrize("sigma", [2.0 ** -10, 0.25, 4.0])
    def test_poisson_step_at_the_domain_edge(self, sigma):
        # sigma is a power of 2, so sigma y and a - sigma y are exact, and
        # the step holds a few ulps where the textbook (a + 1 - root) / 2
        # cancels (a >> 1, and a next to sigma y) and where the denominator
        # of 2 (a - sigma y) / (a + 1 + root) does (a << -1).
        pairs = []
        for y in (1.0, 6.0, 1000.0):
            sy = sigma * y
            near = [sy + k * np.spacing(sy) for k in (-100, -3, -1, 0, 1, 3, 100)]
            pairs += [(a, y) for a in (-1e8, -1e4, -1.0, 0.0, 0.5, 1.0, 2.0,
                                       1e4, 1e8, *near)]
        zero = (-1e8, -3.0, -0.0, 0.0, 0.5, 1.0, 1.0 + 2.0 ** -52, 2.0, 1e8)
        pairs += [(a, 0.0) for a in zero]
        a, y = (np.array(column) for column in zip(*pairs))
        fidelity = self._terms(list(y))[0]
        got = a.copy()
        fidelity.conj(got, sigma)
        want = np.array([_poisson_conj_reference(ai, sigma, yi)
                         for ai, yi in pairs])
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(np.abs(want)))
        assert np.all(got[y > 0.0] < 1.0)
        assert np.array_equal(got[y == 0.0], np.minimum(a[y == 0.0], 1.0))

    def test_poisson_step_follows_a_changing_sigma(self):
        # The step keeps sigma y and its multiples between calls; each call
        # must write what a freshly built term writes for its sigma. The a
        # include |a - 1| next to where its square overflows (about 1.34e154)
        # or where a itself is subnormal or the largest float.
        big, top = 1.34e154, np.finfo(np.float64).max
        edges = [1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52, 5e-324, -5e-324, 2.2e-308,
                 big, -big, 2.0 * big, -2.0 * big, 1e300, top, -top]
        a = np.array(edges * 3 + [0.5, 3.0, -7.0])
        y = np.array([0.0] * len(edges) + [1.0] * len(edges)
                     + [1000.0] * len(edges) + [2.0, 0.0, 5.0])
        kept = self._terms(list(y))[0].conj
        with np.errstate(over="ignore"):
            for sigma in (2.0 ** -10, 0.25, 4.0, 0.25):
                got, want = a.copy(), a.copy()
                kept(got, sigma)
                self._terms(list(y))[0].conj(want, sigma)
                assert got.tobytes() == want.tobytes()

    def test_l1_and_positivity_steps(self):
        _, sparsity, positivity = self._terms([1.0, 2.0, 0.0, 4.0])
        v = np.array([-3.0, -0.5, 0.25, 0.75])
        clipped, nonpositive = v.copy(), v.copy()
        sparsity.conj(clipped, 7.0)
        positivity.conj(nonpositive, 7.0)
        assert clipped.tolist() == [-0.5, -0.5, 0.25, 0.5]
        assert nonpositive.tolist() == [-3.0, -0.5, 0.0, 0.0]

    @MAPS
    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_closed_forms_match_moreau(self, prior, spec, psf, monkeypatch):
        problem = _counts_problem(prior, spec=spec, psf=psf)
        # Each case converges, after 22 to 1 621 iterations.
        problem = replace(problem, splitting=SplittingConfig(
            max_outer=3000, tol=3e-4))
        closed = deconvolve(problem)
        terms_of = deconv_module._terms

        def moreau_terms(p):
            terms, *rest = terms_of(p)
            return [replace(term, conj=None) for term in terms], *rest
        monkeypatch.setattr(deconv_module, "_terms", moreau_terms)
        moreau = deconvolve(problem)
        assert closed.converged and moreau.converged
        assert closed.state.iterations == moreau.state.iterations
        peak = float(np.max(moreau.restored.data))
        assert np.max(np.abs(closed.restored.data - moreau.restored.data)) \
            <= 1e-12 * peak


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
