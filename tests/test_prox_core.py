import math
import tracemalloc

import numpy as np
import pytest

from proxdeconv import (eval_poisson, grad_poisson, project_positive,
                        prox_poisson, soft_threshold)
from proxdeconv.errors import DimensionMismatchError, DomainError

from oracles import (fd_gradient, golden_section, max_vi_violation,
                     poisson_scalar, prox_objective_scalar)


class TestEvalPoisson:
    def test_unit_count_unit_intensity(self):
        assert eval_poisson([1.0], [1.0]) == pytest.approx(1.0, abs=1e-15)

    def test_zero_intensity_with_positive_count_is_infinite(self):
        assert eval_poisson([0.0], [1.0]) == math.inf

    def test_zero_count_linear_branch(self):
        assert eval_poisson([2.0], [0.0]) == pytest.approx(2.0, abs=1e-15)

    def test_empty_input_is_zero(self):
        assert eval_poisson([], []) == 0.0

    def test_zero_intensity_on_a_zero_count_is_finite(self):
        # The minimum is exactly 0, where the domain allows it.
        got = eval_poisson([0.0, 2.0], [0.0, 3.0])
        assert got == pytest.approx(2.0 - 3.0 * math.log(2.0), rel=1e-14)

    def test_matches_an_exactly_rounded_sum(self):
        # Every intensity positive, with zero and positive counts: the
        # value without a mask, against fsum of the same terms.
        rng = np.random.default_rng(7)
        eta = rng.uniform(0.01, 40.0, size=256 * 256)
        y = rng.poisson(eta).astype(np.float64)
        assert np.count_nonzero(y == 0.0) > 100
        want = math.fsum(np.concatenate([eta, -y * np.log(eta)]))
        assert eval_poisson(eta, y) == pytest.approx(want, rel=1e-12)

    def test_mixed_vector(self):
        # -3 log 2 + 2 for the first pixel, +5 for the second.
        got = eval_poisson([2.0, 5.0], [3.0, 0.0])
        assert got == pytest.approx(-3.0 * math.log(2.0) + 7.0, rel=1e-14)

    def test_negative_intensity_on_zero_count_is_infinite(self):
        assert eval_poisson([-0.1], [0.0]) == math.inf

    def test_infinite_intensity_is_infinite(self):
        # Without a RuntimeWarning, which the test configuration makes an
        # error: +inf on a zero count never reaches the log.
        assert eval_poisson([math.inf], [1.0]) == math.inf
        assert eval_poisson([math.inf, 1.0], [0.0, 2.0]) == math.inf

    def test_nan_intensity_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            eval_poisson([math.nan], [1.0])
        with pytest.raises(ValueError, match="NaN"):
            eval_poisson([1.0, math.nan], [0.0, 0.0])
        with pytest.raises(ValueError, match="NaN"):
            eval_poisson([2.0, math.nan], [1.0, 3.0])

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            eval_poisson([1.0], [1.5])
        with pytest.raises(ValueError):
            eval_poisson([1.0], [-1.0])
        with pytest.raises(DimensionMismatchError):
            eval_poisson([1.0, 2.0], [1.0])


class TestGradPoisson:
    def test_zero_at_the_counts(self):
        y = np.array([1.0, 4.0, 9.0])
        assert np.allclose(grad_poisson(y, y), np.zeros(3), atol=1e-15)

    def test_half_at_double_intensity(self):
        assert np.allclose(grad_poisson([2.0], [1.0]), [0.5], atol=1e-15)

    def test_zero_count_linear_branch(self):
        assert np.allclose(grad_poisson([5.0], [0.0]), [1.0], atol=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = 7
            y = rng.integers(0, 21, size=n).astype(float)
            eta = rng.uniform(0.1, 10.0, size=n)
            g = grad_poisson(eta, y)
            fd = fd_gradient(lambda e: eval_poisson(e, y), eta, step=1e-6)
            assert np.max(np.abs(g - fd)) <= 1e-6 * max(1.0, np.max(np.abs(g)))

    def test_domain_violation_reports_first_offender(self):
        with pytest.raises(DomainError) as err:
            grad_poisson([1.0, 0.0, -1.0], [1.0, 2.0, 3.0])
        assert err.value.index == 1


class TestProxPoisson:
    def test_golden_ratio_point(self):
        got = prox_poisson([0.0], 1.0, [1.0])
        expected = (-1.0 + math.sqrt(5.0)) / 2.0
        assert got[0] == pytest.approx(expected, abs=1e-12)
        # Function-value minimizers resolve the argmin only to ~sqrt(eps),
        # so the cross-check compares objective values, not locations.
        objective = prox_objective_scalar(
            lambda t: poisson_scalar(t, 1.0, 1.0), 0.0)
        oracle = golden_section(objective, 1e-14, 10.0)
        assert abs(objective(got[0]) - objective(oracle)) <= 1e-8

    def test_zero_count_positive_part(self):
        assert prox_poisson([2.0], 1.0, [0.0])[0] == pytest.approx(1.0, abs=1e-15)
        assert prox_poisson([0.5], 1.0, [0.0])[0] == pytest.approx(0.0, abs=1e-15)

    def test_fixed_point_at_the_count(self):
        assert prox_poisson([1.0], 1.0, [1.0])[0] == pytest.approx(1.0, abs=1e-14)

    def test_output_inside_the_domain(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-10.0, 10.0, size=200)
        y = rng.integers(0, 21, size=200).astype(float)
        beta = 0.7
        p = prox_poisson(x, beta, y)
        assert np.all(p >= 0.0)
        assert np.all(p[y > 0] > 0.0)
        assert np.allclose(p[y == 0], np.maximum(x[y == 0] - beta, 0.0), atol=1e-12)

    def test_beta_validated(self):
        for beta in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="beta"):
                prox_poisson([1.0], beta, [1.0])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_counts_rejected(self, bad):
        # An infinite count would make the root inf - inf = nan.
        with pytest.raises(ValueError):
            prox_poisson([1.0], 1.0, [bad])

    @pytest.mark.parametrize("x", [-1e8, -1e9])
    def test_large_negative_input_keeps_the_domain(self, x):
        # d = x - beta << 0: the textbook root (d + sqrt(d^2 + 4 beta y)) / 2
        # cancels, while its conjugate 2 beta y / (sqrt(d^2 + 4 beta y) - d)
        # is accurate to rounding.
        beta, y = 1.0, 1.0
        d = x - beta
        expected = 2.0 * beta * y / (math.sqrt(d * d + 4.0 * beta * y) - d)
        got = prox_poisson([x], beta, [y])[0]
        assert got > 0.0
        assert got == pytest.approx(expected, rel=1e-12)
        assert eval_poisson([got], [y]) < math.inf


class TestProxPenalty:
    """The prox of the l1 penalty, soft-thresholding."""

    def test_soft_threshold_catalog(self):
        assert soft_threshold([2.5], 1.0)[0] == pytest.approx(1.5, abs=1e-15)
        assert soft_threshold([0.5], 1.0)[0] == 0.0
        assert soft_threshold([-3.0], 1.0)[0] == pytest.approx(-2.0, abs=1e-15)

    def test_soft_threshold_against_grid_refine_oracle(self):
        objective = prox_objective_scalar(lambda t: abs(t), 2.5)
        oracle = golden_section(objective, -5.0, 5.0)
        got = soft_threshold([2.5], 1.0)[0]
        assert abs(objective(got) - objective(oracle)) <= 1e-8

    def test_matches_closed_form_soft_threshold_exactly(self):
        # v - clip(v, -t, t) is the same map written without signs.
        rng = np.random.default_rng(2)
        v = rng.uniform(-5.0, 5.0, size=300)
        assert np.array_equal(soft_threshold(v, 0.8), v - np.clip(v, -0.8, 0.8))

    @pytest.mark.parametrize("threshold", [0.0, 0.7, math.inf])
    def test_bits_match_the_clip_form(self, threshold):
        # Normal samples with both zeros and ties at the threshold. The
        # sign-times-shrink form has the same values, but -0.0 where
        # -threshold <= v < 0.
        rng = np.random.default_rng(3)
        v = rng.standard_normal(20_000)
        v[::5], v[1::5], v[2::7], v[3::7] = 0.7, -0.7, 0.0, -0.0
        before = v.copy()
        want = v - np.clip(v, -threshold, threshold)
        assert soft_threshold(v, threshold).tobytes() == want.tobytes()
        assert v.tobytes() == before.tobytes()
        assert np.array_equal(
            want, np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0))

    def test_out_receives_the_same_bits(self):
        # Into a kept array, or over the values themselves.
        rng = np.random.default_rng(4)
        v = rng.standard_normal(1_000)
        v[::3], v[1::7] = -0.0, 0.0
        want = soft_threshold(v, 0.5)
        kept = np.empty_like(v)
        assert soft_threshold(v, 0.5, out=kept) is kept
        assert kept.tobytes() == want.tobytes()
        assert soft_threshold(v, 0.5, out=v) is v
        assert v.tobytes() == want.tobytes()

    def test_negative_threshold_rejected(self):
        for threshold in (-0.1, math.nan):
            with pytest.raises(ValueError, match="threshold"):
                soft_threshold([1.0], threshold)

    def test_infinite_threshold_gives_zero(self):
        assert np.array_equal(soft_threshold([1.0, -2.0], math.inf), [0.0, 0.0])

    def test_zero_threshold_is_identity(self):
        v = np.array([1.0, -2.0])
        assert np.array_equal(soft_threshold(v, 0.0), v)

    def test_shape_preserved(self):
        v = np.arange(6.0).reshape(2, 3)
        assert soft_threshold(v, 1.0).shape == (2, 3)


def _peak_growth(fn) -> int:
    """Bytes by which fn's peak of traced memory exceeds its start."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestAllocations:
    """The solver calls these once per iteration on full-size arrays, where
    each temporary is one more pass over memory."""

    def test_soft_threshold_into_out_allocates_no_array(self):
        v = np.random.default_rng(8).standard_normal(65_536)
        out = np.empty_like(v)
        assert _peak_growth(lambda: soft_threshold(v, 0.5, out=out)) < v.nbytes

    def test_soft_threshold_in_place_clips_into_scratch(self):
        # Into the values themselves, the clip needs an array of their
        # size: the scratch when given, else a new one. Either way the
        # result has the bits of a threshold into another array.
        v = np.random.default_rng(8).standard_normal(65_536)
        v[:3] = [-0.0, 0.5, -0.5]
        want = soft_threshold(v, 0.5)
        for scratch in (np.empty_like(v), None):
            got, returned = v.copy(), []
            grown = _peak_growth(lambda: returned.append(
                soft_threshold(got, 0.5, out=got, scratch=scratch)))
            assert returned[0] is got and got.tobytes() == want.tobytes()
            assert (grown < v.nbytes) == (scratch is not None)

    def test_eval_poisson_in_domain_allocates_one_array(self):
        # The log of the intensities, which shows that numpy's buffers are
        # traced, and no mask or gathered copy beside it; a few hundred
        # bytes go to Python objects.
        rng = np.random.default_rng(9)
        eta = rng.uniform(0.5, 40.0, size=65_536)
        y = rng.poisson(eta).astype(np.float64)
        grown = _peak_growth(lambda: eval_poisson(eta, y, check=False))
        assert eta.nbytes <= grown < eta.nbytes + 4096


class TestProjectPositive:
    def test_clips_negatives(self):
        assert np.array_equal(project_positive([-1.0, 2.0]), [0.0, 2.0])

    def test_idempotent_on_the_orthant(self):
        x = np.array([0.0, 3.5, 1.0])
        assert np.array_equal(project_positive(x), x)

    def test_single_negative(self):
        assert np.array_equal(project_positive([-5.0]), [0.0])


class TestProxProperties:
    """Variational-inequality and non-expansiveness certificates.

    For p = prox_f(x) the inequality <v - p, x - p> + f(p) <= f(v) must hold
    for every v; checking it over random probes certifies the prox without
    re-deriving any closed form.
    """

    def _cases(self):
        rng = np.random.default_rng(4)
        y = rng.integers(0, 11, size=10).astype(float)
        beta = 1.3
        yield (lambda x: prox_poisson(x, beta, y),
               lambda v: beta * sum(poisson_scalar(t, 1.0, yi)
                                    for t, yi in zip(v, y)),
               rng.uniform(-4.0, 8.0, size=10))
        gamma = 0.9
        yield (lambda x: soft_threshold(x, gamma),
               lambda v: gamma * float(np.sum(np.abs(v))),
               rng.uniform(-4.0, 4.0, size=10))
        yield (project_positive,
               lambda v: 0.0 if np.min(v) >= 0.0 else math.inf,
               rng.uniform(-3.0, 3.0, size=10))

    def test_variational_inequality(self):
        rng = np.random.default_rng(5)
        for prox, f, x in self._cases():
            p = prox(x)
            assert max_vi_violation(p, x, f, rng, probes=100) <= 1e-9

    def test_firm_nonexpansiveness_spot_check(self):
        rng = np.random.default_rng(6)
        for prox, _, x in self._cases():
            for _ in range(25):
                a = x + rng.standard_normal(x.size)
                b = x + rng.standard_normal(x.size)
                assert np.linalg.norm(prox(a) - prox(b)) <= \
                    np.linalg.norm(a - b) + 1e-12
