import math

import numpy as np
import pytest

from proxdeconv import (FrameDictionary, LinearOperator, frame_bounds,
                        make_dirac, make_haar_dwt, make_starlet, make_union,
                        parse_dictionary_spec)
from proxdeconv.errors import DimensionMismatchError

from oracles import analysis_matrix, b3_band_gains

SQRT2 = np.sqrt(2.0)


def _diag_pseudo_dictionary():
    """Gram diag(1, 9): a hand-rolled non-tight frame for bound checks."""
    d = np.array([1.0, 3.0])
    return FrameDictionary(width=2, height=1, coeff_dim=2,
                           synthesis=lambda c: d * c, analysis=lambda x: d * x,
                           c1=1.0, c2=9.0, tight=False)


ALL_DICTS = [
    ("dirac", lambda: make_dirac(8, 8)),
    ("haar", lambda: make_haar_dwt(8, 8, levels=2)),
    ("starlet", lambda: make_starlet(8, 8, levels=2)),
    ("union", lambda: make_union([make_dirac(8, 8), make_starlet(8, 8, levels=2)])),
]


class TestDirac:
    def test_analysis_is_identity(self):
        d = make_dirac(2, 1)
        assert np.array_equal(d.analysis([1.0, 2.0]), [1.0, 2.0])

    def test_round_trip_exact(self):
        d = make_dirac(4, 4)
        x = np.random.default_rng(0).standard_normal(16)
        assert np.array_equal(d.synthesis(d.analysis(x)), x)

    def test_declared_bounds(self):
        d = make_dirac(3, 3)
        assert (d.c1, d.c2, d.tight) == (1.0, 1.0, True)


class TestHaar:
    def test_length_two_pair(self):
        d = make_haar_dwt(2, 1, levels=1)
        a, b = 3.0, 5.0
        got = d.analysis([a, b])
        assert np.allclose(got, [(a + b) / SQRT2, (a - b) / SQRT2], atol=1e-14)

    def test_constant_image_concentrates_in_the_coarse_block(self):
        d = make_haar_dwt(8, 8, levels=3)
        x = np.full(64, 2.5)
        coeffs = d.analysis(x).reshape(8, 8)
        details = coeffs.copy()
        details[0, 0] = 0.0
        assert np.max(np.abs(details)) <= 1e-12
        assert coeffs[0, 0] ** 2 == pytest.approx(float(x @ x), rel=1e-12)

    def test_norm_preserved(self):
        d = make_haar_dwt(8, 8, levels=2)
        x = np.random.default_rng(1).standard_normal(64)
        assert np.linalg.norm(d.analysis(x)) == pytest.approx(
            np.linalg.norm(x), abs=1e-12)

    def test_orthonormal_both_ways(self):
        d = make_haar_dwt(4, 4, levels=2)
        rng = np.random.default_rng(2)
        x, c = rng.standard_normal(16), rng.standard_normal(16)
        assert np.allclose(d.synthesis(d.analysis(x)), x, atol=1e-12)
        assert np.allclose(d.analysis(d.synthesis(c)), c, atol=1e-12)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            make_haar_dwt(6, 8, levels=2)

    def test_one_dimensional_rasters_supported(self):
        d = make_haar_dwt(8, 1, levels=3)
        x = np.random.default_rng(3).standard_normal(8)
        assert np.allclose(d.synthesis(d.analysis(x)), x, atol=1e-12)


class TestStarlet:
    def test_constant_image_details_exactly_zero(self):
        d = make_starlet(16, 16, levels=3)
        coeffs = d.analysis(np.full(256, 4.0))
        details = coeffs[:3 * 256]
        assert np.all(details == 0.0)
        assert np.allclose(d.synthesis(coeffs), np.full(256, 4.0), atol=1e-12)

    def test_perfect_reconstruction(self):
        d = make_starlet(16, 16, levels=3)
        x = np.random.default_rng(4).standard_normal(256)
        assert np.max(np.abs(d.synthesis(d.analysis(x)) - x)) <= 1e-10

    def test_energy_preserved(self):
        d = make_starlet(16, 16, levels=2)
        x = np.random.default_rng(5).standard_normal(256)
        c = d.analysis(x)
        assert float(c @ c) == pytest.approx(float(x @ x), rel=1e-10)

    def test_dense_gram_is_the_identity(self):
        # Independent certificate on 8x8: stack the analysis matrix column
        # by column and check W^T W = I and that synthesis is its transpose.
        d = make_starlet(8, 8, levels=2)
        w = analysis_matrix(d.analysis, n=64, coeff_dim=d.coeff_dim)
        assert np.max(np.abs(w.T @ w - np.eye(64))) <= 1e-10
        s = analysis_matrix(d.synthesis, n=d.coeff_dim, coeff_dim=64)
        assert np.max(np.abs(s - w.T)) <= 1e-12

    def test_bands_match_first_principles_gains_on_cosines(self):
        # A cosine is an eigenvector of every band filter, so band j of the
        # transform must equal gain_j(k) times the input.
        h = w = 16
        levels = 3
        d = make_starlet(w, h, levels)
        gains = b3_band_gains(h, w, levels)
        yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
        for ky, kx in [(1, 0), (0, 3), (2, 5), (7, 7)]:
            x = np.cos(2.0 * np.pi * (ky * yy / h + kx * xx / w))
            coeffs = d.analysis(x.ravel())
            for j, g in enumerate(gains):
                band = coeffs[j * h * w:(j + 1) * h * w]
                assert np.allclose(band, g[ky, kx] * x.ravel(), atol=1e-10), \
                    f"band {j} at frequency ({ky}, {kx})"

    def test_too_small_raster_rejected(self):
        with pytest.raises(ValueError):
            make_starlet(4, 4, levels=3)


@pytest.mark.parametrize("maker", [make_haar_dwt, make_starlet])
@pytest.mark.parametrize("levels", [True, 0, 2.5, "2"])
def test_levels_must_be_a_count(maker, levels):
    # bool is an int subclass: True would pass a plain `levels < 1` check
    # and build a one-level Haar basis or an all-NaN starlet.
    with pytest.raises(ValueError, match="levels"):
        maker(8, 8, levels)


class TestUnion:
    def test_single_member_passthrough(self):
        base = make_haar_dwt(4, 4, levels=1)
        u = make_union([base])
        x = np.random.default_rng(6).standard_normal(16)
        assert np.allclose(u.analysis(x), base.analysis(x), atol=1e-12)
        assert (u.c1, u.c2, u.tight) == (1.0, 1.0, True)

    def test_two_diracs(self):
        u = make_union([make_dirac(2, 1), make_dirac(2, 1)])
        x = np.array([3.0, -4.0])
        expected = np.concatenate([x, x]) / SQRT2
        assert np.allclose(u.analysis(x), expected, atol=1e-14)
        assert u.tight and u.c1 == 1.0

    def test_dirac_plus_starlet_is_parseval(self):
        u = make_union([make_dirac(8, 8), make_starlet(8, 8, levels=2)])
        lo, hi = frame_bounds(u, probes=300, seed=1)
        assert abs(lo - 1.0) <= 1e-10
        assert abs(hi - 1.0) <= 1e-10

    def test_non_tight_member_degrades_to_summed_bounds(self):
        u = make_union([make_dirac(2, 1), _diag_pseudo_dictionary()])
        assert not u.tight
        assert (u.c1, u.c2) == (2.0, 10.0)
        # Unscaled stacking: energy is the sum of member energies.
        x = np.array([1.0, 1.0])
        c = u.analysis(x)
        assert float(c @ c) == pytest.approx(2.0 + 10.0, rel=1e-12)

    def test_mismatched_grids_rejected(self):
        with pytest.raises(DimensionMismatchError):
            make_union([make_dirac(2, 1), make_dirac(3, 1)])

    def test_empty_union_rejected(self):
        with pytest.raises(ValueError):
            make_union([])


class TestFrameBounds:
    def test_dirac(self):
        lo, hi = frame_bounds(make_dirac(4, 4))
        assert lo == pytest.approx(1.0, abs=1e-10)
        assert hi == pytest.approx(1.0, abs=1e-10)

    def test_starlet_within_one_percent(self):
        lo, hi = frame_bounds(make_starlet(16, 16, levels=3), probes=300)
        assert abs(lo - 1.0) <= 0.01
        assert abs(hi - 1.0) <= 0.01

    def test_tight_flag_needs_equal_bounds(self):
        # A tight frame has Phi Phi^T = c I, so c1 == c2; the solver's
        # closed-form peel trusts the flag.
        with pytest.raises(ValueError, match="tight"):
            FrameDictionary(width=2, height=1, coeff_dim=2,
                            synthesis=lambda c: c, analysis=lambda x: x,
                            c1=1.0, c2=2.0, tight=True)

    @pytest.mark.parametrize("width, height, coeff_dim, c1, c2", [
        (2, 1, 2, 1.0, math.inf),
        (2, 1, 2, math.inf, math.inf),
        (2, 1, 2, 0.0, 1.0),
        (2.5, 1, 3, 1.0, 1.0),
        (2, True, 2, 1.0, 1.0),
        (2, 1, 2.5, 1.0, 1.0),
    ])
    def test_constructor_validation(self, width, height, coeff_dim, c1, c2):
        with pytest.raises(ValueError):
            FrameDictionary(width=width, height=height, coeff_dim=coeff_dim,
                            synthesis=lambda c: c, analysis=lambda x: x,
                            c1=c1, c2=c2, tight=False)

    def test_known_diagonal_gram(self):
        lo, hi = frame_bounds(_diag_pseudo_dictionary(), probes=500, seed=3)
        assert lo == pytest.approx(1.0, rel=0.01)
        assert hi == pytest.approx(9.0, rel=0.01)


class TestSharedInvariants:
    @pytest.mark.parametrize("name,maker", ALL_DICTS)
    def test_analysis_is_the_exact_adjoint(self, name, maker):
        d = maker()
        rng = np.random.default_rng(8)
        for _ in range(100):
            x = rng.standard_normal(d.n)
            c = rng.standard_normal(d.coeff_dim)
            lhs, rhs = d.analysis(x) @ c, x @ d.synthesis(c)
            assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(c)

    @pytest.mark.parametrize("name,maker", ALL_DICTS + [
        ("non-tight", _diag_pseudo_dictionary)])
    def test_is_its_synthesis_operator(self, name, maker):
        d = maker()
        assert isinstance(d, LinearOperator)
        assert (d.in_dim, d.out_dim) == (d.coeff_dim, d.n)
        assert d.spectral_bound == np.sqrt(d.c2)
        rng = np.random.default_rng(11)
        c, x = rng.standard_normal(d.coeff_dim), rng.standard_normal(d.n)
        assert np.array_equal(d.apply(c), d.synthesis(c))
        assert np.array_equal(d.adjoint(x), d.analysis(x))
        assert np.array_equal(d.T.apply(x), d.analysis(x))

    @pytest.mark.parametrize("name,maker", ALL_DICTS)
    def test_tight_reconstruction(self, name, maker):
        d = maker()
        assert d.tight
        x = np.random.default_rng(9).standard_normal(d.n)
        assert np.max(np.abs(d.synthesis(d.analysis(x)) - x)) <= 1e-10

    @pytest.mark.parametrize("name,maker", ALL_DICTS)
    def test_declared_bounds_bracket_rayleigh_quotients(self, name, maker):
        d = maker()
        rng = np.random.default_rng(10)
        for _ in range(25):
            x = rng.standard_normal(d.n)
            q = float(np.sum(d.analysis(x) ** 2) / (x @ x))
            assert d.c1 - 1e-9 <= q <= d.c2 + 1e-9


class TestSpecStrings:
    def test_atoms(self):
        assert parse_dictionary_spec("dirac", 4, 4).coeff_dim == 16
        assert parse_dictionary_spec("haar:levels=2", 8, 8).coeff_dim == 64
        assert parse_dictionary_spec("starlet:levels=3", 16, 16).coeff_dim == 4 * 256

    def test_union_spec(self):
        d = parse_dictionary_spec("union(dirac,starlet:levels=2)", 8, 8)
        assert d.coeff_dim == 64 + 3 * 64
        assert d.tight

    @pytest.mark.parametrize("bad", [
        "", "fourier", "haar", "haar:depth=2", "starlet:levels=x",
        "union(dirac", "union()",
    ])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_dictionary_spec(bad, 8, 8)
