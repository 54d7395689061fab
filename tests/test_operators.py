import math

import numpy as np
import pytest

import proxdeconv.operators as operators_module

from proxdeconv import (FourierMultiplier, Image, LinearOperator, compose,
                        diagonal_operator, fourier_form, identity_operator,
                        make_circular_convolution, make_haar_dwt, make_starlet,
                        make_union, make_dirac, matrix_operator)
from proxdeconv.errors import DimensionMismatchError

from oracles import b3_band_gains, circ_conv_direct
from test_dictionary import _diag_pseudo_dictionary


def _conv_1d(taps, length, origin=(0, 0)):
    psf = Image(width=len(taps), height=1, data=np.asarray(taps, dtype=float))
    return make_circular_convolution(psf, width=length, height=1, origin=origin)


def _ma_psf(size):
    return Image.from_2d(np.full((size, size), 1.0 / size ** 2))


class TestImage:
    def test_round_trip_2d(self):
        arr = np.arange(12.0).reshape(3, 4)
        img = Image.from_2d(arr)
        assert (img.width, img.height, img.n) == (4, 3, 12)
        assert np.array_equal(img.to_2d(), arr)

    def test_data_length_must_match_dims(self):
        with pytest.raises(DimensionMismatchError):
            Image(width=2, height=2, data=np.zeros(3))

    @pytest.mark.parametrize("make", [
        lambda: Image(width=0, height=2, data=[]),
        lambda: Image(width=2, height=-1, data=[]),
        lambda: Image.from_2d(np.zeros(4)),
        lambda: Image.from_2d(np.zeros((2, 2, 2))),
        lambda: Image(width=2.5, height=2, data=np.zeros(5)),
        lambda: Image(width=True, height=4, data=np.zeros(4)),
    ])
    def test_invalid_shapes_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_numpy_integer_dims_accepted(self):
        img = Image(width=np.int64(2), height=np.int32(3), data=np.zeros(6))
        assert img.n == 6

    def test_is_counts(self):
        assert Image(width=3, height=1, data=[0.0, 2.0, 5.0]).is_counts()
        assert not Image(width=2, height=1, data=[1.5, 2.0]).is_counts()
        assert not Image(width=2, height=1, data=[-1.0, 2.0]).is_counts()
        for bad in (math.inf, -math.inf, math.nan):
            assert not Image(width=2, height=1, data=[bad, 2.0]).is_counts()


class TestCircularConvolution:
    def test_dirac_kernel_is_identity(self):
        op = make_circular_convolution(Image(width=1, height=1, data=[1.0]), 5, 3)
        x = np.arange(15.0)
        assert np.allclose(op.apply(x), x, atol=1e-12)
        assert np.allclose(op.adjoint(x), x, atol=1e-12)

    def test_two_tap_kernel_on_a_spike(self):
        op = _conv_1d([0.5, 0.5], 4)
        out = op.apply([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(out, [0.5, 0.5, 0.0, 0.0], atol=1e-12)
        expected = circ_conv_direct([[0.5, 0.5]], [[1.0, 0.0, 0.0, 0.0]], (0, 0))
        assert np.allclose(out, expected.ravel(), atol=1e-12)

    def test_moving_average_preserves_constants(self):
        op = make_circular_convolution(_ma_psf(7), 16, 16)
        x = np.full(256, 3.25)
        assert np.allclose(op.apply(x), x, atol=1e-12)

    def test_centre_origin_default(self):
        # 3x3 kernel with all mass at the centre pixel acts as the identity.
        kern = np.zeros((3, 3))
        kern[1, 1] = 1.0
        op = make_circular_convolution(Image.from_2d(kern), 8, 8)
        x = np.random.default_rng(0).standard_normal(64)
        assert np.allclose(op.apply(x), x, atol=1e-12)

    @pytest.mark.parametrize("origin", [None, (0, 0), (2, 1)])
    def test_matches_direct_circular_sum(self, origin):
        rng = np.random.default_rng(7)
        psf2 = rng.standard_normal((3, 4))
        x2 = rng.standard_normal((11, 16))
        op = make_circular_convolution(Image.from_2d(psf2), 16, 11, origin=origin)
        oy, ox = origin if origin is not None else (3 // 2, 4 // 2)
        expected = circ_conv_direct(psf2, x2, (oy, ox))
        got = op.apply(x2.ravel())
        assert np.max(np.abs(got - expected.ravel())) <= 1e-10 * np.max(np.abs(expected))

    def test_adjoint_is_reversed_kernel(self):
        rng = np.random.default_rng(3)
        psf2 = rng.standard_normal((3, 3))
        op = make_circular_convolution(Image.from_2d(psf2), 8, 8)
        u2 = rng.standard_normal((8, 8))
        # Adjoint of convolution at origin (oy, ox) is convolution with the
        # flipped kernel at origin (2 - oy, 2 - ox) for a 3x3 kernel.
        expected = circ_conv_direct(psf2[::-1, ::-1], u2, (1, 1))
        assert np.allclose(op.adjoint(u2.ravel()), expected.ravel(), atol=1e-10)

    def test_kernel_larger_than_grid_rejected(self):
        with pytest.raises(DimensionMismatchError) as err:
            make_circular_convolution(_ma_psf(7), 4, 4)
        assert "7x7" in str(err.value)

    def test_origin_outside_kernel_rejected(self):
        with pytest.raises(ValueError):
            make_circular_convolution(_ma_psf(3), 8, 8, origin=(3, 0))


class TestApplyAdjoint:
    def test_identity(self):
        op = identity_operator(2)
        assert np.array_equal(op.apply([3.0, -1.0]), [3.0, -1.0])

    def test_zero_operator(self):
        op = diagonal_operator([0.0, 0.0, 0.0])
        assert np.array_equal(op.apply([1.0, -2.0, 5.0]), np.zeros(3))

    def test_dimension_mismatch(self):
        op = identity_operator(3)
        with pytest.raises(DimensionMismatchError):
            op.apply([1.0, 2.0])
        with pytest.raises(DimensionMismatchError):
            op.adjoint([1.0, 2.0])

    @pytest.mark.parametrize("make", [
        lambda: LinearOperator(0, 2, None, None, 1.0),
        lambda: LinearOperator(2, 0, None, None, 1.0),
        lambda: LinearOperator(2, 2, None, None, -1.0),
        lambda: LinearOperator(2, 2, None, None, math.nan),
        lambda: matrix_operator(np.zeros(3)),
        lambda: matrix_operator(np.zeros((2, 2, 2))),
        lambda: LinearOperator(2, 2, None, None, math.inf),
        lambda: LinearOperator(2.5, 2, None, None, 1.0),
        lambda: LinearOperator(2, True, None, None, 1.0),
    ])
    def test_constructor_validation(self, make):
        with pytest.raises(ValueError):
            make()

    def test_numpy_integer_dims_accepted(self):
        op = LinearOperator(np.int64(2), np.int32(3), None, None, 1.0)
        assert (op.in_dim, op.out_dim) == (2, 3)

    def test_adjoint_view(self):
        op = matrix_operator([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0]])
        view = op.T
        assert (view.in_dim, view.out_dim) == (2, 3)
        assert view.spectral_bound == op.spectral_bound
        assert np.array_equal(view.apply([1.0, 2.0]), op.adjoint([1.0, 2.0]))
        assert np.array_equal(view.adjoint([1.0, 0.0, 3.0]),
                              op.apply([1.0, 0.0, 3.0]))

    def test_symmetric_kernel_is_self_adjoint(self):
        op = make_circular_convolution(_ma_psf(3), 8, 8)
        u = np.random.default_rng(1).standard_normal(64)
        assert np.allclose(op.apply(u), op.adjoint(u), atol=1e-12)

    def test_two_tap_inner_product_identity(self):
        op = _conv_1d([0.5, 0.5], 6)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x, u = rng.standard_normal(6), rng.standard_normal(6)
            assert abs(op.apply(x) @ u - x @ op.adjoint(u)) <= 1e-12

    def test_dirac_adjoint_is_identity(self):
        op = make_circular_convolution(Image(width=1, height=1, data=[1.0]), 4, 4)
        u = np.random.default_rng(5).standard_normal(16)
        assert np.allclose(op.adjoint(u), u, atol=1e-12)

    @pytest.mark.parametrize("make_op", [
        lambda: identity_operator(10),
        lambda: diagonal_operator(np.linspace(-2.0, 3.0, 10)),
        lambda: matrix_operator(np.random.default_rng(11).standard_normal((7, 10))),
        lambda: make_circular_convolution(_ma_psf(3), 5, 4),
        lambda: _conv_1d([0.2, 0.5, 0.3], 10),
    ])
    def test_adjoint_consistency_random_pairs(self, make_op):
        op = make_op()
        rng = np.random.default_rng(17)
        for _ in range(100):
            x = rng.standard_normal(op.in_dim)
            u = rng.standard_normal(op.out_dim)
            lhs, rhs = op.apply(x) @ u, x @ op.adjoint(u)
            assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(u)

    @pytest.mark.parametrize("make_op", [
        lambda: diagonal_operator(np.linspace(-2.0, 3.0, 16)),
        lambda: matrix_operator(np.random.default_rng(13).standard_normal((5, 9))),
        lambda: make_circular_convolution(_ma_psf(5), 12, 12),
        lambda: compose(diagonal_operator(np.ones(16) * 2.0),
                        make_circular_convolution(_ma_psf(3), 4, 4)),
    ])
    def test_spectral_bound_is_valid(self, make_op):
        op = make_op()
        rng = np.random.default_rng(23)
        for _ in range(100):
            x = rng.standard_normal(op.in_dim)
            assert np.linalg.norm(op.apply(x)) <= \
                op.spectral_bound * np.linalg.norm(x) + 1e-8


class TestCompose:
    def test_applies_inner_then_outer(self):
        inner = diagonal_operator([1.0, 2.0])
        outer = matrix_operator([[1.0, 1.0]])
        both = compose(outer, inner)
        assert np.allclose(both.apply([3.0, 4.0]), [11.0])
        assert np.allclose(both.adjoint([1.0]), [1.0, 2.0])
        assert both.spectral_bound == pytest.approx(
            outer.spectral_bound * inner.spectral_bound)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            compose(identity_operator(3), identity_operator(2))


class TestFourierForm:
    def test_recovers_the_blur_otf(self):
        rng = np.random.default_rng(5)
        psf = rng.uniform(0.0, 1.0, (3, 4))
        op = make_circular_convolution(Image.from_2d(psf), 16, 11, origin=(2, 1))
        padded = np.zeros((11, 16))
        padded[:3, :4] = psf
        otf = np.fft.rfft2(np.roll(padded, (-2, -1), axis=(0, 1)))
        form = fourier_form(op, 11, 16)
        assert isinstance(form, FourierMultiplier) and not form.merge
        assert np.max(np.abs(form.gains[0] - otf)) <= 1e-12
        assert form.spectral_bound == op.spectral_bound

    @pytest.mark.parametrize("union", [False, True])
    def test_recovers_the_starlet_gains(self, union):
        h, w = 8, 16
        gains = [g[:, :w // 2 + 1] for g in b3_band_gains(h, w, 2)]
        d = make_starlet(w, h, 2)
        if union:
            d = make_union([d, make_dirac(w, h)])
            gains = [g / np.sqrt(2.0) for g in gains + [np.ones_like(gains[0])]]
        for op, merge in ((d.T, False), (d, True)):
            form = fourier_form(op, h, w)
            assert form.merge == merge and len(form.gains) == len(gains)
            assert max(np.max(np.abs(f - g))
                       for f, g in zip(form.gains, gains)) <= 1e-12

    @pytest.mark.parametrize("make_op, grid", [
        (lambda: make_haar_dwt(8, 8, 2).T, (8, 8)),
        (lambda: make_haar_dwt(8, 8, 2), (8, 8)),
        (lambda: matrix_operator(
            np.random.default_rng(2).standard_normal((12, 12))), (3, 4)),
        (lambda: diagonal_operator(np.linspace(1.0, 2.0, 12)), (3, 4)),
        (lambda: _diag_pseudo_dictionary(), (1, 2)),
        (lambda: matrix_operator(np.ones((5, 12))), (3, 4)),
    ])
    def test_none_without_a_fourier_form(self, make_op, grid):
        assert fourier_form(make_op(), *grid) is None

    def test_a_constant_diagonal_is_a_multiplier(self):
        form = fourier_form(diagonal_operator(np.full(12, 2.5)), 3, 4)
        assert np.max(np.abs(form.gains - 2.5)) <= 1e-12


class TestFourierMultiplier:
    def test_compose_multiplies_the_gains(self):
        blur = make_circular_convolution(_ma_psf(3), 8, 8)
        d = make_starlet(8, 8, 2)
        plain = compose(blur, d)
        assert not isinstance(plain, FourierMultiplier)
        both = fourier_form(plain, 8, 8)
        assert isinstance(both, FourierMultiplier) and both.merge
        phi = fourier_form(d, 8, 8)
        assert np.max(np.abs(both.gains - blur.gains * phi.gains)) <= 1e-12
        assert both.spectral_bound == blur.spectral_bound * d.spectral_bound
        rng = np.random.default_rng(4)
        c, u = rng.standard_normal(both.in_dim), rng.standard_normal(64)
        assert np.allclose(both.apply(c), plain.apply(c), atol=1e-12)
        assert np.allclose(both.adjoint(u), plain.adjoint(u), atol=1e-12)

    @pytest.mark.parametrize("merge", [False, True])
    def test_adjoint_and_parseval_norm(self, merge):
        rng = np.random.default_rng(9)
        h, w = 5, 6
        gains = (rng.standard_normal((3, h, w // 2 + 1))
                 + 1j * rng.standard_normal((3, h, w // 2 + 1)))
        # Gains read off a real impulse response are Hermitian-consistent.
        gains = np.fft.rfft2(np.fft.irfft2(gains, s=(h, w)))
        op = FourierMultiplier(gains, h, w, spectral_bound=10.0, merge=merge)
        x, u = rng.standard_normal(op.in_dim), rng.standard_normal(op.out_dim)
        assert abs(op.apply(x) @ u - x @ op.adjoint(u)) <= 1e-10
        image = rng.standard_normal(h * w)
        spec = op.spectra(image)
        assert np.allclose(op.images(spec), image, atol=1e-12)

    def test_spectra_transform_a_stack_in_one_call(self):
        op = FourierMultiplier(np.ones((3, 5, 4)), 5, 6, spectral_bound=1.0)
        stack = np.random.default_rng(3).standard_normal(op.out_dim)
        before = operators_module.fft2_count
        spectra = op.spectra(stack)
        assert operators_module.fft2_count - before == 3
        bands = [np.fft.rfft2(band) for band in stack.reshape(3, 5, 6)]
        assert spectra.tobytes() == np.stack(bands).tobytes()
        assert np.allclose(op.images(spectra), stack, atol=1e-12)
        assert operators_module.fft2_count - before == 6

    @pytest.mark.parametrize("complex_gains", [False, True])
    def test_power_and_combine_match_a_band_loop(self, complex_gains):
        rng = np.random.default_rng(5)
        gains = rng.standard_normal((3, 5, 4))
        if complex_gains:
            gains = gains + 1j * rng.standard_normal((3, 5, 4))
        op = FourierMultiplier(gains, 5, 6, spectral_bound=1.0)
        spectra = rng.standard_normal((3, 5, 4)) + 1j * rng.standard_normal((3, 5, 4))
        combined = np.zeros((5, 4), dtype=complex)
        for g, spec in zip(gains, spectra):
            combined += g.conj() * spec
        assert op.combine(spectra, conj=True).tobytes() == combined.tobytes()

    def test_gain_shape_checked(self):
        with pytest.raises(DimensionMismatchError):
            FourierMultiplier(np.ones((4, 4)), 4, 4, spectral_bound=1.0)


class TestSharedStack:
    """apply_each and adjoint_sum, which the primal-dual solver runs on its
    maps: multipliers on one grid share their input's spectra and sum their
    adjoints in the spectrum."""

    def _maps(self, fourier):
        blur = make_circular_convolution(_ma_psf(3), 8, 8)
        d = make_starlet(8, 8, 2)
        maps = [compose(blur, d), d]
        if fourier:
            maps = [fourier_form(op, 8, 8) for op in maps]
        return maps

    @pytest.mark.parametrize("fourier", [False, True])
    def test_match_the_ops_one_by_one(self, fourier):
        maps = self._maps(fourier)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(maps[0].in_dim)
        us = [rng.standard_normal(64), rng.standard_normal(64)]
        before = operators_module.fft2_count
        each = operators_module.apply_each(maps, x)
        back = operators_module.adjoint_sum(maps, us)
        spent = operators_module.fft2_count - before
        for got, op in zip(each, maps):
            assert got.tobytes() == op.apply(x).tobytes()
        want = maps[0].adjoint(us[0]) + maps[1].adjoint(us[1])
        assert np.allclose(back, want, atol=1e-12)
        # Shared: 3 bands + 2 images forward, 2 images + 3 bands back; one
        # by one, 4 + 2 and 4 each way.
        assert spent == (10 if fourier else 20)

    @pytest.mark.parametrize("fourier", [False, True])
    def test_analysis_pair_shares_the_image_spectrum(self, fourier):
        # H and Phi^T split one image, into one band and into a stack.
        blur = make_circular_convolution(_ma_psf(3), 8, 8)
        analysis = make_starlet(8, 8, 2).T
        maps = [blur, fourier_form(analysis, 8, 8) if fourier else analysis]
        rng = np.random.default_rng(7)
        x = rng.standard_normal(64)
        us = [rng.standard_normal(64), rng.standard_normal(192)]
        before = operators_module.fft2_count
        each = operators_module.apply_each(maps, x)
        back = operators_module.adjoint_sum(maps, us)
        spent = operators_module.fft2_count - before
        for got, op in zip(each, maps):
            assert got.tobytes() == op.apply(x).tobytes()
        want = maps[0].adjoint(us[0]) + maps[1].adjoint(us[1])
        assert np.allclose(back, want, atol=1e-12)
        # Shared: 1 image forward and 1 + 3 back, then 1 + 3 forward and 1
        # image back; one by one, 2 + 4 each way.
        assert spent == (10 if fourier else 12)
