import contextlib
import gc
import math
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import proxdeconv.operators as operators_module
from proxdeconv.operators import MapStack

from proxdeconv import (FourierMultiplier, FrameDictionary, Image, LinearOperator,
                        compose, diagonal_operator, fourier_form, identity_operator,
                        make_circular_convolution, make_haar_dwt, make_starlet,
                        make_union, make_dirac, matrix_operator)
from proxdeconv.errors import DimensionMismatchError

from oracles import (b3_band_gains, circ_conv_direct, rank_one_adjoint,
                     rank_one_apply)
from test_deconv import SKEWED
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

    def test_output_size_checked(self):
        # A length-1 result used to broadcast into a stack slice unnoticed.
        total = lambda v: np.array([v.sum()])
        op = LinearOperator(3, 3, total, lambda u: u.copy(), 1.0)
        with pytest.raises(DimensionMismatchError):
            op.apply([1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatchError):
            op.T.adjoint([1.0, 2.0, 3.0])
        op = LinearOperator(3, 2, lambda x: x[:2].copy(), lambda u: u.copy(), 1.0)
        with pytest.raises(DimensionMismatchError):
            op.adjoint([1.0, 2.0])
        with pytest.raises(DimensionMismatchError):
            MapStack([op]).adjoint([1.0, 2.0], out=np.empty(3))

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
        assert isinstance(form, FourierMultiplier) and form.inputs is None
        assert np.max(np.abs(form.outputs[0] - otf)) <= 1e-12
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
            found, other = (form.inputs, form.outputs) if merge else \
                (form.outputs, form.inputs)
            assert other is None and len(found) == len(gains)
            assert max(np.max(np.abs(f - g))
                       for f, g in zip(found, gains)) <= 1e-12

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

    def test_multipliers_by_construction_are_not_probed(self):
        # A FourierMultiplier, or a dictionary that records one (the
        # starlet), is read off its impulse response alone: the gains the
        # probed path reads off the same maps rebuilt from callables, bit
        # for bit, at a third of the FFTs.
        h, w = 8, 16
        blur = make_circular_convolution(_ma_psf(3), w, h)
        d = make_starlet(w, h, 2)
        rebuilt = {
            "blur": (blur, LinearOperator(blur.in_dim, blur.out_dim, blur.apply,
                                          blur.adjoint, blur.spectral_bound)),
            "starlet": (d, FrameDictionary(w, h, d.coeff_dim, d.synthesis,
                                           d.analysis, d.c1, d.c2, d.tight))}
        # Impulse response and its transform, plus two probes each way.
        spent = {"blur": (3, 3 + 8), "starlet": (4 + 3, 4 + 3 + 16)}
        for name, ops in rebuilt.items():
            forms, counts = [], []
            for op in ops:
                before = operators_module.fft2_count
                forms.append(fourier_form(op, h, w))
                counts.append(operators_module.fft2_count - before)
            assert tuple(counts) == spent[name]
            shipped, probed = forms
            gains = shipped.outputs if shipped.inputs is None else shipped.inputs
            assert gains.dtype == complex and not gains.imag.any()
            assert not np.signbit(gains.imag).any()
            for mine, theirs in ((shipped.outputs, probed.outputs),
                                 (shipped.inputs, probed.inputs)):
                assert (mine is None and theirs is None) or \
                    mine.tobytes() == theirs.tobytes()
        # On another grid of the same pixel count the probe still decides.
        skewed = make_circular_convolution(SKEWED, w, h)
        assert fourier_form(skewed, w, h) is None
        assert fourier_form(skewed, h, w) is not None

    def test_a_constant_diagonal_is_a_multiplier(self):
        form = fourier_form(diagonal_operator(np.full(12, 2.5)), 3, 4)
        assert np.max(np.abs(form.outputs - 2.5)) <= 1e-12


class TestFourierMultiplier:
    def test_compose_multiplies_the_gains(self):
        blur = make_circular_convolution(_ma_psf(3), 8, 8)
        d = make_starlet(8, 8, 2)
        plain = compose(blur, d)
        assert not isinstance(plain, FourierMultiplier)
        both = fourier_form(plain, 8, 8)
        assert isinstance(both, FourierMultiplier) and both.outputs is None
        phi = fourier_form(d, 8, 8)
        assert np.max(np.abs(both.inputs - blur.outputs * phi.inputs)) <= 1e-12
        assert both.spectral_bound == blur.spectral_bound * d.spectral_bound
        rng = np.random.default_rng(4)
        c, u = rng.standard_normal(both.in_dim), rng.standard_normal(64)
        assert np.allclose(both.apply(c), plain.apply(c), atol=1e-12)
        assert np.allclose(both.adjoint(u), plain.adjoint(u), atol=1e-12)
        # Two multipliers compose into one that keeps both factors.
        factored = compose(blur, phi)
        assert isinstance(factored, FourierMultiplier)
        assert factored.outputs is blur.outputs and factored.inputs is phi.inputs
        assert factored.spectral_bound == both.spectral_bound
        assert np.allclose(factored.apply(c), both.apply(c), atol=1e-12)
        assert np.allclose(factored.adjoint(u), both.adjoint(u), atol=1e-12)

    @pytest.mark.parametrize("shape", [(5, 6), (63, 63), (64, 64)])
    @pytest.mark.parametrize("psf", ["box", "skewed"])
    def test_product_matches_the_composition(self, psf, shape):
        # The factored product, and its transpose, against applying one
        # factor after the other.
        h, w = shape
        blur = fourier_form(make_circular_convolution(
            SKEWED if psf == "skewed" else _ma_psf(3), w, h), h, w)
        phi = fourier_form(make_starlet(w, h, 2), h, w)
        product = compose(blur, phi)
        assert isinstance(product, FourierMultiplier)
        assert product.outputs.imag.any() == (psf == "skewed")
        plain = LinearOperator(phi.in_dim, h * w,
                               lambda c: blur.apply(phi.apply(c)),
                               lambda u: phi.adjoint(blur.adjoint(u)),
                               blur.spectral_bound * phi.spectral_bound)
        assert product.T.inputs.tobytes() == (
            blur.outputs.conj() if psf == "skewed" else blur.outputs).tobytes()
        rng = np.random.default_rng(13)
        c, u = rng.standard_normal(product.in_dim), rng.standard_normal(h * w)
        for mine, theirs, v in ((product.apply, plain.apply, c),
                                (product.adjoint, plain.adjoint, u),
                                (product.T.apply, plain.T.apply, u),
                                (product.T.adjoint, plain.T.adjoint, c)):
            want = theirs(v)
            assert np.linalg.norm(mine(v) - want) <= 1e-12 * np.linalg.norm(want)

    def test_transpose_is_a_multiplier(self):
        # Phi^T is Phi's multiplier through the conjugate gains, sides
        # swapped: it splits where Phi merges. So is a product's transpose.
        blur = make_circular_convolution(SKEWED, 8, 8)
        phi = fourier_form(make_starlet(8, 8, 2), 8, 8)
        for op in (blur, phi, compose(blur, phi)):
            t = op.T
            assert isinstance(t, FourierMultiplier)
            assert (t.in_dim, t.out_dim) == (op.out_dim, op.in_dim)
            rng = np.random.default_rng(14)
            x, u = rng.standard_normal(t.in_dim), rng.standard_normal(t.out_dim)
            assert t.apply(x).tobytes() == op.adjoint(x).tobytes()
            assert t.adjoint(u).tobytes() == op.apply(u).tobytes()
            assert t.T.apply(u).tobytes() == op.apply(u).tobytes()
        # The one band of a convolution stays output gains. Phi's gains are
        # real-valued, their own conjugate, and shared.
        assert blur.T.outputs.tobytes() == blur.outputs.conj().tobytes()
        assert phi.T.inputs is None and phi.T.outputs is phi.inputs

    def test_compose_fuses_exactly_the_rank_one_pairs(self):
        # A multiplier without input gains after a one-sided one is one
        # multiplier; a map with input gains after anything, or anything
        # after a two-sided product, stays a plain composition. Two merges
        # or two splits of several bands cannot meet in dimension, so a
        # merge after a split and a split after a product stand for them.
        # H H holds one array on both sides, which a stack once read as its
        # own merge alone, applying H once.
        blur = make_circular_convolution(SKEWED, 8, 8)
        phi = fourier_form(make_starlet(8, 8, 2), 8, 8)
        rng = np.random.default_rng(17)
        fused = {"blur after blur": (blur, blur), "blur after merge": (blur, phi),
                 "split after blur": (phi.T, blur), "split after merge": (phi.T, phi)}
        plain = {"merge after split": (phi, phi.T),
                 "split after product": (phi.T, compose(blur, phi)),
                 "blur after product": (blur, compose(blur, phi))}
        for name, (outer, inner) in {**fused, **plain}.items():
            both = compose(outer, inner)
            assert isinstance(both, FourierMultiplier) == (name in fused), name
            x, u = rng.standard_normal(both.in_dim), rng.standard_normal(both.out_dim)
            for mine, want in ((both.apply(x), outer.apply(inner.apply(x))),
                               (both.adjoint(u), inner.adjoint(outer.adjoint(u)))):
                assert np.linalg.norm(mine - want) <= 1e-12 * np.linalg.norm(want), name

    def test_needs_a_side(self):
        with pytest.raises(ValueError, match="output or input gains"):
            FourierMultiplier(4, 4, 1.0)

    @pytest.mark.parametrize("merge", [False, True])
    def test_adjoint_and_parseval_norm(self, merge):
        rng = np.random.default_rng(9)
        h, w = 5, 6
        gains = (rng.standard_normal((3, h, w // 2 + 1))
                 + 1j * rng.standard_normal((3, h, w // 2 + 1)))
        # Gains read off a real impulse response are Hermitian-consistent.
        gains = np.fft.rfft2(np.fft.irfft2(gains, s=(h, w)))
        op = FourierMultiplier(h, w, 10.0, **{"inputs" if merge else "outputs": gains})
        x, u = rng.standard_normal(op.in_dim), rng.standard_normal(op.out_dim)
        assert abs(op.apply(x) @ u - x @ op.adjoint(u)) <= 1e-10
        image = rng.standard_normal((1, h, w))
        back = np.empty_like(image)
        operators_module._irfft2(operators_module._rfft2(image), back)
        assert np.allclose(back, image, atol=1e-12)

    def test_spectra_transform_a_stack_in_one_call(self):
        stack = np.random.default_rng(3).standard_normal((3, 5, 6))
        before = operators_module.fft2_count
        spectra = operators_module._rfft2(stack)
        assert operators_module.fft2_count - before == 3
        bands = [np.fft.rfft2(band) for band in stack]
        assert spectra.tobytes() == np.stack(bands).tobytes()
        # The inverse is irfft2's two passes, bit for bit, into a given array.
        want = np.fft.irfft2(spectra, s=(5, 6))
        images = np.empty_like(stack)
        assert operators_module._irfft2(spectra, images) is images
        assert images.tobytes() == want.tobytes()
        assert np.allclose(images, stack, atol=1e-12)
        assert operators_module.fft2_count - before == 6

    @pytest.mark.parametrize("shape", [(5, 6), (63, 63), (64, 64)])
    def test_forward_passes_are_rfft2(self, shape):
        # rfft along rows, then an in-place fft down the columns: rfft2's
        # own passes, at even and odd widths, into the given array.
        rng = np.random.default_rng(12)
        for bands in range(1, 8):
            stack = rng.standard_normal((bands, *shape))
            out = np.empty((bands, shape[0], shape[1] // 2 + 1), dtype=complex)
            assert operators_module._rfft2(stack, out=out) is out
            assert out.tobytes() == np.fft.rfft2(stack).tobytes()

    @pytest.mark.parametrize("complex_gains", [False, True])
    def test_band_sums_match_np_sum(self, complex_gains):
        # Both maps that sum bands do so in the spectrum, in np.sum's order.
        rng = np.random.default_rng(5)
        h, w = 5, 6
        gains = rng.standard_normal((3, h, w // 2 + 1))
        if complex_gains:
            gains = gains + 1j * rng.standard_normal((3, h, w // 2 + 1))
        u, c = rng.standard_normal((3, h, w)), rng.standard_normal((3, h, w))
        split = FourierMultiplier(h, w, 10.0, outputs=gains)
        merge = FourierMultiplier(h, w, 10.0, inputs=gains)
        want = np.fft.irfft2(np.sum(gains.conj() * np.fft.rfft2(u), axis=0), s=(h, w))
        assert split.adjoint(u).tobytes() == want.tobytes()
        want = np.fft.irfft2(np.sum(gains * np.fft.rfft2(c), axis=0), s=(h, w))
        assert merge.apply(c).tobytes() == want.tobytes()

    def test_deleted_operators_free_their_gains(self):
        # No operator may reference itself: with the cyclic collector off, a
        # deleted operator must free its gains at once.
        gc.disable()
        try:
            blur = make_circular_convolution(_ma_psf(3), 8, 8)
            d = make_starlet(8, 8, 2)
            bands = d._adjoint.__self__  # the starlet's own multiplier
            stack = MapStack([blur, bands])
            stack.adjoint(stack.apply(np.ones(64)))
            # A product and its stack hold the factors' gains, no cycle.
            product = compose(blur, bands.T)
            factored = MapStack([product, bands.T])
            factored.adjoint(factored.apply(np.ones(192)))
            refs = [weakref.ref(blur.outputs), weakref.ref(bands.outputs)]
            del blur, d, bands, stack, product, factored
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_gain_shape_checked(self):
        with pytest.raises(DimensionMismatchError):
            FourierMultiplier(4, 4, 1.0, np.ones((4, 4)))


class TestSharedStack:
    """MapStack, which runs the primal-dual solver's maps into one stack:
    multipliers on one grid share their input's spectra and sum their
    adjoints in the spectrum."""

    def _maps(self, fourier):
        """H Phi and Phi; as the solver builds them when ``fourier``: Phi
        probed, and H Phi the product of the two multipliers."""
        blur = make_circular_convolution(_ma_psf(3), 8, 8)
        d = make_starlet(8, 8, 2)
        if fourier:
            d = fourier_form(d, 8, 8)
        return [compose(blur, d), d]

    def _run(self, maps, x, us):
        """Each map's output and the adjoint sum, and the 2-D FFTs spent."""
        stack = MapStack(maps)
        before = operators_module.fft2_count
        each = stack.split(stack.apply(x))
        back = stack.adjoint(np.concatenate(us))
        return each, back, operators_module.fft2_count - before

    @pytest.mark.parametrize("fourier", [False, True])
    def test_match_the_ops_one_by_one(self, fourier):
        maps = self._maps(fourier)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(maps[0].in_dim)
        us = [rng.standard_normal(64), rng.standard_normal(64)]
        each, back, spent = self._run(maps, x, us)
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
        each, back, spent = self._run(maps, x, us)
        for got, op in zip(each, maps):
            assert got.tobytes() == op.apply(x).tobytes()
        want = maps[0].adjoint(us[0]) + maps[1].adjoint(us[1])
        assert np.allclose(back, want, atol=1e-12)
        # Shared: 1 image forward and 1 + 3 back, then 1 + 3 forward and 1
        # image back; one by one, 2 + 4 each way.
        assert spent == (10 if fourier else 12)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_parts_add_to_the_first_part_not_to_zero(self, zero):
        # Zero duals make exact zero parts, some of them -0.0 (a zero times
        # a negative gain). np.add.reduce sums them from its identity +0.0
        # (numpy 2.4 reduces [-0.0] to +0.0), so the stack must sum as it
        # does to give the oracle's bits.
        maps = self._maps(fourier=True)
        stack = MapStack(maps)
        u = np.full(stack.out_dim, zero)
        back = stack.adjoint(u)
        assert np.any(np.signbit(back))
        assert back.tobytes() == rank_one_adjoint(maps, stack.split(u)).tobytes()

    @pytest.mark.parametrize("fourier", [False, True])
    def test_writes_only_into_the_given_arrays(self, fourier):
        # A solve reuses the stack's scratch spectra on every call.
        stack = MapStack(self._maps(fourier))
        rng = np.random.default_rng(8)
        x, u = rng.standard_normal(stack.in_dim), rng.standard_normal(128)
        x_copy, u_copy = x.copy(), u.copy()
        out, back = np.empty(stack.out_dim), np.empty(stack.in_dim)
        for _ in range(2):
            assert stack.apply(x, out=out) is out
            assert stack.adjoint(u, out=back) is back
            assert out.tobytes() == stack.apply(x).tobytes()
            assert back.tobytes() == stack.adjoint(u).tobytes()
        assert x.tobytes() == x_copy.tobytes()
        assert u.tobytes() == u_copy.tobytes()

    def _check_bits(self, maps, seed):
        """The stack gives each map's apply as alone, and the rank-1 rule's
        adjoint sum, bit for bit; so does each map alone."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(maps[0].in_dim)
        us = [rng.standard_normal(op.out_dim) for op in maps]
        each, back, spent = self._run(maps, x, us)
        for got, op, u in zip(each, maps, us):
            assert got.tobytes() == op.apply(x).tobytes()
            assert op.adjoint(u).tobytes() == rank_one_adjoint([op], [u]).tobytes()
        assert back.tobytes() == rank_one_adjoint(maps, us).tobytes()
        return spent

    @staticmethod
    def _skewed(prior, h, w):
        """The prior's two maps under the skewed kernel, as the solver builds
        them: the blur's complex gains (after the merge, in H Phi), then the
        starlet's real-valued ones."""
        blur = fourier_form(make_circular_convolution(SKEWED, w, h), h, w)
        phi = fourier_form(make_starlet(w, h, 2), h, w)
        maps = [compose(blur, phi), phi] if prior == "synthesis" else [blur, phi.T]
        assert maps[0].outputs.imag.any() and not phi.inputs.imag.any()
        return maps

    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_complex_gains_of_a_skewed_kernel(self, prior):
        assert self._check_bits(self._skewed(prior, 8, 8), seed=10) == 10

    @pytest.mark.parametrize("shape", [(5, 6), (63, 63), (64, 64)])
    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_complex_gains_at_odd_and_even_widths(self, prior, shape):
        # Complex gains are conjugated into the product's buffer on each
        # call: the bits of conj(gains) * spectra at any width.
        assert self._check_bits(self._skewed(prior, *shape), seed=10) == 10

    @pytest.mark.parametrize("psf", ["box", "skewed"])
    def test_holds_no_copy_of_the_gains(self, psf):
        # A stack allocates its spectra and reads each map's gains in place,
        # real or complex: no conjugate, reshaped or product copy is kept,
        # and H Phi holds the two factors, not their product.
        blur = fourier_form(make_circular_convolution(
            SKEWED if psf == "skewed" else _ma_psf(3), 64, 64), 64, 64)
        phi = fourier_form(make_starlet(64, 64, 3), 64, 64)
        maps = [compose(blur, phi), phi]
        assert maps[0].outputs is blur.outputs and maps[0].inputs is phi.inputs
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stack = MapStack(maps)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # One block of the input's bands (all 4 at 64 x 64), the stack's
        # bands and one scratch band. A plan is (sources, join in two row
        # halves, targets, shape, the worker's start indices); one block of
        # 64 x 64 bands hands nothing, so the join is one half.
        [(_, source, steps)], (join, []), [(_, target, _)], _, _ = stack._plans[0]
        assert len(source) == 4
        spectra = source.nbytes + target.nbytes + target[0].nbytes
        assert spectra <= grown < spectra + blur.outputs.nbytes // 4
        # apply: the merge in place and the sum, then the join filters the
        # sum into the blur's one band, none conjugated.
        (f1, (merge, _), _), (f2, _, _) = steps
        [(f3, (outputs, _), _)] = join
        assert (f1, f2, f3) == (np.multiply, np.add.reduce, np.multiply)
        assert merge.base is phi.inputs and outputs.base is blur.outputs
        # adjoint: the blur's gains in place, conjugated band by band if
        # they have an imaginary part, then the join's sum, filtered into
        # each of the 4 bands by the merge's real-valued gains, not
        # conjugated.
        [(_, _, outputs)], ([(total, _, _)], []), [(_, _, merges)], _, _ = \
            stack._plans[1]
        conj = psf == "skewed"
        assert total == np.add.reduce and len(outputs) == (2 if conj else 1)
        if conj:
            assert outputs[0][0] is np.conjugate
        assert outputs[0][1][0] is blur.outputs or outputs[0][1][0].base is blur.outputs
        assert len(merges) == 4
        assert all(f is np.multiply and g.base is phi.inputs for f, (g, _), _ in merges)

    @pytest.mark.parametrize("merging_first", [True, False])
    def test_a_merging_map_beside_the_starlet_analysis(self, merging_first):
        # One input image: a one-band merging map is one row and one column,
        # the starlet analysis one column of three rows.
        blur = make_circular_convolution(SKEWED, 8, 8)
        merging = FourierMultiplier(8, 8, blur.spectral_bound, inputs=blur.outputs)
        # One band given as input gains alone is stored as output gains.
        assert merging.outputs is blur.outputs and merging.inputs is None
        analysis = fourier_form(make_starlet(8, 8, 2).T, 8, 8)
        maps = [merging, analysis] if merging_first else [analysis, merging]
        assert merging.in_dim == analysis.in_dim == 64
        assert self._check_bits(maps, seed=11) == 10


class TestBlocks:
    """A stack runs its variable's bands in blocks of whole bands that fit
    ``BLOCK_BYTES``; the bits do not depend on the blocks."""

    @staticmethod
    def _stack(maps, budget, monkeypatch):
        """The stack of ``maps`` planned with a block budget of ``budget``
        bytes."""
        with monkeypatch.context() as patched:
            patched.setattr(operators_module, "BLOCK_BYTES", budget)
            return MapStack(maps)

    @staticmethod
    def _synthesis(psf, h, w, levels=2):
        blur = fourier_form(make_circular_convolution(psf, w, h), h, w)
        phi = fourier_form(make_starlet(w, h, levels), h, w)
        return [compose(blur, phi), phi], blur, phi

    @pytest.mark.parametrize("size, blocks", [(64, 1), (256, 4)])
    def test_starlet_layout(self, size, blocks):
        # One 256 x 256 band is 512 KiB: 4 bands of 32 KiB are one block
        # at 64 x 64, and at 256 x 256 each band is its own block.
        maps, _, _ = self._synthesis(_ma_psf(3), size, size, levels=3)
        stack = MapStack(maps)
        n = size * size
        step = 4 * n // blocks
        assert stack.blocks == [slice(lo, lo + step) for lo in range(0, 4 * n, step)]
        # Both directions run the input's bands through one block of
        # spectra, apart from the blocks handed to a worker (at 256 x 256
        # on two CPUs), which share the bands of their own.
        forward, backward = stack._plans[0][0], stack._plans[1][2]
        assert [s for s, _, _ in forward] == [s for s, _, _ in backward] == stack.blocks
        bases = [{id(spectra.base) for s, spectra, _ in forward + backward
                  if (s in stack.handed) == handed} for handed in (False, True)]
        assert len(bases[0]) == 1 and len(bases[1]) == (1 if stack.handed else 0)
        assert not bases[0] & bases[1]
        assert {len(spectra) for _, spectra, _ in forward} == {4 // blocks}

    def test_one_block_without_a_rank_one_plan(self):
        _, blur, phi = self._synthesis(_ma_psf(3), 256, 256, levels=3)
        # The analysis prior's variable is one image.
        assert MapStack([blur, phi.T]).blocks == [slice(0, 256 * 256)]
        haar = make_haar_dwt(16, 16, 2)
        assert MapStack([haar.T, haar.T]).blocks == [slice(0, 256)]
        assert MapStack([]).blocks == [slice(0, None)]

    @pytest.mark.parametrize("merges", ["two bare", "two input gains"])
    def test_multipliers_that_merge_twice_apply_one_by_one(self, merges):
        # Two merging maps share no plan when both are bare (no output
        # gains) or their input gains differ: each map gives its own bits.
        _, blur, phi = self._synthesis(SKEWED, 8, 8)
        other = phi if merges == "two bare" else FourierMultiplier(
            8, 8, phi.spectral_bound, blur.outputs, 0.5 * phi.inputs)
        maps = [phi, other]
        stack = MapStack(maps)
        assert stack._plans is None and stack.blocks == [slice(0, stack.in_dim)]
        rng = np.random.default_rng(17)
        x, u = rng.standard_normal(stack.in_dim), rng.standard_normal(stack.out_dim)
        assert [k.tobytes() for k in stack.split(stack.apply(x))] == \
            [op.apply(x).tobytes() for op in maps]
        want = sum(op.adjoint(part) for op, part in zip(maps, stack.split(u)))
        assert stack.adjoint(u).tobytes() == want.tobytes()

    @pytest.mark.parametrize("per, sizes", [(1, [256] * 4), (2, [512, 512]),
                                            (3, [768, 256])])
    @pytest.mark.parametrize("psf", ["box", "skewed"])
    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_blocked_bits_are_the_one_block_bits(self, prior, psf, per, sizes,
                                                 monkeypatch):
        # 4 bands at 16 x 16 in blocks of 1 to 3 bands, every later band
        # added to the sum on its own; the skewed kernel's gains are
        # complex.
        maps, blur, phi = self._synthesis(SKEWED if psf == "skewed" else _ma_psf(3),
                                          16, 16, levels=3)
        if prior == "analysis":
            maps = [blur, phi.T]
        whole = MapStack(maps)
        blocked = self._stack(maps, per * 256 * 8, monkeypatch)
        if prior == "synthesis":
            assert [b.stop - b.start for b in blocked.blocks] == sizes
        rng = np.random.default_rng(12)
        x = rng.standard_normal(whole.in_dim)
        u = rng.standard_normal(whole.out_dim)
        assert blocked.apply(x).tobytes() == whole.apply(x).tobytes()
        assert blocked.adjoint(u).tobytes() == whole.adjoint(u).tobytes()

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_blocked_sums_keep_the_sign_of_zero(self, zero, monkeypatch):
        # Zero coefficients times the starlet's negative gains make -0.0
        # parts in every band at some frequencies. np.add.reduce sums from
        # its identity +0.0, so a blocked sum that started from a copy of
        # the first band would keep -0.0 there and change the bits.
        maps, _, _ = self._synthesis(_ma_psf(3), 8, 8)
        whole = MapStack(maps)
        blocked = self._stack(maps, 64 * 8, monkeypatch)
        assert len(blocked.blocks) == 3
        x, u = np.full(whole.in_dim, zero), np.full(whole.out_dim, zero)
        for stack in (whole, blocked):
            assert [k.tobytes() for k in stack.split(stack.apply(x))] == \
                [k.tobytes() for k in rank_one_apply(maps, x)]
            assert stack.adjoint(u).tobytes() == \
                rank_one_adjoint(maps, stack.split(u)).tobytes()

    def test_fill_writes_each_block_before_it_is_read(self, monkeypatch):
        maps, _, _ = self._synthesis(SKEWED, 8, 8)
        stack = self._stack(maps, 64 * 8, monkeypatch)
        rng = np.random.default_rng(13)
        want, u = rng.standard_normal(stack.in_dim), rng.standard_normal(stack.out_dim)
        x, seen = np.full(stack.in_dim, np.nan), []

        def fill(block):
            seen.append(block)
            x[block] = want[block]
        assert stack.apply(x, fill=fill).tobytes() == stack.apply(want).tobytes()
        assert seen == stack.blocks
        # drain sees each block of out once it is final.
        out, drained = np.empty(stack.in_dim), []
        stack.adjoint(u, out=out, drain=lambda b: drained.append((b, out[b].copy())))
        assert [b for b, _ in drained] == stack.blocks
        assert b"".join(part.tobytes() for _, part in drained) == out.tobytes()

    @pytest.mark.parametrize("maps", ["haar", "empty"])
    def test_fill_and_drain_see_one_block_without_a_plan(self, maps):
        haar = make_haar_dwt(4, 4, 1)
        stack = MapStack([haar.T] if maps == "haar" else [])
        x, out, calls = np.ones(16), np.empty(16), []
        stack.apply(x, fill=calls.append)
        stack.adjoint(np.ones(stack.out_dim), out=out, drain=calls.append)
        assert calls == stack.blocks * 2

    def test_an_empty_stack_needs_out_for_its_adjoint(self):
        # It does not know its variable's size: numpy used to raise a
        # TypeError about shape arguments.
        stack = MapStack([])
        with pytest.raises(ValueError, match="needs out"):
            stack.adjoint(np.empty(0))
        out = np.full(3, 7.0)
        assert stack.adjoint(np.empty(0), out=out) is out
        assert out.tobytes() == np.zeros(3).tobytes()


class TestThreads:
    """Inside ``MapStack.threads`` a stack of more than one block whose bands
    reach ``THREAD_PIXELS`` runs its upper blocks and images on a worker
    thread, with the one-thread bits."""

    @staticmethod
    def _stack(maps, per, monkeypatch, cpus=2):
        """The stack of ``maps`` in blocks of ``per`` 16 x 16 bands, planned
        for two threads on ``cpus`` CPUs."""
        with monkeypatch.context() as patched:
            patched.setattr(operators_module, "BLOCK_BYTES", per * 256 * 8)
            patched.setattr(operators_module, "THREAD_PIXELS", 256)
            patched.setattr(operators_module, "_cpus", lambda: cpus)
            return MapStack(maps)

    @pytest.mark.parametrize("per", [1, 2, 3])
    @pytest.mark.parametrize("psf", ["box", "skewed"])
    def test_two_threads_give_the_one_thread_bits(self, psf, per, monkeypatch):
        maps, _, _ = TestBlocks._synthesis(SKEWED if psf == "skewed" else _ma_psf(3),
                                           16, 16, levels=3)
        serial = TestBlocks._stack(maps, per * 256 * 8, monkeypatch)
        stack = self._stack(maps, per, monkeypatch)
        assert serial.handed == []
        assert stack.handed == stack.blocks[len(stack.blocks) - len(stack.blocks) // 2:]
        rng = np.random.default_rng(14)
        x = rng.standard_normal(stack.in_dim)
        u = rng.standard_normal(stack.out_dim)
        filled, drained = [], []
        with stack.threads():
            got = [stack.apply(x, fill=lambda b: filled.append(
                       (b, threading.get_ident()))).tobytes(),
                   stack.adjoint(u, drain=lambda b: drained.append(
                       (b, threading.get_ident()))).tobytes()]
        assert got == [serial.apply(x).tobytes(), serial.adjoint(u).tobytes()]
        # fill and drain see each block once, the worker's on the worker.
        here = threading.get_ident()
        for calls in (filled, drained):
            worker, = {ident for _, ident in calls} - {here}
            assert sorted(calls, key=lambda c: c[0].start) == [
                (b, worker if b in stack.handed else here) for b in stack.blocks]

    @pytest.mark.parametrize("planned, cpus, inside", [
        pytest.param(*case, id=name) for name, case in [
            ("True-1", (True, 1, True)), ("True-2", (True, 2, True)),
            ("False-1", (False, 1, True)), ("False-2", (False, 2, True)),
            ("True-2-outside", (True, 2, False))]])
    def test_each_hook_sees_its_parts_in_order_on_its_thread(self, planned, cpus,
                                                             inside, monkeypatch):
        # One rule for both calls: hand runs on the caller just before a
        # part of the input is transformed, fill just before that part is
        # read, on the thread that transforms it, meanwhile on the caller
        # after the last hand and before the first drain, and drain once a
        # part of the output is written. A stack that hands blocks to a
        # worker has the images as its parts, apply's output and adjoint's
        # input, also on one thread outside its block; any other stack, on
        # any host, one part, the whole stack. On two threads the caller
        # hands out the worker's blocks first and adjoint's images last
        # first, and the worker fills and drains its blocks and drains
        # apply's second image.
        maps, blur, _ = TestBlocks._synthesis(_ma_psf(3), 16, 16, levels=3)
        if not planned:
            maps = [blur, make_haar_dwt(16, 16, 1).T]
        stack = self._stack(maps, 1, monkeypatch, cpus)
        assert (stack._plans is not None) == planned
        here, seen = threading.get_ident(), {}

        def hook(call, name):
            return lambda *part: seen.setdefault(
                (call, threading.get_ident() == here), []).append((name, *part))
        rng = np.random.default_rng(16)
        x, u = rng.standard_normal(stack.in_dim), rng.standard_normal(stack.out_dim)
        with stack.threads() if inside else contextlib.nullcontext():
            got = [stack.apply(x, fill=hook("apply", "fill"), drain=hook("apply", "drain"),
                               hand=hook("apply", "hand")).tobytes(),
                   stack.adjoint(u, hand=hook("adjoint", "hand"),
                                 drain=hook("adjoint", "drain"),
                                 meanwhile=hook("adjoint", "meanwhile")).tobytes()]
        blocks, images = stack.blocks, stack.slices
        if not inside:
            with stack.threads():
                assert got == [stack.apply(x).tobytes(), stack.adjoint(u).tobytes()]
            assert seen == {
                ("apply", True): [(name, b) for b in blocks for name in ("hand", "fill")]
                + [("drain", image) for image in images],
                ("adjoint", True): [("hand", images[1]), ("hand", images[0]),
                                    ("meanwhile",)] + [("drain", b) for b in blocks]}
            return
        if cpus == 1 or not planned:
            whole = slice(0, stack.out_dim)
            assert seen == {
                ("apply", True): [(name, b) for b in blocks for name in ("hand", "fill")]
                + [("drain", whole)],
                ("adjoint", True): [("hand", whole), ("meanwhile",)]
                + [("drain", b) for b in blocks]}
            return
        mine, theirs = blocks[:2], blocks[2:]
        assert stack.handed == theirs
        assert seen == {
            ("apply", True): [("hand", b) for b in theirs]
            + [(name, b) for b in mine for name in ("hand", "fill")] + [("drain", images[0])],
            ("apply", False): [("fill", b) for b in theirs] + [("drain", images[1])],
            ("adjoint", True): [("hand", images[1]), ("hand", images[0]), ("meanwhile",)]
            + [("drain", b) for b in mine],
            ("adjoint", False): [("drain", b) for b in theirs]}

    def test_only_a_stack_of_large_multi_block_bands_on_two_cpus_splits(
            self, monkeypatch):
        maps, blur, phi = TestBlocks._synthesis(_ma_psf(3), 16, 16, levels=3)
        assert self._stack(maps, 1, monkeypatch, cpus=1).handed == []
        assert self._stack(maps, 4, monkeypatch).handed == []  # one block
        assert self._stack([blur, phi.T], 1, monkeypatch).handed == []
        # The shipped bar: a 128 x 128 band and more than one block.
        maps, _, _ = TestBlocks._synthesis(_ma_psf(3), 64, 64, levels=3)
        with monkeypatch.context() as patched:
            patched.setattr(operators_module, "BLOCK_BYTES", 64 * 64 * 8)
            patched.setattr(operators_module, "_cpus", lambda: 2)
            assert len(MapStack(maps).blocks) == 4 and MapStack(maps).handed == []
        maps, _, _ = TestBlocks._synthesis(_ma_psf(3), 128, 128, levels=5)
        with monkeypatch.context() as patched:
            patched.setattr(operators_module, "_cpus", lambda: 2)
            stack = MapStack(maps)  # the shipped budget: 4 bands a block
            assert stack.blocks == [slice(0, 4 * 128 * 128), slice(4 * 128 * 128, 6 * 128 * 128)]
            assert stack.handed == stack.blocks[1:]

    def test_direct_multiplier_calls_and_calls_outside_the_block_stay_on_one_thread(
            self, monkeypatch):
        maps, _, phi = TestBlocks._synthesis(_ma_psf(3), 16, 16, levels=3)
        stack = self._stack(maps, 1, monkeypatch)
        transform, seen = operators_module._rfft2, set()

        def recorded(*args, **kwargs):
            seen.add(threading.get_ident())
            return transform(*args, **kwargs)
        monkeypatch.setattr(operators_module, "_rfft2", recorded)
        monkeypatch.setattr(operators_module, "THREAD_PIXELS", 256)
        monkeypatch.setattr(operators_module, "_cpus", lambda: 2)
        monkeypatch.setattr(operators_module, "BLOCK_BYTES", 256 * 8)
        x = np.ones(stack.in_dim)
        before = threading.active_count()
        stack.apply(x)
        phi.apply(x)
        phi.T.apply(np.ones(256))
        assert seen == {threading.get_ident()}
        assert threading.active_count() == before

    @pytest.mark.parametrize("count, cpus", [(3, 3), (None, 1)])
    def test_cpus_without_affinity_are_the_cpu_count(self, count, cpus,
                                                     monkeypatch):
        # Hosts without sched_getaffinity (macOS, Windows) count every CPU,
        # and one if the count is unknown.
        monkeypatch.delattr(operators_module.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(operators_module.os, "cpu_count", lambda: count)
        assert operators_module._cpus() == cpus

    def test_the_fft_count_loses_no_update_across_threads(self):
        # The count is a read-modify-write of a module global: four threads
        # that transform at once, switched every microsecond, add up.
        images, before = np.ones((2, 4, 4)), operators_module.fft2_count

        def transform():
            for _ in range(500):
                operators_module._rfft2(images)
        threads = [threading.Thread(target=transform) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert operators_module.fft2_count - before == 4 * 500 * 2

    @staticmethod
    def _worker():
        worker = operators_module._Worker()
        return worker, worker._thread

    def test_a_job_runs_in_the_callers_errstate(self):
        # numpy keeps errstate in a context variable, which a plain thread
        # does not inherit: there the job would see the default "warn" and,
        # warnings being errors here, raise.
        worker, thread = self._worker()
        seen = []
        try:
            with np.errstate(divide="ignore"):
                worker.put(lambda: seen.append((np.geterr()["divide"],
                                                np.log(np.zeros(1))[0])))
                worker.run(lambda: None)
        finally:
            worker.close()
        assert seen == [("ignore", -np.inf)]
        assert not thread.is_alive()

    def test_errors_are_raised_on_the_callers_thread_the_callers_first(self):
        worker, thread = self._worker()

        def fails(error):
            def job():
                raise error
            return job
        try:
            with pytest.raises(KeyError):
                worker.put(fails(KeyError()))
                worker.run(lambda: None)
            with pytest.raises(IndexError):
                worker.put(fails(KeyError()))
                worker.run(fails(IndexError()))
            # A numpy warning, an error under this suite's filters.
            with pytest.raises(RuntimeWarning):
                worker.put(lambda: np.log(np.zeros(1)))
                worker.run(lambda: None)
            seen = []
            worker.put(lambda: seen.append(threading.get_ident()))
            worker.run(lambda: None)
            assert seen == [thread.ident] != [threading.get_ident()]
        finally:
            worker.close()
        assert not thread.is_alive()

    def test_a_nested_block_shares_the_running_worker(self):
        # An inner block used to start a second worker and, on leaving,
        # close the outer one's, so the outer exit raised AttributeError
        # and a parked worker outlived both blocks.
        maps, _, _ = TestBlocks._synthesis(_ma_psf(3), 16, 16, levels=3)
        before = threading.active_count()
        with pytest.MonkeyPatch.context() as patched:
            stack = self._stack(maps, 1, patched)
        x = np.random.default_rng(15).standard_normal(stack.in_dim)
        want = stack.apply(x).tobytes()
        with stack.threads():
            worker = stack._worker
            with stack.threads():
                assert stack._worker is worker
                assert threading.active_count() == before + 1
                assert stack.apply(x).tobytes() == want
            assert stack._worker is worker
            assert stack.apply(x).tobytes() == want
        assert threading.active_count() == before
        assert stack._worker is None

    def test_with_jobs_in_flight_one_error_is_raised_once_they_have_run(self):
        # Three jobs queued, the second failing, and the caller's own step
        # failing too: the caller's error alone is raised, after the last
        # job has run, and the job's error is not raised later.
        worker, thread = self._worker()
        release, ran = threading.Event(), []

        def job(name, error=None, pause=0.0):
            def run():
                release.wait(timeout=60)
                time.sleep(pause)
                ran.append(name)
                if error is not None:
                    raise error
            return run

        def mine():
            release.set()
            raise IndexError
        try:
            for args in (("a",), ("b", KeyError()), ("c", None, 0.05)):
                worker.put(job(*args))
            with pytest.raises(IndexError):
                worker.run(mine)
            assert ran == ["a", "b", "c"]
            worker.run(lambda: None)
            # Without an error of its own the caller gets the first job's.
            for args in (("d", KeyError()), ("e", ValueError())):
                worker.put(job(*args))
            with pytest.raises(KeyError):
                worker.run(lambda: None)
            assert ran[3:] == ["d", "e"]
            worker.run(lambda: None)
        finally:
            worker.close()
        assert not thread.is_alive()

    def test_the_worker_is_joined_when_the_block_is_left_by_an_error(self):
        maps, _, _ = TestBlocks._synthesis(_ma_psf(3), 16, 16, levels=3)
        before = threading.active_count()
        with pytest.MonkeyPatch.context() as patched:
            stack = self._stack(maps, 1, patched)
        with pytest.raises(KeyboardInterrupt):
            with stack.threads():
                assert threading.active_count() == before + 1
                raise KeyboardInterrupt
        assert threading.active_count() == before
        assert stack._worker is None
