import math

import numpy as np
import pytest

from proxdeconv import (Image, compose, diagonal_operator, identity_operator,
                        make_circular_convolution, matrix_operator)
from proxdeconv.errors import DimensionMismatchError

from oracles import circ_conv_direct


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
