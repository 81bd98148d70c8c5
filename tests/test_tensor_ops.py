"""Forward-path checks of the tensor operations against brute-force oracles."""

import gc
import re
import tracemalloc

import numpy as np
import pytest

import ragnet.tensor as T
from oracles import (
    block_mean_loops,
    conv2d_grad_loops,
    conv2d_loops,
    conv_transpose2d_loops,
    downsample2x_grad_repeat,
    downsample2x_reshape_mean,
    leaky_relu_grad_where,
    leaky_relu_where,
    mask_mean3x3_loops,
    mask_mean3x3_padded,
    mask_renorm_grad_where,
    mask_renorm_where,
    maxpool2x2_grad_loops,
    maxpool2x2_loops,
    sigmoid_grad_where,
    sigmoid_where,
)


def rand(shape, seed, lo=-1.0, hi=1.0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.uniform(lo, hi, size=shape).astype(np.float64)


# (seed, input shape, weight shape, stride, pad) of the conv2d oracle checks
ORACLE_CASES = [
    (0, (2, 3, 7, 7), (4, 3, 3, 3), 1, 1),
    (1, (1, 2, 8, 6), (3, 2, 3, 3), 2, 1),
    (2, (1, 4, 5, 5), (2, 4, 1, 1), 1, 0),
    (3, (2, 1, 9, 9), (1, 1, 5, 5), 2, 2),
    (4, (1, 3, 6, 6), (5, 3, 3, 3), 1, 0),
    (5, (3, 2, 5, 9), (4, 2, 3, 3), 1, 1),
    (6, (2, 3, 7, 10), (2, 3, 3, 3), 2, 1),
    (7, (2, 2, 4, 5), (3, 2, 1, 1), 1, 1),
    (8, (2, 3, 6, 6), (2, 3, 1, 1), 2, 0),
    (9, (1, 2, 9, 8), (3, 2, 5, 5), 3, 2),
    (10, (3, 2, 5, 7), (2, 2, 3, 3), 2, 0),
    (11, (1, 2, 5, 6), (3, 2, 3, 3), 1, 3),  # a pad wider than the kernel
    (12, (1, 3, 4, 7), (2, 3, 3, 3), 2, 3),
]


class TestConv2d:
    def test_identity_kernel(self):
        x = T.ones((1, 1, 3, 3), dtype=np.float64)
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = T.conv2d(x, T.tensor(w), T.zeros((1, 1, 1, 1), dtype=np.float64), stride=1, pad=1)
        np.testing.assert_array_equal(out.data, np.ones((1, 1, 3, 3)))

    def test_zero_input(self):
        x = T.zeros((1, 2, 4, 4), dtype=np.float64)
        w = T.tensor(rand((3, 2, 3, 3), seed=5))
        out = T.conv2d(x, w, T.zeros((1, 3, 1, 1), dtype=np.float64), stride=1, pad=1)
        assert out.shape == (1, 3, 4, 4)
        np.testing.assert_array_equal(out.data, 0.0)

    @pytest.mark.parametrize("seed,shape,wshape,stride,pad", ORACLE_CASES)
    def test_matches_nested_loop_oracle(self, seed, shape, wshape, stride, pad):
        x = rand(shape, seed)
        w = rand(wshape, seed + 100)
        b = rand((wshape[0],), seed + 200)
        got = T.conv2d(T.tensor(x), T.tensor(w), T.tensor(b.reshape(1, -1, 1, 1)),
                       stride=stride, pad=pad)
        want = conv2d_loops(x, w, b, stride=stride, pad=pad)
        np.testing.assert_allclose(got.data, want, atol=1e-10, rtol=0)

    def test_channel_mismatch_rejected(self):
        x = T.zeros((1, 2, 4, 4))
        w = T.zeros((3, 4, 3, 3))
        with pytest.raises(ValueError, match="channels"):
            T.conv2d(x, w, None, stride=1, pad=1)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            T.conv2d(T.zeros((1, 1, 4, 4)), T.zeros((1, 1, 4, 4)), None)


class TestConv2dBlocks:
    """The forward's row blocks, made small so that every oracle case runs in several.

    With budget B a block holds max(1, B // Wq) anchor rows: B = 1 gives
    one-row blocks; B = 20 blocks of 2 rows of 9 on a 7x7 input at pad 1
    (the last block partial); B = 160 pairs of whole 7x11 images out of a
    batch of 3 (the last pair partial); B = 37 sits between.  The cases
    include batch 3, stride 2 on odd sides, and k = 1 and k = 5.
    """

    @pytest.mark.parametrize("budget", [1, 20, 37, 160])
    @pytest.mark.parametrize("seed,shape,wshape,stride,pad", ORACLE_CASES)
    def test_blocks_match_nested_loop_oracle(self, monkeypatch, budget, seed, shape, wshape, stride, pad):
        monkeypatch.setattr(T, "CONV_BLOCK", budget)
        x = rand(shape, seed)
        w = rand(wshape, seed + 100)
        b = rand((wshape[0],), seed + 200)
        for relu in (False, True):
            got = T.conv2d(T.tensor(x), T.tensor(w), T.tensor(b.reshape(1, -1, 1, 1)),
                           stride=stride, pad=pad, relu=relu)
            want = conv2d_loops(x, w, b, stride=stride, pad=pad)
            np.testing.assert_allclose(got.data, np.maximum(want, 0) if relu else want, atol=1e-10, rtol=0)


class TestConv2dBackwardBlocks:
    """The backward's row blocks, at the budgets of ``TestConv2dBlocks``:
    dx, dw and db of every oracle case against the nested-loop oracle, with
    the output gradient masked by the ReLU where ``relu=True``."""

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("budget", [1, 20, 37, 160])
    @pytest.mark.parametrize("seed,shape,wshape,stride,pad", ORACLE_CASES)
    def test_gradients_match_nested_loop_oracle(self, monkeypatch, budget, relu, seed, shape, wshape, stride, pad):
        monkeypatch.setattr(T, "CONV_BLOCK", budget)
        x = rand(shape, seed)
        w = rand(wshape, seed + 100)
        b = rand((wshape[0],), seed + 200)
        xt, wt, bt = (T.tensor(a, requires_grad=True) for a in (x, w, b.reshape(1, -1, 1, 1)))
        with T.Tape():
            out = T.conv2d(xt, wt, bt, stride=stride, pad=pad, relu=relu)
            g = rand(out.shape, seed + 300)
            T.backward(T.reduce_sum(T.mul(out, T.tensor(g))))
        if relu:
            g = g * (conv2d_loops(x, w, b, stride=stride, pad=pad) > 0)
        dx, dw, db = conv2d_grad_loops(x, w, g, stride=stride, pad=pad)
        np.testing.assert_allclose(xt.grad, dx, atol=1e-10, rtol=0)
        np.testing.assert_allclose(wt.grad, dw, atol=1e-10, rtol=0)
        np.testing.assert_allclose(bt.grad.reshape(-1), db, atol=1e-10, rtol=0)

    def test_dx_uses_the_weights_of_the_forward(self):
        """The optimizer updates weights in place between steps; a backward
        run after that still differentiates the forward that was taped."""
        x = T.tensor(rand((2, 3, 7, 7), 40), requires_grad=True)
        w = T.tensor(rand((4, 3, 3, 3), 41), requires_grad=True)
        g = T.tensor(rand((2, 4, 7, 7), 42))
        with T.Tape():
            loss = T.reduce_sum(T.mul(T.conv2d(x, w, None, stride=1, pad=1), g))
        w0 = w.data.copy()
        w.data += 1.0
        T.backward(loss)
        dx, _, _ = conv2d_grad_loops(x.data, w0, g.data, stride=1, pad=1)
        np.testing.assert_allclose(x.grad, dx, atol=1e-10, rtol=0)


class _NaNEmpty:
    """numpy, except that ``empty`` and ``empty_like`` fill float arrays with NaN."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float, **kw):
        out = np.empty(shape, dtype=dtype, **kw)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out

    @staticmethod
    def empty_like(a, dtype=None, **kw):
        out = np.empty_like(a, dtype=dtype, **kw)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out


class TestConv2dReadsOnlyWhatItWrote:
    """conv2d with every ``empty`` buffer NaN-filled: a stack column, an
    accumulator entry or a padding zero that the op reads before writing
    would turn up as NaN instead of hiding behind fresh zero pages."""

    @pytest.mark.parametrize("budget", [1, 20, 37, 160])
    @pytest.mark.parametrize("seed,shape,wshape,stride,pad", ORACLE_CASES)
    def test_forward_and_backward_match_oracle(self, monkeypatch, budget, seed, shape, wshape, stride, pad):
        monkeypatch.setattr(T, "CONV_BLOCK", budget)
        monkeypatch.setattr(T, "np", _NaNEmpty())
        x = rand(shape, seed)
        w = rand(wshape, seed + 100)
        b = rand((wshape[0],), seed + 200)
        want = conv2d_loops(x, w, b, stride=stride, pad=pad)
        for relu in (False, True):
            xt, wt, bt = (T.tensor(a, requires_grad=True) for a in (x, w, b.reshape(1, -1, 1, 1)))
            with T.Tape():
                out = T.conv2d(xt, wt, bt, stride=stride, pad=pad, relu=relu)
                g = rand(out.shape, seed + 300)
                T.backward(T.reduce_sum(T.mul(out, T.tensor(g))))
            np.testing.assert_allclose(out.data, np.maximum(want, 0) if relu else want, atol=1e-10, rtol=0)
            dx, dw, db = conv2d_grad_loops(x, w, g * (want > 0) if relu else g, stride=stride, pad=pad)
            np.testing.assert_allclose(xt.grad, dx, atol=1e-10, rtol=0)
            np.testing.assert_allclose(wt.grad, dw, atol=1e-10, rtol=0)
            np.testing.assert_allclose(bt.grad.reshape(-1), db, atol=1e-10, rtol=0)


class TestConv2dFusedSigmoid:
    """``conv2d(..., sigmoid=True)`` is ``sigmoid(conv2d(...))`` bit for bit, output
    and every gradient, at every row-block size, with NaN-filled ``empty`` buffers."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("budget", [1, 20, 37, 160])
    @pytest.mark.parametrize("seed,shape,wshape,stride,pad", ORACLE_CASES)
    def test_equals_sigmoid_of_conv2d(self, monkeypatch, dtype, budget, seed, shape, wshape, stride, pad):
        monkeypatch.setattr(T, "CONV_BLOCK", budget)
        monkeypatch.setattr(T, "np", _NaNEmpty())

        def run(fused):
            # weights scaled by 3 so that some outputs saturate the sigmoid
            x, w, b = (T.Tensor(a.astype(dtype), requires_grad=True)
                       for a in (rand(shape, seed), 3.0 * rand(wshape, seed + 100),
                                 rand((1, wshape[0], 1, 1), seed + 200)))
            with T.Tape():
                if fused:
                    out = T.conv2d(x, w, b, stride=stride, pad=pad, sigmoid=True)
                else:
                    out = T.sigmoid(T.conv2d(x, w, b, stride=stride, pad=pad))
                T.backward(T.reduce_sum(T.mul(out, T.Tensor(rand(out.shape, seed + 300).astype(dtype)))))
            return [out.data.tobytes()] + [t.grad.tobytes() for t in (x, w, b)]

        assert run(True) == run(False)

    def test_relu_and_sigmoid_cannot_be_combined(self):
        x, w = T.zeros((1, 1, 3, 3)), T.zeros((1, 1, 3, 3))
        with pytest.raises(ValueError, match="relu and sigmoid"):
            T.conv2d(x, w, pad=1, relu=True, sigmoid=True)


class TestConv2dConcat:
    """``conv2d(x, w, b, concat=groups)`` is ``conv2d`` of the channel
    concatenation bit for bit: output, each group's gradient, dw and db, at
    one-row and whole-batch blocks, with NaN-filled ``empty`` buffers."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("budget", [1, 8192])
    @pytest.mark.parametrize("widths, tracked", [((2, 3), (True, False)), ((1, 2, 3), (True, False, True)),
                                                 ((2, 1, 2), (False, True, True))],
                             ids=["two_groups", "three_groups", "untracked_x"])
    @pytest.mark.parametrize("k, stride, pad", [(k, s, p) for k in (1, 3) for s in (1, 2) for p in (0, 1)])
    def test_equals_conv2d_of_concat_channels(self, monkeypatch, dtype, budget, widths, tracked, k, stride, pad):
        monkeypatch.setattr(T, "CONV_BLOCK", budget)
        monkeypatch.setattr(T, "np", _NaNEmpty())
        ci = sum(widths)

        def run(grouped):
            groups = [T.Tensor(rand((2, c, 6, 5), 50 + i).astype(dtype), requires_grad=t)
                      for i, (c, t) in enumerate(zip(widths, tracked))]
            w = T.Tensor(rand((4, ci, k, k), 60).astype(dtype), requires_grad=True)
            b = T.Tensor(rand((1, 4, 1, 1), 61).astype(dtype), requires_grad=True)
            with T.Tape():
                if grouped:
                    out = T.conv2d(groups[0], w, b, stride=stride, pad=pad, concat=tuple(groups[1:]))
                else:
                    x = groups[0]
                    for t in groups[1:]:
                        x = T.concat_channels(x, t)
                    out = T.conv2d(x, w, b, stride=stride, pad=pad)
                T.backward(T.reduce_sum(T.mul(out, T.Tensor(rand(out.shape, 62).astype(dtype)))))
            return [out.data.tobytes()] + [None if t.grad is None else t.grad.tobytes() for t in (*groups, w, b)]

        got = run(True)
        assert got == run(False)
        assert [g is not None for g in got[1:1 + len(widths)]] == list(tracked)

    @pytest.mark.parametrize("shape, dtype", [((1, 2, 5, 6), np.float32), ((2, 2, 4, 6), np.float32),
                                              ((2, 2, 5, 7), np.float32), ((2, 2, 5, 6), np.float64)],
                             ids=["n", "h", "w", "dtype"])
    def test_group_unlike_the_input_names_both_shapes(self, shape, dtype):
        x, w = T.zeros((2, 3, 5, 6)), T.zeros((1, 5, 3, 3))
        with pytest.raises(ValueError, match=re.escape(f"{shape}") + ".*" + re.escape(f"{x.shape}")):
            T.conv2d(x, w, pad=1, concat=(T.zeros(shape, dtype=dtype),))


class TestConv2dStride:
    """Stride s is the stride-1 conv kept at every s-th anchor, bit for bit:
    the output is the stride-1 output's ``[:, :, ::s, ::s]``, and ``grad_fn(g)``
    is the stride-1 ``grad_fn`` of g written onto those anchors of a zero
    array, for dx, dw and db.  Budget 20 splits the anchor rows into blocks."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("budget", [20, 8192])
    @pytest.mark.parametrize("act", [{}, {"relu": True}, {"sigmoid": True}], ids=["plain", "relu", "sigmoid"])
    @pytest.mark.parametrize("shape,wshape,stride,pad", [
        ((2, 3, 7, 10), (4, 3, 3, 3), 2, 1),
        ((2, 3, 6, 7), (2, 3, 1, 1), 2, 0),
        ((1, 2, 9, 8), (3, 2, 5, 5), 3, 2),
    ], ids=["k3_s2", "k1_s2", "k5_s3"])
    def test_equals_subsampled_stride1(self, monkeypatch, dtype, budget, act, shape, wshape, stride, pad):
        monkeypatch.setattr(T, "CONV_BLOCK", budget)
        x, w, b = (T.Tensor(a.astype(dtype), requires_grad=True)
                   for a in (rand(shape, 0), rand(wshape, 1), rand((1, wshape[0], 1, 1), 2)))
        with T.Tape():
            strided = T.conv2d(x, w, b, stride=stride, pad=pad, **act)
            dense = T.conv2d(x, w, b, stride=1, pad=pad, **act)
        assert_same_bits(strided.data, dense.data[:, :, ::stride, ::stride])
        g = rand(strided.shape, 3).astype(dtype)
        g_dense = np.zeros(dense.shape, dtype=dtype)
        g_dense[:, :, ::stride, ::stride] = g
        for got, want in zip(strided.node.grad_fn(g), dense.node.grad_fn(g_dense)):
            assert_same_bits(got, want)

    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_1_is_rejected(self, stride):
        x, w = T.zeros((1, 1, 5, 5)), T.zeros((1, 1, 3, 3))
        with pytest.raises(ValueError, match="stride must be >= 1"):
            T.conv2d(x, w, pad=1, stride=stride)


class TestConvTranspose2d:
    def test_tiles_2x2_blocks(self):
        v = 0.37
        x = T.full((1, 1, 2, 2), v, dtype=np.float64)
        w = T.ones((1, 1, 2, 2), dtype=np.float64)
        out = T.conv_transpose2d(x, w, T.zeros((1, 1, 1, 1), dtype=np.float64))
        assert out.shape == (1, 1, 4, 4)
        np.testing.assert_allclose(out.data, v)

    def test_zero_input(self):
        out = T.conv_transpose2d(T.zeros((1, 3, 2, 2), dtype=np.float64),
                                 T.tensor(rand((3, 2, 2, 2), 7)))
        np.testing.assert_array_equal(out.data, 0.0)

    @pytest.mark.parametrize("seed,shape,co", [(0, (1, 4, 3, 3), 2), (1, (2, 2, 4, 5), 3),
                                               (2, (1, 1, 6, 6), 1), (3, (2, 5, 2, 2), 4),
                                               (4, (1, 3, 5, 4), 6)])
    def test_matches_loop_oracle(self, seed, shape, co):
        x = rand(shape, seed)
        w = rand((shape[1], co, 2, 2), seed + 50)
        b = rand((co,), seed + 90)
        got = T.conv_transpose2d(T.tensor(x), T.tensor(w), T.tensor(b.reshape(1, -1, 1, 1)))
        np.testing.assert_allclose(got.data, conv_transpose2d_loops(x, w, b), atol=1e-10, rtol=0)

    def test_adjoint_of_stride2_conv(self):
        # <conv_T(x), y> == <x, conv(y)> where conv is the k=2 s=2 forward map
        x = rand((1, 4, 3, 3), 11)
        y = rand((1, 2, 6, 6), 12)
        w = rand((4, 2, 2, 2), 13)
        up = T.conv_transpose2d(T.tensor(x), T.tensor(w)).data
        # matching stride-2 k=2 conv with weight transposed to (Cin=2 -> Cout=4)
        down = np.zeros((1, 4, 3, 3))
        for u in range(2):
            for v in range(2):
                down += np.einsum("nchw,co->nohw", y[:, :, u::2, v::2], w[:, :, u, v].T)
        assert abs((up * y).sum() - (x * down).sum()) < 1e-8


class TestMaxpool:
    def test_simple(self):
        x = T.tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        assert T.maxpool2x2(x).item() == 4.0

    def test_constant(self):
        out = T.maxpool2x2(T.full((1, 3, 8, 8), 0.7, dtype=np.float64))
        assert out.shape == (1, 3, 4, 4)
        np.testing.assert_allclose(out.data, 0.7)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_window_oracle(self, seed):
        x = rand((1, 2, 8, 8), seed)
        got = T.maxpool2x2(T.tensor(x))
        np.testing.assert_array_equal(got.data, maxpool2x2_loops(x))

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError, match="even"):
            T.maxpool2x2(T.zeros((1, 1, 3, 4)))

    @staticmethod
    def grad(x, g):
        with T.Tape():
            xt = T.tensor(x, requires_grad=True)
            out = T.maxpool2x2(xt)
            T.backward(T.reduce_sum(T.mul(out, T.tensor(g))))
        return xt.grad

    def test_constant_input_routes_to_top_left(self):
        g = rand((2, 3, 4, 4), 7)
        want = np.zeros((2, 3, 8, 8))
        want[:, :, ::2, ::2] = g
        np.testing.assert_array_equal(self.grad(np.full((2, 3, 8, 8), 0.7), g), want)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_backward_matches_window_oracle(self, seed):
        # rounded values put ties, zeros included, inside many windows
        x = np.maximum(np.round(rand((2, 3, 8, 6), seed) * 2), 0.0)
        g = rand((2, 3, 4, 3), seed + 50)
        np.testing.assert_array_equal(self.grad(x, g), maxpool2x2_grad_loops(x, g))

    def test_nan_window_gets_no_gradient(self):
        x = rand((1, 1, 4, 4), 3)
        x[0, 0, 1, 0] = np.nan
        dx = self.grad(x, np.ones((1, 1, 2, 2)))
        assert np.isnan(T.maxpool2x2(T.tensor(x)).data[0, 0, 0, 0])
        np.testing.assert_array_equal(dx[0, 0, :2, :2], 0.0)
        assert dx.sum() == 3.0


class TestMaskMean3x3:
    def test_ones_padding_arithmetic(self):
        out = T.mask_mean3x3(T.ones((1, 1, 5, 5), dtype=np.float64)).data[0, 0]
        assert out[2, 2] == pytest.approx(1.0)
        assert out[0, 2] == pytest.approx(6 / 9)
        assert out[0, 0] == pytest.approx(4 / 9)
        assert out.min() >= 4 / 9 - 1e-12 and out.max() <= 1 + 1e-12

    def test_zeros(self):
        np.testing.assert_array_equal(T.mask_mean3x3(T.zeros((1, 2, 4, 4))).data, 0.0)

    @pytest.mark.parametrize("seed,shape", [(0, (1, 3, 6, 6)), (1, (2, 1, 5, 7)),
                                            (2, (1, 2, 3, 3)), (3, (1, 1, 8, 4)),
                                            (4, (2, 2, 4, 4)), (5, (2, 1, 1, 6)),
                                            (6, (2, 1, 6, 1))])
    def test_matches_nine_point_oracle(self, seed, shape):
        m = rand(shape, seed, lo=0.0, hi=1.0)
        got = T.mask_mean3x3(T.tensor(m))
        np.testing.assert_allclose(got.data, mask_mean3x3_loops(m), atol=1e-12, rtol=0)


class TestDownsample2x:
    def test_constant(self):
        out = T.downsample2x(T.full((1, 2, 6, 6), 0.3, dtype=np.float64))
        np.testing.assert_allclose(out.data, 0.3)

    def test_block_mean(self):
        x = T.tensor(np.array([[0.0, 2.0], [4.0, 6.0]]).reshape(1, 1, 2, 2))
        assert T.downsample2x(x).item() == 3.0

    def test_two_applications_match_4x4_block_mean(self):
        x = rand((1, 3, 8, 8), 9)
        got = T.downsample2x(T.downsample2x(T.tensor(x)))
        assert got.shape == (1, 3, 2, 2)
        np.testing.assert_allclose(got.data, block_mean_loops(x, 4), atol=1e-12, rtol=0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 1, 2, 2), (2, 3, 6, 2), (2, 3, 8, 6), (4, 3, 64, 64), (1, 5, 14, 30),
                                       (1, 16, 2, 8)])
    def test_bytes_match_reshape_mean_and_repeat(self, shape, dtype):
        seed = sum(shape)
        x = T.Tensor(rand(shape, seed, lo=-3.0, hi=3.0).astype(dtype), requires_grad=True)
        with T.Tape():
            out = T.downsample2x(x)
        assert out.data.tobytes() == downsample2x_reshape_mean(x.data).tobytes()
        g = rand(out.shape, seed + 1, lo=-3.0, hi=3.0).astype(dtype)
        (dx,) = out.node.grad_fn(g)
        want = downsample2x_grad_repeat(g)
        assert dx.dtype == want.dtype and dx.tobytes() == want.tobytes()


class TestSpatialGradient:
    def test_constant_is_zero(self):
        gx, gy = T.spatial_gradient(T.full((1, 2, 4, 4), 0.8))
        np.testing.assert_array_equal(gx.data, 0.0)
        np.testing.assert_array_equal(gy.data, 0.0)

    def test_ramp(self):
        x = np.tile(np.arange(5.0), (4, 1)).reshape(1, 1, 4, 5)
        gx, gy = T.spatial_gradient(T.tensor(x))
        np.testing.assert_array_equal(gx.data[..., :-1], 1.0)
        np.testing.assert_array_equal(gx.data[..., -1], 0.0)
        np.testing.assert_array_equal(gy.data, 0.0)

    def test_matches_shifted_subtraction(self):
        x = rand((2, 3, 5, 6), 17)
        gx, gy = T.spatial_gradient(T.tensor(x))
        np.testing.assert_array_equal(gx.data[:, :, :, :-1], x[:, :, :, 1:] - x[:, :, :, :-1])
        np.testing.assert_array_equal(gy.data[:, :, :-1, :], x[:, :, 1:, :] - x[:, :, :-1, :])

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            T.spatial_gradient(T.zeros((1, 1, 1, 4)))


class TestElementwise:
    def test_sigmoid_tanh_at_zero(self):
        z = T.zeros((1, 1, 2, 2), dtype=np.float64)
        np.testing.assert_allclose(T.sigmoid(z).data, 0.5)
        np.testing.assert_allclose(T.tanh(z).data, 0.0)

    def test_sub_self_is_zero(self):
        x = T.tensor(rand((1, 2, 3, 3), 3))
        np.testing.assert_array_equal(T.sub(x, x).data, 0.0)

    def test_sigmoid_matches_scalar_evaluation(self):
        x = rand((1, 2, 4, 4), 21, lo=-6, hi=6)
        got = T.sigmoid(T.tensor(x)).data
        want = np.array([1.0 / (1.0 + np.exp(-float(v))) for v in x.reshape(-1)]).reshape(x.shape)
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            T.add(T.zeros((1, 1, 2, 2)), T.zeros((1, 2, 2, 2)))

    def test_clamp01(self):
        x = T.tensor(np.array([-0.5, 0.25, 1.5, 1.0]).reshape(1, 1, 2, 2))
        np.testing.assert_array_equal(T.clamp(x, 0.0, 1.0).data.reshape(-1), [0.0, 0.25, 1.0, 1.0])

    def test_leaky_relu(self):
        x = T.tensor(np.array([-1.0, 2.0]).reshape(1, 1, 1, 2))
        np.testing.assert_allclose(T.leaky_relu(x, 0.2).data.reshape(-1), [-0.2, 2.0])


class TestConcat:
    def test_shapes(self):
        out = T.concat_channels(T.zeros((1, 2, 4, 4)), T.zeros((1, 3, 4, 4)))
        assert out.shape == (1, 5, 4, 4)

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(ValueError):
            T.concat_channels(T.zeros((1, 1, 4, 4)), T.zeros((1, 1, 2, 4)))


class TestReduce:
    def test_l1(self):
        x = T.tensor(np.array([-1.0, 2.0, -3.0, 0.0]).reshape(1, 1, 2, 2))
        assert T.l1_norm(x).item() == 6.0

    def test_frobenius(self):
        x = T.tensor(np.array([3.0, 4.0, 0.0, 0.0]).reshape(1, 1, 2, 2))
        assert T.frobenius_norm(x).item() == pytest.approx(5.0)

    def test_mean_matches_direct_summation(self):
        x = rand((2, 3, 4, 4), 41)
        want = x.sum() / x.size
        assert abs(T.reduce_mean(T.tensor(x)).item() - want) < 1e-12


class TestDeterminism:
    def test_bit_identical_across_runs(self):
        def run():
            x = T.tensor(rand((2, 3, 8, 8), 77))
            w = T.tensor(rand((4, 3, 3, 3), 78))
            y = T.conv2d(x, w, None, stride=1, pad=1)
            y = T.sigmoid(y)
            return T.maxpool2x2(y).data

        a, b = run(), run()
        assert a.tobytes() == b.tobytes()


def with_specials(x, seed):
    """*x* with +-0, +-inf, +-max, +-tiny, +-smallest subnormal, values near
    exp's overflow and one NaN planted at seeded positions."""
    fi = np.finfo(x.dtype)
    specials = [0.0, -0.0, np.inf, -np.inf, fi.max, -fi.max, fi.tiny, -fi.tiny,
                fi.smallest_subnormal, -fi.smallest_subnormal, 1e30, -1e30, 88.7, -88.7, 745.0, -745.0, np.nan]
    out = x.copy()
    flat = out.reshape(-1)
    at = np.random.Generator(np.random.PCG64(seed)).choice(flat.size, size=len(specials), replace=False)
    flat[at] = specials
    return out


def assert_same_bits(got, want):
    """Equal dtype and shape, NaN at the same entries and every other entry equal byte for byte."""
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf, inf * 0 and exp overflow, on purpose
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestMaskOpsMatchWholePlaneFormulas:
    """``sigmoid``, ``mask_mean3x3`` and ``mask_renorm`` compute, forward and
    backward, the bytes of their whole-plane ``np.where`` / padded-copy
    formulas in ``oracles``, on special values too, with NaN-filled
    ``empty`` buffers."""

    @pytest.fixture(autouse=True)
    def nan_empty(self, monkeypatch):
        monkeypatch.setattr(T, "np", _NaNEmpty())

    def test_sigmoid(self, dtype):
        rng = np.random.Generator(np.random.PCG64(600))
        # magnitudes from 1e-8 to 1e3, both signs, then the special values
        x = (rng.standard_normal((2, 5, 100, 100)) * 10.0 ** rng.uniform(-8, 3, (2, 5, 100, 100))).astype(dtype)
        x = with_specials(x, 601)
        with T.Tape():
            out = T.sigmoid(T.Tensor(x, requires_grad=True))
        want = sigmoid_where(x)
        assert_same_bits(out.data, want)
        g = with_specials(rand(x.shape, 602).astype(dtype), 603)
        assert_same_bits(out.node.grad_fn(g)[0], sigmoid_grad_where(g, want))

    @pytest.mark.parametrize("shape", [(2, 3, 5, 6), (1, 2, 1, 4), (1, 1, 4, 1), (1, 1, 2, 3), (1, 1, 1, 1)])
    @pytest.mark.parametrize("fill", ["specials", "negative_zeros"])
    def test_mask_mean3x3(self, dtype, shape, fill):
        if fill == "specials":
            m = with_specials(rand((2, 3, 5, 6), 610).astype(dtype), 611)[:shape[0], :shape[1], :shape[2], :shape[3]]
        else:
            m = np.full(shape, -0.0, dtype=dtype)  # a padded sum turns each into +0
        with T.Tape():
            out = T.mask_mean3x3(T.Tensor(m, requires_grad=True))
        assert_same_bits(out.data, mask_mean3x3_padded(np.ascontiguousarray(m)))
        g = with_specials(rand((2, 3, 5, 6), 612).astype(dtype), 613)[:shape[0], :shape[1], :shape[2], :shape[3]]
        g = np.ascontiguousarray(g)
        assert_same_bits(out.node.grad_fn(g)[0], mask_mean3x3_padded(g))

    @pytest.mark.parametrize("relu", [False, True])
    def test_mask_renorm(self, dtype, relu):
        shape = (2, 4, 6, 7)
        eps = 1e-8
        y = with_specials(rand(shape, 620).astype(dtype), 621)
        mbar = rand(shape, 622, 0.0, 1.0).astype(dtype)
        at_eps = dtype(eps)  # the comparison mbar > eps runs in mbar's dtype
        low = [at_eps, np.nextafter(at_eps, dtype(0)), np.nextafter(at_eps, dtype(1)), 0.0, -0.0, -0.5,
               np.finfo(dtype).smallest_subnormal, np.inf, -np.inf, np.nan]
        mbar.reshape(-1)[np.random.Generator(np.random.PCG64(623)).choice(mbar.size, 40, replace=False)] = low * 4
        mbar[1, 2, :3] = 0.0  # a suppressed block
        # y*0 + b*0 on a suppressed entry: a positive b turns -0 into +0, inf into NaN
        b = np.array([-1.5, -0.0, 0.75, np.inf], dtype=dtype).reshape(1, shape[1], 1, 1)
        yt, mt, bt = (T.Tensor(a, requires_grad=True) for a in (y, mbar, b))
        with T.Tape():
            out = T.mask_renorm(yt, mt, bt, eps=eps, relu=relu)
        assert_same_bits(out.data, mask_renorm_where(y, mbar, b, eps, relu))
        g = with_specials(rand(shape, 625).astype(dtype), 626)
        for got, want in zip(out.node.grad_fn(g), mask_renorm_grad_where(y, mbar, b, g, eps, relu)):
            assert_same_bits(got, want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * 0, on purpose
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestLeakyReluMatchesWhereForm:
    """``leaky_relu``'s max form and its backward give the bytes of the
    ``np.where`` forms in ``oracles``, on random data and special values."""

    @pytest.mark.parametrize("slope", [0.2, 0.01, 1.0])
    def test_forward_and_backward(self, dtype, slope):
        rng = np.random.Generator(np.random.PCG64(640))
        # both signs, magnitudes from 1e-40 (subnormal in float32) to 1e30, then the special values
        x = (rng.standard_normal((2, 3, 40, 40)) * 10.0 ** rng.uniform(-40, 30, (2, 3, 40, 40))).astype(dtype)
        x = with_specials(x, 641)
        with T.Tape():
            out = T.leaky_relu(T.Tensor(x, requires_grad=True), slope)
        assert_same_bits(out.data, leaky_relu_where(x, slope))
        assert np.isnan(out.data[np.isnan(x)]).all() and np.isnan(x).any()
        g = with_specials(rand(x.shape, 642).astype(dtype), 643)
        assert_same_bits(out.node.grad_fn(g)[0], leaky_relu_grad_where(x, g, slope))

    @pytest.mark.parametrize("slope", [0.0, -0.2, 1.5, np.nan])
    def test_slope_outside_range_rejected(self, dtype, slope):
        with pytest.raises(ValueError, match="slope"):
            T.leaky_relu(T.Tensor(np.ones((1, 1, 2, 2), dtype=dtype)), slope)


class TestOpPeakMemory:
    """The traced peak of one forward, in multiples of its output bytes, at (1, 16, 64, 64) float32."""

    @staticmethod
    def peak_ratio(op):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = op()
            return (tracemalloc.get_traced_memory()[1] - before) / out.data.nbytes
        finally:
            tracemalloc.stop()

    # a 1x1 conv on one image reads its blocks as views of the input: no stack
    # buffer and no second accumulator, so the output and one accumulator
    @pytest.mark.parametrize("op", ["sigmoid", "mask_mean3x3", "mask_renorm", "mask_renorm_relu", "conv2d_1x1"])
    def test_peak_within_two_and_a_half_outputs(self, op):
        shape = (1, 16, 64, 64)
        x = T.tensor(rand(shape, 630, -6, 6).astype(np.float32))
        m = T.tensor(rand(shape, 631, 0.0, 1.0).astype(np.float32))
        b = T.tensor(rand((1, 16, 1, 1), 632).astype(np.float32))
        w = T.tensor(rand((16, 16, 1, 1), 633).astype(np.float32))
        fn = {"sigmoid": lambda: T.sigmoid(x),
              "mask_mean3x3": lambda: T.mask_mean3x3(m),
              "mask_renorm": lambda: T.mask_renorm(x, m, b),
              "mask_renorm_relu": lambda: T.mask_renorm(x, m, b, relu=True),
              "conv2d_1x1": lambda: T.conv2d(x, w, b)}[op]
        assert self.peak_ratio(fn) <= 2.5
