"""Reverse-mode gradients checked against central finite differences."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import ragnet.tensor as T


def rand(shape, seed, lo=-1.0, hi=1.0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.uniform(lo, hi, size=shape).astype(np.float64)


def leaf(shape, seed, lo=-1.0, hi=1.0):
    return T.tensor(rand(shape, seed, lo, hi), requires_grad=True)


class TestBackwardContract:
    def test_sum_gives_ones(self):
        x = leaf((2, 1, 3, 3), 0)
        with T.Tape():
            loss = T.reduce_sum(x)
            T.backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones_like(x.data))

    def test_squared_frobenius_gives_2x(self):
        x = leaf((1, 2, 3, 3), 1)
        with T.Tape():
            f = T.frobenius_norm(x)
            loss = T.mul(f, f)
            T.backward(loss)
        np.testing.assert_allclose(x.grad, 2.0 * x.data, atol=1e-10)

    def test_non_scalar_rejected(self):
        x = leaf((1, 1, 2, 2), 2)
        with T.Tape():
            y = T.relu(x)
            with pytest.raises(ValueError, match="scalar"):
                T.backward(y)

    def test_accumulation_across_uses(self):
        x = leaf((1, 1, 2, 2), 3)
        with T.Tape():
            loss = T.reduce_sum(T.add(x, x))
            T.backward(loss)
        np.testing.assert_array_equal(x.grad, 2.0 * np.ones_like(x.data))

    def test_concat_backward_splits(self):
        a = leaf((1, 2, 3, 3), 4)
        b = leaf((1, 3, 3, 3), 5)
        with T.Tape():
            loss = T.reduce_sum(T.concat_channels(a, b))
            T.backward(loss)
        np.testing.assert_array_equal(a.grad, 1.0)
        np.testing.assert_array_equal(b.grad, 1.0)

    def test_detach_blocks_gradient(self):
        x = leaf((1, 1, 2, 2), 6)
        with T.Tape():
            loss = T.reduce_sum(x.detach())
            T.backward(loss)
        assert x.grad is None

    def test_graph_freed_without_cycle_collector(self):
        x = leaf((1, 2, 4, 4), 7)
        w = leaf((2, 2, 3, 3), 8)
        gc.disable()
        try:
            with T.Tape():
                mid = T.relu(T.conv2d(x, w, None, stride=1, pad=1))
                loss = T.reduce_sum(T.mask_mean3x3(mid))
                T.backward(loss)
            ref = weakref.ref(mid)
            del mid, loss
            assert ref() is None
        finally:
            gc.enable()
        assert x.grad is not None and w.grad is not None

    def test_only_leaves_get_grad(self):
        x = leaf((1, 2, 4, 4), 10)
        w = leaf((2, 2, 3, 3), 11)
        with T.Tape():
            mid = T.relu(T.conv2d(x, w, None, stride=1, pad=1))
            loss = T.reduce_sum(T.add(mid, mid))
            T.backward(loss)
        assert mid.grad is None and loss.grad is None
        assert x.grad is not None and w.grad is not None
        assert x.grad.shape == x.shape and w.grad.shape == w.shape

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k, stride, pad", [(3, 1, 1), (3, 2, 1), (3, 2, 0), (1, 1, 0)])
    def test_conv2d_computes_only_the_gradients_its_parents_track(self, k, stride, pad, dtype):
        def parent_grads(x_tracks, w_tracks):
            x = T.Tensor(rand((2, 3, 6, 5), 20).astype(dtype), requires_grad=x_tracks)
            w = T.Tensor(rand((4, 3, k, k), 21).astype(dtype), requires_grad=w_tracks)
            b = T.Tensor(rand((1, 4, 1, 1), 22).astype(dtype), requires_grad=True)
            with T.Tape():
                out = T.conv2d(x, w, b, stride=stride, pad=pad)
            return out.node.grad_fn(rand(out.shape, 23).astype(dtype))

        dx, dw, db = parent_grads(True, True)
        input_fixed = parent_grads(False, True)
        weight_frozen = parent_grads(True, False)
        assert input_fixed[0] is None and weight_frozen[1] is None
        assert input_fixed[1].tobytes() == dw.tobytes()
        assert weight_frozen[0].tobytes() == dx.tobytes()
        assert input_fixed[2].tobytes() == weight_frozen[2].tobytes() == db.tobytes()

    @pytest.mark.parametrize("bad_grad", [lambda g: (g.astype(np.float32),),
                                          lambda g: (g[:, :, :1],)], ids=["dtype", "shape"])
    def test_parent_gradient_mismatch_names_op(self, bad_grad):
        x = leaf((1, 1, 2, 2), 9)
        with T.Tape():
            y = T._record("bad_op", (x,), T.Tensor(x.data * 2.0), bad_grad)
            loss = T.reduce_sum(y)
            with pytest.raises(ValueError, match="bad_op"):
                T.backward(loss)


class TestFusedRelu:
    """``conv2d(..., relu=True)`` is ``relu(conv2d(...))`` bit for bit, forward and backward."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k, stride, pad", [(3, 1, 1), (3, 2, 1), (3, 2, 0), (1, 1, 0), (5, 1, 2)])
    def test_equals_relu_of_conv2d(self, k, stride, pad, dtype):
        def run(fused):
            x = T.Tensor(rand((3, 4, 7, 6), 30).astype(dtype), requires_grad=True)
            w = T.Tensor(rand((5, 4, k, k), 31).astype(dtype), requires_grad=True)
            b = T.Tensor(rand((1, 5, 1, 1), 32).astype(dtype), requires_grad=True)
            with T.Tape():
                if fused:
                    out = T.conv2d(x, w, b, stride=stride, pad=pad, relu=True)
                else:
                    out = T.relu(T.conv2d(x, w, b, stride=stride, pad=pad))
                T.backward(T.reduce_sum(T.mul(out, T.Tensor(rand(out.shape, 33).astype(dtype)))))
            return [out.data.tobytes()] + [t.grad.tobytes() for t in (x, w, b)]

        fused, plain = run(True), run(False)
        assert fused == plain
        out = np.frombuffer(fused[0], dtype=dtype)
        assert (out == 0).any() and (out > 0).any()


class TestTapeRetention:
    """What a recorded op keeps alive beyond its output, traced at (2, 8, 64, 64) -> 8 in float32."""

    @staticmethod
    def retained(op):
        """Bytes that *op* () leaves allocated beyond the data of the tensor it returns."""
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = op()
            return tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("relu", [False, True])
    def test_conv2d_keeps_no_copy_of_its_input(self, relu):
        x = T.Tensor(rand((2, 8, 64, 64), 500).astype(np.float32), requires_grad=True)
        w = T.Tensor(rand((8, 8, 3, 3), 501).astype(np.float32), requires_grad=True)
        b = T.Tensor(rand((1, 8, 1, 1), 502).astype(np.float32), requires_grad=True)
        with T.Tape():
            kept = self.retained(lambda: T.conv2d(x, w, b, pad=1, relu=relu))
        assert kept < x.data.nbytes / 2

    @pytest.mark.parametrize("relu", [False, True])
    def test_mask_renorm_keeps_no_reciprocal(self, relu):
        y = T.Tensor(rand((2, 8, 64, 64), 510).astype(np.float32), requires_grad=True)
        mbar = T.Tensor(rand((2, 8, 64, 64), 511, 0.0, 1.0).astype(np.float32), requires_grad=True)
        b = T.Tensor(rand((1, 8, 1, 1), 512).astype(np.float32), requires_grad=True)
        with T.Tape():
            kept = self.retained(lambda: T.mask_renorm(y, mbar, b, relu=relu))
        assert kept < y.data.nbytes / 2

    def test_conv2d_backward_keeps_one_scratch_buffer(self):
        """dw's input stacks and dx's gradient stacks share one buffer, so the
        traced peak of one backward stays at or below 5x the input bytes."""
        x = T.Tensor(rand((2, 8, 64, 64), 520).astype(np.float32), requires_grad=True)
        w = T.Tensor(rand((8, 8, 3, 3), 521).astype(np.float32), requires_grad=True)
        b = T.Tensor(rand((1, 8, 1, 1), 522).astype(np.float32), requires_grad=True)
        with T.Tape():
            out = T.conv2d(x, w, b, pad=1, relu=True)
        g = rand(out.shape, 523).astype(np.float32)
        gc.collect()
        tracemalloc.start()
        try:
            out.node.grad_fn(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * x.data.nbytes


class TestFloat32:
    @pytest.mark.parametrize("op", ["conv2d", "conv2d_stride2", "mask_mean3x3", "conv2d_stride2_odd",
                                    "conv2d_relu"])
    def test_stencils_keep_float32(self, op):
        x = T.tensor(rand((2, 3, 6, 5), 400).astype(np.float32), requires_grad=True)
        w = T.tensor(rand((4, 3, 3, 3), 401).astype(np.float32), requires_grad=True)
        b = T.tensor(rand((1, 4, 1, 1), 402).astype(np.float32), requires_grad=True)
        fn, leaves = {"conv2d": (lambda: T.conv2d(x, w, b, stride=1, pad=1), [x, w, b]),
                      "conv2d_stride2": (lambda: T.conv2d(x, w, b, stride=2, pad=1), [x, w, b]),
                      "mask_mean3x3": (lambda: T.mask_mean3x3(x), [x]),
                      # a 6x5 input at stride 2 without padding: a 4x3 stride-1 output kept at 2x2 anchors
                      "conv2d_stride2_odd": (lambda: T.conv2d(x, w, b, stride=2, pad=0), [x, w, b]),
                      "conv2d_relu": (lambda: T.conv2d(x, w, b, stride=1, pad=1, relu=True), [x, w, b])}[op]
        with T.Tape():
            out = fn()
            T.backward(T.reduce_sum(out))
        assert out.dtype == np.float32
        assert [t.grad.dtype for t in leaves] == [np.float32] * len(leaves)


class TestFiniteDifferences:
    """Every differentiable op passes the central-difference check on >= 3 seeded shapes."""

    SHAPES = [(1, 1, 4, 4), (2, 2, 4, 6), (1, 3, 6, 4)]

    def check(self, fn, *leaves, tol=1e-6):
        err = T.finite_diff_check(fn, list(leaves), step=1e-5)
        assert err is not None and err < tol, f"max relative error {err}"

    @pytest.mark.parametrize("i,shape", list(enumerate(SHAPES)))
    def test_conv2d(self, i, shape):
        x = leaf(shape, 10 + i)
        w = leaf((3, shape[1], 3, 3), 20 + i)
        b = leaf((1, 3, 1, 1), 30 + i)
        self.check(lambda x, w, b: T.reduce_sum(T.tanh(T.conv2d(x, w, b, stride=1, pad=1))), x, w, b)

    def test_conv2d_strided(self):
        x = leaf((1, 2, 6, 6), 40)
        w = leaf((2, 2, 3, 3), 41)
        self.check(lambda x, w: T.reduce_sum(T.conv2d(x, w, None, stride=2, pad=1)), x, w)

    @pytest.mark.parametrize("shape,wshape,stride,pad", [
        ((2, 3, 6, 6), (2, 3, 1, 1), 2, 0),
        ((1, 2, 9, 8), (3, 2, 5, 5), 3, 2),
        ((3, 2, 5, 7), (2, 2, 3, 3), 2, 0),
    ])
    def test_conv2d_phases(self, shape, wshape, stride, pad):
        x = leaf(shape, 42)
        w = leaf(wshape, 43)
        b = leaf((1, wshape[0], 1, 1), 44)
        self.check(lambda x, w, b: T.reduce_sum(T.tanh(T.conv2d(x, w, b, stride=stride, pad=pad))), x, w, b)

    @pytest.mark.parametrize("i,shape", list(enumerate(SHAPES)))
    def test_conv_transpose2d(self, i, shape):
        x = leaf(shape, 50 + i)
        w = leaf((shape[1], 2, 2, 2), 60 + i)
        b = leaf((1, 2, 1, 1), 70 + i)
        self.check(lambda x, w, b: T.reduce_sum(T.sigmoid(T.conv_transpose2d(x, w, b))), x, w, b)

    @pytest.mark.parametrize("i,shape", list(enumerate(SHAPES)))
    def test_maxpool(self, i, shape):
        x = leaf(shape, 80 + i)
        self.check(lambda x: T.reduce_sum(T.maxpool2x2(x)), x)

    @pytest.mark.parametrize("i,shape", list(enumerate(SHAPES)))
    def test_mask_mean3x3(self, i, shape):
        x = leaf(shape, 90 + i, lo=0.1, hi=0.9)
        self.check(lambda x: T.frobenius_norm(T.mask_mean3x3(x)), x)

    @pytest.mark.parametrize("i,shape", list(enumerate(SHAPES)))
    def test_downsample2x(self, i, shape):
        x = leaf(shape, 100 + i)
        self.check(lambda x: T.reduce_sum(T.tanh(T.downsample2x(x))), x)

    @pytest.mark.parametrize("i,shape", list(enumerate(SHAPES)))
    def test_spatial_gradient(self, i, shape):
        x = leaf(shape, 110 + i)
        self.check(lambda x: T.reduce_sum(T.mul(*T.spatial_gradient(x))), x)

    @pytest.mark.parametrize("op", ["relu", "sigmoid", "tanh", "abs", "clamp01"])
    def test_unary(self, op):
        fn = {"relu": T.relu, "sigmoid": T.sigmoid, "tanh": T.tanh,
              "abs": T.abs_, "clamp01": lambda x: T.clamp(x, 0.0, 1.0)}[op]
        for i, shape in enumerate(self.SHAPES):
            # keep points away from the kinks so finite differences are valid
            x = leaf(shape, 120 + i, lo=0.05, hi=0.95)
            self.check(lambda x: T.reduce_sum(fn(x)), x)

    def test_log_sqrt(self):
        for i, shape in enumerate(self.SHAPES):
            x = leaf(shape, 130 + i, lo=0.2, hi=2.0)
            self.check(lambda x: T.reduce_sum(T.log(x)), x)
            self.check(lambda x: T.reduce_sum(T.sqrt(x)), x)

    def test_binary_and_scalar(self):
        for i, shape in enumerate(self.SHAPES):
            a = leaf(shape, 140 + i)
            b = leaf(shape, 150 + i)
            self.check(lambda a, b: T.reduce_sum(T.mul(T.add(a, b), T.sub(a, b))), a, b)
            self.check(lambda a, b: T.reduce_mean(T.scalar_mul(T.mul(a, b), 2.5)), a, b)

    def test_leaky_relu(self):
        x = leaf((1, 2, 4, 4), 160, lo=0.05, hi=1.0)
        y = leaf((1, 2, 4, 4), 161, lo=-1.0, hi=-0.05)
        self.check(lambda x, y: T.reduce_sum(T.leaky_relu(T.mul(x, y))), x, y)

    def test_reductions(self):
        for i, shape in enumerate(self.SHAPES):
            x = leaf(shape, 170 + i, lo=0.1, hi=1.0)
            self.check(lambda x: T.l1_norm(x), x)
            self.check(lambda x: T.frobenius_norm(x), x)

    def test_mask_renorm(self):
        y = leaf((1, 2, 4, 4), 180)
        m = leaf((1, 2, 4, 4), 181, lo=0.2, hi=0.9)
        b = leaf((1, 2, 1, 1), 182)
        self.check(lambda y, m, b: T.reduce_sum(T.mask_renorm(y, T.mask_mean3x3(m), b)), y, m, b)

    def test_repeat_channels(self):
        x = leaf((1, 2, 3, 3), 190)
        self.check(lambda x: T.frobenius_norm(T.repeat_channels(x, 3)), x)

    def test_composite_graph(self):
        x = leaf((1, 2, 4, 4), 200)
        w = leaf((2, 2, 3, 3), 201)

        def fn(x, w):
            y = T.sigmoid(T.conv2d(x, w, None, stride=1, pad=1))
            gx, gy = T.spatial_gradient(y)
            return T.add(T.frobenius_norm(gx), T.l1_norm(gy))

        self.check(fn, x, w)

    def test_skipped_when_no_grad(self):
        x = T.tensor(rand((1, 1, 2, 2), 210))  # requires_grad=False
        assert T.finite_diff_check(lambda x: T.reduce_sum(x), [x]) is None


class TestAdjointness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_conv2d_input_adjoint(self, seed):
        # <conv(x, w), y> == <x, grad_x conv at y>
        x = leaf((1, 3, 6, 6), 300 + seed)
        w = T.tensor(rand((2, 3, 3, 3), 310 + seed))
        y = rand((1, 2, 6, 6), 320 + seed)
        with T.Tape():
            out = T.conv2d(x, w, None, stride=1, pad=1)
            loss = T.reduce_sum(T.mul(out, T.tensor(y)))
            T.backward(loss)
        lhs = (out.data * y).sum()
        rhs = (x.data * x.grad).sum()
        assert abs(lhs - rhs) < 1e-8
