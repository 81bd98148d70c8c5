"""Reverse-mode gradients checked against central finite differences."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import ragnet.tensor as T
from oracles import conv2d_grad_loops
from ragnet.gradcheck import CHECKS
from ragnet.trainer import AdamConfig, AdamState


def rand(shape, seed, lo=-1.0, hi=1.0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.uniform(lo, hi, size=shape).astype(np.float64)


def leaf(shape, seed, lo=-1.0, hi=1.0):
    return T.tensor(rand(shape, seed, lo, hi), requires_grad=True)


# the parents that the one tape rule is checked on: op-role and the parent's shape
ONE_RULE_PARENTS = {"conv2d-weight": (2, 2, 3, 3), "conv2d-bias": (1, 2, 1, 1),
                    "conv_transpose2d-input": (1, 2, 4, 4), "conv_transpose2d-weight": (2, 2, 2, 2),
                    "conv_transpose2d-bias": (1, 2, 1, 1), "mul-factor": (1, 2, 4, 4),
                    "conv2d_coverage-bias": (1, 2, 1, 1), "conv2d_coverage-coverage": (1, 1, 4, 4)}


def parent_of(kind, name, tracks):
    """The parent of *name* in ``ONE_RULE_PARENTS``, as a Parameter or a plain leaf, tracking or frozen."""
    data = rand(ONE_RULE_PARENTS[name], 590)
    if kind == "leaf":
        return T.tensor(data, requires_grad=tracks)
    p = T.Parameter("p", data)
    p.requires_grad = tracks
    return p


def op_on(name, p):
    """The summed output of op-role *name* with *p* in that role, and a leaf
    that tracks in another role, so the op is recorded whatever *p*'s flag."""
    x = leaf((2, 2, 2, 2) if name == "conv_transpose2d-input" else (1, 2, 4, 4), 591)
    w, wt = T.tensor(rand((2, 2, 3, 3), 592)), T.tensor(rand((2, 2, 2, 2), 593))
    cov, b = T.tensor(rand((1, 1, 4, 4), 594, lo=0.5, hi=1.0)), T.tensor(rand((1, 2, 1, 1), 595))
    out = {"conv2d-weight": lambda: T.conv2d(x, p, None, pad=1),
           "conv2d-bias": lambda: T.conv2d(x, w, p, pad=1),
           "conv_transpose2d-input": lambda: T.conv_transpose2d(p, x),  # x is the weight here
           "conv_transpose2d-weight": lambda: T.conv_transpose2d(x, p),
           "conv_transpose2d-bias": lambda: T.conv_transpose2d(x, wt, p),
           "mul-factor": lambda: T.mul(x, p),
           "conv2d_coverage-bias": lambda: T.conv2d(x, w, p, pad=1, coverage=cov),
           "conv2d_coverage-coverage": lambda: T.conv2d(x, w, b, pad=1, relu=True, coverage=p)}[name]()
    return T.reduce_sum(T.mul(out, T.tensor(rand(out.shape, 596)))), x


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

    def test_backward_releases_the_graph_while_the_loss_is_held(self):
        x = leaf((1, 2, 4, 4), 12)
        w = leaf((2, 2, 3, 3), 13)
        gc.disable()
        try:
            with T.Tape():
                mid = T.relu(T.conv2d(x, w, None, stride=1, pad=1))
                ref = weakref.ref(mid)
                loss = T.reduce_sum(T.leaky_relu(mid))  # leaky_relu's backward reads mid
                del mid
                assert ref() is not None  # the graph holds it until its gradient has been propagated
                T.backward(loss)
            assert ref() is None
            assert loss.node.parents == () and loss.node.grad_fn is None
        finally:
            gc.enable()
        assert x.grad is not None and w.grad is not None

    def test_second_backward_on_one_loss_raises_naming_the_op(self):
        x = leaf((1, 1, 2, 2), 14)
        with T.Tape():
            loss = T.frobenius_norm(T.tanh(x))
            T.backward(loss)
            grad = x.grad.copy()
            with pytest.raises(ValueError, match="frobenius_norm node was released"):
                T.backward(loss)
        assert x.grad.tobytes() == grad.tobytes()

    def test_backward_on_a_loss_sharing_a_released_subgraph_raises_naming_the_op(self):
        x = leaf((1, 1, 2, 2), 15)
        with T.Tape():
            shared = T.tanh(x)
            first = T.reduce_sum(shared)
            second = T.reduce_mean(shared)
            T.backward(first)
            grad = x.grad.copy()
            with pytest.raises(ValueError, match="tanh node was released"):
                T.backward(second)
        assert x.grad.tobytes() == grad.tobytes()

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
    def test_conv2d_with_a_coverage_keeps_no_reciprocal_and_no_raw_output(self, relu):
        """A one-channel reciprocal would be the coverage's size, a raw output Cout times it."""
        x = T.Tensor(rand((2, 8, 64, 64), 510).astype(np.float32), requires_grad=True)
        w = T.Tensor(rand((8, 8, 3, 3), 511).astype(np.float32), requires_grad=True)
        b = T.Tensor(rand((1, 8, 1, 1), 512).astype(np.float32), requires_grad=True)
        cov = T.Tensor(rand((2, 1, 64, 64), 513, 0.0, 1.0).astype(np.float32), requires_grad=True)
        with T.Tape():
            kept = self.retained(lambda: T.conv2d(x, w, b, pad=1, relu=relu, coverage=cov))
        assert kept < cov.data.nbytes / 2

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

    def test_sub_keeps_no_constant_operand(self):
        x = leaf((1, 2, 4, 4), 530)
        c = T.tensor(rand((1, 2, 4, 4), 531))
        d = x.data - c.data
        gc.disable()
        try:
            with T.Tape():
                diff = T.sub(x, c)
                loss = T.reduce_sum(T.mul(diff, diff))
                ref = weakref.ref(c)
                del c, diff
                assert ref() is None  # dead before the backward
                T.backward(loss)
        finally:
            gc.enable()
        assert x.grad.tobytes() == (d + d).tobytes()

    @pytest.mark.parametrize("op", [T.l1_norm, lambda d: T.reduce_sum(T.abs_(d))], ids=["l1_norm", "abs"])
    def test_a_sign_reader_keeps_only_the_sign(self, op):
        x = leaf((1, 2, 4, 4), 535)
        x.data[0, 0, 0, :3] = (-0.0, 0.0, np.nan)
        c = T.tensor(np.zeros_like(x.data))
        gc.disable()
        try:
            with T.Tape():
                d = T.sub(x, c)
                want = np.sign(d.data) * np.float64(1.0)
                loss = op(d)
                ref = weakref.ref(d)
                del d
                assert ref() is None  # its sign is all the backward reads
                T.backward(loss)
        finally:
            gc.enable()
        assert x.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("op", [T.add, T.sub], ids=["add", "sub"])
    def test_add_and_sub_close_over_no_array(self, op):
        a, b = leaf((1, 2, 4, 4), 540), leaf((1, 2, 4, 4), 541)
        with T.Tape():
            out = op(a, b)
        cells = [cell.cell_contents for cell in out.node.grad_fn.__closure__ or ()]
        assert not any(isinstance(v, (np.ndarray, T.Tensor)) for v in cells)

    def test_mul_keeps_no_factor_that_only_a_constant_gradient_reads(self):
        x = leaf((1, 2, 4, 4), 560)
        c = rand((1, 2, 4, 4), 561)
        gc.disable()
        try:
            with T.Tape():
                d = T.scalar_add(x, 0.5)
                loss = T.reduce_sum(T.mul(d, T.tensor(c)))
                ref = weakref.ref(d)
                del d
                assert ref() is None  # read only by the constant's gradient
                T.backward(loss)
        finally:
            gc.enable()
        assert x.grad.tobytes() == (np.ones_like(c) * c).tobytes()

    @pytest.mark.parametrize("kind", ["parameter", "leaf"])
    @pytest.mark.parametrize("name", ["conv2d-weight", "conv2d-bias", "mul-factor", "conv2d_coverage-bias",
                                      "conv2d_coverage-coverage"])
    def test_a_parent_frozen_at_the_forward_gets_no_gradient_if_it_tracks_by_the_backward(self, name, kind):
        p = parent_of(kind, name, tracks=False)
        with T.Tape():
            loss, x = op_on(name, p)
            p.requires_grad = True
            T.backward(loss)
        assert p.grad is None and x.grad is not None

    @pytest.mark.parametrize("kind", ["parameter", "leaf"])
    @pytest.mark.parametrize("name", ["conv_transpose2d-input", "conv_transpose2d-weight", "conv_transpose2d-bias"])
    def test_a_conv_transpose2d_parent_frozen_at_the_forward_gets_no_gradient_if_it_tracks_by_the_backward(
            self, name, kind):
        p = parent_of(kind, name, tracks=False)
        with T.Tape():
            loss, x = op_on(name, p)
            p.requires_grad = True
            T.backward(loss)
        assert p.grad is None and x.grad is not None

    @pytest.mark.parametrize("kind", ["parameter", "leaf"])
    @pytest.mark.parametrize("name", list(ONE_RULE_PARENTS))
    def test_a_parent_that_tracks_at_the_forward_gets_its_gradient_if_it_is_frozen_by_the_backward(self, name, kind):
        grads = []
        for freeze in (False, True):
            p = parent_of(kind, name, tracks=True)
            with T.Tape():
                loss, _ = op_on(name, p)
                p.requires_grad = not freeze
                T.backward(loss)
            grads.append(p.grad)
        assert grads[1] is not None and grads[1].tobytes() == grads[0].tobytes()

    @pytest.mark.parametrize("tracks", ["x", "w"])
    def test_conv_transpose2d_keeps_the_input_only_for_dw_and_the_weights_only_for_dx(self, tracks):
        x = T.tensor(rand((1, 2, 3, 3), 575), requires_grad=tracks == "x")
        w = T.Parameter("w", rand((2, 3, 2, 2), 576))
        w.requires_grad = tracks == "w"
        with T.Tape():
            out = T.conv_transpose2d(x, w)
        cells = [cell.cell_contents for cell in out.node.grad_fn.__closure__]
        arrays = [v for v in cells if isinstance(v, np.ndarray)]
        assert [v is x.data for v in arrays] == [tracks == "w"]
        assert [v is w.data for v in arrays] == [tracks == "x"]
        assert not any(isinstance(v, T.Tensor) for v in cells)


class TestParameterArraysAreReplaced:
    """An optimizer step replaces a Parameter's array and never writes it, so
    a taped conv keeps the Parameter's own array for dx instead of a copy."""

    def test_dx_reads_the_weights_of_the_forward_after_an_adam_step(self):
        x = leaf((2, 3, 7, 7), 580)
        w = T.Parameter("w", rand((4, 3, 3, 3), 581))
        g = rand((2, 4, 7, 7), 582)
        with T.Tape():
            loss = T.reduce_sum(T.mul(T.conv2d(x, w, None, stride=1, pad=1), T.tensor(g)))
        before, w0 = w.data, w.data.copy()
        w.grad = rand(w.shape, 583)
        AdamState({"w": w}, AdamConfig(lr=0.1)).step({"w": w})
        assert w.data is not before and not np.array_equal(w.data, w0)
        assert before.tobytes() == w0.tobytes()
        T.backward(loss)
        dx, _, _ = conv2d_grad_loops(x.data, w0, g, stride=1, pad=1)
        np.testing.assert_allclose(x.grad, dx, atol=1e-10, rtol=0)

    @pytest.mark.parametrize("name", ["conv2d", "conv_transpose2d"])
    def test_dx_closes_over_the_parameters_own_array(self, name):
        op, shape = {"conv2d": (lambda x, w: T.conv2d(x, w, None, pad=1), (3, 2, 3, 3)),
                     "conv_transpose2d": (T.conv_transpose2d, (2, 3, 2, 2))}[name]
        x = leaf((1, 2, 4, 4), 585)
        w = T.Parameter("w", rand(shape, 586))
        with T.Tape():
            out = op(x, w)
        cells = [cell.cell_contents for cell in out.node.grad_fn.__closure__]
        weights = [v for v in cells if isinstance(v, np.ndarray) and v.size == w.data.size]
        assert len(weights) == 1 and weights[0] is w.data


class TestFloat32:
    @pytest.mark.parametrize("op", ["conv2d", "conv2d_stride2", "mask_mean3x3", "conv2d_stride2_odd",
                                    "conv2d_relu", "conv2d_coverage", "conv2d_coverage_relu"])
    def test_stencils_keep_float32(self, op):
        x = T.tensor(rand((2, 3, 6, 5), 400).astype(np.float32), requires_grad=True)
        w = T.tensor(rand((4, 3, 3, 3), 401).astype(np.float32), requires_grad=True)
        b = T.tensor(rand((1, 4, 1, 1), 402).astype(np.float32), requires_grad=True)
        c = T.tensor(rand((2, 1, 6, 5), 403, 0.0, 1.0).astype(np.float32), requires_grad=True)
        fn, leaves = {"conv2d": (lambda: T.conv2d(x, w, b, stride=1, pad=1), [x, w, b]),
                      "conv2d_stride2": (lambda: T.conv2d(x, w, b, stride=2, pad=1), [x, w, b]),
                      "mask_mean3x3": (lambda: T.mask_mean3x3(x), [x]),
                      # a 6x5 input at stride 2 without padding: a 4x3 stride-1 output kept at 2x2 anchors
                      "conv2d_stride2_odd": (lambda: T.conv2d(x, w, b, stride=2, pad=0), [x, w, b]),
                      "conv2d_relu": (lambda: T.conv2d(x, w, b, stride=1, pad=1, relu=True), [x, w, b]),
                      "conv2d_coverage": (lambda: T.conv2d(x, w, b, pad=1, coverage=c), [x, w, b, c]),
                      "conv2d_coverage_relu": (lambda: T.conv2d(x, w, b, pad=1, relu=True, coverage=c),
                                               [x, w, b, c])}[op]
        with T.Tape():
            out = fn()
            T.backward(T.reduce_sum(out))
        assert out.dtype == np.float32
        assert [t.grad.dtype for t in leaves] == [np.float32] * len(leaves)


class TestFiniteDifferences:
    """Each entry of the gradcheck table is its own case, named by its op."""

    @pytest.mark.parametrize("check", CHECKS, ids=[c.name for c in CHECKS])
    def test_gradcheck_table(self, check):
        result = check.run()
        assert result.passed, f"max relative error {result.max_rel_error:.3e} >= {result.tolerance:g}"

    def test_table_names_are_unique(self):
        assert len({c.name for c in CHECKS}) == len(CHECKS)

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
