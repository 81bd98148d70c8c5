"""Dense NCHW tensors with reverse-mode automatic differentiation.

Every value in the library is a 4-D (batch, channel, height, width) array;
scalars are shaped (1, 1, 1, 1).  Inside an explicitly opened Tape each
operation links its output to its parents; ``backward`` walks that graph from
the loss in reverse creation order and accumulates gradients additively into
the ``grad`` of every reachable leaf (a tensor no op produced, such as a
Parameter) with ``requires_grad``.  Op outputs get no ``grad``: their
gradients live only while ``backward`` runs.  Outside a tape the same
functions run forward-only, which is how oracles, evaluation and data
preparation avoid graph overhead.

Computation runs in float32 by default; tests and gradient checks use
float64.  No broadcasting is performed except tensor-times-python-scalar:
all shapes must match exactly, which keeps the network wiring shape-exact.
"""

from __future__ import annotations

import numpy as np

DEFAULT_DTYPE = np.float32
SCALAR_SHAPE = (1, 1, 1, 1)

# Subgradient choices: |x| and Frobenius norm get gradient 0 at 0, clamp gets
# gradient 0 outside the clamp interval (inclusive boundaries pass through).


class Tape:
    """Context in which operations on gradient-tracking tensors build a graph.

    The tape holds no nodes.  Links point one way only, from each output to
    its node and from the node to its parents, so the graph is acyclic and
    is freed by reference counting once its last tensor is dropped.
    """

    _stack: list["Tape"] = []

    def __enter__(self) -> "Tape":
        Tape._stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        Tape._stack.pop()

    @staticmethod
    def active() -> "Tape | None":
        return Tape._stack[-1] if Tape._stack else None


class _OpNode:
    """One recorded op: name, parent tensors, ``grad_fn`` (output gradient to
    parent gradients) and creation number.  It does not refer to its output,
    which holds it, so the two form no cycle; ``backward`` keys the output's
    pending gradient by this node."""

    __slots__ = ("op", "parents", "grad_fn", "seq")

    _counter = 0

    def __init__(self, op, parents, grad_fn):
        self.op = op
        self.parents = parents
        self.grad_fn = grad_fn
        _OpNode._counter += 1
        self.seq = _OpNode._counter


class Tensor:
    """A 4-D array with optional gradient tracking.

    Tensors produced by operations are treated as immutable; only a leaf's
    ``grad`` mutates afterwards (by accumulation during ``backward``).
    """

    __slots__ = ("data", "requires_grad", "grad", "node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        if arr.ndim != 4:
            raise ValueError(f"tensor must be 4-D (N,C,H,W), got shape {arr.shape}")
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node: _OpNode | None = None

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return scalar_add(self, float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return sub(self, other)
        return scalar_add(self, -float(other))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scalar_mul(self, float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return scalar_mul(self, -1.0)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A named trainable tensor; names are unique within a network."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


def _record(op: str, parents, out: Tensor, grad_fn) -> Tensor:
    """Link *out* to its parents when a tape is active and any parent tracks gradients."""
    tape = Tape.active()
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.node = _OpNode(op, tuple(parents), grad_fn)
    return out


# ---------------------------------------------------------------------------
# factories

def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape, dtype=DEFAULT_DTYPE, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def ones(shape, dtype=DEFAULT_DTYPE, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)


def full(shape, value: float, dtype=DEFAULT_DTYPE, requires_grad: bool = False) -> Tensor:
    return Tensor(np.full(shape, value, dtype=dtype), requires_grad=requires_grad)


def scalar(value: float, dtype=DEFAULT_DTYPE) -> Tensor:
    return Tensor(np.full(SCALAR_SHAPE, value, dtype=dtype))


# ---------------------------------------------------------------------------
# convolution family

def _phase_slices(size: int, pad: int, s: int) -> list[tuple[slice, slice]]:
    """For each phase a of one axis padded by *pad* and split with stride *s*:
    the slice of its phase grid that holds input pixels, and the input slice
    it holds.  Padded index a + s*i is index i of phase a and input index
    a + s*i - pad."""
    out = []
    for a in range(s):
        first = (a - pad) % s  # the first input index in phase a
        i0 = (first + pad) // s
        out.append((slice(i0, i0 + len(range(first, size, s))), slice(first, None, s)))
    return out


# Anchors per row block of conv2d, forward and backward, so that its (Cout,
# block) and (Cin, block) accumulators stay in cache.  It is a constant, not
# derived from the core count or the cache size, because OpenBLAS picks its
# kernel by matrix size: the rounding of conv2d's results depends on the
# block size.
CONV_BLOCK = 8192


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1, pad: int = 0,
           relu: bool = False, sigmoid: bool = False) -> Tensor:
    """Direct 2-D convolution (cross-correlation) with zero padding, and an
    optional ReLU or sigmoid.

    ``w`` is (Cout, Cin, k, k) with k odd or 1; output spatial size is
    floor((H + 2*pad - k)/stride) + 1.  ``relu=True`` gives
    ``relu(conv2d(...))`` bit for bit, output and gradients, as one op: the
    ReLU is applied in the pass that writes the output, and the tape keeps
    one activation instead of two.  ``sigmoid=True`` gives
    ``sigmoid(conv2d(...))`` the same way: each row block is squashed in the
    output it was just written to, with the formula of ``sigmoid``, so no
    pre-activation plane exists.  The two cannot be combined.

    Layout: channel-major.  Stride s splits the zero-padded Hp x Wp grid
    into its s*s phases: phase (a, c) holds padded pixel (a + s*i, c + s*j)
    at (i, j) of an Hq x Wq = ceil(Hp/s) x ceil(Wp/s) grid, and its column
    n*Hq*Wq + i*Wq + j is output anchor (i, j) of image n (stride 1 is the
    one-phase case).  Tap (u, v) of every anchor is the same column of phase
    (u mod s, v mod s) shifted by (u//s)*Wq + v//s.  No phase is ever built
    whole; only the row blocks below hold parts of them.

    The forward runs over blocks of whole anchor rows of about
    ``CONV_BLOCK`` anchors: whole images while one fits (their Hq - Ho
    bottom rows are computed and cropped), else kept rows of one image.
    Every stride computes only the anchors of its own grid.  Per block and
    per phase row a = u mod s, the k taps v of the kernel rows u = a + s*t
    are written into one (k*Cin, block + t_max*Wq) stack, which kernel row u
    reads t anchor rows down.  The stack is filled straight from the NCHW
    input: a tap v < s is a strided copy of the block's input rows, with 0
    where it reads padding, and tap v >= s is tap v mod s shifted v//s
    columns.  Columns that only cropped anchors read (rows past the image,
    or a shift that wraps into the next row) hold 0.  A 1x1 conv without
    padding reads a one-image block as a view of the input.  A block is
    thus k GEMMs, one per (Cout, k*Cin) kernel row of a (k, Cout, k*Cin)
    weight copy, summed into a (Cout, block) accumulator that stays in
    cache.  The cropped block plus the bias, and with ``relu=True`` or
    ``sigmoid=True`` its activation, is written straight into the NCHW
    output.

    The tape keeps no copy of the input: only the parents, the weight copy
    and, with ``relu=True`` or ``sigmoid=True``, the output array it already
    holds.  The backward pass writes the output gradient, masked by
    ``out > 0`` when ``relu=True``, or as ``g * out * (1 - out)`` in the
    order of ``sigmoid``'s backward when ``sigmoid=True``, onto the anchor
    grid after E = (t_max*Wq + t_max) leading zero columns; every other
    column of that (Cout, E + N*Hq*Wq) buffer is 0, and db is its row sum.
    It then runs over the forward's row blocks, extended to all Hq anchor
    rows because input pixels also lie on the rows the forward crops:

    - dw: per phase row a, the forward's (k*Cin, block) stack is filled
      again from the input, and kernel row u = a + s*t adds
      ``stack[:, t rows down] @ g_block.T`` to a (k, k*Cin, Cout) buffer.
      A stack column that holds 0 instead of an input pixel meets a
      cropped anchor, whose gradient is 0.
    - dx: phase (a, c) of the padded input gradient is the stride-1
      correlation sum over t, r of w[:, :, a + s*t, c + s*r].T @ g shifted
      t anchor rows and r columns back.  Per block and column phase c, the
      kr taps r are a (kr*Cout, block + t_max*Wq) stack of the gradient, so
      that row t of the sub-kernel is one (Cin, kr*Cout) GEMM against the
      stack t rows up, summed into a (Cin, block) accumulator whose rows
      holding input pixels are written straight into dx.  The weights are
      the forward's copy, not ``w.data``, which the optimizer updates in
      place before a later backward.

    A shifted window that leaves the block crosses only cropped anchors or
    the leading zero columns, where the gradient is 0, so the blocks sum to
    the exact gradient.
    """
    n, ci, h, wd = x.shape
    co, ci_w, kh, kw = w.shape
    if kh != kw:
        raise ValueError(f"conv2d: kernel must be square, got {kh}x{kw}")
    k = kh
    if k != 1 and k % 2 == 0:
        raise ValueError(f"conv2d: kernel size must be odd or 1, got {k}")
    if ci != ci_w:
        raise ValueError(f"conv2d: input has {ci} channels but weight expects {ci_w}")
    if pad < 0:
        raise ValueError(f"conv2d: pad must be >= 0, got {pad}")
    if relu and sigmoid:
        raise ValueError("conv2d: relu and sigmoid cannot be combined")
    if b is not None and b.shape != (1, co, 1, 1):
        raise ValueError(f"conv2d: bias shape {b.shape} != (1,{co},1,1)")
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    if ho < 1 or wo < 1:
        raise ValueError(f"conv2d: output spatial size ({ho},{wo}) is empty for input ({h},{wd})")

    s = stride
    hq, wq = -(-(h + 2 * pad) // s), -(-(wd + 2 * pad) // s)
    cols = n * hq * wq
    tall = (k - 1) // s  # the kernel rows of one phase row, less one
    ext = tall * wq + tall  # the largest tap shift
    # phase p = a*s + c: its grid slices holding input pixels, and the input slices they hold
    places = [(a * s + c, pr, pc, xr, xc) for a, (pr, xr) in enumerate(_phase_slices(h, pad, s))
              for c, (pc, xc) in enumerate(_phase_slices(wd, pad, s))]
    xt = x.data.transpose(1, 0, 2, 3)  # (Cin, N, H, W), a view
    # (k, Cout, k*Cin): kernel row u as one matrix, columns tap-major.  Copied
    # 32 output channels at a time, which keeps the source block in cache and
    # halves the cost of this transposing copy on the 512-channel layers.
    wk = np.empty((k, co, k * ci), dtype=w.data.dtype)
    wk4 = wk.reshape(k, co, k, ci)
    for o in range(0, co, 32):
        wk4[:, o:o + 32] = w.data[o:o + 32].transpose(2, 0, 3, 1)

    def row_blocks(last):
        """Blocks (n0, n1, i0, i1, start, size): anchor rows i0..i1 of images
        n0..n1, their first anchor and their anchor count.  Whole images while
        one fits ``CONV_BLOCK``, else rows of one image up to row *last*."""
        rows = max(1, CONV_BLOCK // wq)
        if rows >= hq:
            per = rows // hq
            spans = [(n0, min(n0 + per, n), 0, hq) for n0 in range(0, n, per)]
        else:
            spans = [(nn, nn + 1, i0, min(i0 + rows, last)) for nn in range(n) for i0 in range(0, last, rows)]
        return [(n0, n1, i0, i1, (n0 * hq + i0) * wq, ((n1 - n0 - 1) * hq + i1 - i0) * wq)
                for n0, n1, i0, i1 in spans]

    def in_rows(p, r0, r1):
        """The input rows held by grid rows r0..r1 of phase p, which must all hold input pixels."""
        _, pr, _, xr, _ = places[p]
        return slice(xr.start + s * (r0 - pr.start), xr.start + s * (r1 - pr.start), s)

    def x_stack(buf, block, a):
        """Tap v of phase row a as rows v*Cin..(v+1)*Cin of *buf*, filled from
        the input: column j is column start + v//s + j of phase (a, v mod s),
        over the block's anchors and the rows below that its lower kernel rows
        read, or 0 where only cropped anchors read it."""
        n0, n1, i0, i1, _, size = block
        if k == 1 and s == 1 and pad == 0 and n1 - n0 == 1:
            return x.data[n0, :, i0:i1].reshape(ci, size)  # a single tap on one image: a view
        down = len(range(a, k, s)) - 1  # the kernel rows of phase row a, less one
        span = size + down * wq
        rb = min(i1 + down, hq) - i0  # the rows of each image that kept anchors read
        st = buf[:k * ci, :span + tall]
        for c in range(min(s, k)):
            # tap c of phase (a, c), and the tall columns beyond that taps c + s*r read shifted
            p, pr, pc, _, xc = places[a * s + c]
            lead = st[c * ci:(c + 1) * ci]
            lead[:, (n1 - n0) * rb * wq:] = 0  # read by cropped anchors only
            grid = lead[:, :(n1 - n0) * rb * wq].reshape(ci, n1 - n0, rb, wq)
            r0 = min(max(pr.start, i0), i0 + rb)
            r1 = max(min(pr.stop, i0 + rb), r0)  # rows r0..r1 hold input pixels, the others padding
            grid[:, :, :r0 - i0] = 0
            grid[:, :, r1 - i0:] = 0
            body = grid[:, :, r0 - i0:r1 - i0]
            body[..., :pc.start] = 0
            body[..., pc.stop:] = 0
            body[..., pc] = xt[:, n0:n1, in_rows(p, r0, r1), xc]
        for v in range(s, k):  # tap v is tap v mod s, v//s columns on
            c, o = v % s, v // s
            st[v * ci:(v + 1) * ci, :span] = st[c * ci:(c + 1) * ci, o:o + span]
        return st[:, :span]

    blocks = row_blocks(ho)
    most = max(size for *_, size in blocks)
    acc = np.empty((co, most), dtype=np.result_type(x.data, w.data))
    tmp = np.empty_like(acc)
    stack = np.empty((k * ci, most + ext), dtype=x.data.dtype)
    out_data = np.empty((n, co, ho, wo), dtype=acc.dtype if b is None else np.result_type(acc, b.data))
    for block in blocks:
        n0, n1, i0, i1, _, size = block
        acc_b, tmp_b = acc[:, :size], tmp[:, :size]
        for a in range(min(s, k)):  # phase row a serves kernel rows u = a + s*t
            st = x_stack(stack, block, a)
            for t, u in enumerate(range(a, k, s)):
                if u == 0:
                    np.matmul(wk[0], st[:, :size], out=acc_b)
                else:
                    acc_b += np.matmul(wk[u], st[:, t * wq:t * wq + size], out=tmp_b)
        kept = min(i1, ho) - i0
        crop = acc_b.reshape(co, n1 - n0, i1 - i0, wq)[:, :, :kept, :wo]
        dst = out_data[n0:n1, :, i0:i0 + kept].transpose(1, 0, 2, 3)
        if b is None:
            dst[...] = crop
        else:
            np.add(crop, b.data.reshape(co, 1, 1, 1), out=dst)
        if relu:
            np.maximum(dst, 0, out=dst)
        elif sigmoid:
            _sigmoid_into(dst, dst)
    out = Tensor(out_data)
    alive = out_data if relu or sigmoid else None  # the tape keeps the output only for its derivative

    def grad_fn(g):
        # the output gradient on the anchor grid after E leading zero columns
        gp = np.zeros((co, ext + cols), dtype=g.dtype)
        gq = gp[:, ext:].reshape(co, n, hq, wq)[:, :, :ho, :wo]
        if relu:
            np.multiply(g.transpose(1, 0, 2, 3), alive.transpose(1, 0, 2, 3) > 0, out=gq)
        elif sigmoid:
            _sigmoid_grad(g.transpose(1, 0, 2, 3), alive.transpose(1, 0, 2, 3), out=gq)
        else:
            gq[...] = g.transpose(1, 0, 2, 3)
        dx = dw = None  # a parent that tracks no gradient gets None, which backward skips
        bwd_blocks = row_blocks(hq)  # input pixels lie on every anchor row
        span = max(size for *_, size in bwd_blocks) + tall * wq
        # one buffer for a block's input stack (dw), then its gradient stack
        # (dx): a call touches fewer fresh pages than with one buffer each
        buf = np.empty((max(k * ci, -(-k // s) * co), span + tall), dtype=np.result_type(x.data, gp))
        if w.requires_grad:
            dwk = np.empty((k, k * ci, co), dtype=np.result_type(g, x.data))  # dw of kernel row u, (v, Cin) x Cout
            part = np.empty((k * ci, co), dtype=dwk.dtype)
        if x.requires_grad:
            # with k < s the phases a or c >= k hold no tap, and their pixels get 0
            dx = (np.zeros if k < s else np.empty)(x.shape, dtype=np.result_type(g, wk))
            dxt = dx.transpose(1, 0, 2, 3)
            # tap row u, column phase c: (Cin, kr*Cout), column block r the tap v = c + s*r
            wkt = wk.reshape(k, co, k, ci).transpose(0, 3, 2, 1)
            wt = [[np.ascontiguousarray(wkt[u, :, c::s]).reshape(ci, -1) for c in range(min(s, k))]
                  for u in range(k)]
            dacc = np.empty((ci, span), dtype=dx.dtype)
            dtmp = np.empty_like(dacc)
        for bi, block in enumerate(bwd_blocks):
            n0, n1, i0, i1, start, size = block
            if w.requires_grad:
                # kernel row u = a + s*t: its stacked taps times the block's gradient
                gb = gp[:, ext + start:ext + start + size]
                for a in range(min(s, k)):
                    st = x_stack(buf, block, a)
                    for t, u in enumerate(range(a, k, s)):
                        if bi == 0:
                            np.matmul(st[:, t * wq:t * wq + size], gb.T, out=dwk[u])
                        else:
                            dwk[u] += np.matmul(st[:, t * wq:t * wq + size], gb.T, out=part)
            if x.requires_grad:
                # phase (a, c) of dx: the taps u = a + s*t, v = c + s*r times
                # the gradient t anchor rows and r columns back
                acc_b, tmp_b = dacc[:, :size], dtmp[:, :size]
                o = ext + start - tall * wq  # the stack's first column in gp
                for c in range(min(s, k)):
                    kr = len(range(c, k, s))
                    if kr == 1:
                        gs = gp[:, o:o + size + tall * wq]  # a single tap column needs no stack
                    else:
                        gs = buf[:kr * co, :size + tall * wq]
                        for r in range(kr):
                            gs[r * co:(r + 1) * co] = gp[:, o - r:o - r + size + tall * wq]
                    for a in range(min(s, k)):
                        for t, u in enumerate(range(a, k, s)):
                            sl = gs[:, (tall - t) * wq:(tall - t) * wq + size]
                            if t == 0:
                                np.matmul(wt[u][c], sl, out=acc_b)
                            else:
                                acc_b += np.matmul(wt[u][c], sl, out=tmp_b)
                        # the block's rows of phase (a, c) that hold input pixels, straight into dx
                        p, pr, pc, _, xc = places[a * s + c]
                        r0, r1 = max(pr.start, i0), min(pr.stop, i1)
                        if r0 < r1:
                            grid = acc_b.reshape(ci, n1 - n0, i1 - i0, wq)
                            dxt[:, n0:n1, in_rows(p, r0, r1), xc] = grid[:, :, r0 - i0:r1 - i0, pc]
        if w.requires_grad:
            dw = dwk.reshape(k, k, ci, co).transpose(3, 2, 0, 1)
        db = gp.sum(axis=1).reshape(1, co, 1, 1) if b is not None and b.requires_grad else None
        return (dx, dw, db) if b is not None else (dx, dw)

    parents = (x, w, b) if b is not None else (x, w)
    return _record("conv2d", parents, out, grad_fn)


def conv_transpose2d(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Transposed convolution with the fixed kernel 2, stride 2 layout.

    ``w`` is (Cin, Cout, 2, 2); output spatial size exactly doubles.  With
    stride equal to kernel size the output footprints are disjoint.
    """
    n, ci, h, wd = x.shape
    ci_w, co, kh, kw = w.shape
    if (kh, kw) != (2, 2):
        raise ValueError(f"conv_transpose2d: kernel must be 2x2, got {kh}x{kw}")
    if ci != ci_w:
        raise ValueError(f"conv_transpose2d: input has {ci} channels but weight expects {ci_w}")
    if b is not None and b.shape != (1, co, 1, 1):
        raise ValueError(f"conv_transpose2d: bias shape {b.shape} != (1,{co},1,1)")

    out_data = np.empty((n, co, 2 * h, 2 * wd), dtype=x.data.dtype)
    for u in range(2):
        for v in range(2):
            # out[:, :, u::2, v::2] = sum_ci x[:, ci] * w[ci, :, u, v]
            out_data[:, :, u::2, v::2] = np.tensordot(x.data, w.data[:, :, u, v], axes=([1], [0])).transpose(0, 3, 1, 2)
    if b is not None:
        out_data += b.data
    out = Tensor(out_data)

    def grad_fn(g):
        dx = np.zeros_like(x.data)
        dw = np.zeros_like(w.data)
        for u in range(2):
            for v in range(2):
                gs = g[:, :, u::2, v::2]
                dx += np.tensordot(gs, w.data[:, :, u, v], axes=([1], [1])).transpose(0, 3, 1, 2)
                dw[:, :, u, v] = np.tensordot(x.data, gs, axes=([0, 2, 3], [0, 2, 3]))
        db = g.sum(axis=(0, 2, 3)).reshape(1, co, 1, 1) if b is not None else None
        return (dx, dw, db) if b is not None else (dx, dw)

    parents = (x, w, b) if b is not None else (x, w)
    return _record("conv_transpose2d", parents, out, grad_fn)


def maxpool2x2(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2; ties go to the first element in row-major scan.

    The forward is the elementwise maximum of the four strided views
    x[:, :, a::2, b::2].  The backward sends each window's gradient to the
    first view, in row-major order (a, b) = (0,0), (0,1), (1,0), (1,1), whose
    value equals the output, and g * 0 to the other three; the tape keeps
    only the input and the output.  A window holding NaN has a NaN output,
    which equals none of its elements, so its gradient is dropped rather
    than routed to the first NaN; a non-finite gradient entry turns the
    other three entries of its window into NaN (inf * 0).
    """
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2x2: spatial dims must be even, got ({h},{w})")
    corners = [(slice(None), slice(None), slice(a, None, 2), slice(b, None, 2)) for a in (0, 1) for b in (0, 1)]
    v = [x.data[q] for q in corners]
    out_data = np.maximum(np.maximum(v[0], v[1]), np.maximum(v[2], v[3]))
    out = Tensor(out_data)

    def grad_fn(g):
        dx = np.empty_like(x.data)
        free = np.ones(g.shape, dtype=bool)  # windows whose gradient is not placed yet
        for q in corners:
            hit = x.data[q] == out_data
            hit &= free
            free &= ~hit
            np.multiply(g, hit, out=dx[q])
        return (dx,)

    return _record("maxpool2x2", (x,), out, grad_fn)


def mask_mean3x3(m: Tensor) -> Tensor:
    """Mean of the zero-padded 3x3 neighborhood with fixed divisor 9.

    Border values are attenuated by the missing zero-padded neighbors
    (edges 6/9, corners 4/9 for an all-ones input).  Computed as a separable
    box sum, all in the input's dtype: the three-row sums (up + centre) +
    down go into one (n, c, h, w+2) buffer whose first and last columns are
    0, then the three-column sums of that buffer into the output, which is
    divided by 9.  No zero-padded copy of the input is made; the first and
    last rows add their padding neighbour as an explicit ``+ 0.0``, which
    turns a -0 into +0 as the padded sum does.  The tape keeps nothing: the
    op is self-adjoint, so the backward pass is the same averaging applied
    to the incoming gradient.
    """
    def avg9(a):
        n, c, h, w = a.shape
        rows = np.empty((n, c, h, w + 2), dtype=a.dtype)
        rows[..., 0] = 0
        rows[..., -1] = 0
        r = rows[..., 1:-1]
        np.add(a[:, :, :-2], a[:, :, 1:-1], out=r[:, :, 1:-1])
        r[:, :, 1:-1] += a[:, :, 2:]
        np.add(a[:, :, 0], 0.0, out=r[:, :, 0])  # the padding row above
        r[:, :, 0] += a[:, :, 1] if h > 1 else 0.0
        if h > 1:
            np.add(a[:, :, -2], a[:, :, -1], out=r[:, :, -1])
            r[:, :, -1] += 0.0  # the padding row below
        box = rows[..., :-2] + rows[..., 1:-1]
        box += rows[..., 2:]
        box /= 9.0
        return box

    out = Tensor(avg9(m.data))

    def grad_fn(g):
        return (avg9(g),)

    return _record("mask_mean3x3", (m,), out, grad_fn)


def downsample2x(x: Tensor) -> Tensor:
    """2x2 average pooling with stride 2.

    The forward adds the four strided views v_ab = x[:, :, a::2, b::2] and
    divides by 4.  The sum is grouped as numpy's
    ``x.reshape(n, c, h/2, 2, w/2, 2).mean(axis=(3, 5))`` groups it, so the
    two agree bit for bit: (v00 + v01) + (v10 + v11), except at width 2,
    where each window is four contiguous values that numpy sums in order.
    The backward writes g / 4 into the same four views of the input gradient.
    """
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"downsample2x: spatial dims must be even, got ({h},{w})")
    v00, v01, v10, v11 = (x.data[:, :, a::2, b::2] for a in (0, 1) for b in (0, 1))
    out_data = ((v00 + v01) + v10) + v11 if w == 2 else (v00 + v01) + (v10 + v11)
    out_data /= 4.0
    out = Tensor(out_data)

    def grad_fn(g):
        q = g / 4.0
        dx = np.empty((n, c, h, w), dtype=q.dtype)
        for a in (0, 1):
            for b in (0, 1):
                dx[:, :, a::2, b::2] = q
        return (dx,)

    return _record("downsample2x", (x,), out, grad_fn)


def spatial_gradient(x: Tensor) -> tuple[Tensor, Tensor]:
    """Forward-difference gradients (gx, gy); the last column/row is zero."""
    n, c, h, w = x.shape
    if h < 2 or w < 2:
        raise ValueError(f"spatial_gradient: need H,W >= 2, got ({h},{w})")
    return _forward_diff(x, 3), _forward_diff(x, 2)


def _forward_diff(x: Tensor, axis: int) -> Tensor:
    """x[i+1] - x[i] along *axis* (3 records ``sgrad_x``, 2 ``sgrad_y``); the last entry is zero."""
    lo = (slice(None),) * axis + (slice(None, -1),)
    hi = (slice(None),) * axis + (slice(1, None),)
    d = np.zeros_like(x.data)
    d[lo] = x.data[hi] - x.data[lo]
    out = Tensor(d)

    def grad_fn(g):
        dx = np.zeros_like(g)
        dx[lo] -= g[lo]
        dx[hi] += g[lo]
        return (dx,)

    return _record("sgrad_x" if axis == 3 else "sgrad_y", (x,), out, grad_fn)


# ---------------------------------------------------------------------------
# shape ops

def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    na, ca, ha, wa = a.shape
    nb, cb, hb, wb = b.shape
    if (na, ha, wa) != (nb, hb, wb):
        raise ValueError(f"concat_channels: non-channel dims differ, {a.shape} vs {b.shape}")
    out = Tensor(np.concatenate([a.data, b.data], axis=1))

    def grad_fn(g):
        return (g[:, :ca], g[:, ca:])

    return _record("concat_channels", (a, b), out, grad_fn)


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    n, c, h, w = x.shape
    if not (0 <= start < stop <= c):
        raise ValueError(f"slice_channels: range [{start},{stop}) invalid for {c} channels")
    out = Tensor(x.data[:, start:stop])  # a view where the slice is contiguous, else a copy

    def grad_fn(g):
        dx = np.zeros_like(x.data)
        dx[:, start:stop] = g
        return (dx,)

    return _record("slice_channels", (x,), out, grad_fn)


def repeat_channels(x: Tensor, reps: int) -> Tensor:
    """Repeat each channel ``reps`` times (channel i maps to i*reps..(i+1)*reps)."""
    if reps < 1:
        raise ValueError(f"repeat_channels: reps must be >= 1, got {reps}")
    n, c, h, w = x.shape
    out = Tensor(np.repeat(x.data, reps, axis=1))

    def grad_fn(g):
        return (g.reshape(n, c, reps, h, w).sum(axis=2),)

    return _record("repeat_channels", (x,), out, grad_fn)


# ---------------------------------------------------------------------------
# elementwise ops

def _binary(op, a: Tensor, b: Tensor, fwd, bwd):
    if a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor(fwd(a.data, b.data))
    return _record(op, (a, b), out, lambda g: bwd(g, a.data, b.data))


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary("add", a, b, lambda x, y: x + y, lambda g, x, y: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary("sub", a, b, lambda x, y: x - y, lambda g, x, y: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary("mul", a, b, lambda x, y: x * y, lambda g, x, y: (g * y, g * x))


def scalar_mul(x: Tensor, s: float) -> Tensor:
    out = Tensor(x.data * s)
    return _record("scalar_mul", (x,), out, lambda g: (g * s,))


def scalar_add(x: Tensor, s: float) -> Tensor:
    out = Tensor(x.data + s)
    return _record("scalar_add", (x,), out, lambda g: (g,))


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0))
    return _record("relu", (x,), out, lambda g: (g * (x.data > 0),))


def _sigmoid_into(d: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write sigmoid(d) into *out*, which may be *d* itself, with the formula
    of ``sigmoid``, and return it.  The denominator is the one scratch buffer."""
    den = np.abs(d)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    np.minimum(d, 0, out=out)
    np.exp(out, out=out)
    out /= den
    return out


def _sigmoid_grad(g: np.ndarray, s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """g * s * (1 - s), the gradient through a sigmoid whose output is *s*, in that order."""
    out = np.multiply(g, s, out=out)
    out *= 1.0 - s
    return out


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid s = exp(min(x, 0)) / (1 + exp(-|x|)).

    That is 1 / (1 + e) for x >= 0 and e / (1 + e) for x < 0, with
    e = exp(-|x|), which never overflows.  One expression gives both
    branches, so no ``np.where`` picks between them: on data of random sign
    that selection alone costs several times the whole formula.  The tape
    keeps the output, and the backward is g * s * (1 - s).
    """
    s = _sigmoid_into(x.data, np.empty_like(x.data))
    out = Tensor(s)
    return _record("sigmoid", (x,), out, lambda g: (_sigmoid_grad(g, s),))


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)
    out = Tensor(t)
    return _record("tanh", (x,), out, lambda g: (g * (1.0 - t * t),))


def abs_(x: Tensor) -> Tensor:
    out = Tensor(np.abs(x.data))
    # np.sign is 0 at 0, matching the documented subgradient choice
    return _record("abs", (x,), out, lambda g: (g * np.sign(x.data),))


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    out = Tensor(np.clip(x.data, lo, hi))
    inside = (x.data >= lo) & (x.data <= hi)
    return _record("clamp", (x,), out, lambda g: (g * inside,))


def log(x: Tensor) -> Tensor:
    if np.any(x.data <= 0):
        raise ValueError("log: inputs must be positive (clamp before taking log)")
    out = Tensor(np.log(x.data))
    return _record("log", (x,), out, lambda g: (g / x.data,))


def sqrt(x: Tensor) -> Tensor:
    if np.any(x.data < 0):
        raise ValueError("sqrt: inputs must be nonnegative")
    r = np.sqrt(x.data)
    out = Tensor(r)

    def grad_fn(g):
        # subgradient 0 at 0, same convention as frobenius_norm
        safe = np.where(r > 0, r, 1.0)
        return (np.where(r > 0, g / (2.0 * safe), 0.0),)

    return _record("sqrt", (x,), out, grad_fn)


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    """x where x > 0, else slope * x, formed as max(x, slope * x) for 0 < slope <= 1.

    A slope of 0 is excluded: 0 * inf is NaN, which the max would pass on.
    """
    if not 0 < slope <= 1:
        raise ValueError(f"leaky_relu: slope must lie in (0, 1], got {slope}")
    out = slope * x.data
    np.maximum(x.data, out, out=out)

    def grad_fn(g):
        dx = g * slope
        np.copyto(dx, g, where=x.data > 0)
        return (dx,)

    return _record("leaky_relu", (x,), Tensor(out), grad_fn)


# ---------------------------------------------------------------------------
# reductions (scalar outputs, shape (1,1,1,1))

def _reduce(op, x: Tensor, value: float, grad_of_x) -> Tensor:
    out = Tensor(np.full(SCALAR_SHAPE, value, dtype=x.data.dtype))
    return _record(op, (x,), out, lambda g: (g.reshape(()) * grad_of_x(),))


def reduce_sum(x: Tensor) -> Tensor:
    return _reduce("sum", x, x.data.sum(), lambda: np.ones_like(x.data))


def reduce_mean(x: Tensor) -> Tensor:
    n = x.data.size
    return _reduce("mean", x, x.data.mean(), lambda: np.full_like(x.data, 1.0 / n))


def l1_norm(x: Tensor) -> Tensor:
    return _reduce("l1_norm", x, np.abs(x.data).sum(), lambda: np.sign(x.data))


def frobenius_norm(x: Tensor) -> Tensor:
    v = float(np.sqrt((x.data.astype(np.float64) ** 2).sum()))

    def grad_of_x():
        if v == 0.0:
            return np.zeros_like(x.data)
        return x.data / x.data.dtype.type(v)

    return _reduce("frobenius_norm", x, v, grad_of_x)


# ---------------------------------------------------------------------------
# mask renormalization (the division + zero branch of the partial convolution)

def mask_renorm(y: Tensor, mbar: Tensor, b: Tensor | None, eps: float = 1e-8,
                relu: bool = False) -> Tensor:
    """Per-entry y/mbar + bias where mbar > eps, else exactly 0 (bias suppressed).

    ``relu=True`` gives ``relu(mask_renorm(...))`` bit for bit, output and
    gradients, as one op, as in ``conv2d``.  The output is built in one
    buffer: the reciprocal, times y, plus the bias where mbar > eps and plus
    ``b * 0`` elsewhere, as ``y * inv + b * active`` adds it, so signed
    zeros and NaNs come out alike.  The tape keeps nothing but the parents
    and, with ``relu=True``, the output: the backward pass recomputes the
    reciprocal and the mask > eps from ``mbar``.
    """
    if y.shape != mbar.shape:
        raise ValueError(f"mask_renorm: shape mismatch {y.shape} vs {mbar.shape}")
    co = y.shape[1]
    if b is not None and b.shape != (1, co, 1, 1):
        raise ValueError(f"mask_renorm: bias shape {b.shape} != (1,{co},1,1)")

    def reciprocal():
        """(1/mbar where mbar > eps else 0, mbar > eps), the first in a fresh buffer"""
        active = mbar.data > eps
        inv = np.zeros(mbar.shape, dtype=mbar.dtype)
        np.divide(1.0, mbar.data, out=inv, where=active)
        return inv, active

    out_data, active = reciprocal()
    out_data *= y.data
    if b is not None:
        np.add(out_data, b.data, out=out_data, where=active)
        np.add(out_data, b.data * 0.0, out=out_data, where=np.logical_not(active, out=active))
    if relu:
        np.maximum(out_data, 0, out=out_data)
    out = Tensor(out_data)
    alive = out_data if relu else None  # the tape keeps the output only to mask by it

    def grad_fn(g):
        inv, active = reciprocal()
        if relu:
            g = g * (alive > 0)
        dy = g * inv
        dmbar = -g * y.data * inv * inv
        db = (g * active).sum(axis=(0, 2, 3)).reshape(1, co, 1, 1) if b is not None else None
        return (dy, dmbar, db) if b is not None else (dy, dmbar)

    parents = (y, mbar, b) if b is not None else (y, mbar)
    return _record("mask_renorm", parents, out, grad_fn)


# ---------------------------------------------------------------------------
# backward

def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every reachable leaf with ``requires_grad``.

    Leaves are the tensors no recorded op produced (parameters, inputs);
    op outputs get no ``grad``.  Gradients accumulate additively, both for
    fan-out inside one graph and across repeated calls; callers zero grads
    between optimization steps.
    A ``grad_fn`` that returns a gradient whose shape or dtype differs from
    its parent's raises ValueError naming the op.
    """
    if loss.shape != SCALAR_SHAPE:
        raise ValueError(f"backward: loss must be scalar (1,1,1,1), got {loss.shape}")
    # pending gradients, keyed by node for an op output and by tensor for a leaf
    pending: dict[_OpNode | Tensor, np.ndarray] = {}
    if loss.requires_grad:
        pending[loss if loss.node is None else loss.node] = np.ones_like(loss.data)
    for node in reversed(_collect_nodes(loss)):
        g = pending.pop(node, None)
        if g is None:
            continue
        parent_grads = node.grad_fn(g)
        for p, pg in zip(node.parents, parent_grads):
            if p is None or pg is None or not p.requires_grad:
                continue
            if pg.shape != p.shape or pg.dtype != p.dtype:
                raise ValueError(f"backward: {node.op} returned a {pg.dtype} gradient of shape {pg.shape} "
                                 f"for a {p.dtype} parent of shape {p.shape}")
            key = p if p.node is None else p.node
            pending[key] = pending[key] + pg if key in pending else pg
    # every node was popped, so what is left belongs to leaves; copied because one
    # array can reach two parents (``add``) and ``grad`` is scaled in place by the optimizer
    for leaf, g in pending.items():
        leaf.grad = g.copy() if leaf.grad is None else leaf.grad + g


def _collect_nodes(loss: Tensor) -> list[_OpNode]:
    """All nodes reachable from *loss*, sorted by creation order.

    Creation order is a topological order because an op's inputs always
    exist before its output.
    """
    seen: set[int] = set()
    found: list[_OpNode] = []
    stack = [loss]
    while stack:
        t = stack.pop()
        node = t.node
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        found.append(node)
        stack.extend(p for p in node.parents if p is not None)
    found.sort(key=lambda nd: nd.seq)
    return found


# ---------------------------------------------------------------------------
# finite differences

def finite_diff_check(fn, inputs: list[Tensor], step: float = 1e-5,
                      max_coords: int = 64, seed: int = 0) -> float | None:
    """Compare analytic gradients of scalar-valued ``fn`` against central differences.

    Returns the max relative error over (a sample of) coordinates, with
    denominator max(|analytic|, |numeric|, 1e-8).  Returns None (skipped)
    when no input requires gradients.  Tensors above ``max_coords`` entries
    are probed at a seeded random coordinate subset.
    """
    tracked = [t for t in inputs if t.requires_grad]
    if not tracked:
        return None
    for t in tracked:
        t.grad = None
    with Tape():
        out = fn(*inputs)
        if not isinstance(out, Tensor) or out.shape != SCALAR_SHAPE:
            raise ValueError("finite_diff_check: fn must return a scalar tensor")
        backward(out)
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in tracked]

    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for t, a in zip(tracked, analytic):
        flat = t.data.reshape(-1)
        n = flat.size
        coords = np.arange(n) if n <= max_coords else rng.choice(n, size=max_coords, replace=False)
        aflat = a.reshape(-1)
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + step
            hi = fn(*inputs).item()
            flat[idx] = orig - step
            lo = fn(*inputs).item()
            flat[idx] = orig
            num = (hi - lo) / (2.0 * step)
            ana = float(aflat[idx])
            err = abs(ana - num) / max(abs(ana), abs(num), 1e-8)
            worst = max(worst, err)
    return worst

