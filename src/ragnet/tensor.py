"""Dense NCHW tensors with reverse-mode automatic differentiation.

Every value in the library is a 4-D (batch, channel, height, width) array;
scalars are shaped (1, 1, 1, 1).  Inside an explicitly opened Tape each
operation links its output to its parents; ``backward`` walks that graph from
the loss in reverse creation order and accumulates gradients additively into
the ``grad`` of every reachable leaf (a tensor no op produced, such as a
Parameter) with ``requires_grad``.  Op outputs get no ``grad``: their
gradients live only while ``backward`` runs, and each node is released once
its gradient has been propagated, so a graph is differentiated once.
Outside a tape the same functions run forward-only, which is how oracles,
evaluation and data preparation avoid graph overhead.

Computation runs in float32 by default; tests and gradient checks use
float64.  No broadcasting is performed: all shapes must match exactly, which
keeps the network wiring shape-exact, and a Python scalar enters only through
``scalar_mul`` and ``scalar_add``.
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
    ``backward`` frees it sooner: it releases each node once the node's
    gradient has been propagated, so a graph is differentiated once.
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
    pending gradient by this node.  Once ``backward`` has propagated that
    gradient it releases the node: ``parents`` becomes () and ``grad_fn``
    None, which frees what the closure kept, and a later ``backward`` that
    reaches the node raises."""

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

# Anchors per row block of conv2d, forward and backward, so that its (Cout,
# block) and (Cin, block) accumulators stay in cache.  It is a constant, not
# derived from the core count or the cache size, because OpenBLAS picks its
# kernel by matrix size: the rounding of conv2d's results depends on the
# block size.
CONV_BLOCK = 8192


def _row_blocks(n, hp, wp, last):
    """Blocks (n0, n1, i0, i1, start, size): anchor rows i0..i1 of images
    n0..n1, their first anchor and their anchor count.  Whole images while
    one fits ``CONV_BLOCK``, else rows of one image up to row *last*."""
    rows = max(1, CONV_BLOCK // wp)
    if rows >= hp:
        per = rows // hp
        spans = [(n0, min(n0 + per, n), 0, hp) for n0 in range(0, n, per)]
    else:
        spans = [(nn, nn + 1, i0, min(i0 + rows, last)) for nn in range(n) for i0 in range(0, last, rows)]
    return [(n0, n1, i0, i1, (n0 * hp + i0) * wp, ((n1 - n0 - 1) * hp + i1 - i0) * wp)
            for n0, n1, i0, i1 in spans]


def _is_view(xts, pad, k, block) -> bool:
    """Whether ``_stack`` reads *block* as a view of the input: a single tap
    of one group on one image."""
    return k == 1 and pad == 0 and len(xts) == 1 and block[1] - block[0] == 1


def _stack(buf, xts, pad, k, block):
    """Tap v as rows v*C..(v+1)*C of *buf*, filled from the (C_g, N, H, W)
    arrays *xts*, read as their concatenation along C (C = the sum of the
    C_g) and zero-padded by *pad*: column j is padded column start + v + j,
    over the block's anchors and the rows below that its lower kernel rows
    read, or 0 where only cropped anchors read it."""
    c = sum(len(xt) for xt in xts)
    _, _, h, wd = xts[0].shape
    hp, wp = h + 2 * pad, wd + 2 * pad
    n0, n1, i0, i1, _, size = block
    if _is_view(xts, pad, k, block):
        return xts[0][:, n0, i0:i1].reshape(c, size)
    tall = k - 1
    span = size + tall * wp
    rb = min(i1 + tall, hp) - i0  # the rows of each image that kept anchors read
    st = buf[:k * c, :span + tall]
    lead = st[:c]
    lead[:, (n1 - n0) * rb * wp:] = 0  # read by cropped anchors only
    grid = lead[:, :(n1 - n0) * rb * wp].reshape(c, n1 - n0, rb, wp)
    r0 = min(max(pad, i0), i0 + rb)
    r1 = max(min(pad + h, i0 + rb), r0)  # rows r0..r1 hold input pixels, the others padding
    grid[:, :, :r0 - i0] = 0
    grid[:, :, r1 - i0:] = 0
    body = grid[:, :, r0 - i0:r1 - i0]
    body[..., :pad] = 0
    body[..., pad + wd:] = 0
    c0 = 0
    for xt in xts:  # each group fills its own rows of tap 0
        body[c0:c0 + len(xt), ..., pad:pad + wd] = xt[:, n0:n1, r0 - pad:r1 - pad]
        c0 += len(xt)
    for v in range(1, k):  # tap v is tap 0, v columns on
        st[v * c:(v + 1) * c, :span] = st[:c, v:v + span]
    return st[:, :span]


def _correlate(xts, pad, wk, out, buf=None, bias=None, relu=False, sigmoid=False):
    """*out* (N, Cout, Ho, Wo) = the channel concatenation of the (C_g, N, H, W)
    arrays *xts*, zero-padded by *pad*, correlated with kernel rows *wk*
    (k, Cout, k*C), plus *bias* and the activation; the stacks use *buf* if
    it is large enough.  No stack buffer is allocated when every block is a
    view of the input, and no second accumulator when k = 1."""
    c = sum(len(xt) for xt in xts)
    _, n, h, wd = xts[0].shape
    k, co = wk.shape[:2]
    hp, wp = h + 2 * pad, wd + 2 * pad
    ho, wo = hp - k + 1, wp - k + 1
    blocks = _row_blocks(n, hp, wp, ho)
    most = max(size for *_, size in blocks)
    cols = most + (k - 1) * (wp + 1)  # the largest stack and its tap shift
    views = all(_is_view(xts, pad, k, block) for block in blocks)
    if not views and (buf is None or buf.shape[0] < k * c or buf.shape[1] < cols):
        buf = np.empty((k * c, cols), dtype=xts[0].dtype)
    acc = np.empty((co, most), dtype=np.result_type(xts[0], wk))
    tmp = np.empty_like(acc) if k > 1 else None  # only kernel rows past the first read it
    for block in blocks:
        n0, n1, i0, i1, _, size = block
        acc_b = acc[:, :size]
        st = _stack(buf, xts, pad, k, block)
        np.matmul(wk[0], st[:, :size], out=acc_b)
        for u in range(1, k):  # kernel row u reads u anchor rows down
            acc_b += np.matmul(wk[u], st[:, u * wp:u * wp + size], out=tmp[:, :size])
        kept = min(i1, ho) - i0
        crop = acc_b.reshape(co, n1 - n0, i1 - i0, wp)[:, :, :kept, :wo]
        dst = out[n0:n1, :, i0:i0 + kept].transpose(1, 0, 2, 3)
        if bias is None:
            dst[...] = crop
        else:
            np.add(crop, bias.reshape(co, 1, 1, 1), out=dst)
        if relu:
            np.maximum(dst, 0, out=dst)
        elif sigmoid:
            _sigmoid_into(dst, dst)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1, pad: int = 0,
           relu: bool = False, sigmoid: bool = False, *, concat: tuple[Tensor, ...] = ()) -> Tensor:
    """Direct 2-D convolution (cross-correlation) with zero padding, and an
    optional ReLU or sigmoid, of *x* or of *x* and the channel groups
    *concat* read as one input.

    ``w`` is (Cout, Cin, k, k) with k odd or 1; output spatial size is
    floor((H + 2*pad - k)/stride) + 1.  ``concat=(y, z)`` gives
    ``conv2d(concat_channels(concat_channels(x, y), z), ...)`` bit for bit,
    output and gradients, without building the concatenation: each group
    must match *x* in N, H, W and dtype, and Cin is the sum of their
    channels.  ``relu=True`` gives ``relu(conv2d(...))`` bit for bit,
    output and gradients, as one op: the ReLU is applied in the pass that
    writes the output, and the tape keeps one activation instead of two.  ``sigmoid=True`` gives
    ``sigmoid(conv2d(...))`` the same way: each row block is squashed in the
    output it was just written to, with the formula of ``sigmoid``, so no
    pre-activation plane exists.  The two cannot be combined.

    Layout: channel-major.  The conv is computed at stride 1 on the
    zero-padded Hp x Wp grid: column n*Hp*Wp + i*Wp + j is anchor (i, j) of
    image n, and tap (u, v) of every anchor is the same column shifted by
    u*Wp + v.  Stride s keeps the stride-1 result at every s-th anchor,
    ``out[:, :, ::s, ::s]``, and its backward writes the output gradient
    onto those anchors of an otherwise zero stride-1 gradient.  The padded
    grid is never built whole; only the row blocks below hold parts of it.

    One blocked correlation computes the forward and dx.  It runs over
    blocks of whole anchor rows of about ``CONV_BLOCK`` anchors: whole
    images while one fits (their k - 1 bottom rows are computed and
    cropped), else kept rows of one image.  Per block, the k taps v are
    written into one (k*Cin, block + (k-1)*Wp) stack, which kernel row u
    reads u anchor rows down.  The stack is filled straight from the
    channel-major input: tap 0 is a copy of the block's input rows, with 0
    where it reads padding, and tap v is tap 0 shifted v columns.  Each
    channel group copies its rows into its own rows of tap 0, x first, so
    the stack holds the bytes the concatenated input would give it.
    Columns that only cropped anchors read (rows past the image, or a shift
    that wraps into the next row) hold 0.  A 1x1 conv without padding of
    one group reads a one-image block as a view of the input, and
    allocates no stack buffer when every block is one.  A block is thus
    k GEMMs, one per (Cout, k*Cin) kernel row of a (k, Cout, k*Cin)
    weight copy, summed into a (Cout, block) accumulator that stays in
    cache.  The cropped block
    plus the bias, and with ``relu=True`` or ``sigmoid=True`` its
    activation, is written straight into the NCHW output.

    The tape keeps no copy of the input: only the parents, whose groups are
    the tensors *x* and *concat* that their own producers hold anyway, not
    a concatenated copy; the weight copy, held until this node's backward
    runs, which then releases it; and, with ``relu=True`` or
    ``sigmoid=True``, the output array it already holds.  The backward pass
    writes the output gradient, masked by ``out > 0`` when ``relu=True``,
    or as ``g * out * (1 - out)`` in the order of ``sigmoid``'s backward
    when ``sigmoid=True``, onto the anchor grid after E = ((k-1)*Wp + k-1)
    leading zero columns; every other column of that (Cout, E + N*Hp*Wp)
    buffer is 0, and db is its row sum (the E zeros stay: numpy's pairwise
    sum rounds by the row's length).

    - dw runs over the forward's row blocks, extended to all Hp anchor rows
      because input pixels also lie on the rows the forward crops.  The
      forward's (k*Cin, block) stack is filled again from the groups, and
      kernel row u adds ``stack[:, u rows down] @ g_block.T`` to a
      (k, k*Cin, Cout) buffer.  A stack column that holds 0 instead of an
      input pixel meets a cropped anchor, whose gradient is 0.
    - dx: the padded input gradient at a is the sum over u, v of
      ``w[:, :, u, v].T @ g[a - u*Wp - v]``.  Turned by 180 degrees, a shift
      back is a shift on, so the turned view of dx is the correlation above
      of the turned stride-1 gradient, padded by q = k - 1 - pad (cropped by
      -q if q < 0), with unflipped kernel rows (k, Cin, k*Cout).  Row u
      still reads u rows down and each GEMM sums its (v, Cout) taps in the
      same order, so the turn changes no rounding.  Its stack shares dw's
      buffer; its weights are the forward's copy, not ``w.data``, which the
      optimizer updates in place before a later backward.  It is one
      correlation over all Cin channels, run when any group tracks
      gradients; each tracking group gets its channel slice of the result.
    """
    groups = (x, *concat)
    n, _, h, wd = x.shape
    for t in concat:
        if t.shape[0] != n or t.shape[2:] != x.shape[2:] or t.dtype != x.dtype:
            raise ValueError(f"conv2d: concat group of shape {t.shape} ({t.dtype}) does not match "
                             f"the input of shape {x.shape} ({x.dtype}) in N, H, W and dtype")
    ci = sum(t.shape[1] for t in groups)
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
    if stride < 1:
        raise ValueError(f"conv2d: stride must be >= 1, got {stride}")
    if relu and sigmoid:
        raise ValueError("conv2d: relu and sigmoid cannot be combined")
    if b is not None and b.shape != (1, co, 1, 1):
        raise ValueError(f"conv2d: bias shape {b.shape} != (1,{co},1,1)")
    hp, wp = h + 2 * pad, wd + 2 * pad
    ho, wo = hp - k + 1, wp - k + 1  # the stride-1 output
    if ho < 1 or wo < 1:
        raise ValueError(f"conv2d: output spatial size ({ho},{wo}) is empty for input ({h},{wd})")

    tall = k - 1
    ext = tall * wp + tall  # the largest tap shift
    xts = [t.data.transpose(1, 0, 2, 3) for t in groups]  # (C_g, N, H, W), views
    # (k, Cout, k*Cin): kernel row u as one matrix, columns tap-major.  Copied
    # 32 output channels at a time, which keeps the source block in cache and
    # halves the cost of this transposing copy on the 512-channel layers.
    wk = np.empty((k, co, k * ci), dtype=w.data.dtype)
    wk4 = wk.reshape(k, co, k, ci)
    for o in range(0, co, 32):
        wk4[:, o:o + 32] = w.data[o:o + 32].transpose(2, 0, 3, 1)
    dtype = np.result_type(x.data, w.data)
    out_data = np.empty((n, co, ho, wo), dtype=dtype if b is None else np.result_type(dtype, b.data))
    _correlate(xts, pad, wk, out_data, bias=None if b is None else b.data, relu=relu, sigmoid=sigmoid)
    out = Tensor(out_data[:, :, ::stride, ::stride])  # every stride-th anchor; Tensor makes a strided view contiguous
    alive = out.data if relu or sigmoid else None  # the tape keeps the output only for its derivative

    def grad_fn(g):
        # the output gradient on every stride-th anchor after E leading zero columns
        gp = np.zeros((co, ext + n * hp * wp), dtype=g.dtype)
        g1 = gp[:, ext:].reshape(co, n, hp, wp)[:, :, :ho, :wo]  # the stride-1 gradient
        gq = g1[:, :, ::stride, ::stride]
        if relu:
            np.multiply(g.transpose(1, 0, 2, 3), alive.transpose(1, 0, 2, 3) > 0, out=gq)
        elif sigmoid:
            _sigmoid_grad(g.transpose(1, 0, 2, 3), alive.transpose(1, 0, 2, 3), out=gq)
        else:
            gq[...] = g.transpose(1, 0, 2, 3)
        dxs, dw = [None] * len(groups), None  # a parent that tracks no gradient gets None, which backward skips
        bwd_blocks = _row_blocks(n, hp, wp, hp)  # input pixels lie on every anchor row
        span = max(size for *_, size in bwd_blocks) + tall * wp
        # one buffer for dw's input stacks, then dx's gradient stacks: a call
        # touches fewer fresh pages than with one buffer each; none when both read views
        buf = (None if all(_is_view(xts, pad, k, block) for block in bwd_blocks)
               else np.empty((k * max(ci, co), span + tall), dtype=np.result_type(x.data, gp)))
        if w.requires_grad:
            dwk = np.empty((k, k * ci, co), dtype=np.result_type(g, x.data))  # dw of kernel row u, (v, Cin) x Cout
            part = np.empty((k * ci, co), dtype=dwk.dtype)
            for bi, block in enumerate(bwd_blocks):
                # kernel row u: its stacked taps times the block's gradient
                start, size = block[4:]
                gb = gp[:, ext + start:ext + start + size]
                st = _stack(buf, xts, pad, k, block)
                for u in range(k):
                    if bi == 0:
                        np.matmul(st[:, u * wp:u * wp + size], gb.T, out=dwk[u])
                    else:
                        dwk[u] += np.matmul(st[:, u * wp:u * wp + size], gb.T, out=part)
            dw = dwk.reshape(k, k, ci, co).transpose(3, 2, 0, 1)
        if any(t.requires_grad for t in groups):
            q = k - 1 - pad
            turned = g1[:, :, ::-1, ::-1]
            if q < 0:  # pad > k - 1: the outer -q rows and columns read only padding
                turned, q = turned[:, :, -q:q, -q:q], 0
            dx = np.empty((n, ci, h, wd), dtype=np.result_type(g, wk))
            wt = np.ascontiguousarray(wk.reshape(k, co, k, ci).transpose(0, 3, 2, 1)).reshape(k, ci, k * co)
            _correlate((turned,), q, wt, dx[:, :, ::-1, ::-1], buf)
            c0 = 0
            for i, t in enumerate(groups):
                if t.requires_grad:
                    dxs[i] = dx[:, c0:c0 + t.shape[1]]
                c0 += t.shape[1]
        db = gp.sum(axis=1).reshape(1, co, 1, 1) if b is not None and b.requires_grad else None
        return (*dxs, dw, db) if b is not None else (*dxs, dw)

    parents = (*groups, w, b) if b is not None else (*groups, w)
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
    fan-out inside one graph and across calls on separate graphs; callers
    zero grads between optimization steps.

    Each node is released as soon as its gradient has been propagated: it
    drops its parents and its ``grad_fn``, and with them the activations,
    weight copies and buffers that only its backward read, so the tape
    shrinks while the backward runs instead of living until the step ends.
    A graph is therefore differentiated once: a call that reaches a node an
    earlier call released, on the same loss or on another loss that shares
    part of its graph, raises ValueError naming the op.
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
        parents, grad_fn = node.parents, node.grad_fn
        node.parents, node.grad_fn = (), None  # released: what only its backward reads dies with these names
        if g is None:
            continue
        parent_grads = grad_fn(g)
        g = grad_fn = None
        for p, pg in zip(parents, parent_grads):
            if p is None or pg is None or not p.requires_grad:
                continue
            if pg.shape != p.shape or pg.dtype != p.dtype:
                raise ValueError(f"backward: {node.op} returned a {pg.dtype} gradient of shape {pg.shape} "
                                 f"for a {p.dtype} parent of shape {p.shape}")
            key = p if p.node is None else p.node
            pending[key] = pending[key] + pg if key in pending else pg
        parents = parent_grads = p = pg = None  # no gradient or parent outlives its node into the next grad_fn
    # every node was popped, so what is left belongs to leaves; copied because one
    # array can reach two parents (``add``) and ``grad`` is scaled in place by the optimizer
    for leaf, g in pending.items():
        leaf.grad = g.copy() if leaf.grad is None else leaf.grad + g


def _collect_nodes(loss: Tensor) -> list[_OpNode]:
    """All nodes reachable from *loss*, sorted by creation order.

    Creation order is a topological order because an op's inputs always
    exist before its output.  A node that an earlier ``backward`` released
    raises ValueError naming its op.
    """
    seen: set[int] = set()
    found: list[_OpNode] = []
    stack = [loss]
    while stack:
        t = stack.pop()
        node = t.node
        if node is None or id(node) in seen:
            continue
        if node.grad_fn is None:
            raise ValueError(f"backward: the {node.op} node was released by an earlier backward; "
                             "a graph is differentiated once")
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

