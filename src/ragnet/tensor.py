"""Dense NCHW tensors with reverse-mode automatic differentiation.

Every value in the library is a 4-D (batch, channel, height, width) array;
scalars are shaped (1, 1, 1, 1).  Inside an explicitly opened Tape each
operation links its output to its parents; ``backward`` walks that graph from
the loss in reverse creation order and accumulates gradients additively into
the ``grad`` of every reachable leaf (a tensor no op produced, such as a
Parameter).  Op outputs get no ``grad``: their gradients live only while
``backward`` runs, and each node is released once its gradient has been
propagated, so a graph is differentiated once.  The tape keeps only what a
backward reads: a node refers to an op output by its node, shape and
dtype, not its array, and each ``grad_fn`` closes over the arrays its
formula reads and no others, so a constant or an activation that no
backward reads is freed once the forward drops it.

One rule governs the tape.  The forward decides who gets a gradient: a
parent gets one from an op exactly when it tracked gradients as the op
ran.  And no array that a tape holds, nor one that ``backward`` hands to
a leaf as its ``grad``, is written in place; a caller assigns a new array
instead.  So a node keeps the arrays its op read, weights included,
uncopied, and a leaf's ``grad`` may be shared with another leaf.  Outside
a tape the same functions run forward-only, which is how oracles,
evaluation and data preparation avoid graph overhead.

Computation runs in float32 by default; tests and gradient checks use
float64.  No broadcasting is performed: all shapes must match exactly, which
keeps the network wiring shape-exact, and a Python scalar enters only through
``scalar_mul`` and ``scalar_add``.

Importing this module, which every ragnet module does, sets glibc's
allocator policy for the whole process: blocks up to ``MMAP_THRESHOLD``
come from the heap (which also turns off glibc's sliding threshold), and
the heap top is trimmed only past ``TRIM_THRESHOLD`` of free memory.  So
the activations, stacks and gradients a forward or a training step frees
stay mapped, and the next image or step reuses those pages instead of
faulting them in again.  Elsewhere than glibc nothing is set.
"""

from __future__ import annotations

import ctypes
import platform

from functools import partial

import numpy as np

DEFAULT_DTYPE = np.float32
LEAKY_SLOPE = 0.2  # leaky_relu's slope below 0
MASK_EPS = 1e-8    # conv2d divides by its coverage where that exceeds this, and writes 0 elsewhere
SCALAR_SHAPE = (1, 1, 1, 1)
MMAP_THRESHOLD = 32 << 20  # bytes; glibc's largest mmap threshold on 64-bit builds
TRIM_THRESHOLD = 1 << 30   # bytes


def _keep_freed_memory_mapped() -> None:
    """Set the allocator policy of the module docstring, on glibc only."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL("libc.so.6").mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, MMAP_THRESHOLD)  # M_MMAP_THRESHOLD
    mallopt(-1, TRIM_THRESHOLD)  # M_TRIM_THRESHOLD


_keep_freed_memory_mapped()

# Subgradient choices: |x| and Frobenius norm get gradient 0 at 0, clamp gets
# gradient 0 outside the clamp interval (inclusive boundaries pass through).


class Tape:
    """Context in which operations on gradient-tracking tensors build a graph.

    The tape holds no nodes.  Links point one way only, from each output to
    its node and from the node to its parents' references (see ``_OpNode``),
    so the graph is acyclic and is freed by reference counting once its last
    tensor is dropped.
    ``backward`` frees it sooner: it releases each node once the node's
    gradient has been propagated, so a graph is differentiated once.
    """

    _stack: list["Tape"] = []

    def __enter__(self) -> "Tape":
        Tape._stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        Tape._stack.pop()


class _OpNode:
    """One recorded op: name, parents, ``grad_fn`` (output gradient to parent
    gradients) and creation number.  It does not refer to its output, which
    holds it, so the two form no cycle; ``backward`` keys the output's
    pending gradient by this node.

    ``parents`` holds no array: per parent that tracked gradients when the
    op ran, an ``_Output`` (node, shape and dtype) of an op output or the
    leaf itself, and None for any other parent, which gets no gradient
    from this node.  The arrays a backward reads live in ``grad_fn``'s
    closure, chosen at the forward, and ``grad_fn`` returns None for
    exactly the parents kept as None.
    Once ``backward`` has propagated the output's gradient it releases the
    node: ``parents`` becomes () and ``grad_fn`` None, which frees what the
    closure kept, and a later ``backward`` that reaches the node raises."""

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

    Tensors produced by operations are treated as immutable.  A tape may
    hold the ``data`` of any tensor an op read, and ``backward`` may hand
    one array to several leaves as their ``grad``, so a caller replaces
    either with a new array instead of writing it in place (see the module
    docstring).  ``requires_grad`` is read when an op runs: it decides
    whether the op is recorded and whether this tensor gets a gradient
    from it.
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
    """A named trainable tensor; names are unique within a network.

    Once its network is built, its array is replaced, never written in
    place, as the module's rule asks of every array a tape holds: the
    optimizer assigns each update to ``data`` as a new array, so a backward
    run after a step still reads the forward's weights.  The He init and
    ``trainer.restore`` write in place, but only before any tape holds the
    array.
    """

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


def _taped(parents) -> bool:
    """Whether an op on *parents* is recorded: a tape is active and a parent tracks gradients."""
    return bool(Tape._stack) and any(p.requires_grad for p in parents)


class _Output:
    """What a node keeps of a parent that an op produced: its node, shape
    and dtype, for ``backward`` to key and check its gradient by, but not
    its array."""

    __slots__ = ("node", "shape", "dtype")

    def __init__(self, t: Tensor):
        self.node, self.shape, self.dtype = t.node, t.shape, t.dtype


def _parent(p: Tensor) -> "_Output | Tensor | None":
    """A node's reference to parent *p*, decided as the op runs: None unless
    *p* tracks gradients, else an ``_Output`` of an op output or the leaf itself."""
    if not p.requires_grad:
        return None
    return p if p.node is None else _Output(p)


def _record(op: str, parents, out: Tensor, grad_fn) -> Tensor:
    """Link *out* to its parents when ``_taped(parents)``."""
    if _taped(parents):
        out.requires_grad = True
        out.node = _OpNode(op, tuple(_parent(p) for p in parents), grad_fn)
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


def _grid(h, wd, pad, k):
    """The (Hp, Wp) image slot of conv2d's anchor grid for an H x W input,
    pad *pad* and kernel k: *pad* zero rows and columns lead the image, and
    only a pad wider than k - 1 adds pad - k + 1 more after it."""
    extra = max(pad - k + 1, 0)
    return h + pad + extra, wd + pad + extra


def _row_blocks(n, hp, wp, last, first=0):
    """Blocks (n0, n1, i0, i1, start, size): anchor rows i0..i1 of images
    n0..n1, their first anchor and their anchor count.  Whole images while
    one fits ``CONV_BLOCK``, else rows of one image from row *first* up to
    row *last*."""
    rows = max(1, CONV_BLOCK // wp)
    if rows >= hp:
        per = rows // hp
        spans = [(n0, min(n0 + per, n), 0, hp) for n0 in range(0, n, per)]
    else:
        spans = [(nn, nn + 1, i0, min(i0 + rows, last)) for nn in range(n) for i0 in range(first, last, rows)]
    return [(n0, n1, i0, i1, (n0 * hp + i0) * wp, ((n1 - n0 - 1) * hp + i1 - i0) * wp)
            for n0, n1, i0, i1 in spans]


def _is_view(groups: int, pad, k, block) -> bool:
    """Whether ``_stack`` reads *block* as a view of an input of *groups*
    channel groups: a single tap of one group on one image."""
    return k == 1 and pad == 0 and groups == 1 and block[1] - block[0] == 1


def _buffer(rows, blocks, k, wp, dtype):
    """A stack buffer of *rows* rows for the largest of *blocks* and its tap shifts."""
    return np.empty((rows, max(size for *_, size in blocks) + (k - 1) * (wp + 1)), dtype=dtype)


def _stack(buf, xts, pad, k, block):
    """Tap v as rows v*C..(v+1)*C of *buf*, filled from the (C_g, N, H, W)
    arrays *xts*, read as their concatenation along C (C = the sum of the
    C_g) on the anchor grid of ``_grid``: column j is grid column
    start + v + j, over the block's anchors and the rows below that its
    lower kernel rows read.  Past the block's images, or past row Hp of a
    one-image block, the columns hold 0: the next slot's top border, or
    columns that only cropped anchors read."""
    c = sum(len(xt) for xt in xts)
    _, _, h, wd = xts[0].shape
    hp, wp = _grid(h, wd, pad, k)
    n0, n1, i0, i1, _, size = block
    if _is_view(len(xts), pad, k, block):
        return xts[0][:, n0, i0:i1].reshape(c, size)
    tall = k - 1
    span = size + tall * wp
    rb = min(i1 + tall, hp) - i0  # the rows of each image that the block's anchors read
    st = buf[:k * c, :span + tall]
    lead = st[:c]
    lead[:, (n1 - n0) * rb * wp:] = 0
    grid = lead[:, :(n1 - n0) * rb * wp].reshape(c, n1 - n0, rb, wp)
    r0 = min(max(pad, i0), i0 + rb)
    r1 = max(min(pad + h, i0 + rb), r0)  # rows r0..r1 hold input pixels, the others border
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


def _shifted(buf, gp, k, wp, block):
    """Tap v as rows v*C..(v+1)*C of *buf*: the (C, L) gradient buffer *gp*
    from column start + k - 1 - v on, over the block's anchors and the
    k - 1 rows below; *gp* itself, as a view, when k = 1."""
    start, size = block[4:]
    if k == 1:
        return gp[:, start:start + size]
    c, span = len(gp), size + (k - 1) * wp
    st = buf[:k * c, :span]
    for v in range(k):  # tap v is tap 0, v columns back
        st[v * c:(v + 1) * c] = gp[:, start + k - 1 - v:start + k - 1 - v + span]
    return st


def _correlate(stack, blocks, wp, wk, out, origin=0, bias=None, relu=False, sigmoid=False, cover=None):
    """*out* (N, Cout, Ho, Wo) at (i, j) = anchor (origin + i, origin + j),
    on a grid of rows *wp* wide, of the correlation of the (k*C, block +
    (k-1)*wp) stacks ``stack(block)`` of *blocks* with kernel rows *wk*
    (k, Cout, k*C), divided by the coverage *cover* (one value per grid
    anchor) if given, plus *bias* and the activation, and 0 where *cover*
    is not above ``MASK_EPS``.  No second accumulator is allocated when
    k = 1."""
    k, co = wk.shape[:2]
    ho, wo = out.shape[2:]
    acc = np.empty((co, max(size for *_, size in blocks)), dtype=out.dtype)
    tmp = np.empty_like(acc) if k > 1 else None  # only kernel rows past the first read it
    for block in blocks:
        n0, n1, i0, i1, start, size = block
        st = stack(block)
        acc_b = acc[:, :size]
        np.matmul(wk[0], st[:, :size], out=acc_b)
        for u in range(1, k):  # kernel row u reads u anchor rows down
            acc_b += np.matmul(wk[u], st[:, u * wp:u * wp + size], out=tmp[:, :size])
        if cover is not None:
            cov = cover[start:start + size]
            active = cov > MASK_EPS
            np.divide(acc_b, cov, out=acc_b, where=active)
        if bias is not None:
            acc_b += bias.reshape(co, 1)
        if relu:
            np.maximum(acc_b, 0, out=acc_b)
        elif sigmoid:
            _sigmoid_into(acc_b, acc_b)
        if cover is not None:
            np.copyto(acc_b, 0, where=~active)  # after the ReLU too, since relu(0) = 0
        r0, r1 = max(i0, origin), min(i1, origin + ho)  # the block's kept rows
        kept = acc_b.reshape(co, n1 - n0, i1 - i0, wp)[:, :, r0 - i0:r1 - i0, origin:origin + wo]
        out[n0:n1, :, r0 - origin:r1 - origin] = kept.transpose(1, 0, 2, 3)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1, pad: int = 0,
           relu: bool = False, sigmoid: bool = False, *, concat: tuple[Tensor, ...] = (),
           coverage: Tensor | None = None) -> Tensor:
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
    ``sigmoid(conv2d(...))`` the same way: each row block is squashed in its
    accumulator, with the formula of ``sigmoid``, so no pre-activation
    plane exists.  The two cannot be combined.
    ``coverage`` (N, 1, Ho, Wo), one ratio per output position shared by
    every channel (``mask_mean3x3`` gives it), makes it a partial
    convolution (arXiv:1804.07723), at stride 1 without the sigmoid: the
    output is ``raw / coverage + b`` where the coverage exceeds
    ``MASK_EPS`` and exactly 0 elsewhere, then the ReLU.

    Layout: channel-major, on a shared-border anchor grid.  Each image
    has an Hp x Wp slot, Hp = H + pad and Wp = W + pad: its first pad
    rows and the first pad columns of each row are zero, and the image
    fills the rest.  The pad zero columns that start a row are also the
    previous row's right border, and the pad zero rows that start a slot
    the previous image's bottom border; zeros after the last slot pad the
    last image.  Only a pad wider than k - 1 adds pad - k + 1 more zero
    rows and columns after the image, since the output then has more
    anchors than H + pad (``_grid``).  Column n*Hp*Wp + i*Wp + j is anchor
    (i, j) of image n, and tap (u, v) of every anchor is the same column
    shifted by u*Wp + v.  The conv is computed at stride 1 on every anchor;
    the Ho x Wo kept ones are cropped, and the others, which may read
    across a border into the next row or slot, are dropped.  Stride s keeps
    the stride-1 result at every s-th anchor, ``out[:, :, ::s, ::s]``, and
    its backward writes the output gradient onto those anchors of an
    otherwise zero stride-1 gradient.  The grid is never built whole; only
    the row blocks below hold parts of it.

    One blocked correlation (``_correlate``) computes the forward and dx.
    It runs over blocks of whole anchor rows of about ``CONV_BLOCK``
    anchors: whole images while one fits, else kept rows of one image.  Per
    block, the k taps v are written into one (k*Cin, block + (k-1)*Wp)
    stack, which kernel row u reads u anchor rows down.  The forward's
    stack is filled straight from the channel-major input: tap 0 is a copy
    of the block's grid rows, with 0 on the borders, and tap v is tap 0
    shifted v columns.  Each channel group copies its rows into its own
    rows of tap 0, x first, so the stack holds the bytes the concatenated
    input would give it.  A 1x1 conv without padding of one group reads a
    one-image block as a view of the input, and allocates no stack buffer
    when every block is one.  A block is thus k GEMMs, one per
    (Cout, k*Cin) kernel row of a (k, Cout, k*Cin) weight copy, summed into
    a (Cout, block) accumulator that stays in cache.  On that contiguous
    accumulator the block is divided by the coverage if one is given (laid
    on the grid, 0 off the kept anchors), the bias is added, ``relu=True``
    or ``sigmoid=True`` applies its activation and a coverage not above
    ``MASK_EPS`` writes 0, in that order; then one copy moves the kept
    anchors into the NCHW output.

    The tape keeps what the backward reads, decided at the forward, and no
    concatenated copy of the input: the groups *x* and *concat*, which
    their own producers hold anyway, only when the weight tracks gradients
    (dw reads them); the weights' own array, not a copy, only when some
    group tracks (dx reads them); and the groups' and the bias's flags and
    the groups' channel widths.  With ``relu=True``, ``sigmoid=True`` or a
    tracking coverage it also keeps the output; with a coverage, its one
    channel and, if it tracks, the bias's array, but no raw output or
    reciprocal.  Each parent gets a gradient exactly when it tracked at the
    forward.  The node's backward releases all of it.

    The backward pass writes the output gradient, masked by ``out > 0``
    when ``relu=True``, or as ``g * out * (1 - out)`` in the order of
    ``sigmoid``'s backward when ``sigmoid=True``, onto the kept anchors of
    the grid after E = ((k-1)*Wp + k-1) leading columns.  Each column of
    that (Cout, E + N*Hp*Wp) buffer is written once: the gradient on the
    kept anchors and 0 on the E columns and every other anchor.  On this
    grid the stride-1 gradient is thus already zero-padded as dx needs it.
    db is the buffer's row sum (the E zeros stay: numpy's pairwise sum
    rounds by the row's length).  With a
    coverage, that g' is first set to 0 where the coverage is not above
    ``MASK_EPS``, then db is taken, d(coverage) = -sum_c g' (out - b) /
    coverage where it is above (else 0), and dx and dw read g' / coverage.

    - dw runs over the forward's row blocks.  The forward's (k*Cin, block)
      stack is filled again from the groups, and kernel row u adds
      ``stack[:, u rows down] @ g_block.T`` to a (k, k*Cin, Cout) buffer.
      An anchor that is not kept has gradient 0, so what its taps read
      adds nothing.  dw is returned as a C-contiguous (Cout, Cin, k, k)
      copy of that buffer, so a reduction over a weight gradient reads it
      in one order.
    - dx: the input gradient at grid anchor a is the sum over u, v of
      ``w[:, :, u, v].T @ g[a - u*Wp - v]``, which is column E + a - u*Wp - v
      of the gradient buffer.  So dx is the blocked correlation above, run
      over the anchor rows of input pixels and cropped to the H x W pixels:
      tap v of a block's stack is the buffer from column start + k-1-v on,
      a contiguous copy, and kernel row u of the (k, Cin, k*Cout) rows built
      at the backward from the weights the tape kept is read k-1-u rows
      down, the rows in reverse.  A 1x1 conv reads the buffer itself as a
      view.  The stack shares dw's buffer.  It is one correlation over all
      Cin channels, run when any group tracked gradients at the forward;
      each such group gets its channel slice of the result.
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
    ho, wo = h + 2 * pad - k + 1, wd + 2 * pad - k + 1  # the stride-1 output
    if ho < 1 or wo < 1:
        raise ValueError(f"conv2d: output spatial size ({ho},{wo}) is empty for input ({h},{wd})")
    if coverage is not None and (stride != 1 or sigmoid or coverage.shape != (n, 1, ho, wo)
                                 or coverage.dtype != x.dtype):
        raise ValueError(f"conv2d: a coverage must be {(n, 1, ho, wo)} {x.dtype} at stride 1 without sigmoid, "
                         f"got {coverage.shape} {coverage.dtype} at stride {stride}, sigmoid={sigmoid}")

    hp, wp = _grid(h, wd, pad, k)
    tall = k - 1
    ext = tall * wp + tall  # the largest tap shift
    blocks = _row_blocks(n, hp, wp, ho)
    views = all(_is_view(len(groups), pad, k, block) for block in blocks)
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
    cover = cover_grid = None
    if coverage is not None:
        cover = coverage.data[:, 0]  # (N, Ho, Wo), a view
        cover_grid = np.zeros(n * hp * wp, dtype=cover.dtype)  # 0 on the anchors the forward crops
        cover_grid.reshape(n, hp, wp)[:, :ho, :wo] = cover
    buf = None if views else _buffer(k * ci, blocks, k, wp, x.dtype)
    _correlate(partial(_stack, buf, xts, pad, k), blocks, wp, wk, out_data,
               bias=None if b is None else b.data, relu=relu, sigmoid=sigmoid, cover=cover_grid)
    out = Tensor(out_data[:, :, ::stride, ::stride])  # every stride-th anchor; Tensor makes a strided view contiguous
    parents = (*groups, w) + ((b,) if b is not None else ()) + ((coverage,) if coverage is not None else ())
    # what the backward reads, decided now: the groups for dw, the weights for dx,
    # the output for the activation's derivative and d(coverage), which also reads the bias
    cover_tracks = coverage is not None and coverage.requires_grad
    alive = out.data if relu or sigmoid or cover_tracks else None
    bf = b.data if cover_tracks and b is not None else None
    stacked = xts if w.requires_grad else None
    tracks, widths = [t.requires_grad for t in groups], [t.shape[1] for t in groups]
    wf = w.data if any(tracks) else None
    bias_tracks = b is not None and b.requires_grad
    ngroups, xdtype = len(groups), x.dtype

    def grad_fn(g):
        # the output gradient on the anchor grid after E leading columns, written
        # once: g' on the kept anchors, 0 on the others and on the E columns
        gp = np.empty((co, ext + n * hp * wp), dtype=g.dtype)
        gp[:, :ext] = 0
        grid = gp[:, ext:].reshape(co, n, hp, wp)
        grid[:, :, ho:] = 0
        grid[:, :, :ho, wo:] = 0
        if stride > 1:  # the anchors between the stride-th ones
            grid[:, :, :ho, :wo] = 0
        gq = grid[:, :, :ho:stride, :wo:stride]
        if relu:
            np.multiply(g.transpose(1, 0, 2, 3), alive.transpose(1, 0, 2, 3) > 0, out=gq)
        elif sigmoid:
            _sigmoid_grad(g.transpose(1, 0, 2, 3), alive.transpose(1, 0, 2, 3), out=gq)
        else:
            gq[...] = g.transpose(1, 0, 2, 3)
        if cover is not None:  # stride 1, so gq is the whole stride-1 gradient
            active = cover > MASK_EPS
            np.copyto(gq, 0, where=~active)
        db = gp.sum(axis=1).reshape(1, co, 1, 1) if bias_tracks else None
        dcov = None
        if cover_tracks:  # -sum_c g' (out - b) / coverage where active, else 0
            scaled = alive.transpose(1, 0, 2, 3) - (0.0 if bf is None else bf.reshape(co, 1, 1, 1))
            scaled *= gq
            total = scaled.sum(axis=0)
            dcov = np.zeros((n, 1, ho, wo), dtype=cover.dtype)
            np.divide(np.negative(total, out=total), cover, out=dcov[:, 0], where=active)
        if cover is not None:
            np.divide(gq, cover, out=gq, where=active)  # dx and dw read g' / coverage
        dxs, dw = [None] * ngroups, None  # a parent that tracked no gradient at the forward gets None
        dx_blocks = _row_blocks(n, hp, wp, pad + h, pad) if wf is not None else []  # the anchors of input pixels
        # one buffer for dw's input stacks, then dx's gradient stacks: a call
        # touches fewer fresh pages than with one buffer each; none when both read views
        buf = (_buffer(k * max(ci, co), blocks + dx_blocks, k, wp, np.result_type(xdtype, gp))
               if (stacked is not None and not views) or (wf is not None and k > 1) else None)
        if stacked is not None:
            dwk = np.empty((k, k * ci, co), dtype=np.result_type(g, xdtype))  # dw of kernel row u, (v, Cin) x Cout
            part = np.empty((k * ci, co), dtype=dwk.dtype)
            for bi, block in enumerate(blocks):
                # kernel row u: its stacked taps times the block's gradient
                start, size = block[4:]
                gb = gp[:, ext + start:ext + start + size]
                st = _stack(buf, stacked, pad, k, block)
                for u in range(k):
                    if bi == 0:
                        np.matmul(st[:, u * wp:u * wp + size], gb.T, out=dwk[u])
                    else:
                        dwk[u] += np.matmul(st[:, u * wp:u * wp + size], gb.T, out=part)
            dw = np.ascontiguousarray(dwk.reshape(k, k, ci, co).transpose(3, 2, 0, 1))
        if wf is not None:
            dx = np.empty((n, ci, h, wd), dtype=np.result_type(g, wf))
            wt = np.ascontiguousarray(wf.transpose(2, 1, 3, 0)).reshape(k, ci, k * co)  # (u, Cin, v, Cout)
            _correlate(partial(_shifted, buf, gp, k, wp), dx_blocks, wp, wt[::-1], dx, origin=pad)
            c0 = 0
            for i, (tracked, c) in enumerate(zip(tracks, widths)):
                if tracked:
                    dxs[i] = dx[:, c0:c0 + c]
                c0 += c
        return (*dxs, dw) + ((db,) if b is not None else ()) + ((dcov,) if coverage is not None else ())

    return _record("conv2d", parents, out, grad_fn)


def conv_transpose2d(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Transposed convolution with the fixed kernel 2, stride 2 layout.

    ``w`` is (Cin, Cout, 2, 2); output spatial size exactly doubles.  With
    stride equal to kernel size the output footprints are disjoint.  The
    tape keeps what the backward reads, decided at the forward: the input
    only when the weight tracks gradients (dw reads it), the weights' own
    array only when the input tracks (dx reads them), and the bias's flag.
    As in ``conv2d``, each parent gets a gradient exactly when it tracked
    at the forward.
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
    parents = (x, w, b) if b is not None else (x, w)
    # what the backward reads, decided now: the input for dw, the weights for dx
    xf = x.data if w.requires_grad else None
    wf = w.data if x.requires_grad else None
    bias_tracks = b is not None and b.requires_grad
    xshape, xdtype, wshape, wdtype = x.shape, x.dtype, w.shape, w.dtype

    def grad_fn(g):
        # a parent that tracked no gradient at the forward gets None
        dx = None if wf is None else np.zeros(xshape, dtype=xdtype)
        dw = None if xf is None else np.zeros(wshape, dtype=wdtype)
        for u in range(2):
            for v in range(2):
                gs = g[:, :, u::2, v::2]
                if dx is not None:
                    dx += np.tensordot(gs, wf[:, :, u, v], axes=([1], [1])).transpose(0, 3, 1, 2)
                if dw is not None:
                    dw[:, :, u, v] = np.tensordot(xf, gs, axes=([0, 2, 3], [0, 2, 3]))
        db = g.sum(axis=(0, 2, 3)).reshape(1, co, 1, 1) if bias_tracks else None
        return (dx, dw, db) if b is not None else (dx, dw)

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
    """Coverage of the zero-padded C x 3 x 3 window: the mean of *m* (N, C, H, W)
    over all its channels and the 3x3 neighborhood, with the fixed divisor
    9*C, as one channel (N, 1, H, W).  It is the partial convolution's
    ``coverage`` (see ``conv2d``).

    Border values are attenuated by the missing zero-padded neighbors
    (edges 6/9, corners 4/9 for an all-ones input).  Computed all in the
    input's dtype: the channel sum, then a separable box sum of that one
    channel.  The three-row sums (up + centre) + down go into one
    (n, 1, h, w+2) buffer whose first and last columns are 0, then the
    three-column sums of that buffer into the channel sum's own array,
    which is divided by 9*C.  No zero-padded copy is made; the first and
    last rows add their padding neighbour as an explicit ``+ 0.0``, which
    turns a -0 into +0 as the padded sum does.  The tape keeps nothing: the
    backward is the same box sum of the (N, 1, H, W) gradient, divided by
    9*C, spread over the C channels as one read-only broadcast view.
    """
    n, c, h, w = m.shape
    div = 9.0 * c

    def avg9(a, out=None):
        rows = np.empty((n, 1, h, w + 2), dtype=a.dtype)
        rows[..., [0, -1]] = 0
        r = rows[..., 1:-1]
        np.add(a[:, :, :-2], a[:, :, 1:-1], out=r[:, :, 1:-1])
        r[:, :, 1:-1] += a[:, :, 2:]
        np.add(a[:, :, 0], 0.0, out=r[:, :, 0])  # the padding row above
        r[:, :, 0] += a[:, :, 1] if h > 1 else 0.0
        if h > 1:
            np.add(a[:, :, -2], a[:, :, -1], out=r[:, :, -1])
            r[:, :, -1] += 0.0  # the padding row below
        box = np.add(rows[..., :-2], rows[..., 1:-1], out=out)
        box += rows[..., 2:]
        box /= div
        return box

    total = m.data.sum(axis=1, keepdims=True)
    out = Tensor(avg9(total, out=total))  # the rows buffer holds what the box reads

    def grad_fn(g):
        return (np.broadcast_to(avg9(g), (n, c, h, w)),)

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


def spatial_gradient(x: Tensor) -> Tensor:
    """Forward-difference gradients stacked on channels as (N, 2C, H, W): gx =
    x[..., j+1] - x[..., j] in channels [0, C), gy = x[..., i+1, :] - x[..., i, :]
    in [C, 2C); the last column of gx and the last row of gy are zero.

    The op records x as its parent twice and returns gy's input gradient
    first, then gx's, so x's gradient is (P + d_y) + d_x where P is what
    its later consumers passed back.
    """
    n, c, h, w = x.shape
    if h < 2 or w < 2:
        raise ValueError(f"spatial_gradient: need H,W >= 2, got ({h},{w})")
    d = np.zeros((n, 2 * c, h, w), dtype=x.dtype)
    d[:, :c, :, :-1] = x.data[:, :, :, 1:] - x.data[:, :, :, :-1]
    d[:, c:, :-1, :] = x.data[:, :, 1:, :] - x.data[:, :, :-1, :]

    def grad_fn(g):
        gx, gy = g[:, :c, :, :-1], g[:, c:, :-1, :]
        dx, dy = np.zeros((n, c, h, w), g.dtype), np.zeros((n, c, h, w), g.dtype)
        dx[:, :, :, :-1] -= gx
        dx[:, :, :, 1:] += gx
        dy[:, :, :-1, :] -= gy
        dy[:, :, 1:, :] += gy
        return dy, dx

    return _record("spatial_gradient", (x, x), Tensor(d), grad_fn)


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

def _binary(op, a: Tensor, b: Tensor, fwd, grad_fn):
    if a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor(fwd(a.data, b.data))
    return _record(op, (a, b), out, grad_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary("add", a, b, lambda x, y: x + y, lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary("sub", a, b, lambda x, y: x - y, lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """a * b.  The tape keeps each factor only when the other one tracks
    gradients, since only the other one's gradient reads it."""
    keep_a = a.data if b.requires_grad else None
    keep_b = b.data if a.requires_grad else None
    return _binary("mul", a, b, lambda x, y: x * y,
                   lambda g: (None if keep_b is None else g * keep_b, None if keep_a is None else g * keep_a))


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


def _taped_sign(x: Tensor) -> np.ndarray | None:
    """np.sign(x) for the tape, or None when the op is not recorded.  Kept as
    float16, which holds its values -1, +-0, 1 and NaN exactly in half the
    bytes of float32, so a product with it equals the product with
    np.sign(x); np.sign is 0 at 0, the documented subgradient choice."""
    return np.sign(x.data).astype(np.float16) if _taped((x,)) else None


def abs_(x: Tensor) -> Tensor:
    out = Tensor(np.abs(x.data))
    sign = _taped_sign(x)
    return _record("abs", (x,), out, lambda g: (g * sign,))


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


def leaky_relu(x: Tensor) -> Tensor:
    """x where x > 0, else ``LEAKY_SLOPE`` * x, formed as max(x, ``LEAKY_SLOPE`` * x),
    which holds for a slope in (0, 1]."""
    out = LEAKY_SLOPE * x.data
    np.maximum(x.data, out, out=out)

    def grad_fn(g):
        dx = g * LEAKY_SLOPE
        np.copyto(dx, g, where=x.data > 0)
        return (dx,)

    return _record("leaky_relu", (x,), Tensor(out), grad_fn)


# ---------------------------------------------------------------------------
# reductions (scalar outputs, shape (1,1,1,1))

def _reduce(op, x: Tensor, value: float, grad_of_x) -> Tensor:
    out = Tensor(np.full(SCALAR_SHAPE, value, dtype=x.data.dtype))
    return _record(op, (x,), out, lambda g: (g.reshape(()) * grad_of_x(),))


def reduce_sum(x: Tensor) -> Tensor:
    shape, dtype = x.shape, x.dtype
    return _reduce("sum", x, x.data.sum(), lambda: np.ones(shape, dtype=dtype))


def reduce_mean(x: Tensor) -> Tensor:
    shape, dtype, n = x.shape, x.dtype, x.data.size
    return _reduce("mean", x, x.data.mean(), lambda: np.full(shape, 1.0 / n, dtype=dtype))


def l1_norm(x: Tensor) -> Tensor:
    sign = _taped_sign(x)
    return _reduce("l1_norm", x, np.abs(x.data).sum(), lambda: sign)


def frobenius_norm(x: Tensor) -> Tensor:
    v = float(np.sqrt((x.data.astype(np.float64) ** 2).sum()))

    def grad_of_x():
        if v == 0.0:
            return np.zeros_like(x.data)
        return x.data / x.data.dtype.type(v)

    return _reduce("frobenius_norm", x, v, grad_of_x)


# ---------------------------------------------------------------------------
# backward

def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf that a reachable node kept as a parent.

    Leaves are the tensors no recorded op produced (parameters, inputs);
    op outputs get no ``grad``.  Gradients accumulate additively, both for
    fan-out inside one graph and across calls on separate graphs; callers
    zero grads between optimization steps.

    The tape holds only what some backward reads (see ``_OpNode``), so the
    peak of a step is the forward's live set, or, where the weight
    gradients outweigh the activations, inside the backward.  Each node is
    released as soon as its gradient has been propagated: it drops its
    parents and its ``grad_fn``, and with them the activations and buffers
    that only its backward read, so the tape shrinks while the backward
    runs instead of living until the step ends.
    A graph is therefore differentiated once: a call that reaches a node an
    earlier call released, on the same loss or on another loss that shares
    part of its graph, raises ValueError naming the op.
    No parent's flag is read here: a node kept the parents that tracked
    gradients as its op ran (see ``_OpNode``).  A ``grad_fn`` that returns
    a gradient whose shape or dtype differs from its parent's raises
    ValueError naming the op.  Each leaf gets its pending array uncopied,
    which one ``add`` may hand to two leaves, so a caller replaces a
    ``grad`` instead of scaling it in place.
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
            if p is None:
                continue
            if pg.shape != p.shape or pg.dtype != p.dtype:
                raise ValueError(f"backward: {node.op} returned a {pg.dtype} gradient of shape {pg.shape} "
                                 f"for a {p.dtype} parent of shape {p.shape}")
            key = p if p.node is None else p.node
            pending[key] = pending[key] + pg if key in pending else pg
        parents = parent_grads = p = pg = None  # no gradient or parent outlives its node into the next grad_fn
    # every node was popped, so what is left belongs to leaves
    for leaf, g in pending.items():
        leaf.grad = g if leaf.grad is None else leaf.grad + g


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

