"""Independent brute-force oracles used to pin expected values.

Everything here is written as plain nested loops (or direct summation) over
numpy arrays, deliberately ignoring how the library implements the same
operations, so the two sides of each comparison stay independent.
"""

import numpy as np


def conv2d_loops(x, w, b=None, stride=1, pad=0):
    n, ci, h, wd = x.shape
    co, _, k, _ = w.shape
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    xp = np.zeros((n, ci, h + 2 * pad, wd + 2 * pad), dtype=np.float64)
    xp[:, :, pad:pad + h, pad:pad + wd] = x
    out = np.zeros((n, co, ho, wo), dtype=np.float64)
    for nn in range(n):
        for oc in range(co):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for c in range(ci):
                        for u in range(k):
                            for v in range(k):
                                acc += xp[nn, c, i * stride + u, j * stride + v] * w[oc, c, u, v]
                    out[nn, oc, i, j] = acc + (b[oc] if b is not None else 0.0)
    return out


def conv2d_grad_loops(x, w, g, stride=1, pad=0):
    """(dx, dw, db) of conv2d for the output gradient *g*: every output entry
    sends g times each weight to the input pixel it read, and g times each
    input pixel to the weight that read it; reads of the zero padding are dropped."""
    n, ci, h, wd = x.shape
    co, _, k, _ = w.shape
    _, _, ho, wo = g.shape
    dx = np.zeros((n, ci, h, wd), dtype=np.float64)
    dw = np.zeros((co, ci, k, k), dtype=np.float64)
    db = np.zeros(co, dtype=np.float64)
    for nn in range(n):
        for oc in range(co):
            for i in range(ho):
                for j in range(wo):
                    gv = g[nn, oc, i, j]
                    db[oc] += gv
                    for c in range(ci):
                        for u in range(k):
                            for v in range(k):
                                r, q = i * stride + u - pad, j * stride + v - pad
                                if 0 <= r < h and 0 <= q < wd:
                                    dx[nn, c, r, q] += gv * w[oc, c, u, v]
                                    dw[oc, c, u, v] += gv * x[nn, c, r, q]
    return dx, dw, db


def conv_transpose2d_loops(x, w, b=None):
    # fixed kernel 2, stride 2
    n, ci, h, wd = x.shape
    _, co, _, _ = w.shape
    out = np.zeros((n, co, 2 * h, 2 * wd), dtype=np.float64)
    for nn in range(n):
        for c in range(ci):
            for i in range(h):
                for j in range(wd):
                    for oc in range(co):
                        for u in range(2):
                            for v in range(2):
                                out[nn, oc, 2 * i + u, 2 * j + v] += x[nn, c, i, j] * w[c, oc, u, v]
    if b is not None:
        out += b.reshape(1, co, 1, 1)
    return out


def maxpool2x2_loops(x):
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // 2, w // 2), dtype=np.float64)
    for nn in range(n):
        for cc in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    out[nn, cc, i, j] = max(x[nn, cc, 2 * i, 2 * j], x[nn, cc, 2 * i, 2 * j + 1],
                                            x[nn, cc, 2 * i + 1, 2 * j], x[nn, cc, 2 * i + 1, 2 * j + 1])
    return out


def maxpool2x2_grad_loops(x, g):
    # each window's gradient goes to its first maximum in row-major order
    n, c, h, w = x.shape
    dx = np.zeros_like(x, dtype=np.float64)
    for nn in range(n):
        for cc in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    win = [(2 * i + a, 2 * j + b) for a in (0, 1) for b in (0, 1)]
                    best = max(x[nn, cc, r, q] for r, q in win)
                    r, q = next(p for p in win if x[nn, cc, p[0], p[1]] == best)
                    dx[nn, cc, r, q] = g[nn, cc, i, j]
    return dx


def mask_mean3x3_loops(m):
    """Coverage of the zero-padded C x 3 x 3 window at each pixel: the sum of
    every in-bounds entry of all C channels, divided by 9*C, as one channel."""
    n, c, h, w = m.shape
    out = np.zeros((n, 1, h, w), dtype=np.float64)
    for nn in range(n):
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for cc in range(c):
                    for u in (-1, 0, 1):
                        for v in (-1, 0, 1):
                            ii, jj = i + u, j + v
                            if 0 <= ii < h and 0 <= jj < w:
                                acc += m[nn, cc, ii, jj]
                out[nn, 0, i, j] = acc / (9.0 * c)
    return out


def block_mean_loops(x, block):
    n, c, h, w = x.shape
    hb, wb = h // block, w // block
    out = np.zeros((n, c, hb, wb), dtype=np.float64)
    for nn in range(n):
        for cc in range(c):
            for i in range(hb):
                for j in range(wb):
                    out[nn, cc, i, j] = x[nn, cc, i * block:(i + 1) * block, j * block:(j + 1) * block].mean()
    return out


def conv2d_coverage_loops(x, w, b, cov, pad=1, eps=1e-8, relu=False):
    """The partial convolution per output entry: raw / cov + b where cov > eps,
    else 0, then the optional ReLU, with raw the stride-1 conv of *x* and the
    (N, 1, Ho, Wo) coverage *cov* shared by every output channel."""
    raw = conv2d_loops(x, w, b=None, stride=1, pad=pad)
    n, co, ho, wo = raw.shape
    out = np.zeros_like(raw)
    for nn in range(n):
        for c in range(co):
            for i in range(ho):
                for j in range(wo):
                    if cov[nn, 0, i, j] > eps:
                        val = raw[nn, c, i, j] / cov[nn, 0, i, j] + (b[c] if b is not None else 0.0)
                        out[nn, c, i, j] = max(val, 0.0) if relu else val
    return out


def conv2d_coverage_grad_loops(x, w, b, cov, g, pad=1, eps=1e-8, relu=False):
    """(dx, dw, db, dcov) of ``conv2d_coverage_loops`` for the output gradient
    *g*.  An entry whose coverage is not above eps, or whose ReLU is cut, is
    constant and sends nothing.  Any other sends g / cov to raw (and on to x
    and w as a conv's gradient does), g to the bias and -g * raw / cov**2 to
    its coverage."""
    raw = conv2d_loops(x, w, b=None, stride=1, pad=pad)
    out = conv2d_coverage_loops(x, w, b, cov, pad, eps, relu)
    n, co, ho, wo = raw.shape
    graw = np.zeros_like(raw)
    db = np.zeros(co, dtype=np.float64)
    dcov = np.zeros((n, 1, ho, wo), dtype=np.float64)
    for nn in range(n):
        for c in range(co):
            for i in range(ho):
                for j in range(wo):
                    cv = cov[nn, 0, i, j]
                    if cv <= eps or (relu and out[nn, c, i, j] <= 0):
                        continue
                    gv = g[nn, c, i, j]
                    graw[nn, c, i, j] = gv / cv
                    db[c] += gv
                    dcov[nn, 0, i, j] -= gv * raw[nn, c, i, j] / (cv * cv)
    dx, dw, _ = conv2d_grad_loops(x, w, graw, stride=1, pad=pad)
    return dx, dw, db, dcov


def partial_conv_loops(f, m, w, b, eps=1e-8):
    """Direct per-pixel evaluation of the partial convolution: the 3x3 conv of
    f o m, pad 1, divided by the coverage of m's whole window, plus b, where
    that coverage exceeds eps, else 0."""
    return conv2d_coverage_loops(f * m, w, b, mask_mean3x3_loops(m), pad=1, eps=eps)


def exclusion_loss_script(t, r, n_scales=2, lambda_t=0.5):
    """Standalone scripted multi-scale gradient-correlation penalty."""
    def grads(a):
        gx = np.zeros_like(a)
        gy = np.zeros_like(a)
        gx[:, :, :, :-1] = a[:, :, :, 1:] - a[:, :, :, :-1]
        gy[:, :, :-1, :] = a[:, :, 1:, :] - a[:, :, :-1, :]
        return gx, gy

    def down(a):
        nn, cc, hh, ww = a.shape
        return a.reshape(nn, cc, hh // 2, 2, ww // 2, 2).mean(axis=(3, 5))

    total = 0.0
    for s in range(n_scales + 1):
        tx, ty = grads(t)
        rx, ry = grads(r)
        l1_t = np.abs(tx).sum() + np.abs(ty).sum()
        l1_r = np.abs(rx).sum() + np.abs(ry).sum()
        if l1_r < 1e-8:
            t, r = down(t), down(r)
            continue
        lam_r = l1_t / l1_r
        psi_x = np.tanh(lambda_t * np.abs(tx)) * np.tanh(lam_r * np.abs(rx))
        psi_y = np.tanh(lambda_t * np.abs(ty)) * np.tanh(lam_r * np.abs(ry))
        fro = np.sqrt((psi_x ** 2).sum() + (psi_y ** 2).sum())
        total += np.sqrt(fro)
        t, r = down(t), down(r)
    return total / (n_scales + 1)


def psnr_direct(a, b, peak=1.0):
    mse = ((a.astype(np.float64) - b.astype(np.float64)) ** 2).mean()
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(peak * peak / mse)


def downsample2x_reshape_mean(x):
    n, c, h, w = x.shape
    return x.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))


def downsample2x_grad_repeat(g):
    return np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) / 4.0


def he_normal_serial(shape, seed, dtype):
    """He init drawn in one piece: a whole-shape float64 N(0,1) draw from PCG64(seed),
    scaled in place by sqrt(2 / fan_in), then cast to *dtype*."""
    rng = np.random.Generator(np.random.PCG64(seed))
    z = rng.standard_normal(shape)
    z *= np.sqrt(2.0 / int(np.prod(shape[1:])))
    return z.astype(dtype)


def filter_valid_whole_plane(img, k):
    """Separable valid correlation of the last two axes with the 1-D kernel *k*,
    rows first, each pass over whole planes: per tap, one product added into a
    zeroed float64 sum, in tap order."""
    h, w = img.shape[-2] - len(k) + 1, img.shape[-1] - len(k) + 1
    rows = np.zeros(img.shape[:-2] + (h, img.shape[-1]))
    for tap, kv in enumerate(k):
        rows += kv * img[..., tap:tap + h, :]
    out = np.zeros(img.shape[:-2] + (h, w))
    for tap, kv in enumerate(k):
        out += kv * rows[..., tap:tap + w]
    return out


# Whole-plane formulas of the mask ops, kept as byte-exact
# references for the library's buffer-reusing forms: the same arithmetic in
# the same order, written with np.where and a zero-padded copy.

def sigmoid_where(d):
    """Logistic sigmoid: 1/(1+e) where d >= 0, else e/(1+e), with e = exp(-|d|)."""
    e = np.exp(-np.abs(d))
    return np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid_grad_where(g, s):
    """Gradient through a sigmoid with output *s*: g * s * (1 - s)."""
    return g * s * (1.0 - s)


def box_mean_padded(a, div):
    """Zero-padded 3x3 box sum of each plane over one padded copy, rows then columns, divided by *div*."""
    n, c, h, w = a.shape
    ap = np.zeros((n, c, h + 2, w + 2), dtype=a.dtype)
    ap[:, :, 1:-1, 1:-1] = a
    rows = ap[:, :, :-2] + ap[:, :, 1:-1]
    rows += ap[:, :, 2:]
    box = rows[..., :-2] + rows[..., 1:-1]
    box += rows[..., 2:]
    box /= div
    return box


def mask_mean3x3_padded(m):
    """The channel sum of *m*, then its padded box sum divided by 9*C."""
    return box_mean_padded(m.sum(axis=1, keepdims=True), 9.0 * m.shape[1])


def coverage_where(raw, cov, b, eps=1e-8, relu=False):
    """The partial convolution's write on a conv output *raw*: raw / cov + b
    where cov > eps, else 0, optionally through a ReLU."""
    active = cov > eps
    out = np.where(active, raw / np.where(active, cov, 1.0) + b, 0.0)
    return np.maximum(out, 0) if relu else out


def coverage_grad_where(out, cov, b, g, eps=1e-8, relu=False):
    """(g', g' / cov, dcov) of ``coverage_where`` for the output gradient *g*,
    with *out* its output: g' is g, masked by the ReLU, where cov > eps and 0
    elsewhere; the bias reads g', the conv output g' / cov, and the coverage
    -sum_c g' * (out - b) / cov."""
    active = cov > eps
    safe = np.where(active, cov, 1.0)
    gp = np.where(active, g * (out > 0) if relu else g, 0.0)
    dcov = np.where(active, -(gp * (out - b)).sum(axis=1, keepdims=True) / safe, 0.0)
    return gp, np.where(active, gp / safe, 0.0), dcov


def leaky_relu_where(x, slope=0.2):
    """x where x > 0, else slope * x."""
    return np.where(x > 0, x, slope * x)


def leaky_relu_grad_where(x, g, slope=0.2):
    """Gradient through ``leaky_relu_where``: g where x > 0, else g * slope, in x's dtype."""
    return g * np.where(x > 0, 1.0, slope).astype(x.dtype)
