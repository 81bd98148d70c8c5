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
    n, c, h, w = m.shape
    out = np.zeros_like(m, dtype=np.float64)
    for nn in range(n):
        for cc in range(c):
            for i in range(h):
                for j in range(w):
                    acc = 0.0
                    for u in (-1, 0, 1):
                        for v in (-1, 0, 1):
                            ii, jj = i + u, j + v
                            if 0 <= ii < h and 0 <= jj < w:
                                acc += m[nn, cc, ii, jj]
                    out[nn, cc, i, j] = acc / 9.0
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


def partial_conv_loops(f, m, w, b, eps=1e-8, renorm=True):
    """Direct per-pixel evaluation of the mask-renormalized convolution.

    out = (w * (f o m)) o (1/mbar) + b where mbar > eps, else 0, with mbar the
    zero-padded 3x3 mean of m (divisor 9).  Kernel 3, stride 1, pad 1.
    """
    fm = f * m
    raw = conv2d_loops(fm, w, b=None, stride=1, pad=1)
    mbar = mask_mean3x3_loops(m)
    n, co, h, wd = raw.shape
    out = np.zeros_like(raw)
    for nn in range(n):
        for c in range(co):
            for i in range(h):
                for j in range(wd):
                    if mbar[nn, c, i, j] > eps:
                        val = raw[nn, c, i, j]
                        if renorm:
                            val = val / mbar[nn, c, i, j]
                        out[nn, c, i, j] = val + b[c]
                    else:
                        out[nn, c, i, j] = 0.0
    return out


def exclusion_loss_script(t, r, n_scales=2, lambda_t=0.5, fixed_lambda=False):
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
        lam_r = lambda_t if fixed_lambda else l1_t / l1_r
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
