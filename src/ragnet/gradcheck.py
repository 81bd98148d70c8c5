"""Central finite-difference verification of every differentiable operation and loss.

Runs in double precision on small seeded shapes.  Operations must agree with
central differences to 1e-6 relative error, composite losses to 1e-5, and the
loss-through-second-stage composite to 1e-4.  The stop-gradient factor of the
exclusion loss is held frozen during probing (that is the derivative the
design defines).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import ragnet.tensor as T
from ragnet import losses as L
from ragnet import model as M

OP_TOL = 1e-6
LOSS_TOL = 1e-5
NETWORK_TOL = 1e-4


@dataclass
class CheckResult:
    name: str
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def _leaf(shape, seed, lo=-1.0, hi=1.0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return T.tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


def _check(results, name, fn, leaves, tol, max_coords=48):
    worst = 0.0
    for k, leafset in enumerate(leaves):
        err = T.finite_diff_check(fn, list(leafset), step=1e-5, max_coords=max_coords, seed=k)
        worst = max(worst, err)
    results.append(CheckResult(name, worst, tol))


def run_suite() -> list[CheckResult]:
    results: list[CheckResult] = []
    shapes = [(1, 1, 4, 4), (2, 2, 4, 6), (1, 3, 6, 4)]

    def leaves3(mk):
        return [mk(i, s) for i, s in enumerate(shapes)]

    _check(results, "conv2d", lambda x, w, b: T.reduce_sum(T.tanh(T.conv2d(x, w, b, 1, 1))),
           leaves3(lambda i, s: (_leaf(s, 10 + i), _leaf((2, s[1], 3, 3), 20 + i), _leaf((1, 2, 1, 1), 30 + i))),
           OP_TOL)
    _check(results, "conv2d_relu", lambda x, w, b: T.reduce_sum(T.tanh(T.conv2d(x, w, b, 1, 1, relu=True))),
           leaves3(lambda i, s: (_leaf(s, 260 + i), _leaf((2, s[1], 3, 3), 270 + i), _leaf((1, 2, 1, 1), 280 + i))),
           OP_TOL)
    _check(results, "conv2d_sigmoid", lambda x, w, b: T.reduce_sum(T.tanh(T.conv2d(x, w, b, 1, 1, sigmoid=True))),
           leaves3(lambda i, s: (_leaf(s, 290 + i), _leaf((2, s[1], 3, 3), 300 + i), _leaf((1, 2, 1, 1), 310 + i))),
           OP_TOL)
    _check(results, "conv2d_stride2", lambda x, w: T.reduce_sum(T.conv2d(x, w, None, 2, 1)),
           [(_leaf((1, 2, 6, 6), 40), _leaf((2, 2, 3, 3), 41))], OP_TOL)
    # the RAG mask heads m0/m1 are 1x1 convs
    _check(results, "conv2d_1x1", lambda x, w, b: T.reduce_sum(T.tanh(T.conv2d(x, w, b))),
           [(_leaf((2, 3, 4, 5), 42), _leaf((2, 3, 1, 1), 43), _leaf((1, 2, 1, 1), 44))], OP_TOL)
    # a stride that does not divide the kernel: phases with sub-kernels of unequal sizes
    _check(results, "conv2d_k5_stride3", lambda x, w, b: T.reduce_sum(T.tanh(T.conv2d(x, w, b, 3, 2))),
           [(_leaf((1, 2, 9, 8), 45), _leaf((3, 2, 5, 5), 46), _leaf((1, 3, 1, 1), 47))], OP_TOL)
    _check(results, "conv_transpose2d", lambda x, w, b: T.reduce_sum(T.sigmoid(T.conv_transpose2d(x, w, b))),
           leaves3(lambda i, s: (_leaf(s, 50 + i), _leaf((s[1], 2, 2, 2), 60 + i), _leaf((1, 2, 1, 1), 70 + i))),
           OP_TOL)
    _check(results, "maxpool2x2", lambda x: T.reduce_sum(T.maxpool2x2(x)),
           leaves3(lambda i, s: (_leaf(s, 80 + i),)), OP_TOL)
    _check(results, "mask_mean3x3", lambda x: T.frobenius_norm(T.mask_mean3x3(x)),
           leaves3(lambda i, s: (_leaf(s, 90 + i, 0.1, 0.9),)), OP_TOL)
    _check(results, "downsample2x", lambda x: T.reduce_sum(T.tanh(T.downsample2x(x))),
           leaves3(lambda i, s: (_leaf(s, 100 + i),)), OP_TOL)
    _check(results, "spatial_gradient", lambda x: T.reduce_sum(T.mul(*T.spatial_gradient(x))),
           leaves3(lambda i, s: (_leaf(s, 110 + i),)), OP_TOL)
    _check(results, "elementwise_binary", lambda a, b: T.reduce_sum(T.mul(T.add(a, b), T.sub(a, b))),
           leaves3(lambda i, s: (_leaf(s, 120 + i), _leaf(s, 130 + i))), OP_TOL)
    for name, fn in (("relu", T.relu), ("sigmoid", T.sigmoid), ("tanh", T.tanh),
                     ("abs", T.abs_), ("clamp01", lambda x: T.clamp(x, 0.0, 1.0))):
        _check(results, name, lambda x, fn=fn: T.reduce_sum(fn(x)),
               leaves3(lambda i, s: (_leaf(s, 140 + i, 0.05, 0.95),)), OP_TOL)
    _check(results, "leaky_relu", lambda x: T.reduce_sum(T.leaky_relu(x)),
           leaves3(lambda i, s: (_leaf(s, 150 + i, 0.05, 1.0),)), OP_TOL)
    _check(results, "log", lambda x: T.reduce_sum(T.log(x)),
           leaves3(lambda i, s: (_leaf(s, 160 + i, 0.2, 2.0),)), OP_TOL)
    _check(results, "sqrt", lambda x: T.reduce_sum(T.sqrt(x)),
           leaves3(lambda i, s: (_leaf(s, 170 + i, 0.2, 2.0),)), OP_TOL)
    _check(results, "scalar_ops", lambda x: T.reduce_mean(T.scalar_add(T.scalar_mul(x, 2.5), -0.75)),
           leaves3(lambda i, s: (_leaf(s, 180 + i),)), OP_TOL)
    _check(results, "concat_slice", lambda a, b: T.frobenius_norm(T.slice_channels(T.concat_channels(a, b), 1, 3)),
           [(_leaf((1, 2, 4, 4), 190), _leaf((1, 2, 4, 4), 191))], OP_TOL)
    _check(results, "repeat_channels", lambda x: T.frobenius_norm(T.repeat_channels(x, 3)),
           [(_leaf((1, 2, 3, 3), 195),)], OP_TOL)
    for name, fn in (("reduce_sum", T.reduce_sum), ("reduce_mean", T.reduce_mean),
                     ("l1_norm", T.l1_norm), ("frobenius_norm", T.frobenius_norm)):
        _check(results, name, lambda x, fn=fn: fn(x),
               leaves3(lambda i, s: (_leaf(s, 200 + i, 0.1, 1.0),)), OP_TOL)
    _check(results, "mask_renorm", lambda y, m, b: T.reduce_sum(T.mask_renorm(y, T.mask_mean3x3(m), b)),
           [(_leaf((1, 2, 4, 4), 210), _leaf((1, 2, 4, 4), 211, 0.2, 0.9), _leaf((1, 2, 1, 1), 212))],
           OP_TOL)
    _check(results, "partial_conv_renorm",
           lambda f, m, w, b: T.reduce_sum(T.tanh(M.partial_conv(f, m, w, b))),
           [(_leaf((1, 2, 4, 4), 220), _leaf((1, 2, 4, 4), 221, 0.2, 0.9),
             _leaf((2, 2, 3, 3), 222), _leaf((1, 2, 1, 1), 223))], OP_TOL)

    # composite losses
    gt = T.tensor(np.random.Generator(np.random.PCG64(230)).uniform(0, 1, (1, 3, 8, 8)))
    _check(results, "rec_loss", lambda th: L.rec_loss(th, gt),
           [(_leaf((1, 3, 8, 8), 231, 0, 1),)], LOSS_TOL)

    extractor = L.PerceptualExtractor(M.ModelConfig(width_multiplier=0.125, seed=9), dtype=np.float64)
    gt32 = T.tensor(np.random.Generator(np.random.PCG64(232)).uniform(0, 1, (1, 3, 32, 32)))
    _check(results, "perceptual_loss", lambda th: L.perceptual_loss(th, gt32, None, None, extractor),
           [(_leaf((1, 3, 32, 32), 233, 0, 1),)], LOSS_TOL, max_coords=24)

    th0 = _leaf((1, 3, 8, 8), 234, 0, 1)
    rh0 = _leaf((1, 3, 8, 8), 235, 0, 1)
    lams = L.exclusion_lambdas(th0, rh0)
    _check(results, "exclusion_loss",
           lambda th, rh: L.exclusion_loss(th, rh, lambda_r_values=lams),
           [(th0, rh0)], LOSS_TOL, max_coords=32)

    thresholds = L.MaskLossThresholds()
    r_img = T.tensor(np.random.Generator(np.random.PCG64(236)).uniform(0, 1, (1, 3, 8, 8)))
    mask_levels = []
    leaves = []
    for level in (1, 2, 3, 4):
        hw = 8 // 2 ** (level - 1)
        md = _leaf((1, 2, hw, hw), 240 + level, 0.2, 0.8)
        me = _leaf((1, 2, hw, hw), 250 + level, 0.2, 0.8)
        mask_levels.append(M.MaskLevel(level, md, me))
        leaves.extend([md, me])
    _check(results, "mask_loss", lambda *ts: L.mask_loss(mask_levels, r_img, thresholds),
           [tuple(leaves)], LOSS_TOL, max_coords=16)

    disc = M.build_network("discriminator", M.ModelConfig(width_multiplier=0.125, seed=10), dtype=np.float64)
    i_img = T.tensor(np.random.Generator(np.random.PCG64(237)).uniform(0, 1, (1, 3, 32, 32)))
    _check(results, "adv_g_loss", lambda th: L.adv_g_loss(disc, i_img, th),
           [(_leaf((1, 3, 32, 32), 238, 0.2, 0.8),)], LOSS_TOL, max_coords=16)

    # gradient flow through the whole second stage
    gt_net = M.build_network("g_t", M.ModelConfig(width_multiplier=1 / 16, seed=11), dtype=np.float64)
    _check(results, "loss_through_g_t",
           lambda i, r: T.reduce_mean(M.forward_gt(gt_net, i, r)[0]),
           [(_leaf((1, 3, 16, 16), 239, 0, 1), _leaf((1, 3, 16, 16), 241, 0, 1))],
           NETWORK_TOL, max_coords=16)
    return results
