"""Every finite-difference check of the package, as one table.

``CHECKS`` is the one place a finite-difference check is written: each entry
names an operation or loss and the seeded double-precision leaves to probe it
at.  ``run_suite`` (``ragnet gradcheck``) runs the table in order; tier-1 runs
it check by check.  Operations must agree with central differences to 1e-6
relative error, composite losses to 1e-5, and the loss-through-second-stage
composite to 1e-4.  The stop-gradient factor of the exclusion loss is held
frozen during probing (that is the derivative the design defines).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import ragnet.tensor as T
from ragnet import losses as L
from ragnet import model as M

OP_TOL = 1e-6
LOSS_TOL = 1e-5
NETWORK_TOL = 1e-4
SHAPES = [(1, 1, 4, 4), (2, 2, 4, 6), (1, 3, 6, 4)]
IMG8, IMG16, IMG32 = (1, 3, 8, 8), (1, 3, 16, 16), (1, 3, 32, 32)


@dataclass
class CheckResult:
    name: str
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


@dataclass(frozen=True)
class Check:
    """A named check: ``setup()`` returns the scalar function and the leaf sets it is probed at."""

    name: str
    setup: Callable[[], tuple[Callable[..., T.Tensor], list[tuple[T.Tensor, ...]]]]
    tolerance: float = OP_TOL
    max_coords: int = 64

    def run(self) -> CheckResult:
        fn, leafsets = self.setup()
        worst = max(T.finite_diff_check(fn, list(leaves), step=1e-5, max_coords=self.max_coords, seed=k)
                    for k, leaves in enumerate(leafsets))
        return CheckResult(self.name, worst, self.tolerance)


def _leaf(shape, seed, lo=-1.0, hi=1.0, requires_grad=True):
    rng = np.random.Generator(np.random.PCG64(seed))
    return T.tensor(rng.uniform(lo, hi, size=shape), requires_grad=requires_grad)


def _op(name, fn, *specs, net=None, **kw):
    """``fn`` at one leaf set; each spec is ``_leaf``'s arguments.  A ``net`` of (kind,
    width, seed) is built in float64 when the check runs and passed to ``fn`` first."""
    def setup():
        leaves = [tuple(_leaf(*spec) for spec in specs)]
        if net is None:
            return fn, leaves
        kind, width, seed = net
        return partial(fn, M.build_network(kind, M.ModelConfig(width_multiplier=width, seed=seed), np.float64)), leaves
    return Check(name, setup, **kw)


def _op3(name, fn, specs):
    """``fn`` at one leaf set per shape of SHAPES; ``specs(i, shape)`` lists that set's leaf specs."""
    return Check(name, lambda: (fn, [tuple(_leaf(*spec) for spec in specs(i, s)) for i, s in enumerate(SHAPES)]))


def _sigmoid_conv_spatial_gradient(x, w):
    gx, gy = T.spatial_gradient(T.sigmoid(T.conv2d(x, w, None, 1, 1)))
    return T.add(T.frobenius_norm(gx), T.l1_norm(gy))


CHECKS: tuple[Check, ...] = (
    _op3("conv2d", lambda x, w, b: T.reduce_sum(T.tanh(T.conv2d(x, w, b, 1, 1))),
         lambda i, s: [(s, 10 + i), ((2, s[1], 3, 3), 20 + i), ((1, 2, 1, 1), 30 + i)]),
    _op3("conv2d_relu", lambda x, w, b: T.reduce_sum(T.tanh(T.conv2d(x, w, b, 1, 1, relu=True))),
         lambda i, s: [(s, 260 + i), ((2, s[1], 3, 3), 270 + i), ((1, 2, 1, 1), 280 + i)]),
    _op3("conv2d_sigmoid", lambda x, w, b: T.reduce_sum(T.tanh(T.conv2d(x, w, b, 1, 1, sigmoid=True))),
         lambda i, s: [(s, 290 + i), ((2, s[1], 3, 3), 300 + i), ((1, 2, 1, 1), 310 + i)]),
    _op("conv2d_stride2", lambda x, w: T.reduce_sum(T.conv2d(x, w, None, 2, 1)),
        ((1, 2, 6, 6), 40), ((2, 2, 3, 3), 41)),
    # the RAG mask heads m0/m1 are 1x1 convs
    _op("conv2d_1x1", lambda x, w, b: T.reduce_sum(T.tanh(T.conv2d(x, w, b))),
        ((2, 3, 4, 5), 42), ((2, 3, 1, 1), 43), ((1, 2, 1, 1), 44)),
    # a stride that does not divide the kernel: 5-tap windows 3 apart read some pixels once, some twice
    _op("conv2d_k5_stride3", lambda x, w, b: T.reduce_sum(T.tanh(T.conv2d(x, w, b, 3, 2))),
        ((1, 2, 9, 8), 45), ((3, 2, 5, 5), 46), ((1, 3, 1, 1), 47)),
    # a 1x1 kernel 2 apart reads one pixel of four, on a batch of two
    _op("conv2d_1x1_stride2", lambda x, w, b: T.reduce_sum(T.tanh(T.conv2d(x, w, b, 2, 0))),
        ((2, 3, 6, 6), 320), ((2, 3, 1, 1), 321), ((1, 2, 1, 1), 322)),
    # odd sides at stride 2 without padding leave the last row unread
    _op("conv2d_stride2_odd", lambda x, w, b: T.reduce_sum(T.tanh(T.conv2d(x, w, b, 2, 0))),
        ((3, 2, 5, 7), 325), ((2, 2, 3, 3), 326), ((1, 2, 1, 1), 327)),
    _op3("conv_transpose2d", lambda x, w, b: T.reduce_sum(T.sigmoid(T.conv_transpose2d(x, w, b))),
         lambda i, s: [(s, 50 + i), ((s[1], 2, 2, 2), 60 + i), ((1, 2, 1, 1), 70 + i)]),
    _op3("maxpool2x2", lambda x: T.reduce_sum(T.maxpool2x2(x)), lambda i, s: [(s, 80 + i)]),
    _op3("mask_mean3x3", lambda x: T.frobenius_norm(T.mask_mean3x3(x)), lambda i, s: [(s, 90 + i, 0.1, 0.9)]),
    _op3("downsample2x", lambda x: T.reduce_sum(T.tanh(T.downsample2x(x))), lambda i, s: [(s, 100 + i)]),
    _op3("spatial_gradient", lambda x: T.reduce_sum(T.mul(*T.spatial_gradient(x))), lambda i, s: [(s, 110 + i)]),
    _op3("elementwise_binary", lambda a, b: T.reduce_sum(T.mul(T.add(a, b), T.sub(a, b))),
         lambda i, s: [(s, 120 + i), (s, 130 + i)]),
    # the kinks of relu, abs and clamp stay out of reach of the probes
    *(_op3(name, lambda x, fn=fn: T.reduce_sum(fn(x)), lambda i, s: [(s, 140 + i, 0.05, 0.95)])
      for name, fn in (("relu", T.relu), ("sigmoid", T.sigmoid), ("tanh", T.tanh),
                       ("abs", T.abs_), ("clamp01", lambda x: T.clamp(x, 0.0, 1.0)))),
    # both slopes, each leaf on one side of the kink
    _op3("leaky_relu", lambda x, y: T.reduce_sum(T.leaky_relu(T.concat_channels(x, y))),
         lambda i, s: [(s, 150 + i, 0.05, 1.0), (s, 155 + i, -1.0, -0.05)]),
    _op3("log", lambda x: T.reduce_sum(T.log(x)), lambda i, s: [(s, 160 + i, 0.2, 2.0)]),
    _op3("sqrt", lambda x: T.reduce_sum(T.sqrt(x)), lambda i, s: [(s, 170 + i, 0.2, 2.0)]),
    _op3("scalar_ops", lambda x: T.reduce_mean(T.scalar_add(T.scalar_mul(x, 2.5), -0.75)),
         lambda i, s: [(s, 180 + i)]),
    _op("concat", lambda a, b: T.frobenius_norm(T.concat_channels(a, b)), ((1, 2, 4, 4), 190), ((1, 2, 4, 4), 191)),
    _op("repeat_channels", lambda x: T.frobenius_norm(T.repeat_channels(x, 3)), ((1, 2, 3, 3), 195)),
    *(_op3(name, fn, lambda i, s: [(s, 200 + i, 0.1, 1.0)])
      for name, fn in (("reduce_sum", T.reduce_sum), ("reduce_mean", T.reduce_mean),
                       ("l1_norm", T.l1_norm), ("frobenius_norm", T.frobenius_norm))),
    _op("mask_renorm", lambda y, m, b: T.reduce_sum(T.mask_renorm(y, T.mask_mean3x3(m), b)),
        ((1, 2, 4, 4), 210), ((1, 2, 4, 4), 211, 0.2, 0.9), ((1, 2, 1, 1), 212)),
    _op("partial_conv_renorm", lambda f, m, w, b: T.reduce_sum(T.tanh(M.partial_conv(f, m, w, b))),
        ((1, 2, 4, 4), 220), ((1, 2, 4, 4), 221, 0.2, 0.9), ((2, 2, 3, 3), 222), ((1, 2, 1, 1), 223)),
    _op("sigmoid_conv_spatial_gradient", _sigmoid_conv_spatial_gradient, ((1, 2, 4, 4), 330), ((2, 2, 3, 3), 331)),
    # composite losses; a leaf spec ending in False is a fixed input
    _op("rec_loss", lambda gt, th: L.rec_loss(th, gt), (IMG8, 230, 0, 1, False), (IMG8, 231, 0, 1),
        tolerance=LOSS_TOL),
    _op("perceptual_loss", lambda net, gt, th: L.perceptual_loss(th, gt, None, None, net),
        (IMG32, 232, 0, 1, False), (IMG32, 233, 0, 1), net=("percep_extractor", 0.125, 9),
        tolerance=LOSS_TOL, max_coords=24),
    # lambda_r from fixed copies of the leaves: the values at the unperturbed point
    _op("exclusion_loss",
        lambda t0, r0, th, rh: L.exclusion_loss(th, rh, lambda_r_values=L.exclusion_lambdas(t0, r0)),
        (IMG8, 234, 0, 1, False), (IMG8, 235, 0, 1, False), (IMG8, 234, 0, 1), (IMG8, 235, 0, 1),
        tolerance=LOSS_TOL, max_coords=32),
    _op("exclusion_loss_fixed_lambda",
        lambda th, rh: L.exclusion_loss(th, rh, lambda_r_values=[L.EXCL_LAMBDA_T] * (L.EXCL_SCALES + 1)),
        (IMG8, 340, 0, 1), (IMG8, 341, 0, 1), tolerance=LOSS_TOL, max_coords=32),
    _op("mask_loss", lambda r, *ms: L.mask_loss(list(ms), r, L.MaskLossThresholds()), (IMG8, 236, 0, 1, False),
        *(((1, 4, 8 >> i, 8 >> i), 240 + i, 0.2, 0.8) for i in range(4)), tolerance=LOSS_TOL),
    _op("adv_g_loss", L.adv_g_loss, (IMG32, 237, 0, 1, False),
        (IMG32, 238, 0.2, 0.8), net=("discriminator", 0.125, 10), tolerance=LOSS_TOL, max_coords=16),
    # gradient flow through the whole second stage
    _op("loss_through_g_t", lambda net, i, r: T.reduce_mean(M.forward_gt(net, i, r)[0]),
        (IMG16, 239, 0, 1), (IMG16, 241, 0, 1), net=("g_t", 1 / 16, 11), tolerance=NETWORK_TOL, max_coords=24),
)


def run_suite() -> list[CheckResult]:
    return [check.run() for check in CHECKS]
