"""The five training objectives and their weighted combination.

Reconstruction and perceptual terms compare both predicted layers to ground
truth; the exclusion term penalizes correlated gradients of the predicted
transmission and reflection at ``EXCL_SCALES`` + 1 = 3 scales with
``EXCL_LAMBDA_T`` = 0.5 scaling |grad T|; the mask term drives the
difference-feature masks toward 0 in heavy-reflection regions and all masks
toward 1 in near-clean regions; the adversarial pair trains a realness
critic on (observation, transmission) pairs.

The combined objective is
``l_rec + l_percep + 0.2 * l_excl + 0.01 * l_adv + l_mask`` by default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import ragnet.tensor as T
from ragnet.metrics import DEFAULT_TAU
from ragnet.tensor import Tensor
from ragnet.model import MaskLevel, ModelConfig, Network, build_network, extract_features, forward_discriminator

LOG_CLAMP = 1e-7
EXCL_SCALES = 2       # the exclusion term halves the resolution twice: three scales
EXCL_LAMBDA_T = 0.5   # fixed tanh scale of |grad T| in the exclusion term


@dataclass
class LossWeights:
    rec: float = 1.0
    percep: float = 1.0
    excl: float = 0.2
    adv: float = 0.01
    mask: float = 1.0

    def __post_init__(self):
        for name, v in self.__dict__.items():
            with np.errstate(over="ignore"):  # the losses are float32
                v32 = np.float32(v)
            if not (np.isfinite(v32) and v >= 0):
                raise ValueError(f"loss weight {name} must be finite and >= 0 in float32, got {v}")


@dataclass
class MaskLossThresholds:
    phi: float = 0.3    # heavy-reflection cutoff: drive M_diff -> 0 above it
    xi: float = 0.01    # near-clean cutoff: drive all masks -> 1 below it
    tau: float = DEFAULT_TAU  # evaluation split between weak/strong regions

    def __post_init__(self):
        for name, v in (("phi", self.phi), ("xi", self.xi), ("tau", self.tau)):
            if not 0 < v < 1:
                raise ValueError(f"threshold {name} must lie in (0,1), got {v}")
        if self.xi >= self.phi:
            raise ValueError(f"xi ({self.xi}) must be < phi ({self.phi})")


@dataclass
class LossParts:
    rec: Tensor | None = None
    percep: Tensor | None = None
    excl: Tensor | None = None
    adv: Tensor | None = None
    mask: Tensor | None = None


class PerceptualExtractor:
    """Frozen seeded five-stage conv pyramid standing in for a pretrained backbone.

    Each stage is weighted by 1/(C*H*W) of its feature map, so every stage
    contributes a mean absolute feature difference.
    """

    def __init__(self, config: ModelConfig, dtype=T.DEFAULT_DTYPE, draw_init: bool = True):
        self.net: Network = build_network("percep_extractor", config, dtype=dtype, draw_init=draw_init)

    def features(self, x: Tensor) -> list[Tensor]:
        return extract_features(self.net, x)

    def weight_for(self, feat: Tensor) -> float:
        _, c, h, w = feat.shape
        return 1.0 / (c * h * w)


def _l1_diff(a: Tensor, b: Tensor, normalize: bool) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"loss input shapes differ: {a.shape} vs {b.shape}")
    term = T.l1_norm(T.sub(a, b))
    if normalize:
        term = T.scalar_mul(term, 1.0 / a.data.size)
    return term


def rec_loss(t_hat: Tensor, t: Tensor, r_hat: Tensor | None = None, r: Tensor | None = None,
             normalize: bool = False) -> Tensor:
    """Pixel-wise l1 on the transmission, plus the reflection when available.

    The default is the literal un-normalized l1 sum; ``normalize=True``
    switches to a per-element mean so the loss scale is resolution-free.
    """
    loss = _l1_diff(t_hat, t, normalize)
    if r_hat is not None:
        if r is None:
            raise ValueError("rec_loss: r_hat given without its ground truth r")
        loss = T.add(loss, _l1_diff(r_hat, r, normalize))
    return loss


def perceptual_loss(t_hat: Tensor, t: Tensor, r_hat: Tensor | None, r: Tensor | None,
                    extractor: PerceptualExtractor) -> Tensor:
    """Stage-weighted l1 distance between frozen feature pyramids."""
    pairs = [(t_hat, t)]
    if r_hat is not None:
        if r is None:
            raise ValueError("perceptual_loss: r_hat given without its ground truth r")
        pairs.append((r_hat, r))
    loss = None
    for pred, gt in pairs:
        if pred.shape != gt.shape:
            raise ValueError(f"loss input shapes differ: {pred.shape} vs {gt.shape}")
        f_pred = extractor.features(pred)
        f_gt = extractor.features(gt)
        for fp, fg in zip(f_pred, f_gt):
            term = T.scalar_mul(T.l1_norm(T.sub(fp, fg)), extractor.weight_for(fp))
            loss = term if loss is None else T.add(loss, term)
    return loss


def _scale_gradients(t: Tensor, r: Tensor):
    """Spatial gradients (tx, ty, rx, ry) at each scale, halving the resolution between scales."""
    for scale in range(EXCL_SCALES + 1):
        yield T.spatial_gradient(t) + T.spatial_gradient(r)
        if scale < EXCL_SCALES:
            t, r = T.downsample2x(t), T.downsample2x(r)


def _gradient_mass_ratio(tx: Tensor, ty: Tensor, rx: Tensor, ry: Tensor) -> float | None:
    """|grad T|_1 / |grad R|_1 of one scale, or None where |grad R|_1 vanishes."""
    l1_r = float(np.abs(rx.data).sum() + np.abs(ry.data).sum())
    if l1_r < 1e-8:
        return None
    return float(np.abs(tx.data).sum() + np.abs(ty.data).sum()) / l1_r


def exclusion_lambdas(t_hat: Tensor, r_hat: Tensor) -> list[float | None]:
    """Per-scale reflection normalization factors |grad T|_1 / |grad R|_1.

    None marks a scale whose reflection gradient mass vanishes (the scale
    contributes nothing to the loss).
    """
    return [_gradient_mass_ratio(*g) for g in _scale_gradients(t_hat, r_hat)]


def exclusion_loss(t_hat: Tensor, r_hat: Tensor, lambda_r_values: list[float | None] | None = None) -> Tensor:
    """Multi-scale penalty on correlated gradients of the two predicted layers.

    Per scale: sqrt of the Frobenius norm of tanh(lambda_t * |grad T|) o
    tanh(lambda_r * |grad R|), lambda_t = ``EXCL_LAMBDA_T``, with both gradient
    components in the norm.  lambda_r normalizes by the gradient-mass ratio
    |grad T|_1 / |grad R|_1 of that scale and is treated as a constant with
    respect to gradients; a scale with vanishing |grad R|_1 contributes 0.

    ``lambda_r_values`` supplies frozen per-scale factors (from
    :func:`exclusion_lambdas`) so finite-difference probes can hold the
    stop-gradient factor constant while perturbing the inputs.
    """
    if t_hat.shape != r_hat.shape:
        raise ValueError(f"exclusion_loss: shape mismatch {t_hat.shape} vs {r_hat.shape}")
    div = 2 ** EXCL_SCALES
    _, _, h, w = t_hat.shape
    if h % div or w % div:
        raise ValueError(f"exclusion_loss: spatial dims ({h},{w}) must be divisible by {div}")

    loss = None
    for scale, (tx, ty, rx, ry) in enumerate(_scale_gradients(t_hat, r_hat)):
        if lambda_r_values is not None:
            lam_r = lambda_r_values[scale]
        else:
            lam_r = _gradient_mass_ratio(tx, ty, rx, ry)  # stop-gradient normalization factor
        if lam_r is not None:
            psi_x = T.mul(T.tanh(T.scalar_mul(T.abs_(tx), EXCL_LAMBDA_T)),
                          T.tanh(T.scalar_mul(T.abs_(rx), lam_r)))
            psi_y = T.mul(T.tanh(T.scalar_mul(T.abs_(ty), EXCL_LAMBDA_T)),
                          T.tanh(T.scalar_mul(T.abs_(ry), lam_r)))
            term = T.sqrt(T.frobenius_norm(T.concat_channels(psi_x, psi_y)))
            loss = term if loss is None else T.add(loss, term)
    if loss is None:
        loss = T.scalar(0.0, dtype=t_hat.dtype)
    return T.scalar_mul(loss, 1.0 / (EXCL_SCALES + 1))


def _pool_luminance(r_gt: np.ndarray, level: int) -> np.ndarray:
    """Channel-mean reflection intensity average-pooled to the level's resolution."""
    lum = r_gt.mean(axis=1, keepdims=True)
    for _ in range(level - 1):
        n, c, h, w = lum.shape
        lum = lum.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))
    return lum


def _region_l1(x: Tensor, region: np.ndarray, normalize: bool, dtype) -> Tensor:
    """l1 norm of *x* over the pixels of *region*, summed or averaged.

    *region* is an (N,1,H,W) boolean map broadcast over the channels of *x*;
    in normalized mode the sum is divided by the count of selected entries,
    as a Python float so that a float32 *x* keeps a float32 loss.
    """
    sel = np.broadcast_to(region, (region.shape[0], x.shape[1]) + region.shape[2:])
    w = T.tensor(np.ascontiguousarray(sel.astype(dtype)))
    term = T.l1_norm(T.mul(x, w))
    if normalize:
        term = T.scalar_mul(term, 1.0 / int(sel.sum()))
    return term


def mask_loss(masks: list[MaskLevel], r_gt: Tensor, thresholds: MaskLossThresholds,
              normalize: bool = True) -> Tensor:
    """Mask supervision from the ground-truth reflection intensity.

    Heavy regions (intensity > phi) pull the per-level difference masks
    M_diff toward 0; near-clean regions (intensity < xi) pull the full mask
    [M_diff, M_dec] toward 1, as one region in both modes; intermediate
    regions are unconstrained.  The intensity map is the channel mean of the
    reflection, average-pooled to each level.  With ``normalize`` each
    selected region contributes its mean rather than the raw sum, decoupling
    the loss scale from resolution (the raw-sum mode remains available for
    oracle comparisons); ``normalize`` changes only the divisor.

    M_diff and M_dec have equal channel counts in every variant, so this
    clean-region mean equals the average of a mean over M_diff and a mean
    over M_dec, and its per-entry pull on M_diff is half that of a separate
    mean over M_diff alone.
    """
    loss = None
    dtype = r_gt.dtype
    for ml in masks:
        lum = _pool_luminance(r_gt.data, ml.level)
        heavy = lum > thresholds.phi
        weak = lum < thresholds.xi
        if heavy.any():
            term = _region_l1(ml.m_diff, heavy, normalize, dtype)
            loss = term if loss is None else T.add(loss, term)
        if weak.any():
            full_mask = T.concat_channels(ml.m_diff, ml.m_dec)
            ones = T.ones(full_mask.shape, dtype=full_mask.dtype)
            term = _region_l1(T.sub(full_mask, ones), weak, normalize, dtype)
            loss = term if loss is None else T.add(loss, term)
    if loss is None:
        loss = T.scalar(0.0, dtype=dtype)
    return loss


def _neg_log(x: Tensor) -> Tensor:
    return T.scalar_mul(T.log(T.clamp(x, LOG_CLAMP, 1.0 - LOG_CLAMP)), -1.0)


def adv_d_loss(d_net: Network, i_obs: Tensor, t_real: Tensor, t_fake: Tensor) -> Tensor:
    """Critic objective in the stable form -log D(I,T) - log(1 - D(I,T_hat)).

    ``t_fake`` must be detached: the generator receives no gradient from the
    critic's step.
    """
    if t_fake.requires_grad:
        raise ValueError("adv_d_loss: t_fake must be detached (call .detach() on the prediction)")
    d_real = forward_discriminator(d_net, i_obs, t_real)
    d_fake = forward_discriminator(d_net, i_obs, t_fake)
    one_minus = T.scalar_add(T.scalar_mul(d_fake, -1.0), 1.0)
    return T.add(_neg_log(d_real), _neg_log(one_minus))


def adv_g_loss(d_net: Network, i_obs: Tensor, t_fake: Tensor) -> Tensor:
    """Generator objective -log D(I, T_hat)."""
    return _neg_log(forward_discriminator(d_net, i_obs, t_fake))


def total_loss(parts: LossParts, weights: LossWeights, use_adversarial: bool = True) -> Tensor:
    """Weighted sum of the available parts, in fixed left-to-right order."""
    total = None
    order = [(parts.rec, weights.rec), (parts.percep, weights.percep),
             (parts.excl, weights.excl)]
    if use_adversarial:
        order.append((parts.adv, weights.adv))
    order.append((parts.mask, weights.mask))
    for part, lam in order:
        if part is None:
            continue
        term = T.scalar_mul(part, lam)
        total = term if total is None else T.add(total, term)
    if total is None:
        raise ValueError("total_loss: no loss parts given")
    return total
