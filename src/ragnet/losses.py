"""The five training objectives and their weighted combination.

Reconstruction and perceptual terms compare each predicted layer that has a
ground truth to it; the exclusion term penalizes correlated gradients of the
predicted transmission and reflection at ``EXCL_SCALES`` + 1 = 3 scales with
``EXCL_LAMBDA_T`` = 0.5 scaling |grad T|; the mask term drives the
difference-feature half of each level's mask toward 0 in heavy-reflection
regions and the whole mask toward 1 in near-clean regions; the adversarial
pair trains a realness critic on (observation, transmission) pairs.

The combined objective is
``l_rec + l_percep + 0.2 * l_excl + 0.01 * l_adv + l_mask`` by default.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

import ragnet.tensor as T
from ragnet.metrics import DEFAULT_TAU
from ragnet.tensor import Tensor
from ragnet.model import Network, extract_features, forward_discriminator

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
    """The five terms; each is weighted by the ``LossWeights`` field of its name."""
    rec: Tensor | None = None
    percep: Tensor | None = None
    excl: Tensor | None = None
    adv: Tensor | None = None
    mask: Tensor | None = None


def _sum(terms) -> Tensor | None:
    """The recorded sum of *terms* from the left, each term recorded before its add; None for none."""
    loss = None
    for term in terms:
        loss = term if loss is None else T.add(loss, term)
    return loss


def _check_pairs(pairs: list[tuple[Tensor, Tensor]]) -> None:
    for pred, gt in pairs:
        if pred.shape != gt.shape:
            raise ValueError(f"loss input shapes differ: {pred.shape} vs {gt.shape}")


def rec_loss(pairs: list[tuple[Tensor, Tensor]]) -> Tensor:
    """Pixel-wise l1 of each (prediction, truth) pair, summed over the pairs,
    each as a per-element mean so that the loss scale is resolution-free."""
    _check_pairs(pairs)
    return _sum(T.scalar_mul(T.l1_norm(T.sub(pred, gt)), 1.0 / pred.data.size) for pred, gt in pairs)


def perceptual_loss(pairs: list[tuple[Tensor, Tensor]], percep: Network) -> Tensor:
    """Stage-weighted l1 distance between the feature pyramids of each (prediction, truth) pair,
    summed over the pairs.  The pyramids are those of *percep*, the frozen seeded
    ``percep_extractor`` network that stands in for a pretrained backbone.  Each stage is weighted
    by 1/(C*H*W) of its feature map, so every stage contributes a mean absolute feature difference."""
    _check_pairs(pairs)
    return _sum(T.scalar_mul(T.l1_norm(T.sub(fp, fg)), 1.0 / (fp.shape[1] * fp.shape[2] * fp.shape[3]))
                for pred, gt in pairs
                for fp, fg in zip(extract_features(percep, pred), extract_features(percep, gt)))


def _scale_gradients(t: Tensor, r: Tensor):
    """The stacked spatial gradients (g_T, g_R) at each scale, halving the resolution between scales;
    each holds gx then gy on channels (see ``T.spatial_gradient``)."""
    for scale in range(EXCL_SCALES + 1):
        yield T.spatial_gradient(t), T.spatial_gradient(r)
        if scale < EXCL_SCALES:
            t, r = T.downsample2x(t), T.downsample2x(r)


def _gradient_mass_ratio(g_t: Tensor, g_r: Tensor) -> float | None:
    """|grad T|_1 / |grad R|_1 of one scale, each |gx|_1 + |gy|_1 with the two directions
    summed apart; None where |grad R|_1 vanishes."""
    c = g_t.shape[1] // 2
    l1_t, l1_r = (float(np.abs(g.data[:, :c]).sum() + np.abs(g.data[:, c:]).sum()) for g in (g_t, g_r))
    return None if l1_r < 1e-8 else l1_t / l1_r


def exclusion_lambdas(t_hat: Tensor, r_hat: Tensor) -> list[float | None]:
    """Per-scale reflection normalization factors |grad T|_1 / |grad R|_1.

    None marks a scale whose reflection gradient mass vanishes (the scale
    contributes nothing to the loss).
    """
    return [_gradient_mass_ratio(*g) for g in _scale_gradients(t_hat, r_hat)]


def exclusion_loss(t_hat: Tensor, r_hat: Tensor, lambda_r_values: list[float | None] | None = None) -> Tensor:
    """Multi-scale penalty on correlated gradients of the two predicted layers.

    Per scale: sqrt of the Frobenius norm of tanh(lambda_t * |grad T|) o
    tanh(lambda_r * |grad R|), lambda_t = ``EXCL_LAMBDA_T``, where each grad
    is the stacked (gx, gy) of ``T.spatial_gradient``, so one norm covers both
    directions.  lambda_r normalizes by the gradient-mass ratio
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

    def terms():
        """One term per scale, each recorded before the next scale is pooled."""
        for scale, (g_t, g_r) in enumerate(_scale_gradients(t_hat, r_hat)):
            # the stop-gradient normalization factor
            lam_r = _gradient_mass_ratio(g_t, g_r) if lambda_r_values is None else lambda_r_values[scale]
            if lam_r is not None:
                psi = T.mul(T.tanh(T.scalar_mul(T.abs_(g_t), EXCL_LAMBDA_T)),
                            T.tanh(T.scalar_mul(T.abs_(g_r), lam_r)))
                yield T.sqrt(T.frobenius_norm(psi))

    loss = _sum(terms())
    if loss is None:
        loss = T.scalar(0.0, dtype=t_hat.dtype)
    return T.scalar_mul(loss, 1.0 / (EXCL_SCALES + 1))


def mask_loss(masks: list[Tensor], r_gt: Tensor, thresholds: MaskLossThresholds) -> Tensor:
    """Mask supervision from the ground-truth reflection intensity.

    ``masks[i]`` is the mask M of decoder level i + 1, with M_diff its first
    half of channels.  Heavy regions (intensity > phi) pull M_diff toward 0;
    near-clean regions (intensity < xi) pull all of M toward 1; intermediate
    regions are unconstrained.  The intensity map is the channel mean of the
    reflection, average-pooled to each level.  Each level adds one term,
    |(M - target) o weight|_1, where the target is 1 on clean pixels and 0
    elsewhere, and the weight is 1 / (entries selected) of the region an
    entry lies in and 0 outside both.  So each region contributes its mean
    rather than the raw sum, decoupling the loss scale from resolution, and
    the clean-region pull on each entry of M_diff is half that of a separate
    mean over M_diff alone.
    """
    def term(m: Tensor, lum: np.ndarray) -> Tensor:
        heavy = lum > thresholds.phi
        clean = lum < thresholds.xi  # never overlaps heavy, since xi < phi
        half = m.shape[1] // 2
        # each weight is a Python float cast into M's dtype
        weight = np.zeros(m.shape, dtype=m.dtype)
        if heavy.any():
            weight[:, :half] = np.where(heavy, 1.0 / int(heavy.sum() * half), 0.0)
        if clean.any():
            weight[np.broadcast_to(clean, m.shape)] = 1.0 / int(clean.sum() * m.shape[1])
        target = T.tensor(np.broadcast_to(clean, m.shape).astype(m.dtype))
        return T.l1_norm(T.mul(T.sub(m, target), T.tensor(weight)))

    # the constant luminance map of each level, pooled from the level above
    lums = [T.tensor(r_gt.data.mean(axis=1, keepdims=True))]
    while len(lums) < len(masks):
        lums.append(T.downsample2x(lums[-1]))
    loss = _sum(term(m, lum.data) for m, lum in zip(masks, lums))
    if loss is None:
        loss = T.scalar(0.0, dtype=r_gt.dtype)
    return loss


def _neg_log(x: Tensor) -> Tensor:
    return T.scalar_mul(T.log(T.clamp(x, LOG_CLAMP, 1.0 - LOG_CLAMP)), -1.0)


def adv_d_loss(d_net: Network, i_obs: Tensor, t_real: Tensor, t_fake: Tensor) -> Tensor:
    """Critic objective -log D(I,T) - log(1 - D(I,T_hat)).

    Each log reads its argument clamped to [LOG_CLAMP, 1 - LOG_CLAMP] with LOG_CLAMP =
    1e-7, so a critic output of exactly 0 or 1 gives a finite loss.

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


def total_loss(parts: LossParts, weights: LossWeights) -> Tensor:
    """Sum of each part times its same-named weight, in ``LossParts`` field order; a None part is skipped."""
    total = _sum(T.scalar_mul(getattr(parts, f.name), getattr(weights, f.name))
                 for f in fields(LossParts) if getattr(parts, f.name) is not None)
    if total is None:
        raise ValueError("total_loss: no loss parts given")
    return total
