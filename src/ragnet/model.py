"""Construction and evaluation of the reflection-removal networks.

Two-stage layout: a plain U-Net (``g_r``) maps the observation I to a
reflection estimate, and a dual-encoder U-Net (``g_t``) maps (I, R_hat) to
the transmission.  Both run one decoder and differ only in how each level
merges its skip feature.  Each decoder level of ``g_t`` runs a reflection-aware
guidance block: the observation/reflection feature difference is concatenated
with the upsampled decoder feature, a sigmoid mask is predicted from all
three feature groups through two 1x1 convolutions, and the merged feature
passes through a mask-renormalized partial convolution.

All channel widths derive from one base table scaled by
``ModelConfig.width_multiplier`` so the same wiring runs at desk scale
(1/8 width, 32px inputs) and at paper scale.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import ragnet.tensor as T
from ragnet.tensor import Parameter, Tensor

RAG_VARIANTS = ("full", "no_mask", "mask_no_renorm", "two_channel_mask", "no_diff")
NETWORK_KINDS = ("g_r", "g_t", "discriminator", "percep_extractor")

# Base channel plan at width 1.  The observation encoder has five stages
# (64, 64 | 128, 128 | 256, 256x3 | 512, 512x3 | 512x4); the reflection
# encoder stops after stage 4 since only its first four feature levels feed
# the guidance blocks.  Decoder levels keep the concatenated width through
# the merge and tail convs, then reduce to the next level's width.
ENC_STAGE_WIDTHS = (64, 128, 256, 512, 512)
ENC_CONVS_PER_STAGE = (2, 2, 4, 4, 4)
DEC_TAIL_CONVS = {4: 1, 3: 3, 2: 1, 1: 1}
DISC_WIDTHS = (64, 128, 256, 512)
# Limit on ModelConfig.width_multiplier.  At this width the largest weight,
# dec/l4/merge, is 604 MB of float32 and G_R + G_T hold 2.0 G parameters, so
# wider settings are rejected before any layer is made.
MAX_WIDTH = 4.0


@dataclass
class ModelConfig:
    width_multiplier: float = 0.125
    rag_variant: str = "full"
    use_adversarial: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.rag_variant not in RAG_VARIANTS:
            raise ValueError(f"rag_variant must be one of {RAG_VARIANTS}, got {self.rag_variant!r}")
        if not (np.isfinite(self.width_multiplier) and self.width_multiplier * 64 >= 1):
            raise ValueError(f"width_multiplier {self.width_multiplier} must be finite and "
                             "at least 1/64 (narrower layers would be empty)")
        if self.width_multiplier > MAX_WIDTH:
            raise ValueError(f"width_multiplier {self.width_multiplier} exceeds the {MAX_WIDTH:g} limit")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must lie in [0, 2**64), which a checkpoint stores, got {self.seed}")

    def scaled(self, base: int) -> int:
        return max(1, int(round(base * self.width_multiplier)))


@dataclass
class MaskLevel:
    """Masks of one decoder level; level 1 is full resolution, level 4 is H/8.

    ``m`` is the mask head's sigmoid output when a RAG block made one:
    ``m_diff`` and ``m_dec`` are its leading and trailing channels.
    """
    level: int
    m_diff: Tensor
    m_dec: Tensor
    m: Tensor | None = field(default=None, repr=False, compare=False)


@dataclass
class Network:
    kind: str
    config: ModelConfig
    params: dict[str, Parameter] = field(default_factory=dict)
    # He-init parameters added since the last ``build_network`` draw
    he_queue: list[Parameter] = field(default_factory=list, repr=False, compare=False)

    def add(self, name: str, shape, init: str, dtype) -> Parameter:
        """Create parameter *name* of *shape* and *dtype* with init ``"zeros"`` or ``"he"``.

        Every parameter starts as ``np.zeros``; a ``"he"`` one also joins
        ``he_queue``.  ``build_network`` then draws all queued weights at once
        on a thread pool, each in chunks through one small float64 buffer, so
        no whole-parameter temporary exists; the bytes do not depend on the
        worker count (see ``_draw_he`` and ``_fill_he``).
        """
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        if init not in ("zeros", "he"):
            raise ValueError(f"unknown init {init!r}")
        p = Parameter(name, np.zeros(shape, dtype=dtype))
        self.params[name] = p
        if init == "he":
            self.he_queue.append(p)
        return p

    def __getitem__(self, name: str) -> Parameter:
        return self.params[name]

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def freeze(self) -> None:
        for p in self.params.values():
            p.requires_grad = False

    @contextmanager
    def frozen(self):
        """A block in which no parameter tracks gradients; each gets its flag back at exit.

        An op reads its parents' flags again in the backward pass, so a
        ``backward`` that should skip these parameters runs inside the block.
        """
        flags = {p: p.requires_grad for p in self.params.values()}
        self.freeze()
        try:
            yield self
        finally:
            for p, flag in flags.items():
                p.requires_grad = flag


def _param_seed(seed: int, kind: str, name: str) -> int:
    digest = hashlib.blake2b(f"{seed}:{kind}:{name}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


HE_CHUNK = 1 << 16  # normals drawn per call; 512 KB of float64 scratch per worker


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _fill_he(data: np.ndarray, seed: int) -> None:
    """Fill *data* in place with N(0, 2/fan_in) from a PCG64 generator seeded by *seed*.

    The draw runs in chunks of ``HE_CHUNK``: each is scaled in float64 and cast
    to ``data.dtype`` on assignment.  Consecutive draws from one generator
    continue one stream, so the bytes equal those of a single whole-shape
    float64 draw, scaled and then cast.
    """
    std = np.sqrt(2.0 / int(np.prod(data.shape[1:])))
    rng = np.random.Generator(np.random.PCG64(seed))
    flat = data.reshape(-1)
    buf = np.empty(min(flat.size, HE_CHUNK))
    for start in range(0, flat.size, HE_CHUNK):
        z = buf[:flat.size - start]
        rng.standard_normal(out=z)
        z *= std
        flat[start:start + z.size] = z


def _draw_he(net: Network, queue: list[Parameter]) -> None:
    """Draw the He weights of every parameter of *net* in *queue*.

    Each parameter has its own generator, seeded by (model seed, network kind,
    name), so the draws are independent of each other.  They run on a thread
    pool with one worker per usable core, largest parameter first; numpy's
    normal sampler releases the GIL.  The workers touch only numpy arrays,
    and the bytes do not depend on the worker count.
    """
    jobs = sorted(((p.data, _param_seed(net.config.seed, net.kind, p.name)) for p in queue),
                  key=lambda job: job[0].size, reverse=True)
    with ThreadPoolExecutor(max(1, min(len(jobs), _usable_cpus()))) as pool:
        list(pool.map(lambda job: _fill_he(*job), jobs))


def count_params(net: Network) -> int:
    return sum(p.data.size for p in net.params.values())


# ---------------------------------------------------------------------------
# builders

def build_network(kind: str, config: ModelConfig, dtype=T.DEFAULT_DTYPE, draw_init: bool = True) -> Network:
    """Build a deterministic network of the given kind.

    Biases start at zero.  Conv weights get He init, N(0, 2/fan_in), seeded
    per parameter name, so two builds from the same config are bit-identical
    regardless of construction order.  The weights are drawn after every
    parameter is added, on all usable cores in chunks (``_draw_he``); the
    bytes are the same for any worker count.  With ``draw_init=False`` the
    weights stay zero and nothing is drawn, for a caller that loads them from
    a checkpoint next.
    """
    if kind not in NETWORK_KINDS:
        raise ValueError(f"kind must be one of {NETWORK_KINDS}, got {kind!r}")
    net = Network(kind, config)
    s = config.scaled
    if kind == "g_r":
        _add_encoder(net, "enc_obs", in_ch=3, stages=5, dtype=dtype)
        _add_decoder(net, dtype=dtype)
    elif kind == "g_t":
        _add_encoder(net, "enc_obs", in_ch=3, stages=5, dtype=dtype)
        _add_encoder(net, "enc_refl", in_ch=3, stages=4, dtype=dtype)
        _add_decoder(net, dtype=dtype)
        if config.rag_variant != "no_mask":
            _add_mask_heads(net, dtype=dtype)
    elif kind == "discriminator":
        cin = 6
        for j, base in enumerate(DISC_WIDTHS):
            cout = s(base)
            net.add(f"disc/c{j}/weight", (cout, cin, 3, 3), "he", dtype)
            net.add(f"disc/c{j}/bias", (1, cout, 1, 1), "zeros", dtype)
            cin = cout
    elif kind == "percep_extractor":
        cin = 3
        for j, base in enumerate(ENC_STAGE_WIDTHS):
            cout = s(base)
            net.add(f"feat/s{j}/weight", (cout, cin, 3, 3), "he", dtype)
            net.add(f"feat/s{j}/bias", (1, cout, 1, 1), "zeros", dtype)
            cin = cout
        net.freeze()
    queue, net.he_queue = net.he_queue, []
    if draw_init:
        _draw_he(net, queue)
    return net


def _add_encoder(net: Network, prefix: str, in_ch: int, stages: int, dtype) -> None:
    s = net.config.scaled
    cin = in_ch
    for stage in range(stages):
        cout = s(ENC_STAGE_WIDTHS[stage])
        for idx in range(ENC_CONVS_PER_STAGE[stage]):
            net.add(f"{prefix}/s{stage}/c{idx}/weight", (cout, cin, 3, 3), "he", dtype)
            net.add(f"{prefix}/s{stage}/c{idx}/bias", (1, cout, 1, 1), "zeros", dtype)
            cin = cout


def _add_decoder(net: Network, dtype) -> None:
    s = net.config.scaled
    for level in (4, 3, 2, 1):
        c = s(ENC_STAGE_WIDTHS[level - 1])
        net.add(f"dec/l{level}/tconv/weight", (c, c, 2, 2), "he", dtype)
        net.add(f"dec/l{level}/tconv/bias", (1, c, 1, 1), "zeros", dtype)
        net.add(f"dec/l{level}/merge/weight", (2 * c, 2 * c, 3, 3), "he", dtype)
        net.add(f"dec/l{level}/merge/bias", (1, 2 * c, 1, 1), "zeros", dtype)
        for j in range(DEC_TAIL_CONVS[level]):
            net.add(f"dec/l{level}/tail{j}/weight", (2 * c, 2 * c, 3, 3), "he", dtype)
            net.add(f"dec/l{level}/tail{j}/bias", (1, 2 * c, 1, 1), "zeros", dtype)
        if level > 1:
            cnext = s(ENC_STAGE_WIDTHS[level - 2])
            net.add(f"dec/l{level}/reduce/weight", (cnext, 2 * c, 3, 3), "he", dtype)
            net.add(f"dec/l{level}/reduce/bias", (1, cnext, 1, 1), "zeros", dtype)
    c1 = s(ENC_STAGE_WIDTHS[0])
    net.add("dec/head/c0/weight", (c1, 2 * c1, 3, 3), "he", dtype)
    net.add("dec/head/c0/bias", (1, c1, 1, 1), "zeros", dtype)
    net.add("dec/head/c1/weight", (3, c1, 3, 3), "he", dtype)
    net.add("dec/head/c1/bias", (1, 3, 1, 1), "zeros", dtype)


def _add_mask_heads(net: Network, dtype) -> None:
    s = net.config.scaled
    two_channel = net.config.rag_variant == "two_channel_mask"
    for level in (4, 3, 2, 1):
        c = s(ENC_STAGE_WIDTHS[level - 1])
        cin = 3 * c  # the mask sees F_I, F_R and F_dec
        cout = 2 if two_channel else 2 * c
        net.add(f"rag/l{level}/m0/weight", (cin, cin, 1, 1), "he", dtype)
        net.add(f"rag/l{level}/m0/bias", (1, cin, 1, 1), "zeros", dtype)
        net.add(f"rag/l{level}/m1/weight", (cout, cin, 1, 1), "he", dtype)
        net.add(f"rag/l{level}/m1/bias", (1, cout, 1, 1), "zeros", dtype)


# ---------------------------------------------------------------------------
# forward evaluation

def _check_spatial(x: Tensor, op: str) -> None:
    _, _, h, w = x.shape
    if h % 16 or w % 16:
        need_h = (16 - h % 16) % 16
        need_w = (16 - w % 16) % 16
        raise ValueError(f"{op}: spatial dims ({h},{w}) must be divisible by 16; "
                         f"pad by ({need_h},{need_w}) first (reflect padding recommended)")


def _conv_relu(x: Tensor, w: Parameter, b: Parameter) -> Tensor:
    return T.conv2d(x, w, b, stride=1, pad=1, relu=True)


def _encoder_forward(net: Network, prefix: str, x: Tensor, stages: int) -> list[Tensor]:
    """Stage outputs [F1..Fstages]; FI is pooled before feeding the next stage."""
    feats = []
    for stage in range(stages):
        if stage > 0:
            x = T.maxpool2x2(x)
        for idx in range(ENC_CONVS_PER_STAGE[stage]):
            x = _conv_relu(x, net[f"{prefix}/s{stage}/c{idx}/weight"], net[f"{prefix}/s{stage}/c{idx}/bias"])
        feats.append(x)
    return feats


def partial_conv(f: Tensor, m: Tensor, w: Tensor, b: Tensor, renorm: bool = True,
                 relu: bool = False) -> Tensor:
    """Mask-renormalized 3x3 convolution (stride 1, pad 1).

    out = (w * (f o m)) o (1 / mean3x3(m)) + b wherever mean3x3(m) > eps (that of
    ``T.mask_renorm``) and exactly 0 elsewhere (bias suppressed).  With
    ``renorm=False`` the division is omitted: out = w * (f o m) + b.
    ``relu=True`` applies a ReLU inside the op that writes the output
    (``mask_renorm``, or ``conv2d`` without renormalization), bit for bit
    ``relu(partial_conv(...))``.

    The mask is used as given, held once: no op here copies it.  f is
    dropped once f o m is made, and f o m once the convolution has read it,
    so outside a tape, when the caller keeps no reference to f, both are
    freed before the mask mean and the renormalization allocate theirs.
    """
    if f.shape != m.shape:
        raise ValueError(f"partial_conv: feature shape {f.shape} != mask shape {m.shape}")
    if w.shape[0] != w.shape[1]:
        raise ValueError(f"partial_conv: weight must preserve channels for the per-channel "
                         f"renormalization, got {w.shape[1]}->{w.shape[0]}")
    fm = T.mul(f, m)
    del f
    if not renorm:
        return T.conv2d(fm, w, b, stride=1, pad=1, relu=relu)
    raw = T.conv2d(fm, w, None, stride=1, pad=1)
    del fm
    mbar = T.mask_mean3x3(m)
    return T.mask_renorm(raw, mbar, b, relu=relu)


def rag_block(net: Network, level: int, f_i: Tensor, f_r: Tensor, f_dec: Tensor) -> tuple[Tensor, MaskLevel]:
    """Difference feature (F_I - F_R; F_I for ``no_diff``) and the mask of one decoder level.

    The mask head is two 1x1 convs, the second with its sigmoid fused into
    the output write.  Each mask is held once: the returned ``MaskLevel``
    carries that sigmoid output as ``m``, for the merge to use whole, and
    ``m_diff`` and ``m_dec`` slice its channels, as views where the slice
    is contiguous (a batch of one) and as copies otherwise.
    """
    if f_i.shape != f_r.shape:
        raise ValueError(f"rag_block: F_I shape {f_i.shape} != F_R shape {f_r.shape}")
    if f_i.shape[2:] != f_dec.shape[2:]:
        raise ValueError(f"rag_block: decoder feature spatial size {f_dec.shape[2:]} "
                         f"!= encoder {f_i.shape[2:]}")
    variant = net.config.rag_variant
    h = T.concat_channels(T.concat_channels(f_i, f_r), f_dec)
    h = T.conv2d(h, net[f"rag/l{level}/m0/weight"], net[f"rag/l{level}/m0/bias"], relu=True)
    m = T.conv2d(h, net[f"rag/l{level}/m1/weight"], net[f"rag/l{level}/m1/bias"], sigmoid=True)
    # made after the mask head, so it is not alive during the head's convs
    f_diff = f_i if variant == "no_diff" else T.sub(f_i, f_r)
    split = 1 if variant == "two_channel_mask" else f_diff.shape[1]
    return f_diff, MaskLevel(level, T.slice_channels(m, 0, split), T.slice_channels(m, split, m.shape[1]), m)


def _mask_full_width(mask: MaskLevel, c_diff: int, c_dec: int) -> Tensor:
    """Per-feature mask matching concat(F_diff, F_dec): the sigmoid output
    itself where it is that wide, else its one-channel masks broadcast."""
    if mask.m.shape[1] == c_diff + c_dec:
        return mask.m
    return T.concat_channels(T.repeat_channels(mask.m_diff, c_diff), T.repeat_channels(mask.m_dec, c_dec))


def _decoder(net: Network, f_obs: list[Tensor], merge) -> Tensor:
    """The U-Net decoder of every generator.  Per level, ``merge(level, F_I, F_dec, w, b)``
    fuses the skip feature F_I with the upsampled F_dec through the merge weights.

    It empties *f_obs*, popping each feature as it reads it.  In the merge's
    call, F_I is popped, and F_dec is made from the level's input, popped in
    turn from a one-slot list.  So no name here holds any of the three
    through the merge, and outside a tape each is freed after its last read.
    """
    x = f_obs.pop()
    for level in (4, 3, 2, 1):
        x = [x]  # the slot the upsampling empties
        x = merge(level, f_obs.pop(),
                  T.conv_transpose2d(x.pop(), net[f"dec/l{level}/tconv/weight"], net[f"dec/l{level}/tconv/bias"]),
                  net[f"dec/l{level}/merge/weight"], net[f"dec/l{level}/merge/bias"])
        for j in range(DEC_TAIL_CONVS[level]):
            x = _conv_relu(x, net[f"dec/l{level}/tail{j}/weight"], net[f"dec/l{level}/tail{j}/bias"])
        if level > 1:
            x = _conv_relu(x, net[f"dec/l{level}/reduce/weight"], net[f"dec/l{level}/reduce/bias"])
    x = _conv_relu(x, net["dec/head/c0/weight"], net["dec/head/c0/bias"])
    return T.conv2d(x, net["dec/head/c1/weight"], net["dec/head/c1/bias"], stride=1, pad=1, sigmoid=True)


def _guided_decoder(net: Network, f_obs: list[Tensor], f_refl: list[Tensor]) -> tuple[Tensor, list[MaskLevel]]:
    """Decoder of g_t.  Each level merges through a RAG block and a partial
    convolution; the ``no_mask`` variant instead convolves concat(F_I - F_R, F_dec).
    Like ``_decoder`` with *f_obs*, it empties *f_refl*: the merge pops F_R
    in the RAG block's call, and drops F_I once that block returns.
    """
    variant = net.config.rag_variant
    masks: list[MaskLevel] = []

    def merge(level, f_i, f_dec, w, b):
        if variant == "no_mask":
            return _conv_relu(T.concat_channels(T.sub(f_i, f_refl.pop()), f_dec), w, b)
        f_diff, mask = rag_block(net, level, f_i, f_refl.pop(), f_dec)
        del f_i
        masks.append(mask)
        m = _mask_full_width(mask, f_diff.shape[1], f_dec.shape[1])
        return partial_conv(T.concat_channels(f_diff, f_dec), m, w, b,
                            renorm=(variant != "mask_no_renorm"), relu=True)

    out = _decoder(net, f_obs, merge)
    return out, masks[::-1]  # merged from level 4 down; returned level 1 first


def _plain_merge(level, f_i, f_dec, w, b):
    return _conv_relu(T.concat_channels(f_i, f_dec), w, b)


def forward_gr(net: Network, i_obs: Tensor) -> Tensor:
    """Reflection estimate in [0,1], same shape as the observation."""
    if net.kind != "g_r":
        raise ValueError(f"forward_gr needs a g_r network, got {net.kind!r}")
    _check_spatial(i_obs, "forward_gr")
    return _decoder(net, _encoder_forward(net, "enc_obs", i_obs, stages=5), _plain_merge)


def forward_gt(net: Network, i_obs: Tensor, r_hat: Tensor) -> tuple[Tensor, list[MaskLevel]]:
    """Transmission estimate and the four decoder-level mask pairs."""
    if net.kind != "g_t":
        raise ValueError(f"forward_gt needs a g_t network, got {net.kind!r}")
    if i_obs.shape != r_hat.shape:
        raise ValueError(f"forward_gt: observation shape {i_obs.shape} != reflection shape {r_hat.shape}")
    _check_spatial(i_obs, "forward_gt")
    f_obs = _encoder_forward(net, "enc_obs", i_obs, stages=5)
    f_refl = _encoder_forward(net, "enc_refl", r_hat, stages=4)
    return _guided_decoder(net, f_obs, f_refl)


def forward_discriminator(net: Network, i_obs: Tensor, t_candidate: Tensor) -> Tensor:
    """Realness score in (0,1): 4 stride-2 convs, global mean, sigmoid."""
    if net.kind != "discriminator":
        raise ValueError(f"forward_discriminator needs a discriminator network, got {net.kind!r}")
    if i_obs.shape != t_candidate.shape:
        raise ValueError(f"forward_discriminator: shapes differ, {i_obs.shape} vs {t_candidate.shape}")
    x = T.concat_channels(i_obs, t_candidate)
    for j in range(len(DISC_WIDTHS)):
        x = T.leaky_relu(T.conv2d(x, net[f"disc/c{j}/weight"], net[f"disc/c{j}/bias"], stride=2, pad=1))
    return T.sigmoid(T.reduce_mean(x))


def extract_features(net: Network, x: Tensor) -> list[Tensor]:
    """Five-stage frozen feature pyramid with stride-2 pooling between stages."""
    if net.kind != "percep_extractor":
        raise ValueError(f"extract_features needs a percep_extractor network, got {net.kind!r}")
    feats = []
    for j in range(len(ENC_STAGE_WIDTHS)):
        if j > 0:
            x = T.downsample2x(x)
        x = _conv_relu(x, net[f"feat/s{j}/weight"], net[f"feat/s{j}/bias"])
        feats.append(x)
    return feats


# ---------------------------------------------------------------------------
# inference-size helpers

def pad_to_multiple(img: np.ndarray, multiple: int = 16) -> tuple[np.ndarray, tuple[int, int]]:
    """Reflect-pad an NCHW array so H and W become multiples of ``multiple``."""
    _, _, h, w = img.shape
    ph = (multiple - h % multiple) % multiple
    pw = (multiple - w % multiple) % multiple
    if ph or pw:
        img = np.pad(img, ((0, 0), (0, 0), (0, ph), (0, pw)), mode="reflect")
    return img, (ph, pw)


def crop_padding(img: np.ndarray, pads: tuple[int, int]) -> np.ndarray:
    ph, pw = pads
    if ph:
        img = img[:, :, :-ph, :]
    if pw:
        img = img[:, :, :, :-pw]
    return img
