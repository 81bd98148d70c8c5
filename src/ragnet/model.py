"""Construction and evaluation of the reflection-removal networks.

Two-stage layout: a plain U-Net (``g_r``) maps the observation I to a
reflection estimate, and a dual-encoder U-Net (``g_t``) maps (I, R_hat) to
the transmission.  Both run one decoder and differ only in how each level
merges its skip feature.  Each decoder level of ``g_t`` runs a reflection-aware
guidance block: the observation/reflection feature difference is concatenated
with the upsampled decoder feature, a sigmoid mask M is predicted from all
three feature groups through two 1x1 convolutions, and the merged feature
passes through a partial convolution: the conv of the masked feature,
divided at each position by the mask's coverage of its whole 3x3 window
over all channels.  ``forward_gt`` returns one M per level, level 1 first:
its first half of channels, M_diff, gates F_I - F_R, and its second half,
M_dec, gates F_dec.

All channel widths derive from one base table scaled by
``ModelConfig.width_multiplier`` so the same wiring runs at desk scale
(1/8 width, 32px inputs) and at paper scale.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import ragnet.tensor as T
from ragnet.synthesis import derive_seed
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
SIDE_MULTIPLE = 16  # four 2x2 poolings: a generator's input sides must be multiples of 2**4


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
        # the float32 width a checkpoint stores, so a loaded model builds the same layers
        self.width_multiplier = float(np.float32(self.width_multiplier))

    def scaled(self, base: int) -> int:
        return max(1, int(round(base * self.width_multiplier)))


@dataclass
class Network:
    """Named parameters of *dtype* in the order added; each layer is ``{name}/weight`` and ``{name}/bias``."""
    kind: str
    config: ModelConfig
    dtype: type
    params: dict[str, Parameter] = field(default_factory=dict)

    def layer(self, name: str, cout: int, cin: int, k: int) -> None:
        """Add a zero ``{name}/weight`` of shape (cout, cin, k, k), then a zero ``{name}/bias`` (1, cout, 1, 1).

        A transposed conv's weight is (Cin, Cout, 2, 2); every one here keeps its width, so (c, c, 2, 2) serves.
        """
        if f"{name}/weight" in self.params:
            raise ValueError(f"duplicate layer name {name!r}")
        for pname, shape in ((f"{name}/weight", (cout, cin, k, k)), (f"{name}/bias", (1, cout, 1, 1))):
            self.params[pname] = Parameter(pname, np.zeros(shape, dtype=self.dtype))

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

        Only the taped forward must run inside the block: an op decides as
        it runs which parents get a gradient, so a parameter frozen at the
        forward gets none from its ops, even when ``backward`` runs after
        the block has given its flag back.
        """
        flags = {p: p.requires_grad for p in self.params.values()}
        self.freeze()
        try:
            yield self
        finally:
            for p, flag in flags.items():
                p.requires_grad = flag


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


def _draw_he(net: Network) -> None:
    """Draw the He init of every ``*/weight`` parameter of *net*.

    Each weight has its own generator, seeded by (model seed, network kind,
    name), so the draws are independent of each other.  They run on a thread
    pool with one worker per usable core, largest parameter first; numpy's
    normal sampler releases the GIL.  The workers touch only numpy arrays,
    and the bytes do not depend on the worker count.
    """
    jobs = sorted(((p.data, derive_seed(net.config.seed, net.kind, name))
                   for name, p in net.params.items() if name.endswith("/weight")),
                  key=lambda job: job[0].size, reverse=True)
    with ThreadPoolExecutor(max(1, min(len(jobs), _usable_cpus()))) as pool:
        list(pool.map(lambda job: _fill_he(*job), jobs))


def count_params(net: Network) -> int:
    return sum(p.data.size for p in net.params.values())


# ---------------------------------------------------------------------------
# builders

def build_network(kind: str, config: ModelConfig, dtype=T.DEFAULT_DTYPE, draw_init: bool = True) -> Network:
    """Build a deterministic network of the given kind, every parameter of *dtype*.

    Biases start at zero.  Every ``*/weight`` gets He init, N(0, 2/fan_in),
    seeded per parameter name, so two builds from the same config are
    bit-identical regardless of construction order.  The weights are drawn
    after every layer is added, on all usable cores, each in chunks through
    one small float64 buffer (``_draw_he``, ``_fill_he``); the bytes are the
    same for any worker count.  With ``draw_init=False`` the weights stay
    zero and nothing is drawn, for a caller that loads them from a
    checkpoint next.  ``percep_extractor``, the perceptual loss's fixed
    feature pyramid, is built frozen.
    """
    if kind not in NETWORK_KINDS:
        raise ValueError(f"kind must be one of {NETWORK_KINDS}, got {kind!r}")
    net = Network(kind, config, dtype)
    s = config.scaled
    if kind == "g_r":
        _add_encoder(net, "enc_obs", in_ch=3, stages=5)
        _add_decoder(net)
    elif kind == "g_t":
        _add_encoder(net, "enc_obs", in_ch=3, stages=5)
        _add_encoder(net, "enc_refl", in_ch=3, stages=4)
        _add_decoder(net)
        if config.rag_variant != "no_mask":
            _add_mask_heads(net)
    elif kind == "discriminator":
        cin = 6
        for j, base in enumerate(DISC_WIDTHS):
            net.layer(f"disc/c{j}", s(base), cin, 3)
            cin = s(base)
    elif kind == "percep_extractor":
        cin = 3
        for j, base in enumerate(ENC_STAGE_WIDTHS):
            net.layer(f"feat/s{j}", s(base), cin, 3)
            cin = s(base)
        net.freeze()
    if draw_init:
        _draw_he(net)
    return net


def _add_encoder(net: Network, prefix: str, in_ch: int, stages: int) -> None:
    s = net.config.scaled
    cin = in_ch
    for stage in range(stages):
        cout = s(ENC_STAGE_WIDTHS[stage])
        for idx in range(ENC_CONVS_PER_STAGE[stage]):
            net.layer(f"{prefix}/s{stage}/c{idx}", cout, cin, 3)
            cin = cout


def _add_decoder(net: Network) -> None:
    s = net.config.scaled
    for level in (4, 3, 2, 1):
        c = s(ENC_STAGE_WIDTHS[level - 1])
        net.layer(f"dec/l{level}/tconv", c, c, 2)
        net.layer(f"dec/l{level}/merge", 2 * c, 2 * c, 3)
        for j in range(DEC_TAIL_CONVS[level]):
            net.layer(f"dec/l{level}/tail{j}", 2 * c, 2 * c, 3)
        if level > 1:
            net.layer(f"dec/l{level}/reduce", s(ENC_STAGE_WIDTHS[level - 2]), 2 * c, 3)
    c1 = s(ENC_STAGE_WIDTHS[0])
    net.layer("dec/head/c0", c1, 2 * c1, 3)
    net.layer("dec/head/c1", 3, c1, 3)


def _add_mask_heads(net: Network) -> None:
    s = net.config.scaled
    two_channel = net.config.rag_variant == "two_channel_mask"
    for level in (4, 3, 2, 1):
        c = s(ENC_STAGE_WIDTHS[level - 1])
        cin = 3 * c  # the mask sees F_I, F_R and F_dec
        net.layer(f"rag/l{level}/m0", cin, cin, 1)
        net.layer(f"rag/l{level}/m1", 2 if two_channel else 2 * c, cin, 1)


# ---------------------------------------------------------------------------
# forward evaluation

def _check_spatial(x: Tensor, op: str) -> None:
    _, _, h, w = x.shape
    if h % SIDE_MULTIPLE or w % SIDE_MULTIPLE:
        raise ValueError(f"{op}: spatial dims ({h},{w}) must be divisible by {SIDE_MULTIPLE}; "
                         f"pad by ({-h % SIDE_MULTIPLE},{-w % SIDE_MULTIPLE}) first (reflect padding recommended)")


def _conv_relu(x: Tensor, w: Parameter, b: Parameter, concat: tuple[Tensor, ...] = ()) -> Tensor:
    return T.conv2d(x, w, b, stride=1, pad=1, relu=True, concat=concat)


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
    """Partial 3x3 convolution (stride 1, pad 1) of Liu et al. (arXiv:1804.07723).

    out = (w * (f o m)) / c + b wherever c > ``T.MASK_EPS`` and exactly 0
    elsewhere (bias suppressed), with c = ``T.mask_mean3x3(m)`` the coverage
    of the whole zero-padded Cin x 3 x 3 window: one ratio per position,
    shared by every output channel, so a mask near 0 in some channels
    scales the output up by at most the inverse share of the mask left.
    With ``renorm=False`` the division is omitted: out = w * (f o m) + b.
    One ``conv2d`` call divides, adds the bias and, with ``relu=True``,
    applies the ReLU as it writes the output, bit for bit
    ``relu(partial_conv(...))``.

    The mask is used as given, held once: no op here copies it.  f is
    dropped once f o m is made, so outside a tape, when the caller keeps no
    reference to f, it is freed before the conv allocates its output.
    """
    if f.shape != m.shape:
        raise ValueError(f"partial_conv: feature shape {f.shape} != mask shape {m.shape}")
    fm = T.mul(f, m)
    del f
    coverage = T.mask_mean3x3(m) if renorm else None
    return T.conv2d(fm, w, b, stride=1, pad=1, relu=relu, coverage=coverage)


def rag_block(net: Network, level: int, pair: list[tuple[Tensor, Tensor]],
              f_dec: Tensor) -> tuple[Tensor, Tensor]:
    """Difference feature (F_I - F_R; F_I for ``no_diff``) and the mask M of one decoder level.

    *pair* is a one-slot list holding (F_I, F_R), which this call empties.
    The mask head is two 1x1 convs, the second with its sigmoid fused into
    the output write.  M is that output, held once: its first ``C // 2``
    channels are M_diff, which gates F_diff, and the rest are M_dec, which
    gates F_dec (one channel each for ``two_channel_mask``).

    F_diff is formed first.  The first conv reads F_I, F_R and F_dec as
    channel groups, so no concatenation of them is built, and then F_I and
    F_R are dropped: outside a tape, when the caller keeps no reference to
    them, they are freed before the second conv writes M.  Forming F_diff
    before the first conv rather than after it gives the same traced peak
    and, with glibc's allocator, a less fragmented heap: a paper-width 224²
    inference peaks about 23 MB lower in resident memory.
    """
    f_i, f_r = pair.pop()
    if f_i.shape != f_r.shape:
        raise ValueError(f"rag_block: F_I shape {f_i.shape} != F_R shape {f_r.shape}")
    if f_i.shape[2:] != f_dec.shape[2:]:
        raise ValueError(f"rag_block: decoder feature spatial size {f_dec.shape[2:]} "
                         f"!= encoder {f_i.shape[2:]}")
    f_diff = f_i if net.config.rag_variant == "no_diff" else T.sub(f_i, f_r)
    h = T.conv2d(f_i, net[f"rag/l{level}/m0/weight"], net[f"rag/l{level}/m0/bias"], relu=True,
                 concat=(f_r, f_dec))
    del f_i, f_r
    m = T.conv2d(h, net[f"rag/l{level}/m1/weight"], net[f"rag/l{level}/m1/bias"], sigmoid=True)
    return f_diff, m


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


def _guided_decoder(net: Network, f_obs: list[Tensor], f_refl: list[Tensor]) -> tuple[Tensor, list[Tensor]]:
    """Decoder of g_t.  Each level merges through a RAG block and a partial
    convolution; the ``no_mask`` variant instead convolves F_I - F_R and F_dec
    as the channel groups of one conv.  Like ``_decoder`` with *f_obs*, it
    empties *f_refl*.  The merge pops F_R and hands F_I and F_R to the RAG
    block in a one-slot list, which the block empties, so they are freed
    once F_diff is made.  It drops F_diff and F_dec once ``partial_conv``'s
    input concat(F_diff, F_dec) is built, handing that input over from a
    one-slot list too, so that ``partial_conv`` holds it alone.
    """
    variant = net.config.rag_variant
    masks: list[Tensor] = []

    def merge(level, f_i, f_dec, w, b):
        if variant == "no_mask":
            return _conv_relu(T.sub(f_i, f_refl.pop()), w, b, concat=(f_dec,))
        pair = [(f_i, f_refl.pop())]  # the slot rag_block's call empties
        del f_i
        f_diff, m = rag_block(net, level, pair, f_dec)
        masks.append(m)
        if m.shape[1] != 2 * f_dec.shape[1]:  # two_channel_mask: one channel per feature group
            m = T.repeat_channels(m, f_dec.shape[1])
        f = [T.concat_channels(f_diff, f_dec)]  # the slot partial_conv's call empties
        del f_diff, f_dec
        return partial_conv(f.pop(), m, w, b, renorm=(variant != "mask_no_renorm"), relu=True)

    out = _decoder(net, f_obs, merge)
    return out, masks[::-1]  # merged from level 4 down; returned level 1 first


def _plain_merge(level, f_i, f_dec, w, b):
    return _conv_relu(f_i, w, b, concat=(f_dec,))


def forward_gr(net: Network, i_obs: Tensor) -> Tensor:
    """Reflection estimate in [0,1], same shape as the observation."""
    if net.kind != "g_r":
        raise ValueError(f"forward_gr needs a g_r network, got {net.kind!r}")
    _check_spatial(i_obs, "forward_gr")
    return _decoder(net, _encoder_forward(net, "enc_obs", i_obs, stages=5), _plain_merge)


def forward_gt(net: Network, i_obs: Tensor, r_hat: Tensor) -> tuple[Tensor, list[Tensor]]:
    """Transmission estimate and the masks: ``masks[i]`` is the M of decoder level i + 1
    (M_diff its first half of channels), at 1/2**i of the input's sides; empty for ``no_mask``."""
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
    x, concat = i_obs, (t_candidate,)  # the first conv reads the pair as two channel groups
    for j in range(len(DISC_WIDTHS)):
        x = T.leaky_relu(T.conv2d(x, net[f"disc/c{j}/weight"], net[f"disc/c{j}/bias"], stride=2, pad=1,
                                  concat=concat))
        concat = ()
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

def pad_to_multiple(img: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
    """Reflect-pad an NCHW array so H and W become multiples of ``SIDE_MULTIPLE``."""
    _, _, h, w = img.shape
    ph = -h % SIDE_MULTIPLE
    pw = -w % SIDE_MULTIPLE
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
