"""Deterministic synthetic (observation, transmission, reflection) triples.

Reflections are built the classic way: a source image is Gaussian-smoothed
and attenuated by a random intensity decay, then combined with the
transmission.  ``linear_clip`` blends by the plain additive model
I = clamp01(T + R); ``overexpose`` also sets to 1 every pixel whose
channel-mean T + R exceeds ``saturate_threshold``, so the additive relation
fails there as it does in real over-exposed reflections.

Procedurally generated scenes (smoothed random fields + gradients +
geometric shapes) stand in for natural-image datasets, keeping the package
asset-free and every byte a pure function of the seed.  Images are written
as binary PPMs; the whole pipeline quantizes T and R to 8 bit *before*
blending, so the on-disk triple satisfies the blend equation exactly.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

BLEND_MODES = ("linear_clip", "overexpose")
# Limit, in pixels, on the two image sides that SynthesisParams set: the
# pre-crop scene (patch_size x scale) and the patch padded for its reflection
# blur (patch_size + 2 ceil(3 sigma)).  At this side one float64 RGB image is
# 400 MB, so larger settings are rejected before any array is made.
MAX_SIDE = 4096


@dataclass
class SynthesisParams:
    blur_sigma_range: tuple[float, float] = (2.0, 5.0)
    decay_range: tuple[float, float] = (0.6, 1.0)
    blend_mode: str = "linear_clip"
    patch_size: int = 32
    scale_range: tuple[float, float] = (1.0, 2.0)
    seed: int = 0
    saturate_threshold: float = 1.3

    def __post_init__(self):
        for name in ("blur_sigma_range", "decay_range", "scale_range"):
            lo, hi = getattr(self, name)
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError(f"{name}: bounds must be finite, got ({lo},{hi})")
            if not lo <= hi:
                raise ValueError(f"{name}: lo ({lo}) must be <= hi ({hi})")
        lo, hi = self.decay_range
        if not (0 < lo and hi <= 1):
            raise ValueError(f"decay_range must lie in (0,1], got ({lo},{hi})")
        if self.blend_mode not in BLEND_MODES:
            raise ValueError(f"blend_mode must be one of {BLEND_MODES}, got {self.blend_mode!r}")
        if self.patch_size < 16 or self.patch_size % 16:
            raise ValueError(f"patch_size must be a positive multiple of 16, got {self.patch_size}")
        if self.blur_sigma_range[0] < 0:
            raise ValueError(f"blur_sigma_range lower bound must be >= 0, got {self.blur_sigma_range[0]}")
        if self.scale_range[0] < 1.0:
            raise ValueError("scale_range lower bound must be >= 1 (patches are cropped from the scaled image)")
        sigma_hi, scale_hi = self.blur_sigma_range[1], self.scale_range[1]
        if sigma_hi > self.patch_size:
            raise ValueError(f"blur_sigma_range upper bound {sigma_hi} exceeds patch_size {self.patch_size}")
        if self.patch_size * scale_hi > MAX_SIDE:
            raise ValueError(f"pre-crop side patch_size x scale_range upper bound = {self.patch_size * scale_hi!r} "
                             f"exceeds the {MAX_SIDE} px limit")
        if self.patch_size + 2 * np.ceil(3.0 * sigma_hi) > MAX_SIDE:
            raise ValueError(f"blur padding of sigma {sigma_hi} takes patch_size {self.patch_size} "
                             f"past the {MAX_SIDE} px limit")
        if not (np.isfinite(self.saturate_threshold) and self.saturate_threshold > 0):
            raise ValueError(f"saturate_threshold must be finite and > 0, got {self.saturate_threshold}")


@dataclass
class ImageTriple:
    i: np.ndarray  # (1,3,s,s) in [0,1]
    t: np.ndarray
    r: np.ndarray
    has_reflection_gt: bool = True


def derive_seed(seed: int, *parts) -> int:
    tag = ":".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.blake2b(tag.encode(), digest_size=8).digest(), "little")


# ---------------------------------------------------------------------------
# primitives

def gaussian_kernel(sigma: float) -> np.ndarray:
    radius = int(np.ceil(3.0 * sigma))
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (xs / sigma) ** 2)
    return k / k.sum()


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of the last two axes with kernel truncated at 3*sigma, reflect padding."""
    if sigma <= 0:
        return img.copy()
    k = gaussian_kernel(sigma)
    r = len(k) // 2
    pad = [(0, 0)] * (img.ndim - 2) + [(r, r)] * 2
    return filter_valid(np.pad(img.astype(np.float64), pad, mode="reflect"), k)


# Input values (float64) per row-block budget of filter_valid, so that a
# block's sums and products stay in the L2 cache.  The block size does not
# change the result: every output value takes the same multiply-adds in the
# same order whatever the block.
FILTER_BLOCK = 32 * 1024


def filter_valid(img: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Correlate the last two axes of *img* with the 1-D kernel *k*, rows first.

    Only valid windows are kept, so each axis shrinks by len(k) - 1.  The
    output is made in blocks of rows that span all leading planes.  A budget
    is the number of rows whose input, over all planes, fits ``FILTER_BLOCK``
    values (at least one row).  The output rows are split into as many equal
    blocks as whole budgets fit in them (the last block may be shorter), so a
    block holds one to two budgets, or the whole output when that is smaller
    than one budget.  Per block, the vertical pass adds one product per tap,
    in tap order, into a zeroed float64 sum; the horizontal pass then adds its
    products, in tap order, straight into the output rows.  So every output
    value is the same sum, in the same order, whatever the block size.
    """
    lead, wide = img.shape[:-2], img.shape[-1]
    h, w = img.shape[-2] - len(k) + 1, wide - len(k) + 1
    out = np.zeros(lead + (h, w))
    fit = max(1, FILTER_BLOCK // max(1, int(np.prod(lead)) * wide))
    m = max(1, -(-h // max(1, h // fit)))  # rows per block
    for r0 in range(0, h, m):
        n = min(m, h - r0)
        rows = np.zeros(lead + (n, wide))
        for tap, kv in enumerate(k):
            rows += kv * img[..., r0 + tap:r0 + tap + n, :]
        dst = out[..., r0:r0 + n, :]
        for tap, kv in enumerate(k):
            dst += kv * rows[..., tap:tap + w]
    return out


def quantize8(img: np.ndarray) -> np.ndarray:
    """Round-half-up quantization to uint8; the inverse is /255."""
    return np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


# ---------------------------------------------------------------------------
# scene generation

def _base_image(rng: np.random.Generator, size: int) -> np.ndarray:
    """One procedural RGB scene (3,size,size) in [0,1]."""
    coarse_n = max(2, size // 8)
    coarse = rng.uniform(0.0, 1.0, size=(3, coarse_n, coarse_n))
    reps = int(np.ceil(size / coarse_n))
    img = np.repeat(np.repeat(coarse, reps, axis=1), reps, axis=2)[:, :size, :size]
    img = gaussian_blur(img, sigma=max(1.0, reps / 2.0))

    # global illumination gradient
    yy, xx = (g / max(1, size - 1) for g in np.ogrid[0:size, 0:size])
    theta = rng.uniform(0, 2 * np.pi)
    ramp = (np.cos(theta) * xx + np.sin(theta) * yy) * rng.uniform(0.1, 0.5)
    img += ramp[None, :, :]

    # a few solid shapes with alpha blending, each over its bounding box only
    for _ in range(int(rng.integers(2, 5))):
        color = rng.uniform(0.0, 1.0, size=3)
        alpha = rng.uniform(0.4, 0.9)
        if rng.uniform() < 0.5:
            cy, cx = rng.uniform(0, size, size=2)
            rad = rng.uniform(size * 0.08, size * 0.3)
            # a one-pixel margin keeps every pixel the disc test accepts inside the box
            ys, xs = (slice(max(0, int(np.floor(c - rad)) - 1), min(size, int(np.ceil(c + rad)) + 2))
                      for c in (cy, cx))
            yy, xx = np.ogrid[ys, xs]
            mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= rad * rad
        else:
            y0, x0 = rng.integers(0, size, size=2)
            hgt = int(rng.uniform(size * 0.1, size * 0.5))
            wid = int(rng.uniform(size * 0.1, size * 0.5))
            ys, xs, mask = slice(y0, y0 + hgt), slice(x0, x0 + wid), True
        box = img[:, ys, xs]
        box[...] = np.where(mask, (1 - alpha) * box + alpha * color[:, None, None], box)

    lo, hi = img.min(), img.max()
    if hi - lo > 1e-9:
        img = (img - lo) / (hi - lo)
    return np.clip(img, 0.0, 1.0)


def _highlight_envelope(rng: np.random.Generator, size: int) -> np.ndarray:
    """Illumination footprint of the reflected content.

    Half the time the reflection covers the whole field (window-filling
    glare); otherwise it is a few bright lobes on a dark surround, leaving
    genuinely reflection-free regions for the mask loss to regularize
    against.
    """
    if rng.uniform() < 0.5:
        # window-filling glare with one occluded (reflection-free) zone
        env = np.ones((size, size))
        h = int(rng.uniform(0.3, 0.55) * size)
        w = int(rng.uniform(0.3, 0.55) * size)
        y0 = int(rng.integers(0, size - h + 1))
        x0 = int(rng.integers(0, size - w + 1))
        env[y0:y0 + h, x0:x0 + w] = 0.0
        return np.clip(gaussian_blur(env[None], sigma=1.5)[0], 0.0, 1.0)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    env = np.zeros((size, size))
    for _ in range(int(rng.integers(1, 4))):
        cy, cx = rng.uniform(0, size, size=2)
        sig = rng.uniform(size * 0.10, size * 0.30)
        amp = rng.uniform(0.7, 1.0)
        env += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sig * sig))
    return np.clip(env, 0.0, 1.0)


def generate_base_pair(seed: int, size: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Two independent procedural scenes (transmission source, reflection source).

    The reflection source is modulated by a highlight envelope so it carries
    localized bright content over a dark surround.
    """
    t_img = _base_image(np.random.Generator(np.random.PCG64(derive_seed(seed, "t"))), size)
    r_rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "r")))
    r_src = _base_image(r_rng, size) * _highlight_envelope(r_rng, size)
    return t_img, r_src


def synthesize_reflection(r_src: np.ndarray, params: SynthesisParams, seed: int) -> np.ndarray:
    """Smoothed, intensity-decayed reflection layer from a source image."""
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "refl")))
    sigma = rng.uniform(*params.blur_sigma_range)
    decay = rng.uniform(*params.decay_range)
    return decay * gaussian_blur(r_src, sigma)


def blend(t: np.ndarray, r: np.ndarray, mode: str,
          saturate_threshold: float = SynthesisParams.saturate_threshold) -> np.ndarray:
    """Combine transmission and reflection into an observation.

    ``linear_clip``: I = clamp01(T + R).  ``overexpose``: the same, with every
    channel set to 1 at pixels whose channel-mean T + R exceeds
    *saturate_threshold* (``saturation_mask``), so I - R != T there.  A
    threshold of 2 or more saturates nothing and gives ``linear_clip``'s bytes.
    """
    if t.shape != r.shape:
        raise ValueError(f"blend: shape mismatch {t.shape} vs {r.shape}")
    for name, a in (("t", t), ("r", r)):
        if a.min() < 0.0 or a.max() > 1.0:
            raise ValueError(f"blend: {name} values must lie in [0,1], got [{a.min()},{a.max()}]")
    i = np.clip(t + r, 0.0, 1.0)
    if mode == "linear_clip":
        return i
    if mode == "overexpose":
        return np.where(saturation_mask(t, r, saturate_threshold), 1.0, i)
    raise ValueError(f"blend: unknown mode {mode!r}")


def saturation_mask(t: np.ndarray, r: np.ndarray,
                    threshold: float = SynthesisParams.saturate_threshold) -> np.ndarray:
    """Pixels (all channels) whose channel-mean T+R exceeds the threshold."""
    lum = (t + r).mean(axis=-3, keepdims=True)
    return np.broadcast_to(lum > threshold, t.shape)


def generate_triple(params: SynthesisParams, seed: int) -> ImageTriple:
    """One deterministic sample; T and R are 8-bit quantized before blending."""
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "layout")))
    scale = rng.uniform(*params.scale_range)
    size = max(params.patch_size, int(round(params.patch_size * scale)))
    t_img, r_src = generate_base_pair(seed, size)

    def crop(a):
        oy = int(rng.integers(0, size - params.patch_size + 1))
        ox = int(rng.integers(0, size - params.patch_size + 1))
        return a[:, oy:oy + params.patch_size, ox:ox + params.patch_size]

    t = crop(t_img)
    r = synthesize_reflection(crop(r_src), params, seed)
    t = quantize8(t).astype(np.float64) / 255.0
    r = quantize8(r).astype(np.float64) / 255.0
    i = blend(t, r, params.blend_mode, params.saturate_threshold)
    i = quantize8(i).astype(np.float64) / 255.0
    to4 = lambda a: a[None].astype(np.float32)
    return ImageTriple(to4(i), to4(t), to4(r))


# ---------------------------------------------------------------------------
# PPM / PGM files and the dataset manifest

def write_ppm(path, img: np.ndarray) -> None:
    """Binary P6 from a (3,H,W) or (1,3,H,W) float image in [0,1]."""
    if img.ndim == 4:
        if img.shape[0] != 1:
            raise ValueError(f"write_ppm: expected one image, got a batch of shape {img.shape}")
        img = img[0]
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValueError(f"write_ppm: expected (3,H,W), got {img.shape}")
    data = quantize8(img)
    _, h, w = data.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(np.ascontiguousarray(data.transpose(1, 2, 0)).tobytes())


PPM_MAX_DIGITS = 10  # longest width, height or maxval read_ppm accepts


def _ppm_header(f, path) -> tuple[int, int, int]:
    """(width, height, maxval) of a binary P6 file; leaves *f* at the first pixel byte.

    The header is four whitespace-separated tokens (magic, width, height,
    maxval).  A ``#`` starts a comment that runs to the end of its line and
    separates tokens like whitespace.  The single whitespace byte after maxval
    ends the header.  Each token is checked as it is read, and a number longer
    than ``PPM_MAX_DIGITS`` is rejected, so a file that is not a PPM is
    rejected within its first bytes.
    """
    tokens: list[bytes] = []
    tok = b""

    def bad() -> ValueError:
        if not tokens:
            return ValueError(f"read_ppm: {path}: bad magic {tok!r}, expected P6")
        return ValueError(f"read_ppm: {path}: bad {('width', 'height', 'maxval')[len(tokens) - 1]} {tok!r}")

    while len(tokens) < 4:
        c = f.read(1)
        if c == b"#":
            f.readline()
            c = b"\n"
        if not c:
            raise ValueError(f"read_ppm: {path}: truncated header")
        if not c.isspace():
            tok += c
            if not (c.isdigit() and len(tok) <= PPM_MAX_DIGITS if tokens else b"P6".startswith(tok)):
                raise bad()
        elif tok:
            if not tokens and tok != b"P6":
                raise bad()
            tokens.append(tok)
            tok = b""
    return int(tokens[1]), int(tokens[2]), int(tokens[3])


def read_ppm(path) -> np.ndarray:
    """(1,3,H,W) float32 in [0,1] from a binary P6 file.

    The header's size is checked against the file before any pixel is read:
    a zero side, or more pixel bytes than the file holds after the header,
    is rejected.
    """
    with open(path, "rb") as f:
        w, h, maxval = _ppm_header(f, path)
        if maxval != 255:
            raise ValueError(f"read_ppm: {path}: maxval {maxval} unsupported")
        if w == 0 or h == 0:
            raise ValueError(f"read_ppm: {path}: empty image {w}x{h}")
        left = os.fstat(f.fileno()).st_size - f.tell()
        if w * h * 3 > left:
            raise ValueError(f"read_ppm: {path}: expected {w * h * 3} pixel bytes, got {left}")
        raw = f.read(w * h * 3)
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3).transpose(2, 0, 1)
    return (arr.astype(np.float32) / 255.0)[None]


def write_pgm(path, img: np.ndarray) -> None:
    """Binary P5 from a (H,W) float image in [0,1]."""
    if img.ndim != 2:
        raise ValueError(f"write_pgm: expected (H,W), got {img.shape}")
    data = quantize8(img)
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(np.ascontiguousarray(data).tobytes())


@dataclass
class ManifestEntry:
    index: int
    i_file: str
    t_file: str
    r_file: str
    blend_mode: str
    seed: int
    has_reflection_gt: bool


def make_dataset(n: int, params: SynthesisParams, out_dir) -> str:
    """Materialize n triples plus a manifest; byte-identical for identical inputs."""
    if n < 0:
        raise ValueError(f"make_dataset: n must be >= 0, got {n}")
    try:
        os.makedirs(out_dir, exist_ok=True)
        lines = []
        for idx in range(n):
            sample_seed = derive_seed(params.seed, idx)
            triple = generate_triple(params, sample_seed)
            names = {}
            for tag, img in (("I", triple.i), ("T", triple.t), ("R", triple.r)):
                fname = f"{tag}_{idx:04d}.ppm"
                write_ppm(os.path.join(out_dir, fname), img)
                names[tag] = fname
            lines.append(f"{idx}\t{names['I']}\t{names['T']}\t{names['R']}\t"
                         f"{params.blend_mode}\t{sample_seed}\t{int(triple.has_reflection_gt)}\n")
        manifest = os.path.join(out_dir, "manifest.tsv")
        with open(manifest, "w") as f:
            f.writelines(lines)
    except OSError as e:
        raise OSError(f"make_dataset: I/O failure under {out_dir}: {e}") from e
    return manifest


def read_manifest(path) -> list[ManifestEntry]:
    """The rows of *path*; a malformed row is rejected naming the file and its 1-based line."""
    entries = []
    base = os.path.dirname(os.path.abspath(path))
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            fields = line.rstrip("\n").split("\t")
            if fields == [""]:
                continue
            where = f"{path}, line {lineno}"
            if len(fields) != 7:
                raise ValueError(f"{where}: expected 7 tab-separated fields, got {len(fields)}")
            idx, i_f, t_f, r_f, mode, seed, has_r = fields
            if has_r not in ("0", "1"):
                raise ValueError(f"{where}: has_reflection_gt must be 0 or 1, got {has_r!r}")
            try:
                idx, seed = int(idx), int(seed)
            except ValueError as e:
                raise ValueError(f"{where}: {e}") from None
            entries.append(ManifestEntry(idx, os.path.join(base, i_f), os.path.join(base, t_f),
                                         os.path.join(base, r_f), mode, seed, has_r == "1"))
    return entries


def load_triple(entry: ManifestEntry) -> ImageTriple:
    """The three layers of *entry*; a T or R whose shape differs from I's is rejected."""
    i, t, r = (read_ppm(f) for f in (entry.i_file, entry.t_file, entry.r_file))
    for path, layer in ((entry.t_file, t), (entry.r_file, r)):
        if layer.shape != i.shape:
            raise ValueError(f"{path}: shape {layer.shape} differs from {i.shape}, the shape of {entry.i_file}")
    return ImageTriple(i, t, r, entry.has_reflection_gt)
