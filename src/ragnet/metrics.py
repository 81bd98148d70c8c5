"""Image quality metrics and evaluation reports.

Images lie in [0,1], so PSNR is 10*log10(1 / MSE) (peak 1).  SSIM is
single-scale with the universal constants (11x11 Gaussian window, sigma
``SSIM_SIGMA`` = 1.5, ``SSIM_K1`` = 0.01, ``SSIM_K2`` = 0.03, peak 1) on the
channel-mean grayscale image, averaged over valid window positions.
Region-weighted PSNR restricts the MSE to a boolean region of the image; the
evaluation's weak-reflection region is where the channel mean of the
full-resolution level-1 difference mask exceeds ``DEFAULT_TAU`` = 0.40 (in
float64), and its strong-reflection region is the rest.
Reflection-detection PSNR compares the predicted reflection against the
observation-minus-transmission residual.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ragnet.synthesis import filter_valid, gaussian_kernel, write_pgm, write_ppm

DEFAULT_TAU = 0.40
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def _as_chw(a) -> np.ndarray:
    arr = np.asarray(a)
    if arr.ndim == 4:
        if arr.shape[0] != 1:
            raise ValueError(f"metrics expect single images, got batch of {arr.shape[0]}")
        arr = arr[0]
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3:
        raise ValueError(f"metrics expect (C,H,W)-like images, got shape {arr.shape}")
    return arr.astype(np.float64)


def psnr(a, b) -> float:
    """10*log10(1 / MSE); +inf for identical images."""
    x, y = _as_chw(a), _as_chw(b)
    if x.shape != y.shape:
        raise ValueError(f"psnr: shape mismatch {x.shape} vs {y.shape}")
    mse = ((x - y) ** 2).mean()
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(1.0 / mse)


def ssim(a, b) -> float:
    """Single-scale structural similarity on channel-mean grayscale images."""
    x, y = _as_chw(a), _as_chw(b)
    if x.shape != y.shape:
        raise ValueError(f"ssim: shape mismatch {x.shape} vs {y.shape}")
    gx, gy = x.mean(axis=0), y.mean(axis=0)
    h, w = gx.shape
    if h < 11 or w < 11:
        raise ValueError(f"ssim: image ({h},{w}) smaller than the 11x11 window")
    win = gaussian_kernel(SSIM_SIGMA)
    mu_x = filter_valid(gx, win)
    mu_y = filter_valid(gy, win)
    sig_x = filter_valid(gx * gx, win) - mu_x * mu_x
    sig_y = filter_valid(gy * gy, win) - mu_y * mu_y
    sig_xy = filter_valid(gx * gy, win) - mu_x * mu_y
    c1 = SSIM_K1 ** 2
    c2 = SSIM_K2 ** 2
    num = (2 * mu_x * mu_y + c1) * (2 * sig_xy + c2)
    den = (mu_x ** 2 + mu_y ** 2 + c1) * (sig_x + sig_y + c2)
    return float((num / den).mean())


def region_psnr(t_hat, t_gt, region: np.ndarray) -> float | None:
    """PSNR over the selected pixels only; None ("n/a") for an empty region."""
    x, y = _as_chw(t_hat), _as_chw(t_gt)
    if x.shape != y.shape:
        raise ValueError(f"region_psnr: shape mismatch {x.shape} vs {y.shape}")
    if region.shape != x.shape[1:]:
        raise ValueError(f"region_psnr: region shape {region.shape} != spatial {x.shape[1:]}")
    sel = np.broadcast_to(region[None], x.shape)
    count = sel.sum()
    if count == 0:
        return None
    mse = (((x - y) ** 2) * sel).sum() / count
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(1.0 / mse)


def reflection_detection_psnr(r_hat, i_obs, t_gt) -> float:
    """Similarity of the predicted reflection to the clamped residual I - T."""
    i_arr, t_arr = _as_chw(i_obs), _as_chw(t_gt)
    if i_arr.shape != t_arr.shape:
        raise ValueError(f"reflection_detection_psnr: shape mismatch {i_arr.shape} vs {t_arr.shape}")
    residual = np.clip(i_arr - t_arr, 0.0, 1.0)
    return psnr(r_hat, residual)


# ---------------------------------------------------------------------------
# report emission

@dataclass
class ImageResult:
    name: str
    psnr: float
    ssim: float
    psnr_weak: float | None
    psnr_strong: float | None
    refl_det_psnr: float
    mask: np.ndarray | None = None    # (H,W) in [0,1], channel-mean level-1 mask
    panel: np.ndarray | None = None   # (3,H,3W) side-by-side I | R_hat | T_hat


def make_panel(i_obs, r_hat, t_hat) -> np.ndarray:
    imgs = [_as_chw(a) for a in (i_obs, r_hat, t_hat)]
    return np.concatenate(imgs, axis=2)


def _fmt(v: float | None) -> str:
    if v is None:
        return "n/a"
    if np.isinf(v):
        return "inf"
    return f"{v:.6f}"


def emit_image_files(r: ImageResult, out_dir) -> list[str]:
    """Write *r*'s mask heatmap (P5) and panel (P6), where it has them, under *out_dir*; the paths written."""
    written = []
    try:
        os.makedirs(out_dir, exist_ok=True)
        for suffix, img, write in (("mask.pgm", r.mask, write_pgm), ("panel.ppm", r.panel, write_ppm)):
            if img is not None:
                written.append(os.path.join(out_dir, f"{r.name}_{suffix}"))
                write(written[-1], np.clip(img, 0.0, 1.0))
    except OSError as e:
        raise OSError(f"emit_report: I/O failure under {out_dir}: {e}") from e
    return written


def emit_report(results: list[ImageResult], out_dir) -> list[str]:
    """CSV summary plus each result's files from :func:`emit_image_files`."""
    csv_path = os.path.join(out_dir, "report.csv")
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(csv_path, "w") as f:
            f.write("image,psnr,ssim,psnr_weak,psnr_strong,refl_det_psnr\n")
            for r in results:
                f.write(f"{r.name},{_fmt(r.psnr)},{_fmt(r.ssim)},{_fmt(r.psnr_weak)},"
                        f"{_fmt(r.psnr_strong)},{_fmt(r.refl_det_psnr)}\n")
    except OSError as e:
        raise OSError(f"emit_report: I/O failure under {out_dir}: {e}") from e
    return [csv_path] + [p for r in results for p in emit_image_files(r, out_dir)]
