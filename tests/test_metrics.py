"""PSNR/SSIM/region metrics against direct computation and closed forms."""

import numpy as np
import pytest

from ragnet import metrics, synthesis
from ragnet.metrics import (
    ImageResult,
    emit_report,
    make_panel,
    psnr,
    reflection_detection_psnr,
    region_psnr,
    ssim,
)
from oracles import filter_valid_whole_plane, psnr_direct


def rand(shape, seed, lo=0.0, hi=1.0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.uniform(lo, hi, size=shape)


class TestPSNR:
    def test_identical_is_inf(self):
        x = rand((3, 8, 8), 0)
        assert psnr(x, x) == float("inf")

    def test_known_mse(self):
        a = np.zeros((1, 4, 4))
        b = np.full((1, 4, 4), 0.1)  # MSE = 0.01
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_direct_summation(self, seed):
        a, b = rand((3, 16, 16), seed), rand((3, 16, 16), seed + 50)
        assert psnr(a, b) == pytest.approx(psnr_direct(a, b), abs=1e-9)

    def test_symmetric(self):
        a, b = rand((3, 8, 8), 4), rand((3, 8, 8), 5)
        assert psnr(a, b) == psnr(b, a)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((3, 4, 4)), np.zeros((3, 8, 8)))

    def test_accepts_nchw(self):
        a = rand((1, 3, 8, 8), 6)
        assert psnr(a, a[0]) == float("inf")


class TestSSIM:
    def test_self_similarity_is_one(self):
        x = rand((3, 16, 16), 10)
        assert ssim(x, x) == pytest.approx(1.0, abs=1e-9)

    def test_inverted_image_scores_low(self):
        # push values away from mid-gray so inversion actually changes structure
        x = np.where(rand((3, 16, 16), 11) > 0.5, 0.9, 0.1)
        assert ssim(x, 1.0 - x) < 0.5

    def test_constant_pair_closed_form(self):
        a = np.full((3, 16, 16), 0.5)
        b = np.full((3, 16, 16), 0.6)
        c1, c2 = 0.01 ** 2, 0.03 ** 2
        want = ((2 * 0.5 * 0.6 + c1) * c2) / ((0.25 + 0.36 + c1) * c2)
        assert ssim(a, b) == pytest.approx(want, abs=1e-12)

    def test_symmetric(self):
        a, b = rand((3, 16, 16), 12), rand((3, 16, 16), 13)
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-9)

    def test_range(self):
        for seed in range(5):
            v = ssim(rand((3, 12, 12), seed), rand((3, 12, 12), seed + 100))
            assert -1.0 <= v <= 1.0

    @pytest.mark.parametrize("rows", [1, 7])
    def test_row_blocks_match_the_whole_plane_filter(self, monkeypatch, rows):
        # SSIM filters 2-D planes; its value must not depend on the row blocks
        a, b = rand((3, 40, 29), 14), rand((3, 40, 29), 15)
        with monkeypatch.context() as m:
            m.setattr(metrics, "filter_valid", filter_valid_whole_plane)
            want = ssim(a, b)
        monkeypatch.setattr(synthesis, "FILTER_BLOCK", rows * 29)
        assert ssim(a, b) == want

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="11x11"):
            ssim(np.zeros((3, 8, 8)), np.zeros((3, 8, 8)))


class TestRegionPSNR:
    def test_full_mask_equals_plain_psnr(self):
        a, b = rand((3, 8, 8), 20), rand((3, 8, 8), 21)
        full = np.ones((8, 8), dtype=bool)
        assert region_psnr(a, b, full) == pytest.approx(psnr(a, b), abs=1e-9)

    def test_empty_region_is_na(self):
        a, b = rand((3, 8, 8), 22), rand((3, 8, 8), 23)
        assert region_psnr(a, b, np.zeros((8, 8), dtype=bool)) is None

    def test_matches_selected_pixel_oracle(self):
        a, b = rand((3, 8, 8), 24), rand((3, 8, 8), 25)
        region = rand((8, 8), 26) > 0.5
        got = region_psnr(a, b, region)
        diffs = ((a - b) ** 2)[:, region]
        want = 10 * np.log10(1.0 / diffs.mean())
        assert got == pytest.approx(want, abs=1e-9)

    def test_count_weighted_recombination(self):
        a, b = rand((3, 8, 8), 27), rand((3, 8, 8), 28)
        weak = rand((8, 8), 29) > 0.5
        n_w, n_s = weak.sum() * 3, (~weak).sum() * 3
        mse = lambda region: (((a - b) ** 2) * np.broadcast_to(region[None], a.shape)).sum() / max(1, (region.sum() * 3))
        total = ((a - b) ** 2).mean() * a.size
        assert mse(weak) * n_w + mse(~weak) * n_s == pytest.approx(total, abs=1e-9)


class TestReflectionDetection:
    def test_exact_residual_is_inf(self):
        i = rand((3, 8, 8), 40)
        t = rand((3, 8, 8), 41) * 0.5
        i = np.clip(t + 0.3, 0, 1)
        r_hat = np.clip(i - t, 0, 1)
        assert reflection_detection_psnr(r_hat, i, t) == float("inf")

    def test_zero_reflection_clean_image(self):
        t = rand((3, 8, 8), 42)
        assert reflection_detection_psnr(np.zeros_like(t), t, t) == float("inf")

    def test_matches_composed_psnr(self):
        i, t = rand((3, 8, 8), 43), rand((3, 8, 8), 44)
        r_hat = rand((3, 8, 8), 45)
        want = psnr(r_hat, np.clip(i - t, 0, 1))
        assert reflection_detection_psnr(r_hat, i, t) == pytest.approx(want, abs=1e-12)


class TestEmitReport:
    def test_empty_results_header_only(self, tmp_path):
        files = emit_report([], tmp_path / "r")
        assert len(files) == 1
        assert open(files[0]).read() == "image,psnr,ssim,psnr_weak,psnr_strong,refl_det_psnr\n"

    def test_one_image_three_files(self, tmp_path):
        i = rand((3, 16, 16), 50)
        res = ImageResult("img0", psnr=21.5, ssim=0.9, psnr_weak=22.0, psnr_strong=None,
                          refl_det_psnr=float("inf"), mask=rand((16, 16), 51),
                          panel=make_panel(i, i, i))
        files = emit_report([res], tmp_path / "r")
        assert len(files) == 3
        names = sorted(f.split("/")[-1] for f in files)
        assert names == ["img0_mask.pgm", "img0_panel.ppm", "report.csv"]

    def test_csv_round_trip_to_printed_precision(self, tmp_path):
        res = ImageResult("a", psnr=23.456789123, ssim=0.87654321, psnr_weak=None,
                          psnr_strong=19.000001, refl_det_psnr=24.25)
        files = emit_report([res], tmp_path / "r")
        line = open(files[0]).read().splitlines()[1].split(",")
        assert line[0] == "a"
        assert float(line[1]) == pytest.approx(23.456789123, abs=1e-6)
        assert float(line[2]) == pytest.approx(0.87654321, abs=1e-6)
        assert line[3] == "n/a"
        assert float(line[4]) == pytest.approx(19.000001, abs=1e-6)
        assert line[5] == "24.250000"

    def test_panel_is_side_by_side(self):
        a = np.zeros((3, 4, 4))
        b = np.ones((3, 4, 4))
        panel = make_panel(a, b, a)
        assert panel.shape == (3, 4, 12)
        np.testing.assert_array_equal(panel[:, :, 4:8], 1.0)
