"""Synthetic data generation: determinism, ranges, blend identities, dataset files."""

import hashlib
import os

import numpy as np
import pytest

from ragnet import synthesis
from ragnet.synthesis import (
    ImageTriple,
    SynthesisParams,
    blend,
    gaussian_blur,
    generate_base_pair,
    generate_triple,
    make_dataset,
    read_manifest,
    read_ppm,
    synthesize_reflection,
    write_ppm,
)
from oracles import filter_valid_whole_plane


class TestBasePair:
    def test_same_seed_bit_identical(self):
        a_t, a_r = generate_base_pair(42, size=32)
        b_t, b_r = generate_base_pair(42, size=32)
        assert a_t.tobytes() == b_t.tobytes()
        assert a_r.tobytes() == b_r.tobytes()

    def test_values_in_range(self):
        t, r = generate_base_pair(7, size=48)
        for img in (t, r):
            assert img.shape == (3, 48, 48)
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_seeds_give_distinct_images(self):
        # over many seed pairs, images differ in >= 10% of pixels by > 0.05
        base = 0
        for k in range(100):
            a, _ = generate_base_pair(1000 + k, size=32)
            b, _ = generate_base_pair(2000 + k, size=32)
            frac = (np.abs(a - b) > 0.05).mean()
            assert frac >= 0.10, f"pair {k}: only {frac:.1%} of pixels differ"
            base += frac
        assert base / 100 > 0.3


class TestReflectionSynthesis:
    def test_near_identity_blur(self):
        p = SynthesisParams(blur_sigma_range=(0.01, 0.01), decay_range=(1.0, 1.0))
        _, r_src = generate_base_pair(3, size=32)
        r = synthesize_reflection(r_src, p, seed=3)
        assert np.abs(r - r_src).max() < 1e-3

    def test_constant_source_scales_by_decay(self):
        p = SynthesisParams(decay_range=(0.5, 0.5))
        r_src = np.full((3, 32, 32), 0.8)
        r = synthesize_reflection(r_src, p, seed=1)
        np.testing.assert_allclose(r, 0.4, atol=1e-9)

    def test_blur_reduces_variance(self):
        rng = np.random.Generator(np.random.PCG64(5))
        noise = rng.uniform(0, 1, size=(3, 32, 32))
        blurred = gaussian_blur(noise, sigma=2.0)
        assert blurred.var() < noise.var()

    def test_blur_keeps_the_shape_of_a_one_pixel_axis(self):
        img = np.ones((1, 1, 8))
        assert gaussian_blur(img, 1.0).shape == img.shape

    def test_blur_wider_than_the_image_matches_closed_form_reflection(self):
        # sigma 10 gives a 61-tap kernel on a 5x7 image: the padding reflects many times over
        img = np.random.Generator(np.random.PCG64(8)).uniform(0, 1, (2, 5, 7))
        k = synthesis.gaussian_kernel(10.0)
        r = len(k) // 2

        def reflect(i, n):  # mirror without repeating the edge: period 2(n-1)
            j = (i - r) % (2 * (n - 1))
            return j if j < n else 2 * (n - 1) - j

        padded = img[:, [reflect(i, 5) for i in range(5 + 2 * r)]][:, :, [reflect(i, 7) for i in range(7 + 2 * r)]]
        want = sum(k[a] * k[b] * padded[:, a:a + 5, b:b + 7] for a in range(len(k)) for b in range(len(k)))
        np.testing.assert_allclose(gaussian_blur(img, 10.0), want, rtol=0, atol=1e-12)

    def test_kernel_normalized(self):
        for sigma in (0.5, 2.0, 5.0):
            k = synthesis.gaussian_kernel(sigma)
            assert len(k) == 2 * int(np.ceil(3 * sigma)) + 1
            assert abs(k.sum() - 1.0) < 1e-12


class TestFilterBlocks:
    """``filter_valid``'s row blocks against the whole-plane oracle, byte for byte.

    The block budget is one input row of every plane (17 blocks of one row),
    three rows (blocks of 4, the last of 1), seven rows (blocks of 9 and 8),
    or more than the whole input (one block).  The 29- and 61-tap kernels are
    wider than the 17 x 9 output, as when a blur wider than the image reads
    its reflect padding.  The inputs have no leading axis (as in SSIM), one or
    three planes, or a 2 x 3 batch.
    """

    @pytest.mark.parametrize("rows", [1, 3, 7, None])
    @pytest.mark.parametrize("taps", [1, 3, 29, 61])
    @pytest.mark.parametrize("lead", [(), (1,), (3,), (2, 3)])
    def test_blocks_match_whole_plane_oracle(self, monkeypatch, rows, taps, lead):
        rng = np.random.Generator(np.random.PCG64(taps))
        k = rng.uniform(0.0, 1.0, taps)
        img = rng.uniform(-1.0, 1.0, lead + (17 + taps - 1, 9 + taps - 1))
        budget = img.size + 1 if rows is None else rows * int(np.prod(lead)) * img.shape[-1]
        monkeypatch.setattr(synthesis, "FILTER_BLOCK", budget)
        got = synthesis.filter_valid(img, k)
        want = filter_valid_whole_plane(img, k)
        assert got.shape == want.shape == lead + (17, 9)
        assert got.tobytes() == want.tobytes()


class TestBlend:
    def test_zero_reflection_is_identity(self):
        t = np.random.Generator(np.random.PCG64(1)).uniform(0, 1, (3, 8, 8))
        z = np.zeros_like(t)
        for mode in ("linear_clip", "overexpose"):
            np.testing.assert_array_equal(blend(t, z, mode), t)

    def test_linear_region_identity(self):
        rng = np.random.Generator(np.random.PCG64(2))
        t = rng.uniform(0, 0.5, (3, 8, 8))
        r = rng.uniform(0, 0.5, (3, 8, 8))
        for mode in ("linear_clip", "overexpose"):
            i = blend(t, r, mode)
            np.testing.assert_array_equal(i, t + r)
            # I - R = T up to one rounding of the addition
            np.testing.assert_allclose(i - r, t, atol=1e-15, rtol=0)

    def test_scalar_saturation_case(self):
        t = np.full((3, 4, 4), 0.8)
        r = np.full((3, 4, 4), 0.7)
        np.testing.assert_array_equal(blend(t, r, "linear_clip"), 1.0)
        np.testing.assert_array_equal(blend(t, r, "overexpose"), 1.0)
        assert synthesis.saturation_mask(t, r).all()

    def test_range_violation_rejected(self):
        with pytest.raises(ValueError, match="0,1"):
            blend(np.full((3, 2, 2), 1.5), np.zeros((3, 2, 2)), "linear_clip")

    @pytest.mark.parametrize("threshold", [0.5, 1.3, 2.0])
    def test_overexpose_is_linear_clip_with_saturated_pixels_set_to_1(self, threshold):
        # 8-bit T and R as generate_triple blends them; T + R > 1 on about half the values
        rng = np.random.Generator(np.random.PCG64(70))
        t, r = (rng.integers(0, 256, (1, 3, 48, 48)) / 255.0 for _ in range(2))
        assert 0.4 < (t + r > 1).mean() < 0.6
        sat = synthesis.saturation_mask(t, r, threshold)
        linear = blend(t, r, "linear_clip")
        got = blend(t, r, "overexpose", saturate_threshold=threshold)
        want = np.where(sat, 1.0, linear)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        if threshold >= 2.0:
            assert not sat.any() and got.tobytes() == linear.tobytes()
        else:
            assert 0 < sat.mean() < 1


class TestTriple:
    def test_linear_clip_exact_blend_identity(self):
        # T and R are quantized before blending, so in 8-bit space the
        # identity I = clamp(T + R) holds with zero error
        p = SynthesisParams(seed=9)
        tr = generate_triple(p, seed=1234)
        assert tr.i.shape == (1, 3, 32, 32)
        qi = synthesis.quantize8(tr.i[0]).astype(int)
        qt = synthesis.quantize8(tr.t[0]).astype(int)
        qr = synthesis.quantize8(tr.r[0]).astype(int)
        np.testing.assert_array_equal(qi, np.minimum(255, qt + qr))
        linear = qt + qr <= 255
        np.testing.assert_array_equal(qi[linear] - qr[linear], qt[linear])

    def test_overexpose_violates_linearity(self):
        # with high decay, a decent share of pixels must break I - R = T
        p = SynthesisParams(blend_mode="overexpose", decay_range=(0.9, 1.0), seed=0)
        fracs = []
        for k in range(100):
            tr = generate_triple(p, seed=k)
            fracs.append((np.abs(tr.i - tr.r - tr.t) > 0.05).mean())
        assert np.mean(fracs) >= 0.01

    def test_all_values_in_range(self):
        p = SynthesisParams(blend_mode="overexpose", seed=3)
        tr = generate_triple(p, seed=77)
        for img in (tr.i, tr.t, tr.r):
            assert img.min() >= 0.0 and img.max() <= 1.0


class TestPPM:
    def test_round_trip(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(4))
        img = synthesis.quantize8(rng.uniform(0, 1, (3, 5, 7))).astype(np.float32) / 255.0
        path = tmp_path / "x.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        np.testing.assert_array_equal(back[0], img)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P3\n1 1\n255\n000")
        with pytest.raises(ValueError, match="magic"):
            read_ppm(path)

    @pytest.mark.parametrize("header", [b"P6 4 4 255\n", b"P6 # by x\n4 4\n255\n", b"P6\n4 4 # size\n255\n",
                                        b"P6\n# a\n#b\n4\t4\r\n255 ", b"P6\n4 4\n255# maxval\n",
                                        b"P6#x\n4#w\n4\n255\n"])
    def test_header_variants(self, tmp_path, header):
        rng = np.random.Generator(np.random.PCG64(5))
        img = synthesis.quantize8(rng.uniform(0, 1, (3, 4, 4))).astype(np.float32) / 255.0
        path = tmp_path / "v.ppm"
        path.write_bytes(header + synthesis.quantize8(img).transpose(1, 2, 0).tobytes())
        np.testing.assert_array_equal(read_ppm(path)[0], img)

    @pytest.mark.parametrize("header", [b"", b"P6", b"P6\n4 4\n", b"P6 # 4 4 255\n", b"P6\n4 4\n255"])
    def test_truncated_header_names_the_file(self, tmp_path, header):
        path = tmp_path / "cut.ppm"
        path.write_bytes(header)
        with pytest.raises(ValueError, match="cut.ppm: truncated header"):
            read_ppm(path)

    @pytest.mark.parametrize("header, what", [(b"P65 4 4 255\n", "magic"), (b"P 4 4 255\n", "magic"),
                                              (b"P6 4 x4 255\n", "height"), (b"P6 4 4 2.5\n", "maxval"),
                                              (b"P6 " + b"9" * 5000, "width"),
                                              (b"P6 4 12345678901 255\n", "height")])
    def test_bad_header_token_names_the_file(self, tmp_path, header, what):
        path = tmp_path / "bad.ppm"
        path.write_bytes(header + bytes(48))
        with pytest.raises(ValueError, match=f"bad.ppm: bad {what}"):
            read_ppm(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "trunc.ppm"
        path.write_bytes(b"P6\n4 4\n255\n\x00\x00")
        with pytest.raises(ValueError, match="pixel bytes"):
            read_ppm(path)


class TestMakeDataset:
    def test_empty_dataset(self, tmp_path):
        manifest = make_dataset(0, SynthesisParams(), tmp_path / "d0")
        assert os.path.exists(manifest)
        assert read_manifest(manifest) == []
        assert sorted(os.listdir(tmp_path / "d0")) == ["manifest.tsv"]

    def test_reruns_byte_identical(self, tmp_path):
        p = SynthesisParams(seed=7, blend_mode="overexpose")
        m1 = make_dataset(3, p, tmp_path / "a")
        m2 = make_dataset(3, p, tmp_path / "b")
        for name in os.listdir(tmp_path / "a"):
            with open(tmp_path / "a" / name, "rb") as f1, open(tmp_path / "b" / name, "rb") as f2:
                assert f1.read() == f2.read(), name

    def test_written_triples_satisfy_blend_equation(self, tmp_path):
        p = SynthesisParams(seed=5)
        manifest = make_dataset(4, p, tmp_path / "d")
        for entry in read_manifest(manifest):
            tr = synthesis.load_triple(entry)
            want = np.clip(tr.t + tr.r, 0, 1)
            # both sides are 8-bit quantized; the identity holds to 1/255
            assert np.abs(tr.i - want).max() <= 1 / 255 + 1e-7
            assert entry.has_reflection_gt

    @pytest.mark.parametrize("n, params, want", [
        # pre-crop scenes of 164 and 182 px: two and three row blocks per scene blur
        (2, SynthesisParams(seed=3, patch_size=96),
         "ed018e88ff4c864343b44ab6a07f31a018cde67f218b6f096a3f82ecedf7439f"),
        (3, SynthesisParams(seed=5, patch_size=32, blend_mode="overexpose"),
         "6d3e93344241db7be88ac24024623a3e666d1a5e0a7ea4165638557523c74c6c"),
        (2, SynthesisParams(seed=11, patch_size=112, blend_mode="overexpose", blur_sigma_range=(1.0, 9.0)),
         "aecc51c6141885015fd70ba8566646ba5e801705833b0a418c31d8cbbf02cb2f"),
    ], ids=["linear_clip_96", "overexpose_32", "overexpose_112_wide_blur"])
    def test_bytes_match_the_pinned_hash(self, tmp_path, n, params, want):
        # SHA-256 over the sorted file names and contents, pinned from the
        # whole-plane filter and full-image shape blending; the files are 8-bit
        # quantized, so a last-bit difference in np.exp between CPUs would
        # change a byte only where a value lies within rounding error of a
        # quantization step
        make_dataset(n, params, tmp_path)
        h = hashlib.sha256()
        for name in sorted(os.listdir(tmp_path)):
            h.update(name.encode())
            h.update((tmp_path / name).read_bytes())
        assert h.hexdigest() == want

    def test_manifest_fields(self, tmp_path):
        p = SynthesisParams(seed=2, blend_mode="overexpose")
        entries = read_manifest(make_dataset(2, p, tmp_path / "d"))
        assert [e.index for e in entries] == [0, 1]
        assert all(e.blend_mode == "overexpose" for e in entries)
        assert all(os.path.exists(e.i_file) for e in entries)

    @pytest.mark.parametrize("row, why", [
        ("0\tI.ppm\tT.ppm\tR.ppm\tlinear_clip\t5", "expected 7 tab-separated fields, got 6"),
        ("0\tI.ppm\tT.ppm\tR.ppm\tlinear_clip\t5\t1\t1", "expected 7 tab-separated fields, got 8"),
        ("x\tI.ppm\tT.ppm\tR.ppm\tlinear_clip\t5\t1", "invalid literal for int"),
        ("0\tI.ppm\tT.ppm\tR.ppm\tlinear_clip\t5.5\t1", "invalid literal for int"),
        ("0\tI.ppm\tT.ppm\tR.ppm\tlinear_clip\t5\t2", "has_reflection_gt must be 0 or 1, got '2'"),
    ], ids=["six_fields", "eight_fields", "index", "seed", "has_r_2"])
    def test_malformed_row_names_file_and_line(self, tmp_path, row, why):
        manifest = make_dataset(1, SynthesisParams(seed=2, patch_size=16), tmp_path)
        with open(manifest, "a") as f:
            f.write("\n" + row + "\n")  # line 2 is blank, so the bad row is line 3
        with pytest.raises(ValueError, match=f"{manifest}, line 3: {why}"):
            read_manifest(manifest)


class TestParamsValidation:
    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            SynthesisParams(blur_sigma_range=(5.0, 2.0))
        with pytest.raises(ValueError):
            SynthesisParams(decay_range=(0.0, 0.5))
        with pytest.raises(ValueError):
            SynthesisParams(patch_size=20)
        with pytest.raises(ValueError):
            SynthesisParams(blend_mode="additive")
