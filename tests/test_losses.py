"""Loss values against direct oracles, identities, and gradient checks."""

from dataclasses import fields

import numpy as np
import pytest

import ragnet.tensor as T
from ragnet import losses
from ragnet.losses import (
    LossParts,
    LossWeights,
    MaskLossThresholds,
    adv_d_loss,
    adv_g_loss,
    exclusion_loss,
    mask_loss,
    perceptual_loss,
    rec_loss,
    total_loss,
)
from ragnet.model import ModelConfig, build_network, extract_features, forward_discriminator
from oracles import exclusion_loss_script


def rand(shape, seed, lo=0.0, hi=1.0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.uniform(lo, hi, size=shape).astype(np.float64)


def tt(shape, seed, lo=0.0, hi=1.0, grad=False):
    return T.tensor(rand(shape, seed, lo, hi), requires_grad=grad)


class TestRecLoss:
    def test_zero_at_ground_truth(self):
        t = tt((1, 3, 4, 4), 0)
        r = tt((1, 3, 4, 4), 1)
        assert rec_loss([(t, t), (r, r)]).item() == 0.0

    def test_constant_offset_arithmetic(self):
        t = tt((1, 3, 4, 4), 2)
        t_hat = T.tensor(t.data + 0.1)
        r = tt((1, 3, 4, 4), 3)
        assert rec_loss([(t_hat, t), (r, r)]).item() == pytest.approx(0.1 * 48 / 48, abs=1e-12)

    def test_matches_direct_summation(self):
        th, t = rand((2, 3, 4, 4), 4), rand((2, 3, 4, 4), 5)
        rh, r = rand((2, 3, 4, 4), 6), rand((2, 3, 4, 4), 7)
        want = np.abs(th - t).sum() / th.size + np.abs(rh - r).sum() / rh.size
        got = rec_loss([(T.tensor(th), T.tensor(t)), (T.tensor(rh), T.tensor(r))]).item()
        assert abs(got - want) < 1e-10

    def test_one_pair_is_its_mean_absolute_difference(self):
        for seed in (8, 10):
            th, t = rand((1, 3, 4, 4), seed), rand((1, 3, 4, 4), seed + 1)
            got = rec_loss([(T.tensor(th), T.tensor(t))]).item()
            assert abs(got - np.abs(th - t).sum() / th.size) < 1e-12
            assert abs(got - np.abs(th - t).mean()) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rec_loss([(T.zeros((1, 3, 4, 4)), T.zeros((1, 3, 8, 8)))])


@pytest.fixture(scope="module")
def extractor():
    return build_network("percep_extractor", ModelConfig(width_multiplier=0.125, seed=11), dtype=np.float64)


class TestPerceptualLoss:
    def test_zero_for_identical(self, extractor):
        x = tt((1, 3, 32, 32), 20)
        assert perceptual_loss([(x, x), (x, x)], extractor).item() == 0.0

    def test_positive_for_different(self, extractor):
        a, b = tt((1, 3, 32, 32), 21), tt((1, 3, 32, 32), 22)
        assert perceptual_loss([(a, b)], extractor).item() > 0.0

    def test_matches_two_pass_oracle(self, extractor):
        th, t = tt((1, 3, 32, 32), 23), tt((1, 3, 32, 32), 24)
        rh, r = tt((1, 3, 32, 32), 25), tt((1, 3, 32, 32), 26)
        want = 0.0
        for pred, gt in ((th, t), (rh, r)):
            fp = extract_features(extractor, pred)
            fg = extract_features(extractor, gt)
            for stage, (a, b) in enumerate(zip(fp, fg)):
                k = 1.0 / (a.shape[1] * a.shape[2] * a.shape[3])
                want += k * np.abs(a.data - b.data).sum()
        got = perceptual_loss([(th, t), (rh, r)], extractor).item()
        assert abs(got - want) < 1e-8

    def test_extractor_parameters_frozen(self, extractor):
        assert all(not p.requires_grad for p in extractor.params.values())


class TestExclusionLoss:
    def test_constant_transmission_gives_zero(self):
        t = T.full((1, 3, 8, 8), 0.4, dtype=np.float64)
        r = tt((1, 3, 8, 8), 30)
        assert exclusion_loss(t, r).item() == 0.0

    def test_constant_reflection_gives_zero(self):
        t = tt((1, 3, 8, 8), 31)
        r = T.full((1, 3, 8, 8), 0.9, dtype=np.float64)
        assert exclusion_loss(t, r).item() == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_standalone_script(self, seed):
        t = rand((1, 3, 8, 8), 32 + seed)
        r = rand((1, 3, 8, 8), 42 + seed)
        got = exclusion_loss(T.tensor(t), T.tensor(r)).item()
        assert abs(got - exclusion_loss_script(t, r)) < 1e-8

    def test_swap_symmetry_with_fixed_lambda(self):
        t, r = tt((1, 3, 8, 8), 50), tt((1, 3, 8, 8), 51)
        lams = [losses.EXCL_LAMBDA_T] * (losses.EXCL_SCALES + 1)
        a = exclusion_loss(t, r, lambda_r_values=lams).item()
        b = exclusion_loss(r, t, lambda_r_values=lams).item()
        assert abs(a - b) < 1e-10

    def test_indivisible_dims_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            exclusion_loss(T.zeros((1, 3, 6, 6)), T.zeros((1, 3, 6, 6)))


def make_masks(value, h=8, channels=8, dtype=np.float64, grad=False):
    """One mask M per level, level 1 first: M_diff is its first half of channels."""
    return [T.tensor(np.full((1, channels, h // 2 ** i, h // 2 ** i), value, dtype=dtype), requires_grad=grad)
            for i in range(4)]


class TestMaskLoss:
    TH = MaskLossThresholds()

    def test_intermediate_intensity_unconstrained(self):
        # intensity strictly between xi=0.01 and phi=0.3 selects nothing
        r = T.full((1, 3, 8, 8), 0.15, dtype=np.float64)
        assert mask_loss(make_masks(0.37), r, self.TH).item() == 0.0

    def test_ideal_heavy_reflection_mask(self):
        r = T.ones((1, 3, 8, 8), dtype=np.float64)
        masks = make_masks(1e-12)
        assert mask_loss(masks, r, self.TH).item() == pytest.approx(0.0, abs=1e-10)

    def test_clean_region_hand_computation(self):
        # intensity 0 everywhere selects every entry for the regularizer:
        # each of the 4 levels contributes mean |0.25 - 1| = 0.75
        r = T.zeros((1, 3, 8, 8), dtype=np.float64)
        got = mask_loss(make_masks(0.25), r, self.TH).item()
        assert got == pytest.approx(4 * 0.75, abs=1e-12)

    def test_literal_sum_mode_on_4x4_case(self):
        r = T.zeros((1, 3, 4, 4), dtype=np.float64)
        masks = [T.full((1, 4, 4, 4), 0.25, dtype=np.float64)]
        got = mask_loss(masks, r, self.TH).item()
        # 4 mask channels x 16 pixels, each |0.25 - 1| = 0.75
        assert got == pytest.approx(0.75 * 4 * 16 / (4 * 16), abs=1e-12)

    def test_heavy_literal_sum(self):
        r = T.ones((1, 3, 4, 4), dtype=np.float64)
        m = np.full((1, 4, 4, 4), 0.9)
        m[:, :2] = 0.3
        got = mask_loss([T.tensor(m)], r, self.TH).item()
        assert got == pytest.approx(0.3 * 2 * 16 / (2 * 16), abs=1e-12)  # only M_diff is constrained

    def test_monotone_in_heavy_region(self):
        r = T.ones((1, 3, 8, 8), dtype=np.float64)
        masks = make_masks(0.5)
        base = mask_loss(masks, r, self.TH).item()
        masks[0].data[0, 0, 3, 3] += 0.2  # M_diff
        assert mask_loss(masks, r, self.TH).item() >= base

    def test_monotone_in_clean_region(self):
        r = T.zeros((1, 3, 8, 8), dtype=np.float64)
        masks = make_masks(0.5)
        base = mask_loss(masks, r, self.TH).item()
        masks[1].data[0, 5, 1, 1] -= 0.2  # M_dec
        assert mask_loss(masks, r, self.TH).item() >= base

    def test_mixed_regions_ignore_middle_band(self):
        lum = np.zeros((1, 3, 4, 4))
        lum[:, :, 0, :] = 0.9   # heavy row
        lum[:, :, 1, :] = 0.15  # unconstrained row
        r = T.tensor(lum)
        masks = [T.full((1, 2, 4, 4), 0.4, dtype=np.float64)]
        got = mask_loss(masks, r, self.TH).item()
        # heavy row: 4 px * 0.4 on M_diff; clean rows (2 rows): |0.4-1| * 8 px * 2 channels
        assert got == pytest.approx(0.4 * 4 / 4 + 0.6 * 8 * 2 / (8 * 2), abs=1e-12)

    def test_exact_gradient_on_each_region(self):
        # heavy row 0 pulls M_diff (channels 0-1) toward 0 and leaves M_dec free;
        # row 1 is unconstrained; clean rows 2-3 pull all of M toward 1
        lum = np.zeros((1, 3, 4, 4))
        lum[:, :, 0, :] = 0.9
        lum[:, :, 1, :] = 0.15
        m = T.tensor(rand((1, 4, 4, 4), 61, 0.1, 0.9), requires_grad=True)
        with T.Tape():
            T.backward(mask_loss([m], T.tensor(lum), self.TH))
        want = np.zeros((1, 4, 4, 4))
        want[:, :2, 0, :] = 1 / (4 * 2)   # 4 heavy pixels x 2 M_diff channels
        want[:, :, 2:, :] = -1 / (8 * 4)  # 8 clean pixels x 4 channels
        np.testing.assert_array_equal(m.grad, want)

    def test_float32_masks_keep_float32_loss_and_gradients(self):
        # heavy top half, clean bottom half; 16 px leaves both at every level
        lum = np.zeros((1, 3, 16, 16), dtype=np.float32)
        lum[:, :, :8, :] = 0.9
        r = T.tensor(lum)
        masks = make_masks(0.5, h=16, dtype=np.float32, grad=True)
        with T.Tape():
            loss = mask_loss(masks, r, self.TH)
            T.backward(loss)
        assert loss.dtype == np.float32
        for m in masks:
            assert m.grad.dtype == np.float32


class TestAdversarialLosses:
    def _nets(self):
        cfg = ModelConfig(width_multiplier=0.125, seed=8)
        return build_network("discriminator", cfg, dtype=np.float64)

    def test_half_output_values(self):
        d = self._nets()
        d["disc/c3/weight"].data[:] = 0.0  # forces D = sigmoid(0) = 0.5
        i_obs = tt((1, 3, 32, 32), 70)
        t = tt((1, 3, 32, 32), 71)
        t_hat = tt((1, 3, 32, 32), 72)
        assert adv_g_loss(d, i_obs, t_hat).item() == pytest.approx(np.log(2.0), abs=1e-12)
        assert adv_d_loss(d, i_obs, t, t_hat).item() == pytest.approx(2 * np.log(2.0), abs=1e-12)

    def test_matches_scalar_math_oracle(self):
        d = self._nets()
        i_obs = tt((1, 3, 32, 32), 73)
        t = tt((1, 3, 32, 32), 74)
        t_hat = tt((1, 3, 32, 32), 75)
        dr = forward_discriminator(d, i_obs, t).item()
        df = forward_discriminator(d, i_obs, t_hat).item()
        clip = lambda v: min(max(v, 1e-7), 1 - 1e-7)
        want_d = -np.log(clip(dr)) - np.log(clip(1.0 - df))
        want_g = -np.log(clip(df))
        assert abs(adv_d_loss(d, i_obs, t, t_hat).item() - want_d) < 1e-10
        assert abs(adv_g_loss(d, i_obs, t_hat).item() - want_g) < 1e-10

    def test_d_step_requires_detached_prediction(self):
        d = self._nets()
        x = tt((1, 3, 32, 32), 76, grad=True)
        with pytest.raises(ValueError, match="detach"):
            adv_d_loss(d, x.detach(), x.detach(), x)


class TestTotalLoss:
    W = LossWeights()

    def scalars(self, *vals):
        return LossParts(*[T.scalar(v, dtype=np.float64) for v in vals])

    def test_zero_parts(self):
        assert total_loss(self.scalars(0, 0, 0, 0, 0), self.W).item() == 0.0

    def test_unit_parts_give_321_exactly(self):
        assert total_loss(self.scalars(1, 1, 1, 1, 1), self.W).item() == 3.21

    def test_disabled_adversarial_matches_zero_weight(self):
        parts = self.scalars(0.3, 0.7, 1.5, 9.9, 0.2)
        w0 = LossWeights(adv=0.0)
        a = total_loss(parts, w0).item()
        parts.adv = None
        b = total_loss(parts, self.W).item()
        assert a == b

    def test_linear_in_each_part(self):
        base = self.scalars(1, 1, 1, 1, 1)
        for name, lam in (("rec", 1.0), ("percep", 1.0), ("excl", 0.2), ("adv", 0.01), ("mask", 1.0)):
            bumped = self.scalars(1, 1, 1, 1, 1)
            setattr(bumped, name, T.scalar(2.0, dtype=np.float64))
            delta = total_loss(bumped, self.W).item() - total_loss(base, self.W).item()
            assert delta == pytest.approx(lam, abs=1e-12)

    def test_parts_and_weights_share_field_names_in_order(self):
        # total_loss weights each part by the same-named weight, summing in field order
        assert [f.name for f in fields(LossParts)] == [f.name for f in fields(LossWeights)]

    def test_missing_parts_skipped(self):
        parts = LossParts(rec=T.scalar(2.0, dtype=np.float64))
        assert total_loss(parts, self.W).item() == 2.0
