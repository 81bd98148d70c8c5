"""CLI subcommands, exit codes, config parsing, and the defaults table."""

import gc
import os
import tracemalloc

import numpy as np
import pytest

import ragnet.tensor as T
from ragnet import cli
from ragnet import metrics as ME
from ragnet import model as M
from ragnet import synthesis as S
from ragnet import trainer as TR
from ragnet.cli import CONFIG_KEYS, EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from ragnet.model import NETWORK_KINDS, RAG_VARIANTS, ModelConfig
from ragnet.synthesis import SynthesisParams, read_ppm, write_ppm
from ragnet.trainer import TrainConfig, TrainerState, model_config_from_checkpoint, save_checkpoint


class TestDefaultsTable:
    def test_published_values(self):
        # every key whose value the source material states must default to it
        published = {
            "phi": 0.3, "xi": 0.01, "tau": 0.40,
            "lambda_rec": 1.0, "lambda_percep": 1.0, "lambda_excl": 0.2,
            "lambda_adv": 0.01, "lambda_mask": 1.0,
            "adam_beta1": 0.9, "adam_beta2": 0.999, "lr": 1e-4,
            "blur_sigma_lo": 2.0, "blur_sigma_hi": 5.0,
        }
        for key, want in published.items():
            assert CONFIG_KEYS[key][0] == want, key

    def test_every_key_has_help(self):
        for key, (default, parse, help_text) in CONFIG_KEYS.items():
            assert help_text, key
            assert default is not None, key

    def test_dataclass_defaults_are_the_cli_defaults(self):
        args = cli.make_parser().parse_args(["params"])
        assert cli.build_config(args) == (TrainConfig(), SynthesisParams())

    def test_help_lists_every_key(self, capsys):
        for command in ("synth", "train", "infer", "eval", "gradcheck", "inspect-mask", "params"):
            assert main([command, "--help"]) == EXIT_OK
            out = capsys.readouterr().out
            for key in CONFIG_KEYS:
                assert f"--{key.replace('_', '-')}" in out, (command, key)
            assert "--config" in out, command


class TestConfigParsing:
    def test_file_then_flag_precedence(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("# comment\nseed = 5\nphi = 0.25\n")
        parser = cli.make_parser()
        args = parser.parse_args(["params", "--config", str(cfgfile), "--phi", "0.35"])
        train, synth = cli.build_config(args)
        assert train.model.seed == synth.seed == 5
        assert train.thresholds.phi == 0.35

    def test_unknown_key_in_file_rejected(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("not_a_key = 1\n")
        parser = cli.make_parser()
        args = parser.parse_args(["params", "--config", str(cfgfile)])
        with pytest.raises(ValueError, match="not_a_key"):
            cli.build_config(args)

    def test_malformed_line_rejected(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("just a line without equals\n")
        parser = cli.make_parser()
        args = parser.parse_args(["params", "--config", str(cfgfile)])
        with pytest.raises(ValueError, match="key = value"):
            cli.build_config(args)

    def test_bad_bool_rejected(self):
        parser = cli.make_parser()
        args = parser.parse_args(["params", "--use-adversarial", "maybe"])
        with pytest.raises(ValueError, match="boolean"):
            cli.build_config(args)


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["bogus-subcommand"],
        ["synth", "--n", "2"],                      # missing --out
        ["train", "--data", "x", "--out", "y", "--no-such-flag", "1"],
        ["eval", "--frobnicate"],
    ])
    def test_usage_errors_exit_1(self, argv):
        assert main(argv) == EXIT_USAGE

    def test_unknown_flag_has_no_side_effects(self, tmp_path):
        out = tmp_path / "never"
        assert main(["synth", "--n", "1", "--out", str(out), "--bogus", "1"]) == EXIT_USAGE
        assert not out.exists()

    def test_missing_checkpoint_exits_3_with_path(self, tmp_path, capsys):
        missing = str(tmp_path / "no_such.bin")
        code = main(["infer", "--ckpt", missing, "--input", "x.ppm", "--out", str(tmp_path)])
        assert code == EXIT_IO
        assert missing in capsys.readouterr().err

    def test_validation_failure_exits_2(self, tmp_path):
        code = main(["synth", "--n", "1", "--out", str(tmp_path / "d"), "--patch-size", "20"])
        assert code == EXIT_VALIDATION


class TestSynthCommand:
    def test_deterministic_reruns(self, tmp_path):
        for d in ("a", "b"):
            assert main(["synth", "--n", "4", "--seed", "7", "--out", str(tmp_path / d)]) == EXIT_OK
        for name in sorted(os.listdir(tmp_path / "a")):
            with open(tmp_path / "a" / name, "rb") as f1, open(tmp_path / "b" / name, "rb") as f2:
                assert f1.read() == f2.read(), name


class TestParamsCommand:
    def test_prints_counts_and_ratio(self, capsys):
        assert main(["params", "--width-multiplier", "0.125"]) == EXIT_OK
        out = capsys.readouterr().out
        counts = {line[:16].strip(): int(line[16:].replace(",", "")) for line in out.strip().splitlines()}
        assert list(counts) == [*NETWORK_KINDS, "g_r + g_t"]
        assert counts["g_r + g_t"] == counts["g_r"] + counts["g_t"]


class TestGradcheckCommand:
    def test_fresh_build_passes(self, capsys):
        assert main(["gradcheck"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all" in out and "passed" in out
        assert "FAIL" not in out


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A tiny end-to-end run shared by the pipeline tests."""
    root = tmp_path_factory.mktemp("cli_e2e")
    data = root / "data"
    run = root / "run"
    assert main(["synth", "--n", "8", "--seed", "1", "--blend-mode", "overexpose",
                 "--out", str(data)]) == EXIT_OK
    assert main(["train", "--data", str(data / "manifest.tsv"), "--out", str(run),
                 "--phase1-epochs", "1", "--phase2-epochs", "1", "--seed", "1"]) == EXIT_OK
    return root, data, run


class TestPipeline:
    def test_train_outputs(self, trained_run):
        _, _, run = trained_run
        assert (run / "final.bin").exists()
        assert (run / "train_log.csv").exists()

    def test_infer_writes_three_images(self, trained_run, tmp_path):
        root, data, run = trained_run
        out = tmp_path / "inf"
        code = main(["infer", "--ckpt", str(run / "final.bin"),
                     "--input", str(data / "I_0000.ppm"), "--out", str(out)])
        assert code == EXIT_OK
        for name in ("R_hat.ppm", "T_hat.ppm", "I_minus_R.ppm"):
            img = read_ppm(out / name)
            assert img.shape == (1, 3, 32, 32)
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_infer_pads_odd_sizes(self, trained_run, tmp_path):
        root, data, run = trained_run
        rng = np.random.Generator(np.random.PCG64(3))
        odd = rng.uniform(0, 1, size=(3, 30, 45)).astype(np.float32)
        write_ppm(tmp_path / "odd.ppm", odd)
        out = tmp_path / "inf_odd"
        assert main(["infer", "--ckpt", str(run / "final.bin"),
                     "--input", str(tmp_path / "odd.ppm"), "--out", str(out)]) == EXIT_OK
        assert read_ppm(out / "T_hat.ppm").shape == (1, 3, 30, 45)

    def test_infer_and_inspect_accept_a_one_line_commented_header(self, trained_run, tmp_path):
        _, data, run = trained_run
        standard = data / "I_0000.ppm"
        pixels = standard.read_bytes().split(b"\n", 3)[3]
        one_line = tmp_path / "one_line.ppm"
        one_line.write_bytes(b"P6 # by hand\n32 32 # size\n255\n" + pixels)
        for name, image in (("std", standard), ("one", one_line)):
            assert main(["infer", "--ckpt", str(run / "final.bin"), "--input", str(image),
                         "--out", str(tmp_path / name)]) == EXIT_OK
        assert (tmp_path / "std" / "T_hat.ppm").read_bytes() == (tmp_path / "one" / "T_hat.ppm").read_bytes()
        assert main(["inspect-mask", "--ckpt", str(run / "final.bin"), "--input", str(one_line),
                     "--out", str(tmp_path / "masks")]) == EXIT_OK

    @pytest.mark.parametrize("header", [b"P6 99999 99999 255\n", b"P6 9999999999 9999999999 255\n",
                                        b"P6 0 4 255\n", b"P6 4 0 255\n"])
    def test_infer_rejects_a_size_the_file_cannot_hold(self, trained_run, tmp_path, capsys, header):
        _, _, run = trained_run
        image, out = tmp_path / "big.ppm", tmp_path / "out"
        image.write_bytes(header + bytes(5))  # 24 bytes in all for the first header
        assert main(["infer", "--ckpt", str(run / "final.bin"), "--input", str(image),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert f"read_ppm: {image}" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_writes_report(self, trained_run, tmp_path):
        root, data, run = trained_run
        out = tmp_path / "rep"
        code = main(["eval", "--ckpt", str(run / "final.bin"),
                     "--data", str(data / "manifest.tsv"), "--out", str(out)])
        assert code == EXIT_OK
        rows = open(out / "report.csv").read().strip().splitlines()
        assert rows[0] == "image,psnr,ssim,psnr_weak,psnr_strong,refl_det_psnr"
        assert len(rows) == 9
        assert (out / "img0000_mask.pgm").exists()
        assert (out / "img0000_panel.ppm").exists()

    def test_inspect_mask_writes_heatmaps(self, trained_run, tmp_path):
        root, data, run = trained_run
        out = tmp_path / "masks"
        code = main(["inspect-mask", "--ckpt", str(run / "final.bin"),
                     "--input", str(data / "I_0001.ppm"), "--out", str(out)])
        assert code == EXIT_OK
        names = sorted(os.listdir(out))
        assert names == [f"mask_l{lv}_{tag}.pgm" for lv in (1, 2, 3, 4) for tag in ("dec", "diff")]


@pytest.mark.parametrize("argv", [
    ["eval", "--ckpt", "{run}/final.bin", "--data", "{data}/manifest.tsv", "--out", "{out}", "--tau", "5"],
    ["infer", "--ckpt", "{run}/final.bin", "--input", "{data}/I_0000.ppm", "--out", "{out}",
     "--width-multiplier", "-3", "--phi", "7"],
    ["gradcheck", "--tau", "5"],
    ["params", "--rag-variant", "one_stage"],
    ["train", "--data", "{data}/manifest.tsv", "--out", "{out}", "--rag-variant", "one_stage"],
    ["train", "--data", "{data}/manifest.tsv", "--out", "{out}", "--lr", "-1"],
    ["train", "--data", "{data}/manifest.tsv", "--out", "{out}", "--adam-beta1", "2"],
    ["train", "--data", "{data}/manifest.tsv", "--out", "{out}", "--adam-eps", "0"],
    ["train", "--data", "{data}/manifest.tsv", "--out", "{out}", "--lr", "nan"],
    ["train", "--data", "{data}/manifest.tsv", "--out", "{out}", "--adam-beta2", "nan"],
    ["params", "--width-multiplier", "inf"],
    ["infer", "--ckpt", "{run}/final.bin", "--input", "{data}/I_0000.ppm", "--out", "{out}",
     "--width-multiplier", "inf"],
    ["train", "--data", "{data}/manifest.tsv", "--out", "{out}", "--width-multiplier", "nan"],
    ["synth", "--n", "1", "--out", "{out}", "--patch-size", "0"],
    ["synth", "--n", "1", "--out", "{out}", "--patch-size", "-16"],
    ["synth", "--n", "1", "--out", "{out}", "--blur-sigma-lo", "-3", "--blur-sigma-hi", "-1"],
    ["synth", "--n", "1", "--out", "{out}", "--scale-hi", "inf"],
    ["synth", "--n", "1", "--out", "{out}", "--blur-sigma-hi", "inf"],
    ["synth", "--n", "1", "--out", "{out}", "--blend-mode", "overexpose", "--saturate-threshold", "nan"],
    ["train", "--data", "{data}/manifest.tsv", "--out", "{out}", "--adam-eps", "1e-300"],
    ["train", "--data", "{data}/manifest.tsv", "--out", "{out}", "--seed", "-5"],
    ["train", "--data", "{data}/manifest.tsv", "--out", "{out}", "--seed", str(1 << 64)],
    ["train", "--data", "{data}/manifest.tsv", "--out", "{out}", "--adam-eps", "1e300"],
    ["train", "--data", "{data}/manifest.tsv", "--out", "{out}", "--lr", "1e300"],
    ["train", "--data", "{data}/manifest.tsv", "--out", "{out}", "--lambda-percep", "1e300"],
    ["synth", "--n", "1", "--out", "{out}", "--width-multiplier", "400"],
    ["synth", "--n", "1", "--out", "{out}", "--width-multiplier", "1e300"],
    ["inspect-mask", "--ckpt", "{run}/final.bin", "--input", "{data}/I_0000.ppm", "--out", "{out}", "--tau", "2"],
], ids=["eval_tau", "infer_width_phi", "gradcheck_tau", "params_one_stage", "train_one_stage",
        "train_lr_negative", "train_beta1_2", "train_eps_0", "train_lr_nan", "train_beta2_nan",
        "params_width_inf", "infer_width_inf", "train_width_nan", "synth_patch_0", "synth_patch_negative",
        "synth_sigma_negative", "synth_scale_inf", "synth_sigma_inf", "synth_saturate_nan",
        "train_eps_float32_zero", "train_seed_negative", "train_seed_2_64", "train_eps_float32_inf",
        "train_lr_float32_inf", "train_lambda_percep_float32_inf", "synth_width_400", "synth_width_1e300",
        "inspect_mask_tau"])
def test_out_of_range_config_exits_2(argv, trained_run, tmp_path, capsys):
    # every command runs the range checks of every config dataclass before it touches a file
    _, data, run = trained_run
    out = tmp_path / "out"
    assert main([a.format(run=run, data=data, out=out) for a in argv]) == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


# values every config key is probed with: zero, signs, fractions, the
# non-finite floats, extremes, subnormals, text, the empty string, a boolean
# and an integer past 64 bits
CONFIG_PROBES = ["0", "-1", "1", "0.5", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "1e-45", "abc", "",
                 "true", "99999999999999999999"]


def test_every_config_key_accepts_or_rejects_each_probe_cleanly():
    # build_config either returns or raises ValueError, which main maps to
    # exit 2; it builds the config dataclasses, not a network.  The flags take
    # the --key=value form: argparse reads "--lr -1e-3" as two flags (exit 1).
    parser = cli.make_parser()
    escaped = []
    for key in CONFIG_KEYS:
        for value in CONFIG_PROBES:
            args = parser.parse_args(["params", f"--{key.replace('_', '-')}={value}"])
            try:
                cli.build_config(args)
            except ValueError:
                pass
            except Exception as e:  # any other exception escapes main
                escaped.append((key, value, repr(e)))
    assert len(CONFIG_KEYS) == 29
    assert escaped == []


def _below(v):
    return float(np.nextafter(v, -np.inf))


def _above(v):
    return float(np.nextafter(v, np.inf))


F32_INF = 2.0 ** 128 - 2.0 ** 103  # the least double that rounds to inf in float32
F32_ZERO = 2.0 ** -150  # the greatest positive double that rounds to 0 in float32
TINY = 5e-324  # the least positive double

# key -> (accepted, rejected) per documented bound, lower bound first: the
# value nearest the bound on each side, every other key at its default
CONFIG_BOUNDS = {
    "width_multiplier": [(1 / 64, _below(1 / 64)), (M.MAX_WIDTH, _above(M.MAX_WIDTH))],
    "seed": [(0, -1), ((1 << 64) - 1, 1 << 64)],
    "phi": [(_above(0.01), 0.01), (_below(1.0), 1.0)],  # above xi
    "xi": [(TINY, 0.0), (_below(0.3), 0.3)],  # below phi
    "tau": [(TINY, 0.0), (_below(1.0), 1.0)],
    **{f"lambda_{name}": [(0.0, _below(0.0)), (_below(F32_INF), F32_INF)]
       for name in ("rec", "percep", "excl", "adv", "mask")},
    **{key: [(_above(F32_ZERO), F32_ZERO), (_below(F32_INF), F32_INF)] for key in ("lr", "adam_eps")},
    **{key: [(0.0, _below(0.0)), (_below(1.0), 1.0)] for key in ("adam_beta1", "adam_beta2")},
    "phase1_epochs": [(0, -1)],
    "phase2_epochs": [(0, -1)],
    "batch_size": [(1, 0)],
    "blur_sigma_lo": [(0.0, _below(0.0)), (5.0, _above(5.0))],  # up to blur_sigma_hi
    "blur_sigma_hi": [(2.0, _below(2.0)), (32.0, _above(32.0))],  # from blur_sigma_lo up to patch_size
    "decay_lo": [(TINY, 0.0), (1.0, _above(1.0))],
    "decay_hi": [(0.6, _below(0.6)), (1.0, _above(1.0))],
    "patch_size": [(16, 15), (2048, 2064)],  # multiples of 16, at most MAX_SIDE / scale_hi
    "scale_lo": [(1.0, _below(1.0)), (2.0, _above(2.0))],
    "scale_hi": [(1.0, _below(1.0)), (128.0, _above(128.0))],  # up to MAX_SIDE / patch_size
    "saturate_threshold": [(TINY, 0.0), (float(np.finfo(np.float64).max), np.inf)],
}


def test_bounds_table_covers_every_numeric_key():
    assert set(CONFIG_KEYS) - set(CONFIG_BOUNDS) == {"rag_variant", "use_adversarial", "blend_mode",
                                                      "stop_gradient_r"}


@pytest.mark.parametrize("key, accepted, rejected", [
    (key, *pair) for key, pairs in CONFIG_BOUNDS.items() for pair in pairs
], ids=[f"{key}-{side}" for key, pairs in CONFIG_BOUNDS.items() for side in ("lower", "upper")[:len(pairs)]])
def test_each_side_of_every_documented_bound(key, accepted, rejected, capsys):
    flag = lambda v: f"--{key.replace('_', '-')}={v!r}"
    cli.build_config(cli.make_parser().parse_args(["params", flag(accepted)]))
    assert main(["params", flag(rejected)]) == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


def test_pre_crop_side_just_past_the_limit_is_printed_past_it(capsys):
    # 32 x the least double above 128 is 4096.000000000001, which ``:g`` would round to 4096
    assert main(["params", f"--scale-hi={_above(128.0)!r}"]) == EXIT_VALIDATION
    assert "= 4096.000000000001 exceeds the 4096 px limit" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["synth", "--n", "1"],
    ["train", "--data", "{data}/manifest.tsv"],
    ["infer", "--ckpt", "{run}/final.bin", "--input", "{data}/I_0000.ppm"],
])
@pytest.mark.parametrize("flags", [
    ["--blur-sigma-lo", "1e6", "--blur-sigma-hi", "1e6"],  # a blur wider than the patch
    ["--blur-sigma-hi", "33"],
    ["--scale-lo", "1e7", "--scale-hi", "1e7"],  # pre-crop sides past synthesis.MAX_SIDE
    ["--patch-size", "4096"],
    ["--patch-size", "2048", "--scale-hi", "1", "--blur-sigma-hi", "2048"],  # blur padding past MAX_SIDE
], ids=["sigma_1e6", "sigma_above_patch", "scale_1e7", "patch_4096_scale_2", "padded_blur"])
def test_finite_but_huge_synthesis_sizes_exit_2(command, flags, trained_run, tmp_path, capsys):
    # rejected by the range checks, before any array is sized from them
    _, data, run = trained_run
    out = tmp_path / "out"
    argv = [a.format(run=run, data=data) for a in command] + ["--out", str(out)] + flags
    assert main(argv) == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_largest_synthesis_sizes_are_accepted():
    SynthesisParams(patch_size=2048, blur_sigma_range=(2.0, 340.0))
    SynthesisParams(patch_size=16, blur_sigma_range=(16.0, 16.0), scale_range=(256.0, 256.0))


def test_checkpoint_with_unknown_variant_exits_2(tmp_path, capsys):
    ckpt, img = tmp_path / "bad.bin", tmp_path / "img.ppm"
    tensors = TrainerState(TrainConfig(model=ModelConfig(width_multiplier=1 / 16))).to_tensors()
    tensors["meta/variant"] = np.array([9.0], dtype=np.float32)
    save_checkpoint(tensors, ckpt)  # a valid CRC over an out-of-range variant index
    write_ppm(img, np.zeros((3, 16, 16), dtype=np.float32))
    with pytest.raises(ValueError, match="variant index 9"):
        model_config_from_checkpoint(ckpt, TR.load_checkpoint(ckpt))
    assert main(["infer", "--ckpt", str(ckpt), "--input", str(img), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert "variant index 9" in capsys.readouterr().err


def test_checkpoint_with_misshapen_metadata_exits_2(tmp_path, capsys):
    ckpt, img = tmp_path / "bad.bin", tmp_path / "img.ppm"
    tensors = TrainerState(TrainConfig(model=ModelConfig(width_multiplier=1 / 16))).to_tensors()
    tensors["meta/seed"] = np.array([1.0], dtype=np.float32)  # the seed is stored as four limbs
    save_checkpoint(tensors, ckpt)
    write_ppm(img, np.zeros((3, 16, 16), dtype=np.float32))
    with pytest.raises(ValueError, match="meta/seed has shape"):
        model_config_from_checkpoint(ckpt, TR.load_checkpoint(ckpt))
    assert main(["infer", "--ckpt", str(ckpt), "--input", str(img), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert "meta/seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["infer", "eval", "inspect-mask"])
def test_checkpoint_with_a_non_finite_weight_exits_2(command, tiny_data, tmp_path, capsys):
    ckpt, out = tmp_path / "nan.bin", tmp_path / "out"
    tensors = TrainerState(TrainConfig(model=ModelConfig(width_multiplier=1 / 16))).to_tensors()
    tensors["model/g_t/dec/head/c1/weight"][0, 0, 0, 0] = np.nan
    save_checkpoint(tensors, ckpt)  # a valid CRC over a NaN weight
    source = ["--data", str(tiny_data / "manifest.tsv")] if command == "eval" else \
        ["--input", str(tiny_data / "I_0000.ppm")]
    assert main([command, "--ckpt", str(ckpt), *source, "--out", str(out)]) == EXIT_VALIDATION
    assert "tensor model/g_t/dec/head/c1/weight holds a non-finite value" in capsys.readouterr().err
    assert not out.exists()


def test_load_models_parses_the_checkpoint_once(tmp_path, monkeypatch):
    ckpt = tmp_path / "model.bin"
    saved = TrainerState(TrainConfig(model=ModelConfig(width_multiplier=1 / 16, seed=5)))
    saved.save(ckpt)
    calls = []
    load = TR.load_checkpoint
    monkeypatch.setattr(TR, "load_checkpoint", lambda path: calls.append(path) or load(path))
    state = cli.load_models(ckpt)
    assert calls == [ckpt]
    assert state.nets["g_t"].config == saved.config.model
    assert set(state.nets) == {"g_r", "g_t"}
    assert not any(hasattr(state, name) for name in ("adam", "percep"))
    a, b = saved.to_tensors(), TR.weight_tensors(state.nets)
    assert sorted(b) == sorted(k for k in a if k.startswith(("model/g_r/", "model/g_t/")))
    assert all(a[k].tobytes() == b[k].tobytes() for k in b)


def test_load_models_builds_a_width_that_float32_rounds(tmp_path):
    # 2.5/64 + 1e-12 would build round(2.50000000006) = 3 channels at base 64, while the
    # checkpoint stores the float32 width 0.0390625, which builds round(2.5) = 2
    ckpt = tmp_path / "model.bin"
    saved = TrainerState(TrainConfig(model=ModelConfig(width_multiplier=2.5 / 64 + 1e-12, seed=2)))
    saved.save(ckpt)
    state = cli.load_models(ckpt)
    a, b = saved.to_tensors(), TR.weight_tensors(state.nets)
    assert sorted(b) == sorted(k for k in a if k.startswith(("model/g_r/", "model/g_t/")))
    assert all(a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes() for k in b)


def test_inference_peaks_below_eight_and_a_half_level1_merge_maps():
    # a level-1 merge map is the float32 (1, 2*c1, H, W) tensor the guided merge
    # convolves: each mask and each temporary of the merge is held once; the
    # decoder pops each feature it reads and hands F_I and F_dec to the merge
    # without keeping them, and partial_conv drops its input once f o m is made
    state = TrainerState(TrainConfig(model=ModelConfig(width_multiplier=0.125)))
    img = np.random.Generator(np.random.PCG64(7)).uniform(0, 1, (1, 3, 256, 256)).astype(np.float32)
    merge_map = 2 * state.config.model.scaled(64) * 256 * 256 * 4
    gc.collect()
    tracemalloc.start()
    try:
        cli.infer_image(state, img)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.5 * merge_map


@pytest.mark.parametrize("key,value", [("overexpose_boost", "0.5"), ("rec_normalize", "false"),
                                       ("mask_normalize", "false")])
def test_overexpose_boost_is_no_key(tmp_path, capsys, key, value):
    """Deleted keys: neither a flag nor a config-file key accepts them."""
    assert key not in CONFIG_KEYS
    out = tmp_path / "out"
    assert main(["synth", "--n", "1", "--out", str(out), "--" + key.replace("_", "-"), value]) == EXIT_USAGE
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{key} = {value}\n")
    assert main(["synth", "--n", "1", "--out", str(out), "--config", str(cfgfile)]) == EXIT_VALIDATION
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("variants") / "data"
    assert main(["synth", "--n", "4", "--seed", "1", "--patch-size", "16", "--out", str(data)]) == EXIT_OK
    return data


@pytest.mark.parametrize("variant", RAG_VARIANTS)
def test_every_variant_runs_end_to_end(variant, tiny_data, tmp_path):
    manifest, image, ckpt = str(tiny_data / "manifest.tsv"), str(tiny_data / "I_0000.ppm"), str(tmp_path / "final.bin")
    assert main(["train", "--data", manifest, "--out", str(tmp_path), "--rag-variant", variant,
                 "--width-multiplier", "0.0625", "--patch-size", "16", "--phase1-epochs", "1",
                 "--phase2-epochs", "1", "--seed", "1"]) == EXIT_OK
    assert main(["eval", "--ckpt", ckpt, "--data", manifest, "--out", str(tmp_path / "rep")]) == EXIT_OK
    assert len(open(tmp_path / "rep" / "report.csv").read().strip().splitlines()) == 1 + 4
    assert main(["infer", "--ckpt", ckpt, "--input", image, "--out", str(tmp_path / "inf")]) == EXIT_OK
    assert read_ppm(tmp_path / "inf" / "T_hat.ppm").shape == (1, 3, 16, 16)
    assert main(["inspect-mask", "--ckpt", ckpt, "--input", image, "--out", str(tmp_path / "masks")]) == EXIT_OK
    assert len(list((tmp_path / "masks").glob("*.pgm"))) == (0 if variant == "no_mask" else 8)



def test_eval_splits_the_regions_at_tau_in_float64(tiny_data, tmp_path, monkeypatch):
    # a level-1 M_diff mean of float32(0.40) lies above tau = 0.40 in float64,
    # but not above tau rounded to float32
    manifest = tiny_data / "manifest.tsv"
    m = np.zeros((1, 2, 16, 16), dtype=np.float32)
    m[0, 0, :, :8] = np.float32(0.40)
    t_hat = np.full((1, 3, 16, 16), 0.5, dtype=np.float32)
    monkeypatch.setattr(cli, "load_models", lambda path: None)
    monkeypatch.setattr(cli, "infer_image", lambda state, img: (img, t_hat, [T.Tensor(m)], (0, 0)))
    assert main(["eval", "--ckpt", str(manifest), "--data", str(manifest), "--out", str(tmp_path)]) == EXIT_OK
    row = (tmp_path / "report.csv").read_text().splitlines()[1].split(",")
    t_gt = S.load_triple(S.read_manifest(manifest)[0]).t
    weak = np.zeros((16, 16), dtype=bool)
    weak[:, :8] = True
    assert row[3:5] == [f"{ME.region_psnr(t_hat, t_gt, weak):.6f}", f"{ME.region_psnr(t_hat, t_gt, ~weak):.6f}"]


def test_eval_no_mask_checkpoint_reports_na(tmp_path):
    data, run, out = tmp_path / "data", tmp_path / "run", tmp_path / "rep"
    assert main(["synth", "--n", "2", "--seed", "1", "--patch-size", "16", "--out", str(data)]) == EXIT_OK
    assert main(["train", "--data", str(data / "manifest.tsv"), "--out", str(run), "--rag-variant", "no_mask",
                 "--width-multiplier", "0.0625", "--patch-size", "16", "--phase1-epochs", "1",
                 "--phase2-epochs", "1", "--seed", "1"]) == EXIT_OK
    assert main(["eval", "--ckpt", str(run / "final.bin"), "--data", str(data / "manifest.tsv"),
                 "--out", str(out)]) == EXIT_OK
    rows = [r.split(",") for r in open(out / "report.csv").read().strip().splitlines()[1:]]
    assert len(rows) == 2
    assert all(r[3] == "n/a" and r[4] == "n/a" and r[1] != "n/a" for r in rows)
    assert not list(out.glob("*_mask.pgm"))
    assert (out / "img0000_panel.ppm").exists()


def _train_tiny(data, out, *flags):
    return main(["train", "--data", str(data / "manifest.tsv"), "--out", str(out), "--width-multiplier", "0.0625",
                 "--patch-size", "16", "--phase1-epochs", "1", "--seed", "1", *flags])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the adversarial gradient overflows, on purpose
def test_train_stops_at_a_non_finite_gradient_before_writing_it(tiny_data, tmp_path, capsys):
    # the phase-2 loss is finite in float32, but its gradient is not
    out = tmp_path / "run"
    assert _train_tiny(tiny_data, out, "--phase2-epochs", "1", "--lambda-adv", "3e38") == EXIT_VALIDATION
    last = out / "ckpt_p1_e001.bin"
    assert (f"error: non-finite gradient norm of g_r at iteration 2; last good checkpoint: {last}\n"
            in capsys.readouterr().err)
    assert sorted(p.name for p in out.glob("*.bin")) == [last.name]
    assert all(np.isfinite(a).all() for a in TR.load_checkpoint(last).values())


@pytest.fixture(scope="module")
def tiny_run(tiny_data, tmp_path_factory):
    """``_train_tiny`` over one epoch per phase: its ckpt_p1_e001.bin and final.bin."""
    run = tmp_path_factory.mktemp("tiny_run")
    assert _train_tiny(tiny_data, run, "--phase2-epochs", "1") == EXIT_OK
    return run


def _with_one_nan(src, dst, name):
    """Write checkpoint *src* to *dst* with one NaN in tensor *name*, under a valid CRC."""
    tensors = dict(TR.load_checkpoint(src))
    tensors[name] = tensors[name].copy()
    tensors[name].reshape(-1)[0] = np.nan
    save_checkpoint(tensors, dst)


def test_resume_from_a_nan_adam_moment_exits_2_before_making_out(tiny_data, tiny_run, tmp_path, capsys):
    ckpt, out, name = tmp_path / "nan.bin", tmp_path / "resumed", "adam/g_r/dec/head/c0/bias/m"
    _with_one_nan(tiny_run / "ckpt_p1_e001.bin", ckpt, name)
    assert _train_tiny(tiny_data, out, "--phase2-epochs", "1", "--resume", str(ckpt)) == EXIT_VALIDATION
    assert f"error: checkpoint {ckpt}: tensor {name} holds a non-finite value\n" in capsys.readouterr().err
    assert not out.exists()


def test_resume_of_a_nan_weight_final_with_no_epochs_left_exits_2(tiny_data, tiny_run, tmp_path, capsys):
    ckpt, out, name = tmp_path / "nan.bin", tmp_path / "resumed", "model/g_t/dec/head/c1/weight"
    _with_one_nan(tiny_run / "final.bin", ckpt, name)
    assert _train_tiny(tiny_data, out, "--phase2-epochs", "1", "--resume", str(ckpt)) == EXIT_VALIDATION
    assert f"error: checkpoint {ckpt}: tensor {name} holds a non-finite value\n" in capsys.readouterr().err
    assert not (out / "final.bin").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the adversarial gradient overflows, on purpose
def test_a_resumed_run_that_diverges_names_the_checkpoint_it_resumed_from(tiny_data, tiny_run, tmp_path, capsys):
    ckpt, out = tiny_run / "ckpt_p1_e001.bin", tmp_path / "resumed"
    assert _train_tiny(tiny_data, out, "--phase2-epochs", "1", "--lambda-adv", "3e38",
                       "--resume", str(ckpt)) == EXIT_VALIDATION
    assert (f"error: non-finite gradient norm of g_r at iteration 2; last good checkpoint: {ckpt}\n"
            in capsys.readouterr().err)
    assert not list(out.glob("*.bin"))


@pytest.mark.parametrize("field, trained, flags", [
    ("variant", [], ["--rag-variant", "no_diff"]),
    ("use_adversarial", [], ["--use-adversarial", "false"]),
    ("seed", [], ["--seed", "9"]),
    ("width_multiplier", [], ["--width-multiplier", "0.125"]),
    ("use_adversarial", ["--use-adversarial", "false"], ["--use-adversarial", "true"]),  # the run adds a critic
], ids=["variant", "use_adversarial", "seed", "width_multiplier", "use_adversarial_on"])
def test_resume_with_another_model_exits_2(field, trained, flags, tiny_data, tmp_path, capsys):
    assert _train_tiny(tiny_data, tmp_path / "run", "--phase2-epochs", "2", *trained) == EXIT_OK
    out = tmp_path / "resumed"
    ckpt = tmp_path / "run" / "ckpt_p2_e001.bin"
    assert _train_tiny(tiny_data, out, "--phase2-epochs", "2", "--resume", str(ckpt), *flags) == EXIT_VALIDATION
    assert f"error: checkpoint {ckpt}: its model differs from this run's in {field}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, name, value", [
    ("infer", "meta/seed", np.inf), ("infer", "meta/seed", 0.5), ("infer", "meta/variant", np.inf),
    ("infer", "meta/variant", 2.5), ("infer", "meta/use_adversarial", 0.5),
    ("train", "adam/g_r/step", np.inf), ("train", "meta/global_iter", np.inf), ("train", "meta/phase1_done", -1.0)])
def test_checkpoint_with_a_corrupt_integer_exits_2(command, name, value, tiny_data, tmp_path, capsys):
    ckpt, out = tmp_path / "bad.bin", tmp_path / "out"
    tensors = TrainerState(TrainConfig(model=ModelConfig(width_multiplier=1 / 16, seed=1))).to_tensors()
    tensors[name] = np.full_like(tensors[name], value)
    save_checkpoint(tensors, ckpt)  # a valid CRC over the corrupt value
    if command == "train":  # the state matches the run's model, so only the corrupt value can stop it
        code = _train_tiny(tiny_data, out, "--phase2-epochs", "1", "--resume", str(ckpt))
    else:
        code = main(["infer", "--ckpt", str(ckpt), "--input", str(tiny_data / "I_0000.ppm"), "--out", str(out)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {ckpt}: ") and name in err
    assert not out.exists()


def test_run_without_adversarial_term(tiny_data, tmp_path):
    run = tmp_path / "run"
    assert _train_tiny(tiny_data, run, "--phase2-epochs", "1", "--use-adversarial", "false") == EXIT_OK
    ckpt = TR.load_checkpoint(run / "final.bin")
    assert not [name for name in ckpt if name.startswith(("model/disc/", "adam/disc/"))]
    assert any(name.startswith("model/g_t/") for name in ckpt)
    rows = [r.split(",") for r in open(run / "train_log.csv").read().splitlines()]
    assert rows[0][5] == "adv" and len(rows) > 1
    assert all(float(r[5]) == 0.0 for r in rows[1:])
    assert main(["eval", "--ckpt", str(run / "final.bin"), "--data", str(tiny_data / "manifest.tsv"),
                 "--out", str(tmp_path / "rep")]) == EXIT_OK
    assert main(["infer", "--ckpt", str(run / "final.bin"), "--input", str(tiny_data / "I_0000.ppm"),
                 "--out", str(tmp_path / "inf")]) == EXIT_OK


def _inference_outputs(state, img) -> list[np.ndarray]:
    r_np, t_np, masks, _ = cli.infer_image(state, img)
    return [r_np, t_np, *(m.data for m in masks)]


@pytest.mark.parametrize("variant", ["full", "no_mask", "two_channel_mask", "trained_without_adversarial"])
def test_load_models_infers_the_bytes_of_a_full_state(variant, tiny_data, tmp_path):
    if variant == "trained_without_adversarial":
        assert _train_tiny(tiny_data, tmp_path, "--phase2-epochs", "1", "--use-adversarial", "false") == EXIT_OK
        ckpt = tmp_path / "final.bin"
    else:
        ckpt = tmp_path / "model.bin"
        TrainerState(TrainConfig(model=ModelConfig(width_multiplier=1 / 16, rag_variant=variant, seed=3))).save(ckpt)
    full = TrainerState(TrainConfig(model=model_config_from_checkpoint(ckpt, TR.load_checkpoint(ckpt))),
                        draw_init=False)
    full.load(ckpt)
    img = np.random.Generator(np.random.PCG64(4)).uniform(0, 1, (1, 3, 20, 27)).astype(np.float32)
    got, want = _inference_outputs(cli.load_models(ckpt), img), _inference_outputs(full, img)
    assert len(got) == len(want) == (2 if variant == "no_mask" else 2 + 4)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("fault", ["missing", "misshapen"])
@pytest.mark.parametrize("command", ["infer", "eval", "inspect-mask"])
def test_checkpoint_with_a_bad_g_t_tensor_exits_2(command, fault, tiny_data, tmp_path, capsys):
    ckpt, out = tmp_path / "bad.bin", tmp_path / "out"
    tensors = TrainerState(TrainConfig(model=ModelConfig(width_multiplier=1 / 16))).to_tensors()
    name = next(k for k in sorted(tensors) if k.startswith("model/g_t/"))
    if fault == "missing":
        del tensors[name]
    else:
        tensors[name] = np.zeros(tensors[name].shape + (1,), dtype=np.float32)
    save_checkpoint(tensors, ckpt)  # a valid CRC over the faulty table
    source = ["--data", str(tiny_data / "manifest.tsv")] if command == "eval" else \
        ["--input", str(tiny_data / "I_0000.ppm")]
    assert main([command, "--ckpt", str(ckpt), *source, "--out", str(out)]) == EXIT_VALIDATION
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_load_models_builds_only_the_generators(tmp_path, monkeypatch):
    ckpt = tmp_path / "model.bin"
    TrainerState(TrainConfig(model=ModelConfig(width_multiplier=1 / 16, use_adversarial=True))).save(ckpt)
    kinds, adams = [], []
    build, adam_init = M.build_network, TR.AdamState.__init__
    for module in (M, TR):  # each module that calls build_network holds its own name for it
        monkeypatch.setattr(module, "build_network", lambda kind, *a, **kw: kinds.append(kind) or build(kind, *a, **kw))
    monkeypatch.setattr(TR.AdamState, "__init__", lambda self, *a: adams.append(a) or adam_init(self, *a))
    state = cli.load_models(ckpt)
    assert sorted(kinds) == ["g_r", "g_t"] and adams == []
    # the spies see what a full state builds
    TrainerState(TrainConfig(model=state.nets["g_t"].config), draw_init=False)
    assert {"discriminator", "percep_extractor"} <= set(kinds) and len(adams) == 3


@pytest.mark.parametrize("manifest, phase", [("empty", 1), ("no_reflection", 1), ("empty_phase2_only", 2)])
def test_train_with_no_triple_to_draw_exits_2(manifest, phase, tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "run"
    assert main(["synth", "--n", "2", "--seed", "1", "--patch-size", "16", "--out", str(data)]) == EXIT_OK
    rows = open(data / "manifest.tsv").read().splitlines()
    with open(data / "manifest.tsv", "w") as f:  # has_r is the last column
        f.writelines(r.rsplit("\t", 1)[0] + "\t0\n" for r in rows if manifest == "no_reflection")
    flags = ["--phase1-epochs", "0"] if phase == 2 else []
    assert _train_tiny(data, out, "--phase2-epochs", "1", *flags) == EXIT_VALIDATION
    n_triples = 2 if manifest == "no_reflection" else 0
    assert (f"error: phase {phase} has epochs to run but no triple to draw: the manifest has "
            f"{n_triples} triples, 0 with a reflection layer\n") in capsys.readouterr().err
    assert not out.exists()


def _write_triples(data, sides):
    """A manifest of one seeded square triple per side in *sides*, written by hand,
    since ``synth`` makes one size, a multiple of 16."""
    data.mkdir()
    rng = np.random.Generator(np.random.PCG64(0))
    rows = []
    for k, side in enumerate(sides):
        names = [f"{layer}_{k:04d}.ppm" for layer in "ITR"]
        for name in names:
            write_ppm(data / name, rng.uniform(0, 1, (3, side, side)).astype(np.float32))
        rows.append("\t".join([str(k), *names, "linear_clip", str(k), "1"]) + "\n")
    (data / "manifest.tsv").write_text("".join(rows))


@pytest.mark.parametrize("sides, batch, message", [
    ((24, 24), "1", "I_0000.ppm: image sides 24x24 must be multiples of 16"),
    ((16, 32, 16, 32), "4", "batch size 4 stacks images of one size, but the manifest holds 16x16, 32x32 images"),
], ids=["side_not_a_multiple_of_16", "mixed_sizes_in_a_batch"])
def test_train_rejects_images_it_cannot_run_before_writing(sides, batch, message, tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "run"
    _write_triples(data, sides)
    assert _train_tiny(data, out, "--phase2-epochs", "1", "--batch-size", batch) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_train_mixes_sizes_at_batch_size_1(tmp_path):
    data = tmp_path / "data"
    _write_triples(data, (16, 32))
    assert _train_tiny(data, tmp_path / "run", "--phase2-epochs", "1", "--batch-size", "1") == EXIT_OK


def test_train_rejects_a_layer_shaped_unlike_its_observation_before_writing(tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "run"
    _write_triples(data, (16, 16))
    write_ppm(data / "T_0001.ppm", np.full((3, 32, 32), 0.5, np.float32))
    assert _train_tiny(data, out, "--phase2-epochs", "1", "--batch-size", "1") == EXIT_VALIDATION
    assert (f"{data / 'T_0001.ppm'}: shape (1, 3, 32, 32) differs from (1, 3, 16, 16), "
            f"the shape of {data / 'I_0001.ppm'}") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_malformed_manifest_row_exits_2_naming_file_and_line(command, tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "out"
    _write_triples(data, (16,))
    manifest = data / "manifest.tsv"
    with open(manifest, "a") as f:
        f.write("1\tI_0000.ppm\tT_0000.ppm\tR_0000.ppm\tlinear_clip\t1\n")  # six fields
    if command == "train":
        assert _train_tiny(data, out, "--phase2-epochs", "1") == EXIT_VALIDATION
    else:
        ckpt = tmp_path / "model.bin"
        TrainerState(TrainConfig(model=ModelConfig(width_multiplier=1 / 16))).save(ckpt)
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(manifest), "--out", str(out)]) == EXIT_VALIDATION
    assert f"error: {manifest}, line 2: expected 7 tab-separated fields, got 6\n" in capsys.readouterr().err
    assert not out.exists()
