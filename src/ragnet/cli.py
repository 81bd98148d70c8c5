"""Command-line interface: synthesis, training, inference, evaluation, checks.

Configuration is a flat key=value table.  Values come from the defaults of
the config dataclasses (the published ones wherever the source material
states a value: thresholds phi=0.3, xi=0.01, tau=0.40, loss weights
1/1/0.2/0.01/1, Adam betas 0.9/0.999, lr=1e-4), optionally overridden by a
``--config`` file of ``key = value`` lines (``#`` comments), then by
``--key value`` flags.  Unknown keys are rejected.  ``main`` reads, types
and range-checks every key once, for every command, before the command
touches a file: a bad value exits 2 with nothing written.

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

import ragnet.tensor as T
from ragnet import losses as L
from ragnet import metrics as ME
from ragnet import model as M
from ragnet import synthesis as S
from ragnet import trainer as TR
from ragnet.gradcheck import run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_IO = 3

_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_bool(s: str) -> bool:
    try:
        return _BOOL[str(s).strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean (true/false), got {s!r}")


# key -> (dataclass, field, help); a ``*_lo``/``*_hi`` key is one end of a
# ``*_range`` tuple field, and each ``*_lo`` key precedes its ``*_hi`` key.
CONFIG_FIELDS: dict[str, tuple[type, str, str]] = {
    "width_multiplier": (M.ModelConfig, "width_multiplier", "channel-width scale; 1.0 = published widths"),
    "rag_variant": (M.ModelConfig, "rag_variant", f"decoder variant, one of {'/'.join(M.RAG_VARIANTS)}"),
    "use_adversarial": (M.ModelConfig, "use_adversarial", "enable the adversarial term and critic training"),
    "seed": (M.ModelConfig, "seed", "master seed; all randomness derives from it"),
    "phi": (L.MaskLossThresholds, "phi", "heavy-reflection threshold of the mask loss"),
    "xi": (L.MaskLossThresholds, "xi", "near-clean threshold of the mask loss"),
    "tau": (L.MaskLossThresholds, "tau", "weak/strong split threshold for region-weighted PSNR"),
    "lambda_rec": (L.LossWeights, "rec", "reconstruction loss weight"),
    "lambda_percep": (L.LossWeights, "percep", "perceptual loss weight"),
    "lambda_excl": (L.LossWeights, "excl", "exclusion loss weight"),
    "lambda_adv": (L.LossWeights, "adv", "adversarial loss weight"),
    "lambda_mask": (L.LossWeights, "mask", "mask loss weight"),
    "lr": (TR.AdamConfig, "lr", "Adam learning rate (fixed)"),
    "adam_beta1": (TR.AdamConfig, "beta1", "Adam first-moment decay"),
    "adam_beta2": (TR.AdamConfig, "beta2", "Adam second-moment decay"),
    "adam_eps": (TR.AdamConfig, "eps", "Adam denominator epsilon"),
    "phase1_epochs": (TR.Schedule, "phase1_epochs",
                      "reflection-pretraining epochs (desk default; published protocol: 50)"),
    "phase2_epochs": (TR.Schedule, "phase2_epochs", "joint-training epochs (desk default; published protocol: 100)"),
    "batch_size": (TR.Schedule, "batch_size", "training batch size"),
    "blur_sigma_lo": (S.SynthesisParams, "blur_sigma_range", "reflection blur sigma, lower bound (pixels)"),
    "blur_sigma_hi": (S.SynthesisParams, "blur_sigma_range", "reflection blur sigma, upper bound (pixels)"),
    "decay_lo": (S.SynthesisParams, "decay_range", "reflection intensity decay, lower bound"),
    "decay_hi": (S.SynthesisParams, "decay_range", "reflection intensity decay, upper bound"),
    "blend_mode": (S.SynthesisParams, "blend_mode",
                   "synthesis blend: linear_clip, I = clamp01(T+R); or overexpose, which also sets to 1 "
                   "every pixel whose channel-mean T+R exceeds saturate_threshold"),
    "patch_size": (S.SynthesisParams, "patch_size", "synthesized patch size (desk default; published protocol: 224)"),
    "scale_lo": (S.SynthesisParams, "scale_range", "pre-crop scale range lower bound (x patch_size)"),
    "scale_hi": (S.SynthesisParams, "scale_range", "pre-crop scale range upper bound (x patch_size)"),
    "saturate_threshold": (S.SynthesisParams, "saturate_threshold", "mean T+R level that hard-saturates a pixel"),
    "stop_gradient_r": (TR.TrainConfig, "stop_gradient_r",
                        "block joint-phase gradients through the reflection estimate"),
}


def _key_spec(key: str, owner: type, name: str, help_text: str) -> tuple[object, object, str]:
    default = next(f.default for f in dataclasses.fields(owner) if f.name == name)
    if isinstance(default, tuple):
        default = default[1 if key.endswith("_hi") else 0]
    return default, _parse_bool if isinstance(default, bool) else type(default), help_text


# key -> (default, parser, help), read off the dataclass fields
CONFIG_KEYS = {key: _key_spec(key, *spec) for key, spec in CONFIG_FIELDS.items()}


def _build(cls, values: dict[str, object], **extra):
    """An instance of *cls* from the *values* of the keys mapped to its fields, plus *extra*."""
    kw = dict(extra)
    for key, (owner, name, _) in CONFIG_FIELDS.items():
        if owner is cls:
            # a *_lo key starts its range tuple and the *_hi key completes it
            kw[name] = kw.get(name, ()) + (values[key],) if key.endswith(("_lo", "_hi")) else values[key]
    return cls(**kw)


def parse_config_file(path) -> dict[str, str]:
    """The ``key = value`` lines of *path*; a key given twice raises ``ValueError`` naming both lines."""
    values: dict[str, str] = {}
    linenos: dict[str, int] = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key in linenos:
                raise ValueError(f"{path}:{lineno}: key {key} is given again (first on line {linenos[key]})")
            values[key], linenos[key] = val, lineno
    return values


def build_config(args: argparse.Namespace) -> tuple[TR.TrainConfig, S.SynthesisParams]:
    """The run's training and synthesis configuration, typed and range-checked."""
    raw: dict[str, str] = parse_config_file(args.config) if args.config else {}
    raw.update({key: getattr(args, key) for key in CONFIG_KEYS if getattr(args, key) is not None})
    values = {key: default for key, (default, _, _) in CONFIG_KEYS.items()}
    for key, val in raw.items():
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown config keys: {key}")
        try:
            values[key] = CONFIG_KEYS[key][1](val)
        except ValueError as e:
            raise ValueError(f"config key {key}: {e}")
    build = lambda cls, **extra: _build(cls, values, **extra)
    train = build(TR.TrainConfig, model=build(M.ModelConfig), schedule=build(TR.Schedule),
                  weights=build(L.LossWeights), thresholds=build(L.MaskLossThresholds), adam=build(TR.AdamConfig))
    return train, build(S.SynthesisParams, seed=values["seed"])


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the CLI contract says 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def make_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="ragnet", description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="materialize a synthetic dataset")
    sp.add_argument("--n", type=int, required=True, help="number of triples")
    sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("train", help="run the two-phase training protocol")
    sp.add_argument("--data", required=True, help="dataset manifest path")
    sp.add_argument("--out", required=True, help="run directory for checkpoints and logs")
    sp.add_argument("--resume", help="checkpoint to resume from")

    sp = sub.add_parser("infer", help="remove reflections from one image")
    sp.add_argument("--ckpt", required=True, help="trained checkpoint")
    sp.add_argument("--input", required=True, help="input PPM image")
    sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("eval", help="evaluate a checkpoint over a manifest")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--data", required=True, help="dataset manifest path")
    sp.add_argument("--out", required=True, help="report directory")

    sub.add_parser("gradcheck", help="run the finite-difference verification suite")

    sp = sub.add_parser("inspect-mask", help="write guidance-mask heatmaps for one image")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--input", required=True, help="input PPM image")
    sp.add_argument("--out", required=True)
    sp.add_argument("--per-channel", action="store_true", help="tile every mask channel (default: channel mean)")

    sub.add_parser("params", help="print parameter counts per network")

    # every command takes the whole config table, after its own arguments
    for sp in sub.choices.values():
        sp.add_argument("--config", metavar="FILE", help="key = value configuration file")
        for key, (default, _, help_text) in CONFIG_KEYS.items():
            sp.add_argument(f"--{key.replace('_', '-')}", dest=key, metavar="V",
                            help=f"{help_text} (default {default})")
    return p


# ---------------------------------------------------------------------------
# inference plumbing shared by infer / eval / inspect-mask: inference runs
# G_R and G_T only, so it loads neither the discriminator, the perceptual
# net nor the Adam moments that a checkpoint also holds

@dataclasses.dataclass
class InferenceState:
    """The two generators of a checkpoint; each ``Network`` holds its ``ModelConfig``."""
    nets: dict[str, M.Network]


def load_models(ckpt_path) -> InferenceState:
    """G_R and G_T from checkpoint *ckpt_path*, parsed once and checked.

    The file's CRC, layout and ``meta/*`` entries are validated, and
    ``TR.restore`` fills the networks, built without their He init, from the
    ``model/g_r/*`` and ``model/g_t/*`` entries: each must exist with its
    network's shape and hold only finite values (``ValueError`` naming the
    tensor otherwise).  The other payloads are read but never copied.
    """
    loaded = TR.load_checkpoint(ckpt_path)
    config = TR.model_config_from_checkpoint(ckpt_path, loaded)
    nets = {name: M.build_network(name, config, draw_init=False) for name in ("g_r", "g_t")}
    TR.restore(ckpt_path, loaded, TR.weight_tensors(nets))
    return InferenceState(nets)


def infer_image(state: InferenceState | TR.TrainerState, img: np.ndarray):
    """Forward both stages on an NCHW image of any size, reflect-padded to multiples of ``M.SIDE_MULTIPLE``."""
    padded, pads = M.pad_to_multiple(img.astype(np.float32))
    i_t = T.Tensor(padded)
    r_hat = M.forward_gr(state.nets["g_r"], i_t)
    t_hat, masks = M.forward_gt(state.nets["g_t"], i_t, r_hat)
    r_np = M.crop_padding(r_hat.data, pads)
    t_np = M.crop_padding(t_hat.data, pads)
    return r_np, t_np, masks, pads


def _infer_input(args) -> tuple[np.ndarray, tuple]:
    """The ``--input`` image and ``infer_image``'s outputs on it under ``--ckpt``; ``--out`` is made."""
    if not os.path.exists(args.ckpt):
        raise OSError(f"checkpoint not found: {args.ckpt}")
    state = load_models(args.ckpt)
    img = S.read_ppm(args.input)
    outputs = infer_image(state, img)
    os.makedirs(args.out, exist_ok=True)
    return img, outputs


def cmd_synth(args, train: TR.TrainConfig, synth: S.SynthesisParams) -> int:
    manifest = S.make_dataset(args.n, synth, args.out)
    print(f"wrote {args.n} triples; manifest: {manifest}")
    return EXIT_OK


def cmd_train(args, train: TR.TrainConfig, synth: S.SynthesisParams) -> int:
    if not os.path.exists(args.data):
        raise OSError(f"dataset manifest not found: {args.data}")
    final, log = TR.train(train, args.data, args.out, resume_from=args.resume)
    print(f"final checkpoint: {final}")
    print(f"training log: {log}")
    return EXIT_OK


def cmd_infer(args, train: TR.TrainConfig, synth: S.SynthesisParams) -> int:
    img, (r_np, t_np, _, _) = _infer_input(args)
    S.write_ppm(os.path.join(args.out, "R_hat.ppm"), r_np)
    S.write_ppm(os.path.join(args.out, "T_hat.ppm"), t_np)
    S.write_ppm(os.path.join(args.out, "I_minus_R.ppm"), np.clip(img - r_np, 0.0, 1.0))
    print(f"wrote R_hat.ppm, T_hat.ppm, I_minus_R.ppm under {args.out}")
    return EXIT_OK


def cmd_eval(args, train: TR.TrainConfig, synth: S.SynthesisParams) -> int:
    for path in (args.ckpt, args.data):
        if not os.path.exists(path):
            raise OSError(f"input not found: {path}")
    state = load_models(args.ckpt)
    entries = S.read_manifest(args.data)

    def eval_one(entry):
        """Score one triple and write its mask and panel; the result keeps only the CSV values."""
        tr = S.load_triple(entry)
        r_np, t_np, masks, pads = infer_image(state, tr.i)
        mask_mean = weak = strong = None
        if masks:  # the no_mask variant has no level-1 mask to split the image by
            m = masks[0].data
            mask_mean = M.crop_padding(m[:, :m.shape[1] // 2], pads)[0].mean(axis=0)
            weak_region = mask_mean.astype(np.float64) > train.thresholds.tau  # tau is not rounded to float32
            weak = ME.region_psnr(t_np, tr.t, weak_region)
            strong = ME.region_psnr(t_np, tr.t, ~weak_region)
        result = ME.ImageResult(
            name=f"img{entry.index:04d}",
            psnr=ME.psnr(t_np, tr.t),
            ssim=ME.ssim(t_np, tr.t),
            psnr_weak=weak,
            psnr_strong=strong,
            refl_det_psnr=ME.reflection_detection_psnr(r_np, tr.i, tr.t),
            mask=mask_mean,
            panel=ME.make_panel(tr.i, r_np, t_np))
        ME.emit_image_files(result, args.out)
        return dataclasses.replace(result, mask=None, panel=None)

    results = [eval_one(entry) for entry in entries]
    files = ME.emit_report(results, args.out)
    finite = [r.psnr for r in results if np.isfinite(r.psnr)]
    if finite:
        print(f"mean PSNR {np.mean(finite):.3f} dB over {len(finite)} of {len(results)} images")
    print(f"report: {files[0]}")
    return EXIT_OK


def cmd_gradcheck(args, train: TR.TrainConfig, synth: S.SynthesisParams) -> int:
    results = run_suite()
    width = max(len(r.name) for r in results)
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(f"{status:4s} {r.name:{width}s} max rel err {r.max_rel_error:.3e} (tol {r.tolerance:g})")
    if all(r.passed for r in results):
        print(f"all {len(results)} checks passed")
        return EXIT_OK
    print("gradient checks FAILED")
    return EXIT_VALIDATION


def cmd_inspect_mask(args, train: TR.TrainConfig, synth: S.SynthesisParams) -> int:
    img, (_, _, masks, _) = _infer_input(args)
    for level, m in enumerate(masks, 1):
        # level i holds the padded input at 1/2^(i-1): keep the ceil(side/2^(i-1)) over the input
        h, w = (-(-side // 2 ** (level - 1)) for side in img.shape[2:])
        maps = m.data[0, :, :h, :w]
        half = len(maps) // 2
        for tag, data in (("diff", maps[:half]), ("dec", maps[half:])):
            img2d = _tile_channels(data) if args.per_channel else data.mean(axis=0)
            path = os.path.join(args.out, f"mask_l{level}_{tag}.pgm")
            S.write_pgm(path, np.clip(img2d, 0.0, 1.0))
    print(f"wrote {2 * len(masks)} heatmaps under {args.out}")
    return EXIT_OK


def _tile_channels(data: np.ndarray) -> np.ndarray:
    c, h, w = data.shape
    cols = int(np.ceil(np.sqrt(c)))
    rows = int(np.ceil(c / cols))
    grid = np.zeros((rows * h, cols * w), dtype=data.dtype)
    for idx in range(c):
        r, col = divmod(idx, cols)
        grid[r * h:(r + 1) * h, col * w:(col + 1) * w] = data[idx]
    return grid


def cmd_params(args, train: TR.TrainConfig, synth: S.SynthesisParams) -> int:
    counts = {kind: M.count_params(M.build_network(kind, train.model, draw_init=False)) for kind in M.NETWORK_KINDS}
    counts["g_r + g_t"] = counts["g_r"] + counts["g_t"]
    for name, n in counts.items():
        print(f"{name:16s} {n:>12,d}")
    return EXIT_OK


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "infer": cmd_infer,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "inspect-mask": cmd_inspect_mask,
    "params": cmd_params,
}


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args, *build_config(args))
    except TR.TrainingDiverged as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (FileNotFoundError, PermissionError, IsADirectoryError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
