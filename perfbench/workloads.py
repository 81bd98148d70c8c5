"""The benchmark workloads: set-up, a timed closed loop with one client, and output checks.

Every input comes from the run's seed, except two things that stay fixed so
that quality numbers compare across seeds: the network weights start from
init seed ``MODEL_SEED`` and the held-out images come from ``HELDOUT_SEED``.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import math
import os
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

import ragnet.cli as cli
import ragnet.metrics as ME
import ragnet.model as M
import ragnet.synthesis as S
import ragnet.tensor as T
import ragnet.trainer as TR

MODEL_SEED = 0
HELDOUT_SEED = -1
TRAIN_BATCH = 4
TRAIN_STEP_S = 1.0  # rough seconds per 64 px training step; sizes the schedule from --seconds
LOSS_COLUMNS = ("rec", "percep", "excl", "adv", "mask", "total")


@dataclass(frozen=True)
class Spec:
    kind: str                    # "train" or "infer"
    width: float                 # ModelConfig.width_multiplier
    size: int                    # training patch side, or nominal inference side
    jitter: int = 0              # inference sides are size +- a, a seeded in [1, jitter]
    pool: int = 4                # training images, or distinct images in the inference stream
    heldout: int = 1             # held-out images scored for heldout_psnr_db
    heldout_size: int = 0        # their side; 0 means ``size``
    via_checkpoint: bool = True  # load the inference model from a file with cli.load_models
    setups: int = 3              # set-ups per run; setup_s is their median
    max_units: int = 0           # stop the timed loop after this many steps or images (0: time only)


WORKLOADS = {
    "train_desk64": Spec("train", 0.125, 64, pool=8, heldout=8),
    "infer_desk256": Spec("infer", 0.125, 256, jitter=15, pool=4),
    # Built in-process like cli.load_models builds it, but without the file: at width 1.0
    # load_models holds the whole checkpoint twice and peaks near 6 GB.
    # its held-out (and warm-up) image is 64 px, which keeps three set-ups affordable
    "infer_paper224": Spec("infer", 1.0, 224, pool=2, heldout_size=64, via_checkpoint=False),
}

# The same code paths at width 1/16 and 16-32 px, one step per phase or one image.
SMOKE = {
    "train_desk64": replace(WORKLOADS["train_desk64"], width=1 / 16, size=16, pool=4, heldout=2,
                            setups=1, max_units=1),
    "infer_desk256": replace(WORKLOADS["infer_desk256"], width=1 / 16, size=24, jitter=7, pool=2,
                             setups=1, max_units=1),
    "infer_paper224": replace(WORKLOADS["infer_paper224"], width=1 / 16, size=32, pool=1, heldout_size=16,
                              setups=1, max_units=1),
}


class OutputError(ValueError):
    pass


@dataclass
class Timed:
    """What one timed phase did: units are images trained or inferred."""
    units: int
    wall_s: float
    latencies_s: list[float]
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)


def _ceil16(n: int) -> int:
    return -(-n // 16) * 16


def _check_image(name: str, out: np.ndarray, shape) -> None:
    if out.shape != tuple(shape):
        raise OutputError(f"{name} has shape {out.shape}, input has {tuple(shape)}")
    if not np.isfinite(out).all():
        raise OutputError(f"{name} has non-finite values")
    if out.min() < 0.0 or out.max() > 1.0:
        raise OutputError(f"{name} leaves [0,1]: [{out.min()}, {out.max()}]")


def score(state, triple) -> tuple[float, float]:
    """Infer one image, check R_hat and T_hat, and return (PSNR, SSIM) of T_hat."""
    r_hat, t_hat, _, _ = cli.infer_image(state, triple.i)
    _check_image("R_hat", r_hat, triple.i.shape)
    _check_image("T_hat", t_hat, triple.i.shape)
    p, s = ME.psnr(t_hat, triple.t), ME.ssim(t_hat, triple.t)
    if not (math.isfinite(p) and math.isfinite(s)):
        raise OutputError(f"non-finite score: psnr {p}, ssim {s}")
    return p, s


def describe(e: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(e), e)).strip()


def _model_config(spec: Spec) -> M.ModelConfig:
    # spelled out so that a change of the library defaults does not change the workload
    return M.ModelConfig(width_multiplier=spec.width, rag_variant="full", use_adversarial=True,
                         seed=MODEL_SEED)


class TrainWorkload:
    """``trainer.train``: one phase-1 epoch, then phase-2 epochs, a checkpoint every epoch."""

    def __init__(self, spec: Spec, seed: int):
        self.spec, self.seed = spec, seed
        self.steps_per_epoch = -(-spec.pool // TRAIN_BATCH)

    def config(self, phase1: int, phase2: int) -> TR.TrainConfig:
        return TR.TrainConfig(model=_model_config(self.spec),
                              schedule=TR.Schedule(phase1, phase2, TRAIN_BATCH),
                              checkpoint_every_epoch=True)

    def phase2_epochs(self, seconds: float) -> int:
        if self.spec.max_units:
            return 1
        return max(1, round(seconds / (self.steps_per_epoch * TRAIN_STEP_S)) - 1)

    def setup(self, d: str) -> None:
        spec = self.spec
        self.data = S.make_dataset(spec.pool, S.SynthesisParams(patch_size=spec.size, seed=self.seed),
                                   os.path.join(d, "data"))
        self.heldout = S.make_dataset(spec.heldout, S.SynthesisParams(patch_size=spec.size, seed=HELDOUT_SEED),
                                      os.path.join(d, "heldout"))
        warm = os.path.join(d, "data", "warm.tsv")
        with open(self.data) as src, open(warm, "w") as dst:
            dst.writelines(src.readlines()[:TRAIN_BATCH])
        # builds every network and runs one phase-2 step
        TR.train(self.config(0, 1), warm, os.path.join(d, "warm"))

    def timed(self, d: str, seconds: float) -> Timed:
        phase2 = self.phase2_epochs(seconds)
        expected = self.steps_per_epoch * (1 + phase2)
        step_starts: list[float] = []
        enter = T.Tape.__enter__

        def timed_enter(tape):
            step_starts.append(time.perf_counter())
            return enter(tape)

        errors: list[str] = []
        final = None
        T.Tape.__enter__ = timed_enter
        t0 = time.perf_counter()
        try:
            final, log = TR.train(self.config(1, phase2), self.data, d)
        except Exception as e:  # a diverged or crashed run counts its missing steps as failed
            errors.append(describe(e))
            log = os.path.join(d, "train_log.csv")
        finally:
            wall = time.perf_counter() - t0
            T.Tape.__enter__ = enter
        bounds = step_starts + [t0 + wall]
        return Timed(units=len(step_starts) * TRAIN_BATCH, wall_s=wall,
                     latencies_s=[b - a for a, b in zip(bounds, bounds[1:])], attempted=expected,
                     failed=0, errors=errors,
                     facts={"steps": len(step_starts), "phase2_epochs": phase2, "final_sha256": None,
                            "final": final, "log": log})

    def check(self, timed: Timed) -> None:
        """Count steps whose logged loss parts are not finite or that never ran; parse final.bin."""
        finite_steps = 0
        log, final = timed.facts.pop("log"), timed.facts.pop("final")
        if os.path.exists(log):
            with open(log) as f:
                for row in csv.DictReader(f):
                    if all(math.isfinite(float(row[c])) for c in LOSS_COLUMNS):
                        finite_steps += 1
                    else:
                        timed.errors.append(f"non-finite loss parts at iteration {row['iter']}")
        timed.failed = timed.attempted - finite_steps
        if final is not None:
            with open(final, "rb") as f:
                timed.facts["final_sha256"] = hashlib.sha256(f.read()).hexdigest()
            try:
                TR.load_checkpoint(final)
            except ValueError as e:
                timed.errors.append(f"final.bin does not parse: {e}")
            self.final = final

    def heldout_psnr(self) -> float:
        """Mean PSNR of T_hat on the held-out images, from the weights in the final checkpoint."""
        state = cli.load_models(self.final)
        return float(np.mean([score(state, S.load_triple(e))[0] for e in S.read_manifest(self.heldout)]))


class InferWorkload:
    """``cli.infer_image`` on a stream of single images, each scored with PSNR and SSIM."""

    def __init__(self, spec: Spec, seed: int):
        self.spec, self.seed = spec, seed
        self.state = None

    def setup(self, d: str) -> None:
        spec = self.spec
        self.state = None
        gc.collect()
        stream = S.make_dataset(spec.pool, S.SynthesisParams(patch_size=_ceil16(spec.size + spec.jitter),
                                                             seed=self.seed), os.path.join(d, "stream"))
        held = S.make_dataset(spec.heldout, S.SynthesisParams(patch_size=_ceil16(spec.heldout_size or spec.size),
                                                              seed=HELDOUT_SEED), os.path.join(d, "heldout"))
        # sides (size + a, size - a) with a seeded in [1, jitter]: never both multiples of 16,
        # so every image is padded and cropped, and every seed does the same padded work
        rng = np.random.Generator(np.random.PCG64(S.derive_seed(self.seed, "sides")))
        a = rng.integers(1, spec.jitter + 1, size=spec.pool) if spec.jitter else np.zeros(spec.pool, int)
        sides = [(spec.size + off, spec.size - off) if flip else (spec.size - off, spec.size + off)
                 for off, flip in zip(a.tolist(), rng.integers(0, 2, size=spec.pool).tolist())]
        self.stream = [_crop(S.load_triple(e), h, w) for e, (h, w) in zip(S.read_manifest(stream), sides)]
        cfg = _model_config(spec)
        if spec.via_checkpoint:
            ckpt = os.path.join(d, "model.bin")
            TR.TrainerState(TR.TrainConfig(model=cfg)).save(ckpt)
            self.state = cli.load_models(ckpt)
        else:
            self.state = TR.TrainerState(TR.TrainConfig(model=cfg))
        # the held-out images are also the warm-up
        self._heldout_psnr = float(np.mean([score(self.state, S.load_triple(e))[0]
                                            for e in S.read_manifest(held)]))

    def timed(self, d: str, seconds: float) -> Timed:
        latencies: list[float] = []
        errors: list[str] = []
        sizes = set()
        t0 = time.perf_counter()
        while True:
            triple = self.stream[len(latencies) % len(self.stream)]
            t = time.perf_counter()
            try:
                score(self.state, triple)
            except Exception as e:  # a failed image is counted, the stream goes on
                errors.append(describe(e))
            latencies.append(time.perf_counter() - t)
            sizes.add(triple.i.shape[2:])
            if time.perf_counter() - t0 >= seconds or len(latencies) == self.spec.max_units:
                break
        wall = time.perf_counter() - t0
        return Timed(units=len(latencies), wall_s=wall, latencies_s=latencies, attempted=len(latencies),
                     failed=len(errors), errors=errors[:5],
                     facts={"image_sizes": sorted(list(s) for s in sizes)})

    def check(self, timed: Timed) -> None:
        """Each image was checked as part of its closed-loop operation."""

    def heldout_psnr(self) -> float:
        return self._heldout_psnr


def _crop(triple: S.ImageTriple, h: int, w: int) -> S.ImageTriple:
    return replace(triple, i=triple.i[:, :, :h, :w].copy(), t=triple.t[:, :, :h, :w].copy(),
                   r=triple.r[:, :, :h, :w].copy())


def make(name: str, seed: int, smoke: bool):
    spec = (SMOKE if smoke else WORKLOADS)[name]
    return (TrainWorkload if spec.kind == "train" else InferWorkload)(spec, seed)
