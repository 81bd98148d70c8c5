"""Train a small model and check that it learns: the held-out PSNR of T_hat
must beat the identity (T_hat = I) by ``MARGIN_DB``.

The default run takes seconds: width 1/16 on 16 px patches,
``make_dataset(16, SynthesisParams(seed=7, patch_size=16))``, model seed 7
with the adversarial term on, ``Schedule(5, 40)`` at batch 4 and no epoch
checkpoints.  ``--desk`` runs the desk protocol instead: width 0.125 on
32 px patches, ``make_dataset(32, SynthesisParams(seed=7, patch_size=32))``
and ``Schedule(10, 120)``, 1,040 steps.

Either run is scored on 16 held-out triples,
``generate_triple(SynthesisParams(seed=999, patch_size=P), derive_seed(999,
"held", i))``, as the mean PSNR(clip(T_hat), T) through ``cli.infer_image``,
against the mean PSNR(I, T).  The script also prints, per decoder level,
the mean M_diff (the first half of a mask's channels) on heavy pixels, where
the ground-truth reflection luminance pooled to the level exceeds the mask
loss's phi, and on clean pixels, where it is below xi; the paper asks for
the first to be lower.

Exits 1 when the gain is below ``MARGIN_DB``.  The bytes, and so the scores,
depend on the BLAS build and thread count.

Usage: PYTHONPATH=src python3 scripts/learning_check.py [--desk]
"""

import argparse
import sys
import tempfile

import numpy as np

import ragnet.tensor as T
from ragnet import cli
from ragnet.losses import MaskLossThresholds
from ragnet.metrics import psnr
from ragnet.model import ModelConfig
from ragnet.synthesis import SynthesisParams, derive_seed, generate_triple, make_dataset
from ragnet.trainer import Schedule, TrainConfig, train

MARGIN_DB = 0.5  # the held-out gain over the identity a run must reach
HELD_OUT = 16
# (width, patch side, training triples, phase-1 epochs, phase-2 epochs)
RUNS = {"small": (1 / 16, 16, 16, 5, 40), "desk": (0.125, 32, 32, 10, 120)}


def run(width: float, side: int, n_train: int, epochs1: int, epochs2: int) -> bool:
    config = TrainConfig(model=ModelConfig(width_multiplier=width, seed=7, use_adversarial=True),
                         schedule=Schedule(epochs1, epochs2, batch_size=4), checkpoint_every_epoch=False)
    with tempfile.TemporaryDirectory() as tmp:
        manifest = make_dataset(n_train, SynthesisParams(seed=7, patch_size=side), f"{tmp}/data")
        state = cli.load_models(train(config, manifest, f"{tmp}/run")[0])
    held = SynthesisParams(seed=999, patch_size=side)
    thresholds = MaskLossThresholds()
    scores, identity = [], []
    heavy, clean = np.zeros((4, 2)), np.zeros((4, 2))  # per level: (sum of M_diff, pixel count)
    for i in range(HELD_OUT):
        triple = generate_triple(held, derive_seed(999, "held", i))
        _, t_hat, masks, _ = cli.infer_image(state, triple.i)
        scores.append(psnr(np.clip(t_hat, 0.0, 1.0), triple.t))
        identity.append(psnr(triple.i, triple.t))
        lum = T.tensor(triple.r.mean(axis=1, keepdims=True))
        for level, m in enumerate(masks):
            m_diff = m.data[0, :m.shape[1] // 2].mean(axis=0)
            for acc, region in ((heavy, lum.data[0, 0] > thresholds.phi), (clean, lum.data[0, 0] < thresholds.xi)):
                acc[level] += m_diff[region].sum(), region.sum()
            lum = T.downsample2x(lum)
    gain = np.mean(scores) - np.mean(identity)
    print(f"width {width:g}, {side} px, {n_train} training triples, Schedule({epochs1}, {epochs2}), batch 4")
    print(f"held-out PSNR(T_hat) {np.mean(scores):.2f} dB over {HELD_OUT} triples; identity "
          f"{np.mean(identity):.2f} dB; gain {gain:+.2f} dB (needs {MARGIN_DB:+.2f})")
    if masks:
        means = [[f"{s / k:.2f}" if k else "n/a" for s, k in region] for region in (heavy, clean)]
        print("mean M_diff heavy/clean, levels 1-4: " + ", ".join(f"{h}/{c}" for h, c in zip(*means)))
    return gain >= MARGIN_DB


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--desk", action="store_true", help="run the 1,040-step desk protocol")
    args = parser.parse_args()
    if not run(*RUNS["desk" if args.desk else "small"]):
        sys.exit(f"the model does not learn: its held-out gain over the identity is below {MARGIN_DB} dB")
