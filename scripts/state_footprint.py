"""Check that a fresh paper-width TrainerState holds little more than its
weights, that one inference with such a state holds few merge-sized arrays,
that one desk-scale training step stays under a traced bound, and that
loading a checkpoint for inference keeps little more than G_R and G_T.

Builds a width-1.0 ``TrainerState`` (G_R, G_T, the discriminator, the
perceptual extractor and one Adam state per trained network), prints the
weight megabytes and how much the process's anonymous resident memory
(``RssAnon`` in ``/proc/self/status``) grew, and fails when the growth is
above ``LIMIT`` times the weights.  Adam's moments are zero pages until a
step writes them, so a state that has not stepped should hold about its
weights alone.

It then runs one ``cli.infer_image`` at ``SIDE``² with another fresh
width-1.0 state and prints the peak that ``tracemalloc`` traced, which
counts numpy's own requests, in level-1 merge maps: the float32
(1, 2*c1, SIDE, SIDE) tensor that G_T's level-1 merge convolves.  It fails
above ``MERGE_MAPS`` of them.  Unlike resident memory, this count does not
depend on the allocator.

Then it traces one phase-2 step (G_R, G_T, the critic and all five loss
terms, backward and Adam) of a fresh desk-scale state: width
``STEP_WIDTH``, ``STEP_BATCH`` synthesized triples of ``STEP_SIDE``² in a
temporary directory.  It prints that step's ``tracemalloc`` peak and fails
above ``STEP_MB`` MB (of 2**20 bytes, as everywhere in this script).  The
backward releases each recorded op once its gradient has been propagated,
so the peak is the forward's live set, not the whole tape plus the
gradients piled on it.  This count does not depend on the allocator either.

Last, one fresh process saves a width-``LOAD_WIDTH`` checkpoint to a
temporary directory, and a second one, whose allocator holds no freed
memory of this or the checks above, calls ``cli.load_models`` on it and
reports how much ``RssAnon`` the call kept, against the bytes of the G_R
and G_T weights it returns.  The check fails above ``LIMIT`` times those
bytes: the file's discriminator, perceptual-net and Adam payloads must not
stay resident.

Exits 1 when a check fails.  Linux only; it exits 2 where ``RssAnon`` is
not reported.

Usage: PYTHONPATH=src python3 scripts/state_footprint.py
"""

import gc
import multiprocessing
import os
import sys
import tempfile
import tracemalloc

import numpy as np

from ragnet.cli import infer_image, load_models
from ragnet.model import ModelConfig
from ragnet.synthesis import SynthesisParams, load_triple, make_dataset, read_manifest
from ragnet.trainer import TrainConfig, TrainerState, _phase2_step, weight_tensors

LIMIT = 1.25  # resident growth allowed, in multiples of the weight bytes
SIDE = 224  # the inference image side
MERGE_MAPS = 6  # traced inference peak allowed, in level-1 merge maps
STEP_WIDTH, STEP_BATCH, STEP_SIDE = 0.125, 4, 64  # the desk training step
STEP_MB = 68  # its traced peak allowed, in MB of 2**20 bytes
LOAD_WIDTH = 0.5  # width of the checkpoint that load_models reads
MB = 1 << 20


def rss_anon_bytes() -> int | None:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("RssAnon:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def footprint(width: float) -> tuple[int, int]:
    """(RssAnon growth, weight bytes) of building a fresh ``TrainerState`` at *width*."""
    before = rss_anon_bytes()
    state = TrainerState(TrainConfig(model=ModelConfig(width_multiplier=width)))
    growth = rss_anon_bytes() - before
    nets = [*state.nets.values(), state.percep]
    return growth, sum(p.data.nbytes for net in nets for p in net.params.values())


def inference_maps(width: float, side: int) -> tuple[int, float]:
    """Traced peak bytes of one ``infer_image`` on a seeded side x side image
    with a fresh ``TrainerState`` at *width*, and that peak in level-1 merge maps."""
    state = TrainerState(TrainConfig(model=ModelConfig(width_multiplier=width)))
    img = np.random.Generator(np.random.PCG64(0)).uniform(0, 1, (1, 3, side, side)).astype(np.float32)
    gc.collect()
    tracemalloc.start()
    try:
        infer_image(state, img)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, peak / (2 * state.config.model.scaled(64) * side * side * 4)


def train_step_peak(d: str) -> int:
    """Traced peak bytes of one phase-2 step of a fresh desk-scale ``TrainerState``,
    on ``STEP_BATCH`` seeded triples synthesized into directory *d*."""
    manifest = make_dataset(STEP_BATCH, SynthesisParams(patch_size=STEP_SIDE, seed=0), d)
    triples = [load_triple(e) for e in read_manifest(manifest)]
    state = TrainerState(TrainConfig(model=ModelConfig(width_multiplier=STEP_WIDTH, use_adversarial=True)))
    gc.collect()
    tracemalloc.start()
    try:
        _phase2_step(state, triples, True)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def save_state(width: float, ckpt: str) -> None:
    """Save a fresh ``TrainerState`` at *width* to *ckpt*."""
    TrainerState(TrainConfig(model=ModelConfig(width_multiplier=width))).save(ckpt)


def load_footprint(ckpt: str) -> tuple[int, int]:
    """(RssAnon kept by ``load_models`` of *ckpt*, G_R + G_T weight bytes)."""
    before = rss_anon_bytes()
    state = load_models(ckpt)
    kept = rss_anon_bytes() - before
    return kept, sum(a.nbytes for a in weight_tensors(state.nets).values())


def in_fresh_process(fn, *args):
    """*fn*(*args*) in a new interpreter, which exits when it returns."""
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(fn, args)


def main() -> int:
    if rss_anon_bytes() is None:
        print("state_footprint: /proc/self/status reports no RssAnon", file=sys.stderr)
        return 2
    growth, weights = footprint(1.0)
    ratio = growth / weights
    print(f"weights {weights / MB:.1f} MB, RssAnon growth {growth / MB:.1f} MB "
          f"({ratio:.2f}x the weights, limit {LIMIT}x)")
    peak, maps = inference_maps(1.0, SIDE)
    print(f"{SIDE}x{SIDE} inference: traced peak {peak / MB:.1f} MB "
          f"({maps:.2f} level-1 merge maps, limit {MERGE_MAPS})")
    with tempfile.TemporaryDirectory() as d:
        step_peak = train_step_peak(d) / MB
        print(f"width-{STEP_WIDTH} phase-2 step, batch {STEP_BATCH} at {STEP_SIDE}x{STEP_SIDE}: "
              f"traced peak {step_peak:.1f} MB (limit {STEP_MB} MB)")
        ckpt = os.path.join(d, "model.bin")
        in_fresh_process(save_state, LOAD_WIDTH, ckpt)
        kept, g_weights = in_fresh_process(load_footprint, ckpt)
    load_ratio = kept / g_weights
    print(f"width-{LOAD_WIDTH} load_models: G_R + G_T weights {g_weights / MB:.1f} MB, RssAnon kept "
          f"{kept / MB:.1f} MB ({load_ratio:.2f}x the weights, limit {LIMIT}x)")
    passed = ratio <= LIMIT and maps <= MERGE_MAPS and step_peak <= STEP_MB and load_ratio <= LIMIT
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
