"""Check that a fresh paper-width TrainerState holds little more than its
weights, that one inference with such a state holds few merge-sized arrays
and that a steady-state one faults in almost no pages, that one training step at
desk width and one at width 0.5 stay under traced bounds, and that loading
a checkpoint for inference keeps little more than G_R and G_T.

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
depend on the allocator.  A fresh process then builds another such state
and runs three untraced inferences of the same image; the script prints
the third one's minor page faults (``ru_minflt``) and fails above
``INFER_FAULTS``.  Importing ragnet keeps freed memory mapped on glibc, so
that inference reuses the pages the first two freed.  The count is taken
apart from the traced inference, as ``tests/test_allocator.py`` takes its
own, so it measures the steady state alone.

Then it traces one phase-2 step (G_R, G_T, the critic and all five loss
terms, backward and Adam) of a fresh state with ``STEP_BATCH`` synthesized
triples of ``STEP_SIDE``² in a temporary directory: once at the desk width
``STEP_WIDTH``, failing above ``STEP_MB`` MB (of 2**20 bytes, as everywhere
in this script), and once at ``WIDE_STEP_WIDTH``, failing above
``WIDE_STEP_MB``.  Tracing starts before the state is built and each
printed peak is the step's, above the bytes the built state holds: an Adam
update writes each weight into a new array and frees the old one, and
both must be traced for the two to cancel.  The backward releases each
recorded op once its gradient has been propagated, so at the desk width
the peak is the forward's live set, not the whole tape plus the gradients
piled on it.  That live set holds only what some backward reads: a
recorded op keeps no array of a parent, only the arrays its own backward
reads, so a constant, or an activation that no backward reads, is freed
once the forward drops it; and a conv's dx reads its Parameter's own
weight array, not a copy.  At width 0.5 the weight gradients weigh more,
but ``backward`` hands each one to its Parameter uncopied, so the peak,
early in the generator's backward, stays about 1 MB above the forward's
live set at its entry.  These counts do not depend on the allocator either.

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
import resource
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
MERGE_MAPS = 5.3  # traced inference peak allowed, in level-1 merge maps
INFER_FAULTS = 256  # minor page faults allowed in a steady-state inference
STEP_WIDTH, STEP_BATCH, STEP_SIDE = 0.125, 4, 64  # the desk training step
STEP_MB = 43  # its traced peak allowed, in MB of 2**20 bytes
WIDE_STEP_WIDTH = 0.5  # the same step at a width nearer the paper's
WIDE_STEP_MB = 170  # its traced peak allowed, in MB
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


def fresh_state(width: float) -> TrainerState:
    """A fresh ``TrainerState`` at *width*."""
    return TrainerState(TrainConfig(model=ModelConfig(width_multiplier=width)))


def footprint(width: float) -> tuple[int, int]:
    """(RssAnon growth, weight bytes) of building a fresh ``TrainerState`` at *width*."""
    before = rss_anon_bytes()
    state = fresh_state(width)
    growth = rss_anon_bytes() - before
    nets = [*state.nets.values(), state.percep]
    return growth, sum(p.data.nbytes for net in nets for p in net.params.values())


def seeded_image(side: int) -> np.ndarray:
    """A seeded float32 (1, 3, side, side) image."""
    return np.random.Generator(np.random.PCG64(0)).uniform(0, 1, (1, 3, side, side)).astype(np.float32)


def inference_maps(state: TrainerState, img: np.ndarray) -> tuple[int, float]:
    """Traced peak bytes of one ``infer_image`` of *img* with *state*, and that
    peak in level-1 merge maps."""
    gc.collect()
    tracemalloc.start()
    try:
        infer_image(state, img)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, peak / (2 * state.config.model.scaled(64) * img.shape[2] * img.shape[3] * 4)


def minor_faults(fn, *args) -> int:
    """Minor page faults (``ru_minflt``) of the call *fn*(*args*)."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fn(*args)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def steady_inference_faults(side: int) -> int:
    """Minor page faults of the third untraced ``infer_image`` of one seeded
    *side*² image with one fresh width-1.0 state."""
    state, img = fresh_state(1.0), seeded_image(side)
    for _ in range(2):
        infer_image(state, img)
    return minor_faults(infer_image, state, img)


def desk_step(d: str, width: float = STEP_WIDTH) -> tuple[TrainerState, list]:
    """A fresh ``TrainerState`` at *width* with the adversarial term on, and
    ``STEP_BATCH`` seeded triples of ``STEP_SIDE``² synthesized into directory *d*."""
    manifest = make_dataset(STEP_BATCH, SynthesisParams(patch_size=STEP_SIDE, seed=0), d)
    triples = [load_triple(e) for e in read_manifest(manifest)]
    return TrainerState(TrainConfig(model=ModelConfig(width_multiplier=width, use_adversarial=True))), triples


def train_step_peak(d: str, width: float) -> int:
    """Traced peak bytes of one phase-2 step of ``desk_step(d, width)``, above
    the bytes traced once the state is built.  Tracing starts before the
    build, so each new array an Adam update allocates is counted against
    the old one it frees."""
    gc.collect()
    tracemalloc.start()
    try:
        state, triples = desk_step(d, width)
        gc.collect()
        built = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _phase2_step(state, triples, True)
        return tracemalloc.get_traced_memory()[1] - built
    finally:
        tracemalloc.stop()


def save_state(width: float, ckpt: str) -> None:
    """Save a fresh ``TrainerState`` at *width* to *ckpt*."""
    fresh_state(width).save(ckpt)


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
    state, img = fresh_state(1.0), seeded_image(SIDE)
    peak, maps = inference_maps(state, img)
    print(f"{SIDE}x{SIDE} inference: traced peak {peak / MB:.1f} MB "
          f"({maps:.2f} level-1 merge maps, limit {MERGE_MAPS})")
    del state
    faults = in_fresh_process(steady_inference_faults, SIDE)
    print(f"{SIDE}x{SIDE} inference, the third untraced one in a fresh process: {faults} minor page faults "
          f"(limit {INFER_FAULTS})")
    with tempfile.TemporaryDirectory() as d:
        steps_ok = True
        for width, limit in ((STEP_WIDTH, STEP_MB), (WIDE_STEP_WIDTH, WIDE_STEP_MB)):
            step_peak = train_step_peak(d, width) / MB
            steps_ok &= step_peak <= limit
            print(f"width-{width} phase-2 step, batch {STEP_BATCH} at {STEP_SIDE}x{STEP_SIDE}: traced peak "
                  f"{step_peak:.1f} MB above the built state (limit {limit} MB)")
        ckpt = os.path.join(d, "model.bin")
        in_fresh_process(save_state, LOAD_WIDTH, ckpt)
        kept, g_weights = in_fresh_process(load_footprint, ckpt)
    load_ratio = kept / g_weights
    print(f"width-{LOAD_WIDTH} load_models: G_R + G_T weights {g_weights / MB:.1f} MB, RssAnon kept "
          f"{kept / MB:.1f} MB ({load_ratio:.2f}x the weights, limit {LIMIT}x)")
    passed = (ratio <= LIMIT and maps <= MERGE_MAPS and faults <= INFER_FAULTS and steps_ok
              and load_ratio <= LIMIT)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
