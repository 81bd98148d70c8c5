"""Check that a fresh paper-width TrainerState holds little more than its
weights, and that one inference with such a state holds few merge-sized arrays.

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

Exits 1 when a check fails.  Linux only; it exits 2 where ``RssAnon`` is
not reported.

Usage: PYTHONPATH=src python3 scripts/state_footprint.py
"""

import gc
import sys
import tracemalloc

import numpy as np

from ragnet.cli import infer_image
from ragnet.model import ModelConfig
from ragnet.trainer import TrainConfig, TrainerState

LIMIT = 1.25  # resident growth allowed, in multiples of the weight bytes
SIDE = 224  # the inference image side
MERGE_MAPS = 8  # traced inference peak allowed, in level-1 merge maps
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
    nets = [*state.nets.values(), state.extractor.net]
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
    return 0 if ratio <= LIMIT and maps <= MERGE_MAPS else 1


if __name__ == "__main__":
    sys.exit(main())
