"""Check that a fresh paper-width TrainerState holds little more than its weights.

Builds a width-1.0 ``TrainerState`` (G_R, G_T, the discriminator, the
perceptual extractor and one Adam state per trained network), prints the
weight megabytes and how much the process's anonymous resident memory
(``RssAnon`` in ``/proc/self/status``) grew, and exits 1 when the growth is
above ``LIMIT`` times the weights.  Adam's moments are zero pages until a
step writes them, so a state that has not stepped should hold about its
weights alone.  Linux only; it exits 2 where ``RssAnon`` is not reported.

Usage: PYTHONPATH=src python3 scripts/state_footprint.py
"""

import sys

from ragnet.model import ModelConfig
from ragnet.trainer import TrainConfig, TrainerState

LIMIT = 1.25  # resident growth allowed, in multiples of the weight bytes
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


def main() -> int:
    if rss_anon_bytes() is None:
        print("state_footprint: /proc/self/status reports no RssAnon", file=sys.stderr)
        return 2
    growth, weights = footprint(1.0)
    ratio = growth / weights
    print(f"weights {weights / MB:.1f} MB, RssAnon growth {growth / MB:.1f} MB "
          f"({ratio:.2f}x the weights, limit {LIMIT}x)")
    return 0 if ratio <= LIMIT else 1


if __name__ == "__main__":
    sys.exit(main())
