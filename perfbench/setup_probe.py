"""Set-up probe: time ``import descentlab`` plus a cold build of named fixtures.

Run in a fresh interpreter so nothing is cached:

    python3 perfbench/setup_probe.py <seed> <fixture> [<fixture> ...]

The fixture name ``inline_ls`` stands for the generated least-squares problem
of the ``trace_export`` workload (built from ``<seed>``).  Prints the elapsed
seconds as the only line of standard output.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

INLINE_LS = "inline_ls"
INLINE_N, INLINE_D = 256, 16


def inline_ls_data(seed: int):
    """Features and targets of the generated n=256, d=16 least-squares problem."""
    import numpy as np

    rng = np.random.default_rng([seed, 0x5EED])
    features = rng.normal(size=(INLINE_N, INLINE_D)) / np.sqrt(INLINE_D)
    w = rng.normal(size=INLINE_D)
    targets = features @ w + 0.1 * rng.normal(size=INLINE_N)
    return features, targets


def build(names, seed: int) -> None:
    """Build (or fetch from the fixture cache) every named fixture."""
    from descentlab import problems

    for name in names:
        if name == INLINE_LS:
            problems.build_least_squares(*inline_ls_data(seed))
        else:
            problems.fixture(name)


def main(argv) -> int:
    seed, names = int(argv[0]), argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import descentlab  # noqa: F401  (timed: the import is part of set-up)

    build(names, seed)
    print(time.perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
