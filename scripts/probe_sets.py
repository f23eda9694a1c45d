"""Time the decision sets that no workload runs, in process.

    python scripts/probe_sets.py

Each set is 16 decisions: actor_pipeline on sample_algebra(random.Random(s),
F, d, c) for the seeds s = 0-3 and the categories lie, leibniz,
associative and commutative.  The sets are Q at dims 4, 5 and 6, and
GF(5), GF(2^31 - 1) and GF(2^61 - 1) at dim 4.  The samples are drawn
before any timing.  Each set runs three times on one BLAS thread; the
script prints the best of its three totals and its slowest decision, each
decision timed by the best of its three runs.  It imports the package from
the src directory beside this script, so a copy of the script in another
checkout times that checkout.
"""

from __future__ import annotations

import os
import random
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from artifact.corpus import sample_algebra  # noqa: E402
from artifact.existence import actor_pipeline  # noqa: E402
from artifact.fields import GF, QQ  # noqa: E402

CATEGORIES = ("lie", "leibniz", "associative", "commutative")
SETS = ((QQ, 4), (QQ, 5), (QQ, 6), (GF(5), 4), (GF(2 ** 31 - 1), 4), (GF(2 ** 61 - 1), 4))
ROUNDS = 3


def probe(field, dim: int) -> tuple[float, float, str]:
    """The set's best total and its slowest decision, its best time and
    its label, in seconds."""
    cases = [(f"{c}/{s}", sample_algebra(random.Random(s), field, dim, c))
             for c in CATEGORIES for s in range(4)]
    best, totals = {}, []
    for _ in range(ROUNDS):
        total = 0.0
        for label, a in cases:
            start = time.perf_counter()
            actor_pipeline(a)
            took = time.perf_counter() - start
            total += took
            best[label] = min(best.get(label, took), took)
        totals.append(total)
    slowest = max(best, key=best.get)
    return min(totals), best[slowest], slowest


def main() -> None:
    for field, dim in SETS:
        total, slow, label = probe(field, dim)
        print(f"{field} dim {dim}: {1e3 * total:.1f} ms, slowest {label} "
              f"{1e3 * slow:.1f} ms", flush=True)


if __name__ == "__main__":
    main()
