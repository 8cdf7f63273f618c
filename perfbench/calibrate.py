"""Host-speed reference for the benchmark's times.

The benchmark runs on shared hosts whose speed drifts by a factor of up to
two over minutes, for every process alike.  `sample()` times a fixed piece
of pure-Python work that uses nothing from pgal: permutation products as
tuples, and dict and list updates, the operations pgal's group code spends
its time in.  A run takes a sample before every job and every set-up probe,
and reports each time t as t * REFERENCE_S / (median of its samples): the
seconds the run would have taken on a host where one sample takes
REFERENCE_S.  A change to pgal does not change the samples, so it moves the
scaled times as it moves the measured ones.
"""

from __future__ import annotations

import statistics
import time

# the median sample on the 2-core x86 host (Python 3.11) on which the
# nominal block lengths of workloads.py were measured
REFERENCE_S = 0.02

_N = 211
_PERM = tuple((7 * i + 3) % _N for i in range(_N))


def sample() -> float:
    """Seconds taken by the fixed reference work, about REFERENCE_S."""
    t0 = time.perf_counter()
    x = tuple(range(_N))
    seen: dict = {}
    acc = [0] * 64
    for k in range(1200):
        x = tuple(_PERM[i] for i in x)
        seen[x] = k
        acc[k & 63] += x[k % _N]
    return time.perf_counter() - t0


def scale(samples: list[float]) -> float:
    """The factor that turns measured seconds into seconds at reference speed."""
    return REFERENCE_S / statistics.median(samples)
