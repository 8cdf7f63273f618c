"""In-process jobs of catalog-tables and h2-cocycles.

`run_job` calls only pgal's public API and returns (seconds, answer): the
seconds cover the pgal calls and nothing else, and the answer is a small
JSON-able dict computed after the clock stops (checks.py judges it).
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

# Calls go through the module attributes, so that the wrappers a Tracer
# installs on them see these calls too.
from pgal import catalog, cohomology, groups

from checks import smallest_prime

INDEX2_MAX_ORDER = 256


def table_digest(G) -> str:
    """sha256 of the table as little-endian int32 rows plus the generators.

    Hashed in row chunks so that a 4096-element table adds little memory,
    and independent of the dtype the library stores the table in.
    """
    h = hashlib.sha256()
    T = G.np_table
    for r0 in range(0, G.order, 256):
        h.update(np.ascontiguousarray(T[r0:r0 + 256], dtype="<i4").tobytes())
    h.update(repr(list(G.generators)).encode())
    return h.hexdigest()


def _catalog(job: dict):
    t0 = time.perf_counter()
    G = catalog.build_group(job["spec"])
    Z = G.center()
    exponent = G.exponent()
    p = smallest_prime(G.order)
    orders = G.element_orders()
    central = [z for z in Z.elements if z and orders[z] == p]
    z = central[job["pick"] % len(central)]
    Q, _ = groups.quotient(G, groups.subgroup_generated(G, [z]))
    index2 = None
    if p == 2 and G.order <= INDEX2_MAX_ORDER:
        index2 = len(groups.subgroups_of_index2(G))
    seconds = time.perf_counter() - t0
    return seconds, {"order": G.order, "exponent": exponent, "center": Z.order,
                     "quotient": Q.order, "index2": index2, "digest": table_digest(G)}


def _pick_class(res, p: int, pick: int):
    """A seeded class: one of the enumerated classes, or a basis combination."""
    reps = res.representatives
    if res.complete:
        return reps[pick % len(reps)]
    f = None
    for rep in reps:
        for _ in range(pick % p):
            f = rep if f is None else f.add(rep)
        pick //= p
    return f if f is not None else reps[0].add(reps[0].neg())


def _h2(job: dict):
    p = job["p"]
    t0 = time.perf_counter()
    G = catalog.build_group(job["spec"])
    res = cohomology.h2_enumerate(G, p)
    roundtrip = []
    f = None
    for pick in job["picks"]:
        f = _pick_class(res, p, pick)
        ext = cohomology.extension_of_cocycle(f)
        back = cohomology.cocycle_of_extension(ext.extension, ext.proj, ext.kernel_gen)
        roundtrip.append(bool(cohomology.class_equal(f, back)))
    cor = None
    if p == 2:
        subs = groups.subgroups_of_index2(G)
        H = subs[job["hpick"] % len(subs)]
        cor_f = cohomology.corestrict_tate(cohomology.restrict(f, H), H)
        v = cohomology.verify(G, 2, cor_f.values)
        cor = [bool(v["is_cocycle"]), bool(v["is_coboundary"])]
    seconds = time.perf_counter() - t0
    return seconds, {"dimension": res.dimension, "classes": res.class_count,
                     "roundtrip": roundtrip, "cor": cor}


RUNNERS = {"catalog": _catalog, "h2": _h2}


def run_job(job: dict):
    return RUNNERS[job["kind"]](job)
