"""Seeded job lists for the three benchmark workloads.

This module is pure: it imports nothing from pgal, and every job list is a
function of (workload, seed, block) only.  A run executes blocks 0, 1, 2, ...
of its seed; a block is a fixed job list, and the number of blocks is a
function of the workload and the run's length in seconds (blocks_in_run).

Each block is stratified: it always holds the same number of jobs from each
cost tier, and the seed only chooses which member of a tier runs.  That keeps
the work in a block close to constant across seeds, so that the run-to-run
spread of the end-to-end metrics reflects the program, not the draw.

Every job carries a `key` under which its answer is recorded in
`expected.json` (see record.py); the pools below are finite so that every
key can be recorded.
"""

from __future__ import annotations

import functools
import random

WORKLOADS = ("catalog-tables", "h2-cocycles", "cli-requests")

# -- catalog-tables -----------------------------------------------------------
#
# Tiers by measured cost (one core, Python 3.11; the host's speed drifts, so
# only the order matters).  The median job of a run falls among the ten
# order-81 pc builds per block (35-50 ms each): eleven jobs per block are
# cheaper (the small tier, at most 45 ms) and eleven dearer (the 50-130 ms
# tier and everything above it).  The tail job (the 11th slowest of a
# three-block run) falls among the twelve order-256/625 builds (1.2-1.6 s),
# with two order-4096 products (4-5 s) and one heavy build (2.4-2.8 s)
# above it.  Every family appears among the small jobs.

CATALOG_SMALL = {
    "C": ["C:16", "C:25", "C:27", "C:32", "C:64", "C:81", "C:125"],
    "D": ["D:16", "D:32", "D:64"],
    "SD": ["SD:16", "SD:32", "SD:64"],
    "Q": ["Q:16", "Q:32", "Q:64"],
    "M": ["M:16", "M:32", "M:64"],
    "EA": ["EA:p=2,r=4", "EA:p=2,r=5", "EA:p=3,r=3", "EA:p=5,r=2"],
    "G1": ["G1:p=3"],
    "G2": ["G2:p=3"],
    "Mmod": ["Mmod:p=2,n=4", "Mmod:p=2,n=5", "Mmod:p=2,n=6", "Mmod:p=3,n=3"],
    "MSS": ["MSS:p=2,n=2,j=2", "MSS:p=2,n=2,j=3", "MSS:p=2,n=3,j=2", "MSS:p=2,n=3,j=3",
            "MSS:p=3,n=1,j=2", "MSS:p=5,n=1,j=1"],
    "product": ["D:8*C:2", "Q:8*C:4", "D:16*C:4", "C:4*C:4*C:2", "Q:16*C:2",
                "D:8*EA:p=2,r=2", "G1:p=3*C:3", "SD:16*C:2"],
}
CATALOG_81 = ["G3:p=3", "G4:p=3", "G5:p=3", "G6:p=3", "G7:p=3", "EA:p=2,r=6"]
CATALOG_100 = ["C:128", "EA:p=3,r=4", "EA:p=5,r=3", "G1:p=5", "G2:p=5", "Mmod:p=3,n=4",
               "MSS:p=2,n=2,j=4", "MSS:p=3,n=1,j=3", "MSS:p=5,n=1,j=2"]
CATALOG_128 = ["D:128", "SD:128", "Q:128", "M:128", "Mmod:p=2,n=7", "MSS:p=2,n=3,j=4",
               "Mmod:p=5,n=3"]
CATALOG_1024 = ["D:8*C:128", "Q:16*C:64", "D:32*C:32", "SD:16*C:64", "M:16*C:64",
                "C:4*C:4*C:64", "C:32*C:32", "EA:p=2,r=10"]
CATALOG_MID = ["SD:256", "M:256", "Mmod:p=2,n=8", "G3:p=5", "G4:p=5", "G5:p=5",
               "G6:p=5", "G7:p=5"]
CATALOG_HEAVY = ["D:256", "Q:256", "MSS:p=5,n=1,j=3"]
CATALOG_4096 = ["D:64*C:64", "Q:64*C:64", "SD:64*C:64", "M:64*C:64"]

_CATALOG_TIERS = [(CATALOG_81, 10), (CATALOG_100, 4), (CATALOG_128, 1), (CATALOG_1024, 1),
                  (CATALOG_MID, 4)]
# The dearest job of a block: an order-4096 product in even blocks, a heavy
# build in odd ones.
_CATALOG_TOP = (CATALOG_4096, CATALOG_HEAVY)


def catalog_pool() -> list[str]:
    out = [s for specs in CATALOG_SMALL.values() for s in specs]
    out += [s for tier, _ in _CATALOG_TIERS for s in tier]
    return out + [s for tier in _CATALOG_TOP for s in tier]


def _catalog_block(rng: random.Random, index: int) -> list[dict]:
    specs = [rng.choice(CATALOG_SMALL[fam]) for fam in CATALOG_SMALL]
    for tier, count in _CATALOG_TIERS:
        specs += [rng.choice(tier) for _ in range(count)]
    specs.append(rng.choice(_CATALOG_TOP[index % 2]))
    rng.shuffle(specs)
    return [{"kind": "catalog", "key": s, "spec": s, "pick": rng.getrandbits(32)}
            for s in specs]


# -- h2-cocycles -----------------------------------------------------------------
#
# Tiers by the cost of the bar-complex solve.  The median job of a run falls
# among the eight groups of order 16 per block (0.10-0.13 s): six jobs per
# block are cheaper and eight dearer.  The tail job (the 11th slowest of a
# two-block run) falls among the ten order-27 groups of the dearest kind (G2,
# Mmod:p=3,n=3, C:27; 1.4-1.6 s), with the four order-32 groups above it.

H2_SMALL = ["C:4@2", "EA:p=2,r=2@2", "D:8@2", "Q:8@2", "C:8@2", "EA:p=2,r=3@2",
            "EA:p=3,r=2@3", "C:9@3"]
H2_16 = ["D:16@2", "Q:16@2", "SD:16@2", "M:16@2", "Q:8*C:2@2", "C:4*C:4@2"]
H2_ODD = ["G1:p=3@3", "EA:p=3,r=3@3", "C:25@5", "EA:p=5,r=2@5"]
H2_ODD_DEAR = ["G2:p=3@3", "Mmod:p=3,n=3@3", "C:27@3"]
H2_32_MORE_GEN = ["EA:p=2,r=5@2", "D:16*C:2@2", "D:8*C:4@2", "Q:16*C:2@2",
                  "Q:8*C:4@2", "SD:16*C:2@2"]
H2_32_TWO_GEN = ["D:32@2", "Q:32@2", "SD:32@2", "M:32@2"]

_H2_TIERS = [(H2_SMALL, 6), (H2_16, 8), (H2_ODD, 1), (H2_ODD_DEAR, 5),
             (H2_32_MORE_GEN, 1), (H2_32_TWO_GEN, 1)]
H2_ROUNDTRIPS = 2


def h2_pool() -> list[str]:
    return [k for tier, _ in _H2_TIERS for k in tier]


def _h2_job(rng: random.Random, key: str) -> dict:
    spec, p = key.rsplit("@", 1)
    return {"kind": "h2", "key": key, "spec": spec, "p": int(p),
            "picks": [rng.getrandbits(32) for _ in range(H2_ROUNDTRIPS)],
            "hpick": rng.getrandbits(32)}


def _h2_block(rng: random.Random) -> list[dict]:
    keys = [rng.choice(tier) for tier, count in _H2_TIERS for _ in range(count)]
    rng.shuffle(keys)
    return [_h2_job(rng, k) for k in keys]


# -- cli-requests ------------------------------------------------------------------
#
# Each block is eleven `python -m pgal ... --json` requests: one autoreal
# query, six symbol requests (c4, cp2, massy, hw, twist, symbol eval), three
# other requests (schultz solve, solve, autoreal bound, groups build, h2) and
# one malformed request whose answer is the {"error", "detail"} document with
# exit code 1.  The c4, cp2 and twist requests carry a 60-64-bit semiprime
# factor in one entry.  At that size trial division to the default bound
# sets most of the factoring cost (0.06-0.2 s); the share of Brent rho, whose
# cost spreads widely from one semiprime to the next, grows with the size
# (0.8-3.7 s per request at 80 bits).  massy, hw and symbol eval factor their
# entries again for each symbol they evaluate (1.6 s typical, up to 6 s, with
# one such semiprime), so their entries are products of small primes only.
#
# The autoreal query (3-5 s, nearly all of it load_default) is the dearest
# request of a block, and the three semiprime requests (0.3-0.8 s) come
# next, the c4 and twist ones (0.4-0.8 s) above the cp2 one (0.3-0.4 s).
# The tail job (the 11th slowest of a five-block run) falls among the ten c4
# and twist requests; the median job falls among the other seven requests
# per block (0.2-0.3 s, mostly interpreter start-up and import).

_POOL_SEED = "pgal-cli-pool-1"
_SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
                 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127]
SEMIPRIME_CARRIERS = ("c4", "cp2", "twist")
SEMIPRIME_BITS = (60, 64)
_SYMBOL_KINDS = ("c4", "cp2", "massy", "hw", "twist", "symbol")
_MISC_KINDS = ("schultz", "solve", "bound", "build", "h2")

AUTOREAL_SPECS = ["C:4", "C:8", "C:16", "C:32", "C:64", "C:3", "C:9", "C:27", "C:5",
                  "C:25", "C:7", "C:49", "Q:8", "D:8", "Q:16", "D:16", "SD:16", "M:16",
                  "Q:32", "D:32", "G1:p=3", "G2:p=3", "G3:p=3", "G4:p=3"]


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (bases up to 41)."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for b in bases:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(rng: random.Random, bits: int) -> int:
    while True:
        x = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_prime(x):
            return x


def _semiprime(rng: random.Random, lo: int, hi: int) -> int:
    bits = rng.randint(lo, hi)
    a = _prime(rng, bits // 2)
    return a * _prime(rng, bits - bits // 2)


def _rational(rng: random.Random, extra: int = 1) -> str:
    """A signed product of one to three seeded small primes, times `extra`."""
    k = rng.randint(1, 3)
    num = extra
    for q in rng.sample(_SMALL_PRIMES, k):
        num *= q
    if rng.random() < 0.25:
        num *= 2
    sign = "-" if rng.random() < 0.3 else ""
    if rng.random() < 0.2:
        return f"{sign}{num}/{rng.choice(_SMALL_PRIMES)}"
    return f"{sign}{num}"


def _symbol_request(rng: random.Random, kind: str, extra: int = 1) -> list[str]:
    def r(carry: bool = False) -> str:
        return _rational(rng, extra if carry else 1)

    if kind == "c4":
        return ["obstruct", "c4", f"--a={r(True)}", "--json"]
    if kind == "cp2":
        p = rng.choice([3, 5, 7])
        return ["obstruct", "cp2", f"--a={r(True)}", "--p", str(p), "--json"]
    if kind == "massy":
        n = rng.randint(2, 3)
        entries = [r(i == 0) for i in range(n)]
        d = [f"d{i}{j}={rng.randint(0, 1)}" for i in range(1, n + 1)
             for j in range(i, n + 1)]
        return ["obstruct", "massy", "--p", "2", f"--a={','.join(entries)}",
                f"--d={','.join(d)}", "--json"]
    if kind == "hw":
        n = rng.randint(2, 4)
        return ["obstruct", "hw", f"--q={','.join(r(i == 0) for i in range(n))}", "--json"]
    if kind == "twist":
        plus = "".join(f"({r()},{r()})" for _ in range(rng.randint(0, 2)))
        return ["obstruct", "twist", f"--df={r(True)}", f"--plus={plus}", "--json"]
    n = rng.randint(1, 3)
    expr = "".join(f"({r(i == 0)},{r()})" + (f"^{rng.randint(2, 3)}" if rng.random() < 0.2 else "")
                   for i in range(n))
    return ["symbol", "eval", "--p", "2", f"--expr={expr}", "--json"]


def _misc_request(rng: random.Random, kind: str) -> list[str]:
    if kind == "schultz":
        p, n = rng.choice([(2, 1), (2, 2), (3, 1), (2, 3)])
        top = p ** n
        lengths = sorted(rng.randint(1, top) for _ in range(rng.randint(1, 3)))
        levels = [rng.randint(len(lengths), len(lengths) + 3) for _ in range(n + 1)]
        dims = []
        for i in range(1, top + 1):
            s, v = 0, 1
            while v < i:
                v *= p
                s += 1
            dims.append(levels[s])
        ikk = rng.choice(["-inf"] + [str(i) for i in range(n)])
        return ["schultz", "solve", "--p", str(p), "--n", str(n),
                "--summands", ",".join(map(str, lengths)), "--dims", ",".join(map(str, dims)),
                f"--ikk={ikk}", "--finite", rng.choice(["true", "false"]), "--json"]
    if kind == "solve":
        th = rng.choice(["4.1", "4.2", "4.3", "4.4", "4.5", "4.12"])
        p = rng.choice([2, 3, 5, 7])
        out = ["solve", "--theorem", th, "--p", str(p)]
        if th == "4.12":
            out += ["--i", str(rng.randint(2, p))]
        return out + ["--json"]
    if kind == "bound":
        p = rng.choice([2, 3, 5])
        n = rng.randint(2 if p == 2 else 1, 4)
        return ["autoreal", "bound", "--p", str(p), "--n", str(n),
                "--k", str(rng.randint(0, 6)), "--json"]
    if kind == "build":
        spec = rng.choice(["C:8", "D:8", "Q:8", "D:16", "SD:16", "M:16", "EA:p=2,r=3",
                           "G1:p=3", "G2:p=3", "Mmod:p=3,n=3", "D:8*C:2", "MSS:p=3,n=1,j=2",
                           "Q:16", "C:27", "D:32", "EA:p=3,r=2"])
        return ["groups", "build", "--spec", spec, "--json"]
    spec, p = rng.choice([("C:4", 2), ("D:8", 2), ("Q:8", 2), ("EA:p=2,r=2", 2), ("C:8", 2),
                          ("EA:p=3,r=2", 3), ("C:9", 3), ("C:2", 2), ("C:3", 3), ("C:5", 5)])
    return ["h2", "--group", spec, "--p", str(p), "--json"]


def _malformed_request(rng: random.Random) -> list[str]:
    n = rng.randint(2, 9)
    choices = [
        ["groups", "build", "--spec", f"X{n}:16", "--json"],
        ["groups", "build", "--spec", f"D:{4 * n + 2}", "--json"],
        ["groups", "build", "--spec", f"C:{8192 * n}", "--json"],
        ["groups", "build", "--spec", f"G{n % 7 + 1}:q={n}", "--json"],
        ["obstruct", "c4", f"--a={n}x", "--json"],
        ["obstruct", "c4", "--a=0", "--json"],
        ["symbol", "eval", "--p", "2", f"--expr=({n},3", "--json"],
        ["obstruct", "massy", "--p", "2", "--a", f"{n},3", "--d", f"d1={n}", "--json"],
        ["obstruct", "modular", "--variant", "m", "--p", "2", "--n", "2",
         "--a1", str(n), "--a2", "3", "--json"],
        ["autoreal", "bound", "--p", "2", "--n", "1", "--k", str(n), "--json"],
        ["schultz", "solve", "--p", "2", "--n", "1", "--summands", "1",
         "--dims", ",".join(["1"] * (n + 2)), "--json"],
    ]
    return rng.choice(choices)


def _cli_pool_parts() -> dict[str, list[list[str]]]:
    rng = random.Random(_POOL_SEED)
    symbols = {kind: [_symbol_request(rng, kind, _semiprime(rng, *SEMIPRIME_BITS))
                      if kind in SEMIPRIME_CARRIERS else _symbol_request(rng, kind)
                      for _ in range(16)] for kind in _SYMBOL_KINDS}
    pairs = [(a, b) for a in AUTOREAL_SPECS for b in AUTOREAL_SPECS if a != b]
    autoreal = [["autoreal", "query", "--from", a, "--to", b, "--json"]
                for a, b in rng.sample(pairs, 48)]
    misc = {kind: [_misc_request(rng, kind) for _ in range(16)] for kind in _MISC_KINDS}
    malformed = [_malformed_request(rng) for _ in range(24)]
    parts = {"autoreal": autoreal, "malformed": malformed}
    for kind in _SYMBOL_KINDS:
        parts[f"symbol:{kind}"] = symbols[kind]
    for kind in _MISC_KINDS:
        parts[f"misc:{kind}"] = misc[kind]
    return {name: _dedupe(reqs) for name, reqs in parts.items()}


def _dedupe(reqs: list[list[str]]) -> list[list[str]]:
    seen, out = set(), []
    for argv in reqs:
        k = cli_key(argv)
        if k not in seen:
            seen.add(k)
            out.append(argv)
    return out


def cli_key(argv: list[str]) -> str:
    return " ".join(argv)


@functools.cache
def cli_pool_parts() -> dict[str, list[list[str]]]:
    return _cli_pool_parts()


def cli_pool() -> list[list[str]]:
    return [argv for reqs in cli_pool_parts().values() for argv in reqs]


def _cli_block(rng: random.Random) -> list[dict]:
    parts = cli_pool_parts()
    reqs = [rng.choice(parts["autoreal"])]
    for kind in _SYMBOL_KINDS:
        reqs.append(rng.choice(parts[f"symbol:{kind}"]))
    for kind in rng.sample(_MISC_KINDS, 3):
        reqs.append(rng.choice(parts[f"misc:{kind}"]))
    reqs.append(rng.choice(parts["malformed"]))
    rng.shuffle(reqs)
    return [{"kind": "cli", "key": cli_key(a), "argv": a} for a in reqs]


# -- entry point ----------------------------------------------------------------------

# Nominal seconds per block, the two set-up probes included, on a 2-core x86
# host running Python 3.11.  A run of S seconds holds S // nominal blocks (at
# least one): every run of a workload at one length does the same amount of
# work, so the median and the tail job fall in the tiers named above on
# every run, however fast the host is at the time.
BLOCK_SECONDS = {"catalog-tables": 13.0, "h2-cocycles": 17.5, "cli-requests": 8.0}


def blocks_in_run(workload: str, seconds: float) -> int:
    return max(1, int(seconds // BLOCK_SECONDS[workload]))


_BLOCKS = {"catalog-tables": _catalog_block, "h2-cocycles": _h2_block,
           "cli-requests": _cli_block}


def block(workload: str, seed: int, index: int) -> list[dict]:
    """The job list of block `index` of a run at `seed`; ids are b<index>j<k>."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "catalog-tables":
        jobs = _catalog_block(rng, index)
    else:
        jobs = _BLOCKS[workload](rng)
    for k, job in enumerate(jobs):
        job["id"] = f"b{index}j{k}"
    return jobs
