"""Spans and counters recorded around calls into pgal, from outside the library.

`Tracer.install()` replaces each traced function by a wrapper on every pgal
module attribute that holds it (pgal imports names directly, so
`pgal.symbols.factor` and `pgal.arith.factor` are the same function under two
names), and on the classes for methods.  `Tracer.restore()` puts the originals
back.  A span is (name, start, end, parent span index, job id); spans live in
memory until the benchmark writes them out.

`layer_metrics` turns spans and counters into the per-layer metrics listed in
BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import sys
import time

# (module, attribute or Class.method, span name)
FUNCTIONS = [
    ("pgal.catalog", "build_group", "catalog.build_group"),
    ("pgal.groups", "Group.__init__", "groups.Group.init"),
    ("pgal.groups", "Group.center", "groups.center"),
    ("pgal.groups", "quotient", "groups.quotient"),
    ("pgal.groups", "subgroups_of_index2", "groups.subgroups_of_index2"),
    ("pgal.groups", "normal_subgroups", "groups.normal_subgroups"),
    ("pgal.groups", "is_isomorphic", "groups.is_isomorphic"),
    ("pgal.groups", "min_generators", "groups.min_generators"),
    ("pgal.cohomology", "h2_enumerate", "cohomology.h2_enumerate"),
    ("pgal.cohomology", "extension_of_cocycle", "cohomology.extension_of_cocycle"),
    ("pgal.cohomology", "cocycle_of_extension", "cohomology.cocycle_of_extension"),
    ("pgal.cohomology", "class_equal", "cohomology.class_equal"),
    ("pgal.cohomology", "verify", "cohomology.verify"),
    ("pgal.cohomology", "corestrict_tate", "cohomology.corestrict_tate"),
    ("pgal.cohomology", "CoboundarySpace.__init__", "cohomology.CoboundarySpace.init"),
    ("pgal.linalg", "GFMatrix.add_rows", "linalg.GFMatrix.add_rows"),
    ("pgal.linalg", "GFMatrix.reduce", "linalg.GFMatrix.reduce"),
    ("pgal.linalg", "GFMatrix.nullspace", "linalg.GFMatrix.nullspace"),
    ("pgal.arith", "factor", "arith.factor"),
    ("pgal.arith", "is_prime", "arith.is_prime"),
    ("pgal.symbols", "normalize", "symbols.normalize"),
    ("pgal.symbols", "splits_over_Q", "symbols.splits_over_Q"),
    ("pgal.symbols", "hilbert_local", "symbols.hilbert_local"),
    ("pgal.autoreal", "RealizationGraph.load_default", "autoreal.load_default"),
    ("pgal.autoreal", "RealizationGraph.implies", "autoreal.implies"),
    ("pgal.cli", "main", "cli.main"),
] + [("pgal.obstructions", fn, f"obstructions.{fn}") for fn in (
    "obstruction_c4", "obstruction_cp2", "massy", "direct_factor",
    "modular_obstruction", "g_family_obstruction", "hasse_witt", "double_cover_twist")]

ENGINE_SPANS = tuple(name for _, _, name in FUNCTIONS if name.startswith("obstructions."))

# per_layer metric names, in BENCHMARK.json order
METRICS = [
    ("catalog.build_group.self_s", "s", "lower"),
    ("catalog.build_group.calls", "count", "lower"),
    ("catalog.elements_built", "count", "lower"),
    ("groups.Group.init_s", "s", "lower"),
    ("groups.Group.init.calls", "count", "lower"),
    ("groups.table_bytes_max", "bytes", "lower"),
    ("groups.quotient_s", "s", "lower"),
    ("groups.center_s", "s", "lower"),
    ("groups.subgroups_of_index2_s", "s", "lower"),
    ("groups.normal_subgroups_s", "s", "lower"),
    ("groups.is_isomorphic_s", "s", "lower"),
    ("groups.min_generators_s", "s", "lower"),
    ("cohomology.h2_enumerate.self_s", "s", "lower"),
    ("cohomology.h2_enumerate.calls", "count", "lower"),
    ("cohomology.extension_of_cocycle_s", "s", "lower"),
    ("cohomology.cocycle_of_extension_s", "s", "lower"),
    ("cohomology.class_equal_s", "s", "lower"),
    ("cohomology.corestrict_tate_s", "s", "lower"),
    ("cohomology.CoboundarySpace.builds", "count", "lower"),
    ("cohomology.CoboundarySpace.useful_ratio", "ratio", "higher"),
    ("linalg.GFMatrix.add_rows_s", "s", "lower"),
    ("linalg.GFMatrix.nullspace_s", "s", "lower"),
    ("linalg.rows_offered", "count", "lower"),
    ("linalg.pivots_added", "count", "lower"),
    ("linalg.pivot_yield", "ratio", "higher"),
    ("linalg.reduce.flops", "count", "lower"),
    ("arith.factor_s", "s", "lower"),
    ("arith.factor.calls", "count", "lower"),
    ("arith.factor.distinct_ratio", "ratio", "higher"),
    ("arith.is_prime.calls", "count", "lower"),
    ("symbols.normalize.self_s", "s", "lower"),
    ("symbols.splits_over_Q.self_s", "s", "lower"),
    ("symbols.hilbert_local.calls", "count", "lower"),
    ("obstructions.engine_s", "s", "lower"),
    ("autoreal.load_default_s", "s", "lower"),
    ("autoreal.implies_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.uncovered_frac", "ratio", "lower"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, job]
        self.counters: dict = {"table_bytes_max": 0, "rows_offered": 0, "pivots_added": 0,
                               "reduce_flops": 0, "elements_built": 0}
        self.factor_args: set = set()
        self.cob_keys: set = set()
        self.job = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_count_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters, computed from arguments and results ---------------------------

    def _count_catalog_build_group(self, args, G):
        self.counters["elements_built"] += G.order

    def _count_groups_Group_init(self, args, _):
        G = args[0]
        n = G.order
        nbytes = n * n * G.np_table.itemsize
        self.counters["table_bytes_max"] = max(self.counters["table_bytes_max"], nbytes)

    def _count_cohomology_CoboundarySpace_init(self, args, _):
        group, p = args[1], args[2]
        digest = hashlib.sha256(group.np_table.tobytes()).hexdigest()
        self.cob_keys.add((digest, int(p)))

    def _count_linalg_GFMatrix_add_rows(self, args, added):
        self.counters["rows_offered"] += len(args[1])
        self.counters["pivots_added"] += int(added)

    def _count_linalg_GFMatrix_reduce(self, args, _):
        mat, rows = args[0], len(args[1])
        # rank is read after the call: reduce never changes the row space
        self.counters["reduce_flops"] += 2 * rows * mat.rank * mat.ncols

    def _count_arith_factor(self, args, _):
        self.factor_args.add(abs(int(args[0])))

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function of the pgal modules imported so far."""
        for module_name, attr, name in FUNCTIONS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._patched.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(module, attr)
            traced = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "pgal" or mod_name.startswith("pgal.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, traced)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- export ------------------------------------------------------------------

    def export(self) -> dict:
        c = dict(self.counters)
        c["factor_distinct"] = len(self.factor_args)
        c["cob_distinct"] = len(self.cob_keys)
        return {"spans": self.spans, "counters": c}


def _durations(spans):
    """Per-span duration and self time (duration minus direct children)."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    return dur, [d - c for d, c in zip(dur, child)]


def summarize(spans) -> dict:
    """name -> [busy s, self s, calls]; busy counts only spans with no ancestor
    of the same name, so recursion is not counted twice."""
    dur, self_t = _durations(spans)
    out: dict = {}
    for i, s in enumerate(spans):
        rec = out.setdefault(s[0], [0.0, 0.0, 0])
        rec[1] += self_t[i]
        rec[2] += 1
        j = s[3]
        nested = False
        while j >= 0:
            if spans[j][0] == s[0]:
                nested = True
                break
            j = spans[j][3]
        if not nested:
            rec[0] += dur[i]
    return out


def covered(spans) -> float:
    """Time covered by top-level spans (no parent)."""
    return sum(s[2] - s[1] for s in spans if s[3] < 0)


def engine_busy(spans) -> float:
    total = 0.0
    for s in spans:
        if s[0] not in ENGINE_SPANS:
            continue
        j = s[3]
        while j >= 0 and spans[j][0] not in ENGINE_SPANS:
            j = spans[j][3]
        if j < 0:
            total += s[2] - s[1]
    return total


def layer_metrics(traces: list[dict], blocks: int, job_seconds: float,
                  stdout_bytes: int, overhead_s: float) -> dict:
    """Per-layer metrics from the traces of `blocks` traced blocks.

    Times and counts are per block (totals divided by `blocks`); ratios are
    taken over the totals; `table_bytes_max` is the maximum.
    """
    summ: dict = {}
    cnt: dict = {}
    cov = engine = 0.0
    for tr in traces:
        for name, (busy, self_s, calls) in summarize(tr["spans"]).items():
            rec = summ.setdefault(name, [0.0, 0.0, 0])
            rec[0] += busy
            rec[1] += self_s
            rec[2] += calls
        for k, v in tr["counters"].items():
            cnt[k] = max(cnt.get(k, 0), v) if k == "table_bytes_max" else cnt.get(k, 0) + v
        cov += covered(tr["spans"])
        engine += engine_busy(tr["spans"])

    def total(name, i):
        return summ.get(name, (0.0, 0.0, 0))[i]

    def busy(name):
        return total(name, 0) / blocks

    def self_s(name):
        return total(name, 1) / blocks

    def calls(name):
        return total(name, 2) / blocks

    def ratio(a, b):
        return a / b if b else 0.0

    vals = {
        "catalog.build_group.self_s": self_s("catalog.build_group"),
        "catalog.build_group.calls": calls("catalog.build_group"),
        "catalog.elements_built": cnt.get("elements_built", 0) / blocks,
        "groups.Group.init_s": busy("groups.Group.init"),
        "groups.Group.init.calls": calls("groups.Group.init"),
        "groups.table_bytes_max": cnt.get("table_bytes_max", 0),
        "groups.quotient_s": busy("groups.quotient"),
        "groups.center_s": busy("groups.center"),
        "groups.subgroups_of_index2_s": busy("groups.subgroups_of_index2"),
        "groups.normal_subgroups_s": busy("groups.normal_subgroups"),
        "groups.is_isomorphic_s": busy("groups.is_isomorphic"),
        "groups.min_generators_s": busy("groups.min_generators"),
        "cohomology.h2_enumerate.self_s": self_s("cohomology.h2_enumerate"),
        "cohomology.h2_enumerate.calls": calls("cohomology.h2_enumerate"),
        "cohomology.extension_of_cocycle_s": busy("cohomology.extension_of_cocycle"),
        "cohomology.cocycle_of_extension_s": busy("cohomology.cocycle_of_extension"),
        "cohomology.class_equal_s": busy("cohomology.class_equal"),
        "cohomology.corestrict_tate_s": busy("cohomology.corestrict_tate"),
        "cohomology.CoboundarySpace.builds": calls("cohomology.CoboundarySpace.init"),
        "cohomology.CoboundarySpace.useful_ratio": ratio(
            cnt.get("cob_distinct", 0), total("cohomology.CoboundarySpace.init", 2)),
        "linalg.GFMatrix.add_rows_s": busy("linalg.GFMatrix.add_rows"),
        "linalg.GFMatrix.nullspace_s": busy("linalg.GFMatrix.nullspace"),
        "linalg.rows_offered": cnt.get("rows_offered", 0) / blocks,
        "linalg.pivots_added": cnt.get("pivots_added", 0) / blocks,
        "linalg.pivot_yield": ratio(cnt.get("pivots_added", 0), cnt.get("rows_offered", 0)),
        "linalg.reduce.flops": cnt.get("reduce_flops", 0) / blocks,
        "arith.factor_s": busy("arith.factor"),
        "arith.factor.calls": calls("arith.factor"),
        "arith.factor.distinct_ratio": ratio(
            cnt.get("factor_distinct", 0), total("arith.factor", 2)),
        "arith.is_prime.calls": calls("arith.is_prime"),
        "symbols.normalize.self_s": self_s("symbols.normalize"),
        "symbols.splits_over_Q.self_s": self_s("symbols.splits_over_Q"),
        "symbols.hilbert_local.calls": calls("symbols.hilbert_local"),
        "obstructions.engine_s": engine / blocks,
        "autoreal.load_default_s": busy("autoreal.load_default"),
        "autoreal.implies_s": busy("autoreal.implies"),
        "cli.import_s": busy("cli.import"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.stdout_bytes": stdout_bytes / blocks,
        "trace.overhead_s": overhead_s,
        "trace.uncovered_frac": ratio(max(job_seconds - cov, 0.0), job_seconds),
    }
    return {name: {"value": vals[name], "unit": unit} for name, unit, _ in METRICS}
