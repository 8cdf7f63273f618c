"""Automatic-realization implication graph with closure queries and bounds.

The seeded database ships as JSON lines {"from", "to", "cite"}; quotient
implications (G realizable forces G/N realizable) are generated lazily for
resolvable groups of order <= 64.  Absence of a path is reported as
"unknown", never as a refutation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import TYPE_CHECKING

from .errors import BadParams, TooLarge, UnknownFamily, UnknownSpec

if TYPE_CHECKING:
    from .fpmodules import FpGModule
    from .groups import Group

# catalog and groups (and numpy with them) are imported by the functions that
# parse specs or build groups, so that multiplicity_bound runs without them

QUOTIENT_EDGE_MAX_ORDER = 64


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    cite: str

    def to_json(self):
        return {"from": self.src, "to": self.dst, "cite": self.cite}


@dataclass
class MultiplicityBound:
    spec: str
    k: int
    bound: int


class RealizationGraph:
    """Directed implications over catalog specs, with provenance on every edge."""

    def __init__(self, edges: list[Edge]):
        """Checks each edge's citation and generator counts, and keeps the
        edges out of each node with both ends resolved to canonical specs."""
        self.edges = list(edges)
        self._nodes: set[str] = set()
        self._groups: dict[str, Group] = {}  # of the nodes only
        self._out: dict[str, list[Edge]] = {}
        for e in self.edges:
            if not e.cite:
                raise UnknownSpec(f"edge {e.src} => {e.dst} lacks a citation")
            dst, src = self._resolve(e.dst), self._resolve(e.src)
            self._nodes.update((src, dst))
            if not gen_count_necessary(src, dst, graph=self):
                raise UnknownSpec(
                    f"edge {e.src} => {e.dst} violates the generator-count condition")
            self._out.setdefault(src, []).append(Edge(src, dst, e.cite))

    @classmethod
    def load_default(cls) -> "RealizationGraph":
        text = resources.files("pgal.data").joinpath("autoreal.jsonl").read_text()
        return cls(_parse_edges(text))

    def _resolve(self, spec: str) -> str:
        from .catalog import canonical_spec

        try:
            return canonical_spec(spec)
        except UnknownFamily as exc:
            raise UnknownSpec(f"cannot resolve {spec!r}: {exc.detail}") from exc

    def _group(self, spec: str, query: dict | None = None) -> Group:
        """The group of spec, kept for the graph's lifetime when spec is a
        node and otherwise only in `query`, the cache of one query."""
        from .catalog import build_group

        spec = self._resolve(spec)
        cache = self._groups if spec in self._nodes else {} if query is None else query
        if spec not in cache:
            try:
                cache[spec] = build_group(spec)
            except UnknownFamily as exc:
                raise UnknownSpec(f"cannot build {spec!r}: {exc.detail}") from exc
        return cache[spec]

    # -- closure query ---------------------------------------------------

    def implies(self, src: str, dst: str) -> dict:
        """Reflexive-transitive closure over seeded plus quotient edges.

        Returns {"holds": True, "path": [...]} or {"holds": "unknown", "path": []}.
        """
        src = self._resolve(src)
        dst = self._resolve(dst)
        if src == dst:
            return {"holds": True, "path": []}
        universe = sorted(self._nodes | {src, dst})
        query: dict[str, Group] = {}
        frontier = [src]
        seen = {src: None}
        while frontier:
            nxt = []
            for node in frontier:
                outs = self._out.get(node, []) + self._quotient_edges(node, universe, query)
                for e in outs:
                    if e.dst not in seen:
                        seen[e.dst] = e
                        nxt.append(e.dst)
            if dst in seen:
                break
            frontier = nxt
        if dst not in seen:
            return {"holds": "unknown", "path": []}
        path = []
        node = dst
        while seen[node] is not None:
            path.append(seen[node])
            node = seen[node].src
        return {"holds": True, "path": [e.to_json() for e in reversed(path)]}

    def _quotient_edges(self, node: str, universe: list, query: dict) -> list[Edge]:
        from .groups import is_isomorphic, normal_subgroups, quotient

        try:
            G = self._group(node, query)
        except UnknownSpec:
            return []
        if G.order > QUOTIENT_EDGE_MAX_ORDER:
            return []
        normals = normal_subgroups(G)
        if normals is None:
            return []
        out = []
        for target in universe:
            if target == node:
                continue
            try:
                H = self._group(target, query)
            except UnknownSpec:
                continue
            if G.order % H.order or H.order > QUOTIENT_EDGE_MAX_ORDER:
                continue
            for N in normals:
                if N.order != G.order // H.order:
                    continue
                Q, _ = quotient(G, N)
                try:
                    if is_isomorphic(Q, H):
                        out.append(Edge(node, target, "trivial: G => G/N"))
                        break
                except TooLarge:
                    continue
        return out


def _parse_edges(text: str) -> list[Edge]:
    edges = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        doc = json.loads(line)
        edges.append(Edge(doc["from"], doc["to"], doc.get("cite", "")))
    return edges


_default_graph: RealizationGraph | None = None


def default_graph() -> RealizationGraph:
    global _default_graph
    if _default_graph is None:
        _default_graph = RealizationGraph.load_default()
    return _default_graph


def implies(src: str, dst: str, graph: RealizationGraph | None = None) -> dict:
    return (graph or default_graph()).implies(src, dst)


_REVERSE_FALSE = (("G2", "G1"), ("G4", "G3"))


def reverse_known_false(src: str, dst: str) -> bool:
    """True exactly for the recorded invalid reverse implications."""
    from .catalog import parse_spec

    try:
        f1, p1 = parse_spec(src)
        f2, p2 = parse_spec(dst)
    except UnknownFamily as exc:
        raise UnknownSpec(str(exc)) from exc
    for a, b in _REVERSE_FALSE:
        if f1 == a and f2 == b and p1.get("p") == p2.get("p"):
            return True
    return False


def gen_count_necessary(src: str, dst: str, graph: RealizationGraph | None = None) -> bool:
    """Necessary condition for src => dst: d(dst-group) <= d(src-group)."""
    from .groups import min_generators

    g = graph or default_graph()
    return min_generators(g._group(dst)) <= min_generators(g._group(src))


def multiplicity_bound(p: int, n: int, k: int) -> MultiplicityBound:
    """Lower bound p^k on the realization multiplicity of F_p[G]^k x| G."""
    if p == 2 and n < 2:
        raise BadParams("need n >= 2 when p = 2")
    if n < 1 or k < 0:
        raise BadParams("need n >= 1 and k >= 0")
    spec = f"(F_{p}[Z/{p}^{n}Z])^{k} x| Z/{p}^{n}Z"
    return MultiplicityBound(spec, k, p ** k)


def excluded_shape_flags(A: FpGModule) -> dict:
    """Both readings of the excluded module shape.

    `literal`: exactly one summand of length p^j + 1 (finite j in 0..n-1)
    and every other summand length a p-power.  `all_p_power`: the summand
    lengths are all p-powers (the j = -infinity reading, where the extra
    factor is absent).
    """
    p = A.p
    lengths = A.lengths()
    ppowers = set()
    v = 1
    while v <= p ** A.n:
        ppowers.add(v)
        v *= p
    specials = {p ** j + 1 for j in range(A.n) if p ** j + 1 <= p ** A.n}
    all_p_power = all(l in ppowers for l in lengths)
    literal = False
    for idx, l in enumerate(lengths):
        if l in specials:
            rest = lengths[:idx] + lengths[idx + 1:]
            if all(r in ppowers for r in rest):
                literal = True
                break
    return {"literal": literal, "all_p_power": all_p_power}


def schultz_bound_applicable(A: FpGModule, k: int = 0) -> bool:
    """True when the p^k multiplicity bound applies: A avoids the excluded shape.

    Uses the literal reading (a p^j+1 summand with finite j); the
    all-p-power variant is exposed via excluded_shape_flags.
    """
    return not excluded_shape_flags(A)["literal"]
