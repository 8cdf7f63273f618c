"""Automatic-realization implication graph with closure queries and bounds.

The seeded database ships as JSON lines {"from", "to", "cite"}; quotient
implications (G realizable forces G/N realizable) are generated lazily for
groups of order <= 64.  Absence of a path is reported as "unknown", never
as a refutation; a spec that names no group is UnknownSpec.

Loading the graph builds no group: each node's order is read off its spec
(catalog.spec_order), as are a query's two ends.  A quotient's order divides
the group's, so orders show which specs could reach the target; from any
other source a query answers "unknown" and builds nothing.  Otherwise it
builds only the groups its search reads (the nodes whose quotient edges it
searches, the targets whose order divides theirs, the ends of the seeded
edges it follows) and keeps the nodes' groups, and which nodes are
quotients of which, for the graph's lifetime.  A seeded edge's
generator-count condition is checked the first time a query follows it.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import TYPE_CHECKING

from .arith import read_prime
from .errors import BadParams, UnknownFamily, UnknownSpec, check_digits, read_int
from .records import FrozenRecord, Record

if TYPE_CHECKING:
    from .fpmodules import FpGModule
    from .groups import Group

# catalog and groups are imported by the functions that parse specs or build
# groups, so that multiplicity_bound runs without them, and numpy loads only
# when a query builds its first group

QUOTIENT_EDGE_MAX_ORDER = 64


class Edge(FrozenRecord):
    _fields = ("src", "dst", "cite")

    def to_json(self):
        return {"from": self.src, "to": self.dst, "cite": self.cite}


class MultiplicityBound(Record):
    _fields = ("spec", "k", "bound")


class RealizationGraph:
    """Directed implications over catalog specs, with provenance on every edge.

    Groups are built as queries read them: a node's group the first time a
    query needs its table, a seeded edge's generator counts the first time a
    query follows the edge.
    """

    def __init__(self, edges: list[Edge]):
        """Checks each edge's citation and that both its ends name groups
        (by their orders, without a table), and keeps the edges out of each
        node with both ends resolved to canonical specs."""
        from .catalog import spec_order

        self.edges = list(edges)
        self._orders: dict[str, int] = {}  # of the nodes, read off their specs
        self._groups: dict[str, Group] = {}  # of the nodes, built as queries read them
        # (node, node target) -> the target is a quotient of the node, once searched
        self._quotient_of: dict[tuple[str, str], bool] = {}
        self._out: dict[str, list[Edge]] = {}
        self._unchecked: dict[Edge, Edge] = {}  # seeded edge -> as given, until followed
        for e in self.edges:
            if not e.cite:
                raise UnknownSpec(f"edge {e.src} => {e.dst} lacks a citation")
            dst, src = self._resolve(e.dst), self._resolve(e.src)
            for spec in (dst, src):
                self._orders[spec] = _read_spec(spec_order, spec)
            edge = Edge(src, dst, e.cite)
            self._out.setdefault(src, []).append(edge)
            self._unchecked[edge] = e

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
        """The group of the canonical spec, built the first time it is read
        and kept for the graph's lifetime when spec is a node, otherwise
        only in `query`, the cache of one query."""
        from .catalog import build_group

        cache = self._groups if spec in self._orders else {} if query is None else query
        if spec not in cache:
            cache[spec] = _read_spec(build_group, spec)
        return cache[spec]

    def _follow(self, e: Edge) -> None:
        """Checks a seeded edge's generator-count condition the first time a
        query follows it."""
        given = self._unchecked.get(e)
        if given is None:
            return
        if not gen_count_necessary(e.src, e.dst, graph=self):
            raise UnknownSpec(
                f"edge {given.src} => {given.dst} violates the generator-count condition")
        del self._unchecked[e]

    # -- closure query ---------------------------------------------------

    def implies(self, src: str, dst: str) -> dict:
        """Reflexive-transitive closure over seeded plus quotient edges.

        Returns {"holds": True, "path": [...]} or {"holds": "unknown", "path": []},
        and raises UnknownSpec when src or dst names no group.  The ends are
        not built: a src outside dst's reach set is "unknown" at once.
        """
        from .catalog import spec_order

        src = self._resolve(src)
        dst = self._resolve(dst)
        # a spec that names no group raises here
        orders = dict(self._orders)
        for spec in (src, dst):
            orders[spec] = _read_spec(spec_order, spec)
        if src == dst:
            return {"holds": True, "path": []}
        if src not in self._reach(dst, orders):
            return {"holds": "unknown", "path": []}
        orders = dict(sorted(orders.items()))
        query: dict[str, Group] = {}
        frontier = [src]
        seen = {src: None}
        while frontier:
            nxt = []
            for node in frontier:
                outs = self._out.get(node, []) + self._quotient_edges(node, orders, query)
                for e in outs:
                    if e.dst not in seen:
                        self._follow(e)
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

    def _reach(self, dst: str, orders: dict) -> set[str]:
        """The least set of specs in `orders` that holds dst and each spec with
        a seeded edge into it or, of order at most QUOTIENT_EDGE_MAX_ORDER, a
        multiple of an order in it: the specs that may have a path to dst."""
        reach, grown = {dst}, True
        while grown:
            grown = {v for v, n in orders.items() if v not in reach and (
                any(e.dst in reach for e in self._out.get(v, ()))
                or n <= QUOTIENT_EDGE_MAX_ORDER and any(n % orders[w] == 0 for w in reach))}
            reach |= grown
        return reach

    def _quotient_edges(self, node: str, orders: dict, query: dict) -> list[Edge]:
        """The edges node => target, for the targets in `orders` (spec ->
        order, in spec order) isomorphic to a quotient of node's group.

        Orders decide what is built: nothing for a node above
        QUOTIENT_EDGE_MAX_ORDER, only the targets whose order divides the
        node's, and the normal subgroups only when such an order is smaller
        than the node's, since G/1 is G itself.  Between two nodes the
        answer is kept for the graph's lifetime, so a target already
        searched from a node is not searched again.
        """
        from .groups import is_isomorphic, normal_subgroups, quotient

        order = orders[node]
        if order > QUOTIENT_EDGE_MAX_ORDER:
            return []
        targets = [t for t, n in orders.items() if t != node and order % n == 0]
        found = {t: self._quotient_of[node, t] for t in targets if (node, t) in self._quotient_of}
        todo = [t for t in targets if t not in found]
        if not todo:
            return [Edge(node, t, "trivial: G => G/N") for t in targets if found[t]]
        G = self._group(node, query)
        normals = normal_subgroups(G) if any(orders[t] < order for t in todo) else []
        if normals is None:
            return []
        formed: dict[int, Group] = {}  # G/N by N's place in normals, built once

        def quotients(k: int):
            """G/N for each normal N of order k."""
            if k == 1:
                yield G
                return
            for i, N in enumerate(normals):
                if N.order == k:
                    if i not in formed:
                        formed[i] = quotient(G, N)[0]
                    yield formed[i]

        for target in todo:
            H = self._group(target, query)
            found[target] = any(is_isomorphic(Q, H) for Q in quotients(order // H.order))
            if node in self._orders and target in self._orders:
                self._quotient_of[node, target] = found[target]
        return [Edge(node, t, "trivial: G => G/N") for t in targets if found[t]]


def _read_spec(read, spec: str):
    """read(spec), where a spec that names no group is UnknownSpec."""
    try:
        return read(spec)
    except UnknownFamily as exc:
        raise UnknownSpec(f"cannot build {spec!r}: {exc.detail}") from exc


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
        src_factors, dst_factors = parse_spec(src), parse_spec(dst)
    except UnknownFamily as exc:
        raise UnknownSpec(str(exc)) from exc
    if len(src_factors) != 1 or len(dst_factors) != 1:
        return False
    (f1, p1), (f2, p2) = src_factors[0], dst_factors[0]
    return (f1, f2) in _REVERSE_FALSE and p1["p"] == p2["p"]


def gen_count_necessary(src: str, dst: str, graph: RealizationGraph | None = None) -> bool:
    """Necessary condition for src => dst: d(dst-group) <= d(src-group)."""
    from .groups import min_generators

    g = graph or default_graph()
    return min_generators(g._group(g._resolve(dst))) <= min_generators(g._group(g._resolve(src)))


def multiplicity_bound(p: int, n: int, k: int) -> MultiplicityBound:
    """Lower bound p^k on the realization multiplicity of F_p[G]^k x| G, G
    cyclic of order p^n, for a prime p, integers n >= 1 (n >= 2 at p = 2)
    and k >= 0, and a p^k of at most MAX_DIGITS decimal digits."""
    p, need = read_prime(p), "need n >= 1 and k >= 0"
    n = read_int(n, BadParams, f"n must be an integer, got n={n}", 2 if p == 2 else 1,
                 out_of_range="need n >= 2 when p = 2" if p == 2 else need)
    k = read_int(k, BadParams, f"k must be an integer, got k={k}", 0, out_of_range=need)
    check_digits(p, k, "p^k")
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


def schultz_bound_applicable(A: FpGModule) -> bool:
    """True when the p^k multiplicity bound applies: A avoids the excluded shape.

    Uses the literal reading (a p^j+1 summand with finite j); the
    all-p-power variant is exposed via excluded_shape_flags.
    """
    return not excluded_shape_flags(A)["literal"]
