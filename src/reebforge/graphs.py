"""Labeled multigraph input model: vertices carry exact rational heights,
edges carry closed-surface labels.

Surface labels are single integers r: r >= 0 encodes the closed orientable
surface of genus r, r < 0 the closed non-orientable surface of genus -r.
"""
from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .unionfind import UnionFind


class GraphError(ValueError):
    """Raised for malformed or inadmissible input graphs."""


def euler_char(r: int) -> int:
    """Euler characteristic of the closed surface encoded by r."""
    return 2 - 2 * r if r >= 0 else 2 + r


def is_odd_chi(r: int) -> bool:
    """True iff the surface has odd Euler characteristic.

    Happens exactly for non-orientable surfaces of odd genus (r odd and
    negative); these are the obstruction currency of the parity checks.
    """
    return r < 0 and abs(r) % 2 == 1


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def brief(value) -> str:
    """repr(value) for a one-line message: past 64 characters, the first
    32 and the length."""
    text = repr(value)
    return text if len(text) <= 64 else \
        f"{text[:32]}... ({len(text)} characters)"


def parse_rational(value) -> Fraction:
    """Accept ints, and strings of an optional sign and digits, optionally
    followed by '/' and digits.  Decimals and exponents are refused, so
    the cost of a value is bounded by its length."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise GraphError(f"not a rational: {brief(value)}") from exc
    raise GraphError(f"not a rational: {brief(value)}")


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class Edge:
    u: int
    v: int
    label: int


@dataclass
class LabeledGraph:
    """Finite connected multigraph with a height per vertex and a surface
    label per edge.  Vertex ids are normalized to 0..n-1; original names
    are kept for reporting and serialization.
    """

    names: list[str]
    values: list[Fraction]
    edges: list[Edge]

    def __post_init__(self):
        self._check()

    @property
    def n(self) -> int:
        return len(self.names)

    def all_sides(self) -> list[tuple[list[tuple[int, int]],
                                      list[tuple[int, int]]]]:
        """Per vertex, the sorted (label, edge index) pairs of its edges
        to lower and to higher far endpoints, in one pass over the edges."""
        down: list[list] = [[] for _ in range(self.n)]
        up: list[list] = [[] for _ in range(self.n)]
        values = self.values
        for ei, e in enumerate(self.edges):
            lo, hi = (e.u, e.v) if values[e.u] < values[e.v] else (e.v, e.u)
            up[lo].append((e.label, ei))
            down[hi].append((e.label, ei))
        return [(sorted(d), sorted(u)) for d, u in zip(down, up)]

    def _check(self):
        if len(self.values) != self.n:
            raise GraphError("vertex name/value length mismatch")
        if len(set(self.names)) != self.n:
            raise GraphError("duplicate vertex id")
        if not self.edges:
            raise GraphError("graph has no edges")
        for e in self.edges:
            if not (0 <= e.u < self.n and 0 <= e.v < self.n):
                raise GraphError(f"edge endpoint out of range: {e}")
            if e.u == e.v:
                raise GraphError(f"loop edge at vertex {self.names[e.u]!r}")
            if self.values[e.u] == self.values[e.v]:
                raise GraphError(
                    f"equal endpoint values on edge {self.names[e.u]!r}-"
                    f"{self.names[e.v]!r}: height must be injective on edges")
        uf = UnionFind(self.n)
        for e in self.edges:
            uf.union(e.u, e.v)
        if len(uf.groups(range(self.n))) != 1:
            raise GraphError("graph is not connected")


@dataclass
class VertexProfile:
    """Incident edge labels of a vertex split by whether the far endpoint
    sits above or below it, and the parity condition they must meet."""

    vertex: str                # the vertex's name
    down: list[int]            # labels of edges descending from the vertex
    up: list[int]              # labels of edges ascending from the vertex

    @property
    def odd_down(self) -> int:
        return sum(1 for r in self.down if is_odd_chi(r))

    @property
    def odd_up(self) -> int:
        return sum(1 for r in self.up if is_odd_chi(r))

    @property
    def is_extremum(self) -> bool:
        return not self.down or not self.up

    @property
    def ok(self) -> bool:
        if self.is_extremum:
            return (self.odd_down + self.odd_up) % 2 == 0
        return (self.odd_down - self.odd_up) % 2 == 0

    @property
    def condition(self) -> str:
        if self.is_extremum:
            return (f"extremum, odd-chi incident count "
                    f"{self.odd_down + self.odd_up} must be even")
        return (f"interior, odd-chi down {self.odd_down} minus up "
                f"{self.odd_up} must be even")


def vertex_profile(g: LabeledGraph, v: int) -> VertexProfile:
    """The profile of v, as check_realizable(g) reports it."""
    return check_realizable(g).diagnostics[v]


@dataclass
class RealizabilityReport:
    diagnostics: list[VertexProfile]

    @property
    def ok(self) -> bool:
        return all(d.ok for d in self.diagnostics)

    @property
    def failing(self) -> list[VertexProfile]:
        return [d for d in self.diagnostics if not d.ok]

    def summary(self) -> str:
        lines = []
        for d in self.diagnostics:
            status = "ok" if d.ok else "FAIL"
            lines.append(f"  vertex {d.vertex}: {d.condition} [{status}]")
        head = "realizable" if self.ok else "not realizable"
        return head + "\n" + "\n".join(lines)


def check_realizable(g: LabeledGraph) -> RealizabilityReport:
    """Check the parity conditions, which every realization satisfies.

    At a local extremum the number of incident odd-chi labels must be even;
    elsewhere the difference between the odd-chi counts on the descending
    and ascending sides must be even.  The conditions are necessary: a
    small neighbourhood N of a vertex's level component is a compact
    3-manifold bounded by the incident surfaces, and chi(dN) = 2 chi(N) is
    even.  So a rejected graph has no realization.
    """
    return RealizabilityReport([
        VertexProfile(name, [label for label, _ in down],
                      [label for label, _ in up])
        for name, (down, up) in zip(g.names, g.all_sides())])


# ---------------------------------------------------------------------------
# parsing / serialization
# ---------------------------------------------------------------------------

def graph_from_dict(doc) -> LabeledGraph:
    if not isinstance(doc, dict):
        raise GraphError("top-level JSON value must be an object")
    try:
        vdocs = doc["vertices"]
        edocs = doc["edges"]
    except (KeyError, TypeError) as exc:
        raise GraphError("missing 'vertices' or 'edges'") from exc
    if type(vdocs) is not list or type(edocs) is not list:
        raise GraphError("graph 'vertices' and 'edges' must be JSON lists")
    names, values = [], []
    index = {}
    for vd in vdocs:
        try:
            name = str(vd["id"])
            val = parse_rational(vd["value"])
        except (KeyError, TypeError) as exc:
            raise GraphError(f"bad vertex record: {brief(vd)}") from exc
        except GraphError as exc:
            raise GraphError(f"vertex {brief(name)}: {exc}") from exc
        if name in index:
            raise GraphError(f"duplicate vertex id {brief(name)}")
        index[name] = len(names)
        names.append(name)
        values.append(val)
    edges = []
    for ed in edocs:
        try:
            u, v, r = str(ed["u"]), str(ed["v"]), ed["r"]
        except (KeyError, TypeError) as exc:
            raise GraphError(f"bad edge record: {brief(ed)}") from exc
        if u not in index or v not in index:
            raise GraphError(f"edge references unknown vertex: {brief(ed)}")
        if not isinstance(r, int) or isinstance(r, bool):
            raise GraphError(f"edge label must be an integer: {brief(ed)}")
        if abs(r) > sys.maxsize:
            raise GraphError(f"edge label out of range: {brief(ed)}")
        edges.append(Edge(index[u], index[v], r))
    return LabeledGraph(names, values, edges)


def parse_graph(text: str) -> LabeledGraph:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested past the decoder's depth
        raise GraphError(f"malformed JSON: {exc}") from exc
    return graph_from_dict(doc)


def graph_to_dict(g: LabeledGraph) -> dict:
    return {
        "vertices": [{"id": g.names[i], "value": format_rational(g.values[i])}
                     for i in range(g.n)],
        "edges": [{"u": g.names[e.u], "v": g.names[e.v], "r": e.label}
                  for e in g.edges],
    }


def serialize_graph(g: LabeledGraph) -> str:
    return json.dumps(graph_to_dict(g), indent=2)


def graph_to_dot(g: LabeledGraph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    for i in range(g.n):
        label = f"{g.names[i]}\\ng={format_rational(g.values[i])}"
        lines.append(f'  v{i} [label="{label}"];')
    for e in g.edges:
        lines.append(f'  v{e.u} -- v{e.v} [label="r={e.label}"];')
    lines.append("}")
    return "\n".join(lines)
