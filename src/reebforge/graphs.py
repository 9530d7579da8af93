"""Labeled multigraph input model: vertices carry exact rational heights,
edges carry closed-surface labels.

Surface labels are single integers r: r >= 0 encodes the closed orientable
surface of genus r, r < 0 the closed non-orientable surface of genus -r.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
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


def parse_rational(value) -> Fraction:
    """Accept 'p/q' strings, bare integer strings, or ints."""
    if isinstance(value, bool):
        raise GraphError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise GraphError(f"not a rational: {value!r}") from exc
    raise GraphError(f"not a rational: {value!r}")


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

    def vertex_index(self, v) -> int:
        if isinstance(v, int):
            if not 0 <= v < self.n:
                raise GraphError(f"unknown vertex id: {v}")
            return v
        try:
            return self.names.index(str(v))
        except ValueError:
            raise GraphError(f"unknown vertex id: {v!r}") from None

    def incident(self, v: int) -> list[Edge]:
        return [e for e in self.edges if v in (e.u, e.v)]

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
    sits above or below it."""

    vertex: int
    down: list[int]            # labels of edges descending from the vertex
    up: list[int]              # labels of edges ascending from the vertex
    is_extremum: bool

    @property
    def odd_down(self) -> int:
        return sum(1 for r in self.down if is_odd_chi(r))

    @property
    def odd_up(self) -> int:
        return sum(1 for r in self.up if is_odd_chi(r))


def vertex_profile(g: LabeledGraph, v) -> VertexProfile:
    vi = g.vertex_index(v)
    down, up = [], []
    for e in g.edges:
        if vi not in (e.u, e.v):
            continue
        other = e.v if e.u == vi else e.u
        if g.values[other] > g.values[vi]:
            up.append(e.label)
        else:
            down.append(e.label)
    return VertexProfile(vi, sorted(down), sorted(up),
                         is_extremum=(not down or not up))


@dataclass
class VertexDiagnostic:
    vertex: str
    is_extremum: bool
    odd_down: int
    odd_up: int
    ok: bool
    condition: str


@dataclass
class RealizabilityReport:
    ok: bool
    diagnostics: list[VertexDiagnostic] = field(default_factory=list)

    @property
    def failing(self) -> list[VertexDiagnostic]:
        return [d for d in self.diagnostics if not d.ok]

    def summary(self) -> str:
        lines = []
        for d in self.diagnostics:
            status = "ok" if d.ok else "FAIL"
            lines.append(f"  vertex {d.vertex}: {d.condition} [{status}]")
        head = "realizable" if self.ok else "not realizable"
        return head + "\n" + "\n".join(lines)


def check_realizable(g: LabeledGraph) -> RealizabilityReport:
    """Check the parity conditions under which a realization is constructed.

    At a local extremum the number of incident odd-chi labels must be even;
    elsewhere the difference between the odd-chi counts on the descending
    and ascending sides must be even.  Rejection is a normal outcome and
    makes no claim that no realization exists.
    """
    diags = []
    for vi in range(g.n):
        p = vertex_profile(g, vi)
        if p.is_extremum:
            total = p.odd_down + p.odd_up
            ok = total % 2 == 0
            cond = f"extremum, odd-chi incident count {total} must be even"
        else:
            ok = (p.odd_down - p.odd_up) % 2 == 0
            cond = (f"interior, odd-chi down {p.odd_down} minus up "
                    f"{p.odd_up} must be even")
        diags.append(VertexDiagnostic(g.names[vi], p.is_extremum,
                                      p.odd_down, p.odd_up, ok, cond))
    return RealizabilityReport(all(d.ok for d in diags), diags)


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
    names, values = [], []
    index = {}
    for vd in vdocs:
        try:
            name = str(vd["id"])
            val = parse_rational(vd["value"])
        except (KeyError, TypeError) as exc:
            raise GraphError(f"bad vertex record: {vd!r}") from exc
        if name in index:
            raise GraphError(f"duplicate vertex id {name!r}")
        index[name] = len(names)
        names.append(name)
        values.append(val)
    edges = []
    for ed in edocs:
        try:
            u, v, r = str(ed["u"]), str(ed["v"]), ed["r"]
        except (KeyError, TypeError) as exc:
            raise GraphError(f"bad edge record: {ed!r}") from exc
        if u not in index or v not in index:
            raise GraphError(f"edge references unknown vertex: {ed!r}")
        if not isinstance(r, int) or isinstance(r, bool):
            raise GraphError(f"edge label must be an integer: {ed!r}")
        edges.append(Edge(index[u], index[v], r))
    return LabeledGraph(names, values, edges)


def parse_graph(text: str) -> LabeledGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
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
