"""Independent verification: level-set extraction and Reeb graphs of PL
functions on tetrahedral (and, for self-tests, triangle) complexes.

The sweep works on integer ranks of the distinct vertex values.  Every
cell's vertices sit on layer values, so a cell meeting an open slab spans
it; slab and level components come from union-find over cells joined
across shared faces, and each slab component touches exactly one level
component at each end.

A level component is treated as certainly singular when it contains a
cell on which the function is constant (the PL stand-in for a fat
singular fiber); such nodes are never contracted away.  Degree-2 nodes
with the same regular slice label on both sides and no such witness are
contracted, which is this artifact's working definition of an
inessential node.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Edge, LabeledGraph, format_rational
from .surfaces import SurfaceMesh, classify_surface
from .unionfind import UnionFind


class ReebError(ValueError):
    """Raised for invalid extraction inputs (bad slice value, etc.)."""


@dataclass
class ReebNode:
    value: Fraction
    essential: bool
    pinned: bool = False


@dataclass
class ReebEdge:
    a: int
    b: int
    label: int


@dataclass
class ReebGraph:
    nodes: list[ReebNode]
    edges: list[ReebEdge]

    def degree(self, n: int) -> int:
        return sum((e.a == n) + (e.b == n) for e in self.edges)

    def to_labeled_graph(self) -> LabeledGraph:
        names = [f"n{i}" for i in range(len(self.nodes))]
        values = [n.value for n in self.nodes]
        edges = [Edge(e.a, e.b, e.label) for e in self.edges]
        return LabeledGraph(names, values, edges)

    def to_dot(self, name: str = "R") -> str:
        lines = [f"graph {name} {{"]
        for i, n in enumerate(self.nodes):
            label = f"n{i}\\nf={format_rational(n.value)}"
            shape = "doublecircle" if n.essential else "circle"
            lines.append(f'  n{i} [label="{label}", shape={shape}];')
        for e in self.edges:
            lines.append(f'  n{e.a} -- n{e.b} [label="r={e.label}"];')
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> str:
        from .graphs import graph_to_dict
        return json.dumps(graph_to_dict(self.to_labeled_graph()), indent=2)


def _cell_faces(cell):
    if len(cell) == 4:
        a, b, c, d = cell
        return (tuple(sorted((a, b, c))), tuple(sorted((a, b, d))),
                tuple(sorted((a, c, d))), tuple(sorted((b, c, d))))
    a, b, c = cell
    return (tuple(sorted((a, b))), tuple(sorted((b, c))),
            tuple(sorted((a, c))))


@dataclass
class _Sweep:
    """Shared precomputation for one complex; all comparisons during the
    sweep run on integer ranks of the layer values."""

    cells: list[tuple]
    values: list[Fraction]
    layers: list[Fraction]
    vrank: list[int]
    cmin: list[int]
    cmax: list[int]
    shared_faces: list[tuple[int, int, list[int]]]   # (fmin, fmax, cells)


def _prepare(cells, values) -> _Sweep:
    layers = sorted(set(values))
    rank = {v: i for i, v in enumerate(layers)}
    vrank = [rank[v] for v in values]
    cmin, cmax = [], []
    for cell in cells:
        rs = [vrank[v] for v in cell]
        cmin.append(min(rs))
        cmax.append(max(rs))
    fmap: dict[tuple, list[int]] = {}
    for ci, cell in enumerate(cells):
        for f in _cell_faces(cell):
            fmap.setdefault(f, []).append(ci)
    shared = []
    for f, cs in fmap.items():
        if len(cs) >= 2:
            rs = [vrank[v] for v in f]
            shared.append((min(rs), max(rs), cs))
    return _Sweep(list(cells), list(values), layers, vrank, cmin, cmax,
                  shared)


def _components(sw: _Sweep, lo: int, hi: int) -> list[list[int]]:
    """Cells spanning ranks lo..hi, joined across shared faces that span
    them too: level components for lo == hi, slab components for
    hi == lo + 1.  Components come in order of their smallest cell."""
    uf = UnionFind(len(sw.cells))
    for fmin, fmax, cs in sw.shared_faces:
        if fmin <= lo and fmax >= hi:
            for c in cs[1:]:
                uf.union(c, cs[0])
    return uf.groups(c for c in range(len(sw.cells))
                     if sw.cmin[c] <= lo and sw.cmax[c] >= hi)


def _slice_cells(sw: _Sweep, members, level: int):
    """Marching slice of the given cells between ranks level and level+1.

    Returns a closed SurfaceMesh for tetrahedral cells or a segment graph
    (as a 1-complex triangle-free mesh) for triangle cells.
    """
    pts: dict[tuple[int, int], int] = {}

    def pid(u, v):
        key = (u, v) if u < v else (v, u)
        if key not in pts:
            pts[key] = len(pts)
        return pts[key]

    tris = []
    segs = []
    for ci in members:
        cell = sw.cells[ci]
        below = [v for v in cell if sw.vrank[v] <= level]
        above = [v for v in cell if sw.vrank[v] > level]
        if not below or not above:
            continue
        if len(cell) == 3:
            if len(below) == 1:
                a = below[0]
                segs.append((pid(a, above[0]), pid(a, above[1])))
            else:
                a = above[0]
                segs.append((pid(a, below[0]), pid(a, below[1])))
            continue
        if len(below) == 1:
            a = below[0]
            c, d, e = above
            tris.append((pid(a, c), pid(a, d), pid(a, e)))
        elif len(above) == 1:
            a = above[0]
            c, d, e = below
            tris.append((pid(a, c), pid(a, d), pid(a, e)))
        else:
            a, b = below
            c, d = above
            # cyclic quad corners; adjacent corners share a tet face
            corners = [(a, c), (a, d), (b, d), (b, c)]
            keys = [tuple(sorted(k)) for k in corners]
            i0 = keys.index(min(keys))
            q = [pid(*corners[(i0 + j) % 4]) for j in range(4)]
            tris += [(q[0], q[1], q[2]), (q[0], q[2], q[3])]
    if segs:
        return pts, None, segs
    return pts, SurfaceMesh(len(pts), tris), None


def _slab_label(sw: _Sweep, members, level: int) -> int:
    pts, mesh, segs = _slice_cells(sw, members, level)
    if segs is not None:
        # 1-manifold slice: count circles, report count - 1
        uf = UnionFind(len(pts))
        for a, b in segs:
            uf.union(a, b)
        return len(uf.groups(range(len(pts)))) - 1
    comps = classify_surface(mesh)
    if len(comps) != 1:
        raise ReebError(
            f"slab slice split into {len(comps)} pieces; sweep is corrupt")
    return comps[0].label


def reeb_graph_of(cells, values, pin_values=()) -> ReebGraph:
    """Extract the Reeb graph of PL interpolation over the given cells.

    cells are tetrahedra (3-manifold mode) or triangles (self-test mode,
    where edge labels record circle count minus one).  pin_values marks
    level values whose nodes must survive contraction.
    """
    sw = _prepare(cells, values)
    L = len(sw.layers)

    level_comp_of: list[dict[int, int]] = []
    node_values: list[Fraction] = []
    node_pinned: list[bool] = []
    pin_set = set(pin_values)

    for i in range(L):
        mapping = {}
        for comp in _components(sw, i, i):
            nid = len(node_values)
            node_values.append(sw.layers[i])
            pinned = sw.layers[i] in pin_set
            if not pinned:
                for c in comp:
                    if sw.cmin[c] == sw.cmax[c] == i:
                        pinned = True
                        break
            node_pinned.append(pinned)
            for c in comp:
                mapping[c] = nid
        level_comp_of.append(mapping)

    edges = []
    for i in range(L - 1):
        for comp in _components(sw, i, i + 1):
            rep = comp[0]
            edges.append((level_comp_of[i][rep], level_comp_of[i + 1][rep],
                          _slab_label(sw, comp, i)))
    return _contract(node_values, node_pinned, edges)


def _contract(node_values, node_pinned, edges) -> ReebGraph:
    """Remove inessential degree-2 nodes, then renumber deterministically."""
    edges = [list(e) for e in edges]
    alive = [True] * len(node_values)
    incident: dict[int, list[int]] = {i: [] for i in range(len(node_values))}
    for ei, (a, b, _) in enumerate(edges):
        incident[a].append(ei)
        incident[b].append(ei)

    changed = True
    while changed:
        changed = False
        for n in range(len(node_values)):
            if not alive[n] or node_pinned[n]:
                continue
            inc = [ei for ei in incident[n] if edges[ei] is not None]
            if len(inc) != 2:
                continue
            e1, e2 = inc
            if edges[e1][2] != edges[e2][2]:
                continue
            x = edges[e1][0] if edges[e1][1] == n else edges[e1][1]
            y = edges[e2][0] if edges[e2][1] == n else edges[e2][1]
            if x == n or y == n or x == y:
                continue
            label = edges[e1][2]
            edges[e1] = None
            edges[e2] = None
            newe = [x, y, label]
            incident[x].append(len(edges))
            incident[y].append(len(edges))
            edges.append(newe)
            incident[len(edges) - 1] = []
            alive[n] = False
            changed = True

    live_edges = [e for e in edges if e is not None]
    used = sorted({n for n in range(len(node_values)) if alive[n]})
    renum = {n: i for i, n in enumerate(used)}
    degree = {n: 0 for n in used}
    for a, b, _ in live_edges:
        degree[a] += 1
        degree[b] += 1
    nodes = []
    for n in used:
        inc_labels = {e[2] for e in live_edges if n in (e[0], e[1])}
        essential = (node_pinned[n] or degree[n] != 2 or
                     len(inc_labels) > 1)
        if degree[n] == 2 and not essential:
            # parallel double edge back to one neighbour, kept to avoid loops
            nb = [e[0] if e[1] == n else e[1]
                  for e in live_edges if n in (e[0], e[1])]
            essential = nb[0] == nb[1]
        nodes.append(ReebNode(node_values[n], essential, node_pinned[n]))
    redges = sorted(
        (ReebEdge(min(renum[a], renum[b]), max(renum[a], renum[b]), l)
         for a, b, l in live_edges),
        key=lambda e: (e.a, e.b, e.label))
    return ReebGraph(nodes, redges)


# ---------------------------------------------------------------------------
# level sets
# ---------------------------------------------------------------------------

@dataclass
class LevelSet:
    mesh: SurfaceMesh
    # slice vertex -> (edge endpoints, exact parameter from the lower end)
    coordinates: list[tuple[int, int, Fraction]]


def level_set_of(cells, values, t: Fraction) -> LevelSet:
    """Marching slice of a tetrahedral complex at a regular value t."""
    layers = sorted(set(values))
    if t in layers:
        raise ReebError(f"{t} is a layer value; pick a value strictly "
                        "between consecutive layers")
    if not layers[0] < t < layers[-1]:
        raise ReebError(f"{t} is outside the function image")
    sw = _prepare(cells, values)
    level = max(i for i, v in enumerate(layers) if v < t)
    members = [c for c in range(len(cells))
               if sw.cmin[c] <= level and sw.cmax[c] >= level + 1]
    pts, mesh, segs = _slice_cells(sw, members, level)
    if mesh is None:
        raise ReebError("level sets of triangle complexes are 1-manifolds; "
                        "no surface to return")
    coords = [None] * len(pts)
    for (u, v), i in pts.items():
        lo, hi = (u, v) if values[u] < values[v] else (v, u)
        s = (t - values[lo]) / (values[hi] - values[lo])
        coords[i] = (lo, hi, s)
    return LevelSet(mesh, coords)


# ---------------------------------------------------------------------------
# labeled isomorphism
# ---------------------------------------------------------------------------

@dataclass
class IsoResult:
    isomorphic: bool
    mapping: dict[int, int] | None = None
    mismatch: str | None = None


def labeled_isomorphic(r: ReebGraph | LabeledGraph,
                       g: LabeledGraph) -> IsoResult:
    """Decide isomorphism preserving exact values, adjacency multiplicity,
    and edge labels.  Values pre-partition the search."""
    a = r.to_labeled_graph() if isinstance(r, ReebGraph) else r
    if a.n != g.n:
        return IsoResult(False, mismatch=f"vertex count {a.n} != {g.n}")
    if sorted(a.values) != sorted(g.values):
        return IsoResult(False, mismatch="value multiset mismatch")
    if len(a.edges) != len(g.edges):
        return IsoResult(
            False, mismatch=f"edge count {len(a.edges)} != {len(g.edges)}")

    def signature(graph, v):
        inc = []
        for e in graph.edges:
            if e.u == v:
                inc.append((graph.values[e.v], e.label))
            elif e.v == v:
                inc.append((graph.values[e.u], e.label))
        return tuple(sorted(inc))

    sig_a = {v: signature(a, v) for v in range(a.n)}
    sig_g = {v: signature(g, v) for v in range(g.n)}
    if sorted(sig_a.values()) != sorted(sig_g.values()):
        # find a concrete witness for the report
        from collections import Counter
        ca, cg = Counter(sig_a.values()), Counter(sig_g.values())
        diff = next(iter((ca - cg) or (cg - ca)))
        deg_a = sorted(len(sig_a[v]) for v in range(a.n))
        deg_g = sorted(len(sig_g[v]) for v in range(g.n))
        if deg_a != deg_g:
            return IsoResult(False, mismatch="degree multiset mismatch")
        return IsoResult(
            False,
            mismatch=f"incident label profile mismatch around {diff}")

    adj_a: dict[tuple[int, int], dict[int, int]] = {}
    adj_g: dict[tuple[int, int], dict[int, int]] = {}
    for store, graph in ((adj_a, a), (adj_g, g)):
        for e in graph.edges:
            key = (min(e.u, e.v), max(e.u, e.v))
            store.setdefault(key, {})
            store[key][e.label] = store[key].get(e.label, 0) + 1

    candidates: dict[int, list[int]] = {}
    for v in range(a.n):
        candidates[v] = [w for w in range(g.n)
                         if g.values[w] == a.values[v]
                         and sig_g[w] == sig_a[v]]
    order = sorted(range(a.n), key=lambda v: len(candidates[v]))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def consistent(v, w):
        for u, x in mapping.items():
            key_a = (min(u, v), max(u, v))
            key_g = (min(x, w), max(x, w))
            if adj_a.get(key_a, {}) != adj_g.get(key_g, {}):
                return False
        return True

    def search(k):
        if k == len(order):
            return True
        v = order[k]
        for w in candidates[v]:
            if w in used or not consistent(v, w):
                continue
            mapping[v] = w
            used.add(w)
            if search(k + 1):
                return True
            del mapping[v]
            used.remove(w)
        return False

    if search(0):
        return IsoResult(True, dict(mapping))
    return IsoResult(False, mismatch="no value- and label-preserving "
                                     "bijection exists")
