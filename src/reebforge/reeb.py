"""Independent verification: level-set extraction and Reeb graphs of PL
functions on tetrahedral (and, for self-tests, triangle) complexes.

The sweep works on integer ranks of the distinct vertex values.  Every
cell's vertices sit on layer values, so a cell meeting an open slab spans
it.  Slab components come from union-find over cells joined across shared
faces, a level's components are classes of the slab components on either
side and its flat regions (flat cells joined across shared faces), and
each slab component touches exactly one level component at each end.
Each distinct slab slice is classified once per extraction: the slabs of
a product region slice to the same surface.  A slab component of
triangles (the self-test mode) is not sliced: each face joining two of
its triangles is an edge cut by the slab, so it slices to one circle or
arc and its edge gets label 0.  A level set cuts only its own slab.

A level component is treated as certainly singular when it contains a
cell on which the function is constant (the PL stand-in for a fat
singular fiber); such nodes are never contracted away.  Degree-2 nodes
with the same regular slice label on both sides and no such witness are
contracted, which is this artifact's working definition of an
inessential node.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Edge, LabeledGraph, format_rational, graph_to_dict
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
        return json.dumps(graph_to_dict(self.to_labeled_graph()), indent=2)


@dataclass
class _Sweep:
    """Shared precomputation for one complex, on integer ranks of the
    layer values.  Slab s lies between levels s and s + 1; cells, and the
    pairs of cells a shared face joins, are filed in every slab they span.
    Level i keeps what its two slabs miss: its flat regions (flat cells,
    lo == hi == i, joined across the faces two of them share, merged
    while faces are filed), the joins across flat faces that touch a
    non-flat cell, and cells spanning both slabs."""

    cells: list[tuple]
    layers: list[Fraction]
    vrank: list[int]
    cmin: list[int]
    slab_cells: list[list[int]]
    slab_joins: list[list[tuple[int, int]]]
    flat_regions: list[list[list[int]]]   # per level, by first cell
    region_of: list[int]           # flat cell -> its region at its level
    flat_joins: list[list[tuple[int, int]]]
    cross: list[list[int]]         # spanning both, no vertex at rank i
    cross_at: list[list[int]]      # spanning both, a vertex at rank i


def _ranks(values) -> tuple[list, list[int]]:
    """The distinct values ascending, and the rank of each value among
    them.  Each value is hashed once, by numbering it on first sight."""
    number: dict = {}
    first = [number.setdefault(v, len(number)) for v in values]
    layers = sorted(number)
    rank = [0] * len(layers)
    for r, v in enumerate(layers):
        rank[number[v]] = r
    return layers, [rank[k] for k in first]


def _prepare(cells, values) -> _Sweep:
    layers, vrank = _ranks(values)
    n, L = len(vrank), len(layers)
    # number the vertices by (rank, id): a cell sorted by that position
    # lists its ranks ascending, and so does each of its faces
    order = sorted(range(n), key=vrank.__getitem__)
    pos = [0] * n
    for p, v in enumerate(order):
        pos[v] = p
    prank = [vrank[v] for v in order]
    at = pos.__getitem__
    slab_cells, slab_joins = ([[] for _ in range(L - 1)] for _ in range(2))
    flat_cells, flat_joins, cross, cross_at = (
        [[] for _ in range(L)] for _ in range(4))
    cmin, first_cell = [], {}
    file_face = first_cell.setdefault
    # flat cells joined across a face fall into one region; region_of
    # marks the flat cells here and numbers their regions after the pass
    regions = UnionFind(len(cells))
    union = regions.union
    region_of = [-1] * len(cells)
    for ci, cell in enumerate(cells):
        s = sorted(map(at, cell))
        if len(s) == 4:
            a, b, c, d = s
            ra, hi = prank[a], prank[d]
            ab = (a * n + b) * n
            keys = (ab + c, ab + d, (a * n + c) * n + d, (b * n + c) * n + d)
        else:
            a, b, c = s
            ra, hi = prank[a], prank[c]
            keys = (a * n + b, a * n + c, b * n + c)
        cmin.append(ra)
        if ra == hi:
            # every face is flat and no slab is spanned
            region_of[ci] = 0
            flat_cells[ra].append(ci)
            for key in keys:
                first = file_face(key, ci)
                if first != ci:
                    if region_of[first] >= 0:
                        union(ci, first)
                    else:
                        flat_joins[ra].append((ci, first))
            continue
        if len(s) == 4:
            rb, rc = prank[b], prank[c]
            faces = zip(keys, (ra, ra, ra, rb), (rc, hi, hi, hi))
            mids = (rb, rc)
        else:
            rb = prank[b]
            faces = zip(keys, (ra, ra, rb), (rb, hi, hi))
            mids = (rb,)
        for k in range(ra, hi):
            slab_cells[k].append(ci)
        for k in range(ra + 1, hi):
            (cross_at if k in mids else cross)[k].append(ci)
        for key, lo, up in faces:
            first = file_face(key, ci)
            if first != ci:
                # every later cell on a face joins the first one
                join = (ci, first)
                if lo == up:
                    flat_joins[lo].append(join)
                for k in range(lo, up):
                    slab_joins[k].append(join)
    flat_regions = [regions.groups(fc) for fc in flat_cells]
    for level in flat_regions:
        for j, region in enumerate(level):
            for c in region:
                region_of[c] = j
    return _Sweep(list(cells), layers, vrank, cmin, slab_cells, slab_joins,
                  flat_regions, region_of, flat_joins, cross, cross_at)


def _levels(sw: _Sweep):
    """Yield (i, below, above, classes, carried) for each level i upward.
    below and above are the components of slabs i - 1 and i (cells joined
    across faces spanning the slab).  classes are level i's components,
    the quotient of below, above and the flat regions at i through cells
    spanning both slabs and flat faces with a non-flat cell: lists of
    items, k standing for below[k], len(below) + k for above[k], and
    len(below) + len(above) + k for the flat region sw.flat_regions[i][k].
    carried[k] is the component of slab i - 1 with the cells and slice of
    above[k] (its level component has no vertex at rank i), or -1.  All
    come in order of smallest cell."""
    n, L = len(sw.cells), len(sw.layers)
    cmin, region_of = sw.cmin, sw.region_of
    uf = UnionFind(n)
    parent = uf.parent
    below, below_of, above_of = [], [0] * n, [0] * n
    for i in range(L):
        above = []
        if i < L - 1:
            members = sw.slab_cells[i]
            # a face's cells span at least its ranks, so every join stays
            # inside the slab, and resetting the slab's cells suffices
            for c in members:
                parent[c] = c
            for a, b in sw.slab_joins[i]:
                uf.union(a, b)
            above = uf.groups(members)
            for k, comp in enumerate(above):
                for c in comp:
                    above_of[c] = k
        nb, na = len(below), len(above)
        regions = sw.flat_regions[i]
        items = UnionFind(nb + na + len(regions))
        union = items.union
        at_rank = [len(comp) for comp in below]
        for c in sw.cross[i]:           # all else has a vertex at rank i
            at_rank[below_of[c]] -= 1
            union(below_of[c], nb + above_of[c])
        for c in sw.cross_at[i]:
            union(below_of[c], nb + above_of[c])
        for a, b in sw.flat_joins[i]:
            # each join here touches a non-flat cell
            union(nb + na + region_of[a] if region_of[a] >= 0 else
                  below_of[a] if cmin[a] < i else nb + above_of[a],
                  nb + na + region_of[b] if region_of[b] >= 0 else
                  below_of[b] if cmin[b] < i else nb + above_of[b])
        firsts = [comp[0] for comp in below + above + regions]
        classes = items.groups(sorted(range(len(firsts)),
                                      key=firsts.__getitem__))
        carried = [below_of[c] if cmin[c] < i and not at_rank[below_of[c]]
                   else -1 for c in (comp[0] for comp in above)]
        yield i, below, above, classes, carried
        below = above
        below_of, above_of = above_of, below_of


def _slice_cells(cells, vrank, members, level: int):
    """Marching slice of the given tetrahedra between ranks level and
    level + 1.

    Returns (pts, mesh): pts numbers the cut edges (u, v), u < v, in
    order of first use, and mesh is the closed SurfaceMesh on them.
    """
    pts: dict[tuple[int, int], int] = {}
    put = pts.setdefault
    tris = []
    for ci in members:
        cell = cells[ci]
        below, above = [], []
        for v in cell:
            if vrank[v] <= level:
                below.append(v)
            else:
                above.append(v)
        if not below or not above:
            continue
        if len(below) == 1:
            a, others = below[0], above
        elif len(above) == 1:
            a, others = above[0], below
        else:
            a, b = below
            c, d = above
            # the quad's corners run (a, c), (a, d), (b, d), (b, c) round
            # its cycle, adjacent ones sharing a tet face, and it starts at
            # its least corner (min(a, b), min(c, d)); swapping both pairs
            # steps the cycle on by two
            if a > b:
                a, b, c, d = b, a, d, c
            q = ((a, d), (b, d), (b, c), (a, c)) if c > d else \
                ((a, c), (a, d), (b, d), (b, c))
            q0, q1, q2, q3 = [put((u, v) if u < v else (v, u), len(pts))
                              for u, v in q]
            tris += [(q0, q1, q2), (q0, q2, q3)]
            continue
        tris.append(tuple([put((a, x) if a < x else (x, a), len(pts))
                           for x in others]))
    return pts, SurfaceMesh(len(pts), tris)


def _slab_label(sw: _Sweep, members, level: int, labels: dict) -> int:
    """Label of the slice of members; labels holds those of the surface
    slices already classified, keyed by what classify_surface reads."""
    if len(sw.cells[members[0]]) == 3:
        # one circle or arc: see the module docstring
        return 0
    pts, mesh = _slice_cells(sw.cells, sw.vrank, members, level)
    key = (mesh.nv, tuple(mesh.triangles))
    label = labels.get(key)
    if label is None:
        comps = classify_surface(mesh)
        if len(comps) != 1:
            raise ReebError(
                f"slab slice split into {len(comps)} pieces; sweep is corrupt")
        label = labels[key] = comps[0].label
    return label


def reeb_graph_of(cells, values, pin_values=()) -> ReebGraph:
    """Extract the Reeb graph of PL interpolation over the given cells.

    cells are tetrahedra (3-manifold mode) or triangles (self-test mode,
    where every edge gets label 0 by construction).  pin_values marks
    level values whose nodes must survive contraction.
    """
    sw = _prepare(cells, values)
    pin_set = set(pin_values)
    node_values, node_pinned, edges = [], [], []
    below_node, below_label = [], []
    labels = {}             # surface slice -> label, for this call only
    for i, below, above, classes, carried in _levels(sw):
        nb, na = len(below), len(above)
        node_of = [0] * (nb + na + len(sw.flat_regions[i]))
        for cls in classes:
            nid = len(node_values)
            node_values.append(sw.layers[i])
            # a flat region witnesses a singular level component
            node_pinned.append(sw.layers[i] in pin_set or
                               max(cls) >= nb + na)
            for item in cls:
                node_of[item] = nid
        edges += zip(below_node, node_of[:nb], below_label)
        below_node = node_of[nb:nb + na]
        # a regular level component leaves the slice unchanged
        below_label = [below_label[k] if k >= 0 else
                       _slab_label(sw, comp, i, labels)
                       for comp, k in zip(above, carried)]
    return _contract(node_values, node_pinned, edges)


def _contract(node_values, node_pinned, edges) -> ReebGraph:
    """Remove inessential degree-2 nodes, then renumber deterministically."""
    edges = [list(e) for e in edges]
    alive = [True] * len(node_values)
    incident: dict[int, list[int]] = {i: [] for i in range(len(node_values))}
    for ei, (a, b, _) in enumerate(edges):
        incident[a].append(ei)
        incident[b].append(ei)

    # contracting n keeps the degree and edge labels of every other node;
    # it can only make a neighbour's two ends meet, which blocks that
    # neighbour and never unblocks one, so one pass reaches the fixpoint
    for n in range(len(node_values)):
        if node_pinned[n]:
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
        alive[n] = False

    live_edges = [e for e in edges if e is not None]
    used = [n for n in range(len(node_values)) if alive[n]]
    renum = {n: i for i, n in enumerate(used)}
    # (neighbour, label) per edge end, gathered in one pass
    around: dict[int, list] = {n: [] for n in used}
    for a, b, label in live_edges:
        around[a].append((b, label))
        around[b].append((a, label))
    nodes = []
    for n in used:
        inc = around[n]
        # a parallel double edge back to one neighbour is kept to avoid loops
        essential = (node_pinned[n] or len(inc) != 2 or
                     inc[0][1] != inc[1][1] or inc[0][0] == inc[1][0])
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
    """Marching slice of a tetrahedral complex at a regular value t.  Only
    the cells of t's slab are cut; nothing else of the sweep is built."""
    if any(len(cell) == 3 for cell in cells):
        raise ReebError("level sets of triangle complexes are 1-manifolds; "
                        "no surface to return")
    layers, vrank = _ranks(values)
    if t in layers:
        raise ReebError(f"{t} is a layer value; pick a value strictly "
                        "between consecutive layers")
    if not layers[0] < t < layers[-1]:
        raise ReebError(f"{t} is outside the function image")
    level = max(i for i, v in enumerate(layers) if v < t)
    # a cell is cut exactly when it spans the slab
    pts, mesh = _slice_cells(cells, vrank, range(len(cells)), level)
    coords = []
    for u, v in pts:                # in the order pts numbers them
        lo, hi = (u, v) if values[u] < values[v] else (v, u)
        coords.append((lo, hi, (t - values[lo]) / (values[hi] - values[lo])))
    return LevelSet(mesh, coords)


# ---------------------------------------------------------------------------
# labeled isomorphism
# ---------------------------------------------------------------------------

@dataclass
class IsoResult:
    isomorphic: bool
    mapping: dict[int, int] | None = None
    mismatch: str | None = None


def _incidence(graph: LabeledGraph):
    """Per vertex, the sorted (neighbour value, label) pairs of its edges,
    and per ordered pair of joined vertices the label multiset of the
    edges joining them: one pass over the edges (a graph has no loop)."""
    around: list[list] = [[] for _ in range(graph.n)]
    labels: dict[tuple[int, int], Counter] = {}
    values = graph.values
    for e in graph.edges:
        u, v = e.u, e.v
        around[u].append((values[v], e.label))
        around[v].append((values[u], e.label))
        labels.setdefault((u, v), Counter())[e.label] += 1
        labels[v, u] = labels[u, v]
    return [tuple(sorted(inc)) for inc in around], labels


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

    sig_a, adj_a = _incidence(a)
    sig_g, adj_g = _incidence(g)
    if sorted(sig_a) != sorted(sig_g):
        # find a concrete witness for the report
        ca, cg = Counter(sig_a), Counter(sig_g)
        diff = next(iter((ca - cg) or (cg - ca)))
        if sorted(map(len, sig_a)) != sorted(map(len, sig_g)):
            return IsoResult(False, mismatch="degree multiset mismatch")
        return IsoResult(
            False,
            mismatch=f"incident label profile mismatch around {diff}")

    index: dict[tuple, list[int]] = {}
    for w in range(g.n):
        index.setdefault((g.values[w], sig_g[w]), []).append(w)
    candidates = [index.get(key, []) for key in zip(a.values, sig_a)]
    order = sorted(range(a.n), key=lambda v: len(candidates[v]))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def consistent(v, w):
        # no entry means no edge: every stored multiset is non-empty
        return all(adj_a.get((u, v)) == adj_g.get((x, w))
                   for u, x in mapping.items())

    # depth first, without recursion: left[k] holds the candidates that
    # order[k] has still to try; with none left, order[k - 1] tries its next
    left: list = []
    while len(mapping) < len(order):
        k = len(mapping)
        if len(left) == k:
            left.append(iter(candidates[order[k]]))
        v = order[k]
        w = next((w for w in left[k]
                  if w not in used and consistent(v, w)), None)
        if w is not None:
            mapping[v] = w
            used.add(w)
            continue
        left.pop()
        if not left:
            return IsoResult(False, mismatch="no value- and label-preserving "
                                             "bijection exists")
        used.remove(mapping.pop(order[k - 1]))
    return IsoResult(True, dict(mapping))
