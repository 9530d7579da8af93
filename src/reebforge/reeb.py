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
from collections import Counter, defaultdict
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
    non-flat cell, and cells spanning both slabs.  A join list is flat:
    each join is two ints in a row, the later cell on the face and then
    the first one, so the lists hold no tuples.  Faces are filed cell by
    cell in order of lowest rank, and by cell within a rank, each in a
    face map of its own lowest rank that is dropped once no later cell
    can hold the face (see _prepare); so "first" is first in that order,
    and a face's joins always link all of its cells.  Every other field
    lists cells ascending."""

    cells: list[tuple]             # the caller's list, not a copy
    layers: list[Fraction]
    vrank: list[int]
    cmin: list[int]
    slab_cells: list[list[int]]
    slab_joins: list[list[int]]    # per slab, (later, first) flat pairs
    flat_regions: list[list[list[int]]]   # per level, by first cell
    region_of: list[int]           # flat cell -> its region at its level
    flat_joins: list[list[int]]    # per level, (later, first) flat pairs
    cross: list[list[int]]         # spanning both, no vertex at rank i
    cross_at: list[list[int]]      # spanning both, a vertex at rank i


def _ranks(values) -> tuple[list, list[int]]:
    """The distinct values ascending, and the rank of each value among
    them.  Values are numbered by object first, so each distinct object
    is hashed once, however many vertices hold it."""
    objs = list(values)         # held alive, so no two objects share an id
    held = dict(zip(map(id, objs), objs))
    number: dict = {}
    first = [number.setdefault(v, len(number)) for v in held.values()]
    layers = sorted(number)
    rank = [0] * len(layers)
    for r, v in enumerate(layers):
        rank[number[v]] = r
    rank_of = dict(zip(held, [rank[k] for k in first]))
    return layers, list(map(rank_of.__getitem__, map(id, objs)))


def _prepare(cells, values) -> _Sweep:
    """File every cell in the slabs it spans and every face join in its
    slabs or level, in two passes.  The first, in cell order, sorts each
    cell once, files it in its slabs, and queues it with its sorted
    vertices under its lowest rank.  The second takes the queues upward,
    rank by rank, and files each face in a face map of its own lowest
    rank.  Dropping map r once queue r is done is exact: a face whose
    lowest rank is r lies only in cells whose lowest rank is r or less,
    all of them filed by then, so no later cell can hold it.  Only the
    maps of the ranks ahead stay alive, and every later cell on a face
    still joins the face's first cell, a face in three cells included."""
    widths = set(map(len, cells))
    if not (widths <= {3} or widths <= {4}):
        raise ReebError("cells must be all triangles or all tetrahedra")
    tets = widths == {4}
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
    queued, flat_joins, cross, cross_at = (
        [[] for _ in range(L)] for _ in range(4))
    # flat[k] is the k-th flat cell; region_of holds k until the regions
    # are numbered after the second pass
    cmin, flat = [], []
    region_of = [-1] * len(cells)
    for ci, cell in enumerate(cells):
        s = sorted(map(at, cell))
        ra, hi = prank[s[0]], prank[s[-1]]
        cmin.append(ra)
        queue = queued[ra]
        queue.append(ci)
        queue += s
        if hi == ra + 1:
            slab_cells[ra].append(ci)
        elif hi == ra:
            region_of[ci] = len(flat)
            flat.append(ci)
        else:
            mids = prank[s[1]], prank[s[-2]]     # a triangle's b twice
            for k in range(ra, hi):
                slab_cells[k].append(ci)
            for k in range(ra + 1, hi):
                (cross_at if k in mids else cross)[k].append(ci)
    # flat cells joined across a face fall into one region
    regions = UnionFind(len(flat))
    union = regions.union
    maps = defaultdict(dict)        # rank -> its faces' first cells
    for r, queue in enumerate(queued):
        queued[r] = None
        file_face = maps[r].setdefault
        it = iter(queue)
        if tets:
            queue = zip(it, it, it, it, it)
        else:
            # a triangle is read as a tetrahedron with no fourth vertex
            queue = ((ci, a, b, c, None)
                     for ci, a, b, c in zip(it, it, it, it))
        for ci, a, b, c, d in queue:
            if d is not None:
                hi = prank[d]
                ab = (a * n + b) * n
                if hi == r + 1:
                    # one slab, spanned by every face but abc when flat at
                    # r and bcd when flat at hi, where bcd is filed
                    joins = slab_joins[r]
                    first = file_face(ab + c, ci)
                    if first != ci:
                        (flat_joins[r] if prank[c] == r else joins).extend(
                            (ci, first))
                    first = file_face(ab + d, ci)
                    if first != ci:
                        joins += ci, first
                    first = file_face((a * n + c) * n + d, ci)
                    if first != ci:
                        joins += ci, first
                    if prank[b] == hi:
                        first = maps[hi].setdefault((b * n + c) * n + d, ci)
                        if first != ci:
                            flat_joins[hi] += ci, first
                    else:
                        first = file_face((b * n + c) * n + d, ci)
                        if first != ci:
                            joins += ci, first
                    continue
                keys = (ab + c, ab + d, (a * n + c) * n + d,
                        (b * n + c) * n + d)
            else:
                hi = prank[c]
                keys = (a * n + b, a * n + c, b * n + c)
            if hi == r:
                # every face is flat and no slab is spanned
                k = region_of[ci]
                for key in keys:
                    first = file_face(key, ci)
                    if first != ci:
                        if region_of[first] >= 0:
                            union(k, region_of[first])
                        else:
                            flat_joins[r] += ci, first
                continue
            if d is not None:
                rb, rc = prank[b], prank[c]
                faces = zip(keys, (r, r, r, rb), (rc, hi, hi, hi))
            else:
                rb = prank[b]
                faces = zip(keys, (r, r, rb), (rb, hi, hi))
            for key, lo, up in faces:
                first = maps[lo].setdefault(key, ci)
                if first != ci:
                    # every later cell on a face joins the first one
                    join = ci, first
                    if lo == up:
                        flat_joins[lo] += join
                    for k in range(lo, up):
                        slab_joins[k] += join
        del maps[r]
    flat_regions = [[] for _ in range(L)]
    for group in regions.groups(range(len(flat))):
        level = flat_regions[cmin[flat[group[0]]]]
        for k in group:
            region_of[flat[k]] = len(level)
        level.append([flat[k] for k in group])
    return _Sweep(cells, layers, vrank, cmin, slab_cells, slab_joins,
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
            it = iter(sw.slab_joins[i])
            for a, b in zip(it, it):
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
        it = iter(sw.flat_joins[i])
        for a, b in zip(it, it):
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
        if len(below) == 1 or len(above) == 1:
            a, x, y, z = below + above if len(below) == 1 else above + below
            tris.append((put((a, x) if a < x else (x, a), len(pts)),
                         put((a, y) if a < y else (y, a), len(pts)),
                         put((a, z) if a < z else (z, a), len(pts))))
            continue
        a, b = below
        c, d = above
        # the quad's corners run (a, c), (a, d), (b, d), (b, c) round its
        # cycle, adjacent ones sharing a tet face, and it starts at its
        # least corner (min(a, b), min(c, d)); swapping both pairs steps
        # the cycle on by two
        if a > b:
            a, b, c, d = b, a, d, c
        ac = (a, c) if a < c else (c, a)
        ad = (a, d) if a < d else (d, a)
        bd = (b, d) if b < d else (d, b)
        bc = (b, c) if b < c else (c, b)
        if c > d:           # the cycle starts at (a, d)
            ac, ad, bd, bc = ad, bd, bc, ac
        q0, q1, q2, q3 = (put(ac, len(pts)), put(ad, len(pts)),
                          put(bd, len(pts)), put(bc, len(pts)))
        tris += [(q0, q1, q2), (q0, q2, q3)]
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

    Nodes are the level components that are not contracted, numbered by
    value and then by smallest cell.  Each edge runs from its lower node
    to its upper one, a < b, and edges come sorted by (a, b, label).
    """
    sw = _prepare(cells, values)
    pin_set = set(pin_values)
    nodes, edges = [], []
    below_start, below_label = [], []
    labels = {}             # surface slice -> label, for this call only
    for i, below, above, classes, carried in _levels(sw):
        nb, na = len(below), len(above)
        value = sw.layers[i]
        pinned = value in pin_set
        # a regular level component leaves the slice unchanged
        above_label = [below_label[k] if k >= 0 else
                       _slab_label(sw, comp, i, labels)
                       for comp, k in zip(above, carried)]
        above_start = [0] * na
        for cls in classes:
            lo, hi = min(cls), max(cls)
            if (len(cls) == 2 and not pinned and lo < nb <= hi < nb + na
                    and below_label[lo] == above_label[hi - nb]):
                # one slab component on each side, no flat region, and
                # the same label: the edge runs on through this level
                above_start[hi - nb] = below_start[lo]
                continue
            node = len(nodes)
            # a flat region witnesses a singular level component
            nodes.append(ReebNode(value, True, pinned or hi >= nb + na))
            for item in cls:
                if item < nb:
                    edges.append(ReebEdge(below_start[item], node,
                                          below_label[item]))
                elif item < nb + na:
                    above_start[item - nb] = node
        below_start, below_label = above_start, above_label
    # a start node is older than the node that closes its edge
    edges.sort(key=lambda e: (e.a, e.b, e.label))
    return ReebGraph(nodes, edges)


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
    and per vertex and neighbour the label multiset of the edges joining
    them: one pass over the edges (a graph has no loop)."""
    around: list[list] = [[] for _ in range(graph.n)]
    labels: list[dict[int, Counter]] = [{} for _ in range(graph.n)]
    values = graph.values
    for e in graph.edges:
        u, v = e.u, e.v
        around[u].append((values[v], e.label))
        around[v].append((values[u], e.label))
        labels[u].setdefault(v, Counter())[e.label] += 1
        labels[v][u] = labels[u][v]
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
    inverse: dict[int, int] = {}

    def consistent(v, w):
        # no entry means no edge: every stored multiset is non-empty, so
        # a mapped pair can differ only where one side has an edge
        return (all(adj_g[w].get(mapping[u]) == lab
                    for u, lab in adj_a[v].items() if u in mapping) and
                all(adj_a[v].get(inverse[x]) == lab
                    for x, lab in adj_g[w].items() if x in inverse))

    # depth first, without recursion: left[k] holds the candidates that
    # order[k] has still to try; with none left, order[k - 1] tries its next
    left: list = []
    while len(mapping) < len(order):
        k = len(mapping)
        if len(left) == k:
            left.append(iter(candidates[order[k]]))
        v = order[k]
        w = next((w for w in left[k]
                  if w not in inverse and consistent(v, w)), None)
        if w is not None:
            mapping[v] = w
            inverse[w] = v
            continue
        left.pop()
        if not left:
            return IsoResult(False, mismatch="no value- and label-preserving "
                                             "bijection exists")
        del inverse[mapping.pop(order[k - 1])]
    return IsoResult(True, dict(mapping))
