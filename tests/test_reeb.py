import functools
from dataclasses import dataclass, fields
from fractions import Fraction
from fractions import Fraction as F
from itertools import combinations
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from reebforge import reeb
from reebforge.assembly import assemble
from reebforge.blocks import (build_junction, cylinder_block,
                              elementary_junction, plan_junction)
from reebforge.canonical import canonical_mesh
from reebforge.complexes import TetComplex, manifold_census, surface_prism
from reebforge.corpus import random_graph, realizable_corpus
from reebforge.graphs import Edge, GraphError, LabeledGraph
from reebforge.reeb import (IsoResult, LevelSet, ReebEdge, ReebError,
                            ReebGraph, ReebNode, _levels, _prepare, _ranks,
                            _slab_label, _slice_cells, _Sweep,
                            labeled_isomorphic, level_set_of, reeb_graph_of)
from reebforge.surfaces import (MeshError, SurfaceMesh, classify_labels,
                                classify_surface)
from reebforge.unionfind import UnionFind


def bipyramid(p=6):
    """Template sphere mesh: double cone over a p-cycle, with the apexes
    at heights 2 and 0 and the ring at height 1."""
    tris = [(0, 2 + i, 2 + (i + 1) % p) for i in range(p)]
    tris += [(1, 2 + i, 2 + (i + 1) % p) for i in range(p)]
    values = [F(2), F(0)] + [F(1)] * p
    return tris, values


def grid_torus_heights(p=6):
    """Vertical torus as a 2-complex: big circle profile plus a small one.
    Torus-grid vertex j * P + i sits at (i / P, j / P) in the unit square."""
    mesh = canonical_mesh(1, 1)
    P = 6
    assert mesh.nv == P * P
    heights = []
    for v in range(mesh.nv):
        x, y = F(v % P, P), F(v // P, P)
        heights.append(4 * min(y, 1 - y) + min(x, 1 - x))
    return mesh.triangles, heights


def test_sphere_height_is_two_node_path():
    tris, values = bipyramid()
    r = reeb_graph_of(tris, values)
    assert len(r.nodes) == 2
    assert sorted(n.value for n in r.nodes) == [F(0), F(2)]
    assert len(r.edges) == 1
    assert r.edges[0].label == 0      # one circle fiber


def test_torus_height_has_double_edge():
    tris, values = grid_torus_heights()
    r = reeb_graph_of(tris, values)
    # oracle: brute-force slice component counts at sample values
    layers = sorted(set(values))
    for lo, hi in zip(layers, layers[1:]):
        t = (lo + hi) / 2
        counts = _brute_slice_components(tris, values, t)
        assert counts >= 1
    assert len(r.nodes) == 4
    degs = sorted(r.degree(i) for i in range(len(r.nodes)))
    assert degs == [1, 1, 3, 3]
    # the two saddles are joined by two parallel edges
    saddles = [i for i in range(len(r.nodes)) if r.degree(i) == 3]
    parallel = [e for e in r.edges if {e.a, e.b} == set(saddles)]
    assert len(parallel) == 2


def _brute_slice_components(tris, values, t):
    """Independent oracle: BFS over sliced triangles through shared edges."""
    cut = []
    for i, (a, b, c) in enumerate(tris):
        vs = [values[a], values[b], values[c]]
        if min(vs) < t < max(vs):
            cut.append(i)
    adj = {i: [] for i in cut}
    emap = {}
    for i in cut:
        a, b, c = tris[i]
        for u, v in ((a, b), (b, c), (a, c)):
            if (values[u] < t) != (values[v] < t):
                key = (min(u, v), max(u, v))
                emap.setdefault(key, []).append(i)
    for pair in emap.values():
        for i in range(len(pair) - 1):
            adj[pair[i]].append(pair[i + 1])
            adj[pair[i + 1]].append(pair[i])
    comps = 0
    seen = set()
    for i in cut:
        if i in seen:
            continue
        comps += 1
        stack = [i]
        seen.add(i)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return comps


def test_torus_interval_product_is_single_edge():
    mesh = canonical_mesh(1, 1)
    prod = surface_prism(mesh, 2)
    values = [F(0)] * mesh.nv + [F(1, 2)] * mesh.nv + [F(1)] * mesh.nv
    r = reeb_graph_of(prod.complex.tets, values)
    assert len(r.nodes) == 2 and len(r.edges) == 1
    assert r.edges[0].label == 1


def test_level_set_rejects_layer_values():
    b = cylinder_block(0, F(0), F(1))
    with pytest.raises(ReebError, match="layer"):
        level_set_of(b.cx.tets, b.values, F(1, 2))
    with pytest.raises(ReebError, match="outside"):
        level_set_of(b.cx.tets, b.values, F(3))


def test_level_set_refuses_triangle_complex():
    # refused before any value is looked at, a layer value included
    tris, values = bipyramid()
    for t in (F(1, 2), F(1)):
        with pytest.raises(ReebError) as info:
            level_set_of(tris, values, t)
        assert str(info.value) == ("level sets of triangle complexes are "
                                   "1-manifolds; no surface to return")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 4)),
                max_size=40),
       st.lists(st.integers(0, 2 ** 16), max_size=40))
def test_ranks_match_sorted_set(pairs, repeats):
    # F(2, 2), F(1) and the int 1 are equal values held by distinct
    # objects of two types; a repeat holds one object at several vertices
    values = [F(p, q) for p, q in pairs]
    values += [p // q for p, q in pairs if p % q == 0]
    if values:
        values += [values[k % len(values)] for k in repeats]
    layers = sorted(set(values))
    rank = {v: i for i, v in enumerate(layers)}
    got_layers, got_ranks = _ranks(values)
    assert got_layers == layers
    assert all(x is y for x, y in zip(got_layers, layers))
    assert got_ranks == [rank[v] for v in values]


def test_ranks_share_a_rank_across_objects_and_types():
    half = F(1, 2)
    values = [F(2, 2), half, 1, F(1), half, F(1, 2), 1]
    layers, ranks = _ranks(values)
    assert layers == [F(1, 2), F(1)]
    assert layers[0] is half and layers[1] is values[0]
    assert ranks == [1, 0, 1, 1, 0, 0, 1]


def test_level_set_coordinates_exact():
    b = cylinder_block(0, F(0), F(1))
    ls = level_set_of(b.cx.tets, b.values, F(1, 3))
    assert classify_labels(ls.mesh) == [0]
    for lo, hi, s in ls.coordinates:
        assert 0 < s < 1
        assert b.values[lo] + s * (b.values[hi] - b.values[lo]) == F(1, 3)


def test_slab_slices_agree_along_an_edge():
    # classify at two regular values inside the same Reeb edge
    b = cylinder_block(-2, F(0), F(1))
    for t in (F(1, 5), F(2, 5), F(3, 5)):
        ls = level_set_of(b.cx.tets, b.values, t)
        assert classify_labels(ls.mesh) == [-2]


def test_extraction_deterministic_across_runs():
    j = elementary_junction("sphere_split", F(0), F(1), F(2))
    base = reeb_graph_of(j.cx.tets, j.values, pin_values=[F(1)])
    snap = ([(str(n.value), n.essential) for n in base.nodes],
            [(e.a, e.b, e.label) for e in base.edges])
    for _ in range(9):
        r = reeb_graph_of(j.cx.tets, j.values, pin_values=[F(1)])
        assert ([(str(n.value), n.essential) for n in r.nodes],
                [(e.a, e.b, e.label) for e in r.edges]) == snap


def test_contraction_drops_interior_layers():
    b = cylinder_block(2, F(0), F(1))
    r = reeb_graph_of(b.cx.tets, b.values)
    # the mid layer is inessential and must disappear
    assert len(r.nodes) == 2
    assert all(n.essential for n in r.nodes)


@pytest.mark.parametrize("lo", [F(0), F(-1)])
def test_a_fold_node_is_not_contracted(lo):
    # both apexes below the ring: the ring's level component closes two
    # cones from below and opens nothing above, a fold of degree 2 whose
    # two edges carry one label
    tris, values = bipyramid()
    values[:2] = [F(0), lo]
    r = reeb_graph_of(tris, values)
    assert [n.value for n in r.nodes] == sorted([F(0), lo]) + [F(1)]
    assert [(e.a, e.b, e.label) for e in r.edges] == [(0, 2, 0), (1, 2, 0)]


def contract_reference(node_values, node_pinned, edges) -> ReebGraph:
    """Contraction of inessential degree-2 nodes as a pass over the graph
    of every level component, looped to a fixpoint: an unpinned node with
    one edge below and one above, both of one label, is removed and its
    two edges become one.  A node whose two neighbours lie on the same
    side of it is a fold, or a double edge back to one neighbour, and
    stays."""
    edges = [list(e) for e in edges]
    alive = [True] * len(node_values)
    incident: dict[int, list[int]] = {i: [] for i in range(len(node_values))}
    for ei, (a, b, _) in enumerate(edges):
        incident[a].append(ei)
        incident[b].append(ei)

    def one_side(n, x, y):
        return (node_values[x] < node_values[n]) == \
            (node_values[y] < node_values[n])

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
            if x == n or y == n or one_side(n, x, y):
                continue
            label = edges[e1][2]
            edges[e1] = None
            edges[e2] = None
            newe = [x, y, label]
            incident[x].append(len(edges))
            incident[y].append(len(edges))
            edges.append(newe)
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
            nb = [e[0] if e[1] == n else e[1]
                  for e in live_edges if n in (e[0], e[1])]
            essential = one_side(n, *nb)
        nodes.append(ReebNode(node_values[n], essential, node_pinned[n]))
    redges = sorted(
        (ReebEdge(min(renum[a], renum[b]), max(renum[a], renum[b]), l)
         for a, b, l in live_edges),
        key=lambda e: (e.a, e.b, e.label))
    return ReebGraph(nodes, redges)


# ---------------------------------------------------------------------------
# labeled isomorphism
# ---------------------------------------------------------------------------

def test_isomorphic_after_relabeling():
    g1 = LabeledGraph(["a", "b", "c"], [F(0), F(1), F(2)],
                      [Edge(0, 1, 0), Edge(1, 2, -2)])
    g2 = LabeledGraph(["x", "y", "z"], [F(2), F(0), F(1)],
                      [Edge(1, 2, 0), Edge(2, 0, -2)])
    res = labeled_isomorphic(g1, g2)
    assert res.isomorphic
    assert g2.values[res.mapping[0]] == F(0)


def test_label_perturbation_detected():
    g1 = LabeledGraph(["a", "b"], [F(0), F(1)], [Edge(0, 1, 1)])
    g2 = LabeledGraph(["a", "b"], [F(0), F(1)], [Edge(0, 1, 2)])
    res = labeled_isomorphic(g1, g2)
    assert not res.isomorphic
    assert res.mismatch


def test_multiplicity_matters():
    g1 = LabeledGraph(["a", "b"], [F(0), F(1)],
                      [Edge(0, 1, 0), Edge(0, 1, 0)])
    g2 = LabeledGraph(["a", "b"], [F(0), F(1)], [Edge(0, 1, 0)])
    res = labeled_isomorphic(g1, g2)
    assert not res.isomorphic


def test_value_mismatch_reported():
    g1 = LabeledGraph(["a", "b"], [F(0), F(1)], [Edge(0, 1, 0)])
    g2 = LabeledGraph(["a", "b"], [F(0), F(2)], [Edge(0, 1, 0)])
    res = labeled_isomorphic(g1, g2)
    assert not res.isomorphic
    assert "value" in res.mismatch


def labeled_isomorphic_reference(r: ReebGraph | LabeledGraph,
                                 g: LabeledGraph) -> IsoResult:
    """Decide isomorphism preserving exact values, adjacency multiplicity,
    and edge labels.  Values pre-partition the search.

    (Reference: `reeb.labeled_isomorphic` while it scanned every edge once
    per vertex, kept verbatim.)
    """
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


def _iso_copy(g, rng, kind):
    """A copy of g with its vertices renumbered and renamed, its edges
    shuffled and their ends swapped at random, after one change of the
    given kind: none, a label moved by one, two labels swapped, a value
    moved off every neighbour's, one end of an edge moved, an edge
    dropped, an edge doubled or a leaf added.  None when the change leaves
    no graph."""
    values, edges = list(g.values), [(e.u, e.v, e.label) for e in g.edges]
    k = rng.randrange(len(edges))
    u, v, label = edges[k]
    if kind == "mislabeled":
        edges[k] = (u, v, label + rng.choice((-1, 1)))
    elif kind == "swapped":
        j = rng.randrange(len(edges))
        edges[k], edges[j] = (u, v, edges[j][2]), edges[j][:2] + (label,)
    elif kind == "value":
        values[u] = max(values) + 1
    elif kind == "moved":
        edges[k] = (u, rng.randrange(len(values)), label)
    elif kind == "dropped":
        del edges[k]
    elif kind == "doubled":
        edges.append(edges[k])
    elif kind == "grown":
        values.append(values[u] + 1)
        edges.append((u, len(values) - 1, label))
    new_id = list(range(len(values)))
    rng.shuffle(new_id)
    new_values = [None] * len(values)
    for w, x in enumerate(values):
        new_values[new_id[w]] = x
    new_edges = [Edge(*rng.sample((new_id[a], new_id[b]), 2), lab)
                 for a, b, lab in edges]
    rng.shuffle(new_edges)
    try:
        return LabeledGraph([f"x{w}" for w in range(len(values))],
                            new_values, new_edges)
    except GraphError:
        return None


def _hub_cycles(*cycles):
    """Cycles through vertices 0..n-1, even ones at height 0 and odd ones
    at height 1, every odd vertex joined to a hub at height 2: the vertex
    signatures depend only on n, not on how the cycles run."""
    n = sum(map(len, cycles))
    edges = [Edge(c[k], c[(k + 1) % len(c)], 0)
             for c in cycles for k in range(len(c))]
    edges += [Edge(v, n, 0) for v in range(1, n, 2)]
    return LabeledGraph([f"v{v}" for v in range(n + 1)],
                        [F(v % 2) for v in range(n)] + [F(2)], edges)


def test_isomorphism_matches_reference():
    # relabeled copies are isomorphic, and the changed ones (some changes
    # give an isomorphic copy too) reach every mismatch message; two
    # 4-cycles and one 8-cycle on a hub share their vertex signatures,
    # and copies of them tie on values
    two, one = _hub_cycles((0, 1, 2, 3), (4, 5, 6, 7)), _hub_cycles(range(8))
    graphs = [two, one] + [
        random_graph(Random(seed), max_vertices=7, max_edges=9, max_label=2)
        for seed in range(60)]
    cases = [(two, one, "changed"), (one, two, "changed")]
    for kind in ("relabeled", "mislabeled", "swapped", "value", "moved",
                 "dropped", "doubled", "grown"):
        for seed, g in enumerate(graphs):
            other = _iso_copy(g, Random(f"{kind}/{seed}"), kind)
            if other is not None:
                cases.append((g, other, kind))
    seen = set()
    for g, other, kind in cases:
        got = labeled_isomorphic(g, other)
        want = labeled_isomorphic_reference(g, other)
        assert got == want
        assert list((got.mapping or {}).items()) == \
            list((want.mapping or {}).items())
        assert kind != "relabeled" or got.isomorphic
        seen.add(got.mismatch and got.mismatch.split(" ")[0])
    assert seen == {None, "vertex", "value", "edge", "degree", "incident",
                    "no"}


def test_isomorphism_of_a_long_zigzag_needs_no_recursion():
    # paths of 2,000 and 5,000 vertices at heights 0, 1, 0, 1, ...: the
    # search places one vertex per step, deeper than the default recursion
    # limit, and checks each candidate against its mapped neighbours only
    for n in (2000, 5000):
        g = LabeledGraph([f"v{i}" for i in range(n)],
                         [F(i % 2) for i in range(n)],
                         [Edge(i, i + 1, 0) for i in range(n - 1)])
        res = labeled_isomorphic(g, g)
        assert res.isomorphic
        assert res.mapping == {v: v for v in range(n)}


# ---------------------------------------------------------------------------
# the sweep against a full scan
# ---------------------------------------------------------------------------

def scan_components(cells, values, lo, hi):
    """Reference for the level and slab components of `_levels`: scans
    every cell and every shared face at each level and slab, as the sweep
    did before cells and faces were bucketed by rank interval."""
    layers = sorted(set(values))
    rank = {v: i for i, v in enumerate(layers)}
    vrank = [rank[v] for v in values]
    fmap = {}
    for ci, cell in enumerate(cells):
        for f in combinations(sorted(cell), len(cell) - 1):
            fmap.setdefault(f, []).append(ci)
    shared = [(min(vrank[v] for v in f), max(vrank[v] for v in f), cs)
              for f, cs in fmap.items() if len(cs) >= 2]
    uf = UnionFind(len(cells))
    for fmin, fmax, cs in shared:
        if fmin <= lo and fmax >= hi:
            for c in cs[1:]:
                uf.union(c, cs[0])
    return uf.groups(
        c for c, cell in enumerate(cells)
        if min(vrank[v] for v in cell) <= lo and
        max(vrank[v] for v in cell) >= hi)


def touching_flat_regions():
    """A sphere prism over [0, 3] with two triangle prisms of its middle
    segment flattened to 3/2.  Triangles 1 and 37 of the sphere share
    vertex 4 alone and no other triangle has its corners among their five
    vertices, so the flat tets form two regions that meet along the edge
    over vertex 4."""
    sphere = canonical_mesh(0, 1)
    prism = surface_prism(sphere, 3)
    values = [F(j) for j in range(4) for _ in range(sphere.nv)]
    for v in sphere.triangles[1] + sphere.triangles[37]:
        values[prism.vid(v, 1)] = values[prism.vid(v, 2)] = F(3, 2)
    return prism.complex.tets, values, ()


def lifted_junction():
    """The criterion-2 junction from a Klein bottle to two projective
    planes, with its odd-numbered vertices at the singular value lifted
    to 5/4.  No flat cell is left at 1, whose level component has one
    slab component on each side, labeled -2 and -90: a node that the
    contraction rule keeps only for its labels."""
    b = build_junction(plan_junction([-2], [-1, -1]), F(0), F(1), F(2))
    values = [F(5, 4) if v == 1 and k % 2 else v
              for k, v in enumerate(b.values)]
    return b.cx.tets, values, ()


@functools.lru_cache(maxsize=None)
def sweep_pool():
    """(cells, values, pin values) of small complexes whose own values
    slice them into closed surfaces or circles: criterion-2 junction
    blocks, a cylinder, two prisms, triangle-mode surfaces, and last a
    junction with an unpinned label change.  The second prism has a
    level whose two flat regions meet at an edge and share no face."""
    pool = []
    for bottom, top in (((0,), (0, 0)), ((1,), (0, 1)), ((-1,), (-1, 0)),
                        ((-2,), (-1, -1)), ((2,), (1, 1))):
        b = build_junction(plan_junction(list(bottom), list(top)),
                           F(0), F(1), F(2))
        pool.append((b.cx.tets, b.values, (F(1),)))
    b = cylinder_block(-2, F(0), F(1))
    pool.append((b.cx.tets, b.values, ()))
    mesh = canonical_mesh(-1, 1)
    prism = surface_prism(mesh, 3)
    pool.append((prism.complex.tets,
                 [F(k, 3) for k in range(4) for _ in range(mesh.nv)], ()))
    pool.append(touching_flat_regions())
    pool.append(bipyramid() + ((),))
    pool.append(grid_torus_heights() + ((),))
    klein = canonical_mesh(-2, 1)
    pool.append((klein.triangles, [F(v % 5) for v in range(klein.nv)], ()))
    pool.append(lifted_junction())
    return pool


def _perturbed(values, rng, kind=None):
    """The same complex under another function of the given kind, drawn
    when None: "inner" keeps every vertex on the lowest and highest layer
    and redraws the others among a few values strictly between the two;
    "redrawn" is a few layers of random integers; "moved" is the given
    values with a random share of vertices moved to a new value between
    the two lowest layers.  Only "inner" keeps a block's boundary on its
    extreme levels, and so slices every pool entry into closed pieces;
    the other two mostly cut a slice open, which tests error messages."""
    kind = kind or rng.choice(("inner", "inner", "redrawn", "moved"))
    layers = sorted(set(values))
    if kind == "inner":
        lo, hi, k = layers[0], layers[-1], rng.randint(1, 5)
        return [v if v in (lo, hi) else
                lo + (hi - lo) * F(rng.randint(1, k), k + 1) for v in values]
    if kind == "redrawn":
        top = rng.randint(1, 6)
        return [F(rng.randint(0, top)) for _ in values]
    mid = (layers[0] + layers[1]) / 2
    return [mid if rng.random() < 0.1 else v for v in values]


def scan_flat_regions(cells, values, lvl):
    """Reference for the flat regions of `_prepare`: the cells constant at
    layer lvl, joined across the faces they share and never across a
    shared edge or vertex alone."""
    layer = sorted(set(values))[lvl]
    flat = [c for c, cell in enumerate(cells)
            if all(values[v] == layer for v in cell)]
    fmap = {}
    for c in flat:
        for f in combinations(sorted(cells[c]), len(cells[c]) - 1):
            fmap.setdefault(f, []).append(c)
    uf = UnionFind(len(cells))
    for cs in fmap.values():
        for c in cs[1:]:
            uf.union(c, cs[0])
    return uf.groups(flat)


def test_pool_has_flat_regions_meeting_off_a_face():
    cells, values, _ = touching_flat_regions()
    level = sorted(set(values)).index(F(3, 2))
    first, second = scan_flat_regions(cells, values, level)
    shared = ({v for c in first for v in cells[c]} &
              {v for c in second for v in cells[c]})
    assert len(shared) == 2
    # and one level component holds both
    (home,) = scan_components(cells, values, level, level)
    assert set(first + second) < set(home)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10), st.booleans(), st.integers(0, 2 ** 32))
def test_bucketed_components_match_full_scan(i, perturb, seed):
    cells, values, _ = sweep_pool()[i]
    if perturb:
        values = _perturbed(values, Random(seed))
    sw = _prepare(cells, values)
    for lvl, below, above, classes, carried in _levels(sw):
        if lvl + 1 < len(sw.layers):
            assert above == scan_components(cells, values, lvl, lvl + 1), lvl
        assert sw.flat_regions[lvl] == \
            scan_flat_regions(cells, values, lvl), lvl
        parts = below + above + sw.flat_regions[lvl]
        level = [sorted({c for k in cls for c in parts[k]}) for cls in classes]
        assert level == scan_components(cells, values, lvl, lvl), lvl
        # a slab component carries the label of the one below exactly when
        # no cell of its level component has a vertex at this rank
        for comp, k in zip(above, carried):
            home = next(comp_ for comp_ in level if comp[0] in comp_)
            regular = all(sw.vrank[v] != lvl for c in home for v in cells[c])
            assert (k >= 0) == regular, lvl
            assert not regular or below[k] == comp, lvl


def prepare_zip_reference(cells, values) -> _Sweep:
    """(Reference: `reeb._prepare` while it filed every face of every
    cell through one loop over zipped (key, lo, up) triples, kept
    verbatim.)"""
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


def _join_pattern(ranks):
    """How `_prepare` files a cell with the given ascending vertex ranks."""
    ra, hi = ranks[0], ranks[-1]
    if ra == hi:
        return "flat"
    if hi > ra + 1:
        return "multi-slab"
    if len(ranks) == 3:
        return "one-slab triangle"
    if ranks[2] == ra:
        return "abc flat"
    return "bcd flat" if ranks[1] == hi else "all four spanning"


def test_pool_holds_every_one_slab_join_pattern():
    # `_prepare` files the faces of a tet spanning one slab in straight
    # lines, by which of its faces are flat, and all other cells through
    # a loop: the pool holds tets of every pattern and of both paths
    seen = set()
    for cells, values, _ in sweep_pool():
        vrank = _ranks(values)[1]
        seen.update(_join_pattern(sorted(vrank[v] for v in cell))
                    for cell in cells)
    assert seen >= {"abc flat", "bcd flat", "all four spanning",
                    "multi-slab", "flat"}


@pytest.mark.parametrize("i", range(11))
@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_prepare_matches_zip_reference(i, seed):
    cells, values, _ = sweep_pool()[i]
    names = [f.name for f in fields(_Sweep)]
    assert len(names) == 11
    for vals in (values, _perturbed(values, Random(seed))):
        got, want = _prepare(cells, vals), prepare_zip_reference(cells, vals)
        for name in names:
            field, want_field = getattr(got, name), getattr(want, name)
            if name in ("slab_joins", "flat_joins"):
                # `_prepare` files each join as two ints in a row, and
                # files faces by lowest rank, where the reference keeps a
                # tuple and files faces in cell order: the joins agree as
                # unordered pairs
                field = [_unordered(_pairs(joins)) for joins in field]
                want_field = [_unordered(joins) for joins in want_field]
            assert field == want_field, name


def _pairs(joins):
    it = iter(joins)
    return list(zip(it, it))


def _unordered(pairs):
    return sorted((min(p), max(p)) for p in pairs)


@pytest.mark.parametrize("i", range(11))
@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_join_lists_hold_later_first_pairs(i, seed):
    cells, values, _ = sweep_pool()[i]
    for vals in (values, _perturbed(values, Random(seed))):
        sw = _prepare(cells, vals)
        for lists, width in ((sw.slab_joins, 1), (sw.flat_joins, 0)):
            for k, joins in enumerate(lists):
                assert len(joins) % 2 == 0
                for a, b in _pairs(joins):
                    # the cell filed later, by lowest rank and then by
                    # cell, and a distinct cell sharing a face with it
                    # that spans slab k, or that lies in level k
                    assert (sw.cmin[a], a) > (sw.cmin[b], b)
                    face = set(cells[a]) & set(cells[b])
                    assert len(face) == len(cells[a]) - 1
                    ranks = [sw.vrank[v] for v in face]
                    assert min(ranks) <= k and k + width <= max(ranks)
                    assert width or min(ranks) == max(ranks)


@pytest.mark.parametrize("dim", [2, 3])
def test_face_in_three_cells_of_three_queues(dim):
    # one face, (u, v) or (u, v, w) at ranks 2 and 3, in three cells whose
    # lowest ranks are 2, 0 and 1: each is filed from another queue, and
    # the first cell in cell order is not the first to file the face
    face = (3, 4) if dim == 2 else (3, 4, 5)
    cells = [(2,) + face, (0,) + face, (1,) + face]
    values = [F(0), F(1), F(2), F(2), F(3), F(3)][:len(face) + 3]
    sw = _prepare(cells, values)
    assert sorted(sw.cmin) == [0, 1, 2] and sw.cmin[0] == 2
    for lvl, _, above, _, _ in _levels(sw):
        if lvl == 2:
            assert above == [[0, 1, 2]]
        if lvl + 1 < len(sw.layers):
            assert above == scan_components(cells, values, lvl, lvl + 1)
    got = _outcome(reeb_graph_of, cells, values, ())
    assert got == _outcome(sweep_reference, cells, values, ())
    if dim == 2:
        assert isinstance(got, ReebGraph)
    else:
        # three tets bound nothing: the lowest slab's slice is one open
        # triangle, and both sweeps raise on it
        assert got == (MeshError, "boundary edge (0, 1) in closed mesh")


def test_cells_of_two_sizes_are_refused():
    # the sweep reads each queue of cells at one stride
    tris, values = bipyramid()
    with pytest.raises(ReebError, match="all triangles or all tetrahedra"):
        reeb_graph_of(tris + [(0, 1, 2, 3)], values)


# the sweep before level components were quotients of slab components,
# kept verbatim as the oracle of `reeb_graph_of`

@dataclass
class ReferenceSweep:
    """Shared precomputation for one complex; all comparisons during the
    sweep run on integer ranks of the layer values.

    Bucket 2i holds level i and bucket 2i + 1 the slab between levels i
    and i + 1: a cell with ranks lo..hi lies in buckets 2lo..2hi, in
    ascending order, and a face shared by cells lies in the buckets of
    its own ranks, as the pairs of cells it joins."""

    cells: list[tuple]
    values: list[Fraction]
    layers: list[Fraction]
    vrank: list[int]
    cmin: list[int]
    cmax: list[int]
    bucket_cells: list[list[int]]
    bucket_joins: list[list[tuple[int, int]]]
    uf: UnionFind                    # over cells, reset bucket by bucket


def prepare_reference(cells, values) -> ReferenceSweep:
    layers = sorted(set(values))
    rank = {v: i for i, v in enumerate(layers)}
    vrank = [rank[v] for v in values]
    nb = 2 * len(layers) - 1
    bucket_cells: list[list[int]] = [[] for _ in range(nb)]
    bucket_joins: list[list[tuple[int, int]]] = [[] for _ in range(nb)]
    cmin, cmax = [], []
    first_cell: dict[tuple, int] = {}
    for ci, cell in enumerate(cells):
        s = sorted(cell)     # faces of a sorted cell come out sorted
        rs = [vrank[v] for v in s]
        lo, hi = min(rs), max(rs)
        cmin.append(lo)
        cmax.append(hi)
        for k in range(2 * lo, 2 * hi + 1):
            bucket_cells[k].append(ci)
        if len(s) == 4:
            a, b, c, d = s
            faces = ((a, b, c), (a, b, d), (a, c, d), (b, c, d))
        else:
            a, b, c = s
            faces = ((a, b), (b, c), (a, c))
        for f in faces:
            first = first_cell.setdefault(f, ci)
            if first != ci:
                # every later cell on a face joins the first one
                join = (ci, first)
                fr = [vrank[v] for v in f]
                for k in range(2 * min(fr), 2 * max(fr) + 1):
                    bucket_joins[k].append(join)
    return ReferenceSweep(list(cells), list(values), layers, vrank, cmin,
                          cmax, bucket_cells, bucket_joins,
                          UnionFind(len(cells)))


def components_reference(sw: ReferenceSweep, lo: int,
                         hi: int) -> list[list[int]]:
    """Cells spanning ranks lo..hi, joined across shared faces that span
    them too: level components for lo == hi, slab components for
    hi == lo + 1.  Components come in order of their smallest cell."""
    members = sw.bucket_cells[lo + hi]
    # a face's cells span at least its ranks, so every join stays inside
    # the bucket, and resetting the bucket's cells suffices
    parent = sw.uf.parent
    for c in members:
        parent[c] = c
    for a, b in sw.bucket_joins[lo + hi]:
        sw.uf.union(a, b)
    return sw.uf.groups(members)


def sweep_reference(cells, values, pin_values=()) -> ReebGraph:
    """Extract the Reeb graph of PL interpolation over the given cells.

    (Reference: the sweep before level components were taken as
    quotients of slab components and regular levels carried the slab
    label across, kept verbatim.)

    cells are tetrahedra (3-manifold mode) or triangles (self-test mode,
    where edge labels record circle count minus one).  pin_values marks
    level values whose nodes must survive contraction.
    """
    sw = prepare_reference(cells, values)
    L = len(sw.layers)

    level_comp_of: list[dict[int, int]] = []
    node_values: list[Fraction] = []
    node_pinned: list[bool] = []
    pin_set = set(pin_values)

    for i in range(L):
        mapping = {}
        for comp in components_reference(sw, i, i):
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
        for comp in components_reference(sw, i, i + 1):
            rep = comp[0]
            edges.append((level_comp_of[i][rep], level_comp_of[i + 1][rep],
                          _slab_label(sw, comp, i, {})))
    return contract_reference(node_values, node_pinned, edges)


def _outcome(sweep, cells, values, pins):
    """The Reeb graph a sweep returns, or the type and message of what it
    raises."""
    try:
        return sweep(cells, values, pin_values=pins)
    except Exception as exc:
        return type(exc), str(exc)


def _presented(cells, values, rng):
    """The same complex with its cells in a random order, the vertices of
    each cell in a random order, and its vertices renumbered."""
    new_id = list(range(len(values)))
    rng.shuffle(new_id)
    new_values = [None] * len(values)
    for v, x in enumerate(values):
        new_values[new_id[v]] = x
    new_cells = []
    for cell in cells:
        cell = [new_id[v] for v in cell]
        rng.shuffle(cell)
        new_cells.append(tuple(cell))
    rng.shuffle(new_cells)
    return new_cells, new_values


def _node_profile(r):
    return sorted((n.value, n.essential, n.pinned, r.degree(i))
                  for i, n in enumerate(r.nodes))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10), st.integers(0, 2 ** 32))
def test_reeb_graph_invariant_under_reordering_and_renumbering(i, seed):
    cells, values, pins = sweep_pool()[i]
    base = reeb_graph_of(cells, values, pin_values=pins)
    cells2, values2 = _presented(cells, values, Random(seed))
    other = reeb_graph_of(cells2, values2, pin_values=pins)
    assert labeled_isomorphic(base, other.to_labeled_graph()).isomorphic
    assert _node_profile(base) == _node_profile(other)


def _stellar(cells, values, rng, count):
    """count random 1-4 stellar splits: each takes a random tet, appends
    vertex nv at the exact mean of the tet's four values and puts the four
    tets that join nv to the tet's faces in its place and at random places
    in the list, so that a new tet can come first in its components.  The
    PL function stays the same, and so must its census and its Reeb
    graph."""
    cells, values = [tuple(c) for c in cells], list(values)
    for _ in range(count):
        t = rng.randrange(len(cells))
        cell, nv = cells[t], len(values)
        values.append(sum(values[v] for v in cell) / 4)
        cones = [cell[:k] + (nv,) + cell[k + 1:] for k in range(4)]
        cells[t] = cones[0]
        for cone in cones[1:]:
            cells.insert(rng.randrange(len(cells) + 1), cone)
    return cells, values


def _census(cells, values):
    census = manifold_census(TetComplex(len(values), list(cells)))
    return census.fault, census.chi, len(census.boundary)


@functools.lru_cache(maxsize=None)
def subdivision_pool():
    """(cells, values, pin values, census, Reeb graph) of the tetrahedral
    entries of sweep_pool() and of the 2,240-tet manifold of
    realizable_corpus(20260810, 8)[1]."""
    pool = [e for e in sweep_pool() if len(e[0][0]) == 4]
    m = assemble(realizable_corpus(20260810, 8)[1])
    pool.append((m.cx.tets, m.values, ()))
    assert len(pool) == 10
    return [(cells, values, pins, _census(cells, values),
             reeb_graph_of(cells, values, pin_values=pins))
            for cells, values, pins in pool]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 9), st.integers(1, 64), st.integers(0, 2 ** 32))
# the lifted junction, with a new tet first in a slab component that
# crosses its singular level
@example(8, 64, 0)
def test_verdict_invariant_under_stellar_splits(i, count, seed):
    cells, values, pins, census, base = subdivision_pool()[i]
    cells, values = _stellar(cells, values, Random(seed), count)
    assert _census(cells, values) == census
    other = reeb_graph_of(cells, values, pin_values=pins)
    assert labeled_isomorphic(base, other.to_labeled_graph()).isomorphic
    assert _node_profile(base) == _node_profile(other)


@pytest.mark.parametrize("i", range(8))
def test_level_set_members_match_full_scan(i):
    cells, values, _ = sweep_pool()[i]
    layers = sorted(set(values))
    sw = _prepare(cells, values)
    for level, (lo, hi) in enumerate(zip(layers, layers[1:])):
        t = (lo + hi) / 2
        ls = level_set_of(cells, values, t)
        members = [c for comp in scan_components(cells, values, level,
                                                 level + 1) for c in comp]
        pts, mesh = _slice_cells(sw.cells, sw.vrank, sorted(members), level)
        assert ls.mesh.triangles == mesh.triangles
        assert len(ls.coordinates) == len(pts)
        assert ls == level_set_reference(cells, values, t)
        # and the slice does not depend on how the complex is presented
        cells2, values2 = _presented(cells, values, Random(level))
        assert (classify_labels(level_set_of(cells2, values2, t).mesh) ==
                classify_labels(ls.mesh))


def slice_cells_reference(sw: _Sweep, members, level: int):
    """Marching slice of the given cells between ranks level and level+1.

    Returns a closed SurfaceMesh for tetrahedral cells or a segment graph
    (as a 1-complex triangle-free mesh) for triangle cells.

    (Reference: `reeb._slice_cells` before it numbered points without a
    closure and ordered quad corners without sorting them, kept verbatim.)
    """
    pts: dict[tuple[int, int], int] = {}

    def pid(u, v):
        return pts.setdefault((u, v) if u < v else (v, u), len(pts))

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


def level_set_reference(cells, values, t: Fraction) -> LevelSet:
    """Marching slice of a tetrahedral complex at a regular value t.

    (Reference: `reeb.level_set_of` while it built a whole sweep to cut
    one slab, kept verbatim but for the slice, which comes from
    `slice_cells_reference`.)
    """
    layers = sorted(set(values))
    if t in layers:
        raise ReebError(f"{t} is a layer value; pick a value strictly "
                        "between consecutive layers")
    if not layers[0] < t < layers[-1]:
        raise ReebError(f"{t} is outside the function image")
    sw = _prepare(cells, values)
    level = max(i for i, v in enumerate(layers) if v < t)
    pts, mesh, segs = slice_cells_reference(sw, sw.slab_cells[level], level)
    if mesh is None:
        raise ReebError("level sets of triangle complexes are 1-manifolds; "
                        "no surface to return")
    coords = [None] * len(pts)
    for (u, v), i in pts.items():
        lo, hi = (u, v) if values[u] < values[v] else (v, u)
        s = (t - values[lo]) / (values[hi] - values[lo])
        coords[i] = (lo, hi, s)
    return LevelSet(mesh, coords)


def _varied(cells, values, mode, rng):
    """The complex and function of a pool entry under one variation:
    its own values, perturbed values, a new presentation, two vertices of
    a cell identified (cells with a repeated vertex, whose quad corners
    tie), or one to three cells removed."""
    if mode == "perturbed":
        values = _perturbed(values, rng)
    elif mode == "presented":
        cells, values = _presented(cells, values, rng)
    elif mode == "identified":
        u, w = rng.sample(rng.choice(cells), 2)
        cells = [tuple(w if v == u else v for v in cell) for cell in cells]
    elif mode == "removed":
        cells = list(cells)
        for _ in range(rng.randint(1, 3)):
            del cells[rng.randrange(len(cells))]
    return cells, values


def _is_one_circle_or_arc(pts, segs):
    uf = UnionFind(len(pts))
    for a, b in segs:
        uf.union(a, b)
    return len(uf.groups(range(len(pts)))) == 1


@pytest.mark.parametrize("mode", ["own", "perturbed", "presented",
                                  "identified", "removed"])
@pytest.mark.parametrize("i", range(11))
def test_slices_match_reference(i, mode):
    cells, values = _varied(*sweep_pool()[i][:2], mode, Random(f"{i}/{mode}"))
    sw = _prepare(cells, values)
    for lvl, _, above, _, _ in _levels(sw):
        for comp in above:
            want_pts, want_mesh, segs = slice_cells_reference(sw, comp, lvl)
            if segs is not None:
                # a triangle component is labeled without a slice
                assert _is_one_circle_or_arc(want_pts, segs)
                assert _slab_label(sw, comp, lvl, {}) == 0
                continue
            pts, mesh = _slice_cells(sw.cells, sw.vrank, comp, lvl)
            assert list(pts.items()) == list(want_pts.items())
            assert mesh == want_mesh


@settings(max_examples=60, deadline=None)
@given(st.integers(8, 10), st.sampled_from(["own", "perturbed", "presented",
                                            "identified", "removed"]),
       st.integers(0, 2 ** 32))
def test_triangle_slab_components_slice_to_one_circle_or_arc(i, mode, seed):
    cells, values = _varied(*sweep_pool()[i][:2], mode, Random(seed))
    sw = _prepare(cells, values)
    for lvl, _, above, _, _ in _levels(sw):
        for comp in above:
            pts, _, segs = slice_cells_reference(sw, comp, lvl)
            assert _is_one_circle_or_arc(pts, segs)
            assert _slab_label(sw, comp, lvl, {}) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 11),
       st.sampled_from(["own", "perturbed", "inner", "presented"]),
       st.integers(0, 2 ** 32), st.integers(0, 3))
@example(11, "own", 0, 0)
def test_sweep_matches_reference(i, mode, seed, npins):
    cells, values, pins = sweep_pool()[i]
    rng = Random(seed)
    if mode == "perturbed":
        values = _perturbed(values, rng)
    elif mode == "inner":
        values = _perturbed(values, rng, "inner")
    elif mode == "presented":
        cells, values = _presented(cells, values, rng)
    layers = sorted(set(values))
    pins = pins + tuple(rng.sample(layers, min(npins, len(layers))))
    got = _outcome(reeb_graph_of, cells, values, pins)
    assert got == _outcome(sweep_reference, cells, values, pins)
    # the complexes' own functions slice them into closed pieces, and so
    # do "inner" values, which keep the lowest and highest levels
    assert mode == "perturbed" or isinstance(got, ReebGraph)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10), st.booleans(), st.integers(0, 2 ** 32))
def test_sweep_matches_reference_on_corrupt_input(i, identify, seed):
    # a few cells removed, or two vertices made one: both sweeps raise the
    # same error, or return the same graph
    cells, values, pins = sweep_pool()[i]
    rng = Random(seed)
    cells = list(cells)
    if identify:
        u, w = rng.sample(range(len(values)), 2)
        cells = [tuple(w if v == u else v for v in cell) for cell in cells]
    else:
        for _ in range(rng.randint(1, 3)):
            del cells[rng.randrange(len(cells))]
    assert (_outcome(reeb_graph_of, cells, values, pins) ==
            _outcome(sweep_reference, cells, values, pins))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 11),
       st.sampled_from(["own", "perturbed", "inner", "presented"]),
       st.integers(0, 2 ** 32))
@example(11, "own", 0)
def test_no_inessential_degree2_nodes_survive(i, mode, seed):
    cells, values, pins = sweep_pool()[i]
    rng = Random(seed)
    if mode == "perturbed":
        values = _perturbed(values, rng)
    elif mode == "inner":
        values = _perturbed(values, rng, "inner")
    elif mode == "presented":
        cells, values = _presented(cells, values, rng)
    try:
        r = reeb_graph_of(cells, values, pin_values=pins)
    except (ReebError, MeshError):
        # perturbed values may cut a slab's slice open or into pieces
        assert mode == "perturbed"
        return
    value = [n.value for n in r.nodes]
    assert all(value[e.a] != value[e.b] for e in r.edges)
    assert all(n.essential for n in r.nodes)
    for k, n in enumerate(r.nodes):
        # (other end lies below, label) per edge at an unpinned node
        ends = [(value[e.a + e.b - k] < n.value, e.label)
                for e in r.edges if k in (e.a, e.b)]
        if not n.pinned and len(ends) == 2:
            (down0, label0), (down1, label1) = ends
            assert down0 == down1 or label0 != label1


@pytest.mark.parametrize("r", [0, 1, -1, -2])
def test_product_slices_are_classified_once_per_extraction(r, monkeypatch):
    # values rising layer by layer carry no level: every slab is sliced,
    # and the four slices of the product are one surface
    mesh = canonical_mesh(r, 1)
    tets = surface_prism(mesh, 4).complex.tets
    values = [F(j) for j in range(5) for _ in range(mesh.nv)]
    calls = []

    def spy(m):
        calls.append(m)
        return classify_surface(m)

    monkeypatch.setattr(reeb, "classify_surface", spy)
    got = reeb_graph_of(tets, values)
    assert len(calls) == 1
    # the memo lives for one call: a second call classifies afresh
    assert reeb_graph_of(tets, values) == got
    assert len(calls) == 2
    # the reference classifies every slab
    assert sweep_reference(tets, values) == got
    assert len(calls) == 6
    assert [(e.a, e.b, e.label) for e in got.edges] == [(0, 1, r)]
