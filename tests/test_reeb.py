import functools
from fractions import Fraction as F
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from reebforge.blocks import (build_junction, cylinder_block,
                              elementary_junction, plan_junction)
from reebforge.canonical import canonical_mesh
from reebforge.complexes import surface_prism
from reebforge.graphs import Edge, LabeledGraph
from reebforge.reeb import (ReebEdge, ReebError, ReebGraph, ReebNode,
                            _components, _contract, _prepare, _slice_cells,
                            labeled_isomorphic, level_set_of, reeb_graph_of)
from reebforge.surfaces import classify_labels
from reebforge.unionfind import UnionFind


def bipyramid(p=6):
    """Template sphere mesh: double cone over a p-cycle, with the apexes
    at heights 2 and 0 and the ring at height 1."""
    tris = [(0, 2 + i, 2 + (i + 1) % p) for i in range(p)]
    tris += [(1, 2 + i, 2 + (i + 1) % p) for i in range(p)]
    values = [F(2), F(0)] + [F(1)] * p
    return tris, values


def grid_torus_heights(p=6):
    """Vertical torus as a 2-complex: big circle profile plus a small one."""
    mesh = canonical_mesh(1, 1)
    anchor = mesh.anchor
    heights = [None] * mesh.nv
    P = 6
    for i, (x, y) in enumerate(anchor.points):
        big = min(y, 1 - y)
        small = min(x, 1 - x)
        h = 4 * big + small
        v = anchor.to_mesh[i]
        if heights[v] is None:
            heights[v] = h
    return mesh.triangles, [F(h) for h in heights]


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


def test_no_inessential_degree2_nodes_survive():
    j = elementary_junction("sphere_to_torus", F(0), F(1), F(2))
    r = reeb_graph_of(j.cx.tets, j.values)
    for i, n in enumerate(r.nodes):
        if r.degree(i) == 2 and not n.pinned:
            labels = {e.label for e in r.edges if i in (e.a, e.b)}
            assert len(labels) > 1


def contract_reference(node_values, node_pinned, edges) -> ReebGraph:
    """reeb._contract before its final loop gathered degrees, labels and
    neighbours in one pass (it rescanned every live edge per node), kept
    verbatim as the reference."""
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


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.lists(st.booleans(), min_size=n, max_size=n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                       st.integers(-1, 1)).filter(lambda e: e[0] != e[1]),
             max_size=12))))
def test_contraction_matches_reference(graph):
    # extraction joins a level component to one of the next level, so an
    # edge never returns to its own node; labels in -1..1 make chains,
    # label changes and parallel double edges common
    pinned, edges = graph
    values = [F(i) for i in range(len(pinned))]
    assert _contract(values, pinned, edges) == \
        contract_reference(values, pinned, edges)


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


# ---------------------------------------------------------------------------
# the sweep against a full scan
# ---------------------------------------------------------------------------

def scan_components(cells, values, lo, hi):
    """Reference for `_components`: scans every cell and every shared face
    at each level and slab, as the sweep did before cells and faces were
    bucketed by rank interval."""
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


@functools.lru_cache(maxsize=None)
def sweep_pool():
    """(cells, values, pin values) of small complexes whose own values
    slice them into closed surfaces or circles: criterion-2 junction
    blocks, a cylinder, a prism, and triangle-mode surfaces."""
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
    pool.append(bipyramid() + ((),))
    pool.append(grid_torus_heights() + ((),))
    klein = canonical_mesh(-2, 1)
    pool.append((klein.triangles, [F(v % 5) for v in range(klein.nv)], ()))
    return pool


def _perturbed(values, rng):
    """The same complex under another function: a few layers of random
    integers, or the given values with a random share of vertices moved
    to a new value between two layers."""
    if rng.random() < 0.5:
        top = rng.randint(1, 6)
        return [F(rng.randint(0, top)) for _ in values]
    layers = sorted(set(values))
    mid = (layers[0] + layers[1]) / 2
    return [mid if rng.random() < 0.1 else v for v in values]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 9), st.booleans(), st.integers(0, 2 ** 32))
def test_bucketed_components_match_full_scan(i, perturb, seed):
    cells, values, _ = sweep_pool()[i]
    if perturb:
        values = _perturbed(values, Random(seed))
    sw = _prepare(cells, values)
    for lo in range(len(sw.layers)):
        for hi in (lo, lo + 1)[:len(sw.layers) - lo]:
            assert (_components(sw, lo, hi) ==
                    scan_components(cells, values, lo, hi)), (lo, hi)


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
@given(st.integers(0, 9), st.integers(0, 2 ** 32))
def test_reeb_graph_invariant_under_reordering_and_renumbering(i, seed):
    cells, values, pins = sweep_pool()[i]
    base = reeb_graph_of(cells, values, pin_values=pins)
    cells2, values2 = _presented(cells, values, Random(seed))
    other = reeb_graph_of(cells2, values2, pin_values=pins)
    assert labeled_isomorphic(base, other.to_labeled_graph()).isomorphic
    assert _node_profile(base) == _node_profile(other)


@pytest.mark.parametrize("i", range(7))
def test_level_set_members_match_full_scan(i):
    cells, values, _ = sweep_pool()[i]
    layers = sorted(set(values))
    sw = _prepare(cells, values)
    for level, (lo, hi) in enumerate(zip(layers, layers[1:])):
        t = (lo + hi) / 2
        ls = level_set_of(cells, values, t)
        members = [c for comp in scan_components(cells, values, level,
                                                 level + 1) for c in comp]
        pts, mesh, _ = _slice_cells(sw, sorted(members), level)
        assert ls.mesh.triangles == mesh.triangles
        assert len(ls.coordinates) == len(pts)
        # and the slice does not depend on how the complex is presented
        cells2, values2 = _presented(cells, values, Random(level))
        assert (classify_labels(level_set_of(cells2, values2, t).mesh) ==
                classify_labels(ls.mesh))
