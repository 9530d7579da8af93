from fractions import Fraction as F

import pytest

from reebforge.blocks import cylinder_block, elementary_junction
from reebforge.canonical import canonical_mesh
from reebforge.complexes import surface_prism
from reebforge.graphs import Edge, LabeledGraph
from reebforge.reeb import (ReebError, labeled_isomorphic, level_set_of,
                            reeb_graph_of)
from reebforge.surfaces import classify_labels


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
