from fractions import Fraction as F

import pytest

from reebforge.assembly import (AssemblyError, Manifold3, assemble,
                                extract_reeb, manifold_from_dict,
                                manifold_to_dict, validate_manifold,
                                verify_realization)
from reebforge.canonical import canonical_mesh
from reebforge.complexes import (cone_complex, euler_characteristic,
                                 merge_complexes)
from reebforge.graphs import Edge, LabeledGraph
from reebforge.reeb import labeled_isomorphic


def make(names, values, edges):
    return LabeledGraph(list(names), [F(v) for v in values],
                        [Edge(*e) for e in edges])


MINIMAL = make("ab", [0, 1], [(0, 1, 0)])
THETA = make("ab", [0, 1], [(0, 1, -1), (0, 1, -1)])


def test_minimal_graph_assembles():
    m = assemble(MINIMAL)
    rep = validate_manifold(m)
    assert rep.ok, rep.summary()
    assert len(m.cx.tets) < 10_000
    r = extract_reeb(m)
    assert len(r.nodes) == 2 and len(r.edges) == 1
    assert r.edges[0].label == 0


def test_minimal_graph_midlevel_slice():
    from reebforge.reeb import level_set_of
    from reebforge.surfaces import classify_labels
    m = assemble(MINIMAL)
    assert F(1, 2) not in set(m.values)
    ls = level_set_of(m.cx.tets, m.values, F(1, 2))
    assert classify_labels(ls.mesh) == [0]


def test_theta_multigraph_round_trip():
    res = verify_realization(THETA)
    assert res.ok, res.detail
    r = res.reeb
    assert len(r.nodes) == 2
    assert sorted(e.label for e in r.edges) == [-1, -1]


def test_rejected_graph_raises():
    bad = make("ab", [0, 1], [(0, 1, -1)])
    with pytest.raises(AssemblyError, match="parity"):
        assemble(bad)


def test_function_range_matches_graph():
    g = make("abc", [0, 2, 5], [(0, 1, 0), (1, 2, 1)])
    m = assemble(g)
    assert min(m.values) == F(0)
    assert max(m.values) == F(5)


def test_every_tet_has_provenance():
    m = assemble(THETA)
    assert len(m.provenance) == len(m.cx.tets)
    kinds = {k for k, _ in m.provenance}
    assert kinds == {"vertex", "edge"}


def test_closed_manifold_chi_zero():
    m = assemble(THETA)
    assert euler_characteristic(m.cx) == 0


def test_interior_vertex_with_genus_edges():
    g = make("abcd", [0, 1, 2, 3],
             [(0, 1, 1), (1, 2, -2), (1, 2, 0), (2, 3, 2)])
    res = verify_realization(g)
    assert res.ok, res.detail


def test_extremum_fold_vertex():
    # degree-2 maximum with two odd labels forces a fold
    g = make("abc", [0, 1, 2], [(0, 1, 0), (1, 2, -1), (1, 2, -1)])
    res = verify_realization(g)
    assert res.ok, res.detail


def test_equal_height_vertices():
    g = make("abcd", [0, 1, 1, 2],
             [(0, 1, 0), (0, 2, 0), (1, 3, 0), (2, 3, 0)])
    res = verify_realization(g)
    assert res.ok, res.detail


def test_deleted_tet_detected():
    m = assemble(MINIMAL)
    broken = Manifold3(m.cx.copy(), list(m.values), list(m.provenance),
                       list(m.vertex_values))
    del broken.cx.tets[7]
    del broken.provenance[7]
    rep = validate_manifold(broken)
    assert not rep.ok
    closed = next(c for c in rep.checks if c[0] == "closed")
    assert not closed[1] and "boundary triangles" in closed[2]


def test_disjoint_union_detected():
    m = assemble(MINIMAL)
    n = m.cx.nv
    tets = list(m.cx.tets) + [tuple(v + n for v in t) for t in m.cx.tets]
    from reebforge.complexes import TetComplex
    double = Manifold3(TetComplex(2 * n, tets),
                       m.values + m.values,
                       m.provenance + m.provenance,
                       list(m.vertex_values))
    rep = validate_manifold(double)
    connected = next(c for c in rep.checks if c[0] == "connected")
    assert not connected[1]


def test_mislabeled_edge_detected():
    res = verify_realization(MINIMAL, mislabel_edge=0)
    assert not res.ok
    assert "isomorphism" in res.detail or "label" in res.detail


def test_extracted_graph_refeeds_to_checker():
    from reebforge.graphs import check_realizable
    res = verify_realization(THETA)
    g = res.reeb.to_labeled_graph()
    assert check_realizable(g).ok


def test_manifold_json_round_trip():
    m = assemble(MINIMAL)
    doc = manifold_to_dict(m)
    m2 = manifold_from_dict(doc)
    assert m2.cx.tets == m.cx.tets
    assert m2.values == m.values
    r1 = extract_reeb(m)
    r2 = extract_reeb(m2)
    assert labeled_isomorphic(r1.to_labeled_graph(),
                              r2.to_labeled_graph()).isomorphic


def test_round_trip_isomorphism_returns_value_preserving_map():
    g = make("abc", [0, 1, 2], [(0, 1, 0), (1, 2, -2)])
    res = verify_realization(g)
    assert res.ok
    iso = labeled_isomorphic(res.reeb, g)
    assert iso.isomorphic
    for node, vertex in iso.mapping.items():
        assert res.reeb.to_labeled_graph().values[node] == g.values[vertex]


def test_assembly_at_refinement_two():
    res = verify_realization(THETA, refinement=2)
    assert res.ok, res.detail


def test_validate_manifold_reports_pinched_wedge():
    # two closed 3-spheres (doubled cones over the sphere) sharing one apex:
    # closed, but the apex link is disconnected and no face joins the two
    sphere = canonical_mesh(0, 1)
    cone = cone_complex(sphere)
    apex = sphere.nv
    ball_double = [(0, v, 1, v) for v in range(sphere.nv)]
    s3, _, _ = merge_complexes([cone, cone], ball_double)
    cx, vmaps, _ = merge_complexes([s3, s3],
                                   [(0, s3.nv - 1, 1, s3.nv - 1)])
    n = len(cx.tets)
    m = Manifold3(cx, [F(0)] * cx.nv, [("vertex", 0)] * n)
    checks = {name: (ok, msg) for name, ok, msg in validate_manifold(m).checks}
    assert checks["closed"][0]
    assert not checks["links"][0]
    assert checks["links"][1] == \
        f"vertex {vmaps[0][s3.nv - 1]} link is disconnected"
    assert checks["connected"] == (False, f"{n // 2}/{n} tetrahedra")
    assert checks["euler"] == (False, "chi = -1")
