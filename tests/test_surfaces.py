import pytest
from hypothesis import given, settings, strategies as st

from reebforge.canonical import canonical_mesh
from reebforge.graphs import euler_char
from reebforge.surfaces import (MeshError, SurfaceMesh, classify_labels,
                                classify_surface, connected_sum_label,
                                connected_sum_mesh, mesh_from_dict,
                                mesh_to_dict, mesh_to_off, validate_surface)

TETRA = SurfaceMesh(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])

# the classical 7-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3}
# mod 7; chi = 7 - 21 + 14 = 0, orientation propagation succeeds
TORUS7 = SurfaceMesh(7, [((i) % 7, (i + 1) % 7, (i + 3) % 7)
                         for i in range(7)] +
                        [((i) % 7, (i + 2) % 7, (i + 3) % 7)
                         for i in range(7)])


def test_tetrahedron_is_sphere():
    comps = classify_surface(TETRA)
    assert len(comps) == 1
    assert comps[0].label == 0 and comps[0].chi == 2 and comps[0].orientable


def test_seven_vertex_torus():
    comps = classify_surface(TORUS7)
    assert len(comps) == 1
    assert comps[0].chi == 0 and comps[0].orientable
    assert comps[0].label == 1


def test_boundary_cycles_with_allow_boundary():
    # annulus: inner ring 0-1-2, outer ring 3-4-5
    annulus = SurfaceMesh(6, [(0, 1, 3), (1, 4, 3), (1, 2, 4), (2, 5, 4),
                              (2, 0, 5), (0, 3, 5)])
    disk = SurfaceMesh(3, [(0, 1, 2)])
    for mesh, cycles, chi in ((annulus, 2, 0), (disk, 1, 1)):
        (comp,) = classify_surface(mesh, allow_boundary=True)
        assert (comp.boundary_cycles, comp.chi) == (cycles, chi)


def test_disjoint_union_classifies_per_component():
    rp2 = canonical_mesh(-1)
    klein = canonical_mesh(-2)
    tris = list(rp2.triangles)
    tris += [(a + rp2.nv, b + rp2.nv, c + rp2.nv)
             for a, b, c in klein.triangles]
    both = SurfaceMesh(rp2.nv + klein.nv, tris)
    assert classify_labels(both) == [-2, -1]


def test_nonmanifold_edge_detected():
    bad = SurfaceMesh(5, list(TETRA.triangles) + [(0, 1, 4)])
    with pytest.raises(MeshError, match="3 triangles"):
        classify_surface(bad)


def test_degenerate_triangle_detected():
    with pytest.raises(MeshError, match="degenerate"):
        validate_surface(SurfaceMesh(3, [(0, 1, 1)]))


def test_pinched_link_detected():
    # two triangle fans sharing only a vertex cannot close up
    tris = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (0, 4, 5), (0, 5, 6), (0, 6, 4)]
    with pytest.raises(MeshError):
        classify_surface(SurfaceMesh(7, tris + [(1, 2, 3), (4, 5, 6)]))


@pytest.mark.parametrize("r1,r2,expect", [
    (0, 0, 0),
    (1, 2, 3),
    (-1, 1, -3),
    (-1, -1, -2),
    (-2, -3, -5),
    (2, -1, -5),
])
def test_connected_sum_label_table(r1, r2, expect):
    assert connected_sum_label(r1, r2) == expect
    # chi bookkeeping holds in every case
    assert euler_char(expect) == euler_char(r1) + euler_char(r2) - 2


@pytest.mark.parametrize("r1,r2", [(0, 0), (1, 1), (-1, -1), (1, 2),
                                   (-1, 1), (-2, 1), (-1, -2)])
def test_connected_sum_mesh_matches_label(r1, r2):
    # oracle: build meshes, sum them, classify the result independently
    m1 = canonical_mesh(r1)
    m2 = canonical_mesh(r2)
    out = connected_sum_mesh(m1, m1.spares[0], m2, m2.spares[0])
    assert classify_labels(out) == [connected_sum_label(r1, r2)]


def test_connected_sum_chi_drop():
    m1 = canonical_mesh(1)
    m2 = canonical_mesh(-2)
    out = connected_sum_mesh(m1, m1.spares[0], m2, m2.spares[0])
    c1 = classify_surface(m1)[0].chi
    c2 = classify_surface(m2)[0].chi
    assert classify_surface(out)[0].chi == c1 + c2 - 2


def test_sum_keeps_spares():
    m1 = canonical_mesh(1)
    m2 = canonical_mesh(1)
    out = connected_sum_mesh(m1, m1.spares[0], m2, m2.spares[0])
    assert len(out.spares) >= 2
    validate_surface(out)


def test_mesh_json_round_trip():
    m = canonical_mesh(-2)
    m2 = mesh_from_dict(mesh_to_dict(m))
    assert m2.nv == m.nv and m2.triangles == m.triangles


def test_off_export_counts():
    m = canonical_mesh(0)
    off = mesh_to_off(m).splitlines()
    assert off[0] == "OFF"
    nv, nf, _ = map(int, off[1].split())
    assert nv == m.nv and nf == len(m.triangles)


@settings(max_examples=25, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4))
def test_sum_label_chi_property(r1, r2):
    out = connected_sum_label(r1, r2)
    assert euler_char(out) == euler_char(r1) + euler_char(r2) - 2
    if r1 < 0 or r2 < 0:
        assert out < 0
