import hashlib

import pytest

from reebforge.canonical import (MAX_MESH_TRIANGLES, canonical_mesh,
                                 mesh_budget_error, mesh_triangles,
                                 solid_for_label)
from reebforge.complexes import (boundary_surface, find_interior_tets,
                                 validate_complex)
from reebforge.graphs import euler_char
from reebforge.surfaces import (MeshError, classify_labels, classify_surface,
                                validate_surface)


@pytest.mark.parametrize("r", list(range(-6, 7)))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_generate_classify_round_trip(r, k):
    mesh = canonical_mesh(r, k)
    comps = classify_surface(mesh)
    assert len(comps) == 1
    assert comps[0].label == r
    assert comps[0].chi == euler_char(r)


def test_canonical_meshes_are_pinned():
    """Vertex counts, triangle lists and spares of every canonical mesh
    for |r| <= 8 at refinements 1-3, byte for byte."""
    h = hashlib.sha256()
    for k in (1, 2, 3):
        for r in range(-8, 9):
            m = canonical_mesh(r, k)
            h.update(repr((r, k, m.nv, m.triangles, m.spares)).encode())
    assert h.hexdigest() == ("1cd8e6ea66e094cb25d96a87f96b678a"
                             "f3c8241538ded0409cb0da1e86e98d96")


def test_solids_are_pinned():
    """Complexes and ends of every even-chi solid for |r| <= 8 at
    refinements 1-2, byte for byte."""
    h = hashlib.sha256()
    for k in (1, 2):
        for r in range(-8, 9):
            if euler_char(r) % 2 == 0:
                s = solid_for_label(r, k)
                h.update(repr((r, k, s.cx.nv, s.cx.tets,
                               [(e.label, e.mesh.triangles, e.bmap)
                                for e in s.ends])).encode())
    assert h.hexdigest() == ("b14cca09a4024bcf066dac449c656f92"
                             "97561b0a8a274dbac0771edcd3c5e590")


@pytest.mark.parametrize("r", list(range(-6, 7)))
def test_generated_spare_disks(r):
    mesh = canonical_mesh(r, 1)
    assert len(mesh.spares) >= 2
    seen = set()
    for s in mesh.spares:
        tri = mesh.triangles[s]
        assert not seen.intersection(tri)
        seen.update(tri)


def test_orientation_propagation_conflicts():
    for r in range(-6, 7):
        comp = classify_surface(canonical_mesh(r, 1))[0]
        assert comp.orientable == (r >= 0)


def test_klein_mesh_example():
    mesh = canonical_mesh(-2, 1)
    comp = classify_surface(mesh)[0]
    assert comp.chi == 0 and not comp.orientable


def test_projective_plane_example():
    mesh = canonical_mesh(-1, 1)
    comp = classify_surface(mesh)[0]
    assert comp.chi == 1 and not comp.orientable


@pytest.mark.parametrize("label", [0, 1, -2, 2, 3, -4])
def test_solids_are_manifolds_with_matching_boundary(label):
    s = solid_for_label(label, 1)
    validate_complex(s.cx)
    bmesh, used = boundary_surface(s.cx)
    assert classify_labels(bmesh) == [label]
    have = sorted(tuple(sorted(used[v] for v in t)) for t in bmesh.triangles)
    (end,) = s.ends
    want = sorted(tuple(sorted(end.bmap[v] for v in t))
                  for t in end.mesh.triangles)
    assert have == want


def test_solids_reject_odd_chi():
    with pytest.raises(MeshError, match="odd-chi"):
        solid_for_label(-1, 1)
    with pytest.raises(MeshError, match="odd-chi"):
        solid_for_label(-3, 1)


@pytest.mark.parametrize("label", [1, -2],
                         ids=["torus_solid", "klein_solid"])
def test_product_solids_have_interior_tets(label):
    s = solid_for_label(label, 1)
    assert len(find_interior_tets(s.cx, s.ends[0].bmap)) >= 2


def test_boundary_sum_of_solids_tracks_canonical():
    s = solid_for_label(-4, 1)
    want = canonical_mesh(-4, 1)
    assert sorted(map(sorted, s.ends[0].mesh.triangles)) == \
        sorted(map(sorted, want.triangles))


def test_canonical_meshes_are_valid_complexes():
    for r in range(-6, 7):
        validate_surface(canonical_mesh(r, 1))


@pytest.mark.parametrize("r", [2, -4, 8])
def test_composite_solids_share_the_canonical_mesh(r):
    # caps and junction cylinders over a composite solid carry the one
    # cached mesh, not an equal copy built by the boundary sums
    assert solid_for_label(r, 3).ends[0].mesh is canonical_mesh(r, 3)


@pytest.mark.parametrize("r", [*range(-9, 10), 17, -23])
@pytest.mark.parametrize("k", [1, 2])
def test_triangle_count_by_arithmetic(r, k):
    assert mesh_triangles(r, k) == len(canonical_mesh(r, k).triangles)


def test_mesh_budget_edges():
    # at refinement 1 the grid summands have 72 triangles, less 2 a sum
    assert MAX_MESH_TRIANGLES == 200_000
    assert mesh_triangles(2857, 1) == 199_992
    for label in (2857, -5713, 0):
        assert mesh_budget_error(label, 1) is None
    assert mesh_budget_error(2858, 1) == (
        "surface r=2858 at refinement 1 needs 200,062 triangles, over the "
        "mesh budget of 200,000")
    assert "needs 19,342,813,113,834,066,795,298,816 " in \
        mesh_budget_error(0, 40)
    # past refinement 64 the size at 64 bounds the count from below
    assert "needs more than 5,444,517,870,735,015,415,413,993,718,908," \
        "291,383,296 triangles" in mesh_budget_error(0, 10 ** 18)
    assert mesh_budget_error(0, 6) is None
    assert mesh_budget_error(0, 7) is not None
