import pytest

from reebforge.canonical import canonical_mesh
from reebforge.complexes import (ComplexError, TetComplex, boundary_surface,
                                 circle_prism, cone_complex,
                                 euler_characteristic, find_interior_tets,
                                 merge_complexes, remove_tets, surface_prism,
                                 validate_complex)
from reebforge.surfaces import SurfaceMesh, classify_labels

TETRA = SurfaceMesh(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def test_surface_prism_is_product_manifold():
    prod = surface_prism(canonical_mesh(1, 1), 2)
    validate_complex(prod.complex)
    bmesh, _ = boundary_surface(prod.complex)
    assert classify_labels(bmesh) == [1, 1]


def test_surface_prism_prism_index():
    mesh = canonical_mesh(0, 1)
    prod = surface_prism(mesh, 2)
    assert len(prod.prism_tets) == len(mesh.triangles) * 2
    assert all(len(v) == 3 for v in prod.prism_tets.values())


def test_cone_over_sphere_is_ball():
    sphere = canonical_mesh(0, 1)
    cx = cone_complex(sphere)
    validate_complex(cx)
    bmesh, _ = boundary_surface(cx)
    assert classify_labels(bmesh) == [0]


def test_cone_over_shared_walls_consistent():
    # shells used for bridging: tetra sphere x interval
    prod = surface_prism(TETRA, 2)
    validate_complex(prod.complex)
    bmesh, _ = boundary_surface(prod.complex)
    assert classify_labels(bmesh) == [0, 0]


def test_circle_prism_needs_three_layers():
    with pytest.raises(ComplexError):
        circle_prism(TETRA, 2)


def test_remove_interior_tet_leaves_manifold():
    prod = surface_prism(canonical_mesh(0, 1), 3)
    interior = find_interior_tets(prod.complex)
    assert interior
    cx, tmap = remove_tets(prod.complex, {interior[0]})
    validate_complex(cx)
    bmesh, _ = boundary_surface(cx)
    assert classify_labels(bmesh) == [0, 0, 0]
    assert interior[0] not in tmap


def test_merge_identifies_vertices():
    a = TetComplex(4, [(0, 1, 2, 3)])
    b = TetComplex(4, [(0, 1, 2, 3)])
    merged, vmaps, _ = merge_complexes(
        [a, b], [(0, 0, 1, 0), (0, 1, 1, 1), (0, 2, 1, 2)])
    assert merged.nv == 5
    assert len(merged.tets) == 2
    assert vmaps[0][0] == vmaps[1][0]


def test_closed_complex_has_zero_euler_characteristic():
    # double of a ball: two cones over the same sphere
    sphere = canonical_mesh(0, 1)
    c1 = cone_complex(sphere)
    c2 = cone_complex(sphere)
    ident = [(0, v, 1, v) for v in range(sphere.nv)]
    cx, _, _ = merge_complexes([c1, c2], ident)
    validate_complex(cx, closed=True)
    assert euler_characteristic(cx) == 0


def test_validate_catches_duplicate_tet():
    cx = TetComplex(4, [(0, 1, 2, 3), (3, 2, 1, 0)])
    with pytest.raises(ComplexError, match="duplicate"):
        validate_complex(cx)


def test_validate_catches_overfull_face():
    cx = TetComplex(5, [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 4)])
    with pytest.raises(ComplexError):
        validate_complex(cx)


def test_validate_rejects_cone_over_torus():
    # the apex link is the torus itself: closed and connected, chi 0
    with pytest.raises(ComplexError, match=r"not a sphere \(chi=0\)"):
        validate_complex(cone_complex(canonical_mesh(1, 1)))


def test_validate_rejects_cones_sharing_only_their_apex():
    # the shared apex has two disjoint spheres as its link
    sphere = canonical_mesh(0, 1)
    cone = cone_complex(sphere)
    apex = sphere.nv
    cx, vmaps, _ = merge_complexes([cone, cone], [(0, apex, 1, apex)])
    with pytest.raises(ComplexError, match=f"vertex {vmaps[0][apex]} link "
                                           "is disconnected"):
        validate_complex(cx)
