import pytest

from reebforge.anchors import (AnchorError, check_anchor, common_refinement,
                               scheme_for_label)
from reebforge.canonical import canonical_mesh, subdivide_anchored
from reebforge.graphs import euler_char
from reebforge.surfaces import classify_labels, validate_surface


@pytest.mark.parametrize("label", list(range(-6, 7)))
def test_scheme_euler_characteristic(label):
    scheme = scheme_for_label(label)
    assert scheme.euler_check() == euler_char(label)


def test_scheme_pairing_involution():
    s = scheme_for_label(1)
    pairing = s.pairing()
    for i, (j, flip) in pairing.items():
        assert pairing[j] == (i, flip)


@pytest.mark.parametrize("label", [0, 1, -1, -2])
def test_generated_meshes_are_anchored(label):
    check_anchor(canonical_mesh(label, 1))
    check_anchor(canonical_mesh(label, 2))


def test_refinement_identity():
    m1 = canonical_mesh(1, 1)
    m2 = canonical_mesh(1, 1)
    r, f1, f2 = common_refinement(m1, m2)
    assert f1 == list(range(m1.nv))
    assert f2 == list(range(m2.nv))
    assert len(r.triangles) == len(m1.triangles)


def test_refinement_nested_spheres():
    m1 = canonical_mesh(0, 1)
    m2 = canonical_mesh(0, 2)
    r, f1, f2 = common_refinement(m1, m2)
    # the coarse mesh's vertices embed injectively into the overlay
    assert len(set(f1)) == m1.nv
    assert len(set(f2)) == m2.nv
    assert classify_labels(r) == [0]
    # nested subdivision: the overlay is exactly the finer mesh
    assert len(r.triangles) == len(m2.triangles)


def test_refinement_tori_different_subdivisions():
    m1 = canonical_mesh(1, 1)
    m2 = canonical_mesh(1, 2)
    r, f1, f2 = common_refinement(m1, m2)
    assert classify_labels(r) == [1]
    assert len(set(f1)) == m1.nv and len(set(f2)) == m2.nv
    validate_surface(r)


def test_refinement_subdivided_vs_base():
    base = canonical_mesh(-1, 1)
    fine = subdivide_anchored(base)
    r, f1, f2 = common_refinement(base, fine)
    assert classify_labels(r) == [-1]
    assert len(r.triangles) == len(fine.triangles)


def test_refinement_requires_same_scheme():
    m1 = canonical_mesh(1, 1)
    m2 = canonical_mesh(-2, 1)
    with pytest.raises(AnchorError, match="different schemes"):
        common_refinement(m1, m2)


def test_refinement_requires_anchor():
    m1 = canonical_mesh(1, 1)
    m2 = canonical_mesh(1, 1)
    m2.anchor = None
    with pytest.raises(AnchorError, match="anchor"):
        common_refinement(m1, m2)


@pytest.mark.parametrize("label", [-1, -2])
def test_refinement_across_grid_sizes(label):
    m1 = canonical_mesh(label, 1)
    m2 = canonical_mesh(label, 2)
    r, f1, f2 = common_refinement(m1, m2)
    assert classify_labels(r) == [label]
    assert len(set(f1)) == m1.nv and len(set(f2)) == m2.nv
