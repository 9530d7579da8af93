from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from reebforge import blocks
from reebforge.blocks import (Block, BlockError, block_from_dict,
                              block_to_dict, block_to_json, build_junction,
                              cap_block, cylinder_block, elementary_junction,
                              fold_block, glued_values,
                              junction_cell, merge_disjoint_union,
                              plan_junction, verify_block)
from reebforge.complexes import TetComplex, boundary_faces, merge_complexes
from reebforge.graphs import euler_char, is_odd_chi
from reebforge.reeb import level_set_of
from reebforge.surfaces import classify_labels


def assert_verified(block):
    rep = verify_block(block)
    assert rep.ok, rep.summary()
    return rep


# ---------------------------------------------------------------------------
# cylinders
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("label", [0, -2, 3])
def test_cylinder_contract(label):
    b = cylinder_block(label, F(0), F(1))
    rep = assert_verified(b)
    assert [n.value for n in rep.reeb.nodes] == [F(0), F(1)]
    assert [e.label for e in rep.reeb.edges] == [label]


def test_cylinder_regular_slice():
    b = cylinder_block(3, F(0), F(1))
    ls = level_set_of(b.cx.tets, b.values, F(1, 3))
    assert classify_labels(ls.mesh) == [3]


def test_cylinder_rejects_bad_interval():
    with pytest.raises(BlockError):
        cylinder_block(0, F(1), F(0))


# ---------------------------------------------------------------------------
# caps
# ---------------------------------------------------------------------------

def test_sphere_cap_is_single_edge():
    b = cap_block(0, F(0), F(1))
    rep = assert_verified(b)
    assert len(rep.reeb.edges) == 1
    assert b.singular_values == [F(0)]


def test_solid_klein_bottle_cap():
    b = cap_block(-2, F(0), F(1))
    rep = assert_verified(b)
    assert b.labels("top") == [-2]
    assert len(rep.reeb.edges) == 1 and rep.reeb.edges[0].label == -2


def test_double_klein_cap():
    b = cap_block(-4, F(0), F(1))
    assert_verified(b)
    assert b.labels("top") == [-4]


def test_descending_cap():
    b = cap_block(1, F(5), F(2))
    assert_verified(b)
    assert b.labels("bottom") == [1]


@pytest.mark.parametrize("label", [-1, -3, -5, -7, -9])
def test_cap_rejects_odd_chi(label):
    with pytest.raises(BlockError, match="odd-chi"):
        cap_block(label, F(0), F(1))


# ---------------------------------------------------------------------------
# junctions
# ---------------------------------------------------------------------------

def test_sphere_split_star():
    b = elementary_junction("sphere_split", F(0), F(1), F(2))
    rep = assert_verified(b)
    # star: |bottom| + |top| + 1 vertices, center degree 3
    assert len(rep.reeb.nodes) == 4
    center = [i for i, n in enumerate(rep.reeb.nodes) if n.value == F(1)]
    assert len(center) == 1
    assert rep.reeb.degree(center[0]) == 3


def test_projective_pass_contract():
    b = elementary_junction("projective_pass", F(0), F(1), F(2))
    rep = assert_verified(b)
    assert b.labels("bottom") == [-1] and b.labels("top") == [-1]
    assert len(rep.reeb.nodes) == 3
    assert b.singular_values == [F(1)]


def test_projective_pair_junction():
    b = elementary_junction("sphere_to_projective_pair", F(0), F(1), F(2))
    rep = assert_verified(b)
    assert b.labels("bottom") == [0]
    assert b.labels("top") == [-1, -1]
    assert len(rep.reeb.nodes) == 4


def test_flipped_junction():
    b = elementary_junction("sphere_to_projective_pair", F(0), F(1), F(2),
                            flip=True)
    assert b.labels("bottom") == [-1, -1]
    assert b.labels("top") == [0]
    assert_verified(b)


def test_junction_slices():
    b = elementary_junction("sphere_split", F(0), F(1), F(2))
    below = level_set_of(b.cx.tets, b.values, F(1, 4))
    above = level_set_of(b.cx.tets, b.values, F(7, 4))
    assert classify_labels(below.mesh) == [0]
    assert classify_labels(above.mesh) == [0, 0]


def test_unknown_kind_rejected():
    with pytest.raises(BlockError, match="unknown"):
        elementary_junction("dodecahedral", F(0), F(1), F(2))


def test_generic_cell_pass_through():
    b = junction_cell([2], [2], F(0), F(1), F(2))
    assert_verified(b)


# ---------------------------------------------------------------------------
# merges
# ---------------------------------------------------------------------------

def test_glued_values_reject_a_clash():
    tet = TetComplex(4, [(0, 1, 2, 3)])
    cx, vmaps, _ = merge_complexes([tet, tet], [(0, 3, 1, 0)])
    with pytest.raises(BlockError, match="value clash at a glued interface"):
        glued_values(cx.nv, vmaps, [[F(0)] * 4, [F(1)] * 4])


def test_disjoint_merge_of_projective_passes():
    b1 = elementary_junction("projective_pass", F(0), F(1), F(2))
    b2 = elementary_junction("projective_pass", F(0), F(1), F(2))
    m = merge_disjoint_union(b1, b2)
    assert m.labels("bottom") == [-1, -1]
    assert m.labels("top") == [-1, -1]
    assert_verified(m)


def test_disjoint_merge_of_cylinders():
    b1 = cylinder_block(0, F(0), F(2))
    b2 = cylinder_block(0, F(0), F(2))
    m = merge_disjoint_union(b1, b2)
    rep = assert_verified(m)
    assert m.labels("bottom") == [0, 0] and m.labels("top") == [0, 0]
    center = [i for i, n in enumerate(rep.reeb.nodes) if n.value == F(1)]
    assert rep.reeb.degree(center[0]) == 4


def test_disjoint_merge_mixed():
    b1 = elementary_junction("projective_pass", F(0), F(1), F(2))
    b2 = elementary_junction("sphere_to_torus", F(0), F(1), F(2))
    m = merge_disjoint_union(b1, b2)
    assert m.labels("bottom") == [-1, 0]
    assert m.labels("top") == [-1, 1]
    assert_verified(m)


def test_disjoint_merge_leaves_its_arguments_alone():
    b1 = elementary_junction("projective_pass", F(0), F(1), F(2))
    b2 = elementary_junction("sphere_to_torus", F(0), F(1), F(2))
    before = block_to_json(b1), block_to_json(b2)
    m = merge_disjoint_union(b1, b2)
    assert (block_to_json(b1), block_to_json(b2)) == before
    assert not {id(c) for c in m.boundary} & {
        id(c) for c in b1.boundary + b2.boundary}


def test_merge_requires_shared_singular_value():
    b1 = elementary_junction("sphere_split", F(0), F(1), F(2))
    b2 = elementary_junction("sphere_split", F(0), F(1, 2), F(2))
    with pytest.raises(BlockError, match="singular"):
        merge_disjoint_union(b1, b2)


# ---------------------------------------------------------------------------
# folds
# ---------------------------------------------------------------------------

def test_fold_sphere_split_to_minimum():
    j = elementary_junction("sphere_split", F(0), F(1), F(2))
    f = fold_block(j, F(0), "min", [F(1)] * 3)
    rep = assert_verified(f)
    assert all(c.side == "top" for c in f.boundary)
    assert sorted(c.label for c in f.boundary) == [0, 0, 0]
    # same mesh, same edge count as the unfolded star
    assert f.cx is j.cx
    assert len(rep.reeb.edges) == 3


def test_fold_projective_pair_to_maximum():
    j = elementary_junction("sphere_to_projective_pair", F(0), F(1), F(2))
    f = fold_block(j, F(5), "max", [F(4)] * 3)
    rep = assert_verified(f)
    labels = sorted(c.label for c in f.boundary)
    assert labels == [-1, -1, 0]
    # odd-chi count at the folded extremum stays even
    assert sum(1 for l in labels if l < 0 and l % 2 != 0) == 2


def test_fold_cylinder_degenerate():
    c = cylinder_block(1, F(1), F(2))
    f = fold_block(c, F(0), "min", [F(1), F(1)])
    rep = assert_verified(f)
    assert sorted(c2.label for c2 in f.boundary) == [1, 1]
    assert len(rep.reeb.edges) == 2


def test_fold_rejects_wrong_side_values():
    j = elementary_junction("sphere_split", F(0), F(1), F(2))
    with pytest.raises(BlockError, match="not above"):
        fold_block(j, F(3), "min", [F(1)] * 3)


def test_fold_rejects_count_mismatch():
    j = elementary_junction("sphere_split", F(0), F(1), F(2))
    with pytest.raises(BlockError, match="leaf values"):
        fold_block(j, F(0), "min", [F(1)] * 2)


def test_fold_distinct_leaf_values():
    j = elementary_junction("sphere_split", F(0), F(1), F(2))
    f = fold_block(j, F(0), "min", [F(1), F(2), F(3)])
    assert_verified(f)


# ---------------------------------------------------------------------------
# negative control
# ---------------------------------------------------------------------------

def test_verify_detects_corrupted_block():
    b = cylinder_block(0, F(0), F(1))
    bad = Block(b.cx.copy(), list(b.values), list(b.singular_values),
                b.boundary, b.refinement)
    del bad.cx.tets[len(bad.cx.tets) // 2]
    rep = verify_block(bad)
    assert not rep.ok
    assert any(name == "manifold" and not ok for name, ok, _ in rep.checks)


# ---------------------------------------------------------------------------
# parity conservation and serialization
# ---------------------------------------------------------------------------

def _chi_parity(labels):
    return sum(euler_char(l) for l in labels) % 2


@pytest.mark.parametrize("builder", [
    lambda: elementary_junction("sphere_split", F(0), F(1), F(2)),
    lambda: elementary_junction("sphere_to_projective_pair",
                                F(0), F(1), F(2)),
    lambda: junction_cell([-1, -3], [2, -2], F(0), F(1), F(2)),
    lambda: merge_disjoint_union(
        elementary_junction("projective_pass", F(0), F(1), F(2)),
        elementary_junction("sphere_to_torus", F(0), F(1), F(2))),
])
def test_chi_parity_conserved_across_sides(builder):
    b = builder()
    assert _chi_parity(b.labels("bottom")) == _chi_parity(b.labels("top"))


@pytest.mark.parametrize("builder", [
    lambda: elementary_junction("sphere_to_klein", F(0), F(1), F(2)),
    lambda: fold_block(elementary_junction("sphere_split", F(0), F(1), F(2)),
                       F(0), "min", [F(1), F(2), F(3)]),
    lambda: cap_block(-2, F(3), F(1)),
    lambda: cylinder_block(1, F(0), F(2)),
], ids=["junction", "fold", "cap", "cylinder"])
def test_block_json_round_trip(builder):
    """A block read back from its document verifies, and the interval,
    contract and cmap it derives serialize exactly as the document states
    them."""
    b = builder()
    d = block_to_dict(b)
    b2 = block_from_dict(d)
    assert block_to_dict(b2) == d
    assert b2.cx.tets == b.cx.tets
    assert b2.values == b.values
    assert b2.singular_values == b.singular_values
    rep = verify_block(b2)
    assert rep.ok, rep.summary()


# ---------------------------------------------------------------------------
# interior tets: the builders' boundaries against the face map
# ---------------------------------------------------------------------------

def face_map_interior(cx: TetComplex) -> list[int]:
    """The derivation the builders used to make: the tets with no vertex on
    a face that lies in one tet."""
    bv = {v for f in boundary_faces(cx) for v in f}
    return [ti for ti, t in enumerate(cx.tets) if bv.isdisjoint(t)]


def checked_interior_tets():
    """Patch find_interior_tets in blocks with a copy that checks every
    answer, sockets and bridge tets alike, against face_map_interior."""
    real = blocks.find_interior_tets

    def checked(cx, boundary):
        got = real(cx, boundary)
        assert got == face_map_interior(cx)
        return got
    return mock.patch.object(blocks, "find_interior_tets", checked)


_SIDE = st.lists(st.integers(-3, 3), min_size=1, max_size=2).map(sorted)


@settings(max_examples=20, deadline=None)
@given(_SIDE, _SIDE)
@example([0], [0, 0])
@example([-1, 2], [-2, -3])
def test_junction_interior_tets_match_the_face_map(bottom, top):
    if sum(map(is_odd_chi, bottom + top)) % 2:
        bottom = bottom + [-1]
    with checked_interior_tets():
        build_junction(plan_junction(bottom, top), 0, 1, 2)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([l for l in range(-6, 7) if euler_char(l) % 2 == 0]),
       st.booleans())
def test_cap_bridge_tets_match_the_face_map(label, rising):
    with checked_interior_tets():
        b = cap_block(label, 0, 1) if rising else cap_block(label, 1, 0)
    assert b.bridge_tets == face_map_interior(b.cx)[:4]
