import functools
from dataclasses import replace
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from reebforge import blocks
from reebforge.blocks import (Block, BlockError, Plan, block_to_json,
                              build_junction, cap_block, cylinder_block,
                              elementary_junction, evaluate_plan, fold_block,
                              glued_values, junction_cell, plan_junction,
                              verify_block)
from reebforge.complexes import (TetComplex, boundary_faces, merge_complexes,
                                 remove_tets, surface_prism)
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
    b = junction_cell([-1, -1], [0], F(0), F(1), F(2))
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
# joining the cells of a plan
# ---------------------------------------------------------------------------

def test_glued_values_reject_a_clash():
    tet = TetComplex(4, [(0, 1, 2, 3)])
    cx, vmaps, _ = merge_complexes([tet, tet], [(0, 3, 1, 0)])
    with pytest.raises(BlockError, match="value clash at a glued interface"):
        glued_values(cx.nv, vmaps, [[F(0)] * 4, [F(1)] * 4])


def test_disjoint_merge_of_projective_passes():
    """Two projective-pass cells joined at the singular value."""
    plan = plan_junction([-1, -1], [-1, -1])
    assert len(plan.cells) == 2
    m = build_junction(plan, F(0), F(1), F(2))
    assert m.labels("bottom") == [-1, -1]
    assert m.labels("top") == [-1, -1]
    assert_verified(m)


def test_disjoint_merge_mixed():
    """A projective-pass cell joined to a sphere-to-torus cell."""
    m = build_junction(plan_junction([-1, 0], [-1, 1]), F(0), F(1), F(2))
    assert m.labels("bottom") == [-1, 0]
    assert m.labels("top") == [-1, 1]
    assert_verified(m)


def fold_reference(plan: Plan, a1, a, a2) -> Block:
    """The reference for build_junction: fold the cells one at a time,
    each merge bridging the first spare tet of the block so far to the
    first of the next cell and keeping the spare tets after the first two
    of each."""
    def merge(b1: Block, b2: Block) -> Block:
        if not b1.bridge_tets or not b2.bridge_tets:
            raise BlockError("no spare bridge material left")
        s1, s2 = b1.bridge_tets[0], b2.bridge_tets[0]
        shell = surface_prism(blocks._TETRA_SPHERE, 2).complex
        parts = [remove_tets(b1.cx, {s1}), remove_tets(b2.cx, {s2}), shell]
        left, right = sorted(b1.cx.tets[s1]), sorted(b2.cx.tets[s2])
        ident = []
        for k in range(4):
            ident.append((0, left[k], 2, k))
            ident.append((1, right[k], 2, 8 + k))
        cx, vmaps, toffs = merge_complexes(parts, ident)
        values = glued_values(cx.nv, vmaps,
                              [b1.values, b2.values, [a] * shell.nv])
        boundary = [replace(c, layer_ids=[[vm[v] for v in layer]
                                          for layer in c.layer_ids])
                    for b, vm in ((b1, vmaps[0]), (b2, vmaps[1]))
                    for c in b.boundary]
        # each kept spare tet moves down by one past its block's socket
        bridge = [toff + t - (t > s)
                  for b, s, toff in ((b1, s1, toffs[0]), (b2, s2, toffs[1]))
                  for t in b.bridge_tets[2:]]
        return Block(cx, values, [a], boundary, b1.refinement, bridge,
                     kind="junction")
    return functools.reduce(merge, (junction_cell(b, t, a1, a, a2)
                                    for b, t in plan.cells))


def _odd_made_even(cell):
    bottom, top = cell
    if sum(map(is_odd_chi, bottom + top)) % 2:
        top = top + [-1]
    return bottom, top


_CELL = st.tuples(st.lists(st.integers(-3, 3), max_size=2),
                  st.lists(st.integers(-3, 3), max_size=2)).filter(
    lambda c: c[0] or c[1]).map(_odd_made_even)


@settings(max_examples=10, deadline=None)
@given(st.lists(_CELL, min_size=1, max_size=13))
@example([([0], [0])] * 13)
@example([([-3], [2, -1]), ([], [1]), ([-2, 0], [])] * 4 + [([1], [])])
def test_one_merge_numbers_like_the_fold(cells):
    plan = Plan(cells, *evaluate_plan(Plan(cells, [], [])))
    got = block_to_json(build_junction(plan, 0, 1, 2))
    assert got == block_to_json(fold_reference(plan, F(0), F(1), F(2)))


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
    lambda: build_junction(plan_junction([-1, 0], [-1, 1]),
                           F(0), F(1), F(2)),
])
def test_chi_parity_conserved_across_sides(builder):
    b = builder()
    assert _chi_parity(b.labels("bottom")) == _chi_parity(b.labels("top"))


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
