import functools
from dataclasses import replace
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from reebforge import blocks, canonical, complexes
from reebforge.blocks import (JUNCTION_KINDS, Block, BlockError, Plan,
                              block_to_json, build_junction, cap_block,
                              cylinder_block, elementary_junction,
                              evaluate_plan, fold_block, glued_values,
                              plan_junction, verify_block)
from reebforge.complexes import (TetComplex, boundary_faces, merge_complexes,
                                 surface_prism)
from reebforge.graphs import euler_char, is_odd_chi
from reebforge.reeb import level_set_of
from reebforge.surfaces import classify_labels

import junction_oracle as oracle
from junction_oracle import remove_tets
from test_acceptance import _star_cases


def one_cell(bottom, top, a1, a, a2):
    """The junction of one cell with these boundary labels."""
    return build_junction(Plan([(bottom, top)], bottom, top), a1, a, a2)


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
    b = one_cell([-1, -1], [0], F(0), F(1), F(2))
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
    b = one_cell([2], [2], F(0), F(1), F(2))
    assert_verified(b)


# ---------------------------------------------------------------------------
# joining the cells of a plan
# ---------------------------------------------------------------------------

def test_glued_values_reject_a_clash():
    tet = TetComplex(4, [(0, 1, 2, 3)])
    cx, vmaps = merge_complexes([tet, tet], [(0, 3, 1, 0)])
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


def fold_reference(plan: Plan, a1, a, a2) -> oracle.Block:
    """The reference for build_junction: fold the oracle's cells one at a
    time, each merge bridging the first spare tet of the block so far to
    the first of the next cell and keeping the spare tets after the first
    two of each."""
    def merge(b1: oracle.Block, b2: oracle.Block) -> oracle.Block:
        if not b1.bridge_tets or not b2.bridge_tets:
            raise BlockError("no spare bridge material left")
        s1, s2 = b1.bridge_tets[0], b2.bridge_tets[0]
        shell = surface_prism(oracle._TETRA_SPHERE, 2).complex
        parts = [remove_tets(b1.cx, {s1}), remove_tets(b2.cx, {s2}), shell]
        left, right = sorted(b1.cx.tets[s1]), sorted(b2.cx.tets[s2])
        ident = []
        for k in range(4):
            ident.append((0, left[k], 2, k))
            ident.append((1, right[k], 2, 8 + k))
        cx, vmaps, toffs = oracle.merge_complexes(parts, ident)
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
        return oracle.Block(cx, values, [a], boundary, b1.refinement,
                            bridge, kind="junction")
    return functools.reduce(merge, (oracle.junction_cell(b, t, a1, a, a2)
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


def _shape(b):
    return (b.cx.nv, b.cx.tets, b.values,
            [(c.side, c.label, c.layer_ids) for c in b.boundary])


def test_one_merge_equals_the_cell_by_cell_merges():
    # every criterion-2 star and every named shape, either way up
    plans = [plan_junction(list(b), list(t)) for b, t in _star_cases()]
    plans += [Plan([(list(b), list(t))], list(b), list(t))
              for shape in JUNCTION_KINDS.values()
              for b, t in (shape, shape[::-1])]
    for plan in plans:
        got = build_junction(plan, 0, 1, 2)
        assert _shape(got) == _shape(oracle.build_junction(plan, 0, 1, 2))


def test_one_merge_per_junction(monkeypatch):
    # one merge of every cell's parts, and one interior scan per piece:
    # 13 sphere pass-throughs are 13 cells of two balls each
    calls = {"merge_complexes": 0, "find_interior_tets": 0}
    for name in calls:
        def counted(*args, real=getattr(blocks, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(blocks, name, counted)
    plan = Plan([([0], [0])] * 13, [0] * 13, [0] * 13)
    build_junction(plan, 0, 1, 2)
    assert calls == {"merge_complexes": 1, "find_interior_tets": 26}


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
    bad = Block(TetComplex(b.cx.nv, list(b.cx.tets)), list(b.values),
                list(b.singular_values), b.boundary, b.refinement)
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
    lambda: one_cell([-1, -3], [2, -2], F(0), F(1), F(2)),
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
    answer, the sockets' scan of each piece, against face_map_interior."""
    real = blocks.find_interior_tets

    def checked(cx, boundary):
        got = real(cx, boundary)
        assert got == face_map_interior(cx)
        return got
    return mock.patch.object(blocks, "find_interior_tets", checked)


def assert_spares_match_the_face_map(parts, drop, nslots, spares):
    """A cell's spares are the first eight tets, piece by piece, that the
    face map finds interior once the piece's sockets, its dropped tets,
    are gone."""
    # pieces, one shell fewer, then a cylinder per end
    npieces = (len(parts) - nslots + 1) // 2
    want = []
    for p, piece in enumerate(parts[:npieces]):
        sockets = {t for q, t in drop if q == p}
        kept = [t for t in range(len(piece.tets)) if t not in sockets]
        want += [(p, kept[t])
                 for t in face_map_interior(remove_tets(piece, sockets))]
    assert spares == want[:8]


_SIDE = st.lists(st.integers(-3, 3), min_size=1, max_size=2).map(sorted)


@settings(max_examples=20, deadline=None)
@given(_SIDE, _SIDE)
@example([0], [0, 0])
@example([-1, 2], [-2, -3])
def test_junction_interior_tets_match_the_face_map(bottom, top):
    if sum(map(is_odd_chi, bottom + top)) % 2:
        bottom = bottom + [-1]
    cells = []
    real = blocks._junction_cell

    def laid_out(*args):
        # what the cell adds to the junction's parts, drops and ends, with
        # its parts numbered from 0
        parts, _, _, drop, ends = args[-1]
        sizes = len(parts), len(drop), len(ends)
        spares = real(*args)
        base = sizes[0]
        cells.append((parts[base:],
                      [(p - base, t) for p, t in drop[sizes[1]:]],
                      len(ends) - sizes[2],
                      [(p - base, t) for p, t in spares]))
        return spares
    with checked_interior_tets(), \
            mock.patch.object(blocks, "_junction_cell", laid_out):
        build_junction(plan_junction(bottom, top), 0, 1, 2)
    assert cells
    for cell in cells:
        assert_spares_match_the_face_map(*cell)


def test_block_checks_build_no_face_map(monkeypatch):
    # verify_block reads its manifold check and its boundary off one
    # census, and a product solid checks its boundary the same way
    def refuse(cx):
        raise AssertionError("a face map was built")
    monkeypatch.setattr(complexes, "face_map", refuse)
    for label in (1, -2):
        canonical._product_solid(label, 1)
    assert_verified(cylinder_block(1, F(0), F(1)))
    assert_verified(elementary_junction("sphere_to_torus", F(0), F(1), F(2)))
    holed = cap_block(0, F(0), F(1))
    holed = replace(holed, cx=remove_tets(holed.cx, {0}))
    assert not verify_block(holed).ok
