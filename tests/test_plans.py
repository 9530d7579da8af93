from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from reebforge.blocks import (BlockError, Plan, PlanError, build_junction,
                              evaluate_plan, plan_junction, verify_block)
from reebforge.graphs import is_odd_chi


def test_plan_sphere_split_is_named_leaf():
    plan = plan_junction([0], [0, 0])
    assert plan.cells == [([0], [0, 0])]


def test_plan_projective_pair_is_named_leaf():
    plan = plan_junction([0], [-1, -1])
    assert plan.cells == [([0], [-1, -1])]


def test_plan_flipped_named_shape_is_one_cell():
    plan = plan_junction([-1, -1], [0])
    assert plan.cells == [([-1, -1], [0])]


def test_plan_chains_cells():
    plan = plan_junction([-1, 2], [-1])
    assert plan.cells == [([-1], [-1]), ([2], [])]


def test_plan_parity_shift_case():
    # odd-chi counts 2 vs 0: one thickened-projective cell absorbs both
    plan = plan_junction([-1, -1], [-2])
    assert evaluate_plan(plan) == ([-1, -1], [-2])
    block = build_junction(plan, F(0), F(1), F(2))
    assert block.labels("bottom") == [-1, -1]
    assert block.labels("top") == [-2]
    assert verify_block(block).ok


def test_plan_rejects_odd_parity():
    with pytest.raises(PlanError, match="odd"):
        plan_junction([0], [-1])


def test_plan_rejects_empty_side():
    with pytest.raises(PlanError, match="non-empty"):
        plan_junction([], [0])


def test_plan_determinism():
    p1 = plan_junction([2, -1, -1], [0, 3])
    p2 = plan_junction([-1, 2, -1], [3, 0])
    assert p1 == p2


@pytest.mark.parametrize("cells", [[], [([0], [0, 0])],
                                   [([0], [0, 0]), ([0], [0, 0])]],
                         ids=["none", "short", "long"])
def test_build_rejects_cells_that_miss_the_target(cells):
    plan = Plan(cells, [0, 0], [0, 0, 0])
    with pytest.raises(BlockError, match="add up to"):
        build_junction(plan, F(0), F(1), F(2))


labels = st.integers(-3, 3)


@st.composite
def admissible_targets(draw):
    bottom = draw(st.lists(labels, min_size=1, max_size=3))
    top = draw(st.lists(labels, min_size=1, max_size=3))
    odd = sum(1 for l in bottom + top if is_odd_chi(l))
    if odd % 2 != 0:
        top = top + [-1]
    return sorted(bottom), sorted(top)


@settings(max_examples=40, deadline=None)
@given(admissible_targets())
def test_plan_arithmetic_matches_target(target):
    bottom, top = target
    plan = plan_junction(bottom, top)
    assert evaluate_plan(plan) == (sorted(bottom), sorted(top))


@settings(max_examples=8, deadline=None)
@given(admissible_targets())
def test_plan_builds_and_verifies(target):
    bottom, top = target
    plan = plan_junction(bottom, top)
    block = build_junction(plan, F(0), F(1), F(2))
    assert block.labels("bottom") == sorted(bottom)
    assert block.labels("top") == sorted(top)
    rep = verify_block(block)
    assert rep.ok, rep.summary()
