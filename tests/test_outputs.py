"""Pinned outputs: manifold and Reeb graph JSON of three corpus graphs and
the sum-merge blocks must stay byte-identical.  A refactor that changes
any of these digests changes the construction or the extraction; update
a digest only together with a note on why the output moved."""
import hashlib
from fractions import Fraction as F

import pytest

from reebforge.assembly import assemble, extract_reeb, manifold_to_json
from reebforge.blocks import (block_to_json, cylinder_block,
                              elementary_junction, merge_connected_sum)
from reebforge.corpus import realizable_corpus


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# index into realizable_corpus(20260810, 8) -> (tets, manifold, reeb)
GRAPHS = {
    1: (2240,
        "6578b31da00151cc15d2ea9adf7d7bc439ab04fa6d1a7597e40b816424b734f6",
        "aef377ca0642794fee956b365574aedcd88959bd79a0b39e61197617fd2c24d1"),
    2: (6482,
        "c44c530c3462b2b96ecfb273c2ab5a7df899bacc22d2f8934aef32ddb36eb098",
        "9e2bf62e55aedb7471673e18900c19a5e662097c9273d6f01c8ccb4a167272b0"),
    5: (6438,
        "8f30c572eef13eb6a69a447e8f5659df58e84a7e98af8c0f316ca7e9131dbfb6",
        "a6536e020c7ed408ad4dab889c3eff64a2eca685d9af6b0ad18408ff52b1450d"),
}


@pytest.mark.parametrize("index", sorted(GRAPHS))
def test_corpus_outputs_are_pinned(index):
    tets, manifold, reeb = GRAPHS[index]
    m = assemble(realizable_corpus(20260810, 8)[index])
    assert len(m.cx.tets) == tets
    assert sha(manifold_to_json(m)) == manifold
    assert sha(extract_reeb(m).to_json()) == reeb


SUMS = {
    "two_projective_pairs": (
        lambda: elementary_junction("sphere_to_projective_pair",
                                    F(0), F(1), F(2)),
        lambda: elementary_junction("sphere_to_projective_pair",
                                    F(0), F(1), F(2)),
        "bottom",
        "ce9044a182d5dfc94f4b3fba5cc8381aa322b257ee934acdb68eef7818f146e6"),
    "cylinder_tops": (
        lambda: cylinder_block(1, F(0), F(2)),
        lambda: cylinder_block(2, F(0), F(2)),
        "top",
        "357d1b758fa9cffe76b63a88bb4b9814e3d06ade1b7757edeccf9820ffb25f21"),
    "sphere_neutral": (
        lambda: elementary_junction("sphere_split", F(0), F(1), F(2)),
        lambda: cylinder_block(0, F(0), F(2)),
        "top",
        "b9eaf50b9594ea68721befd10eb55f87548ac85288eb644a095f69646362bc1e"),
}


@pytest.mark.parametrize("name", sorted(SUMS))
def test_sum_merge_blocks_are_pinned(name):
    make1, make2, side, digest = SUMS[name]
    b1, b2 = make1(), make2()
    p1 = next(i for i, c in enumerate(b1.boundary) if c.side == side)
    p2 = next(i for i, c in enumerate(b2.boundary) if c.side == side)
    m = merge_connected_sum(b1, b2, side, p1, p2)
    assert sha(block_to_json(m)) == digest
