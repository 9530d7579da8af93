"""Pinned outputs: manifold and Reeb graph JSON of three corpus graphs,
and the JSON of junction, cap and folded blocks, must stay
byte-identical.  A refactor that changes any of these digests
changes the construction or the extraction; update a digest only together
with a note on why the output moved."""
import hashlib
from fractions import Fraction as F

import pytest

from reebforge.assembly import assemble, extract_reeb, manifold_to_json
from reebforge.blocks import (Plan, block_to_json, build_junction, cap_block,
                              elementary_junction, fold_block, plan_junction)
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


# (bottom, top) -> block_to_json of the planned junction over [0, 2] with
# singular value 1: every named shape either way up, and mixed targets
JUNCTIONS = {
    ((0,), (0, 0)):
        "651ee40ae06528e8640ca2f950648df8f6affbd63db8ebeea0a8d8d7d9405b6c",
    ((0, 0), (0, 0)):
        "1858e6f9ef20bdc9e2e1d4904d1fb92ba5b475a303481b8cffad3c929904cdc4",
    ((0,), (1,)):
        "e2760c004cde54bcd5aacdf33230e33345f7e950396e8d031faa8dc90bb334af",
    ((0,), (-2,)):
        "7704dbc92befb4af54b432be079009145cf82956a4f17a7ca971b74e9bd07cc5",
    ((-1,), (-1,)):
        "2e01626341534a3fb32217bd6f7b61817756805533160e6e17f4fafcf7426891",
    ((0,), (-1, -1)):
        "3ed2d7bc6eea102502c3d2d7714c00136c04494674179f864d2e978a13d363b3",
    ((0, 0), (0,)):
        "16d0175e4771e7a12760530aabfc6ea10f20c6b1643047b1ef516a3f0425cce3",
    ((1,), (0,)):
        "caf2d61505942ee5e78010ff1ea2aabd0725b293e027b5ba9575795156902ace",
    ((-2,), (0,)):
        "0a6868dec0500e6a77cc7e1bb7aa4483b364bcadd4689857c265b67b094d07a4",
    ((-1, -1), (0,)):
        "5d719201342ae28511140e490bb52040397e4d6ac8163c170bd5d14a98c78f7b",
    ((2, -3), (3, -1)):
        "b2bd9ad3517e9d4d259553b81347e2341b5b23e66a65e1fe4a2874466aa3cef7",
    ((-3, -3), (3, 2)):
        "5e1acd96a309fa09bce67bdbeb386e261a474faf97c3f4bfe139752792564084",
    ((1, 1), (-2, 0)):
        "9670deb69755279a315ceab9447a4bf65bca47fc663e984392e30afb97dac065",
    ((-1, 2), (-1,)):
        "d9792e191bb4620a767a2f4b94cbc0a08dc8d565bc034ffebe3561d5a25b033c",
    # plans of 5, 9, 13 and 5 cells: cell 0 has spare sockets for four
    # later cells, and the cells after those bridge to later cells
    ((0,) * 5, (0,) * 5):
        "8adc0da04e48006b1ee041795e1efc3cb5778fd5478d818934c18a395d22c830",
    ((0,) * 9, (0,) * 9):
        "f1e5c725b7163a6953df49d89122ff0806c2b4e10992ca83435820b688989c42",
    ((0,) * 13, (0,) * 13):
        "28484a5c935b6e86455b0eafdc838dcee91dbedd8b111893f629c600b2c02283",
    ((-1, -1, -3, 2), (1, -2, -1, 0, 0)):
        "93b1436e1f5a4dacf8d56e7576832e76cb5bc71e8de9309a8936359c14434ddc",
}


@pytest.mark.parametrize("bottom, top", sorted(JUNCTIONS))
def test_junction_outputs_are_pinned(bottom, top):
    block = build_junction(plan_junction(list(bottom), list(top)), 0, 1, 2)
    assert sha(block_to_json(block)) == JUNCTIONS[bottom, top]


# label -> block_to_json of the cap with extreme value 0, boundary value 1
CAPS = {
    0: "4e63dfd475536187f0fc448358c9d79ac65e1c921956ae29d75d73359e14616f",
    1: "79d791cce55cd0ca8b9deb6359a0c4fcd0852c4a5f4a6d8321073851af7ebfa8",
    -2: "b1325da631453a81ff03c10a1d36f27759796bdc849e2d8b77bc4f450b4e79d7",
    2: "d8ae7e3e666b8a850f03606a7484dfbcd8161a1fb34a8637da8faada170f9e01",
    -4: "34ae73a6494db757825da8cbdbc23f78d3486c29b4f9ec7fa25af00f1646d49c",
}


@pytest.mark.parametrize("label", sorted(CAPS))
def test_cap_outputs_are_pinned(label):
    assert sha(block_to_json(cap_block(label, 0, 1))) == CAPS[label]


def test_pass_through_pair_output_is_pinned():
    """Two cells that each pass one sphere through the singular level."""
    m = build_junction(Plan([([0], [0]), ([0], [0])], [0, 0], [0, 0]),
                       0, 1, 2)
    assert sha(block_to_json(m)) == \
        "40561d13bef86065dc6698c42c5212a467c1bdd16c397961e0bd2b25c621762d"


def test_fold_output_is_pinned():
    j = elementary_junction("sphere_split", F(0), F(1), F(2))
    f = fold_block(j, F(0), "min", [F(1), F(2), F(3)])
    assert sha(block_to_json(f)) == \
        "e1f4450abc98fc48e7e3a9fde74830e06996c79695cdcc329fd432a8dfbb43a9"
