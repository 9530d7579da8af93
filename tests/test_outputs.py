"""Pinned outputs: manifold and Reeb graph JSON of three corpus graphs
must stay byte-identical.  A refactor that changes any of these digests
changes the construction or the extraction; update a digest only together
with a note on why the output moved."""
import hashlib

import pytest

from reebforge.assembly import assemble, extract_reeb, manifold_to_json
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
