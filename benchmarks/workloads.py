"""Inputs, units and output checks of the three benchmark workloads.

The seed must not change how much work a run does.  A run holds only a
handful of verify units (2 to 24k tets each), and when every seed drew
fresh graphs the median unit time moved by 20-40% between seeds, more than
any bound worth having; drawing one junction from each of 50 cost strata
per seed still moved junction_star's throughput and median by about 15%.
So every workload runs a fixed set of inputs, and the seed draws how each
is presented and the unit order:

* verify workloads: vertex numbering and names, edge order and endpoint
  order, and a positive affine change of heights.  The built manifold and
  its Reeb graph are the same up to renumbering and that change of
  heights.  The seed also draws the parity violators of the rejection
  path;
* junction_star runs the middle case of each of 50 strata of the 673 star
  cases ordered by measured unit time; the seed draws the order of the
  labels on each side and a positive integer affine change of heights.

`reference.json` holds that order and the output digest of every unit,
taken on the reference presentation; `calibrate.py` rebuilds it.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from reebforge import assembly, canonical
from reebforge.blocks import plan_junction
from reebforge.corpus import random_graph, realizable_corpus, violating_corpus
from reebforge.graphs import (Edge, LabeledGraph, check_realizable,
                              euler_char, is_odd_chi)

REFINEMENT = 1
# seed of ROADMAP's baseline corpus and of acceptance criterion 3
CORPUS_SEED = 20260810
REFERENCE = Path(__file__).with_name("reference.json")
VIOLATORS = 16


@dataclass
class Outcome:
    """What one unit produced: tets built and verified, an output digest
    and, for a wrong result, the reason."""

    tets: int
    digest: str
    error: str | None = None


@dataclass
class Unit:
    key: str                      # names the reference digest
    labels: list[int]             # surface labels whose caches setup fills
    run: Callable[[], Outcome]


def reeb_digest(reeb, ntets: int, nverts: int,
                scale=Fraction(1), shift=Fraction(0)) -> str:
    """Digest of an extracted Reeb graph: exact node values (mapped back
    through value -> (value - shift) / scale), essential and pinned flags,
    sorted labeled edges, and the built tet and vertex counts.  Edges name
    their ends by value and flags, so node numbering does not enter."""
    nodes = [((n.value - shift) / scale, n.essential, n.pinned)
             for n in reeb.nodes]
    edges = sorted(tuple(sorted((nodes[e.a], nodes[e.b]))) + (e.label,)
                   for e in reeb.edges)
    text = repr((ntets, nverts, sorted(nodes), edges))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


# ---------------------------------------------------------------------------
# verify workloads: one input graph -> verify_realization -> verdict
# ---------------------------------------------------------------------------

def present(g: LabeledGraph, rng: random.Random):
    """g under a seeded vertex numbering, edge order and endpoint order,
    and positive affine change of heights; returns it with scale, shift."""
    scale = Fraction(rng.randint(1, 4), rng.randint(1, 4))
    shift = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
    perm = list(range(g.n))
    rng.shuffle(perm)
    values = [Fraction(0)] * g.n
    for v in range(g.n):
        values[perm[v]] = scale * g.values[v] + shift
    edges = []
    for e in g.edges:
        u, v = perm[e.u], perm[e.v]
        edges.append(Edge(u, v, e.label) if rng.random() < 0.5
                     else Edge(v, u, e.label))
    rng.shuffle(edges)
    names = [f"s{v}" for v in range(g.n)]
    return LabeledGraph(names, values, edges), scale, shift


def _verify_units(graphs, rng) -> list[Unit]:
    units = []
    for i, g in enumerate(graphs):
        scale, shift = Fraction(1), Fraction(0)
        if rng is not None:
            g, scale, shift = present(g, rng)

        def run(g=g, scale=scale, shift=shift) -> Outcome:
            res = assembly.verify_realization(g, REFINEMENT)
            if res.manifold is None or res.reeb is None:
                return Outcome(0, "", res.detail)
            cx = res.manifold.cx
            return Outcome(len(cx.tets),
                           reeb_digest(res.reeb, len(cx.tets), cx.nv,
                                       scale, shift),
                           None if res.ok else res.detail)
        units.append(Unit(str(i), sorted({e.label for e in g.edges}), run))
    return units


def corpus_units(rng) -> list[Unit]:
    """ROADMAP's baseline corpus: 8 graphs at the default generator sizes
    (2-8 vertices, at most 10 edges, |r| <= 3), 2.2k-24k tets."""
    return _verify_units(realizable_corpus(CORPUS_SEED, 8), rng)


def tall_units(rng) -> list[Unit]:
    """The first realizable graph with at least 20 vertices in the corpus
    seed's stream at 24 vertices, 28 edges and |r| <= 2: 23 vertices,
    57k tets, 95 layers."""
    stream = random.Random(CORPUS_SEED)
    while True:
        g = random_graph(stream, max_vertices=24, max_edges=28, max_label=2)
        if g.n >= 20 and check_realizable(g).ok:
            return _verify_units([g], rng)


# ---------------------------------------------------------------------------
# junction_star: one criterion-2 star case -> junction block -> star contract
# ---------------------------------------------------------------------------

def star_cases() -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The 673 star cases of acceptance criterion 2, by the same rule as
    tests/test_acceptance.py::_star_cases."""
    labels = range(-3, 4)
    sides = sorted({(l,) for l in labels} |
                   {tuple(sorted((a, b))) for a in labels for b in labels})
    return [(b, t) for b in sides for t in sides
            if sum(1 for l in b + t if is_odd_chi(l)) % 2 == 0]


def _star_unit(key: str, bottom, top, rng) -> Unit:
    """The junction over [0, 2] with singular value 1, or with the seeded
    rng, over its image under x -> scale * x + shift with the labels of
    each side in a seeded order."""
    scale, shift = Fraction(1), Fraction(0)
    bottom, top = list(bottom), list(top)
    if rng is not None:
        scale = Fraction(rng.randint(1, 4))
        shift = Fraction(rng.randint(-8, 8))
        rng.shuffle(bottom)
        rng.shuffle(top)
    lo, mid, hi = shift, scale + shift, 2 * scale + shift

    def run() -> Outcome:
        plan = plan_junction(bottom, top)
        # called through reebforge.assembly, where the traced run wraps them
        block = assembly.build_junction(plan, lo, mid, hi, REFINEMENT)
        reeb = assembly.reeb_graph_of(block.cx.tets, block.values,
                                      pin_values=[mid])
        ntets = len(block.cx.tets)
        return Outcome(ntets,
                       reeb_digest(reeb, ntets, block.cx.nv, scale, shift),
                       _star_contract_error(reeb, bottom, top, lo, mid, hi))
    return Unit(key, sorted(set(bottom) | set(top)), run)


def _star_contract_error(reeb, bottom, top, lo, mid, hi) -> str | None:
    """One centre node at the singular value joined to one leaf per
    boundary component, at the component's end value and with its label."""
    centre = [i for i, node in enumerate(reeb.nodes) if node.value == mid]
    if len(reeb.nodes) != len(bottom) + len(top) + 1 or len(centre) != 1:
        return f"{len(reeb.nodes)} nodes, {len(centre)} at the centre"
    c = centre[0]
    leaves = sorted((reeb.nodes[e.a + e.b - c].value, e.label)
                    for e in reeb.edges if c in (e.a, e.b))
    want = sorted([(lo, l) for l in bottom] + [(hi, l) for l in top])
    if len(leaves) != len(reeb.edges) or leaves != want:
        return f"star edges {leaves} != {want}"
    return None


def star_units(rng) -> list[Unit]:
    return [_star_unit(str(i), b, t, rng)
            for i, (b, t) in enumerate(star_cases())]


# ---------------------------------------------------------------------------
# rejection path: parity violators must be rejected by check_realizable
# ---------------------------------------------------------------------------

def rejection_error(g) -> str | None:
    """None when the checker rejects g with failing vertices of one kind."""
    rep = check_realizable(g)
    if rep.ok or not rep.failing:
        return "parity violator accepted"
    if len({d.is_extremum for d in rep.failing}) != 1:
        return "failing vertices of both kinds"
    return None


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    name: str
    # every unit, presented as the seeded rng draws (None: reference form)
    units: Callable[[random.Random | None], list[Unit]]
    strata: int = 0          # >0: run the middle unit of each stratum of
                             # the cost order
    rejections: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("corpus_verify", corpus_units, rejections=True),
    Workload("tall_verify", tall_units),
    Workload("junction_star", star_units, strata=50),
)}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def select(w: Workload, seed: int, reference: dict):
    """The seed's units, in a seeded order, and its parity violators."""
    rng = random.Random(f"{w.name}/{seed}")
    units = w.units(rng)
    if w.strata:
        order = reference["order"]
        units = [units[order[(2 * i + 1) * len(order) // (2 * w.strata)]]
                 for i in range(w.strata)]
    rng.shuffle(units)
    violators = violating_corpus(seed, VIOLATORS) if w.rejections else []
    return units, violators


def fill_caches(units: list[Unit]) -> None:
    """Canonical meshes for every label used, and solids for every even-chi
    label used, at the benchmark's refinement."""
    labels = sorted({l for u in units for l in u.labels})
    for label in labels:
        canonical.canonical_mesh(label, REFINEMENT)
    for label in labels:
        if euler_char(label) % 2 == 0:
            canonical.solid_for_label(label, REFINEMENT)
