"""Seeded random graph corpora for round-trip verification and for
negative checker tests."""
from __future__ import annotations

import random
from fractions import Fraction

from .graphs import Edge, LabeledGraph, check_realizable

# the most graphs of each kind `corpus --count` draws: about 8 s in all
MAX_CORPUS_COUNT = 10_000


def random_graph(rng: random.Random, max_vertices: int = 8,
                 max_edges: int = 10, max_label: int = 3) -> LabeledGraph:
    """Connected multigraph with distinct vertex heights and random labels."""
    n = rng.randint(2, max_vertices)
    heights = list(range(n))
    rng.shuffle(heights)
    denom = rng.choice([1, 1, 2, 3])
    values = [Fraction(h, denom) for h in heights]
    names = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append(Edge(j, i, rng.randint(-max_label, max_label)))
    extra = rng.randint(0, max(0, max_edges - len(edges)))
    for _ in range(extra):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        edges.append(Edge(min(u, v), max(u, v),
                          rng.randint(-max_label, max_label)))
    return LabeledGraph(names, values, edges)


def _draw(seed: int, count: int, keep) -> list[LabeledGraph]:
    """seed's first count graphs whose parity report keep accepts."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = random_graph(rng)
        if keep(check_realizable(g)):
            out.append(g)
    return out


def realizable_corpus(seed: int, count: int) -> list[LabeledGraph]:
    """Seeded graphs filtered to pass the parity checker."""
    return _draw(seed, count, lambda rep: rep.ok)


def violating_corpus(seed: int, count: int) -> list[LabeledGraph]:
    """Seeded graphs violating exactly one of the two parity conditions
    (every failure is of the extremum kind, or every failure is of the
    interior kind).

    No graph can fail at exactly one vertex: both conditions amount to
    "the odd-chi incidence count is even", and each odd-chi edge touches
    two vertices, so the failing vertices always come in even numbers.
    """
    return _draw(seed, count,
                 lambda rep: len({d.is_extremum for d in rep.failing}) == 1)
