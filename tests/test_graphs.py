import hashlib
import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from reebforge.corpus import realizable_corpus, violating_corpus
from reebforge.graphs import (Edge, GraphError, LabeledGraph,
                              check_realizable, euler_char, graph_to_dot,
                              is_odd_chi, parse_graph, parse_rational,
                              serialize_graph)


def make(names, values, edges):
    return LabeledGraph(list(names), [Fraction(v) for v in values],
                        [Edge(*e) for e in edges])


def test_parse_minimal_graph():
    g = parse_graph(json.dumps({
        "vertices": [{"id": "a", "value": "0/1"},
                     {"id": "b", "value": "1/1"}],
        "edges": [{"u": "a", "v": "b", "r": 0}],
    }))
    assert g.n == 2
    assert len(g.edges) == 1
    assert g.values == [Fraction(0), Fraction(1)]


def test_parse_rejects_equal_endpoint_values():
    doc = {"vertices": [{"id": "a", "value": "1/2"},
                        {"id": "b", "value": "1/2"}],
           "edges": [{"u": "a", "v": "b", "r": 0}]}
    with pytest.raises(GraphError, match="injective"):
        parse_graph(json.dumps(doc))


def test_parse_star_shape():
    doc = {"vertices": [{"id": "c", "value": "1/1"},
                        {"id": "lo", "value": "0/1"},
                        {"id": "hi1", "value": "2/1"},
                        {"id": "hi2", "value": "2/1"}],
           "edges": [{"u": "c", "v": "lo", "r": 0},
                     {"u": "c", "v": "hi1", "r": -1},
                     {"u": "c", "v": "hi2", "r": -1}]}
    g = parse_graph(json.dumps(doc))
    assert g.n == 4 and len(g.edges) == 3


@pytest.mark.parametrize("doc,msg", [
    ("{not json", "malformed"),
    (json.dumps({"vertices": [{"id": "a", "value": "0"},
                              {"id": "a", "value": "1"}],
                 "edges": [{"u": "a", "v": "a", "r": 0}]}), "duplicate"),
    (json.dumps({"vertices": [{"id": "a", "value": "0"},
                              {"id": "b", "value": "1"}],
                 "edges": [{"u": "a", "v": "a", "r": 0}]}), "loop"),
    (json.dumps({"vertices": [{"id": "a", "value": "0"},
                              {"id": "b", "value": "1"}],
                 "edges": []}), "no edges"),
    (json.dumps({"vertices": [{"id": "a", "value": "0"},
                              {"id": "b", "value": "1"},
                              {"id": "c", "value": "2"},
                              {"id": "d", "value": "3"}],
                 "edges": [{"u": "a", "v": "b", "r": 0},
                           {"u": "c", "v": "d", "r": 0}]}), "connected"),
    (json.dumps({"vertices": 5, "edges": []}), "JSON lists"),
    (json.dumps({"vertices": "ab", "edges": []}), "JSON lists"),
    (json.dumps({"vertices": [{"id": "a", "value": "0"},
                              {"id": "b", "value": "1"}],
                 "edges": 5}), "JSON lists"),
])
def test_parse_errors(doc, msg):
    with pytest.raises(GraphError, match=msg):
        parse_graph(doc)


@pytest.mark.parametrize("r,chi", [(0, 2), (1, 0), (-2, 0), (-1, 1),
                                   (3, -4), (-5, -3)])
def test_euler_char(r, chi):
    assert euler_char(r) == chi


def test_odd_chi_predicate_matches_parity():
    for r in range(-9, 10):
        assert is_odd_chi(r) == (euler_char(r) % 2 == 1)


def test_vertex_profile_extremum():
    g = make("ab", [0, 1], [(0, 1, 1)])
    p = check_realizable(g).diagnostics[0]
    assert p.up == [1] and p.down == [] and p.is_extremum


def test_vertex_profile_star_center():
    g = make(["c", "lo", "h1", "h2"], [1, 0, 2, 2],
             [(0, 1, 0), (0, 2, -1), (0, 3, -1)])
    p = check_realizable(g).diagnostics[0]
    assert p.up == [-1, -1] and p.down == [0] and not p.is_extremum


def test_vertex_profile_degree2_extremum():
    g = make("abc", [0, 1, 1], [(0, 1, 1), (0, 2, 1)])
    p = check_realizable(g).diagnostics[0]
    assert p.up == [1, 1] and p.is_extremum


def test_checker_accepts_even_odd_pair_at_extremum():
    g = make("ab", [0, 1], [(0, 1, -1), (0, 1, -1)])
    assert check_realizable(g).ok


def test_checker_rejects_single_odd_leaf():
    g = make("ab", [0, 1], [(0, 1, -1)])
    rep = check_realizable(g)
    assert not rep.ok
    assert {d.vertex for d in rep.failing} == {"a", "b"}


def test_checker_interior_difference():
    # down {-1}, up {-3} at the middle vertex: difference 0 passes even
    # though both labels are odd (the leaves still fail separately)
    g = make("abc", [0, 1, 2], [(0, 1, -1), (1, 2, -3)])
    rep = check_realizable(g)
    middle = next(d for d in rep.diagnostics if d.vertex == "b")
    assert middle.ok and not middle.is_extremum
    assert middle.odd_down == 1 and middle.odd_up == 1


def test_check_summaries_are_pinned():
    """The per-vertex report, byte for byte, over a mixed corpus."""
    graphs = realizable_corpus(20260810, 8) + violating_corpus(20260811, 16)
    text = "\n\n".join(check_realizable(g).summary() for g in graphs)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "0f830b2972e55e8e02116206a43c126af944ed06d16e7dea3ae25d382c18aaaf"


@pytest.mark.parametrize("corpus,seed,digest", [
    (realizable_corpus, 20260810,
     "f1373861e7ba5539652ea9e700a798c7d279ab69c857a104f427e8959e36f109"),
    (violating_corpus, 20260811,
     "158af47db68a030f87deff0feaffa6e9fb76e00fca7a20c8dc487b0f151d4089"),
], ids=["realizable", "violating"])
def test_corpora_are_pinned(corpus, seed, digest):
    """A seeded corpus, byte for byte: the first 50 graphs of its seed's
    stream that its filter keeps."""
    text = "\n".join(map(serialize_graph, corpus(seed, 50)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("value,want", [
    (3, Fraction(3)), ("3", Fraction(3)), ("-1/2", Fraction(-1, 2)),
    ("+4/6", Fraction(2, 3)), ("0/1", Fraction(0)),
])
def test_parse_rational_forms(value, want):
    assert parse_rational(value) == want


@pytest.mark.parametrize("value", [
    "0.5", "1e3", "1e-9999999", "1/0", " 1", "1/", "/2", "1/-2", "1_000",
    "", True, 1.5, None,
])
def test_parse_rational_refuses_other_forms(value):
    with pytest.raises(GraphError, match="not a rational"):
        parse_rational(value)


def test_checker_reports_every_failing_vertex():
    g = make("abcd", [0, 1, 2, 3],
             [(0, 1, -1), (1, 2, 0), (2, 3, -1)])
    rep = check_realizable(g)
    failing = {d.vertex for d in rep.failing}
    assert failing == {"a", "b", "c", "d"}


def test_serialize_round_trip_star():
    g = make(["c", "lo", "h1", "h2"], [1, 0, 2, 2],
             [(0, 1, 0), (0, 2, -1), (0, 3, -1)])
    g2 = parse_graph(serialize_graph(g))
    assert g2.names == g.names
    assert g2.values == g.values
    assert [(e.u, e.v, e.label) for e in g2.edges] == \
        [(e.u, e.v, e.label) for e in g.edges]


def test_dot_output():
    g = make("ab", [0, 1], [(0, 1, 0)])
    dot = graph_to_dot(g)
    assert dot.count("--") == 1
    assert 'r=0' in dot and "g=0/1" in dot


def test_dot_multigraph_multiplicity():
    g = make("ab", [0, 1], [(0, 1, -1), (0, 1, -1)])
    assert graph_to_dot(g).count("--") == 2


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@st.composite
def graphs(draw):
    n = draw(st.integers(2, 6))
    heights = draw(st.permutations(range(n)))
    values = [Fraction(h) for h in heights]
    edges = []
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        edges.append(Edge(j, i, draw(st.integers(-3, 3))))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1),
                                    st.integers(-3, 3)), max_size=4))
    for u, v, r in extra:
        if u != v:
            edges.append(Edge(min(u, v), max(u, v), r))
    return LabeledGraph([f"v{i}" for i in range(n)], values, edges)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_parse_serialize_identity(g):
    g2 = parse_graph(serialize_graph(g))
    assert g2.values == g.values
    assert sorted((e.u, e.v, e.label) for e in g2.edges) == \
        sorted((e.u, e.v, e.label) for e in g.edges)


@settings(max_examples=60, deadline=None)
@given(graphs(), st.randoms(use_true_random=False))
def test_checker_invariant_under_relabeling(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    names = [g.names[perm.index(i)] for i in range(g.n)]
    inv = [0] * g.n
    for new, old in enumerate(perm):
        inv[old] = new
    g2 = LabeledGraph([g.names[old] for old in perm],
                      [g.values[old] for old in perm],
                      [Edge(inv[e.u], inv[e.v], e.label) for e in g.edges])
    assert check_realizable(g).ok == check_realizable(g2).ok


@settings(max_examples=60, deadline=None)
@given(graphs(), st.integers(1, 5), st.integers(-10, 10))
def test_checker_invariant_under_rescaling(g, a, b):
    g2 = LabeledGraph(list(g.names),
                      [Fraction(a) * v + b for v in g.values],
                      list(g.edges))
    assert check_realizable(g).ok == check_realizable(g2).ok


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_accepted_extrema_have_even_odd_counts(g):
    rep = check_realizable(g)
    if not rep.ok:
        return
    for p in rep.diagnostics:
        if p.is_extremum:
            assert (p.odd_down + p.odd_up) % 2 == 0


def oracle_sides(g, v):
    """The one-vertex scan LabeledGraph.sides(v) that all_sides replaced,
    kept verbatim (self renamed g) as the reference: sorted (label, edge
    index) pairs of the edges whose far endpoint lies below v, and of
    those whose far endpoint lies above it."""
    down, up = [], []
    for ei, e in enumerate(g.edges):
        if v in (e.u, e.v):
            other = e.v if e.u == v else e.u
            side = up if g.values[other] > g.values[v] else down
            side.append((e.label, ei))
    return sorted(down), sorted(up)


@settings(max_examples=80, deadline=None)
@given(graphs())
def test_one_pass_sides_match_one_vertex_scans(g):
    assert g.all_sides() == [oracle_sides(g, v) for v in range(g.n)]


def test_a_long_path_is_checked_in_one_pass():
    # a zigzag path of 20,000 vertices at heights 0, 1, 0, 1, ...: one
    # scan of the edges per vertex took 1.4 s at 4,000 vertices
    n = 20000
    g = make([f"v{i}" for i in range(n)], [i % 2 for i in range(n)],
             [(i, i + 1, 0) for i in range(n - 1)])
    t0 = time.perf_counter()
    report = check_realizable(g)
    assert time.perf_counter() - t0 < 1
    assert report.ok and len(report.diagnostics) == n
