import os
import pickle
import threading
import time
import warnings
from collections import deque
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations_with_replacement
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from reebforge import assembly, complexes
from reebforge.assembly import (AssemblyError, Manifold3, VerificationResult,
                                _split_extremum_labels, assemble,
                                common_refinement, extract_reeb,
                                manifold_from_dict, manifold_to_dict,
                                validate_manifold, verify_realization)
from reebforge.blocks import CheckReport, cylinder_block, plan_junction
from reebforge.canonical import canonical_mesh
from reebforge.complexes import (ComplexError, TetComplex, cone_complex,
                                 euler_characteristic, face_map,
                                 merge_complexes, validate_complex)
from reebforge.corpus import realizable_corpus
from reebforge.graphs import Edge, LabeledGraph, brief, is_odd_chi
from reebforge.reeb import ReebError, labeled_isomorphic
from reebforge.unionfind import UnionFind
from junction_oracle import remove_tets
from test_complexes import (COPIES, _accepts, _damaged, _identify,
                            _message, euler_from_faces, oracle_validate,
                            validate_complex_reference, validate_faces)


def make(names, values, edges):
    return LabeledGraph(list(names), [F(v) for v in values],
                        [Edge(*e) for e in edges])


MINIMAL = make("ab", [0, 1], [(0, 1, 0)])
THETA = make("ab", [0, 1], [(0, 1, -1), (0, 1, -1)])


def test_minimal_graph_assembles():
    m = assemble(MINIMAL)
    rep = validate_manifold(m)
    assert rep.ok, rep.summary()
    assert len(m.cx.tets) < 10_000
    r = extract_reeb(m)
    assert len(r.nodes) == 2 and len(r.edges) == 1
    assert r.edges[0].label == 0


def test_minimal_graph_midlevel_slice():
    from reebforge.reeb import level_set_of
    from reebforge.surfaces import classify_labels
    m = assemble(MINIMAL)
    assert F(1, 2) not in set(m.values)
    ls = level_set_of(m.cx.tets, m.values, F(1, 2))
    assert classify_labels(ls.mesh) == [0]


def test_theta_multigraph_round_trip():
    res = verify_realization(THETA)
    assert res.ok, res.detail
    r = res.reeb
    assert len(r.nodes) == 2
    assert sorted(e.label for e in r.edges) == [-1, -1]


def test_rejected_graph_raises():
    bad = make("ab", [0, 1], [(0, 1, -1)])
    with pytest.raises(AssemblyError, match="parity"):
        assemble(bad)


def test_function_range_matches_graph():
    g = make("abc", [0, 2, 5], [(0, 1, 0), (1, 2, 1)])
    m = assemble(g)
    assert min(m.values) == F(0)
    assert max(m.values) == F(5)


def test_every_tet_has_provenance():
    m = assemble(THETA)
    assert len(m.provenance) == len(m.cx.tets)
    kinds = {k for k, _ in m.provenance}
    assert kinds == {"vertex", "edge"}


def test_closed_manifold_chi_zero():
    m = assemble(THETA)
    assert euler_characteristic(m.cx) == 0


def test_interior_vertex_with_genus_edges():
    g = make("abcd", [0, 1, 2, 3],
             [(0, 1, 1), (1, 2, -2), (1, 2, 0), (2, 3, 2)])
    res = verify_realization(g)
    assert res.ok, res.detail


def test_extremum_fold_vertex():
    # degree-2 maximum with two odd labels forces a fold
    g = make("abc", [0, 1, 2], [(0, 1, 0), (1, 2, -1), (1, 2, -1)])
    res = verify_realization(g)
    assert res.ok, res.detail


def test_every_extremum_split_has_two_sides_a_plan_accepts():
    # every multiset of 2-6 labels in -4..4 with an even odd-chi count, the
    # extremum sides that reach the split (one label caps, or fails
    # parity), enumerated rather than sampled: 2,885 of them
    count = 0
    for k in range(2, 7):
        for labels in combinations_with_replacement(range(-4, 5), k):
            if sum(map(is_odd_chi, labels)) % 2:
                continue
            f1, f2 = _split_extremum_labels(list(labels))
            assert f1 and f2 and sorted(f1 + f2) == list(labels)
            plan_junction(f1, f2)
            count += 1
    assert count == 2885


def test_equal_height_vertices():
    g = make("abcd", [0, 1, 1, 2],
             [(0, 1, 0), (0, 2, 0), (1, 3, 0), (2, 3, 0)])
    res = verify_realization(g)
    assert res.ok, res.detail


def test_gluing_rejects_components_of_different_meshes():
    sphere = cylinder_block(0, F(0), F(1)).boundary[1]
    torus = cylinder_block(1, F(1), F(2)).boundary[0]
    with pytest.raises(AssemblyError, match="different triangle sets"):
        common_refinement(sphere, torus)


def test_deleted_tet_detected():
    m = assemble(MINIMAL)
    broken = Manifold3(TetComplex(m.cx.nv, list(m.cx.tets)), list(m.values),
                       list(m.provenance), list(m.vertex_values))
    del broken.cx.tets[7]
    del broken.provenance[7]
    rep = validate_manifold(broken)
    assert not rep.ok
    closed = next(c for c in rep.checks if c[0] == "closed")
    assert not closed[1] and "boundary triangles" in closed[2]


def test_disjoint_union_detected():
    m = assemble(MINIMAL)
    n = m.cx.nv
    tets = list(m.cx.tets) + [tuple(v + n for v in t) for t in m.cx.tets]
    from reebforge.complexes import TetComplex
    double = Manifold3(TetComplex(2 * n, tets),
                       m.values + m.values,
                       m.provenance + m.provenance,
                       list(m.vertex_values))
    rep = validate_manifold(double)
    connected = next(c for c in rep.checks if c[0] == "connected")
    assert not connected[1]


def test_mislabeled_edge_detected():
    res = verify_realization(MINIMAL, mislabel_edge=0)
    assert not res.ok
    assert "isomorphism" in res.detail or "label" in res.detail


def test_extracted_graph_refeeds_to_checker():
    from reebforge.graphs import check_realizable
    res = verify_realization(THETA)
    g = res.reeb.to_labeled_graph()
    assert check_realizable(g).ok


def test_manifold_json_round_trip():
    m = assemble(MINIMAL)
    doc = manifold_to_dict(m)
    m2 = manifold_from_dict(doc)
    assert m2.cx.tets == m.cx.tets
    assert m2.values == m.values
    r1 = extract_reeb(m)
    r2 = extract_reeb(m2)
    assert labeled_isomorphic(r1.to_labeled_graph(),
                              r2.to_labeled_graph()).isomorphic


def test_round_trip_isomorphism_returns_value_preserving_map():
    g = make("abc", [0, 1, 2], [(0, 1, 0), (1, 2, -2)])
    res = verify_realization(g)
    assert res.ok
    iso = labeled_isomorphic(res.reeb, g)
    assert iso.isomorphic
    for node, vertex in iso.mapping.items():
        assert res.reeb.to_labeled_graph().values[node] == g.values[vertex]


def test_assembly_at_refinement_two():
    res = verify_realization(THETA, refinement=2)
    assert res.ok, res.detail


def test_validate_manifold_reports_pinched_wedge():
    # two closed 3-spheres (doubled cones over the sphere) sharing one apex:
    # closed, but the apex link is disconnected and no face joins the two
    sphere = canonical_mesh(0, 1)
    cone = cone_complex(sphere)
    apex = sphere.nv
    ball_double = [(0, v, 1, v) for v in range(sphere.nv)]
    s3, _ = merge_complexes([cone, cone], ball_double)
    cx, vmaps = merge_complexes([s3, s3], [(0, s3.nv - 1, 1, s3.nv - 1)])
    n = len(cx.tets)
    m = Manifold3(cx, [F(0)] * cx.nv, [("vertex", 0)] * n)
    checks = {name: (ok, msg) for name, ok, msg in validate_manifold(m).checks}
    assert checks["closed"][0]
    assert not checks["links"][0]
    assert checks["links"][1] == \
        f"vertex {vmaps[0][s3.nv - 1]} link is disconnected"
    assert checks["connected"] == (False, f"{n // 2}/{n} tetrahedra")
    assert checks["euler"] == (False, "chi = -1")


# ---------------------------------------------------------------------------
# every check of validate_manifold against its own reference, on damaged
# manifolds: chi and connectivity must be reported even when links fail
# ---------------------------------------------------------------------------

def _reached_by_bfs(cx) -> int:
    """Tets reached from tet 0 through shared faces."""
    nbrs: dict[int, set[int]] = {}
    for ts in face_map(cx).values():
        for t in ts:
            nbrs.setdefault(t, set()).update(ts)
    seen = {0}
    queue = deque([0])
    while queue:
        for u in nbrs[queue.popleft()] - seen:
            seen.add(u)
            queue.append(u)
    return len(seen)


@lru_cache(maxsize=None)
def _assembled(i: int) -> Manifold3:
    return assemble((MINIMAL, THETA)[i])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1), st.integers(0, 2 ** 32), st.integers(0, 4),
       st.sampled_from([None, "near", "far"]), st.booleans(), st.booleans())
def test_every_check_matches_its_reference(i, seed, holes, glue, stray,
                                           keep_provenance):
    # removed tets make boundary; identified vertices make degenerate
    # tets, pinched or disconnected links; a stray tet on new vertices
    # makes the complex disconnected
    rng = Random(seed)
    m = _assembled(i)
    drop = set(rng.sample(range(len(m.cx.tets)), holes))
    cx = remove_tets(m.cx, drop)
    provenance = [p for ti, p in enumerate(m.provenance) if ti not in drop]
    if stray:
        cx = TetComplex(cx.nv + 4, cx.tets + [tuple(range(cx.nv,
                                                           cx.nv + 4))])
        provenance.append(("edge", 0))
    if glue:
        u = rng.choice(rng.choice(cx.tets))
        if glue == "near":
            nbrs = {x for t in cx.tets if u in t for x in t}
            w = rng.choice(rng.choice([t for t in cx.tets
                                       if nbrs & set(t)]))
        else:
            w = rng.randrange(cx.nv)
        if w != u:
            cx = _identify(cx, u, w)
    if keep_provenance:
        provenance = list(m.provenance)
    damaged = Manifold3(cx, [F(0)] * cx.nv, provenance)
    checks = {name: (ok, msg)
              for name, ok, msg in validate_manifold(damaged).checks}
    assert list(checks) == ["closed", "links", "connected", "euler",
                            "provenance"]
    # the face-map oracles: boundary_faces and euler_characteristic read
    # the census that validate_manifold reads
    fm = face_map(cx)
    assert checks["closed"][0] == all(len(ts) != 1 for ts in fm.values())
    assert checks["links"][0] == _accepts(oracle_validate, cx)
    n = len(cx.tets)
    reached = _reached_by_bfs(cx)
    assert checks["connected"] == (reached == n, f"{reached}/{n} tetrahedra")
    chi = euler_from_faces(cx, fm)
    assert checks["euler"] == (chi == 0, f"chi = {chi}")
    assert checks["provenance"][0] == (len(provenance) == n)


# ---------------------------------------------------------------------------
# reference: validate_manifold before the one-pass accept, every check read
# off a face map, kept verbatim
# ---------------------------------------------------------------------------

def validate_manifold_reference(m: Manifold3) -> CheckReport:
    """Closedness, link conditions, connectedness, chi = 0, provenance,
    every one read off a single face map."""
    fm = face_map(m.cx)
    checks = []
    bf = [f for f, ts in fm.items() if len(ts) == 1]
    checks.append(("closed", not bf,
                   "no boundary triangles" if not bf else
                   f"{len(bf)} boundary triangles, e.g. {bf[:3]}"))
    try:
        chi = validate_faces(m.cx, fm)
        checks.append(("links", True, "all vertex links are spheres/disks"))
    except ComplexError as exc:
        checks.append(("links", False, str(exc)))
        chi = euler_from_faces(m.cx, fm)
    # connectivity over tets through shared faces; no tets is no manifold
    n = len(m.cx.tets)
    uf = UnionFind(n)
    union = uf.union
    for ts in fm.values():
        for t in ts[1:]:
            union(t, ts[0])
    roots = [uf.find(t) for t in range(n)]
    reached = roots.count(roots[0]) if n else 0
    checks.append(("connected", 0 < reached == n,
                   f"{reached}/{n} tetrahedra"))
    checks.append(("euler", chi == 0, f"chi = {chi}"))
    detail = f"{len(m.provenance)} records for {len(m.cx.tets)} tets"
    bad = next((j for j, (kind, _) in enumerate(m.provenance)
                if kind not in ("vertex", "edge")), None)
    if bad is not None and len(m.provenance) == len(m.cx.tets):
        detail = (f"record {bad} is {brief(list(m.provenance[bad]))}, "
                  "neither a vertex nor an edge record")
    checks.append(("provenance", bad is None and
                   len(m.provenance) == len(m.cx.tets), detail))
    return CheckReport(checks)


@lru_cache(maxsize=None)
def _reference_base(i: int) -> Manifold3:
    if i < 2:
        return _assembled(i)
    # the benchmark's corpus graph with a torus edge and a genus-2 edge
    return assemble(realizable_corpus(20260810, 3)[2])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2 ** 32), st.integers(0, 3),
       st.sampled_from([None, "near", "far"]),
       st.sampled_from([None, "apart", "vertex", "face"]), st.booleans(),
       st.sampled_from(COPIES), st.booleans())
def test_validate_manifold_matches_reference(i, seed, holes, glue, stray,
                                             permute, copies,
                                             keep_provenance):
    # the same checks, verdicts and messages as the face-map code the one
    # pass replaced, on assembled manifolds whole and damaged
    m = _reference_base(i)
    cx = _damaged(m.cx, Random(seed), holes, glue, stray, permute, copies)
    provenance = list(m.provenance) if keep_provenance else \
        [("edge", 0)] * len(cx.tets)
    damaged = Manifold3(cx, [F(0)] * cx.nv, provenance)
    assert validate_manifold(damaged).checks == \
        validate_manifold_reference(damaged).checks


def test_a_passing_manifold_builds_no_face_map(monkeypatch):
    def refuse(cx):
        raise AssertionError("a face map was built")
    m = _assembled(1)
    monkeypatch.setattr(complexes, "face_map", refuse)
    assert validate_manifold(m).ok
    # nor does a failing one: the census names its own faults
    broken = Manifold3(TetComplex(m.cx.nv, m.cx.tets[1:]), m.values,
                       m.provenance[1:])
    assert not validate_manifold(broken).ok


def _colliding(cx: TetComplex) -> TetComplex:
    """cx with the last vertex of a tet at vertex a - 1 swapped for nv + b,
    where ab is an edge: read as digits base nv, the edge from a - 1 to
    nv + b and edge ab are the same number."""
    nv = cx.nv
    a, b = next(sorted(t)[:2] for t in cx.tets if min(t) > 0)
    ti = next(ti for ti, t in enumerate(cx.tets)
              if a - 1 in t and max(t) != a - 1)
    t = cx.tets[ti]
    tets = list(cx.tets)
    tets[ti] = tuple(nv + b if x == max(t) else x for x in t)
    return TetComplex(nv, tets)


@pytest.mark.parametrize("first", [True, False])
@pytest.mark.parametrize("collide", [False, True])
def test_out_of_range_ids_match_the_references(first, collide):
    # one tet holding id nv and another holding -1, in either order: the
    # faces and edges past the fault must keep distinct keys, so that the
    # closed, connected and euler checks read as before
    m = _assembled(1)
    nv = m.cx.nv
    tets = list(m.cx.tets)
    for ti, x in zip((3, 40) if first else (40, 3), (nv, -1)):
        tets[ti] = (x,) + tets[ti][1:]
    cx = TetComplex(nv, tets)
    if collide:
        cx = _colliding(cx)
    assert _message(validate_complex, cx) == \
        _message(validate_complex_reference, cx)
    damaged = Manifold3(cx, m.values, m.provenance)
    assert validate_manifold(damaged).checks == \
        validate_manifold_reference(damaged).checks


# ---------------------------------------------------------------------------
# verify takes the census in a forked child while the parent extracts
# ---------------------------------------------------------------------------

FORKS = hasattr(os, "fork")
needs_fork = pytest.mark.skipif(not FORKS, reason="no os.fork here")


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes verify forks from here on."""
    pids = []
    if FORKS:
        real = os.fork

        def fork():
            pid = real()
            if pid:
                pids.append(pid)
            return pid
        monkeypatch.setattr(os, "fork", fork)
    return pids


def _census_in(where, census=complexes.manifold_census):
    """A census that runs only in the parent process; `where(cx)` decides
    what it does in a child.  Parent calls are recorded in `.calls`."""
    parent = os.getpid()

    def patched(cx):
        if os.getpid() != parent:
            return where(cx)
        patched.calls.append(len(cx.tets))
        return census(cx)
    patched.calls = []
    return patched


def test_verify_forks_one_census_and_reaps_it(forks):
    # a fork from a single-threaded process warns of nothing on any
    # Python; warnings are recorded, not raised, because Python 3.12+
    # does not raise its fork DeprecationWarning under "error"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = verify_realization(MINIMAL)
    assert [str(w.message) for w in caught] == []
    assert res.ok, res.detail
    assert len(forks) == FORKS and _no_child_left()


@needs_fork
def test_census_error_in_the_child_is_raised_in_the_parent(monkeypatch,
                                                           forks):
    def boom(cx):
        raise complexes.ComplexError("boom")
    census = _census_in(boom)
    monkeypatch.setattr(assembly, "manifold_census", census)
    with pytest.raises(complexes.ComplexError) as info:
        verify_realization(MINIMAL)
    assert str(info.value) == "boom"
    # the child raised it: the parent took no census of its own
    assert census.calls == [] and len(forks) == 1
    assert _no_child_left()


@needs_fork
def test_a_child_dying_without_a_result_falls_back_to_the_inline_census(
        monkeypatch, forks):
    census = _census_in(lambda cx: os._exit(1))
    monkeypatch.setattr(assembly, "manifold_census", census)
    res = verify_realization(MINIMAL)
    assert res.ok, res.detail
    assert len(forks) == 1 and census.calls == [len(res.manifold.cx.tets)]
    assert _no_child_left()


@needs_fork
def test_an_interrupt_while_extracting_kills_the_child(monkeypatch, forks):
    def interrupt(m):
        raise KeyboardInterrupt
    # a child still busy when the parent gives up
    monkeypatch.setattr(assembly, "manifold_census",
                        _census_in(lambda cx: time.sleep(60)))
    monkeypatch.setattr(assembly, "extract_reeb", interrupt)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        verify_realization(MINIMAL)
    assert time.perf_counter() - t0 < 30
    assert len(forks) == 1 and _no_child_left()


def _holed_corpus_manifold() -> Manifold3:
    m = assemble(realizable_corpus(20260810, 3)[0])
    return Manifold3(TetComplex(m.cx.nv, m.cx.tets[1:]), m.values,
                     m.provenance[1:], m.vertex_values)


def test_an_invalid_manifold_fails_with_no_reeb_graph(monkeypatch):
    holed = _holed_corpus_manifold()
    # extraction alone does not notice the hole: its graph must not leak
    assert len(extract_reeb(holed).nodes) == 3
    want = VerificationResult(False, holed, None, "manifold invalid:\n" +
                              validate_manifold(holed).summary())
    monkeypatch.setattr(assembly, "assemble", lambda g, refinement: holed)
    assert verify_realization(MINIMAL) == want

    def fail(m):
        raise ReebError("sweep failed")
    monkeypatch.setattr(assembly, "extract_reeb", fail)
    assert verify_realization(MINIMAL) == want
    assert _no_child_left()


def test_a_census_larger_than_the_pipe_buffer_comes_through(monkeypatch,
                                                            forks):
    # every tet of a corpus manifold on its own four vertices: all its
    # faces are boundary, and the child's result outgrows a 64 KiB pipe
    m = assemble(realizable_corpus(20260810, 3)[0])
    n = len(m.cx.tets)
    apart = Manifold3(TetComplex(4 * n, [tuple(range(4 * i, 4 * i + 4))
                                         for i in range(n)]),
                      [m.values[v] for t in m.cx.tets for v in t],
                      m.provenance, m.vertex_values)
    census = complexes.manifold_census(apart.cx)
    assert len(pickle.dumps((True, census))) > 1 << 16
    want = VerificationResult(False, apart, None, "manifold invalid:\n" +
                              validate_manifold(apart, lambda: census)
                              .summary())
    monkeypatch.setattr(assembly, "assemble", lambda g, refinement: apart)
    assert verify_realization(MINIMAL) == want
    assert len(forks) == FORKS and _no_child_left()


def test_an_extraction_error_on_a_valid_manifold_is_raised(monkeypatch):
    def fail(m):
        raise ReebError("sweep failed")
    monkeypatch.setattr(assembly, "extract_reeb", fail)
    with pytest.raises(ReebError, match="sweep failed"):
        verify_realization(MINIMAL)
    assert _no_child_left()


def _outcomes(graphs):
    return [(r.ok, r.detail, r.reeb)
            for r in map(verify_realization, graphs)]


def test_inline_census_paths_match_the_forked_one(monkeypatch, forks):
    graphs = realizable_corpus(20260810, 3)
    forked = _outcomes(graphs)
    assert all(ok for ok, _, _ in forked)
    assert len(forks) == 3 * FORKS
    del forks[:]
    # a second thread alive: no fork
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert _outcomes(graphs) == forked
    finally:
        stop.set()
        other.join(10)
    assert not other.is_alive() and forks == []
    # no os.fork on this platform
    monkeypatch.delattr(os, "fork", raising=False)
    assert _outcomes(graphs) == forked
    assert forks == [] and _no_child_left()


def vertex_epsilons_reference(g: LabeledGraph) -> list[F]:
    """The per-vertex edge scan that the one-pass _vertex_epsilons
    replaced, kept verbatim."""
    eps = []
    for v in range(g.n):
        gaps = [abs(g.values[e.u] - g.values[e.v])
                for e in g.edges if v in (e.u, e.v)]
        eps.append(min(gaps) / 3)
    return eps


@st.composite
def height_graphs(draw):
    """Connected multigraphs with distinct rational heights."""
    n = draw(st.integers(2, 8))
    values = draw(st.lists(st.fractions(-4, 4, max_denominator=6),
                           min_size=n, max_size=n, unique=True))
    edges = [Edge(draw(st.integers(0, i - 1)), i, 0) for i in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=8))
    edges += [Edge(min(u, v), max(u, v), 0) for u, v in extra if u != v]
    return LabeledGraph([f"v{i}" for i in range(n)], values, edges)


@settings(max_examples=80, deadline=None)
@given(height_graphs())
def test_one_pass_vertex_gaps_match_per_vertex_scans(g):
    got = assembly._vertex_epsilons(g)
    assert got == vertex_epsilons_reference(g)
    assert all(type(eps) is F for eps in got)


def test_vertex_gaps_of_a_long_path_take_one_pass():
    # a zigzag path of 20,000 vertices: one edge scan per vertex took
    # 0.4 s at 2,000 vertices and 1.7 s at 4,000
    n = 20000
    g = LabeledGraph([f"v{i}" for i in range(n)],
                     [F(i % 2) for i in range(n)],
                     [Edge(i, i + 1, 0) for i in range(n - 1)])
    t0 = time.perf_counter()
    eps = assembly._vertex_epsilons(g)
    assert time.perf_counter() - t0 < 1
    assert eps == [F(1, 3)] * n
