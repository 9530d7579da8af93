"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one pass/fail line
(run with -s to see them).  Temporary files for the CLI criteria live in
pytest's tmp factory.
"""
import time
from fractions import Fraction as F

from reebforge.assembly import (Manifold3, assemble, validate_manifold,
                                verify_realization)
from reebforge.blocks import (build_junction, cap_block,
                              elementary_junction, fold_block,
                              plan_junction, verify_block)
from reebforge.canonical import canonical_mesh
from reebforge.cli import main
from reebforge.complexes import euler_characteristic, surface_prism
from reebforge.corpus import realizable_corpus, violating_corpus
from reebforge.graphs import check_realizable, is_odd_chi, serialize_graph
from reebforge.reeb import reeb_graph_of
from reebforge.surfaces import classify_surface


def report(name, ok, detail=""):
    print(f"\nacceptance {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_surface_round_trip():
    t0 = time.time()
    for r in range(-6, 7):
        for k in (1, 2):
            comps = classify_surface(canonical_mesh(r, k))
            assert len(comps) == 1 and comps[0].label == r, (r, k)
    elapsed = time.time() - t0
    report("1 surface round trip",
           elapsed < 10,
           f"(26 meshes classified in {elapsed:.2f}s)")


def _star_cases():
    labels = range(-3, 4)
    sides = sorted({(l,) for l in labels} |
                   {tuple(sorted((a, b))) for a in labels for b in labels})
    return [(b, t) for b in sides for t in sides
            if sum(1 for l in b + t if is_odd_chi(l)) % 2 == 0]


def test_criterion_2_star_contract():
    cases = _star_cases()
    worst = 0.0
    t0 = time.time()
    for bottom, top in cases:
        t1 = time.time()
        plan = plan_junction(list(bottom), list(top))
        block = build_junction(plan, F(0), F(1), F(2))
        reeb = reeb_graph_of(block.cx.tets, block.values, pin_values=[F(1)])
        n = len(bottom) + len(top)
        assert len(reeb.nodes) == n + 1, (bottom, top)
        center = [i for i, node in enumerate(reeb.nodes)
                  if node.value == F(1)]
        assert len(center) == 1, (bottom, top)
        assert reeb.degree(center[0]) == n, (bottom, top)
        interior = {node.value for node in reeb.nodes} - {F(0), F(2)}
        assert interior == {F(1)}, (bottom, top)
        worst = max(worst, time.time() - t1)
    report("2 junction star contract",
           worst < 10,
           f"({len(cases)} cases, worst {worst:.2f}s, "
           f"total {time.time() - t0:.0f}s)")


def test_criterion_3_corollary_round_trip(tmp_path):
    good = realizable_corpus(20260810, 50)
    for i, g in enumerate(good):
        path = tmp_path / f"ok_{i}.json"
        path.write_text(serialize_graph(g))
        rc = main(["verify", str(path)])
        assert rc == 0, f"graph {i} (n={g.n}, e={len(g.edges)}) exit {rc}"
    bad = violating_corpus(20260811, 50)
    for i, g in enumerate(bad):
        rep = check_realizable(g)
        # one condition kind violated; the failing vertices are named
        # (they come in even numbers: both conditions reduce to an even
        # odd-chi incidence count, and each odd-chi edge touches two
        # vertices)
        assert rep.failing
        assert len({d.is_extremum for d in rep.failing}) == 1
        expected = {d.vertex for d in rep.failing}
        path = tmp_path / f"bad_{i}.json"
        path.write_text(serialize_graph(g))
        rc = main(["check", str(path)])
        assert rc == 1, f"violator {i} exit {rc}"
        assert {d.vertex for d in check_realizable(g).failing} == expected
    report("3 corollary round trip", True,
           "(50 verified, 50 rejected with the failing vertices named)")


def test_criterion_4_explicit_instances():
    # (a) projective pass-through block
    b = elementary_junction("projective_pass", F(0), F(1), F(2))
    rep = verify_block(b)
    assert rep.ok, rep.summary()
    assert b.labels("bottom") == [-1] and b.labels("top") == [-1]
    assert b.singular_values == [F(1)]
    # (b) sphere against two projective planes
    c = elementary_junction("sphere_to_projective_pair", F(0), F(1), F(2))
    rep = verify_block(c)
    assert rep.ok, rep.summary()
    assert c.labels("bottom") == [0] and c.labels("top") == [-1, -1]
    # (c) solid Klein bottle cap
    k = cap_block(-2, F(0), F(1))
    rep = verify_block(k)
    assert rep.ok, rep.summary()
    assert k.labels("top") == [-2]
    assert len(rep.reeb.edges) == 1
    # (d) folding a verified junction keeps the edge count
    j = elementary_junction("sphere_split", F(0), F(1), F(2))
    before = verify_block(j)
    folded = fold_block(j, F(5), "max", [F(4)] * 3)
    after = verify_block(folded)
    assert after.ok, after.summary()
    assert len(after.reeb.edges) == len(before.reeb.edges)
    assert all(c.side == "bottom" for c in folded.boundary)
    report("4 explicit instances", True,
           "(pass-through, projective pair, Klein cap, fold)")


def test_criterion_5_global_integrity():
    from reebforge.graphs import Edge, LabeledGraph
    sample = realizable_corpus(20260810, 8)
    for g in sample:
        m = assemble(g)
        rep = validate_manifold(m)
        assert rep.ok, rep.summary()
        assert euler_characteristic(m.cx) == 0
    # negative control: deleted tetrahedron
    m = assemble(sample[0])
    broken = Manifold3(m.cx.copy(), list(m.values), list(m.provenance),
                       list(m.vertex_values))
    del broken.cx.tets[0]
    del broken.provenance[0]
    rep = validate_manifold(broken)
    closed = next(c for c in rep.checks if c[0] == "closed")
    assert not rep.ok and not closed[1]
    assert "boundary triangles" in closed[2]
    # negative control: mislabeled edge
    g = LabeledGraph(["a", "b"], [F(0), F(1)], [Edge(0, 1, 0)])
    res = verify_realization(g, mislabel_edge=0)
    assert not res.ok and "isomorphism" in res.detail
    report("5 global integrity", True,
           "(chi = 0 everywhere; both negative controls detected)")


def test_criterion_6_extractor_oracle():
    # template sphere: double cone over a hexagon
    p = 6
    tris = [(0, 2 + i, 2 + (i + 1) % p) for i in range(p)]
    tris += [(1, 2 + i, 2 + (i + 1) % p) for i in range(p)]
    values = [F(2), F(0)] + [F(1)] * p
    runs = []
    for _ in range(10):
        r = reeb_graph_of(tris, values)
        runs.append(([(str(n.value), n.essential) for n in r.nodes],
                     [(e.a, e.b, e.label) for e in r.edges]))
    assert all(run == runs[0] for run in runs)
    assert len(runs[0][0]) == 2 and len(runs[0][1]) == 1
    # torus x interval: one edge with slice label 1
    mesh = canonical_mesh(1, 1)
    prod = surface_prism(mesh, 2)
    tvals = [F(0)] * mesh.nv + [F(1, 2)] * mesh.nv + [F(1)] * mesh.nv
    snaps = []
    for _ in range(4):
        r = reeb_graph_of(prod.complex.tets, tvals)
        snaps.append(([str(n.value) for n in r.nodes],
                      [(e.a, e.b, e.label) for e in r.edges]))
    assert all(s == snaps[0] for s in snaps)
    assert snaps[0][1] == [(0, 1, 1)]
    report("6 extractor oracle", True,
           "(2-node sphere path; torus product edge label 1; "
           "10 + 4 runs identical)")
