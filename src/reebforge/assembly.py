"""Assemble a closed 3-manifold with a PL function realizing an input
graph: one block per vertex, one product cylinder per edge, glued along
identical canonical boundary meshes.

Vertex neighbourhoods occupy [g(v)-eps, g(v)+eps] with eps one third of
the smallest height gap to a neighbour, so intervals never collide and
every edge leaves room for its cylinder.
"""
from __future__ import annotations

import json
import os
import pickle
import signal
import threading
from dataclasses import dataclass, field
from fractions import Fraction

from .blocks import (Block, BlockError, CheckReport, cap_block,
                     build_junction, cylinder_block, fold_block,
                     glued_values, plan_junction)
from .complexes import Census, TetComplex, manifold_census, merge_complexes
# imported only for the benchmark's tracer, which wraps them as
# assembly.<name> (benchmarks/spans.py SITES)
from .complexes import (boundary_faces, euler_characteristic,  # noqa: F401
                        validate_complex)
from .graphs import (Edge, GraphError, LabeledGraph, brief,
                     check_realizable, euler_char, format_rational,
                     is_odd_chi, parse_rational)
from .reeb import ReebGraph, labeled_isomorphic, reeb_graph_of
from .surfaces import same_triangles


class AssemblyError(ValueError):
    """Raised when a graph cannot be assembled (or an internal gluing
    invariant breaks, which indicates a planner bug)."""


@dataclass
class Manifold3:
    cx: TetComplex
    values: list[Fraction]
    provenance: list[tuple[str, int]]      # per tet: ("vertex"|"edge", index)
    vertex_values: list[Fraction] = field(default_factory=list)

    def summary(self) -> str:
        nv = self.cx.nv
        layers = len(set(self.values))
        blocks = len({p for p in self.provenance})
        return (f"tetrahedra: {len(self.cx.tets)}\nvertices: {nv}\n"
                f"layers: {layers}\nglued pieces: {blocks}")


def _vertex_epsilons(g: LabeledGraph) -> list[Fraction]:
    eps = []
    for v in range(g.n):
        gaps = [abs(g.values[e.u] - g.values[e.v])
                for e in g.edges if v in (e.u, e.v)]
        eps.append(min(gaps) / 3)
    return eps


def _split_extremum_labels(labels: list[int]) -> tuple[list[int], list[int]]:
    """Split an extremum's incident labels into two sides with equal
    odd-chi counts: alternate the odd ones, balance the rest by chi."""
    odd = sorted(l for l in labels if is_odd_chi(l))
    even = sorted((l for l in labels if not is_odd_chi(l)),
                  key=lambda l: (-abs(euler_char(l)), l))
    f1: list[int] = []
    f2: list[int] = []
    for i, l in enumerate(odd):
        (f1 if i % 2 == 0 else f2).append(l)
    c1 = sum(euler_char(l) for l in f1)
    c2 = sum(euler_char(l) for l in f2)
    for l in even:
        if (abs(c1) < abs(c2)) or (abs(c1) == abs(c2) and len(f1) <= len(f2)):
            f1.append(l)
            c1 += euler_char(l)
        else:
            f2.append(l)
            c2 += euler_char(l)
    if not f1:
        f1.append(f2.pop())
    if not f2:
        f2.append(f1.pop())
    return sorted(f1), sorted(f2)


def _vertex_block(g: LabeledGraph, v: int, eps: Fraction,
                  refinement: int) -> tuple[Block, dict[int, int]]:
    """Build the block for one vertex and assign its boundary components
    to the incident edge indices (matching labels, sorted tie-break)."""
    gv = g.values[v]
    down, up = g.sides(v)
    if down and up:
        plan = plan_junction([l for l, _ in down], [l for l, _ in up])
        block = build_junction(plan, gv - eps, gv, gv + eps, refinement)
    else:
        side = up or down
        leaf_value = gv + eps if up else gv - eps
        if len(side) == 1 and euler_char(side[0][0]) % 2 == 0:
            block = cap_block(side[0][0], gv, leaf_value, refinement)
        else:
            f1, f2 = _split_extremum_labels([l for l, _ in side])
            jn = build_junction(plan_junction(f1, f2), Fraction(0),
                                Fraction(1), Fraction(2), refinement)
            block = fold_block(jn, gv, "min" if up else "max",
                               [leaf_value] * len(side))
    assignment = {}
    for name, edges in (("bottom", down), ("top", up)):
        comps = sorted((c.label, i) for i, c in enumerate(block.boundary)
                       if c.side == name)
        for (label, ei), (clabel, ci) in zip(edges, comps):
            if label != clabel:
                raise AssemblyError(f"{name} component labels drifted")
            assignment[ei] = ci
    return block, assignment


def common_refinement(comp_a, comp_b):
    """Vertex pairs gluing two block boundary components.  Both carry the
    same canonical mesh, so each is already a refinement of the other: the
    identity is their common refinement and a simplicial isomorphism, once
    their triangle sets are checked equal."""
    if not same_triangles(comp_a.mesh.triangles, comp_b.mesh.triangles):
        raise AssemblyError("glued components carry different triangle "
                            "sets (planner bug)")
    return list(zip(comp_a.cmap, comp_b.cmap))


def assemble(g: LabeledGraph, refinement: int = 1) -> Manifold3:
    """Build the closed manifold realizing g."""
    report = check_realizable(g)
    if not report.ok:
        raise AssemblyError("graph fails the parity conditions:\n" +
                            report.summary())
    eps = _vertex_epsilons(g)
    blocks, assignments = zip(*(_vertex_block(g, v, eps[v], refinement)
                                for v in range(g.n)))
    parts = [b.cx for b in blocks]
    part_values = [b.values for b in blocks]
    provenance: list[tuple[str, int]] = []
    for v, b in enumerate(blocks):
        provenance += [("vertex", v)] * len(b.cx.tets)
    ident = []
    for ei, e in enumerate(g.edges):
        lo, hi = (e.u, e.v) if g.values[e.u] < g.values[e.v] else (e.v, e.u)
        cyl = cylinder_block(e.label, g.values[lo] + eps[lo],
                             g.values[hi] - eps[hi], refinement, segments=3)
        for v, end in zip((lo, hi), cyl.boundary):
            comp = blocks[v].boundary[assignments[v][ei]]
            if comp.value != end.value:
                raise AssemblyError("interface values misaligned "
                                    "(planner bug)")
            ident += [(v, x, len(parts), y)
                      for x, y in common_refinement(comp, end)]
        parts.append(cyl.cx)
        part_values.append(cyl.values)
        provenance += [("edge", ei)] * len(cyl.cx.tets)

    cx, vmaps, _ = merge_complexes(parts, ident)
    values = glued_values(cx.nv, vmaps, part_values)
    return Manifold3(cx, values, provenance,
                     vertex_values=list(g.values))


def validate_manifold(m: Manifold3, census=None) -> CheckReport:
    """Closedness, link conditions, connectedness, chi = 0 (all four off
    one `manifold_census` of the tets), provenance.  On a closed complex
    the census' link sum is 2 chi, so chi = 0 is every link a sphere.
    `census`, when given, is a waiter that returns the census of `m.cx`
    taken elsewhere (see `_CensusChild`); it is waited on here, so the
    time spent blocked on it counts as validation."""
    census = manifold_census(m.cx) if census is None else census()
    n = len(m.cx.tets)
    bf, reached, chi = census.boundary, census.reached, census.chi
    detail = f"{len(m.provenance)} records for {n} tets"
    bad = next((j for j, (kind, _) in enumerate(m.provenance)
                if kind not in ("vertex", "edge")), None)
    if bad is not None and len(m.provenance) == n:
        detail = (f"record {bad} is {brief(list(m.provenance[bad]))}, "
                  "neither a vertex nor an edge record")
    return CheckReport([
        ("closed", not bf, "no boundary triangles" if not bf else
         f"{len(bf)} boundary triangles, e.g. {bf[:3]}"),
        ("links", census.fault is None,
         census.fault or "all vertex links are spheres/disks"),
        # no tets is no manifold
        ("connected", 0 < reached == n, f"{reached}/{n} tetrahedra"),
        ("euler", chi == 0, f"chi = {chi}"),
        ("provenance", bad is None and len(m.provenance) == n, detail)])


def extract_reeb(m: Manifold3) -> ReebGraph:
    return reeb_graph_of(m.cx.tets, m.values)


class _CensusChild:
    """`manifold_census(cx)` taken in a forked child while the caller
    works on; calling the waiter returns the census.  The child pickles
    (ok, census or exception) into a pipe and always leaves through
    `os._exit`.  The waiter reads the pipe to EOF before reaping (a long
    boundary list can outgrow the pipe buffer) and re-raises the child's
    exception.  Without `os.fork`, with a second thread alive, when the
    fork fails or when the child dies without a complete result, the
    census is taken inline: a dead child never passes a manifold."""

    def __init__(self, cx: TetComplex):
        self.cx, self.pid, self.pipe = cx, 0, None
        if not hasattr(os, "fork") or threading.active_count() != 1:
            return
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            return
        if pid == 0:
            try:
                try:
                    out = (True, manifold_census(cx))
                except Exception as exc:
                    out = (False, exc)
                with open(w, "wb") as f:
                    pickle.dump(out, f, pickle.HIGHEST_PROTOCOL)
            finally:
                os._exit(0)
        os.close(w)
        self.pid, self.pipe = pid, open(r, "rb")

    def __call__(self) -> Census:
        out = None
        if self.pid:
            with self.pipe:
                data = self.pipe.read()
            os.waitpid(self.pid, 0)
            self.pid = 0
            try:
                out = pickle.loads(data)
            except Exception:       # the child died mid-result
                pass
        if out is None:
            return manifold_census(self.cx)
        ok, census = out
        if not ok:
            raise census
        return census

    def close(self) -> None:
        """Kill and reap a child that was not waited for."""
        if self.pid:
            self.pipe.close()
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0


@dataclass
class VerificationResult:
    ok: bool
    manifold: Manifold3 | None
    reeb: ReebGraph | None
    detail: str


def verify_realization(g: LabeledGraph, refinement: int = 1,
                       mislabel_edge: int | None = None) -> VerificationResult:
    """Build, validate, extract, and compare against the input graph.
    The census runs in a forked child while the Reeb graph is extracted;
    validation still decides: an invalid manifold fails with no Reeb
    graph, and an extraction error counts only on a valid one."""
    try:
        m = assemble(g, refinement)
    except (AssemblyError, BlockError, GraphError) as exc:
        return VerificationResult(False, None, None, f"assembly: {exc}")
    census = _CensusChild(m.cx)
    try:
        try:
            reeb, held = extract_reeb(m), None
        except Exception as exc:
            reeb, held = None, exc
        rep = validate_manifold(m, census)
    finally:
        census.close()
    if not rep.ok:
        return VerificationResult(False, m, None,
                                  "manifold invalid:\n" + rep.summary())
    if held is not None:
        raise held
    target = g
    if mislabel_edge is not None:
        # debug hook: compare against a deliberately mislabeled copy
        edges = list(g.edges)
        e = edges[mislabel_edge]
        bumped = e.label + 1 if e.label >= 0 else e.label - 1
        edges[mislabel_edge] = Edge(e.u, e.v, bumped)
        target = LabeledGraph(list(g.names), list(g.values), edges)
    iso = labeled_isomorphic(reeb, target)
    if not iso.isomorphic:
        return VerificationResult(False, m, reeb,
                                  f"isomorphism failed: {iso.mismatch}")
    return VerificationResult(True, m, reeb, "round trip succeeded")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def manifold_to_dict(m: Manifold3) -> dict:
    return {
        "vertices": m.cx.nv,
        "tetrahedra": [list(t) for t in m.cx.tets],
        "values": [format_rational(v) for v in m.values],
        "provenance": [[kind, idx] for kind, idx in m.provenance],
        "vertex_values": [format_rational(v) for v in m.vertex_values],
    }


def manifold_from_dict(doc) -> Manifold3:
    """Parse a manifold document; shape and index-range errors raise
    ValueError.  Counts and ids are JSON integers: neither a boolean nor
    a float is read as one."""
    if not isinstance(doc, dict):
        raise ValueError("top-level JSON value must be an object")
    try:
        nv = doc["vertices"]
        tets = [tuple(t) for t in doc["tetrahedra"]]
        values = [parse_rational(v) for v in doc["values"]]
        prov = [(str(k), i) for k, i in doc.get("provenance", [])]
        vv = [parse_rational(v) for v in doc.get("vertex_values", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad manifold document: {exc}") from exc
    if type(nv) is not int:
        raise ValueError(f"vertex count {brief(nv)} is not an integer")
    if len(values) != nv:
        raise ValueError(f"{len(values)} values for {nv} vertices")
    for t in tets:
        if len(t) != 4 or not all(type(v) is int and 0 <= v < nv
                                  for v in t):
            raise ValueError(f"tetrahedron {brief(list(t))} is not 4 "
                             f"vertex ids in 0..{nv - 1}")
    for k, i in prov:
        if type(i) is not int:
            raise ValueError(f"provenance record {brief([k, i])} has no "
                             "integer index")
    return Manifold3(TetComplex(nv, tets), values, prov, vv)


def manifold_to_json(m: Manifold3) -> str:
    return json.dumps(manifold_to_dict(m))
