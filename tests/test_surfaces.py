import hashlib
import json
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from reebforge.canonical import canonical_mesh
from reebforge.graphs import euler_char
from reebforge.surfaces import (MeshError, SurfaceComponent, SurfaceMesh,
                                classify_labels, classify_surface,
                                connected_sum_label, connected_sum_meshes,
                                mesh_from_dict, mesh_to_dict, mesh_to_off)
from reebforge.unionfind import UnionFind

TETRA = SurfaceMesh(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])

# the classical 7-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3}
# mod 7; chi = 7 - 21 + 14 = 0, orientation propagation succeeds
TORUS7 = SurfaceMesh(7, [((i) % 7, (i + 1) % 7, (i + 3) % 7)
                         for i in range(7)] +
                        [((i) % 7, (i + 2) % 7, (i + 3) % 7)
                         for i in range(7)])


def test_tetrahedron_is_sphere():
    comps = classify_surface(TETRA)
    assert len(comps) == 1
    assert comps[0].label == 0 and comps[0].chi == 2 and comps[0].orientable


def test_seven_vertex_torus():
    comps = classify_surface(TORUS7)
    assert len(comps) == 1
    assert comps[0].chi == 0 and comps[0].orientable
    assert comps[0].label == 1


def test_disjoint_union_classifies_per_component():
    rp2 = canonical_mesh(-1)
    klein = canonical_mesh(-2)
    tris = list(rp2.triangles)
    tris += [(a + rp2.nv, b + rp2.nv, c + rp2.nv)
             for a, b, c in klein.triangles]
    both = SurfaceMesh(rp2.nv + klein.nv, tris)
    assert classify_labels(both) == [-2, -1]


def test_nonmanifold_edge_detected():
    bad = SurfaceMesh(5, list(TETRA.triangles) + [(0, 1, 4)])
    with pytest.raises(MeshError, match="3 triangles"):
        classify_surface(bad)


def test_degenerate_triangle_detected():
    with pytest.raises(MeshError, match="degenerate"):
        classify_surface(SurfaceMesh(3, [(0, 1, 1)]))


def test_pinched_link_detected():
    # two triangle fans sharing only a vertex cannot close up
    tris = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (0, 4, 5), (0, 5, 6), (0, 6, 4)]
    with pytest.raises(MeshError):
        classify_surface(SurfaceMesh(7, tris + [(1, 2, 3), (4, 5, 6)]))


@pytest.mark.parametrize("r1,r2,expect", [
    (0, 0, 0),
    (1, 2, 3),
    (-1, 1, -3),
    (-1, -1, -2),
    (-2, -3, -5),
    (2, -1, -5),
])
def test_connected_sum_label_table(r1, r2, expect):
    assert connected_sum_label(r1, r2) == expect
    # chi bookkeeping holds in every case
    assert euler_char(expect) == euler_char(r1) + euler_char(r2) - 2


def _sum(m1, m2):
    """Connected sum along the first spare triangle of each mesh."""
    return connected_sum_meshes([m1, m2])[0]


@pytest.mark.parametrize("r1,r2", [(0, 0), (1, 1), (-1, -1), (1, 2),
                                   (-1, 1), (-2, 1), (-1, -2)])
def test_connected_sum_mesh_matches_label(r1, r2):
    # oracle: build meshes, sum them, classify the result independently
    m1 = canonical_mesh(r1)
    m2 = canonical_mesh(r2)
    out = _sum(m1, m2)
    assert classify_labels(out) == [connected_sum_label(r1, r2)]


def test_connected_sum_chi_drop():
    m1 = canonical_mesh(1)
    m2 = canonical_mesh(-2)
    out = _sum(m1, m2)
    c1 = classify_surface(m1)[0].chi
    c2 = classify_surface(m2)[0].chi
    assert classify_surface(out)[0].chi == c1 + c2 - 2


def test_sum_keeps_spares():
    m1 = canonical_mesh(1)
    m2 = canonical_mesh(1)
    out = _sum(m1, m2)
    assert len(out.spares) >= 2
    classify_surface(out)


def test_mesh_json_round_trip():
    m = canonical_mesh(-2)
    m2 = mesh_from_dict(mesh_to_dict(m))
    assert m2.nv == m.nv and m2.triangles == m.triangles


def test_mesh_documents_hold_no_anchor():
    """`surface gen` documents, pinned; each reads back as its mesh."""
    meshes = [canonical_mesh(r, k) for r in range(-4, 5) for k in (1, 2)]
    docs = [mesh_to_dict(m) for m in meshes]
    for m, doc in zip(meshes, docs):
        assert set(doc) == {"vertices", "triangles", "spares"}
        assert mesh_from_dict(doc).triangles == m.triangles
    assert hashlib.sha256(json.dumps(docs).encode()).hexdigest() == \
        "92f6101f1914787e8f4e94918ee9d58fc3126eee5767b5171004e49794572fd5"


def test_off_export_counts():
    m = canonical_mesh(0)
    off = mesh_to_off(m).splitlines()
    assert off[0] == "OFF"
    nv, nf, _ = map(int, off[1].split())
    assert nv == m.nv and nf == len(m.triangles)


@settings(max_examples=25, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4))
def test_sum_label_chi_property(r1, r2):
    out = connected_sum_label(r1, r2)
    assert euler_char(out) == euler_char(r1) + euler_char(r2) - 2
    if r1 < 0 or r2 < 0:
        assert out < 0


# ---------------------------------------------------------------------------
# reference classifier: per-vertex link walks and orientation propagation
# over tuples of directed edges, the implementation the one-pass
# classify_surface replaced; its output and messages are the contract
# ---------------------------------------------------------------------------

def _oracle_edge_map(triangles):
    edges: dict[tuple[int, int], list[int]] = {}
    for ti, (a, b, c) in enumerate(triangles):
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            edges.setdefault(key, []).append(ti)
    return edges


def oracle_validate(mesh: SurfaceMesh, allow_boundary: bool = False):
    """Check simplicial-surface invariants; returns the edge map.

    Closed mode requires every edge in exactly 2 triangles and every vertex
    link a single cycle.  Boundary mode additionally admits edges in one
    triangle and chain links.
    """
    seen = set()
    used = set()
    for a, b, c in mesh.triangles:
        if len({a, b, c}) != 3:
            raise MeshError(f"degenerate triangle ({a},{b},{c})")
        if not all(0 <= x < mesh.nv for x in (a, b, c)):
            raise MeshError(f"triangle vertex out of range ({a},{b},{c})")
        key = tuple(sorted((a, b, c)))
        if key in seen:
            raise MeshError(f"duplicate triangle {key}")
        seen.add(key)
        used.update(key)
    edges = _oracle_edge_map(mesh.triangles)
    for key, tris in edges.items():
        if len(tris) > 2:
            raise MeshError(f"edge {key} in {len(tris)} triangles")
        if len(tris) == 1 and not allow_boundary:
            raise MeshError(f"boundary edge {key} in closed mesh")
    # vertex links: around each vertex the incident triangles must chain into
    # a single cycle (or a single path when the vertex is on the boundary)
    star: dict[int, list[int]] = {}
    for ti, tri in enumerate(mesh.triangles):
        for v in tri:
            star.setdefault(v, []).append(ti)
    # (this walk and the tet-complex link check, kept as the reference in
    # tests/test_complexes.py, both went into classify_surface)
    for v, tris in star.items():
        # link graph: nodes are the opposite edges' endpoints, each triangle
        # contributes one link edge
        deg: dict[int, int] = {}
        adj: dict[int, list[int]] = {}
        for ti in tris:
            a, b, c = mesh.triangles[ti]
            x, y = [w for w in (a, b, c) if w != v]
            deg[x] = deg.get(x, 0) + 1
            deg[y] = deg.get(y, 0) + 1
            adj.setdefault(x, []).append(y)
            adj.setdefault(y, []).append(x)
        ends = [w for w, d in deg.items() if d == 1]
        if any(d > 2 for d in deg.values()):
            raise MeshError(f"vertex {v} link is not a 1-manifold")
        if ends and not allow_boundary:
            raise MeshError(f"vertex {v} link is not a cycle")
        if len(ends) not in (0, 2):
            raise MeshError(f"vertex {v} link has {len(ends)} chain ends")
        # connectivity of the link
        start = next(iter(adj))
        comp = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        if len(comp) != len(adj):
            raise MeshError(f"vertex {v} link is disconnected")
    return edges


def oracle_classify(mesh: SurfaceMesh,
                     allow_boundary: bool = False) -> list[SurfaceComponent]:
    """Classify each connected component of a triangulated surface.

    Computes chi = V - E + F and decides orientability by propagating
    triangle orientations across shared edges; a propagation conflict means
    non-orientable.  The label is (2-chi)/2 for orientable components and
    chi-2 otherwise.
    """
    edges = oracle_validate(mesh, allow_boundary=allow_boundary)
    tn = len(mesh.triangles)
    uf = UnionFind(tn)
    for tris in edges.values():
        if len(tris) == 2:
            uf.union(tris[0], tris[1])
    # listed by root, the order `surface classify` prints them in
    comps = sorted(uf.groups(range(tn)), key=lambda c: uf.find(c[0]))
    # boundary cycles are the components of the boundary edge graph
    rims = UnionFind(mesh.nv)

    # orientation propagation; orient[t] in {0,1}, flipping the triangle
    orient = [None] * tn
    tri_edges = []
    for a, b, c in mesh.triangles:
        tri_edges.append(((a, b), (b, c), (c, a)))

    def directed_edges(ti):
        des = tri_edges[ti]
        if orient[ti] == 0:
            return des
        return tuple((v, u) for u, v in des)

    out = []
    for tris in comps:
        vset = set()
        eset = set()
        for ti in tris:
            vset.update(mesh.triangles[ti])
            for u, v in tri_edges[ti]:
                eset.add((u, v) if u < v else (v, u))
        bedges = [key for key in eset if len(edges[key]) == 1]
        for u, v in bedges:
            rims.union(u, v)
        bcount = len({rims.find(u) for u, _ in bedges})
        chi = len(vset) - len(eset) + len(tris)
        orientable = True
        start = tris[0]
        orient[start] = 0
        stack = [start]
        while stack:
            ti = stack.pop()
            mine = set(directed_edges(ti))
            for u, v in list(mine):
                key = (u, v) if u < v else (v, u)
                for tj in edges[key]:
                    if tj == ti:
                        continue
                    # consistent orientation traverses the shared edge in
                    # opposite directions
                    for o in (0, 1):
                        des = tri_edges[tj] if o == 0 else tuple(
                            (y, x) for x, y in tri_edges[tj])
                        if (v, u) in des:
                            want = o
                            break
                    else:
                        want = None
                    if want is None:
                        orientable = False
                        continue
                    if orient[tj] is None:
                        orient[tj] = want
                        stack.append(tj)
                    elif orient[tj] != want:
                        orientable = False
        if bcount == 0:
            if orientable:
                if chi % 2 != 0 or chi > 2:
                    raise MeshError(
                        f"impossible closed surface: chi={chi} orientable")
                label = (2 - chi) // 2
            else:
                if chi > 1:
                    raise MeshError(
                        f"impossible closed surface: chi={chi} non-orientable")
                label = chi - 2
        else:
            label = 0   # placeholder; surfaces with boundary are internal
        out.append(SurfaceComponent(label, chi, orientable, sorted(vset),
                                    tris))
    return out


def _classified(mesh, fn):
    try:
        comps = fn(mesh)
    except MeshError as exc:
        return str(exc)
    return [(c.label, c.chi, c.orientable, c.vertices, c.triangles)
            for c in comps]


@st.composite
def presented_meshes(draw):
    """Canonical meshes for r in -3..3, one or a disjoint union of two,
    with shuffled triangles, random per-triangle orientation flips and
    relabeled vertices."""
    labels = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=2))
    rng = Random(draw(st.integers(0, 2 ** 32)))
    tris, nv = [], 0
    for r in labels:
        m = canonical_mesh(r)
        tris += [(a + nv, b + nv, c + nv) for a, b, c in m.triangles]
        nv += m.nv
    rng.shuffle(tris)
    tris = [(a, c, b) if rng.random() < 0.5 else (a, b, c)
            for a, b, c in tris]
    relabel = list(range(nv))
    rng.shuffle(relabel)
    return SurfaceMesh(nv, [tuple(relabel[v] for v in t) for t in tris]), rng


@settings(max_examples=40, deadline=None)
@given(presented_meshes())
def test_classifier_matches_reference(case):
    mesh, _ = case
    got = _classified(mesh, classify_surface)
    assert got == _classified(mesh, oracle_classify)
    assert isinstance(got, list)


@settings(max_examples=60, deadline=None)
@given(presented_meshes(), st.integers(0, 12), st.booleans())
def test_classifier_matches_reference_with_faults(case, holes, pinch):
    # removing triangles makes boundary edges; identifying two vertices
    # makes pinched links, or degenerate, duplicate or overfull triangles:
    # output or message must agree
    mesh, rng = case
    tris = list(mesh.triangles)
    for _ in range(min(holes, len(tris) - 1)):
        tris.pop(rng.randrange(len(tris)))
    if pinch:
        u, w = rng.sample(range(mesh.nv), 2)
        tris = [tuple(u if v == w else v for v in t) for t in tris]
    faulty = SurfaceMesh(mesh.nv, tris)
    assert (_classified(faulty, classify_surface) ==
            _classified(faulty, oracle_classify))


def test_canonical_meshes_classify_as_the_reference():
    for r in range(-6, 7):
        mesh = canonical_mesh(r, 1)
        assert (_classified(mesh, classify_surface) ==
                _classified(mesh, oracle_classify))


# one single-fault mesh per message: two tetrahedron boundaries sharing
# vertex 0, a tetrahedron boundary missing a face
PINCHED = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
           (0, 4, 5), (0, 4, 6), (0, 5, 6), (4, 5, 6)]


@pytest.mark.parametrize("mesh,message", [
    (SurfaceMesh(3, [(0, 1, 1)]), "degenerate triangle (0,1,1)"),
    (SurfaceMesh(3, [(0, 1, 5)]), "triangle vertex out of range (0,1,5)"),
    (SurfaceMesh(4, list(TETRA.triangles) + [(2, 1, 0)]),
     "duplicate triangle (0, 1, 2)"),
    (SurfaceMesh(5, list(TETRA.triangles) + [(0, 1, 4)]),
     "edge (0, 1) in 3 triangles"),
    (SurfaceMesh(4, TETRA.triangles[:3]),
     "boundary edge (1, 2) in closed mesh"),
    (SurfaceMesh(7, PINCHED), "vertex 0 link is disconnected"),
], ids=["degenerate", "out-of-range", "duplicate", "overfull-edge",
        "boundary-edge", "disconnected"])
def test_single_fault_messages(mesh, message):
    assert _classified(mesh, oracle_classify) == message
    with pytest.raises(MeshError) as exc:
        classify_surface(mesh)
    assert str(exc.value) == message


def test_link_faults_surface_as_edge_faults():
    # a vertex link that is no 1-manifold needs an edge in 3 triangles, and
    # an open link needs an edge in 1: the edge checks name these faults
    # before any link is looked at
    fan = [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
    for mesh, message in (
            (SurfaceMesh(5, fan), "edge (0, 1) in 3 triangles"),
            (SurfaceMesh(3, [(0, 1, 2)]),
             "boundary edge (0, 1) in closed mesh")):
        assert _classified(mesh, oracle_classify) == message
        assert _classified(mesh, classify_surface) == message
