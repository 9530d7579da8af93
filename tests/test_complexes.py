from fractions import Fraction as F
from functools import lru_cache
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from reebforge import complexes
from reebforge.blocks import cap_block, elementary_junction
from reebforge.canonical import canonical_mesh
from reebforge.complexes import (_EDGE, _FACE_EDGES, _FACE_VERTS,
                                 ComplexError, FaceMap, Tet, TetComplex,
                                 boundary_faces, boundary_surface,
                                 cone_complex, euler_characteristic,
                                 face_map, find_interior_tets,
                                 manifold_census, merge_complexes,
                                 remove_tets, surface_prism,
                                 validate_complex)
from reebforge.surfaces import SurfaceMesh, classify_labels
from reebforge.unionfind import UnionFind

TETRA = SurfaceMesh(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def test_surface_prism_is_product_manifold():
    prod = surface_prism(canonical_mesh(1, 1), 2)
    validate_complex(prod.complex)
    bmesh, _ = boundary_surface(prod.complex)
    assert classify_labels(bmesh) == [1, 1]


def staircase_reference(bottom: tuple[int, int, int],
                        top: tuple[int, int, int],
                        order: tuple[int, int, int]):
    """Split the prism between two triangle copies into three tets.

    bottom/top are global ids of matched corners, order the surface ids
    used for the deterministic diagonal choice.

    (Reference: `complexes._staircase`, which `surface_prism` called once
    per triangle per segment, kept verbatim.)
    """
    idx = sorted(range(3), key=lambda i: order[i])
    a0, b0, c0 = (bottom[i] for i in idx)
    a1, b1, c1 = (top[i] for i in idx)
    return [(a0, b0, c0, c1), (a0, b0, b1, c1), (a0, a1, b1, c1)]


def prism_tets_reference(mesh: SurfaceMesh, nseg: int) -> list[Tet]:
    """The tets of `surface_prism` as it built them with the staircase."""
    nv = mesh.nv
    tets: list[Tet] = []
    for j in range(nseg):
        for tri in mesh.triangles:
            bottom = tuple(j * nv + v for v in tri)
            top = tuple((j + 1) * nv + v for v in tri)
            tets.extend(staircase_reference(bottom, top, tri))
    return tets


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("r", range(-3, 4))
def test_prism_matches_staircase_reference(r, k):
    mesh = canonical_mesh(r, k)
    for nseg in range(1, 5):
        prod = surface_prism(mesh, nseg)
        assert prod.complex.nv == mesh.nv * (nseg + 1)
        assert prod.complex.tets == prism_tets_reference(mesh, nseg)


def test_cone_over_sphere_is_ball():
    sphere = canonical_mesh(0, 1)
    cx = cone_complex(sphere)
    validate_complex(cx)
    bmesh, _ = boundary_surface(cx)
    assert classify_labels(bmesh) == [0]


def test_cone_over_shared_walls_consistent():
    # shells used for bridging: tetra sphere x interval
    prod = surface_prism(TETRA, 2)
    validate_complex(prod.complex)
    bmesh, _ = boundary_surface(prod.complex)
    assert classify_labels(bmesh) == [0, 0]


def test_remove_interior_tet_leaves_manifold():
    prod = surface_prism(canonical_mesh(0, 1), 3)
    interior = find_interior_tets(
        prod.complex, prod.layer_vertices(0) + prod.layer_vertices(3))
    assert interior
    cx = remove_tets(prod.complex, {interior[0]})
    validate_complex(cx)
    bmesh, _ = boundary_surface(cx)
    assert classify_labels(bmesh) == [0, 0, 0]


def test_merge_identifies_vertices():
    a = TetComplex(4, [(0, 1, 2, 3)])
    b = TetComplex(4, [(0, 1, 2, 3)])
    merged, vmaps, _ = merge_complexes(
        [a, b], [(0, 0, 1, 0), (0, 1, 1, 1), (0, 2, 1, 2)])
    assert merged.nv == 5
    assert len(merged.tets) == 2
    assert vmaps[0][0] == vmaps[1][0]


def test_closed_complex_has_zero_euler_characteristic():
    # double of a ball: two cones over the same sphere
    sphere = canonical_mesh(0, 1)
    c1 = cone_complex(sphere)
    c2 = cone_complex(sphere)
    ident = [(0, v, 1, v) for v in range(sphere.nv)]
    cx, _, _ = merge_complexes([c1, c2], ident)
    validate_complex(cx)
    assert not boundary_faces(cx)
    assert euler_characteristic(cx) == 0


def test_validate_catches_duplicate_tet():
    cx = TetComplex(4, [(0, 1, 2, 3), (3, 2, 1, 0)])
    with pytest.raises(ComplexError, match="duplicate"):
        validate_complex(cx)


def test_validate_catches_overfull_face():
    cx = TetComplex(5, [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 4)])
    with pytest.raises(ComplexError):
        validate_complex(cx)


def test_validate_rejects_cone_over_torus():
    # the apex link is the torus itself: closed and connected, chi 0
    with pytest.raises(ComplexError, match=r"not a sphere \(chi=0\)"):
        validate_complex(cone_complex(canonical_mesh(1, 1)))


def test_validate_rejects_cones_sharing_only_their_apex():
    # the shared apex has two disjoint spheres as its link
    sphere = canonical_mesh(0, 1)
    cone = cone_complex(sphere)
    apex = sphere.nv
    cx, vmaps, _ = merge_complexes([cone, cone], [(0, apex, 1, apex)])
    with pytest.raises(ComplexError, match=f"vertex {vmaps[0][apex]} link "
                                           "is disconnected"):
        validate_complex(cx)


# ---------------------------------------------------------------------------
# oracle: the vertex link check before it went through surfaces.survey,
# kept verbatim as the reference
# ---------------------------------------------------------------------------

def _check_link(v: int, tris: list[tuple[int, int, int]], boundary: bool):
    """Certify a vertex link is a sphere (interior) or a disk (boundary).

    Edge-combinatorial: overfull edges, cycle-or-chain neighbourhoods at
    every link vertex, connectivity, and the Euler characteristic (a
    connected closed surface with chi 2 is a sphere; chi 1 with boundary
    is a disk).
    """
    edge_count: dict[tuple[int, int], int] = {}
    opp: dict[int, list[tuple[int, int]]] = {}
    for a, b, c in tris:
        for x, y in ((a, b), (b, c), (a, c)):
            key = (x, y) if x < y else (y, x)
            edge_count[key] = edge_count.get(key, 0) + 1
        opp.setdefault(a, []).append((b, c))
        opp.setdefault(b, []).append((a, c))
        opp.setdefault(c, []).append((a, b))
    nb_edges = 0
    for key, cnt in edge_count.items():
        if cnt > 2:
            raise ComplexError(f"vertex {v} link edge {key} in {cnt} "
                               "triangles")
        if cnt == 1:
            nb_edges += 1
    if nb_edges and not boundary:
        raise ComplexError(f"interior vertex {v} has a link with boundary")
    if not nb_edges and boundary:
        raise ComplexError(f"boundary vertex {v} has a closed link")
    # around each link vertex the opposite edges must chain into one
    # cycle (or one path), otherwise the link pinches there
    # (a DFS: UnionFind here made validate_complex 9-27% slower)
    for w, pairs in opp.items():
        deg: dict[int, int] = {}
        adj: dict[int, list[int]] = {}
        for x, y in pairs:
            deg[x] = deg.get(x, 0) + 1
            deg[y] = deg.get(y, 0) + 1
            adj.setdefault(x, []).append(y)
            adj.setdefault(y, []).append(x)
        ends = sum(1 for c in deg.values() if c == 1)
        if any(c > 2 for c in deg.values()) or ends not in (0, 2):
            raise ComplexError(f"vertex {v} link pinches at {w}")
        start = next(iter(adj))
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != len(adj):
            raise ComplexError(f"vertex {v} link is singular at {w}")
    # connectivity of the whole link
    simple_adj: dict[int, list[int]] = {}
    for (x, y) in edge_count:
        simple_adj.setdefault(x, []).append(y)
        simple_adj.setdefault(y, []).append(x)
    start = next(iter(simple_adj))
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in simple_adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != len(simple_adj):
        raise ComplexError(f"vertex {v} link is disconnected")
    chi = len(opp) - len(edge_count) + len(tris)
    if boundary:
        if chi != 1:
            raise ComplexError(
                f"boundary vertex {v} link is not a disk (chi={chi})")
    else:
        if chi != 2:
            raise ComplexError(
                f"interior vertex {v} link is not a sphere (chi={chi})")


def oracle_validate(cx: TetComplex):
    """validate_complex with the reference link check."""
    seen = set()
    for t in cx.tets:
        if len(set(t)) != 4:
            raise ComplexError(f"degenerate tetrahedron {t}")
        if not all(0 <= v < cx.nv for v in t):
            raise ComplexError(f"tetrahedron vertex out of range {t}")
        key = tuple(sorted(t))
        if key in seen:
            raise ComplexError(f"duplicate tetrahedron {key}")
        seen.add(key)
    bverts = set()
    for f, ts in face_map(cx).items():
        if len(ts) > 2:
            raise ComplexError(f"triangle {f} in {len(ts)} tetrahedra")
        if len(ts) == 1:
            bverts.update(f)
    star: dict[int, list[tuple[int, int, int]]] = {}
    for t in cx.tets:
        a, b, c, d = t
        star.setdefault(a, []).append((b, c, d))
        star.setdefault(b, []).append((a, c, d))
        star.setdefault(c, []).append((a, b, d))
        star.setdefault(d, []).append((a, b, c))
    if len(star) != cx.nv:
        raise ComplexError("isolated vertex")
    for v, tris in star.items():
        _check_link(v, tris, boundary=v in bverts)


def _accepts(check, cx) -> bool:
    try:
        check(cx)
    except ComplexError:
        return False
    return True


def _shared_apex():
    sphere = canonical_mesh(0, 1)
    cone = cone_complex(sphere)
    apex = sphere.nv
    return merge_complexes([cone, cone], [(0, apex, 1, apex)])[0]


def _double_cone():
    sphere = canonical_mesh(0, 1)
    ident = [(0, v, 1, v) for v in range(sphere.nv)]
    return merge_complexes([cone_complex(sphere), cone_complex(sphere)],
                           ident)[0]


def _chained_wedge_cone():
    # cone over sphere v torus v sphere, the torus wedged to each sphere at
    # a different point: the apex link is connected with chi 2 but pinched
    sphere, torus = canonical_mesh(0, 1), canonical_mesh(1, 1)
    n0, n1 = sphere.nv, torus.nv
    p, q = WEDGE_POINTS
    maps = [lambda v: v,
            lambda v: p if v == 0 else n0 + v - 1,
            lambda v: q if v == 0 else n0 + n1 - 2 + v]
    tris = [tuple(f(v) for v in t)
            for mesh, f in zip((sphere, torus, sphere), maps)
            for t in mesh.triangles]
    return cone_complex(SurfaceMesh(2 * n0 + n1 - 2, tris))


# vertex 0 of the first sphere and the last torus vertex; the apex is the
# vertex after the three summands
WEDGE_POINTS = (0, canonical_mesh(0, 1).nv + canonical_mesh(1, 1).nv - 2)


# (name, builder, accepted as built)
BASES = [
    ("sphere_split", lambda: elementary_junction(
        "sphere_split", F(0), F(1), F(2)).cx, True),
    ("projective_pass", lambda: elementary_junction(
        "projective_pass", F(0), F(1), F(2)).cx, True),
    ("cap_sphere", lambda: cap_block(0, F(0), F(1)).cx, True),
    ("cap_torus", lambda: cap_block(1, F(0), F(1)).cx, True),
    ("cylinder_klein", lambda: surface_prism(canonical_mesh(-2, 1),
                                             2).complex, True),
    ("cylinder_torus", lambda: surface_prism(canonical_mesh(1, 1),
                                             3).complex, True),
    ("cone_sphere", lambda: cone_complex(canonical_mesh(0, 1)), True),
    ("double_cone", _double_cone, True),
    ("cone_torus", lambda: cone_complex(canonical_mesh(1, 1)), False),
    ("cone_projective", lambda: cone_complex(canonical_mesh(-1, 1)), False),
    ("shared_apex", _shared_apex, False),
    ("chained_wedge_cone", _chained_wedge_cone, False),
]


@lru_cache(maxsize=None)
def _base(i: int) -> TetComplex:
    return BASES[i][1]()


@pytest.mark.parametrize("i", range(len(BASES)),
                         ids=[name for name, _, _ in BASES])
def test_link_check_verdicts_on_the_bases(i):
    cx = _base(i)
    assert _accepts(validate_complex, cx) == BASES[i][2]
    assert _accepts(oracle_validate, cx) == BASES[i][2]


def test_pinched_link_names_where_it_pinches():
    # the apex link is connected with chi 2: only the pinch rejects it
    i = [name for name, _, _ in BASES].index("chained_wedge_cone")
    cx = _base(i)
    p, q = WEDGE_POINTS
    with pytest.raises(ComplexError, match=rf"^vertex ({p}|{q}) link "
                                           rf"pinches at {cx.nv - 1}$"):
        validate_complex(cx)


# ---------------------------------------------------------------------------
# reference face map: every face sorted on its own, the implementation the
# one sort per tet replaced, kept verbatim
# ---------------------------------------------------------------------------

def tet_faces(t):
    a, b, c, d = t
    return (tuple(sorted((a, b, c))), tuple(sorted((a, b, d))),
            tuple(sorted((a, c, d))), tuple(sorted((b, c, d))))


def oracle_face_map(cx: TetComplex):
    fm = {}
    for ti, t in enumerate(cx.tets):
        for f in tet_faces(t):
            fm.setdefault(f, []).append(ti)
    return fm


@settings(max_examples=30, deadline=None)
@given(st.integers(0, len(BASES) - 1), st.integers(0, 2 ** 32))
def test_face_map_matches_reference(i, seed):
    # the same faces, each listing its tets in order, whatever order the
    # vertices of each tet come in
    rng = Random(seed)
    cx = TetComplex(_base(i).nv,
                    [tuple(rng.sample(t, 4)) for t in _base(i).tets])
    assert face_map(cx) == oracle_face_map(cx)


def _identify(cx: TetComplex, u: int, w: int) -> TetComplex:
    """Glue vertex w onto u and close the gap in the numbering."""
    def f(x):
        return f(u) if x == w else x - (x > w)
    return TetComplex(cx.nv - 1, [tuple(f(x) for x in t) for t in cx.tets])


def _damaged(cx, rng, holes, glue, stray, permute, copies=None):
    """cx with holes tets dropped, two vertices identified (glue), a stray
    tet (apart from cx, on one vertex of it, or on one face of it) and each
    tet's vertices and the tets themselves in a shuffled order.  Before
    that, copies can duplicate one tet, replace cx by the pillow (two
    copies of one tet: closed, connected, chi 0), or add a second copy of
    cx apart from it or glued to it along one face (on a closed cx, a face
    in four tets)."""
    if copies == "duplicate":
        cx = TetComplex(cx.nv, cx.tets + [rng.choice(cx.tets)])
    elif copies == "pillow":
        cx = TetComplex(4, [(0, 1, 2, 3), (0, 1, 2, 3)])
    elif copies == "apart":
        cx = merge_complexes([cx, cx], [])[0]
    elif copies == "face":
        f = rng.sample(rng.choice(cx.tets), 3)
        cx = merge_complexes([cx, cx], [(0, x, 1, x) for x in f])[0]
    drop = set(rng.sample(range(len(cx.tets)), min(holes, len(cx.tets) - 1)))
    cx = remove_tets(cx, drop)
    if glue:
        u = rng.choice(rng.choice(cx.tets))
        if glue == "near":
            # a vertex two tets away from u
            nbrs = {x for t in cx.tets if u in t for x in t}
            w = rng.choice(rng.choice([t for t in cx.tets
                                       if nbrs & set(t)]))
        else:
            w = rng.randrange(cx.nv)
        if w != u:
            cx = _identify(cx, u, w)
    if stray:
        n = {"apart": 4, "vertex": 3, "face": 1}[stray]
        old = rng.sample(rng.choice(cx.tets), 4 - n)
        cx = TetComplex(cx.nv + n, cx.tets +
                        [tuple(old) + tuple(range(cx.nv, cx.nv + n))])
    if permute:
        cx = TetComplex(cx.nv, [tuple(rng.sample(t, 4)) for t in cx.tets])
        rng.shuffle(cx.tets)
    return cx


COPIES = [None, "duplicate", "pillow", "apart", "face"]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(BASES) - 1), st.integers(0, 2 ** 32),
       st.integers(0, 4), st.sampled_from([None, "near", "far"]),
       st.sampled_from(COPIES))
def test_link_check_matches_reference(i, seed, holes, glue, copies):
    # removing tets makes boundary vertices, chain links and pinches;
    # identifying two vertices makes disconnected or pinched links, or
    # degenerate and duplicate tets; copies make duplicates, faces in four
    # tets and disconnected complexes: the verdicts must agree
    cx = _damaged(_base(i), Random(seed), holes, glue, None, False, copies)
    assert _accepts(validate_complex, cx) == _accepts(oracle_validate, cx)


# ---------------------------------------------------------------------------
# reference: the face-map validator that named what the one pass rejected,
# with its slot classes and its Euler characteristic, kept verbatim
# ---------------------------------------------------------------------------

def _slot_classes(fm: FaceMap, st: list[Tet], w: int, slots) -> UnionFind:
    """Union-find over the nodes (tet t, slot i) = w * t + i, joining
    across every interior face the slots of its two tets that slots[k]
    names for the face omitting vertex slot k."""
    uf = UnionFind(w * len(st))
    union = uf.union
    for (x, y, z), ts in fm.items():
        if len(ts) == 2:
            t1, t2 = ts
            # the vertex slot each sorted tet leaves out of the sorted face
            a = st[t1]
            s1 = slots[0 if a[0] != x else 1 if a[1] != y else
                       2 if a[2] != z else 3]
            a = st[t2]
            s2 = slots[0 if a[0] != x else 1 if a[1] != y else
                       2 if a[2] != z else 3]
            b1, b2 = w * t1, w * t2
            union(b1 + s1[0], b2 + s2[0])
            union(b1 + s1[1], b2 + s2[1])
            union(b1 + s1[2], b2 + s2[2])
    return uf


def validate_faces(cx: TetComplex, fm: FaceMap) -> int:
    """validate_complex on the face map of cx, already built; returns the
    Euler characteristic of cx.  It runs to name what manifold_census
    rejects.

    The link of v has a vertex per edge, an edge per face and a triangle
    per tet at v, and must be a sphere (a disk on the boundary).  It pinches
    at w when the tets around edge vw form several (tet, edge slot) classes
    across shared faces; the star of v is its (tet, vertex slot) classes.
    Split at its pinches, a link is a surface S, connected iff the star
    is, with chi(link) = chi(S) - sum(classes around w - 1).  A connected
    S has chi <= 2 (<= 1 with boundary), equal only for a sphere (disk).
    So counted chi 2 (1) and a connected star accept: no pinch anywhere.

    manifold_census checks all links with one count.  With every face in
    at most two tets and every star one class, each term 2 (1 at a
    boundary vertex) - chi(lk v) is >= 2 - chi(S) (1 - chi(S)) >= 0, and
    over all vertices the terms sum to 2V - 2E + F + F_bd - V_bd (as
    4T = 2F - F_bd), which is 2 chi(M) - chi(bd M).  A sum of 0 makes
    every term 0: every link a sphere or a disk.  On a closed complex
    the sum is 2 chi(M).
    """
    nv = cx.nv
    st: list[Tet] = []
    seen = set()
    chi = [0] * nv          # per vertex: link chi, as tets - faces + edges
    for t in cx.tets:
        s = tuple(sorted(t))
        a, b, c, d = s
        if a == b or b == c or c == d:
            raise ComplexError(f"degenerate tetrahedron {t}")
        if a < 0 or d >= nv:
            raise ComplexError(f"tetrahedron vertex out of range {t}")
        if s in seen:
            raise ComplexError(f"duplicate tetrahedron {s}")
        seen.add(s)
        st.append(s)
        chi[a] += 1
        chi[b] += 1
        chi[c] += 1
        chi[d] += 1
    del seen
    if 0 in chi:
        raise ComplexError("isolated vertex")
    boundary = bytearray(nv)
    edges = set()           # the distinct edges, uw as u * nv + w
    add = edges.add
    for f, ts in fm.items():
        if len(ts) > 2:
            raise ComplexError(f"triangle {f} in {len(ts)} tetrahedra")
        a, b, c = f
        chi[a] -= 1
        chi[b] -= 1
        chi[c] -= 1
        add(a * nv + b)
        add(a * nv + c)
        add(b * nv + c)
        if len(ts) == 1:
            boundary[a] = boundary[b] = boundary[c] = 1
    for e in edges:
        chi[e // nv] += 1
        chi[e % nv] += 1
    ne = len(edges)
    del edges
    home = bytearray(nv)
    split = -1              # the first vertex whose star falls apart
    for r in _slot_classes(fm, st, 4, _FACE_VERTS).roots():
        t, k = divmod(r, 4)
        v = st[t][k]
        if home[v] and split < 0:
            split = v
        home[v] = 1
    # a link edge ab of v is a boundary edge exactly when the face vab lies
    # in one tet, so a link has boundary iff its vertex is a boundary vertex
    bad = [v for v in range(nv) if chi[v] != (1 if boundary[v] else 2)]
    if split < 0 and not bad:
        return nv - ne + len(fm) - len(st)
    # one class per edge, or the link of one end pinches at the other;
    # with no pinch the distinct edges are the classes, and chi is exact
    edges = set()
    for r in _slot_classes(fm, st, 6, _FACE_EDGES).roots():
        t, e = divmod(r, 6)
        i, j = _EDGE[e]
        u, w = st[t][i], st[t][j]
        if u * nv + w in edges:
            raise ComplexError(f"vertex {u} link pinches at {w}")
        edges.add(u * nv + w)
    if split >= 0:
        raise ComplexError(f"vertex {split} link is disconnected")
    v = bad[0]
    raise ComplexError(
        f"boundary vertex {v} link is not a disk (chi={chi[v]})"
        if boundary[v] else
        f"interior vertex {v} link is not a sphere (chi={chi[v]})")


def euler_from_faces(cx: TetComplex, fm: FaceMap) -> int:
    """V - E + F - T, with vertices and edges read off the (sorted) faces."""
    verts = set()
    edges = set()
    for a, b, c in fm:
        verts.update((a, b, c))
        edges.update(((a, b), (a, c), (b, c)))
    return len(verts) - len(edges) + len(fm) - len(cx.tets)


# ---------------------------------------------------------------------------
# reference link check: every link through the (tet, edge slot) classes as
# well as the (tet, vertex slot) classes, the check that counting replaced,
# kept verbatim
# ---------------------------------------------------------------------------

def exact_reference(cx: TetComplex, fm: FaceMap) -> int:
    """validate_complex on the face map of cx, already built; returns the
    Euler characteristic of cx.

    The link of v has a vertex per edge, an edge per face and a triangle
    per tet at v.  It is a sphere (a disk on the boundary) when it pinches
    nowhere, is connected and has chi 2 (1).  The link of v pinches at w
    when the tets around edge vw fall apart into more than one class of
    (tet, edge slot) nodes joined across shared faces; it is connected
    when the tets at v form one class of (tet, vertex slot) nodes.
    """
    nv = cx.nv
    st: list[Tet] = []
    seen = set()
    chi = [0] * nv          # per vertex: link chi, as tets - faces + edges
    for t in cx.tets:
        s = tuple(sorted(t))
        a, b, c, d = s
        if a == b or b == c or c == d:
            raise ComplexError(f"degenerate tetrahedron {t}")
        if a < 0 or d >= nv:
            raise ComplexError(f"tetrahedron vertex out of range {t}")
        if s in seen:
            raise ComplexError(f"duplicate tetrahedron {s}")
        seen.add(s)
        st.append(s)
        chi[a] += 1
        chi[b] += 1
        chi[c] += 1
        chi[d] += 1
    del seen
    if 0 in chi:
        raise ComplexError("isolated vertex")
    boundary = bytearray(nv)
    for f, ts in fm.items():
        if len(ts) > 2:
            raise ComplexError(f"triangle {f} in {len(ts)} tetrahedra")
        a, b, c = f
        chi[a] -= 1
        chi[b] -= 1
        chi[c] -= 1
        if len(ts) == 1:
            boundary[a] = boundary[b] = boundary[c] = 1
    # one class per edge, or the link of one end pinches at the other; the
    # union-finds are built one after the other to bound peak memory
    edges = set()
    for r in _slot_classes(fm, st, 6, _FACE_EDGES).roots():
        t, e = divmod(r, 6)
        i, j = _EDGE[e]
        u, w = st[t][i], st[t][j]
        if u * nv + w in edges:
            raise ComplexError(f"vertex {u} link pinches at {w}")
        edges.add(u * nv + w)
        chi[u] += 1
        chi[w] += 1
    ne = len(edges)
    del edges
    home = bytearray(nv)
    for r in _slot_classes(fm, st, 4, _FACE_VERTS).roots():
        t, k = divmod(r, 4)
        v = st[t][k]
        if home[v]:
            raise ComplexError(f"vertex {v} link is disconnected")
        home[v] = 1
    # a link edge ab of v is a boundary edge exactly when the face vab lies
    # in one tet, so a link has boundary iff its vertex is a boundary vertex
    for v in range(nv):
        if chi[v] != (1 if boundary[v] else 2):
            raise ComplexError(
                f"boundary vertex {v} link is not a disk (chi={chi[v]})"
                if boundary[v] else
                f"interior vertex {v} link is not a sphere (chi={chi[v]})")
    return nv - ne + len(fm) - len(st)


def _verdict(check, cx):
    """The Euler characteristic check returns, or the message it raises."""
    try:
        return check(cx)
    except ComplexError as exc:
        return str(exc)


def _exact(cx):
    return exact_reference(cx, face_map(cx))


@pytest.mark.parametrize("i", range(len(BASES)),
                         ids=[name for name, _, _ in BASES])
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 4),
       st.sampled_from([None, "near", "far"]),
       st.sampled_from([None, "apart", "vertex", "face"]), st.booleans())
def test_counted_link_check_matches_exact_reference(i, seed, holes, glue,
                                                    stray, permute):
    # the census gives the same Euler characteristic on acceptance and the
    # same message on rejection, pinches named first; each base gets its
    # own examples, the chained wedge among them, whose apex link has a
    # distinct-edge chi of 2, so that only its split star sends it to be
    # named
    cx = _damaged(_base(i), Random(seed), holes, glue, stray, permute)
    assert _verdict(validate_complex, cx) == _verdict(_exact, cx)


def validate_complex_reference(cx: TetComplex):
    """Manifold check: face pairing plus sphere/disk vertex links.

    (Reference: `validate_complex` before the one-pass accept, kept
    verbatim.)"""
    validate_faces(cx, face_map(cx))


def _message(check, cx):
    try:
        check(cx)
    except ComplexError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("i", range(len(BASES)),
                         ids=[name for name, _, _ in BASES])
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 4),
       st.sampled_from([None, "near", "far"]),
       st.sampled_from([None, "apart", "vertex", "face"]), st.booleans(),
       st.sampled_from(COPIES))
def test_one_pass_matches_face_map_reference(i, seed, holes, glue, stray,
                                             permute, copies):
    # the one pass accepts exactly what the face-map path accepts, and
    # every rejection is named by that path with the same message
    cx = _damaged(_base(i), Random(seed), holes, glue, stray, permute,
                  copies)
    assert _message(validate_complex, cx) == \
        _message(validate_complex_reference, cx)


@pytest.mark.parametrize("copies, census, message", [
    (None, (0, 1), None),
    ("duplicate", None, "duplicate tetrahedron"),
    ("pillow", None, r"duplicate tetrahedron \(0, 1, 2, 3\)"),
    ("face", None, "in 4 tetrahedra"),
    ("apart", (0, 2), None)])
def test_census_of_copies_of_a_closed_complex(copies, census, message):
    # the pillow and a face in four tets pass a pairing that pops faces
    # two at a time, and the pillow is closed and connected with chi 0;
    # census is (boundary triangles, components) of an accepted complex,
    # whose copies are all the same size
    cx = _damaged(_base([n for n, _, _ in BASES].index("double_cone")),
                  Random(5), 0, None, None, True, copies)
    got = manifold_census(cx)
    assert (None if got.fault else
            (len(got.boundary), len(cx.tets) // got.reached)) == census
    if message:
        with pytest.raises(ComplexError, match=message):
            validate_complex(cx)


def test_census_of_a_product():
    mesh = canonical_mesh(1, 1)
    cx = surface_prism(mesh, 3).complex
    census = manifold_census(cx)
    assert (len(census.boundary), census.fault, census.reached,
            census.chi) == (2 * len(mesh.triangles), None, len(cx.tets), 0)
    assert census.boundary == [f for f, ts in face_map(cx).items()
                               if len(ts) == 1]


def test_accepting_builds_no_face_map(monkeypatch):
    # nor does rejecting: the census names its own faults
    def refuse(cx):
        raise AssertionError("a face map was built")
    monkeypatch.setattr(complexes, "face_map", refuse)
    for i, (name, _, accepted) in enumerate(BASES):
        assert _accepts(validate_complex, _base(i)) == accepted


@pytest.mark.parametrize("name", ["cylinder_klein", "cylinder_torus"])
def test_a_hole_in_a_boundary_edge_fan_is_a_pinch(name):
    # a tet in the middle of the fan around a boundary edge uw leaves two
    # fans: the link of u pinches at w, while every star stays one class
    # and the link split at w is still a disk; only counting the distinct
    # edges at u, not the fans, rejects it.  The first tets are in layer 0,
    # where every prism's second tet is such a tet.
    cx = _base([n for n, _, _ in BASES].index(name))
    pinches = 0
    for ti in range(12):
        holed = remove_tets(cx, {ti})
        got = _verdict(validate_complex, holed)
        assert got == _verdict(_exact, holed)
        pinches += "pinches" in str(got)
    assert pinches


# ---------------------------------------------------------------------------
# reference merge: roots numbered through a sorted set and a dict, tets
# rebuilt vertex by vertex, kept verbatim
# ---------------------------------------------------------------------------

def merge_reference(parts: list[TetComplex],
                    identifications: list[tuple[int, int, int, int]]):
    """Disjoint union with vertex identifications.

    identifications holds (part_a, vertex_a, part_b, vertex_b) pairs.
    Returns the merged complex, per-part vertex maps, and per-part tet index
    offsets.
    """
    offsets = []
    total = 0
    for p in parts:
        offsets.append(total)
        total += p.nv
    uf = UnionFind(total)
    for pa, va, pb, vb in identifications:
        uf.union(offsets[pa] + va, offsets[pb] + vb)
    # vertices are numbered by sorted root, so the union direction fixes
    # the output numbering
    roots = sorted({uf.find(i) for i in range(total)})
    rid = {r: i for i, r in enumerate(roots)}
    vmaps = []
    for pi, p in enumerate(parts):
        vmaps.append([rid[uf.find(offsets[pi] + v)] for v in range(p.nv)])
    tets: list[Tet] = []
    tet_offsets = []
    for pi, p in enumerate(parts):
        tet_offsets.append(len(tets))
        vm = vmaps[pi]
        for t in p.tets:
            tets.append(tuple(vm[v] for v in t))
    return TetComplex(len(roots), tets), vmaps, tet_offsets


@st.composite
def _merge_cases(draw):
    """Parts of random tets over a few vertices each, and identifications
    between random vertices of random parts (a part with itself too)."""
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        nv = draw(st.integers(1, 9))
        tets = draw(st.lists(st.tuples(*[st.integers(0, nv - 1)] * 4),
                             max_size=8))
        parts.append(TetComplex(nv, tets))
    vertex = st.integers(0, len(parts) - 1).flatmap(
        lambda p: st.tuples(st.just(p), st.integers(0, parts[p].nv - 1)))
    idents = draw(st.lists(st.tuples(vertex, vertex), max_size=12))
    return parts, [(pa, va, pb, vb) for (pa, va), (pb, vb) in idents]


@settings(max_examples=200, deadline=None)
@given(_merge_cases())
def test_merge_matches_reference(case):
    parts, ident = case
    cx, vmaps, offsets = merge_complexes(parts, ident)
    ref, ref_vmaps, ref_offsets = merge_reference(parts, ident)
    assert (cx.nv, cx.tets) == (ref.nv, ref.tets)
    assert vmaps == ref_vmaps
    assert offsets == ref_offsets
