"""Tetrahedral complexes with the constructors the block factory needs:
layered products over surface meshes, cones, interior-tet removal, and
vertex-identifying unions.

Vertex ids in a product are layer-major: (v, layer j) -> j*nv + v.  Prism
quads are always split toward the smaller surface vertex id of the lower
layer, so separately built products over the same surface mesh triangulate
shared walls identically.  That split depends on the triangle alone, so each
triangle's prism is split once and repeated layer by layer.
"""
from __future__ import annotations

from dataclasses import dataclass

from .surfaces import SurfaceMesh
from .unionfind import UnionFind

Tet = tuple[int, int, int, int]
FaceMap = dict[tuple[int, int, int], list[int]]   # sorted face -> tets


class ComplexError(ValueError):
    """Raised when a tetrahedral complex violates manifold invariants."""


@dataclass
class TetComplex:
    nv: int
    tets: list[Tet]

    def copy(self) -> "TetComplex":
        return TetComplex(self.nv, list(self.tets))


def face_map(cx: TetComplex) -> FaceMap:
    fm: FaceMap = {}
    for ti, t in enumerate(cx.tets):
        # the faces of a sorted tet come out sorted
        a, b, c, d = sorted(t)
        for f in ((a, b, c), (a, b, d), (a, c, d), (b, c, d)):
            fm.setdefault(f, []).append(ti)
    return fm


def boundary_faces(cx: TetComplex) -> list[tuple[int, int, int]]:
    return [f for f, ts in face_map(cx).items() if len(ts) == 1]


def find_interior_tets(cx: TetComplex, boundary) -> list[int]:
    """Tets with no vertex in boundary, the boundary vertices of cx as its
    builder knows them; removing one leaves a clean sphere socket."""
    bv = set(boundary)
    return [ti for ti, t in enumerate(cx.tets) if bv.isdisjoint(t)]


def validate_complex(cx: TetComplex):
    """Manifold check: face pairing plus sphere/disk vertex links.  One
    pass over the tets accepts; a face map is built only to name a
    failure."""
    if manifold_census(cx) is None:
        validate_faces(cx, face_map(cx))


# a sorted tet (a, b, c, d) has vertex slots 0-3 and edge slots 0-5, edge
# slot e joining the vertex slots _EDGE[e]; the face that omits vertex slot
# k has vertex slots _FACE_VERTS[k] and, in the face's own order (xy, xz,
# yz), edge slots _FACE_EDGES[k]
_EDGE = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_FACE_VERTS = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
_FACE_EDGES = ((3, 4, 5), (1, 2, 5), (0, 2, 4), (0, 1, 3))


def manifold_census(cx: TetComplex) -> tuple[int, int] | None:
    """(boundary triangles, components) when cx is a 3-manifold, possibly
    with boundary, that validate_faces accepts; None when any check fails,
    for validate_faces to name.  One pass over the tets, no face map.

    Each face, keyed by one int, keeps the (tet, omitted slot) node of its
    first tet.  A second tet pairs it and joins the shared vertex slots of
    the two, the classes _slot_classes builds; a third tet fails, and so
    does a second with the same omitted vertex: the first tet again.  The
    links pass by one count of 0 (validate_faces), and with every star
    connected the components are those of the 1-skeleton.
    """
    nv = cx.nv
    slots: list[int] = []         # node 4 * tet + slot -> vertex, tets sorted
    first: dict[int, int] = {}    # face -> 4 * tet + omitted slot, -1 paired
    get = first.get
    edges: set[int] = set()       # the distinct edges, uw as u * nv + w
    add_edges = edges.update
    stars = UnionFind(4 * len(cx.tets))
    union = stars.union
    for t in cx.tets:
        a, b, c, d = s = sorted(t)
        if a == b or b == c or c == d or a < 0 or d >= nv:
            return None
        node = len(slots)
        slots += s
        ab, ac, bc = a * nv + b, a * nv + c, b * nv + c
        add_edges((ab, ac, a * nv + d, bc, b * nv + d, c * nv + d))
        abn = ab * nv
        for key, k in ((abn + c, 3), (abn + d, 2), (ac * nv + d, 1),
                       (bc * nv + d, 0)):
            o = get(key)
            if o is None:
                first[key] = node + k
                continue
            if o < 0 or slots[o] == s[k]:
                return None       # a third tet, or a duplicate
            first[key] = -1
            k1 = o & 3
            o -= k1
            x, y, z = _FACE_VERTS[k1]
            p, q, r = _FACE_VERTS[k]
            # this tet's slots, often still alone, go under the older
            # classes, so that the trees stay shallow
            union(node + p, o + x)
            union(node + q, o + y)
            union(node + r, o + z)
    roots = stars.roots()
    if len(roots) != nv or len({slots[r] for r in roots}) != nv:
        return None               # a vertex with no star or a split one
    nf = len(first)
    nb = 2 * nf - len(slots)      # faces in one tet
    on_boundary = set()
    if nb:
        for key, o in first.items():
            if o >= 0:
                ab, c = divmod(key, nv)
                on_boundary.update(divmod(ab, nv))
                on_boundary.add(c)
    if 2 * nv - 2 * len(edges) + nf + nb - len(on_boundary):
        return None
    skeleton = UnionFind(nv)
    union = skeleton.union
    for e in edges:
        union(*divmod(e, nv))
    return nb, len(skeleton.roots())


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


def euler_characteristic(cx: TetComplex) -> int:
    return euler_from_faces(cx, face_map(cx))


def euler_from_faces(cx: TetComplex, fm: FaceMap) -> int:
    """V - E + F - T, with vertices and edges read off the (sorted) faces."""
    verts = set()
    edges = set()
    for a, b, c in fm:
        verts.update((a, b, c))
        edges.update(((a, b), (a, c), (b, c)))
    return len(verts) - len(edges) + len(fm) - len(cx.tets)


def boundary_surface(cx: TetComplex):
    """Boundary as a SurfaceMesh plus the map back into complex vertices."""
    faces = boundary_faces(cx)
    used = sorted({v for f in faces for v in f})
    pos = {v: i for i, v in enumerate(used)}
    tris = [tuple(pos[v] for v in f) for f in faces]
    return SurfaceMesh(len(used), tris), used


# ---------------------------------------------------------------------------
# products and cones
# ---------------------------------------------------------------------------

@dataclass
class PrismProduct:
    complex: TetComplex
    mesh: SurfaceMesh

    def vid(self, v: int, layer: int) -> int:
        return layer * self.mesh.nv + v

    def layer_vertices(self, layer: int) -> list[int]:
        return [self.vid(v, layer) for v in range(self.mesh.nv)]


def surface_prism(mesh: SurfaceMesh, nseg: int) -> PrismProduct:
    """mesh x [0..nseg] as a tetrahedral complex (nseg >= 1)."""
    if nseg < 1:
        raise ComplexError("product needs at least one segment")
    nv = mesh.nv
    # each triangle's prism over the first segment, split once; the other
    # segments repeat it one layer up at a time
    first: list[Tet] = []
    for tri in mesh.triangles:
        a, b, c = sorted(tri)
        first += [(a, b, c, c + nv), (a, b, b + nv, c + nv),
                  (a, a + nv, b + nv, c + nv)]
    tets = [(a + o, b + o, c + o, d + o) for o in range(0, nseg * nv, nv)
            for a, b, c, d in first]
    return PrismProduct(TetComplex(nv * (nseg + 1), tets), mesh)


def cone_complex(mesh: SurfaceMesh) -> TetComplex:
    """Cone over a closed surface mesh; the apex is vertex mesh.nv."""
    apex = mesh.nv
    return TetComplex(apex + 1,
                      [(apex, a, b, c) for a, b, c in mesh.triangles])


# ---------------------------------------------------------------------------
# surgery and unions
# ---------------------------------------------------------------------------

def remove_tets(cx: TetComplex, drop: set[int]) -> TetComplex:
    """Delete tets by index, keeping the others in order."""
    return TetComplex(cx.nv, [t for ti, t in enumerate(cx.tets)
                              if ti not in drop])


def merge_complexes(parts: list[TetComplex],
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
    # vertices are numbered by ascending root, so the union direction fixes
    # the output numbering
    roots = uf.roots()
    rid = [0] * total
    for i, r in enumerate(roots):
        rid[r] = i
    find = uf.find
    vmaps = [[rid[find(v)] for v in range(o, o + p.nv)]
             for o, p in zip(offsets, parts)]
    tets: list[Tet] = []
    tet_offsets = []
    for p, vm in zip(parts, vmaps):
        tet_offsets.append(len(tets))
        tets += [(vm[a], vm[b], vm[c], vm[d]) for a, b, c, d in p.tets]
    return TetComplex(len(roots), tets), vmaps, tet_offsets
