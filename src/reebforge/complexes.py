"""Tetrahedral complexes with the constructors the block factory needs:
layered products over surface meshes, cones, interior-tet search, and
vertex-identifying unions that can leave tets out.

Vertex ids in a product are layer-major: (v, layer j) -> j*nv + v.  Prism
quads are always split toward the smaller surface vertex id of the lower
layer, so separately built products over the same surface mesh triangulate
shared walls identically.  That split depends on the triangle alone, so each
triangle's prism is split once and repeated layer by layer.
"""
from __future__ import annotations

from array import array
from collections import Counter
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


def face_map(cx: TetComplex) -> FaceMap:
    """Every face of cx, sorted, with its tets in order.  Nothing in the
    package builds one: manifold_census files the faces under int keys."""
    fm: FaceMap = {}
    for ti, t in enumerate(cx.tets):
        # the faces of a sorted tet come out sorted
        a, b, c, d = sorted(t)
        for f in ((a, b, c), (a, b, d), (a, c, d), (b, c, d)):
            fm.setdefault(f, []).append(ti)
    return fm


def boundary_faces(cx: TetComplex) -> list[tuple[int, int, int]]:
    return manifold_census(cx).boundary


def find_interior_tets(cx: TetComplex, boundary) -> list[int]:
    """Tets with no vertex in boundary, the boundary vertices of cx as its
    builder knows them; removing one leaves a clean sphere socket."""
    bv = set(boundary)
    return [ti for ti, t in enumerate(cx.tets) if bv.isdisjoint(t)]


def validate_complex(cx: TetComplex) -> int:
    """Face pairing plus sphere/disk vertex links: chi of cx, or a
    ComplexError naming the first fault."""
    census = manifold_census(cx)
    if census.fault:
        raise ComplexError(census.fault)
    return census.chi


def euler_characteristic(cx: TetComplex) -> int:
    return manifold_census(cx).chi


# a sorted tet (a, b, c, d) has vertex slots 0-3 and edge slots 0-5, edge
# slot e joining the vertex slots _EDGE[e]; the face that omits vertex slot
# k has vertex slots _FACE_VERTS[k] and, in the face's own order (xy, xz,
# yz), edge slots _FACE_EDGES[k]
_EDGE = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_FACE_VERTS = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
_FACE_EDGES = ((3, 4, 5), (1, 2, 5), (0, 2, 4), (0, 1, 3))


@dataclass
class Census:
    """A complex as manifold_census reads it: its faces in one tet, sorted,
    in face_map's order; its first fault, None for a 3-manifold (possibly
    with boundary); the tets tet 0 reaches through shared faces; and
    V - E + F - T over the vertices in tets."""

    boundary: list[tuple[int, int, int]]
    fault: str | None
    reached: int
    chi: int

    def surface(self):
        """The boundary as a SurfaceMesh, and its vertices in cx."""
        used = sorted({v for f in self.boundary for v in f})
        pos = {v: i for i, v in enumerate(used)}
        tris = [tuple(pos[v] for v in f) for f in self.boundary]
        return SurfaceMesh(len(used), tris), used


def _face(slots: list[int], o: int) -> tuple[int, int, int]:
    """The sorted face of node o = 4 * tet + k: its tet without slot k."""
    x, y, z = _FACE_VERTS[o & 3]
    o -= o & 3
    return slots[o + x], slots[o + y], slots[o + z]


def manifold_census(cx: TetComplex) -> Census:
    """The closed, links, connected and euler checks of cx in one pass
    over its tets.  Each face, keyed by one int, keeps the (tet, omitted
    slot) node of its first tet, whose partner is the node of the second;
    later tets are kept apart.  Pairing joins the two tets' shared vertex
    slots, so the classes are the vertex stars.  A connected 3-manifold
    pairs no face twice nor a tet with itself, has one star per vertex, a
    link sum of 0 (_fault) and a connected 1-skeleton; _fault names any
    other complex's fault off the same slots and faces."""
    nv, tets = cx.nv, cx.tets
    n = len(tets)
    lo, hi = 0, nv                # the ids whose faces get distinct keys
    while True:
        w = hi - lo
        slots: list[int] = []     # node 4 * tet + slot -> vertex, sorted
        faces: dict[int, int] = {}          # face -> its first node
        get = faces.get
        partner = array('q', [-1]) * (4 * n)   # first node -> second
        more: dict[int, list[int]] = {}     # first node -> later tets'
        edges: set[int] = set()   # the distinct edges, uv as u * w + v
        add_edges = edges.update
        stars = UnionFind(4 * n)
        union = stars.union
        faulty = False
        for t in tets:
            a, b, c, d = s = sorted(t)
            if a == b or b == c or c == d or a < 0 or d >= nv:
                if a < lo or d >= hi:
                    break
                faulty = True
            node = len(slots)
            slots += s
            ab, ac, bc = a * w + b, a * w + c, b * w + c
            add_edges((ab, ac, a * w + d, bc, b * w + d, c * w + d))
            abw = ab * w
            for key, k in ((abw + c, 3), (abw + d, 2), (ac * w + d, 1),
                           (bc * w + d, 0)):
                o = get(key)
                if o is None:
                    faces[key] = node + k
                    continue
                if partner[o] >= 0 or slots[o] == s[k]:
                    faulty = True     # a third tet, or the first again
                    if partner[o] >= 0:
                        more.setdefault(o, []).append(node)
                        continue
                partner[o] = node + k
                k1 = o & 3
                o -= k1
                x, y, z = _FACE_VERTS[k1]
                p, q, r = _FACE_VERTS[k]
                # this tet's slots, often still alone, go under the older
                # classes, so that the trees stay shallow
                union(node + p, o + x)
                union(node + q, o + y)
                union(node + r, o + z)
        else:
            break
        # an id out of range: key the faces over all the ids there are
        lo = min(map(min, tets))
        hi = max(map(max, tets)) + 1
    nf, ne = len(faces), len(edges)
    # every face in two tets leaves no boundary
    boundary = [] if 2 * nf == 4 * n and not faulty else \
        [_face(slots, o) for o in faces.values() if partner[o] < 0]
    if not faulty:
        roots = stars.roots()
        # a vertex with no star or a split one
        faulty = len(roots) != nv or len({slots[r] for r in roots}) != nv
    if not faulty and not (2 * nv - 2 * ne + nf + len(boundary) -
                           len({v for f in boundary for v in f})):
        skeleton = UnionFind(nv)
        union = skeleton.union
        for e in edges:
            union(*divmod(e, nv))
        if len(skeleton.roots()) == 1:
            return Census(boundary, None, n, nv - ne + nf - n)
    tet = UnionFind(n)
    for o in faces.values():
        if partner[o] >= 0:
            tet.union(partner[o] >> 2, o >> 2)
        for p in more.get(o, ()):
            tet.union(p >> 2, o >> 2)
    roots = [tet.find(t) for t in range(n)]
    return Census(boundary,
                  _fault(cx, slots, faces, partner, more, edges, boundary),
                  roots.count(roots[0]) if n else 0,
                  len(set(slots)) - ne + nf - n)


def _fault(cx: TetComplex, slots: list[int], faces: dict[int, int],
           partner: array, more: dict[int, list[int]], edges: set[int],
           boundary: list[tuple[int, int, int]]) -> str | None:
    """The first fault the census filed, or None: a degenerate,
    out-of-range or duplicate tet, in tet order; an isolated vertex; a
    face in three or more tets, in face order; a pinch; a split star; a
    link of wrong chi.

    The link of v pinches at w when the tets around edge vw form several
    (tet, edge slot) classes across shared faces; it is connected when the
    star of v, its (tet, vertex slot) classes, is one class.  Split at its
    pinches, a connected link has chi <= 2 (1 with boundary), equal only
    for a sphere (disk).  So the census' link sum, of 2 (1 on the
    boundary) - chi(lk v) over all v, is 0 only when every link is one.
    """
    nv, n = cx.nv, len(cx.tets)
    # a duplicate can look like a third tet on each face: tets come first
    seen = set()
    for t, i in zip(cx.tets, range(0, 4 * n, 4)):
        a, b, c, d = s = tuple(slots[i:i + 4])
        if a == b or b == c or c == d:
            return f"degenerate tetrahedron {t}"
        if a < 0 or d >= nv:
            return f"tetrahedron vertex out of range {t}"
        if s in seen:
            return f"duplicate tetrahedron {s}"
        seen.add(s)
    if len(set(slots)) != nv:
        return "isolated vertex"
    for o in faces.values():
        if o in more:
            return f"triangle {_face(slots, o)} in {2 + len(more[o])} " \
                "tetrahedra"
    chi = Counter(slots)    # per vertex: link chi, tets - faces + edges
    chi.subtract(v for o in faces.values() for v in _face(slots, o))
    chi.update(v for e in edges for v in divmod(e, nv))
    # a link edge ab of v is a boundary edge exactly when the face vab lies
    # in one tet, so a link has boundary iff its vertex is a boundary vertex
    on_boundary = {v for f in boundary for v in f}
    bad = [v for v in range(nv) if chi[v] != 2 - (v in on_boundary)]
    # the (tet, vertex slot) and (tet, edge slot) classes, each face's
    # first tet's slots joined under its second's, in filing order
    stars, fans = UnionFind(4 * n), UnionFind(6 * n)
    for o in faces.values():
        t, p = o >> 2, partner[o]
        if p >= 0:
            for i, j in zip(_FACE_VERTS[o & 3], _FACE_VERTS[p & 3]):
                stars.union(4 * t + i, 4 * (p >> 2) + j)
            for i, j in zip(_FACE_EDGES[o & 3], _FACE_EDGES[p & 3]):
                fans.union(6 * t + i, 6 * (p >> 2) + j)
    split, home = None, set()   # the first vertex whose star falls apart
    for v in map(slots.__getitem__, stars.roots()):
        if v in home:
            split = v
            break
        home.add(v)
    if split is None and not bad:
        return None
    # one class per edge, or the link of one end pinches at the other;
    # with no pinch the distinct edges are the classes, and chi is exact
    edges = set()
    for r in fans.roots():
        i, j = _EDGE[r % 6]
        u, v = slots[r // 6 * 4 + i], slots[r // 6 * 4 + j]
        if (u, v) in edges:
            return f"vertex {u} link pinches at {v}"
        edges.add((u, v))
    if split is not None:
        return f"vertex {split} link is disconnected"
    v = bad[0]
    return (f"boundary vertex {v} link is not a disk (chi={chi[v]})"
            if v in on_boundary else
            f"interior vertex {v} link is not a sphere (chi={chi[v]})")


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

def merge_complexes(parts: list[TetComplex],
                    identifications: list[tuple[int, int, int, int]],
                    drop=()):
    """Disjoint union with vertex identifications.

    identifications holds (part_a, vertex_a, part_b, vertex_b) pairs, and
    drop (part, tet) pairs: those tets are left out as the tets are
    written, the others keep their order.  Returns the merged complex
    and per-part vertex maps.
    """
    gone: dict[int, set[int]] = {}
    for p, t in drop:
        gone.setdefault(p, set()).add(t)
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
    for i, (p, vm) in enumerate(zip(parts, vmaps)):
        skip = gone.get(i)
        if skip:
            tets += [(vm[a], vm[b], vm[c], vm[d])
                     for ti, (a, b, c, d) in enumerate(p.tets)
                     if ti not in skip]
        else:
            tets += [(vm[a], vm[b], vm[c], vm[d]) for a, b, c, d in p.tets]
    return TetComplex(len(roots), tets), vmaps
