"""Tetrahedral complexes with the constructors the block factory needs:
layered products over surface meshes, cones, interior-tet removal, and
vertex-identifying unions.

Vertex ids in a product are layer-major: (v, layer j) -> j*nv + v.  Prism
quads are always split toward the smaller surface vertex id of the lower
layer, so separately built products over the same surface mesh triangulate
shared walls identically.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .surfaces import MeshError, SurfaceMesh, survey
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


def tet_faces(t: Tet):
    a, b, c, d = t
    return (tuple(sorted((a, b, c))), tuple(sorted((a, b, d))),
            tuple(sorted((a, c, d))), tuple(sorted((b, c, d))))


def face_map(cx: TetComplex) -> FaceMap:
    fm: FaceMap = {}
    for ti, t in enumerate(cx.tets):
        for f in tet_faces(t):
            fm.setdefault(f, []).append(ti)
    return fm


def boundary_faces(cx: TetComplex) -> list[tuple[int, int, int]]:
    return [f for f, ts in face_map(cx).items() if len(ts) == 1]


def boundary_vertices(cx: TetComplex) -> set[int]:
    out: set[int] = set()
    for f in boundary_faces(cx):
        out.update(f)
    return out


def find_interior_tets(cx: TetComplex) -> list[int]:
    """Tets whose vertices all avoid the boundary; removing one leaves a
    clean sphere socket."""
    bv = boundary_vertices(cx)
    return [ti for ti, t in enumerate(cx.tets) if not any(v in bv for v in t)]


def validate_complex(cx: TetComplex, closed: bool = False):
    """Manifold check: face pairing plus sphere/disk vertex links."""
    validate_faces(cx, face_map(cx), closed)


def validate_faces(cx: TetComplex, fm: FaceMap, closed: bool = False):
    """validate_complex on the face map of cx, already built."""
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
    for f, ts in fm.items():
        if len(ts) > 2:
            raise ComplexError(f"triangle {f} in {len(ts)} tetrahedra")
        if len(ts) == 1:
            if closed:
                raise ComplexError(f"boundary triangle {f} in closed complex")
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
    # every vertex link must be a sphere, or a disk on the boundary: a
    # connected surface (by the surface survey) with chi 2 or 1
    for v, tris in star.items():
        pos: dict[int, int] = {}
        link = [(pos.setdefault(a, len(pos)), pos.setdefault(b, len(pos)),
                 pos.setdefault(c, len(pos))) for a, b, c in tris]
        try:
            sv = survey(SurfaceMesh(len(pos), link), allow_boundary=True)
        except MeshError as exc:
            raise ComplexError(f"vertex {v} link is not a surface") from exc
        boundary = v in bverts
        if any(len(sides) == 1 for sides in sv.edges.values()) != boundary:
            raise ComplexError(f"boundary vertex {v} has a closed link"
                               if boundary else
                               f"interior vertex {v} has a link with "
                               "boundary")
        if len(sv.parts.roots()) != 1:
            raise ComplexError(f"vertex {v} link is disconnected")
        chi = len(pos) - len(sv.edges) + len(link)
        if chi != (1 if boundary else 2):
            raise ComplexError(
                f"boundary vertex {v} link is not a disk (chi={chi})"
                if boundary else
                f"interior vertex {v} link is not a sphere (chi={chi})")


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

def _staircase(bottom: tuple[int, int, int], top: tuple[int, int, int],
               order: tuple[int, int, int]):
    """Split the prism between two triangle copies into three tets.

    bottom/top are global ids of matched corners, order the surface ids
    used for the deterministic diagonal choice.
    """
    idx = sorted(range(3), key=lambda i: order[i])
    a0, b0, c0 = (bottom[i] for i in idx)
    a1, b1, c1 = (top[i] for i in idx)
    return [(a0, b0, c0, c1), (a0, b0, b1, c1), (a0, a1, b1, c1)]


@dataclass
class PrismProduct:
    complex: TetComplex
    mesh: SurfaceMesh
    nlayers: int                                  # number of vertex layers
    prism_tets: dict[tuple[int, int], list[int]] = field(default_factory=dict)

    def vid(self, v: int, layer: int) -> int:
        return layer * self.mesh.nv + v

    def layer_vertices(self, layer: int) -> list[int]:
        return [self.vid(v, layer) for v in range(self.mesh.nv)]


def surface_prism(mesh: SurfaceMesh, nseg: int) -> PrismProduct:
    """mesh x [0..nseg] as a tetrahedral complex (nseg >= 1)."""
    if nseg < 1:
        raise ComplexError("product needs at least one segment")
    nv = mesh.nv
    tets: list[Tet] = []
    prod = PrismProduct(TetComplex(nv * (nseg + 1), tets), mesh, nseg + 1)
    for j in range(nseg):
        for ti, tri in enumerate(mesh.triangles):
            bottom = tuple(j * nv + v for v in tri)
            top = tuple((j + 1) * nv + v for v in tri)
            start = len(tets)
            tets.extend(_staircase(bottom, top, tri))
            prod.prism_tets[(ti, j)] = [start, start + 1, start + 2]
    return prod


def circle_prism(mesh: SurfaceMesh, nseg: int,
                 twist: list[int] | None = None) -> PrismProduct:
    """mesh x S^1 with nseg layers; the wrap from the last layer back to
    layer 0 composes with the simplicial automorphism twist when given."""
    if nseg < 3:
        raise ComplexError("circle product needs at least three segments")
    nv = mesh.nv
    sigma = twist if twist is not None else list(range(nv))
    tets: list[Tet] = []
    prod = PrismProduct(TetComplex(nv * nseg, tets), mesh, nseg)
    for j in range(nseg):
        wrap = j == nseg - 1
        jj = 0 if wrap else j + 1
        for ti, tri in enumerate(mesh.triangles):
            bottom = tuple(j * nv + v for v in tri)
            if wrap:
                top = tuple(jj * nv + sigma[v] for v in tri)
            else:
                top = tuple(jj * nv + v for v in tri)
            start = len(tets)
            tets.extend(_staircase(bottom, top, tri))
            prod.prism_tets[(ti, j)] = [start, start + 1, start + 2]
    return prod


def cone_complex(mesh: SurfaceMesh, base_offset: int = 0,
                 apex: int | None = None, nv: int | None = None) -> TetComplex:
    """Cone over a closed surface mesh; apex is appended when not given."""
    total = mesh.nv if nv is None else nv
    if apex is None:
        apex = total
        total += 1
    tets = [(apex, base_offset + a, base_offset + b, base_offset + c)
            for a, b, c in mesh.triangles]
    return TetComplex(total, tets)


# ---------------------------------------------------------------------------
# surgery and unions
# ---------------------------------------------------------------------------

def remove_tets(cx: TetComplex, drop: set[int]):
    """Delete tets by index; returns the new complex and old->new tet map."""
    tets = []
    tmap: dict[int, int] = {}
    for ti, t in enumerate(cx.tets):
        if ti in drop:
            continue
        tmap[ti] = len(tets)
        tets.append(t)
    return TetComplex(cx.nv, tets), tmap


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
