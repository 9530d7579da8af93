"""Canonical triangulations per surface label, and the solid bodies that
bound the even-chi ones.

One mesh family per label at each refinement level keeps every interface
in an assembly literally identical, so gluing never has to match two
unrelated triangulations:

  label 0        subdivided tetrahedron boundary (chevron-fold anchor)
  label 1 / -2   P x P grid quotients of the square (P = 3 * 2**k)
  label -1       antipodal P x P grid quotient
  otherwise      fixed-recipe connected sums of the above

Solids: ball = sphere prism capped by a cone; solid torus / solid Klein
bottle = disk x circle products (the Klein seam composes with the disk
reflection); higher even-chi labels = boundary-connected sums.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .anchors import PolygonScheme, SchemeAnchor, scheme_for_label
from .complexes import (TetComplex, boundary_surface, circle_prism,
                        find_interior_tets, merge_complexes, surface_prism)
from .graphs import euler_char
from .surfaces import (MeshError, SurfaceMesh, classify_surface,
                       connected_sum_mesh_maps, find_spare_triangles,
                       validate_surface)
from .unionfind import UnionFind


def grid_size(refinement: int) -> int:
    if refinement < 1:
        raise ValueError("refinement must be >= 1")
    return 3 * 2 ** refinement


# ---------------------------------------------------------------------------
# grid quotients of the unit square
# ---------------------------------------------------------------------------

def _grid_quotient(P: int, pairs, scheme: PolygonScheme,
                   corner_fix: bool = False) -> SurfaceMesh:
    """Quotient of the (P+1)^2 lattice of the unit square by boundary
    identifications; cells split toward the smaller quotient id of their
    bottom edge (the same rule the layered products use).

    corner_fix forces the diagonal of the four corner cells through their
    unique interior lattice corner; the antipodal quotient needs this so a
    corner triangle and its image do not coincide.
    """
    W = P + 1

    def lid(i, j):
        return j * W + i

    uf = UnionFind(W * W)
    for i1, j1, i2, j2 in pairs:
        uf.union(lid(i1, j1), lid(i2, j2))
    # quotient ids in order of each class's smallest lattice id
    classes = uf.groups(range(W * W))
    quo = [0] * (W * W)
    for q, members in enumerate(classes):
        for x in members:
            quo[x] = q

    triangles = []
    poly_triangles = []
    for j in range(P):
        for i in range(P):
            bl, br = lid(i, j), lid(i + 1, j)
            tl, tr = lid(i, j + 1), lid(i + 1, j + 1)
            corner = None
            if corner_fix:
                if (i, j) == (0, 0):
                    corner = "tr"
                elif (i, j) == (P - 1, 0):
                    corner = "tl"
                elif (i, j) == (0, P - 1):
                    corner = "br"
                elif (i, j) == (P - 1, P - 1):
                    corner = "bl"
            if corner in ("tr", "bl"):
                cells = [(bl, br, tr), (bl, tr, tl)]
            elif corner in ("tl", "br"):
                cells = [(bl, br, tl), (br, tr, tl)]
            elif quo[bl] <= quo[br]:
                cells = [(bl, br, tr), (bl, tr, tl)]
            else:
                cells = [(bl, br, tl), (br, tr, tl)]
            for cell in cells:
                poly_triangles.append(cell)
                triangles.append(tuple(quo[v] for v in cell))

    points = [(Fraction(i, P), Fraction(j, P))
              for j in range(W) for i in range(W)]
    # lattice ids above are j*W+i; reorder points accordingly
    points = [None] * (W * W)
    for j in range(W):
        for i in range(W):
            points[lid(i, j)] = (Fraction(i, P), Fraction(j, P))
    anchor = SchemeAnchor(scheme, points, poly_triangles, quo)
    mesh = SurfaceMesh(len(classes), triangles, anchor)
    validate_surface(mesh)
    mesh.spares = find_spare_triangles(mesh)
    return mesh


def _torus_grid(P: int) -> SurfaceMesh:
    pairs = [(i, 0, i, P) for i in range(P + 1)]
    pairs += [(0, j, P, j) for j in range(P + 1)]
    return _grid_quotient(P, pairs, scheme_for_label(1))


def _klein_grid(P: int) -> SurfaceMesh:
    pairs = [(i, 0, P - i, P) for i in range(P + 1)]
    pairs += [(0, j, P, j) for j in range(P + 1)]
    return _grid_quotient(P, pairs, scheme_for_label(-2))


def _projective_grid(P: int) -> SurfaceMesh:
    pairs = [(i, 0, P - i, P) for i in range(P + 1)]
    pairs += [(0, j, P, P - j) for j in range(P + 1)]
    return _grid_quotient(P, pairs, scheme_for_label(-1), corner_fix=True)


# ---------------------------------------------------------------------------
# subdivided tetrahedron sphere
# ---------------------------------------------------------------------------

def _base_sphere() -> SurfaceMesh:
    scheme = scheme_for_label(0)
    half = Fraction(1, 2)
    points = [(Fraction(0), Fraction(0)), (half, Fraction(0)),
              (Fraction(1), Fraction(0)), (half, half),
              (Fraction(0), Fraction(1)), (Fraction(0), half)]
    to_mesh = [0, 1, 0, 2, 0, 3]
    poly_triangles = [(1, 3, 5), (0, 1, 5), (2, 3, 1), (4, 5, 3)]
    triangles = [tuple(to_mesh[v] for v in t) for t in poly_triangles]
    anchor = SchemeAnchor(scheme, points, poly_triangles, to_mesh)
    return SurfaceMesh(4, triangles, anchor)


def subdivide_anchored(mesh: SurfaceMesh) -> SurfaceMesh:
    """Midpoint 4-to-1 subdivision carried out on the planar anchor and
    projected through the quotient map."""
    a = mesh.anchor
    if not isinstance(a, SchemeAnchor):
        raise MeshError("subdivision requires a scheme anchor")
    # mesh edge midpoints
    edge_mid: dict[tuple[int, int], int] = {}
    nv = mesh.nv
    for tri in mesh.triangles:
        for u, v in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (u, v) if u < v else (v, u)
            if key not in edge_mid:
                edge_mid[key] = nv + len(edge_mid)

    points = list(a.points)
    to_mesh = list(a.to_mesh)
    pindex = {p: i for i, p in enumerate(points)}

    def planar_mid(p, q):
        m = ((points[p][0] + points[q][0]) / 2,
             (points[p][1] + points[q][1]) / 2)
        if m not in pindex:
            pindex[m] = len(points)
            points.append(m)
            mu, mv = to_mesh[p], to_mesh[q]
            key = (mu, mv) if mu < mv else (mv, mu)
            to_mesh.append(edge_mid[key])
        return pindex[m]

    poly_triangles = []
    for p, q, r in a.poly_triangles:
        pq, qr, rp = planar_mid(p, q), planar_mid(q, r), planar_mid(r, p)
        poly_triangles += [(p, pq, rp), (q, qr, pq), (r, rp, qr),
                           (pq, qr, rp)]
    triangles = [tuple(to_mesh[v] for v in t) for t in poly_triangles]
    anchor = SchemeAnchor(a.scheme, points, poly_triangles, to_mesh)
    return SurfaceMesh(nv + len(edge_mid), triangles, anchor)


def _sphere_mesh(refinement: int) -> SurfaceMesh:
    mesh = _base_sphere()
    for _ in range(refinement + 1):
        mesh = subdivide_anchored(mesh)
    validate_surface(mesh)
    mesh.spares = find_spare_triangles(mesh)
    return mesh


# ---------------------------------------------------------------------------
# canonical meshes
# ---------------------------------------------------------------------------

_MESH_CACHE: dict[tuple[int, int], SurfaceMesh] = {}


def canonical_mesh(label: int, refinement: int = 1) -> SurfaceMesh:
    """The one triangulation of each surface used at block interfaces."""
    key = (label, refinement)
    if key in _MESH_CACHE:
        return _MESH_CACHE[key].copy()
    P = grid_size(refinement)
    if label == 0:
        mesh = _sphere_mesh(refinement)
    elif label == 1:
        mesh = _torus_grid(P)
    elif label == -1:
        mesh = _projective_grid(P)
    elif label == -2:
        mesh = _klein_grid(P)
    elif label >= 2:
        mesh = canonical_mesh(1, refinement)
        for _ in range(label - 1):
            nxt = canonical_mesh(1, refinement)
            mesh, _, _ = connected_sum_mesh_maps(mesh, mesh.spares[0],
                                                 nxt, nxt.spares[0])
    elif label % 2 == 0:
        mesh = canonical_mesh(-2, refinement)
        for _ in range((-label - 2) // 2):
            nxt = canonical_mesh(-2, refinement)
            mesh, _, _ = connected_sum_mesh_maps(mesh, mesh.spares[0],
                                                 nxt, nxt.spares[0])
    else:
        mesh = canonical_mesh(-1, refinement)
        for _ in range((-label - 1) // 2):
            nxt = canonical_mesh(-2, refinement)
            mesh, _, _ = connected_sum_mesh_maps(mesh, mesh.spares[0],
                                                 nxt, nxt.spares[0])
    comps = classify_surface(mesh)
    if len(comps) != 1 or comps[0].label != label:
        raise MeshError(f"canonical mesh for {label} classifies as "
                        f"{[c.label for c in comps]}")
    _MESH_CACHE[key] = mesh
    return mesh.copy()


def generate_surface(label: int, refinement: int = 1) -> SurfaceMesh:
    """Canonical closed connected mesh with the given label; anchored to
    its scheme (directly for the elementary labels, by sum recipe above)."""
    return canonical_mesh(label, refinement)


# ---------------------------------------------------------------------------
# solids
# ---------------------------------------------------------------------------

@dataclass
class Solid:
    """Compact 3-manifold whose boundary is a canonical mesh."""

    cx: TetComplex
    boundary: SurfaceMesh
    bmap: list[int]          # boundary mesh vertex -> complex vertex
    label: int

    def interior_tets(self) -> list[int]:
        return find_interior_tets(self.cx)


def _disk_mesh(P: int) -> SurfaceMesh:
    """Disk with rim 0..P-1, an interior ring, and a center vertex.

    Band diagonals alternate so the reflection i -> P-i mod P is a
    simplicial automorphism (P must be even).
    """
    if P % 2 != 0:
        raise MeshError("disk mesh needs even rim size")
    center = 2 * P
    tris = []
    for i in range(P):
        g, g2 = P + i, P + (i + 1) % P
        p, p2 = i, (i + 1) % P
        tris.append((center, g, g2))
        if i % 2 == 0:
            tris += [(g, g2, p2), (g, p2, p)]
        else:
            tris += [(g, g2, p), (g2, p2, p)]
    return SurfaceMesh(2 * P + 1, tris)


def _disk_reflection(P: int) -> list[int]:
    sigma = [0] * (2 * P + 1)
    for i in range(P):
        sigma[i] = (P - i) % P
        sigma[P + i] = P + (P - i) % P
    sigma[2 * P] = 2 * P
    return sigma


def ball_solid(refinement: int = 1) -> Solid:
    """3-ball: two sphere prism layers capped by an interior cone, so a
    fully interior tet is always available for bridging."""
    sphere = canonical_mesh(0, refinement)
    prod = surface_prism(sphere, 2)
    cx = prod.complex
    apex = cx.nv
    tets = list(cx.tets)
    for a, b, c in sphere.triangles:
        tets.append((apex, 2 * sphere.nv + a, 2 * sphere.nv + b,
                     2 * sphere.nv + c))
    full = TetComplex(cx.nv + 1, tets)
    return Solid(full, sphere, list(range(sphere.nv)), 0)


def _product_solid(refinement: int, twist: bool) -> Solid:
    P = grid_size(refinement)
    disk = _disk_mesh(P)
    sigma = _disk_reflection(P) if twist else None
    prod = circle_prism(disk, P, sigma)
    label = -2 if twist else 1
    boundary = canonical_mesh(label, refinement)
    # boundary vertex (rim i, layer j) has quotient id j*P + i in the grid
    bmap = [0] * boundary.nv
    for j in range(P):
        for i in range(P):
            bmap[j * P + i] = prod.vid(i, j)
    _assert_boundary_matches(prod.complex, boundary, bmap)
    return Solid(prod.complex, boundary, bmap, label)


def _assert_boundary_matches(cx: TetComplex, mesh: SurfaceMesh,
                             bmap: list[int]):
    got, used = boundary_surface(cx)
    have = sorted(tuple(sorted(used[v] for v in t)) for t in got.triangles)
    want = sorted(tuple(sorted(bmap[v] for v in t)) for t in mesh.triangles)
    if have != want:
        raise MeshError("solid boundary does not match its canonical mesh")


def torus_solid(refinement: int = 1) -> Solid:
    return _product_solid(refinement, twist=False)


def klein_solid(refinement: int = 1) -> Solid:
    return _product_solid(refinement, twist=True)


def boundary_connect_sum(a: Solid, b: Solid) -> Solid:
    """Glue two solids along one spare boundary triangle each; the
    boundaries undergo the matching surface connected sum."""
    sa, sb = a.boundary.spares[0], b.boundary.spares[0]
    ta, tb = a.boundary.triangles[sa], b.boundary.triangles[sb]
    surf, map_a, map_b = connected_sum_mesh_maps(a.boundary, sa,
                                                 b.boundary, sb)
    ident = [(0, a.bmap[x], 1, b.bmap[y])
             for x, y in zip(sorted(ta), sorted(tb))]
    cx, vmaps, _ = merge_complexes([a.cx, b.cx], ident)
    bmap = [0] * surf.nv
    for v in range(a.boundary.nv):
        bmap[map_a[v]] = vmaps[0][a.bmap[v]]
    for v in range(b.boundary.nv):
        bmap[map_b[v]] = vmaps[1][b.bmap[v]]
    from .surfaces import connected_sum_label
    return Solid(cx, surf, bmap, connected_sum_label(a.label, b.label))


_SOLID_CACHE: dict[tuple[int, int], Solid] = {}


def solid_for_label(label: int, refinement: int = 1) -> Solid:
    """A solid bounding the canonical mesh of an even-chi label.

    Cached; treat the result as immutable (all gluing operations copy).
    """
    key = (label, refinement)
    if key in _SOLID_CACHE:
        return _SOLID_CACHE[key]
    if euler_char(label) % 2 != 0:
        raise MeshError(
            f"no compact 3-manifold bounds the odd-chi surface r={label}")
    if label == 0:
        acc = ball_solid(refinement)
    elif label == 1:
        acc = torus_solid(refinement)
    elif label == -2:
        acc = klein_solid(refinement)
    elif label >= 2:
        acc = torus_solid(refinement)
        for _ in range(label - 1):
            acc = boundary_connect_sum(acc, torus_solid(refinement))
    else:
        acc = klein_solid(refinement)
        for _ in range((-label - 2) // 2):
            acc = boundary_connect_sum(acc, klein_solid(refinement))
    if label not in (0, 1, -2):
        want = canonical_mesh(label, refinement)
        if sorted(map(sorted, acc.boundary.triangles)) != sorted(
                map(sorted, want.triangles)):
            raise MeshError("composite solid boundary drifted from canonical")
    _SOLID_CACHE[key] = acc
    return acc
