"""Canonical triangulations per surface label, and the solid bodies that
bound the even-chi ones.

One mesh family per label at each refinement level keeps every interface
in an assembly literally identical, so gluing never has to match two
unrelated triangulations:

  label 0          midpoint-subdivided tetrahedron boundary
  label 1, -2, -1  P x P grid on the square (P = 3 * 2**k), bottom side
                   glued to the top and left side to the right; -2
                   reverses the top, -1 the top and the right
  otherwise        connected sum of the above in one pass, left to right,
                   by the rule stated in surfaces.connected_sum_meshes

Solids: ball = sphere prism capped by a cone; solid torus / solid Klein
bottle = one disk prism whose last layer is identified with its first
(through the disk reflection for the Klein bottle); higher even-chi labels
= boundary-connected sums of the cached elementary solids, one merge each.

Meshes and solids are cached per (label, refinement) and shared: callers
must not mutate them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .complexes import (TetComplex, cone_complex, manifold_census,
                        merge_complexes, surface_prism)
from .graphs import euler_char
from .surfaces import (MeshError, SurfaceMesh, classify_surface,
                       connected_sum_label, connected_sum_meshes,
                       find_spare_triangles, same_triangles)
from .unionfind import UnionFind


def grid_size(refinement: int) -> int:
    if refinement < 1:
        raise ValueError("refinement must be >= 1")
    return 3 * 2 ** refinement


# ---------------------------------------------------------------------------
# grid quotients of the unit square
# ---------------------------------------------------------------------------

def _grid_quotient(P: int, label: int) -> SurfaceMesh:
    """The P x P grid on the unit square with its bottom side glued to the
    top and its left side to the right: label 1 keeps both sides, -2
    reverses the top, -1 reverses the top and the right.

    Cells split toward the smaller quotient id of their bottom edge (the
    same rule the layered products use).  For label -1 the four corner
    cells split through their interior lattice corner instead, so a corner
    triangle and its image do not coincide.
    """
    W = P + 1
    uf = UnionFind(W * W)
    for k in range(W):
        uf.union(k, P * W + (P - k if label < 0 else k))
        uf.union(k * W, (P - k if label == -1 else k) * W + P)
    # quotient ids in order of each class's smallest lattice id
    classes = uf.groups(range(W * W))
    quo = [0] * (W * W)
    for q, members in enumerate(classes):
        for x in members:
            quo[x] = q

    triangles = []
    for j in range(P):
        for i in range(P):
            bl = j * W + i
            br, tl, tr = bl + 1, bl + W, bl + W + 1
            # the diagonal bl-tr, or else br-tl
            if label == -1 and i in (0, P - 1) and j in (0, P - 1):
                rising = i == j
            else:
                rising = quo[bl] <= quo[br]
            cells = ([(bl, br, tr), (bl, tr, tl)] if rising else
                     [(bl, br, tl), (br, tr, tl)])
            triangles += [tuple(quo[v] for v in cell) for cell in cells]

    mesh = SurfaceMesh(len(classes), triangles)
    mesh.spares = find_spare_triangles(mesh)
    return mesh


# ---------------------------------------------------------------------------
# subdivided tetrahedron sphere
# ---------------------------------------------------------------------------

def _base_sphere() -> SurfaceMesh:
    return SurfaceMesh(4, [(1, 2, 3), (0, 1, 3), (0, 2, 1), (0, 3, 2)])


def subdivide(mesh: SurfaceMesh) -> SurfaceMesh:
    """Midpoint 4-to-1 subdivision.  Edge midpoints are numbered after the
    vertices, in order of first appearance over each triangle's sides
    (p, q), (q, r), (r, p)."""
    mid: dict[tuple[int, int], int] = {}

    def midpoint(u, v):
        return mid.setdefault((min(u, v), max(u, v)), mesh.nv + len(mid))

    triangles = []
    for p, q, r in mesh.triangles:
        pq, qr, rp = midpoint(p, q), midpoint(q, r), midpoint(r, p)
        triangles += [(p, pq, rp), (q, qr, pq), (r, rp, qr), (pq, qr, rp)]
    return SurfaceMesh(mesh.nv + len(mid), triangles)


def _sphere_mesh(refinement: int) -> SurfaceMesh:
    mesh = _base_sphere()
    for _ in range(refinement + 1):
        mesh = subdivide(mesh)
    mesh.spares = find_spare_triangles(mesh)
    return mesh


# ---------------------------------------------------------------------------
# canonical meshes
# ---------------------------------------------------------------------------

_MESH_CACHE: dict[tuple[int, int], SurfaceMesh] = {}


def _summands(label: int) -> list[int]:
    """The elementary labels whose connected sum, taken left to right, is
    the canonical mesh (and solid) of a nonzero label."""
    if label > 0:
        return [1] * label
    if label % 2 == 0:
        return [-2] * (-label // 2)
    return [-1] + [-2] * ((-label - 1) // 2)


# the most triangles the CLI lets a canonical mesh have: at refinement 1,
# labels from -5,713 to 2,857
MAX_MESH_TRIANGLES = 200_000


def mesh_triangles(label: int, refinement: int) -> int:
    """The triangle count of canonical_mesh(label, refinement), by
    arithmetic: 4 * 4**(k + 1) for the sphere, 2 * P**2 for each grid
    summand, less 2 for each connected sum."""
    P = grid_size(refinement)
    if label == 0:
        return 4 * 4 ** (refinement + 1)
    summands = label if label > 0 else (1 - label) // 2
    return summands * 2 * P ** 2 - 2 * (summands - 1)


def mesh_budget_error(label: int, refinement: int) -> str | None:
    """None when canonical_mesh(label, refinement) fits
    MAX_MESH_TRIANGLES, or else one line naming its size.  Every
    canonical mesh has at least 16 * 4**k triangles, so past refinement
    64 the size at 64 bounds it from below."""
    k = min(refinement, 64)
    count = mesh_triangles(label, k)
    if count <= MAX_MESH_TRIANGLES:
        return None
    size = f"{count:,}" if k == refinement else f"more than {count:,}"
    return (f"surface r={label} at refinement {refinement} needs {size} "
            f"triangles, over the mesh budget of {MAX_MESH_TRIANGLES:,}")


def canonical_mesh(label: int, refinement: int = 1) -> SurfaceMesh:
    """The one triangulation of each surface used at block interfaces.

    Cached and shared: the result must not be mutated.
    """
    key = (label, refinement)
    if key in _MESH_CACHE:
        return _MESH_CACHE[key]
    P = grid_size(refinement)
    if label == 0:
        mesh = _sphere_mesh(refinement)
    elif label in (1, -1, -2):
        mesh = _grid_quotient(P, label)
    else:
        mesh, _ = connected_sum_meshes(
            [canonical_mesh(s, refinement) for s in _summands(label)])
    comps = classify_surface(mesh)
    if len(comps) != 1 or comps[0].label != label:
        raise MeshError(f"canonical mesh for {label} classifies as "
                        f"{[c.label for c in comps]}")
    _MESH_CACHE[key] = mesh
    return mesh


# ---------------------------------------------------------------------------
# solids
# ---------------------------------------------------------------------------

@dataclass
class End:
    """One boundary surface of a solid: a canonical mesh and where its
    vertices sit in the solid's complex."""

    label: int
    mesh: SurfaceMesh
    bmap: list[int]          # mesh vertex -> complex vertex


@dataclass
class Solid:
    """Compact 3-manifold whose boundary is the disjoint union of its
    ends."""

    cx: TetComplex
    ends: list[End]


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
    """i -> P-i mod P on the rim and on the interior ring."""
    rim = [(P - i) % P for i in range(P)]
    return rim + [P + i for i in rim] + [2 * P]


def ball_solid(refinement: int = 1) -> Solid:
    """3-ball: two sphere prism layers capped by an interior cone, so a
    fully interior tet is always available for bridging."""
    sphere = canonical_mesh(0, refinement)
    prod = surface_prism(sphere, 2)
    cx, _ = merge_complexes(
        [prod.complex, cone_complex(sphere)],
        [(1, v, 0, prod.vid(v, 2)) for v in range(sphere.nv)])
    return Solid(cx, [End(0, sphere, prod.layer_vertices(0))])


def _product_solid(label: int, refinement: int) -> Solid:
    """Solid torus (label 1) or solid Klein bottle (label -2): a P-layer
    disk prism whose last layer is identified with its first, through the
    disk reflection for the Klein bottle."""
    P = grid_size(refinement)
    disk = _disk_mesh(P)
    sigma = _disk_reflection(P) if label == -2 else range(disk.nv)
    prod = surface_prism(disk, P)
    # each class holds one layer-0 vertex, its root, so layers 0..P-1 keep
    # their prism ids
    cx, _ = merge_complexes(
        [prod.complex],
        [(0, prod.vid(v, P), 0, prod.vid(sigma[v], 0))
         for v in range(disk.nv)])
    boundary = canonical_mesh(label, refinement)
    # boundary vertex (rim i, layer j) has quotient id j*P + i in the grid
    bmap = [prod.vid(q % P, q // P) for q in range(boundary.nv)]
    got, used = manifold_census(cx).surface()
    if not same_triangles([[used[v] for v in t] for t in got.triangles],
                          [[bmap[v] for v in t] for t in boundary.triangles]):
        raise MeshError("solid boundary does not match its canonical mesh")
    return Solid(cx, [End(label, boundary, bmap)])


def boundary_connect_sum(a: Solid, bs: list[Solid], i: int) -> Solid:
    """Glue the one-ended solids bs onto end i of a, whose mesh undergoes
    connected_sum_meshes; the other ends of a carry over.  The first
    (part, vertex) on a vertex of the sum owns it; later ones join it."""
    ends = [a.ends[i]] + [b.ends[0] for b in bs]
    surf, maps = connected_sum_meshes([e.mesh for e in ends])
    owner: dict[int, tuple[int, int]] = {}
    ident = []
    for p, (e, vmap) in enumerate(zip(ends, maps)):
        for x, s in zip(e.bmap, vmap):
            if owner.setdefault(s, (p, x))[0] != p:
                ident.append((*owner[s], p, x))
    cx, vmaps = merge_complexes([a.cx] + [b.cx for b in bs], ident)
    # the sum numbers its vertices as the parts meet them
    bmap = [vmaps[p][x] for p, x in owner.values()]
    label = reduce(connected_sum_label, [e.label for e in ends])
    out = [End(e.label, e.mesh, [vmaps[0][x] for x in e.bmap])
           for e in a.ends]
    out[i] = End(label, surf, bmap)
    return Solid(cx, out)


_SOLID_CACHE: dict[tuple[int, int], Solid] = {}


def solid_for_label(label: int, refinement: int = 1) -> Solid:
    """A solid bounding the canonical mesh of an even-chi label.

    Cached and shared: the result must not be mutated.
    """
    key = (label, refinement)
    if key in _SOLID_CACHE:
        return _SOLID_CACHE[key]
    if euler_char(label) % 2 != 0:
        raise MeshError(
            f"no compact 3-manifold bounds the odd-chi surface r={label}")
    if label == 0:
        acc = ball_solid(refinement)
    elif label in (1, -2):
        acc = _product_solid(label, refinement)
    else:
        summands = [solid_for_label(s, refinement) for s in _summands(label)]
        acc = boundary_connect_sum(summands[0], summands[1:], 0)
    if label not in (0, 1, -2):
        mesh = canonical_mesh(label, refinement)
        if not same_triangles(acc.ends[0].mesh.triangles, mesh.triangles):
            raise MeshError("composite solid boundary drifted from canonical")
        # the end carries the shared mesh, not the equal one the sums built
        acc.ends[0] = End(label, mesh, acc.ends[0].bmap)
    _SOLID_CACHE[key] = acc
    return acc
