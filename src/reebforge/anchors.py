"""Fundamental-polygon schemes and anchored meshes.

An anchored mesh is the quotient of a triangulation of a planar polygon by
the scheme's side identifications.  Every planar vertex carries exact
rational coordinates, so two meshes anchored to the same scheme can be
identified through an exact overlay refinement with no homeomorphism
search.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import euler_char
from .surfaces import SurfaceMesh, validate_surface
from .unionfind import UnionFind

Point = tuple[Fraction, Fraction]


class AnchorError(ValueError):
    """Raised when anchor metadata is missing, mismatched, or corrupt."""


@dataclass(frozen=True)
class PolygonScheme:
    """Planar polygon with paired sides encoding a closed surface.

    word holds one (symbol, exponent) per side; each symbol appears exactly
    twice.  corners are rational planar positions, one per side start.
    """

    label: int
    word: tuple[tuple[str, int], ...]
    corners: tuple[Point, ...]

    @property
    def n(self) -> int:
        return len(self.word)

    def side(self, i: int) -> tuple[Point, Point]:
        return self.corners[i], self.corners[(i + 1) % self.n]

    def side_point(self, i: int, t: Fraction) -> Point:
        (ax, ay), (bx, by) = self.side(i)
        return (ax + t * (bx - ax), ay + t * (by - ay))

    def pairing(self) -> dict[int, tuple[int, bool]]:
        """side index -> (partner side, flip).  flip means t' = 1 - t."""
        where: dict[str, list[int]] = {}
        for i, (sym, _) in enumerate(self.word):
            where.setdefault(sym, []).append(i)
        out = {}
        for sym, occ in where.items():
            if len(occ) != 2:
                raise AnchorError(f"symbol {sym!r} occurs {len(occ)} times")
            i, j = occ
            flip = self.word[i][1] != self.word[j][1]
            out[i] = (j, flip)
            out[j] = (i, flip)
        return out

    def partner_point(self, i: int, t: Fraction) -> tuple[int, Fraction]:
        j, flip = self.pairing()[i]
        return j, (1 - t if flip else t)

    def corner_orbits(self) -> list[set[int]]:
        uf = UnionFind(self.n)
        for i in range(self.n):
            for t in (Fraction(0), Fraction(1)):
                j, t2 = self.partner_point(i, t)
                ci = i if t == 0 else (i + 1) % self.n
                cj = j if t2 == 0 else (j + 1) % self.n
                uf.union(ci, cj)
        return [set(g) for g in uf.groups(range(self.n))]

    def euler_check(self) -> int:
        """chi of the identified polygon (cells: orbits - symbols + 1)."""
        symbols = {s for s, _ in self.word}
        chi = len(self.corner_orbits()) - len(symbols) + 1
        if chi != euler_char(self.label):
            raise AnchorError(
                f"scheme for label {self.label} has chi {chi}, expected "
                f"{euler_char(self.label)}")
        return chi


def _square_perimeter_point(p: Fraction) -> Point:
    """Point at perimeter parameter p in [0,4) of the unit square, CCW."""
    p = p % 4
    if p < 1:
        return (p, Fraction(0))
    if p < 2:
        return (Fraction(1), p - 1)
    if p < 3:
        return (3 - p, Fraction(1))
    return (Fraction(0), 4 - p)


_SQUARE = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
           (Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))

_SCHEME_CACHE: dict[int, PolygonScheme] = {}


def scheme_for_label(r: int) -> PolygonScheme:
    """The canonical identification polygon used for surfaces of label r."""
    if r in _SCHEME_CACHE:
        return _SCHEME_CACHE[r]
    half = Fraction(1, 2)
    if r == 0:
        # unfolded tetrahedron boundary: a big triangle whose side midpoints
        # are also polygon corners, three chevron folds
        corners = ((Fraction(0), Fraction(0)), (half, Fraction(0)),
                   (Fraction(1), Fraction(0)), (half, half),
                   (Fraction(0), Fraction(1)), (Fraction(0), half))
        word = (("a", 1), ("a", -1), ("b", 1), ("b", -1), ("c", 1), ("c", -1))
    elif r == 1:
        word = (("a", 1), ("b", 1), ("a", -1), ("b", -1))
        corners = _SQUARE
    elif r == -1:
        word = (("a", 1), ("b", 1), ("a", 1), ("b", 1))
        corners = _SQUARE
    elif r == -2:
        word = (("a", 1), ("b", 1), ("a", 1), ("b", -1))
        corners = _SQUARE
    elif r >= 2:
        word = []
        for g in range(r):
            a, b = f"a{g}", f"b{g}"
            word += [(a, 1), (b, 1), (a, -1), (b, -1)]
        word = tuple(word)
        n = len(word)
        corners = tuple(_square_perimeter_point(Fraction(4 * i, n))
                        for i in range(n))
    else:
        q = -r
        word = []
        for g in range(q):
            word += [(f"a{g}", 1), (f"a{g}", 1)]
        word = tuple(word)
        n = len(word)
        corners = tuple(_square_perimeter_point(Fraction(4 * i, n))
                        for i in range(n))
    scheme = PolygonScheme(r, tuple(word), tuple(corners))
    scheme.euler_check()
    _SCHEME_CACHE[r] = scheme
    return scheme


@dataclass
class SchemeAnchor:
    """Unfolding of a mesh onto its scheme polygon.

    points are planar positions; to_mesh maps each planar point to its
    quotient mesh vertex (boundary points of paired sides share images).
    poly_triangles correspond 1:1 with the mesh triangle list.
    """

    scheme: PolygonScheme
    points: list[Point]
    poly_triangles: list[tuple[int, int, int]]
    to_mesh: list[int]


def check_anchor(mesh: SurfaceMesh):
    """Anchored meshes must reproduce their triangle list from the planar
    triangulation through the quotient map."""
    a = mesh.anchor
    if not isinstance(a, SchemeAnchor):
        raise AnchorError("mesh has no scheme anchor")
    got = sorted(tuple(sorted(a.to_mesh[v] for v in tri))
                 for tri in a.poly_triangles)
    want = sorted(tuple(sorted(t)) for t in mesh.triangles)
    if got != want:
        raise AnchorError("anchor triangulation does not project onto mesh")
    if len(a.points) != len(a.to_mesh):
        raise AnchorError("anchor point/map length mismatch")


# ---------------------------------------------------------------------------
# exact planar primitives
# ---------------------------------------------------------------------------

def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return ((a[0] - o[0]) * (b[1] - o[1]) -
            (a[1] - o[1]) * (b[0] - o[0]))


def _area2(pts: list[Point]) -> Fraction:
    s = Fraction(0)
    for i in range(len(pts)):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % len(pts)]
        s += x1 * y2 - x2 * y1
    return s


def _between(p: Point, a: Point, b: Point) -> bool:
    """p strictly inside segment ab (collinear, excluding endpoints)."""
    if _cross(a, b, p) != 0:
        return False
    dx, dy = b[0] - a[0], b[1] - a[1]
    t = (p[0] - a[0]) * dx + (p[1] - a[1]) * dy
    return 0 < t < dx * dx + dy * dy


def _segment_param(p: Point, a: Point, b: Point) -> Fraction:
    dx, dy = b[0] - a[0], b[1] - a[1]
    if dx != 0:
        return (p[0] - a[0]) / dx
    return (p[1] - a[1]) / dy


def _proper_crossing(a: Point, b: Point, c: Point, d: Point):
    """Intersection point of open segments ab and cd when they cross
    transversally; None for parallel, collinear, or endpoint touches."""
    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    denom = r[0] * s[1] - r[1] * s[0]
    if denom == 0:
        return None
    qp = (c[0] - a[0], c[1] - a[1])
    t = (qp[0] * s[1] - qp[1] * s[0]) / denom
    u = (qp[0] * r[1] - qp[1] * r[0]) / denom
    if 0 < t < 1 and 0 < u < 1:
        return (a[0] + t * r[0], a[1] + t * r[1])
    return None


def _clip_triangle(subject: list[Point], clip: list[Point]) -> list[Point]:
    """Sutherland-Hodgman intersection of a convex subject with a CCW
    triangle; returns the (possibly empty) convex intersection."""
    if _area2(clip) < 0:
        clip = clip[::-1]
    out = subject[:]
    for i in range(3):
        a, b = clip[i], clip[(i + 1) % 3]
        if not out:
            return []
        nxt: list[Point] = []
        prev = out[-1]
        prev_side = _cross(a, b, prev)
        for cur in out:
            cur_side = _cross(a, b, cur)
            if cur_side >= 0:
                if prev_side < 0:
                    nxt.append(_proper_line_hit(prev, cur, a, b))
                nxt.append(cur)
            elif prev_side > 0:
                nxt.append(_proper_line_hit(prev, cur, a, b))
            prev, prev_side = cur, cur_side
        # dedup consecutive repeats introduced by on-line vertices
        out = []
        for p in nxt:
            if not out or out[-1] != p:
                out.append(p)
        if len(out) > 1 and out[0] == out[-1]:
            out.pop()
    return out


def _proper_line_hit(p: Point, q: Point, a: Point, b: Point) -> Point:
    """Intersection of segment pq with the full line ab (pq crosses it)."""
    d1 = _cross(a, b, p)
    d2 = _cross(a, b, q)
    t = d1 / (d1 - d2)
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


# ---------------------------------------------------------------------------
# overlay refinement
# ---------------------------------------------------------------------------

def _same_scheme(a: PolygonScheme, b: PolygonScheme) -> bool:
    return (a.label, a.word, a.corners) == (b.label, b.word, b.corners)


def _classify_boundary(scheme: PolygonScheme, p: Point):
    """(side, t) pairs for every polygon side containing p."""
    hits = []
    for i in range(scheme.n):
        a, b = scheme.side(i)
        if p == a:
            hits.append((i, Fraction(0)))
        elif p == b:
            hits.append((i, Fraction(1)))
        elif _between(p, a, b):
            hits.append((i, _segment_param(p, a, b)))
    return hits


def common_refinement(m1: SurfaceMesh, m2: SurfaceMesh):
    """Overlay two meshes anchored to the same scheme.

    Returns (refined mesh, map1, map2) where map_i sends each input mesh
    vertex to its vertex in the refinement.  Composing map1 with the
    inverse image of map2 is the PL identification of m1 with m2.
    """
    a1, a2 = m1.anchor, m2.anchor
    if not isinstance(a1, SchemeAnchor) or not isinstance(a2, SchemeAnchor):
        raise AnchorError("common refinement requires scheme anchors")
    if not _same_scheme(a1.scheme, a2.scheme):
        raise AnchorError("anchors reference different schemes")
    scheme = a1.scheme

    # fast path: identical planar triangulations
    tris1 = sorted(tuple(sorted((a1.points[x] for x in t))) for t in a1.poly_triangles)
    tris2 = sorted(tuple(sorted((a2.points[x] for x in t))) for t in a2.poly_triangles)
    if tris1 == tris2:
        refined = m1.copy()
        index = {p: a1.to_mesh[i] for i, p in enumerate(a1.points)}
        map2 = [None] * m2.nv
        for i, p in enumerate(a2.points):
            map2[a2.to_mesh[i]] = index[p]
        if any(v is None for v in map2):
            raise AnchorError("anchors cover different point sets")
        return refined, list(range(m1.nv)), map2

    # arrangement point set: all anchor points plus proper edge crossings
    pts: dict[Point, int] = {}

    def pid(p: Point) -> int:
        if p not in pts:
            pts[p] = len(pts)
        return pts[p]

    for anch in (a1, a2):
        for p in anch.points:
            pid(p)

    def mesh_segments(anch):
        segs = set()
        for t in anch.poly_triangles:
            ps = [anch.points[v] for v in t]
            for i in range(3):
                a, b = ps[i], ps[(i + 1) % 3]
                segs.add((a, b) if a <= b else (b, a))
        return segs

    segs1, segs2 = mesh_segments(a1), mesh_segments(a2)
    for sa in segs1:
        for sb in segs2:
            hit = _proper_crossing(sa[0], sa[1], sb[0], sb[1])
            if hit is not None:
                pid(hit)
    allpts = list(pts)

    # cells: intersections of triangle pairs, then re-insert any arrangement
    # point sitting on a cell edge so neighbouring cells subdivide shared
    # boundary identically
    cells = []
    for t1 in a1.poly_triangles:
        tri1 = [a1.points[v] for v in t1]
        if _area2(tri1) < 0:
            tri1 = tri1[::-1]
        minx = min(p[0] for p in tri1)
        maxx = max(p[0] for p in tri1)
        miny = min(p[1] for p in tri1)
        maxy = max(p[1] for p in tri1)
        for t2 in a2.poly_triangles:
            tri2 = [a2.points[v] for v in t2]
            if (max(p[0] for p in tri2) < minx or
                    min(p[0] for p in tri2) > maxx or
                    max(p[1] for p in tri2) < miny or
                    min(p[1] for p in tri2) > maxy):
                continue
            cell = _clip_triangle(tri1, tri2)
            if len(cell) >= 3 and _area2(cell) > 0:
                cells.append(cell)

    poly_points: list[Point] = []
    poly_index: dict[Point, int] = {}

    def rid(p: Point) -> int:
        if p not in poly_index:
            poly_index[p] = len(poly_points)
            poly_points.append(p)
        return poly_index[p]

    poly_triangles: list[tuple[int, int, int]] = []
    for cell in cells:
        full: list[Point] = []
        for i in range(len(cell)):
            a, b = cell[i], cell[(i + 1) % len(cell)]
            full.append(a)
            onseg = [p for p in allpts if _between(p, a, b)]
            onseg.sort(key=lambda p: _segment_param(p, a, b))
            full.extend(onseg)
        if len(full) == 3:
            poly_triangles.append(tuple(rid(p) for p in full))
            continue
        n = len(full)
        cx = sum(p[0] for p in full) / n
        cy = sum(p[1] for p in full) / n
        c = rid((cx, cy))
        for i in range(n):
            a, b = full[i], full[(i + 1) % n]
            poly_triangles.append((c, rid(a), rid(b)))

    # quotient by the scheme's side identifications
    uf = UnionFind(len(poly_points))
    for i, p in enumerate(poly_points):
        for side, t in _classify_boundary(scheme, p):
            j, t2 = scheme.partner_point(side, t)
            q = scheme.side_point(j, t2)
            if q not in poly_index:
                raise AnchorError(
                    "refinement boundary subdivision is not pairing-closed")
            uf.union(i, poly_index[q])

    roots = sorted({uf.find(i) for i in range(len(poly_points))})
    vid = {r: k for k, r in enumerate(roots)}
    to_mesh = [vid[uf.find(i)] for i in range(len(poly_points))]
    triangles = [tuple(to_mesh[v] for v in t) for t in poly_triangles]
    anchor = SchemeAnchor(scheme, poly_points, poly_triangles, to_mesh)
    refined = SurfaceMesh(len(roots), triangles, anchor)
    validate_surface(refined)

    def vertex_map(anch, mesh):
        out = [None] * mesh.nv
        for i, p in enumerate(anch.points):
            target = to_mesh[poly_index[p]]
            src = anch.to_mesh[i]
            if out[src] is not None and out[src] != target:
                raise AnchorError("inconsistent vertex identification")
            out[src] = target
        if any(v is None for v in out):
            raise AnchorError("input vertex missing from refinement")
        return out

    return refined, vertex_map(a1, m1), vertex_map(a2, m2)
