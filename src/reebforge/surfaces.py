"""Triangulated closed surfaces: validity checks, classification by Euler
characteristic and orientability, and connected sums at the label and mesh
level.

Meshes are purely combinatorial: a vertex count and a triangle list, with
no coordinates.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from itertools import chain

from .graphs import brief
from .unionfind import UnionFind


class MeshError(ValueError):
    """Raised when a triangle list violates surface-mesh invariants."""


@dataclass
class SurfaceMesh:
    nv: int
    triangles: list[tuple[int, int, int]]
    spares: list[int] = field(default_factory=list)   # indices of spare disk triangles


def _edge_map(triangles):
    """Undirected edge (u, v), u < v -> its sides.  Side
    2 * (3 * ti + k) + rev says that triangle ti runs along the edge from
    its corner k to corner k + 1 (mod 3), from v to u when rev is 1."""
    edges: dict[tuple[int, int], list[int]] = {}
    for ti, (a, b, c) in enumerate(triangles):
        s = 6 * ti
        for u, v, side in ((a, b, s), (b, c, s + 2), (c, a, s + 4)):
            if u > v:
                u, v, side = v, u, side + 1
            sides = edges.get((u, v))
            if sides is None:
                edges[u, v] = [side]
            else:
                sides.append(side)
    return edges


@dataclass
class SurfaceComponent:
    label: int
    chi: int
    orientable: bool
    vertices: list[int]
    triangles: list[int]   # indices into the mesh triangle list


def classify_surface(mesh: SurfaceMesh) -> list[SurfaceComponent]:
    """Check that mesh is a closed simplicial surface and classify each of
    its connected components.

    Raises MeshError on a degenerate, out-of-range or duplicate triangle,
    an edge in other than two triangles, and a vertex whose link is not
    one cycle.  Computes chi = V - E + F and decides orientability by
    propagating triangle orientations across shared edges; a propagation
    conflict means non-orientable.  The label is (2-chi)/2 for orientable
    components and chi-2 otherwise.
    """
    triangles = mesh.triangles
    nv = mesh.nv
    seen = set()
    for a, b, c in triangles:
        if a == b or b == c or a == c:
            raise MeshError(f"degenerate triangle ({a},{b},{c})")
        if not (0 <= a < nv and 0 <= b < nv and 0 <= c < nv):
            raise MeshError(f"triangle vertex out of range ({a},{b},{c})")
        key = tuple(sorted((a, b, c)))
        if key in seen:
            raise MeshError(f"duplicate triangle {key}")
        seen.add(key)
    edges = _edge_map(triangles)
    tn = len(triangles)
    # triangles joined across shared edges
    parts = UnionFind(tn)
    # corners around one vertex, joined across the interior edges at it:
    # a vertex link is connected iff all its corners fall in one class
    links = UnionFind(3 * tn)
    # corner 3 * ti + k -> 2 * tj + same for the triangle tj across the
    # edge leaving it, same = 1 when both run along that edge the same way
    across = [-1] * (3 * tn)
    for key, sides in edges.items():
        if len(sides) == 2:
            x, y = sides
            cx, cy = x >> 1, y >> 1
            tx, ty = cx // 3, cy // 3
            parts.union(tx, ty)
            same = (x ^ y ^ 1) & 1
            across[cx] = 2 * ty + same
            across[cy] = 2 * tx + same
            hx = cx + 1 if cx % 3 != 2 else cx - 2
            hy = cy + 1 if cy % 3 != 2 else cy - 2
            if same:
                links.union(cx, cy)
                links.union(hx, hy)
            else:
                links.union(cx, hy)
                links.union(hx, cy)
        elif len(sides) > 2:
            raise MeshError(f"edge {key} in {len(sides)} triangles")
        else:
            raise MeshError(f"boundary edge {key} in closed mesh")
    corner_vertex = list(chain.from_iterable(triangles))
    # vertex -> one of its corners, -1 for an unused vertex
    home = [-1] * nv
    pinched = set()
    for c in links.roots():
        v = corner_vertex[c]
        if home[v] < 0:
            home[v] = c
        else:
            pinched.add(v)
    if pinched:
        # the first in order of appearance
        v = next(v for v in corner_vertex if v in pinched)
        raise MeshError(f"vertex {v} link is disconnected")
    # the check's tables, freed before the classification builds its own
    del seen, edges, links, corner_vertex
    # listed by root, the order `surface classify` prints them in
    comps = sorted(parts.groups(range(tn)), key=lambda c: parts.find(c[0]))
    comp_of = [0] * tn
    for i, tris in enumerate(comps):
        for ti in tris:
            comp_of[ti] = i
    # a vertex lies in one component, since its link is connected
    vertices: list[list[int]] = [[] for _ in comps]
    for v, c in enumerate(home):
        if c >= 0:
            vertices[comp_of[c // 3]].append(v)

    # orientation propagation; orient[t] in {0,1}, flipping the triangle
    orient = [-1] * tn
    out = []
    for i, tris in enumerate(comps):
        orientable = True
        orient[tris[0]] = 0
        stack = [tris[0]]
        while stack:
            ti = stack.pop()
            o = orient[ti]
            for c in range(3 * ti, 3 * ti + 3):
                x = across[c]
                # consistent orientations run along a shared edge in
                # opposite directions
                tj, want = x >> 1, o ^ (x & 1)
                if orient[tj] < 0:
                    orient[tj] = want
                    stack.append(tj)
                elif orient[tj] != want:
                    orientable = False
        # each edge lies in two triangles of the component: E = 3F / 2
        chi = len(vertices[i]) - len(tris) // 2
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
        out.append(SurfaceComponent(label, chi, orientable, vertices[i],
                                    tris))
    return out


def classify_labels(mesh: SurfaceMesh) -> list[int]:
    """Sorted component labels of a closed surface mesh."""
    return sorted(c.label for c in classify_surface(mesh))


def connected_sum_label(r1: int, r2: int) -> int:
    """Label arithmetic of the connected sum.

    chi(out) = chi(r1) + chi(r2) - 2 always holds; orientability survives
    only when both summands are orientable.
    """
    if r1 >= 0 and r2 >= 0:
        return r1 + r2
    if r1 < 0 and r2 < 0:
        return r1 + r2
    if r1 < 0:
        return r1 - 2 * r2
    return r2 - 2 * r1


def connected_sum_meshes(meshes: list[SurfaceMesh]):
    """Connected sum of meshes, left to right, with each summand's vertex
    map into it.  Each next mesh gives up its first spare triangle and the
    sum so far its oldest spare left (a queue); the two boundary 3-cycles
    are identified in sorted order.  Each mesh's other vertices are
    numbered after all earlier ones, in order; triangles keep summand
    order less the removed ones; the spares left keep their queue order."""
    maps: list[list[int]] = []
    removed: list[set[int]] = []      # per mesh, its triangles given up
    queue: deque[tuple[int, int]] = deque()   # (mesh, spare) left
    nv = 0
    for j, m in enumerate(meshes):
        glue: dict[int, int] = {}
        removed.append(set())
        if j:
            i, s = queue.popleft()
            removed[i].add(s)
            removed[j].add(m.spares[0])
            hole = sorted(maps[i][v] for v in meshes[i].triangles[s])
            glue = dict(zip(sorted(m.triangles[m.spares[0]]), hole))
        rest = [v for v in range(m.nv) if v not in glue]
        glue.update(zip(rest, range(nv, nv + len(rest))))
        nv += len(rest)
        maps.append([glue[v] for v in range(m.nv)])
        queue.extend((j, s) for s in m.spares if s not in removed[j])
    triangles, base = [], []
    for m, vmap, gone in zip(meshes, maps, removed):
        base.append(len(triangles))
        triangles += [(vmap[a], vmap[b], vmap[c])
                      for t, (a, b, c) in enumerate(m.triangles)
                      if t not in gone]
    # a triangle's index drops by one past each removed one of its mesh
    spares = [base[j] + s - sum(x < s for x in removed[j]) for j, s in queue]
    return SurfaceMesh(nv, triangles, spares), maps


def find_spare_triangles(mesh: SurfaceMesh) -> list[int]:
    """Pick up to four pairwise vertex-disjoint triangles usable as spare
    disks."""
    used: set[int] = set()
    picked = []
    for ti, tri in enumerate(mesh.triangles):
        if used.isdisjoint(tri):
            picked.append(ti)
            used.update(tri)
            if len(picked) == 4:
                break
    return picked


def same_triangles(tris_a, tris_b) -> bool:
    """True when two triangle lists hold the same vertex triples, in any
    order and orientation."""
    return sorted(map(sorted, tris_a)) == sorted(map(sorted, tris_b))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def mesh_to_dict(mesh: SurfaceMesh) -> dict:
    doc = {
        "vertices": list(range(mesh.nv)),
        "triangles": [list(t) for t in mesh.triangles],
    }
    if mesh.spares:
        doc["spares"] = list(mesh.spares)
    return doc


def mesh_from_dict(doc) -> SurfaceMesh:
    """Parse a mesh document; shape and index-range errors raise
    MeshError.  The document is an object; its vertices, triangles and
    spares are JSON lists, vertex ids and spare triangle indices JSON
    integers."""
    if not isinstance(doc, dict):
        raise MeshError("top-level JSON value must be an object")
    for key in ("vertices", "triangles", "spares"):
        if type(doc.get(key, [])) is not list:
            raise MeshError(f"mesh {key} are not a JSON list")
    try:
        nv = len(doc["vertices"])
        tris = [tuple(t) for t in doc["triangles"]]
    except (KeyError, TypeError) as exc:
        raise MeshError(f"bad mesh document: {exc}") from exc
    if not tris:
        raise MeshError("mesh has no triangles")
    for t in tris:
        if len(t) != 3 or not all(type(v) is int and 0 <= v < nv
                                  for v in t):
            raise MeshError(f"triangle {brief(list(t))} is not 3 vertex "
                            f"ids in 0..{nv - 1}")
    spares = doc.get("spares", [])
    for s in spares:
        if type(s) is not int or not 0 <= s < len(tris):
            raise MeshError(f"spare {brief(s)} is not a triangle index "
                            f"in 0..{len(tris) - 1}")
    return SurfaceMesh(nv, tris, spares)


def mesh_to_json(mesh: SurfaceMesh) -> str:
    return json.dumps(mesh_to_dict(mesh), indent=1)


def mesh_to_off(mesh: SurfaceMesh) -> str:
    """OFF export with synthetic coordinates; topology is the authority."""
    coords = []
    for v in range(mesh.nv):
        # deterministic pseudo-embedding on a coarse spiral
        coords.append((v % 17, (v * 7) % 23, v // 17))
    lines = ["OFF", f"{mesh.nv} {len(mesh.triangles)} 0"]
    for x, y, z in coords:
        lines.append(f"{x} {y} {z}")
    for a, b, c in mesh.triangles:
        lines.append(f"3 {a} {b} {c}")
    return "\n".join(lines) + "\n"
