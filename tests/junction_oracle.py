"""The junction builder as it was before build_junction became one merge,
kept verbatim as its oracle.

junction_cell merged a cell's pieces, bridge shells and cylinders, with
its sockets copied out first by remove_tets, and scanned each piece's
interior twice: once for the sockets, and once more, with the sockets
gone, for the spare tets it kept as bridge_tets.  build_junction merged
those cells once more, again copying the used spares out first.
remove_tets and the merge_complexes that had no drops come with it: they
are also the oracle of merge_complexes leaving dropped tets out as it
writes them.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from reebforge.blocks import (CYL_SEGS, BlockError, BoundaryComponent,
                              EdgeContract, Plan, StarContract,
                              _end_component, _odd_pair_piece, _prism_values,
                              evaluate_plan, glued_values)
from reebforge.canonical import solid_for_label
from reebforge.complexes import (Tet, TetComplex, find_interior_tets,
                                 surface_prism)
from reebforge.graphs import is_odd_chi
from reebforge.surfaces import SurfaceMesh
from reebforge.unionfind import UnionFind

_TETRA_SPHERE = SurfaceMesh(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


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


@dataclass
class Block:
    """A block's interval [a1, a2] spans its boundary values and singular
    values; its contract is the Reeb graph it promises: one edge for a cap
    or a block with no singular value, a star around the singular value
    otherwise."""

    cx: TetComplex
    values: list[Fraction]
    singular_values: list[Fraction]
    boundary: list[BoundaryComponent]
    refinement: int
    # a junction cell's spare interior tets, sockets for joining cells
    bridge_tets: list[int] = field(default_factory=list)
    kind: str = "block"

    @property
    def a1(self) -> Fraction:
        return min(self.singular_values + [c.value for c in self.boundary])

    @property
    def a2(self) -> Fraction:
        return max(self.singular_values + [c.value for c in self.boundary])

    @property
    def contract(self) -> EdgeContract | StarContract:
        if self.kind == "cap" or not self.singular_values:
            return EdgeContract(self.a1, self.a2, self.boundary[0].label)
        return StarContract(self.singular_values[0],
                            [(c.value, c.label) for c in self.boundary])

    def labels(self, side: str) -> list[int]:
        return sorted(c.label for c in self.boundary if c.side == side)


def _bridge_parts(cxs: list[TetComplex], sockets: list[list[int]]):
    """Chain the complexes with interior connected sums: remove the tets
    sockets[i] from cxs[i] and join the last socket of each complex to the
    first of the next with a spherical shell.  Returns the parts (the
    complexes, then the shells) and the identifications."""
    parts = [remove_tets(cx, set(drop)) for cx, drop in zip(cxs, sockets)]
    ident = []
    n = len(cxs)
    for i in range(n - 1):
        left = sorted(cxs[i].tets[sockets[i][-1]])
        right = sorted(cxs[i + 1].tets[sockets[i + 1][0]])
        parts.append(surface_prism(_TETRA_SPHERE, 2).complex)
        for k in range(4):
            ident.append((i, left[k], n + i, k))
            ident.append((i + 1, right[k], n + i, 8 + k))
    return parts, ident


def junction_cell(bottom_labels, top_labels, a1: Fraction, a: Fraction,
                  a2: Fraction, refinement: int = 1) -> Block:
    """Elementary junction block: one singular value a, boundary surfaces
    with the requested labels at a1 (bottom) and a2 (top).

    Either side may be empty during intermediate planning; the final blocks
    of a plan always have both.
    """
    a1, a, a2 = Fraction(a1), Fraction(a), Fraction(a2)
    bottom_labels = list(bottom_labels)
    top_labels = list(top_labels)
    if not bottom_labels and not top_labels:
        raise BlockError("junction needs at least one boundary component")
    if bottom_labels and not a1 < a:
        raise BlockError("junction needs a1 < a")
    if top_labels and not a < a2:
        raise BlockError("junction needs a < a2")
    slots = ([("bottom", l) for l in bottom_labels] +
             [("top", l) for l in top_labels])
    order = sorted(range(len(slots)),
                   key=lambda i: (slots[i][1], slots[i][0], i))
    odd = [i for i in order if is_odd_chi(slots[i][1])]
    if len(odd) % 2 != 0:
        raise BlockError("odd-chi component count must be even")
    # each piece is a solid with the slot of each of its ends
    pieces = [(_odd_pair_piece(slots[i][1], slots[j][1], refinement), [i, j])
              for i, j in zip(odd[::2], odd[1::2])]
    pieces += [(solid_for_label(slots[i][1], refinement), [i])
               for i in order if not is_odd_chi(slots[i][1])]

    npieces = len(pieces)
    # the ends of a piece are its whole boundary
    ends = [[v for e in solid.ends for v in e.bmap] for solid, _ in pieces]
    sockets = []
    for i, (solid, _) in enumerate(pieces):
        need = 0 if npieces == 1 else 1 if i in (0, npieces - 1) else 2
        interior = find_interior_tets(solid.cx, ends[i])
        if len(interior) < need:
            raise BlockError("piece lacks interior tets for bridging")
        sockets.append(interior[:need])
    parts, ident = _bridge_parts([solid.cx for solid, _ in pieces], sockets)
    part_values = [[a] * p.nv for p in parts]   # pieces and bridge shells

    # cylinders: one per end, glued along the inner layer
    cylinders = [None] * len(slots)
    for pi, (solid, piece_slots) in enumerate(pieces):
        for e, slot in zip(solid.ends, piece_slots):
            prod = surface_prism(e.mesh, CYL_SEGS)
            if slots[slot][0] == "bottom":
                span, layers = (a1, a), range(CYL_SEGS + 1)
            else:
                span, layers = (a, a2), range(CYL_SEGS, -1, -1)
            for v in range(e.mesh.nv):
                ident.append((pi, e.bmap[v], len(parts),
                              prod.vid(v, layers[-1])))
            cylinders[slot] = (len(parts), prod, layers)
            parts.append(prod.complex)
            part_values.append(_prism_values(e.mesh.nv, *span, CYL_SEGS))

    cx, vmaps, toffs = merge_complexes(parts, ident)
    values = glued_values(cx.nv, vmaps, part_values)
    boundary = [_end_component(side, a1 if side == "bottom" else a2, label,
                               prod, vmaps[part], layers)
                for (side, label), (part, prod, layers)
                in zip(slots, cylinders)]
    bridge = []
    for pi, (solid, _) in enumerate(pieces):
        # removing an interior tet puts all four of its faces on the
        # boundary, so the socket tets' vertices join the ends
        holes = [v for t in sockets[pi] for v in solid.cx.tets[t]]
        bridge += [toffs[pi] + t
                   for t in find_interior_tets(parts[pi], ends[pi] + holes)]
    return Block(cx, values, [a], boundary, refinement, bridge[:8],
                 kind="junction")


def build_junction(plan: Plan, a1, a, a2, refinement: int = 1) -> Block:
    """Build each cell of a plan as a junction cell and join the cells at
    the singular value in one merge.  Each next cell bridges its first
    spare tet to the oldest spare socket of the cells before it, which
    also gives up the socket after that one.  Vertices and tets are
    numbered as if the cells were joined one at a time, in order."""
    a1, a, a2 = Fraction(a1), Fraction(a), Fraction(a2)
    got = evaluate_plan(plan)
    want = (sorted(plan.bottom), sorted(plan.top))
    if not plan.cells or got != want:
        raise BlockError(f"plan cells add up to {got}, plan promised {want}")
    cells = [junction_cell(b, t, a1, a, a2, refinement)
             for b, t in plan.cells]
    if len(cells) == 1:
        return cells[0]
    # parts: cell 0, then each next cell k and its shell at parts 2k - 1
    # and 2k; home sends each corner a shell absorbed, as (part, vertex),
    # to the shell vertex it became
    spare = [(0, t) for t in cells[0].bridge_tets]
    used: list[set[int]] = [set() for _ in cells]
    home: dict[tuple[int, int], tuple[int, int]] = {}
    ident = []
    for k, cell in enumerate(cells[1:], 1):
        if not spare or not cell.bridge_tets:
            raise BlockError("no spare bridge material left")
        (i, t), u = spare[0], cell.bridge_tets[0]
        spare = spare[2:] + [(k, v) for v in cell.bridge_tets[2:]]
        used[i].add(t)
        used[k].add(u)
        left = sorted(((max(0, 2 * i - 1), v) for v in cells[i].cx.tets[t]),
                      key=lambda c: home.get(c, c))
        right = [(2 * k - 1, v) for v in sorted(cell.cx.tets[u])]
        # the earlier side glues to the shell's layer 0, cell k to layer 2
        for corner, sv in zip(left + right, (0, 1, 2, 3, 8, 9, 10, 11)):
            ident.append((*corner, 2 * k, sv))
            home[corner] = (2 * k, sv)
    shell = surface_prism(_TETRA_SPHERE, 2).complex
    parts = [remove_tets(cells[0].cx, used[0])]
    part_values = [cells[0].values]
    for cell, drop in zip(cells[1:], used[1:]):
        parts += [remove_tets(cell.cx, drop), shell]
        part_values += [cell.values, [a] * shell.nv]
    cx, vmaps, _ = merge_complexes(parts, ident)
    values = glued_values(cx.nv, vmaps, part_values)
    boundary = [replace(comp, layer_ids=[[vm[v] for v in layer]
                                         for layer in comp.layer_ids])
                for cell, vm in zip(cells, vmaps[:1] + vmaps[1::2])
                for comp in cell.boundary]
    return Block(cx, values, [a], boundary, refinement, kind="junction")
