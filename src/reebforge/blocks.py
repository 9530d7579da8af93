"""Local pieces of the realization: product cylinders, extremum caps,
junction blocks with one singular value, the junction planner, and the
parabola fold for extremum vertices.

A junction block is a constant-value connector solid at the singular level
with a product cylinder hanging off each boundary surface.  The connector
of a cell is assembled from one solid per even-chi boundary component and
one thickened projective plane per pair of odd-chi ones, chained together
by interior connected sums ("bridges": remove an interior tetrahedron on
each side and join the exposed sphere sockets with a spherical shell).

The cells of a junction plan are joined at the singular value by more
bridges between their connectors.  A cell is only laid out as parts;
build_junction merges every cell's parts and the shells between cells
once, leaving the removed tetrahedra out as it writes the tets.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .canonical import (End, Solid, boundary_connect_sum, canonical_mesh,
                        solid_for_label)
from .complexes import (TetComplex, find_interior_tets, manifold_census,
                        merge_complexes, surface_prism)
from .graphs import euler_char, format_rational, is_odd_chi
from .reeb import ReebGraph, reeb_graph_of
from .surfaces import MeshError, SurfaceMesh, classify_surface

CYL_SEGS = 2          # segments per block cylinder; layers 0..CYL_SEGS


class BlockError(ValueError):
    """Raised for inadmissible block constructions."""


# a spherical shell, the boundary of a tetrahedron times [0, 2]: layer 0 is
# vertices 0-3, layer 2 vertices 8-11
_SHELL = surface_prism(
    SurfaceMesh(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]), 2).complex


@dataclass
class BoundaryComponent:
    side: str                            # "bottom" | "top"
    value: Fraction
    label: int
    mesh: SurfaceMesh
    layer_ids: list[list[int]]           # outer->inner, parallel to mesh

    @property
    def cmap(self) -> list[int]:
        """Mesh vertex -> block vertex on the outer layer."""
        return self.layer_ids[0]


@dataclass
class EdgeContract:
    lo: Fraction
    hi: Fraction
    label: int


@dataclass
class StarContract:
    center: Fraction
    leaves: list[tuple[Fraction, int]]   # (boundary value, label)


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


def glued_values(nv: int, vmaps, part_values) -> list[Fraction]:
    """The function on a complex of nv vertices merged by merge_complexes:
    each part's values carried through its vertex map.  Vertices that the
    merge identifies must carry the same value."""
    values: list = [None] * nv
    for vmap, vals in zip(vmaps, part_values):
        for tgt, val in zip(vmap, vals):
            old = values[tgt]
            if old is None:
                values[tgt] = val
            elif old is not val and old != val:
                raise BlockError("value clash at a glued interface")
    return values


# ---------------------------------------------------------------------------
# cylinders and caps
# ---------------------------------------------------------------------------

def _prism_values(nv: int, lo: Fraction, hi: Fraction,
                  nseg: int) -> list[Fraction]:
    """Values of a surface prism with nv vertices a layer, rising linearly
    from lo on layer 0 to hi on layer nseg.  The end layers hold lo and hi
    themselves, so a glued interface compares them by identity."""
    layers = [lo + (hi - lo) * Fraction(j, nseg) for j in range(nseg + 1)]
    layers[0], layers[-1] = lo, hi
    return [x for x in layers for _ in range(nv)]


def _end_component(side: str, value: Fraction, label: int, prod, vmap,
                   layers) -> BoundaryComponent:
    """Boundary component on the given layers of a surface prism, outer
    layer first; vmap sends prism vertices to block vertices."""
    layer_ids = [[vmap[x] for x in prod.layer_vertices(j)] for j in layers]
    return BoundaryComponent(side, value, label, prod.mesh, layer_ids)


def cylinder_block(label: int, a1: Fraction, a2: Fraction,
                   refinement: int = 1, segments: int = CYL_SEGS) -> Block:
    """Product of the canonical surface with an interval; no singular
    values, both ends carry the same label."""
    a1, a2 = Fraction(a1), Fraction(a2)
    if not a1 < a2:
        raise BlockError("cylinder needs a1 < a2")
    mesh = canonical_mesh(label, refinement)
    prod = surface_prism(mesh, segments)
    values = _prism_values(mesh.nv, a1, a2, segments)
    ids = range(prod.complex.nv)
    mid = segments // 2
    bottom = _end_component("bottom", a1, label, prod, ids, range(mid + 1))
    top = _end_component("top", a2, label, prod, ids,
                         range(segments, mid - 1, -1))
    return Block(prod.complex, values, [], [bottom, top], refinement,
                 kind="cylinder")


def cap_block(label: int, extreme_value: Fraction, boundary_value: Fraction,
              refinement: int = 1) -> Block:
    """Solid filling of an even-chi surface, constant at the extreme value,
    with a collar cylinder out to the boundary value."""
    extreme_value, boundary_value = (Fraction(extreme_value),
                                     Fraction(boundary_value))
    if euler_char(label) % 2 != 0:
        raise BlockError(
            f"no compact 3-manifold bounds the odd-chi surface r={label}")
    if extreme_value == boundary_value:
        raise BlockError("cap needs distinct extreme and boundary values")
    solid = solid_for_label(label, refinement)
    (end,) = solid.ends
    mesh = end.mesh
    prod = surface_prism(mesh, CYL_SEGS)
    rising = boundary_value > extreme_value
    # collar layer 0 glues onto the solid boundary
    ident = [(0, end.bmap[v], 1, prod.vid(v, 0)) for v in range(mesh.nv)]
    cx, vmaps = merge_complexes([solid.cx, prod.complex], ident)
    values = glued_values(cx.nv, vmaps, [
        [extreme_value] * solid.cx.nv,
        _prism_values(mesh.nv, extreme_value, boundary_value, CYL_SEGS)])
    comp = _end_component("top" if rising else "bottom", boundary_value,
                          label, prod, vmaps[1], range(CYL_SEGS, -1, -1))
    return Block(cx, values, [extreme_value], [comp], refinement, kind="cap")


# ---------------------------------------------------------------------------
# junction cells
# ---------------------------------------------------------------------------

def _odd_pair_piece(label_a: int, label_b: int, refinement: int) -> Solid:
    """Thickened projective plane whose two ends absorb solid Klein
    bottles until they reach the requested odd-chi labels."""
    rp2 = canonical_mesh(-1, refinement)
    prod = surface_prism(rp2, 3)
    piece = Solid(prod.complex, [End(-1, rp2, prod.layer_vertices(0)),
                                 End(-1, rp2, prod.layer_vertices(3))])
    for i, want in enumerate((label_a, label_b)):
        if want != -1:
            kleins = [solid_for_label(-2, refinement)] * ((-1 - want) // 2)
            piece = boundary_connect_sum(piece, kleins, i)
    return piece


def _junction_cell(bottom_labels, top_labels, a1: Fraction, a: Fraction,
                   a2: Fraction, refinement: int, out) -> list:
    """Lay out an elementary junction cell, with one singular value a and
    boundary surfaces with the requested labels at a1 (bottom) and a2
    (top), for build_junction's one merge.  out holds the junction's
    parts, their values and identifications, the (part, tet) pairs the
    merge leaves out, and each end's (side, label, part, prism, layers).
    The cell adds its pieces, the bridge shells between them and one
    cylinder per end, and returns its first spare interior tets, sockets
    for joining cells, as (part, tet) pairs.

    Either side may be empty during intermediate planning; the final blocks
    of a plan always have both.
    """
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

    parts, values, ident, drop, ends = out
    base, n = len(parts), len(pieces)
    sockets, spares = [], []
    for i, (solid, _) in enumerate(pieces):
        need = 0 if n == 1 else 1 if i in (0, n - 1) else 2
        # the ends of a piece are its whole boundary
        interior = find_interior_tets(
            solid.cx, [v for e in solid.ends for v in e.bmap])
        if len(interior) < need:
            raise BlockError("piece lacks interior tets for bridging")
        sockets.append(interior[:need])
        # removing an interior tet puts all four of its faces on the
        # boundary, so the spares also miss the socket tets' vertices
        holes = {v for t in sockets[i] for v in solid.cx.tets[t]}
        spares += [(base + i, t) for t in interior[need:]
                   if holes.isdisjoint(solid.cx.tets[t])]
        drop += [(base + i, t) for t in sockets[i]]
    # the shell after the pieces joins the last socket of each to the
    # first of the next
    for i in range(n - 1):
        left = sorted(pieces[i][0].cx.tets[sockets[i][-1]])
        right = sorted(pieces[i + 1][0].cx.tets[sockets[i + 1][0]])
        for k in range(4):
            ident.append((base + i, left[k], base + n + i, k))
            ident.append((base + i + 1, right[k], base + n + i, 8 + k))
    parts += [solid.cx for solid, _ in pieces] + [_SHELL] * (n - 1)
    values += [[a] * p.nv for p in parts[base:]]

    # cylinders: one per end, glued along the inner layer
    cylinders = [None] * len(slots)
    for pi, (solid, piece_slots) in enumerate(pieces):
        for e, slot in zip(solid.ends, piece_slots):
            prod = surface_prism(e.mesh, CYL_SEGS)
            side, label = slots[slot]
            if side == "bottom":
                span, layers = (a1, a), range(CYL_SEGS + 1)
            else:
                span, layers = (a, a2), range(CYL_SEGS, -1, -1)
            for v in range(e.mesh.nv):
                ident.append((base + pi, e.bmap[v], len(parts),
                              prod.vid(v, layers[-1])))
            cylinders[slot] = (side, label, len(parts), prod, layers)
            parts.append(prod.complex)
            values.append(_prism_values(e.mesh.nv, *span, CYL_SEGS))
    ends += cylinders
    return spares[:8]


JUNCTION_KINDS = {
    "sphere_split": ((0,), (0, 0)),
    "sphere_pair_pass": ((0, 0), (0, 0)),
    "sphere_to_torus": ((0,), (1,)),
    "sphere_to_klein": ((0,), (-2,)),
    "projective_pass": ((-1,), (-1,)),
    "sphere_to_projective_pair": ((0,), (-1, -1)),
}


def elementary_junction(kind: str, a1, a, a2, refinement: int = 1) -> Block:
    """The named junction shapes."""
    if kind not in JUNCTION_KINDS:
        raise BlockError(f"unknown junction kind {kind!r}")
    bottom, top = map(list, JUNCTION_KINDS[kind])
    return build_junction(Plan([(bottom, top)], bottom, top), a1, a, a2,
                          refinement)


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

@dataclass
class Plan:
    """Junction cells, each a (bottom labels, top labels) pair, joined at
    the singular value by build_junction, with the target label
    multisets."""

    cells: list[tuple[list[int], list[int]]]
    bottom: list[int]
    top: list[int]


class PlanError(ValueError):
    pass


def evaluate_plan(plan: Plan) -> tuple[list[int], list[int]]:
    """The bottom and top label multisets the cells of a plan add up to."""
    return (sorted(l for b, _ in plan.cells for l in b),
            sorted(l for _, t in plan.cells for l in t))


def plan_junction(bottom, top) -> Plan:
    """Plan a junction realizing the two label multisets.

    A target of one of the JUNCTION_KINDS shapes, either way up, is one
    cell.  Otherwise odd-chi components are paired (across sides first),
    and every pair and every even-chi component becomes one cell.
    """
    bottom, top = sorted(bottom), sorted(top)
    if not bottom or not top:
        raise PlanError("both boundary multisets must be non-empty")
    total_odd = sum(1 for l in bottom + top if is_odd_chi(l))
    if total_odd % 2 != 0:
        raise PlanError(
            f"odd-chi component count {total_odd} is odd; the Euler "
            "characteristics of the two sides differ by an odd number")

    target = (tuple(bottom), tuple(top))
    if any(target in ((b, t), (t, b)) for b, t in JUNCTION_KINDS.values()):
        return Plan([(list(bottom), list(top))], list(bottom), list(top))

    dd = [l for l in bottom if is_odd_chi(l)]
    uu = [l for l in top if is_odd_chi(l)]
    ed = [l for l in bottom if not is_odd_chi(l)]
    eu = [l for l in top if not is_odd_chi(l)]
    cells: list[tuple[list[int], list[int]]] = []
    while dd and uu:
        cells.append(([dd.pop(0)], [uu.pop(0)]))
    while len(dd) >= 2:
        pair = [dd.pop(0), dd.pop(0)]
        cells.append((pair, [eu.pop(0)] if eu else []))
    while len(uu) >= 2:
        pair = [uu.pop(0), uu.pop(0)]
        cells.append(([ed.pop(0)] if ed else [], pair))
    while ed and eu:
        cells.append(([ed.pop(0)], [eu.pop(0)]))
    cells += [([l], []) for l in ed]
    cells += [([], [l]) for l in eu]
    plan = Plan(cells, list(bottom), list(top))
    got = evaluate_plan(plan)
    if got != (bottom, top):
        raise PlanError(f"planner arithmetic drifted: {got}")
    return plan


def build_junction(plan: Plan, a1, a, a2, refinement: int = 1) -> Block:
    """Lay out the cells of a plan and join them all at the singular value
    in one merge, which leaves every socket out.  Each next cell bridges
    its first spare tet to the oldest spare socket of the cells before it,
    which also gives up the socket after that one.  Vertices and tets are
    numbered as if each cell were merged on its own and the cells were
    then joined one at a time, in order: the shell that joins a cell to
    the cells before it follows the cell's parts and identifications."""
    a1, a, a2 = Fraction(a1), Fraction(a), Fraction(a2)
    got = evaluate_plan(plan)
    want = (sorted(plan.bottom), sorted(plan.top))
    if not plan.cells or got != want:
        raise BlockError(f"plan cells add up to {got}, plan promised {want}")
    out = parts, values, ident, drop, ends = [], [], [], [], []
    spare: list[tuple[int, int]] = []
    # home sends each corner a shell absorbed, as (part, vertex), to the
    # shell vertex it became
    home: dict[tuple[int, int], tuple[int, int]] = {}
    for k, (bottom, top) in enumerate(plan.cells):
        own = _junction_cell(bottom, top, a1, a, a2, refinement, out)
        if k:
            if not spare or not own:
                raise BlockError("no spare bridge material left")
            (i, t), (j, u) = spare[0], own[0]
            spare, own = spare[2:], own[2:]
            drop += [(i, t), (j, u)]
            left = sorted(((i, v) for v in parts[i].tets[t]),
                          key=lambda c: home.get(c, c))
            right = [(j, v) for v in sorted(parts[j].tets[u])]
            # the earlier side glues to the shell's layer 0, cell k to
            # layer 2
            for corner, sv in zip(left + right, (0, 1, 2, 3, 8, 9, 10, 11)):
                ident.append((*corner, len(parts), sv))
                home[corner] = (len(parts), sv)
            parts.append(_SHELL)
            values.append([a] * _SHELL.nv)
        spare += own
    cx, vmaps = merge_complexes(parts, ident, drop)
    boundary = [_end_component(side, a1 if side == "bottom" else a2, label,
                               prod, vmaps[part], layers)
                for side, label, part, prod, layers in ends]
    return Block(cx, glued_values(cx.nv, vmaps, values), [a], boundary,
                 refinement, kind="junction")


# ---------------------------------------------------------------------------
# folds
# ---------------------------------------------------------------------------

def fold_block(j: Block, vertex_value, direction: str,
               leaf_values) -> Block:
    """Remap the function of a junction monotonically on each side so the
    singular level becomes an extremum at vertex_value and every boundary
    component lands at its leaf value.  The mesh is untouched."""
    vertex_value = Fraction(vertex_value)
    leaf_values = [Fraction(v) for v in leaf_values]
    if len(leaf_values) != len(j.boundary):
        raise BlockError(
            f"{len(leaf_values)} leaf values for {len(j.boundary)} "
            "boundary components")
    if direction not in ("min", "max"):
        raise BlockError("direction must be 'min' or 'max'")
    for lv in leaf_values:
        if direction == "min" and lv <= vertex_value:
            raise BlockError(f"leaf value {lv} not above the minimum")
        if direction == "max" and lv >= vertex_value:
            raise BlockError(f"leaf value {lv} not below the maximum")
    if j.singular_values:
        center = j.singular_values[0]
    else:
        center = j.values[j.boundary[0].layer_ids[-1][0]]
    values = [vertex_value] * j.cx.nv
    boundary = []
    for comp, leaf in zip(j.boundary, leaf_values):
        outer = comp.value
        if outer == center:
            raise BlockError("cannot fold a component at the singular level")
        for layer in comp.layer_ids:
            t_old = j.values[layer[0]]
            t_new = vertex_value + (leaf - vertex_value) * \
                (t_old - center) / (outer - center)
            for v in layer:
                values[v] = t_new
        side = "top" if direction == "min" else "bottom"
        boundary.append(BoundaryComponent(side, leaf, comp.label, comp.mesh,
                                          comp.layer_ids))
    return Block(j.cx, values, [vertex_value], boundary, j.refinement,
                 kind="fold")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def block_to_dict(b: Block) -> dict:
    """Mesh, function values, and contract."""
    c = b.contract
    if isinstance(c, EdgeContract):
        contract = {"kind": "edge", "lo": format_rational(c.lo),
                    "hi": format_rational(c.hi), "label": c.label}
    else:
        contract = {"kind": "star", "center": format_rational(c.center),
                    "leaves": [[format_rational(v), l]
                               for v, l in c.leaves]}
    return {
        "vertices": b.cx.nv,
        "tetrahedra": [list(t) for t in b.cx.tets],
        "values": [format_rational(v) for v in b.values],
        "interval": [format_rational(b.a1), format_rational(b.a2)],
        "singular_values": [format_rational(v) for v in b.singular_values],
        "boundary": [{"side": c.side, "value": format_rational(c.value),
                      "label": c.label, "cmap": list(c.cmap),
                      "layers": [list(l) for l in c.layer_ids],
                      "mesh": {"vertices": c.mesh.nv,
                               "triangles": [list(t)
                                             for t in c.mesh.triangles]}}
                     for c in b.boundary],
        "contract": contract,
        "refinement": b.refinement,
        "kind": b.kind,
    }


def block_to_json(b: Block) -> str:
    return json.dumps(block_to_dict(b))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    """Named pass/fail checks of a block or an assembled manifold, and the
    Reeb graph a block check extracted."""

    checks: list[tuple[str, bool, str]]
    reeb: ReebGraph | None = None

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def summary(self) -> str:
        return "\n".join(f"  [{'pass' if ok else 'FAIL'}] {name}: {msg}"
                         for name, ok, msg in self.checks)


def verify_block(b: Block) -> CheckReport:
    """Re-derive everything the contract promises: manifold validity,
    boundary classification, function image, and the extracted Reeb shape
    with nodes pinned at the declared singular values."""
    census = manifold_census(b.cx)
    if census.fault:
        return CheckReport([("manifold", False, census.fault)])
    checks = [("manifold", True, f"{len(b.cx.tets)} tets")]

    lo, hi = min(b.values), max(b.values)
    ok = (lo, hi) == (b.a1, b.a2)
    checks.append(("image", ok, f"[{lo}, {hi}] vs [{b.a1}, {b.a2}]"))

    mesh, used = census.surface()
    try:
        comps = classify_surface(mesh)
        got = sorted((b.values[used[mesh.triangles[c.triangles[0]][0]]],
                      c.label) for c in comps)
        want = sorted((c.value, c.label) for c in b.boundary)
        const = all(len({b.values[used[v]] for v in c.vertices}) == 1
                    for c in comps)
        ok = got == want and const
        checks.append(("boundary", ok, f"{got} vs declared {want}"))
    except MeshError as exc:
        checks.append(("boundary", False, str(exc)))

    reeb = reeb_graph_of(b.cx.tets, b.values, pin_values=b.singular_values)
    got_nodes = sorted(n.value for n in reeb.nodes)
    got_edges = sorted((min(reeb.nodes[e.a].value, reeb.nodes[e.b].value),
                        max(reeb.nodes[e.a].value, reeb.nodes[e.b].value),
                        e.label) for e in reeb.edges)
    contract = b.contract
    if isinstance(contract, EdgeContract):
        want_nodes = sorted([contract.lo, contract.hi])
        want_edges = [(contract.lo, contract.hi, contract.label)]
    else:
        c = contract.center
        want_nodes = sorted([c] + [v for v, _ in contract.leaves])
        want_edges = sorted((min(c, v), max(c, v), l)
                            for v, l in contract.leaves)
    ok = got_nodes == want_nodes and got_edges == want_edges
    checks.append(("reeb", ok,
                   f"nodes {list(map(str, got_nodes))} edges {got_edges}"))

    leaf_values = {c.value for c in b.boundary}
    interior = sorted({n.value for n in reeb.nodes} - leaf_values)
    ok = interior == sorted(set(b.singular_values))
    checks.append(("singular-values", ok,
                   f"{list(map(str, interior))} vs declared "
                   f"{list(map(str, b.singular_values))}"))
    return CheckReport(checks, reeb)
