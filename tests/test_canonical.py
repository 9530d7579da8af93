import hashlib
import time

import pytest
from hypothesis import given, settings, strategies as st

from reebforge import canonical
from reebforge.blocks import _odd_pair_piece
from reebforge.canonical import (MAX_MESH_TRIANGLES, End, Solid,
                                 boundary_connect_sum, canonical_mesh,
                                 mesh_budget_error, mesh_triangles,
                                 solid_for_label)
from reebforge.complexes import (find_interior_tets, manifold_census,
                                 merge_complexes, surface_prism,
                                 validate_complex)
from reebforge.graphs import euler_char
from reebforge.surfaces import (MeshError, SurfaceMesh, classify_labels,
                                classify_surface, connected_sum_label,
                                connected_sum_meshes)


@pytest.mark.parametrize("r", list(range(-6, 7)))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_generate_classify_round_trip(r, k):
    mesh = canonical_mesh(r, k)
    comps = classify_surface(mesh)
    assert len(comps) == 1
    assert comps[0].label == r
    assert comps[0].chi == euler_char(r)


def test_canonical_meshes_are_pinned():
    """Vertex counts, triangle lists and spares of every canonical mesh
    for |r| <= 8 at refinements 1-3, byte for byte."""
    h = hashlib.sha256()
    for k in (1, 2, 3):
        for r in range(-8, 9):
            m = canonical_mesh(r, k)
            h.update(repr((r, k, m.nv, m.triangles, m.spares)).encode())
    assert h.hexdigest() == ("1cd8e6ea66e094cb25d96a87f96b678a"
                             "f3c8241538ded0409cb0da1e86e98d96")


def test_solids_are_pinned():
    """Complexes and ends of every even-chi solid for |r| <= 8 at
    refinements 1-2, byte for byte."""
    h = hashlib.sha256()
    for k in (1, 2):
        for r in range(-8, 9):
            if euler_char(r) % 2 == 0:
                s = solid_for_label(r, k)
                h.update(repr((r, k, s.cx.nv, s.cx.tets,
                               [(e.label, e.mesh.triangles, e.bmap)
                                for e in s.ends])).encode())
    assert h.hexdigest() == ("b14cca09a4024bcf066dac449c656f92"
                             "97561b0a8a274dbac0771edcd3c5e590")


@pytest.mark.parametrize("r", list(range(-6, 7)))
def test_generated_spare_disks(r):
    mesh = canonical_mesh(r, 1)
    assert len(mesh.spares) >= 2
    seen = set()
    for s in mesh.spares:
        tri = mesh.triangles[s]
        assert not seen.intersection(tri)
        seen.update(tri)


def test_orientation_propagation_conflicts():
    for r in range(-6, 7):
        comp = classify_surface(canonical_mesh(r, 1))[0]
        assert comp.orientable == (r >= 0)


def test_klein_mesh_example():
    mesh = canonical_mesh(-2, 1)
    comp = classify_surface(mesh)[0]
    assert comp.chi == 0 and not comp.orientable


def test_projective_plane_example():
    mesh = canonical_mesh(-1, 1)
    comp = classify_surface(mesh)[0]
    assert comp.chi == 1 and not comp.orientable


@pytest.mark.parametrize("label", [0, 1, -2, 2, 3, -4])
def test_solids_are_manifolds_with_matching_boundary(label):
    s = solid_for_label(label, 1)
    validate_complex(s.cx)
    bmesh, used = manifold_census(s.cx).surface()
    assert classify_labels(bmesh) == [label]
    have = sorted(tuple(sorted(used[v] for v in t)) for t in bmesh.triangles)
    (end,) = s.ends
    want = sorted(tuple(sorted(end.bmap[v] for v in t))
                  for t in end.mesh.triangles)
    assert have == want


def test_solids_reject_odd_chi():
    with pytest.raises(MeshError, match="odd-chi"):
        solid_for_label(-1, 1)
    with pytest.raises(MeshError, match="odd-chi"):
        solid_for_label(-3, 1)


@pytest.mark.parametrize("label", [1, -2],
                         ids=["torus_solid", "klein_solid"])
def test_product_solids_have_interior_tets(label):
    s = solid_for_label(label, 1)
    assert len(find_interior_tets(s.cx, s.ends[0].bmap)) >= 2


def test_boundary_sum_of_solids_tracks_canonical():
    s = solid_for_label(-4, 1)
    want = canonical_mesh(-4, 1)
    assert sorted(map(sorted, s.ends[0].mesh.triangles)) == \
        sorted(map(sorted, want.triangles))


def test_canonical_meshes_are_valid_complexes():
    for r in range(-6, 7):
        classify_surface(canonical_mesh(r, 1))


@pytest.mark.parametrize("r", [2, -4, 8])
def test_composite_solids_share_the_canonical_mesh(r):
    # caps and junction cylinders over a composite solid carry the one
    # cached mesh, not an equal copy built by the boundary sums
    assert solid_for_label(r, 3).ends[0].mesh is canonical_mesh(r, 3)


@pytest.mark.parametrize("r", [*range(-9, 10), 17, -23])
@pytest.mark.parametrize("k", [1, 2])
def test_triangle_count_by_arithmetic(r, k):
    assert mesh_triangles(r, k) == len(canonical_mesh(r, k).triangles)


def test_mesh_budget_edges():
    # at refinement 1 the grid summands have 72 triangles, less 2 a sum
    assert MAX_MESH_TRIANGLES == 200_000
    assert mesh_triangles(2857, 1) == 199_992
    for label in (2857, -5713, 0):
        assert mesh_budget_error(label, 1) is None
    assert mesh_budget_error(2858, 1) == (
        "surface r=2858 at refinement 1 needs 200,062 triangles, over the "
        "mesh budget of 200,000")
    assert "needs 19,342,813,113,834,066,795,298,816 " in \
        mesh_budget_error(0, 40)
    # past refinement 64 the size at 64 bounds the count from below
    assert "needs more than 5,444,517,870,735,015,415,413,993,718,908," \
        "291,383,296 triangles" in mesh_budget_error(0, 10 ** 18)
    assert mesh_budget_error(0, 6) is None
    assert mesh_budget_error(0, 7) is not None


# ---------------------------------------------------------------------------
# reference connected sums: the pairwise functions that the one-pass
# connected_sum_meshes and list-taking boundary_connect_sum replaced, kept
# verbatim; folded left to right they are the contract
# ---------------------------------------------------------------------------

def connected_sum_mesh_maps(m1: SurfaceMesh, d1: int, m2: SurfaceMesh,
                            d2: int):
    """Connected sum plus the vertex maps of both summands into the result.

    Removes the spare disk triangles d1 and d2 and identifies their
    boundary 3-cycles (sorted-order correspondence).
    """
    t1 = m1.triangles[d1]
    t2 = m2.triangles[d2]
    off = m1.nv
    remap2 = list(range(off, off + m2.nv))
    for a, b in zip(sorted(t1), sorted(t2)):
        remap2[b] = a
    triangles = [t for i, t in enumerate(m1.triangles) if i != d1]
    for i, (a, b, c) in enumerate(m2.triangles):
        if i == d2:
            continue
        triangles.append((remap2[a], remap2[b], remap2[c]))
    # compact the vertex ids
    used = sorted({v for tri in triangles for v in tri})
    pos = {v: i for i, v in enumerate(used)}
    triangles = [(pos[a], pos[b], pos[c]) for a, b, c in triangles]
    map1 = [pos[v] for v in range(m1.nv)]
    map2 = [pos[remap2[v]] for v in range(m2.nv)]
    # a triangle's index drops by one past the removed spare; the second
    # mesh's triangles follow the first's
    base2 = len(m1.triangles) - 1
    spares = ([s - (s > d1) for s in m1.spares if s != d1] +
              [base2 + s - (s > d2) for s in m2.spares if s != d2])
    return SurfaceMesh(len(used), triangles, spares), map1, map2


def boundary_connect_sum_reference(a: Solid, b: Solid, i: int) -> Solid:
    """Glue the one-ended solid b onto end i of a along one spare boundary
    triangle each; that end undergoes the matching surface connected sum
    and the other ends of a carry over."""
    end, (other,) = a.ends[i], b.ends
    sa, sb = end.mesh.spares[0], other.mesh.spares[0]
    ta, tb = end.mesh.triangles[sa], other.mesh.triangles[sb]
    surf, map_a, map_b = connected_sum_mesh_maps(end.mesh, sa,
                                                 other.mesh, sb)
    ident = [(0, end.bmap[x], 1, other.bmap[y])
             for x, y in zip(sorted(ta), sorted(tb))]
    cx, (va, vb) = merge_complexes([a.cx, b.cx], ident)
    bmap = [0] * surf.nv
    for v in range(end.mesh.nv):
        bmap[map_a[v]] = va[end.bmap[v]]
    for v in range(other.mesh.nv):
        bmap[map_b[v]] = vb[other.bmap[v]]
    ends = [End(e.label, e.mesh, [va[x] for x in e.bmap]) for e in a.ends]
    ends[i] = End(connected_sum_label(end.label, other.label), surf, bmap)
    return Solid(cx, ends)


def fold_meshes(meshes):
    """The pairwise fold, with each summand's vertex map composed."""
    mesh = meshes[0]
    maps = [list(range(mesh.nv))]
    for nxt in meshes[1:]:
        mesh, map1, map2 = connected_sum_mesh_maps(mesh, mesh.spares[0],
                                                   nxt, nxt.spares[0])
        maps = [[map1[v] for v in vmap] for vmap in maps] + [map2]
    return mesh, maps


def solid_key(s: Solid):
    return (s.cx.nv, s.cx.tets, [(e.label, e.mesh.nv, e.mesh.triangles,
                                  e.mesh.spares, e.bmap) for e in s.ends])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([0, 1, -1, -2]), min_size=1, max_size=12))
def test_one_pass_mesh_sum_matches_the_fold(labels):
    meshes = [canonical_mesh(r, 1) for r in labels]
    got, got_maps = connected_sum_meshes(meshes)
    want, want_maps = fold_meshes(meshes)
    assert (got.nv, got.triangles, got.spares) == \
        (want.nv, want.triangles, want.spares)
    assert got_maps == want_maps


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from([0, 1, -2]), min_size=1, max_size=12))
def test_one_merge_solid_sum_matches_the_fold(labels):
    first, *rest = [solid_for_label(r, 1) for r in labels]
    want = first
    for b in rest:
        want = boundary_connect_sum_reference(want, b, 0)
    assert solid_key(boundary_connect_sum(first, rest, 0)) == \
        solid_key(want)


@pytest.mark.parametrize("na", range(4))
@pytest.mark.parametrize("nb", range(4))
def test_projective_piece_matches_the_fold(na, nb):
    # the two-ended piece of a junction's odd-chi pair, built as the old
    # loop did: one solid Klein bottle at a time onto each end
    rp2 = canonical_mesh(-1, 1)
    prod = surface_prism(rp2, 3)
    want = Solid(prod.complex, [End(-1, rp2, prod.layer_vertices(0)),
                                End(-1, rp2, prod.layer_vertices(3))])
    for i, count in enumerate((na, nb)):
        for _ in range(count):
            want = boundary_connect_sum_reference(
                want, solid_for_label(-2, 1), i)
    got = _odd_pair_piece(-1 - 2 * na, -1 - 2 * nb, 1)
    assert [e.label for e in got.ends] == [-1 - 2 * na, -1 - 2 * nb]
    assert solid_key(got) == solid_key(want)


def test_a_long_sum_is_built_in_one_pass():
    # the pairwise fold copied the mesh so far at each of 399 sums (about
    # 3 s); the key is evicted so the mesh is built cold
    key = (400, 1)
    canonical._MESH_CACHE.pop(key, None)
    try:
        t0 = time.perf_counter()
        mesh = canonical_mesh(*key)
        assert time.perf_counter() - t0 < 1.5
        assert len(mesh.triangles) == mesh_triangles(*key)
    finally:
        canonical._MESH_CACHE.pop(key, None)


def test_a_long_solid_sum_is_one_merge():
    # 199 pairwise merges took about 3 s with every summand cached
    key = (200, 1)
    solid_for_label(1, 1)
    canonical_mesh(*key)
    canonical._SOLID_CACHE.pop(key, None)
    try:
        t0 = time.perf_counter()
        s = solid_for_label(*key)
        assert time.perf_counter() - t0 < 1
        assert s.ends[0].mesh is canonical_mesh(*key)
    finally:
        canonical._SOLID_CACHE.pop(key, None)
        canonical._MESH_CACHE.pop(key, None)
