"""Spans timed from outside the program.

The tracer replaces public functions of reebforge at the module attribute
the calling module looks them up by (so `reebforge.assembly.boundary_faces`
and `reebforge.complexes.boundary_faces` are different call sites), records
one span per call in memory, and restores the originals on `uninstall`.
Nothing under src/ knows about it, and untraced runs never install it.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict

from reebforge import assembly, blocks, complexes, reeb


def _tets(args, kwargs, result):
    return {"tets": len(result.cx.tets)}


def _sweep(args, kwargs, result):
    return {"tets": len(args[0]), "layers": len(set(args[1]))}


def _slice(args, kwargs, result):
    return {"tris": len(args[0].triangles)}


# (module, attribute, counter of the call's work)
SITES = [(assembly, name, None) for name in (
    "assemble", "validate_manifold", "extract_reeb", "labeled_isomorphic",
    "boundary_faces", "validate_complex", "euler_characteristic",
    "merge_complexes", "common_refinement", "fold_block")]
SITES += [(assembly, "reeb_graph_of", _sweep)]
SITES += [(assembly, name, _tets)
          for name in ("build_junction", "cap_block", "cylinder_block")]
SITES += [(complexes, "face_map", None),
          (blocks, "canonical_mesh", None),
          (blocks, "solid_for_label", None),
          (reeb, "classify_surface", _slice)]


class Tracer:
    """Spans are lists [name, start, end, parent index, unit, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.unit: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module, attr, counter in SITES:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            setattr(module, attr, self._wrap(name, fn, counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.unit,
                    None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result
        return traced


def layer_metrics(spans: list[list], unit_seconds: float) -> dict:
    """Per-layer totals over the given spans.  A span's self time is its
    duration minus that of its direct children; `unit_seconds` is the
    summed unit time they were recorded in."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    dur: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    work: dict[tuple[str, str], int] = defaultdict(int)
    extract = roots = 0.0
    for i, s in enumerate(spans):
        name, d = s[0], s[2] - s[1]
        dur[name] += d
        self_s[name] += d - child[i]
        calls[name] += 1
        for k, v in (s[5] or {}).items():
            work[name, k] += v
        if s[3] < 0:
            roots += d
        if name == "assembly.extract_reeb" or (
                name == "assembly.reeb_graph_of" and
                (s[3] < 0 or spans[s[3]][0] != "assembly.extract_reeb")):
            extract += d
    sweep_tets = work["assembly.reeb_graph_of", "tets"]
    tris = work["reeb.classify_surface", "tris"]
    block_sites = ("assembly.build_junction", "assembly.cap_block",
                   "assembly.fold_block", "assembly.cylinder_block")
    canon_sites = ("blocks.canonical_mesh", "blocks.solid_for_label")
    sweep_s = self_s["assembly.reeb_graph_of"]
    classify_s = dur["reeb.classify_surface"]
    return {
        "reeb.extract_s": (extract, "s"),
        "reeb.sweep_s": (sweep_s, "s"),
        "reeb.sweep_us_per_tet": (
            1e6 * sweep_s / sweep_tets if sweep_tets else 0.0, "us/tet"),
        "reeb.layers": (work["assembly.reeb_graph_of", "layers"], "count"),
        "reeb.iso_s": (dur["assembly.labeled_isomorphic"], "s"),
        "surfaces.classify_calls": (calls["reeb.classify_surface"], "count"),
        "surfaces.slice_tris": (tris, "count"),
        "surfaces.classify_s": (classify_s, "s"),
        "surfaces.classify_us_per_tri": (
            1e6 * classify_s / tris if tris else 0.0, "us/tri"),
        "complexes.face_map_calls": (calls["complexes.face_map"], "count"),
        "complexes.face_map_s": (dur["complexes.face_map"], "s"),
        "complexes.validate_s": (dur["assembly.validate_complex"], "s"),
        "complexes.euler_s": (dur["assembly.euler_characteristic"], "s"),
        "complexes.merge_s": (dur["assembly.merge_complexes"], "s"),
        "assembly.assemble_s": (dur["assembly.assemble"], "s"),
        "assembly.validate_s": (dur["assembly.validate_manifold"], "s"),
        "assembly.validate_self_s": (self_s["assembly.validate_manifold"],
                                     "s"),
        "anchors.refine_calls": (calls["assembly.common_refinement"],
                                 "count"),
        "anchors.refine_s": (dur["assembly.common_refinement"], "s"),
        "blocks.s": (sum(dur[n] for n in block_sites), "s"),
        "blocks.tets": (sum(work[n, "tets"] for n in block_sites), "count"),
        "canonical.calls": (sum(calls[n] for n in canon_sites), "count"),
        "canonical.s": (sum(dur[n] for n in canon_sites), "s"),
        "bench.unaccounted_s": (unit_seconds - roots, "s"),
    }


def work_counts(spans: list[list]) -> dict[str, dict[str, int]]:
    """Per unit: calls of every site and the work its counter recorded.
    These repeat exactly between traced passes of the same units."""
    out: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for s in spans:
        counts = out[s[4]]
        counts[s[0]] += 1
        for k, v in (s[5] or {}).items():
            counts[f"{s[0]}.{k}"] += v
    return {unit: dict(c) for unit, c in out.items()}
