"""Command-line interface.

Exit codes are a stable contract: 0 success, 1 domain rejection, 2 input
error, 3 verification failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .assembly import (assemble, extract_reeb, manifold_from_dict,
                       manifold_to_json, validate_manifold,
                       verify_realization, AssemblyError)
from .blocks import BlockError
from .canonical import canonical_mesh, mesh_budget_error
from .graphs import (LabeledGraph, check_realizable, graph_to_dot,
                     parse_graph, serialize_graph)
from .surfaces import (MeshError, classify_surface, mesh_from_dict,
                       mesh_to_json, mesh_to_off)

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_INPUT = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 4


class _InputError(Exception):
    """A path, document or flag the command cannot use: main reports it
    as one input error line."""


def _load_graph(path: str) -> LabeledGraph:
    try:
        return parse_graph(Path(path).read_text())
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # GraphError, and UnicodeDecodeError from a file that is not UTF-8
        raise _InputError(exc) from exc


def _load_document(path: str, parse):
    """parse applied to the JSON document at path.  RecursionError is
    JSON nested past the decoder's depth."""
    try:
        return parse(json.loads(Path(path).read_text()))
    except (OSError, ValueError, KeyError, RecursionError) as exc:
        raise _InputError(exc) from exc


def _write(path: str | None, text: str):
    if path:
        try:
            Path(path).write_text(text)
        except OSError as exc:
            raise _InputError(f"cannot write {path}: {exc.strerror}") \
                from exc
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _check_mesh_budget(labels, refinement: int):
    """Refuse, before any mesh is built, a label whose canonical mesh has
    more triangles than canonical.MAX_MESH_TRIANGLES."""
    for label in labels:
        error = mesh_budget_error(label, refinement)
        if error:
            raise _InputError(error)


def _rejected(g: LabeledGraph, refinement: int) -> bool:
    """Refuse g past the mesh budget, then check its parity: True, with
    the report on stderr, when g fails it."""
    _check_mesh_budget({e.label for e in g.edges}, refinement)
    report = check_realizable(g)
    if not report.ok:
        print(report.summary(), file=sys.stderr)
    return not report.ok


def cmd_check(args) -> int:
    report = check_realizable(_load_graph(args.input))
    print(report.summary())
    return EXIT_OK if report.ok else EXIT_REJECTED


def cmd_build(args) -> int:
    g = _load_graph(args.input)
    if _rejected(g, args.refinement):
        return EXIT_REJECTED
    try:
        m = assemble(g, refinement=args.refinement)
    except (AssemblyError, BlockError) as exc:
        print(f"assembly failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    _write(args.out, manifold_to_json(m))
    print(m.summary())
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _load_graph(args.input)
    edge = args.debug_mislabel_edge
    if edge is not None and not 0 <= edge < len(g.edges):
        raise _InputError(f"--debug-mislabel-edge {edge} is not an edge "
                          f"index in 0..{len(g.edges) - 1}")
    if _rejected(g, args.refinement):
        return EXIT_REJECTED
    res = verify_realization(g, refinement=args.refinement,
                             mislabel_edge=args.debug_mislabel_edge)
    if args.verbose and res.manifold is not None:
        print(res.manifold.summary())
    if not res.ok:
        print(f"verification failed: {res.detail}", file=sys.stderr)
        print(graph_to_dot(g, "input"))
        if res.reeb is not None:
            print(res.reeb.to_dot("extracted"))
        return EXIT_VERIFY
    print(res.detail)
    if args.dot and res.reeb is not None:
        print(res.reeb.to_dot("extracted"))
    return EXIT_OK


def cmd_extract(args) -> int:
    m = _load_document(args.input, manifold_from_dict)
    rep = validate_manifold(m)
    if not rep.ok:
        print(rep.summary(), file=sys.stderr)
        return EXIT_VERIFY
    reeb = extract_reeb(m)
    if not reeb.edges:
        print("function is constant: its Reeb graph is a single point",
              file=sys.stderr)
        return EXIT_REJECTED
    _write(args.out, reeb.to_dot() if args.dot else reeb.to_json())
    return EXIT_OK


def cmd_surface_gen(args) -> int:
    given = {args.refinement, args.refinement_arg} - {None}
    if len(given) > 1:
        raise _InputError(f"refinement {args.refinement_arg} disagrees "
                          f"with --refinement {args.refinement}")
    refinement = given.pop() if given else 1
    _check_mesh_budget((args.label,), refinement)
    mesh = canonical_mesh(args.label, refinement)
    _write(args.out, mesh_to_off(mesh) if args.off else mesh_to_json(mesh))
    return EXIT_OK


def cmd_surface_classify(args) -> int:
    mesh = _load_document(args.input, mesh_from_dict)
    try:
        comps = classify_surface(mesh)
    except MeshError as exc:
        print(f"invalid mesh: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    for i, c in enumerate(comps):
        print(f"component {i}: r={c.label} (chi={c.chi}, "
              f"{'orientable' if c.orientable else 'non-orientable'})")
    return EXIT_OK


def cmd_corpus(args) -> int:
    from .corpus import MAX_CORPUS_COUNT, realizable_corpus, violating_corpus
    if args.count > MAX_CORPUS_COUNT:
        raise _InputError(f"--count {args.count} is over the corpus cap of "
                          f"{MAX_CORPUS_COUNT:,}")
    outdir = Path(args.out or "corpus")
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _InputError(f"cannot write {outdir}: {exc.strerror}") \
            from exc
    good = realizable_corpus(args.seed, args.count)
    bad = violating_corpus(args.seed + 1, args.count)
    for kind, graphs in (("ok", good), ("reject", bad)):
        for i, g in enumerate(graphs):
            _write(str(outdir / f"{kind}_{i:03d}.json"), serialize_graph(g))
    print(f"wrote {len(good)} realizable and {len(bad)} rejection graphs "
          f"to {outdir}")
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError(
            "must be an unsigned 64-bit integer")
    return value


def _label(text: str) -> int:
    value = int(text)
    if abs(value) > sys.maxsize:
        raise argparse.ArgumentTypeError(
            f"must be at most {sys.maxsize} in absolute value")
    return value


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="reebforge",
        description="Realize labeled graphs as Reeb graphs of PL functions "
                    "on triangulated 3-manifolds, and verify the result.")
    sub = p.add_subparsers(dest="command", required=True)

    def refinement(sp, default=1):
        sp.add_argument("--refinement", type=_positive_int, default=default,
                        help="mesh refinement level (default 1)")

    def dot(sp):
        sp.add_argument("--dot", action="store_true",
                        help="emit DOT instead of / in addition to JSON")

    def out(sp):
        sp.add_argument("--out", default=None, help="output path")

    sp = sub.add_parser("check", help="run the realizability checker")
    sp.add_argument("input")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("build", help="assemble the manifold JSON")
    sp.add_argument("input")
    refinement(sp)
    out(sp)
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("verify",
                        help="build, extract, and compare in one pass")
    sp.add_argument("input")
    sp.add_argument("--debug-mislabel-edge", type=int, default=None,
                    help=argparse.SUPPRESS)
    refinement(sp)
    dot(sp)
    sp.add_argument("-v", "--verbose", action="count", default=0)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("extract", help="Reeb graph of a manifold JSON")
    sp.add_argument("input")
    dot(sp)
    out(sp)
    sp.set_defaults(func=cmd_extract)

    sp = sub.add_parser("surface", help="surface utilities")
    ssub = sp.add_subparsers(dest="surface_command", required=True)
    spg = ssub.add_parser("gen", help="generate a canonical surface mesh")
    spg.add_argument("label", type=_label)
    spg.add_argument("refinement_arg", metavar="refinement",
                     type=_positive_int, nargs="?", default=None,
                     help="same as --refinement")
    spg.add_argument("--off", action="store_true", help="write OFF format")
    refinement(spg, default=None)
    out(spg)
    spg.set_defaults(func=cmd_surface_gen)
    spc = ssub.add_parser("classify", help="classify a mesh JSON")
    spc.add_argument("input")
    spc.set_defaults(func=cmd_surface_classify)

    sp = sub.add_parser("corpus", help="write seeded demo graph corpora")
    sp.add_argument("--count", type=_positive_int, default=10)
    sp.add_argument("--seed", type=_seed, default=0)
    out(sp)
    sp.set_defaults(func=cmd_corpus)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except _InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # a fault of the program, not of the input: one line, no traceback
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
