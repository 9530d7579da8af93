import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reebforge
from reebforge import cli
from reebforge.cli import main

MINIMAL = {"vertices": [{"id": "a", "value": "0/1"},
                        {"id": "b", "value": "1/1"}],
           "edges": [{"u": "a", "v": "b", "r": 0}]}

THETA = {"vertices": [{"id": "a", "value": "0/1"},
                      {"id": "b", "value": "1/1"}],
         "edges": [{"u": "a", "v": "b", "r": -1},
                   {"u": "a", "v": "b", "r": -1}]}

ODD_LEAF = {"vertices": [{"id": "a", "value": "0/1"},
                         {"id": "b", "value": "1/1"}],
            "edges": [{"u": "a", "v": "b", "r": -1}]}


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_check_accepts_theta(tmp_path):
    assert main(["check", write(tmp_path, "g.json", THETA)]) == 0


def test_check_rejects_odd_leaf(tmp_path, capsys):
    rc = main(["check", write(tmp_path, "g.json", ODD_LEAF)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "a" in out and "FAIL" in out


def test_check_malformed_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{oops")
    assert main(["check", str(p)]) == 2


def test_build_writes_manifold(tmp_path, capsys):
    out = tmp_path / "m.json"
    rc = main(["build", write(tmp_path, "g.json", MINIMAL),
               "--out", str(out)])
    assert rc == 0
    assert "tetrahedra" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert len(doc["tetrahedra"]) < 10_000


def test_build_rejected_graph_writes_nothing(tmp_path):
    out = tmp_path / "m.json"
    rc = main(["build", write(tmp_path, "g.json", ODD_LEAF),
               "--out", str(out)])
    assert rc == 1
    assert not out.exists()


def test_verify_round_trip(tmp_path):
    assert main(["verify", write(tmp_path, "g.json", MINIMAL)]) == 0


def test_verify_mislabel_hook(tmp_path, capsys):
    rc = main(["verify", write(tmp_path, "g.json", MINIMAL),
               "--debug-mislabel-edge", "0"])
    assert rc == 3
    assert "failed" in capsys.readouterr().err


def test_extract_from_built_manifold(tmp_path, capsys):
    mpath = tmp_path / "m.json"
    main(["build", write(tmp_path, "g.json", THETA), "--out", str(mpath)])
    gpath = tmp_path / "r.json"
    rc = main(["extract", str(mpath), "--out", str(gpath)])
    assert rc == 0
    doc = json.loads(gpath.read_text())
    assert len(doc["vertices"]) == 2
    assert sorted(e["r"] for e in doc["edges"]) == [-1, -1]


def test_extract_dot(tmp_path, capsys):
    mpath = tmp_path / "m.json"
    main(["build", write(tmp_path, "g.json", MINIMAL), "--out", str(mpath)])
    rc = main(["extract", str(mpath), "--dot"])
    assert rc == 0
    assert "graph R {" in capsys.readouterr().out


def test_surface_gen_and_classify(tmp_path, capsys):
    mesh = tmp_path / "klein.json"
    assert main(["surface", "gen", "-2", "1", "--out", str(mesh)]) == 0
    rc = main(["surface", "classify", str(mesh)])
    assert rc == 0
    assert "r=-2" in capsys.readouterr().out


def test_surface_gen_off(tmp_path):
    mesh = tmp_path / "s.off"
    assert main(["surface", "gen", "3", "2", "--off",
                 "--out", str(mesh)]) == 0
    assert mesh.read_text().startswith("OFF")


def test_surface_classify_rejects_nonmanifold(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "vertices": [0, 1, 2, 3, 4],
        "triangles": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3],
                      [0, 1, 4]],
    }))
    rc = main(["surface", "classify", str(bad)])
    assert rc == 1
    assert "3 triangles" in capsys.readouterr().err


def test_corpus_writes_files(tmp_path):
    out = tmp_path / "corpus"
    rc = main(["corpus", "--count", "3", "--seed", "7", "--out", str(out)])
    assert rc == 0
    assert len(list(out.glob("ok_*.json"))) == 3
    assert len(list(out.glob("reject_*.json"))) == 3


def test_refinement_zero_is_an_input_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", write(tmp_path, "g.json", MINIMAL),
              "--refinement", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--refinement: must be >= 1, got 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["check", "g.json", "--seed", "5"],
    ["check", "g.json", "--refinement", "2"],
    ["build", "g.json", "--dot"],
    ["build", "g.json", "--seed", "5"],
    ["extract", "m.json", "--refinement", "2"],
    ["surface", "classify", "m.json", "--refinement", "2"],
    ["corpus", "--dot"],
    ["corpus", "--refinement", "2"],
    ["corpus", "--seed", "-1"],
])
def test_flags_only_on_the_commands_that_use_them(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def run_argv(argv, cwd=None):
    """Run the CLI in a fresh interpreter."""
    src = str(Path(reebforge.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "reebforge.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60, cwd=cwd)


def run_cli(tmp_path, argv, doc):
    """Run the CLI in a fresh interpreter on one JSON document."""
    return run_argv([*argv, write(tmp_path, "in.json", doc)])


ONE_TET = {"vertices": 4, "tetrahedra": [[0, 1, 2, 3]],
           "values": ["0/1", "1/1", "2/1", "3/1"]}
TETRA_BOUNDARY = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]


@pytest.mark.parametrize("argv,doc", [
    (["extract"], dict(ONE_TET, values=["0/1"])),
    (["extract"], [ONE_TET]),
    (["extract"], dict(ONE_TET, tetrahedra=[[0, 1, 2]])),
    (["extract"], dict(ONE_TET, tetrahedra=[[0, 1, 2, 7]])),
    (["surface", "classify"], {"vertices": [0, 1, 2],
                               "triangles": [[0, 1, 5]]}),
    (["surface", "classify"], {"vertices": [], "triangles": []}),
    # the boundary of a tetrahedron, if true were read as vertex 1
    (["surface", "classify"], {"vertices": [0, 1, 2, 3],
                               "triangles": [[0, True, 2], [0, 1, 3],
                                             [0, 2, 3], [1, 2, 3]]}),
    # the same boundary with the vertex count read off a string or an
    # object, if len() of any value were taken
    (["surface", "classify"], {"vertices": "abcd",
                               "triangles": TETRA_BOUNDARY}),
    (["surface", "classify"], {"vertices": {"a": 1, "b": 2, "c": 3, "d": 4},
                               "triangles": TETRA_BOUNDARY}),
    (["check"], {"vertices": 5, "edges": []}),
    (["check"], dict(MINIMAL, edges=5)),
    # an exponent would make the parser build 10**9999999
    (["check"], dict(MINIMAL, vertices=[{"id": "a", "value": "0/1"},
                                        {"id": "b", "value": "1e-9999999"}])),
    (["extract"], dict(ONE_TET, values=["0/1", "1/1", "2/1",
                                        "1e-9999999"])),
], ids=["truncated-values", "top-level-array", "three-vertex-tet",
        "tet-vertex-out-of-range", "triangle-vertex-out-of-range",
        "no-triangles", "boolean-triangle-vertex", "string-vertices",
        "object-vertices", "integer-graph-vertices", "integer-graph-edges",
        "exponent-height", "exponent-value"])
def test_malformed_documents_are_input_errors(tmp_path, argv, doc):
    proc = run_cli(tmp_path, argv, doc)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("input error:")


@pytest.mark.parametrize("spares", ["xyz", [99], [True]],
                         ids=["string", "out-of-range", "boolean"])
def test_mesh_spares_are_triangle_indices(tmp_path, capsys, spares):
    # a string would be read as its characters, and true as triangle 1
    doc = {"vertices": [0, 1, 2, 3], "triangles": TETRA_BOUNDARY,
           "spares": spares}
    assert main(["surface", "classify", write(tmp_path, "m.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error:")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def _tet_vertex_true(doc):
    # a vertex 1 of some tet written as true
    t = next(t for t in doc["tetrahedra"] if 1 in t)
    t[t.index(1)] = True


@pytest.mark.parametrize("corrupt", [
    lambda doc: doc.update(vertices=doc["vertices"] + 0.7),
    lambda doc: doc.update(vertices=float(doc["vertices"])),
    lambda doc: doc.update(vertices=str(doc["vertices"])),
    _tet_vertex_true,
    lambda doc: doc["provenance"][0].__setitem__(1, 0.0),
    lambda doc: doc["provenance"][0].__setitem__(1, False),
], ids=["fractional-count", "float-count", "string-count",
        "boolean-tet-vertex", "float-provenance-index",
        "boolean-provenance-index"])
def test_manifold_counts_and_ids_are_json_integers(tmp_path, corrupt):
    # each document reads back as the built manifold if the value were
    # taken for the integer it stands near
    mpath = tmp_path / "m.json"
    main(["build", write(tmp_path, "g.json", MINIMAL), "--out", str(mpath)])
    doc = json.loads(mpath.read_text())
    corrupt(doc)
    proc = run_cli(tmp_path, ["extract"], doc)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("input error:")
    assert proc.stderr.count("\n") == 1


def test_extract_empty_complex_is_not_a_manifold(tmp_path):
    proc = run_cli(tmp_path, ["extract"],
                   {"vertices": 0, "tetrahedra": [], "values": []})
    assert proc.returncode == 3, proc.stderr
    assert "[FAIL] connected: 0/0 tetrahedra" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("corrupt,line", [
    (lambda doc: doc["provenance"][0].__setitem__(0, "bogus"),
     "[FAIL] provenance: record 0 is ['bogus', 0], neither a vertex nor an "
     "edge record"),
    (lambda doc: doc["provenance"].pop(),
     "[FAIL] provenance: {n} records for {n1} tets"),
], ids=["unknown-kind", "missing-record"])
def test_extract_names_the_bad_provenance_record(tmp_path, corrupt, line):
    mpath = tmp_path / "m.json"
    main(["build", write(tmp_path, "g.json", MINIMAL), "--out", str(mpath)])
    doc = json.loads(mpath.read_text())
    n1 = len(doc["tetrahedra"])
    corrupt(doc)
    proc = run_cli(tmp_path, ["extract"], doc)
    assert proc.returncode == 3, proc.stderr
    assert line.format(n=len(doc["provenance"]), n1=n1) in \
        [text.strip() for text in proc.stderr.splitlines()]
    assert "Traceback" not in proc.stderr


def test_extract_constant_function_is_a_domain_rejection(tmp_path):
    mpath = tmp_path / "m.json"
    main(["build", write(tmp_path, "g.json", MINIMAL), "--out", str(mpath)])
    doc = json.loads(mpath.read_text())
    doc["values"] = ["0/1"] * len(doc["values"])
    for argv in (["extract"], ["extract", "--dot"]):
        proc = run_cli(tmp_path, argv, doc)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == ("function is constant: its Reeb graph is a "
                               "single point\n")
        assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["0", "--refinement", "2"],
    ["--refinement", "2", "0"],
    ["0", "2"],
    ["0", "2", "--refinement", "2"],
])
def test_surface_gen_refinement_positional_or_flag(tmp_path, argv):
    out = tmp_path / "s.json"
    assert main(["surface", "gen", *argv, "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["triangles"]) == 256


def test_surface_gen_disagreeing_refinements(tmp_path, capsys):
    out = tmp_path / "s.json"
    rc = main(["surface", "gen", "0", "2", "--refinement", "1",
               "--out", str(out)])
    assert rc == 2
    assert "disagrees" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["build", "g.json", "--out", "missing/m.json"],
    ["build", "g.json", "--out", "adir"],
    ["extract", "m.json", "--out", "missing/r.json"],
    ["extract", "m.json", "--out", "adir"],
    ["surface", "gen", "0", "--out", "missing/s.json"],
    ["surface", "gen", "0", "--out", "adir"],
    ["corpus", "--count", "1", "--out", "afile"],
], ids=["build-missing-dir", "build-at-dir", "extract-missing-dir",
        "extract-at-dir", "surface-gen-missing-dir", "surface-gen-at-dir",
        "corpus-at-file"])
def test_unwritable_out_is_an_input_error(tmp_path, argv):
    write(tmp_path, "g.json", MINIMAL)
    assert main(["build", str(tmp_path / "g.json"),
                 "--out", str(tmp_path / "m.json")]) == 0
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("")
    proc = run_argv(argv, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("input error: cannot write")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("command", [["check"], ["build"], ["verify"],
                                     ["extract"], ["surface", "classify"]])
@pytest.mark.parametrize("path", ["missing.json", "adir"])
def test_unreadable_input_is_an_input_error(tmp_path, capsys, command, path):
    (tmp_path / "adir").mkdir()
    assert main([*command, str(tmp_path / path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error:")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", [["check"], ["build"], ["verify"],
                                     ["extract"], ["surface", "classify"]])
def test_input_that_is_not_utf8_is_an_input_error(tmp_path, capsys, command):
    path = tmp_path / "in.json"
    path.write_bytes(b"\xff\xfe")
    assert main([*command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error:")
    assert "codec can't decode" in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("command", [["check"], ["build"], ["verify"],
                                     ["extract"], ["surface", "classify"]])
def test_deeply_nested_json_is_an_input_error(tmp_path, capsys, command):
    path = tmp_path / "in.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main([*command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error:")
    assert "maximum recursion depth exceeded" in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("edge", ["99", "1", "-1"])
def test_mislabel_edge_out_of_range_is_an_input_error(tmp_path, edge):
    proc = run_argv(["verify", write(tmp_path, "g.json", MINIMAL),
                     "--debug-mislabel-edge", edge])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr == (f"input error: --debug-mislabel-edge {edge} is "
                           "not an edge index in 0..0\n")


@pytest.mark.parametrize("count", ["-2", "0"])
def test_corpus_count_must_be_positive(tmp_path, count):
    proc = run_argv(["corpus", "--count", count,
                     "--out", str(tmp_path / "c")])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "--count: must be >= 1" in proc.stderr
    assert not (tmp_path / "c").exists()


def test_unexpected_exception_is_one_internal_error_line(
        tmp_path, monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("planner bug\nsecond line")
    monkeypatch.setattr(cli, "cmd_check", broken)
    assert main(["check", write(tmp_path, "g.json", MINIMAL)]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: planner bug second line\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("label", ["99999999999999999999",
                                   "-99999999999999999999"])
def test_surface_gen_huge_label_is_an_input_error(tmp_path, label):
    proc = run_argv(["surface", "gen", label,
                     "--out", str(tmp_path / "s.json")])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "must be at most" in proc.stderr
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("command", ["check", "build", "verify"])
@pytest.mark.parametrize("label", [99999999999999999999,
                                   -99999999999999999999])
def test_graph_with_huge_label_is_an_input_error(tmp_path, capsys, command,
                                                 label):
    doc = dict(MINIMAL, edges=[{"u": "a", "v": "b", "r": label}])
    assert main([command, write(tmp_path, "g.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: edge label out of range")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("argv,doc", [
    (["check"], {"vertices": [{"id": "a", "value": "0/1"},
                              {"id": "b", "value": "1" * 5000}],
                 "edges": [{"u": "a", "v": "b", "r": 0}]}),
    (["extract"], dict(ONE_TET, values=["0/1", "1/1", "2/1", "3" * 5000])),
], ids=["graph-height", "manifold-value"])
def test_a_long_rejected_value_makes_a_short_line(tmp_path, argv, doc):
    # the 5,000 digits are past the interpreter's integer conversion limit
    proc = run_cli(tmp_path, argv, doc)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("input error:")
    assert proc.stderr.count("\n") == 1
    assert len(proc.stderr) < 200
    assert "(5002 characters)" in proc.stderr
    if argv == ["check"]:
        assert proc.stderr.startswith("input error: vertex 'b': ")
