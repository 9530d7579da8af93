import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reebforge
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


def run_cli(tmp_path, argv, doc):
    """Run the CLI in a fresh interpreter on one JSON document."""
    path = write(tmp_path, "in.json", doc)
    src = str(Path(reebforge.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "reebforge.cli", *argv, path],
        capture_output=True, text=True, env=env, timeout=60)


ONE_TET = {"vertices": 4, "tetrahedra": [[0, 1, 2, 3]],
           "values": ["0/1", "1/1", "2/1", "3/1"]}


@pytest.mark.parametrize("argv,doc", [
    (["extract"], dict(ONE_TET, values=["0/1"])),
    (["extract"], [ONE_TET]),
    (["extract"], dict(ONE_TET, tetrahedra=[[0, 1, 2]])),
    (["extract"], dict(ONE_TET, tetrahedra=[[0, 1, 2, 7]])),
    (["surface", "classify"], {"vertices": [0, 1, 2],
                               "triangles": [[0, 1, 5]]}),
    (["surface", "classify"], {"vertices": [], "triangles": []}),
], ids=["truncated-values", "top-level-array", "three-vertex-tet",
        "tet-vertex-out-of-range", "triangle-vertex-out-of-range",
        "no-triangles"])
def test_malformed_documents_are_input_errors(tmp_path, argv, doc):
    proc = run_cli(tmp_path, argv, doc)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("input error:")
