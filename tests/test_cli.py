"""End-to-end command-line behavior, run in-process through main(argv)."""

import io
import json
import os
import subprocess
import sys
import types

import pytest

import afinv
from afinv.bimodules import identity_bimodule, qsystems
from afinv.cli import main
from afinv.diagrams import EnrichedBratteliDiagram
from afinv.groups import make_group
from afinv.serialize import (
    diagram_to_json,
    group_to_json,
    invariant_from_json,
    matrix_to_json,
)
from afinv.k0 import StationarySystem


@pytest.fixture()
def files(tmp_path, z4, z4_diagrams):
    """JSON input documents on disk, keyed by short name."""
    paths = {}

    def put(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        paths[name.split(".")[0]] = str(p)

    put("z4.json", group_to_json(z4))
    put("klein.json", {"cyclic_factors": [2, 2]})
    put("triv.json", {"cyclic_factors": [1]})
    put("z12.json", {"cyclic_factors": [12]})
    for name, d in z4_diagrams.items():
        put(f"{name}.json", diagram_to_json(d))
    Q = qsystems(make_group(1))[0]
    trivdiag = EnrichedBratteliDiagram.homogeneous(Q, {identity_bimodule(Q): 1})
    put("trivdiag.json", diagram_to_json(trivdiag))
    put("mat.json", matrix_to_json(StationarySystem(((2, 2), (2, 2)))))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    paths["bad"] = str(bad)
    paths["missing"] = str(tmp_path / "no-such-file.json")
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv):
    """Run the CLI in a fresh interpreter, as a shell would."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(afinv.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "afinv.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def write_json(tmp_path, name, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ------------------------------------------------------------------- qsystems


def test_qsystems_text(files, capsys):
    code, out, err = run(capsys, "qsystems", files["z4"])
    assert code == 0
    assert "Q-systems of Hilb(Z/4): 3" in out
    assert "Q3: order 4" in out
    assert "twists" not in out
    assert err == ""


def test_qsystems_json(files, capsys):
    code, out, _ = run(capsys, "qsystems", files["z4"], "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [q["label"] for q in doc["qsystems"]] == ["Q1", "Q2", "Q3"]
    assert [q["order"] for q in doc["qsystems"]] == [1, 2, 4]
    assert all(q["schur_trivial"] for q in doc["qsystems"])


def test_qsystems_warns_once_for_noncyclic_subgroups(files, capsys):
    code, out, err = run(capsys, "qsystems", files["klein"])
    assert code == 0
    assert "[may admit nontrivial twists]" in out
    assert err.count("warning:") == 1
    assert "not enumerated" in err


# ---------------------------------------------------------------- fusion-table


def test_fusion_table_text_contains_published_cells(files, capsys):
    code, out, _ = run(capsys, "fusion-table", files["z4"])
    assert code == 0
    assert "simple bimodules of Hilb(Z/4): 22" in out
    for heading in ("products through Q1:", "products through Q2:", "products through Q3:"):
        assert heading in out
    assert "M_{1-1,0} + M_{1-1,2}" in out
    assert "M_{3-3}^triv + M_{3-3}^chi1 + M_{3-3}^chi2 + M_{3-3}^chi3" in out


def test_fusion_table_json_is_complete(files, capsys):
    code, out, _ = run(capsys, "fusion-table", files["z4"], "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["labels"]) == 22
    assert len(doc["products"]) == 162


def test_fusion_table_trivial_group_is_one_by_one(files, capsys):
    code, out, _ = run(capsys, "fusion-table", files["triv"])
    assert code == 0
    assert "simple bimodules of Hilb(Z/1): 1" in out

    code, out, _ = run(capsys, "fusion-table", files["triv"], "--format", "json")
    doc = json.loads(out)
    assert doc["labels"] == ["M_{1-1}"]
    assert doc["products"] == {"0,0": [{"index": 0, "multiplicity": 1}]}


# ------------------------------------------------------------------- bimodules


def test_bimodules_listing(files, capsys):
    code, out, _ = run(capsys, "bimodules", files["z4"], "--source", "1", "--target", "2")
    assert code == 0
    assert "simple Q1-Q2 bimodules: 2" in out
    assert "M_{1-2,0}" in out and "M_{1-2,1}" in out

    code, out, _ = run(
        capsys, "bimodules", files["z4"], "--source", "3", "--target", "3",
        "--format", "json",
    )
    labels = [b["label"] for b in json.loads(out)["bimodules"]]
    assert labels == ["M_{3-3}^triv", "M_{3-3}^chi1", "M_{3-3}^chi2", "M_{3-3}^chi3"]


def test_bimodules_index_bounds(files, capsys):
    code, _, err = run(capsys, "bimodules", files["z4"], "--source", "9", "--target", "1")
    assert code == 1
    assert err.startswith("error:")


# ------------------------------------------------------------------- invariant


def test_invariant_text(files, capsys):
    code, out, _ = run(capsys, "invariant", files["F"])
    assert code == 0
    assert "Q1: rank 1, image 1 * Z[1/{2}] (eigenvalue 4)" in out
    assert "M_{1-3}: 4" in out
    assert "pointed class: 1" in out


def test_invariant_json_round_trips(files, capsys, z4_invariants):
    code, out, _ = run(capsys, "invariant", files["F"], "--format", "json")
    assert code == 0
    assert invariant_from_json(json.loads(out)) == z4_invariants["F"]


def test_invariant_of_trivial_tail_shows_blocks(files, capsys):
    code, out, _ = run(capsys, "invariant", files["E"])
    assert code == 0
    assert "Q3: rank 4, direct sum" in out
    assert "undefined" in out  # multipliers into non-rank-one objects


def test_invariant_of_trivial_diagram_has_unit_multipliers(files, capsys):
    code, out, _ = run(capsys, "invariant", files["trivdiag"])
    assert code == 0
    assert "Q1: rank 1, image 1 * Z[1/{}] (eigenvalue 1)" in out
    assert "M_{1-1}: 1" in out
    assert "pointed class: 1" in out

    code, out, _ = run(capsys, "invariant", files["trivdiag"], "--format", "json")
    doc = json.loads(out)
    assert all(m["multiplier"] == "1" for m in doc["morphisms"])


# --------------------------------------------------------------------- compare


def test_compare_equivalent(files, capsys):
    code, out, _ = run(capsys, "compare", files["F"], files["G"], "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "verdict": "equivalent",
        "witness": {"Q1": "1", "Q2": "1/2", "Q3": "1/2"},
    }


def test_compare_diagram_with_itself_gives_identity_witness(files, capsys):
    code, out, _ = run(capsys, "compare", files["F"], files["F"], "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "verdict": "equivalent",
        "witness": {"Q1": "1", "Q2": "1", "Q3": "1"},
    }


def test_compare_inequivalent(files, capsys):
    code, out, _ = run(capsys, "compare", files["E"], files["F"])
    assert code == 3
    assert "verdict: inequivalent" in out
    assert "certificate: rank at Q2: 2 vs 1" in out


def test_compare_unknown_with_probe(files, capsys):
    code, out, _ = run(capsys, "compare", files["E"], files["E"])
    assert code == 4
    assert "verdict: unknown" in out

    code, out, _ = run(
        capsys, "compare", files["E"], files["E"], "--se-lag", "1", "--se-entries", "2"
    )
    assert code == 4
    assert "witness at lag 1" in out


# ---------------------------------------------------------------------- oracle


def test_oracle_passes(files, capsys):
    code, out, _ = run(capsys, "oracle", files["z4"])
    assert code == 0
    assert out.count("PASS") == 10  # nine pairs plus the summary
    assert "oracle: PASS" in out


def test_oracle_trivial_group_single_row(files, capsys):
    code, out, _ = run(capsys, "oracle", files["triv"])
    assert code == 0
    assert out.count("PASS") == 2  # the lone pair plus the summary
    assert "Q1 -> Q1: bimodules 1, crossed K0 rank 1: PASS" in out


def test_oracle_z12_covers_all_thirty_six_pairs(files, capsys):
    code, out, _ = run(capsys, "oracle", files["z12"])
    assert code == 0
    assert out.count("PASS") == 37  # six subgroups squared, plus the summary


def test_oracle_failure_exits_two(files, capsys, monkeypatch):
    fake = types.SimpleNamespace(k0_rank=0)
    monkeypatch.setattr("afinv.cli.crossed_product_blocks", lambda *a: fake)
    code, out, err = run(capsys, "oracle", files["z4"])
    assert code == 2
    assert "FAIL" in out
    assert err.startswith("internal error:")


# -------------------------------------------------------------------------- k0


def test_k0_identifies_matrix(files, capsys):
    code, out, _ = run(capsys, "k0", "--matrix", files["mat"])
    assert code == 0
    assert "rank 1, image 1 * Z[1/{2}] (eigenvalue 4)" in out

    code, out, _ = run(capsys, "k0", "--matrix", files["mat"], "--format", "json")
    assert json.loads(out)["variant"] == "rank-one"


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param({"rows": [[1, 2]]}, id="nonsquare"),
        pytest.param({"rows": [[1.5, 1], [1, 1]]}, id="float"),
        pytest.param({"rows": [["3", 1], [1, 1]]}, id="string"),
        pytest.param({"rows": [[True, 1], [1, 1]]}, id="bool"),
        pytest.param({"rows": [[1, 1], [1, 1]], "labels": 5}, id="labels-not-a-list"),
    ],
)
def test_k0_rejects_nonsquare(doc, tmp_path, capsys):
    code, _, err = run(capsys, "k0", "--matrix", write_json(tmp_path, "m.json", doc))
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


# ------------------------------------------------------------- error handling


def test_missing_and_malformed_files(files, capsys):
    code, _, err = run(capsys, "qsystems", files["missing"])
    assert code == 1 and err.startswith("error:")
    code, _, err = run(capsys, "qsystems", files["bad"])
    assert code == 1 and "not valid JSON" in err


def _two_vertex_level(d, override):
    """Recast F as one level of two trivial vertices, each looping to itself."""
    loop = {"bimodule": d.pop("edge")[0]["bimodule"]}
    d.update(
        levels=[[d.pop("vertex")] * 2],
        edges=[[{**loop, "from": 0, "to": 0}, {**loop, "from": 1, "to": 1, **override}]],
        generator_weights=[1] * 8,
    )


def test_two_vertex_level_recast_is_valid(tmp_path, z4_diagrams, capsys):
    doc = diagram_to_json(z4_diagrams["F"])
    _two_vertex_level(doc, {})
    code, _, err = run(capsys, "invariant", write_json(tmp_path, "two.json", doc))
    assert code == 0, err


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(lambda d: d["edge"][0]["bimodule"].update(coset_rep=["a"]), id="string"),
        pytest.param(lambda d: d["vertex"].update(generators=[[[1]]]), id="nested-list"),
        pytest.param(lambda d: d["edge"][0]["bimodule"].update(coset_rep=[0.5]), id="float"),
        # the one-edge Z/1 diagram, valid once the factor is 1 instead of true
        pytest.param(
            lambda d: d.update(
                group={"cyclic_factors": [True]}, edge=d["edge"][:1], generator_weights=[1]
            ),
            id="bool-factor",
        ),
        pytest.param(lambda d: d["edge"][0]["bimodule"].update(coset_rep=[True]), id="bool"),
        pytest.param(lambda d: d["edge"].append("x"), id="edge-not-an-object"),
        pytest.param(lambda d: d["edge"][0].update(multiplicity=True), id="bool-multiplicity"),
        pytest.param(lambda d: d.update(generator_weights=[True, 1, 1, 1]), id="bool-weight"),
        # true would pass for index 1, which the two-vertex level has
        pytest.param(lambda d: _two_vertex_level(d, {"from": True}), id="bool-from"),
        pytest.param(lambda d: _two_vertex_level(d, {"to": True}), id="bool-to"),
        pytest.param(
            lambda d: (_two_vertex_level(d, {}), d["levels"].__setitem__(0, 5)),
            id="level-not-a-list",
        ),
        pytest.param(
            lambda d: (_two_vertex_level(d, {}), d["edges"].__setitem__(0, 5)),
            id="edge-block-not-a-list",
        ),
        # 10**999 is 0 mod 1, so only the written form of a rational can refuse it
        pytest.param(
            lambda d: d["edge"][0]["bimodule"]["character"]["theta"].update({"[0]": "1e999"}),
            id="theta-exponent",
        ),
    ],
)
def test_non_integer_elements_are_input_errors(mutate, tmp_path, z4_diagrams, capsys):
    doc = diagram_to_json(z4_diagrams["F"])
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "invariant", str(path))
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_imports_no_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(afinv.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import afinv.cli, sys; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_group_order_bound(files, capsys):
    code, _, err = run(capsys, "qsystems", files["z4"], "--max-group-order", "3")
    assert code == 1
    assert "exceeds the bound 3" in err


def test_group_order_flag_raises_the_default_bound(tmp_path, capsys):
    z521 = write_json(tmp_path, "z521.json", {"cyclic_factors": [521]})
    code, out, err = run(capsys, "qsystems", z521, "--max-group-order", "1000")
    assert code == 0, err
    assert "Q-systems of Hilb(Z/521): 2" in out


@pytest.mark.parametrize("command", ["invariant", "compare"])
def test_diagram_group_is_refused_before_any_bimodule_is_parsed(
    command, tmp_path, capsys, monkeypatch
):
    # one G-G edge over Z/4000: parsing it would sum G with itself, 16 M additions
    gens = [[1]]
    doc = {
        "group": {"cyclic_factors": [4000]},
        "vertex": {"generators": gens},
        "edge": [{"bimodule": {"source_generators": gens, "target_generators": gens,
                               "coset_rep": [0], "character": {"theta": {}}}}],
        "generator_weights": [1],
    }
    path = write_json(tmp_path, "big.json", doc)

    def refuse(*args):
        raise AssertionError("a bimodule was parsed before the group-order check")

    monkeypatch.setattr("afinv.serialize.bimodule_from_json", refuse)
    argv = [path] if command == "invariant" else [path, path]
    code, _, err = run(capsys, command, *argv)
    assert code == 1
    assert "group order 4000 exceeds the bound 512" in err


def test_fusion_table_default_bound_is_sixteen(tmp_path, capsys):
    z17 = write_json(tmp_path, "z17.json", {"cyclic_factors": [17]})
    code, _, err = run(capsys, "fusion-table", z17)
    assert code == 1
    assert "exceeds the bound 16" in err
    code, out, err = run(capsys, "fusion-table", z17, "--max-group-order", "17")
    assert code == 0, err
    assert "simple bimodules of Hilb(Z/17): 36" in out


def test_fusion_table_help_names_its_default(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fusion-table", "--help"])
    assert exc.value.code == 0
    assert "(default 16)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["qsystems"], id="missing-argument"),
        pytest.param(["frobnicate"], id="unknown-subcommand"),
        pytest.param(["qsystems", "z4", "--max-group-order", "abc"], id="non-integer-bound"),
        pytest.param(["qsystems", "z4", "--max-group-order", "0"], id="zero-bound"),
        pytest.param(["qsystems", "z4", "--max-group-order", "-5"], id="negative-bound"),
        pytest.param(["k0", "--matrix", "mat", "--max-group-order", "5"], id="k0-takes-no-bound"),
    ],
)
def test_usage_errors_exit_one(argv, files):
    proc = run_process(*(files.get(a, a) for a in argv))
    assert proc.returncode == 1
    assert "usage:" in proc.stderr and "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_help_exits_zero():
    proc = run_process("--help")
    assert proc.returncode == 0
    assert "usage: afinv" in proc.stdout


def test_stdin_input(files, capsys, monkeypatch, z4):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(group_to_json(z4))))
    code, out, _ = run(capsys, "qsystems", "-")
    assert code == 0
    assert "Q-systems of Hilb(Z/4): 3" in out


def test_output_is_deterministic(files, capsys):
    _, first, _ = run(capsys, "invariant", files["F"], "--format", "json")
    _, second, _ = run(capsys, "invariant", files["F"], "--format", "json")
    assert first == second
