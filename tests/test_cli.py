"""End-to-end command-line behavior, run in-process through main(argv)."""

import compileall
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings

import afinv
from afinv import cli
from afinv.bimodules import (
    bimodule_label,
    identity_bimodule,
    qsystems,
    simple_bimodules,
    simples_of,
)
from afinv.cli import main
from afinv.diagrams import DiagramEdge, EnrichedBratteliDiagram, compute_invariant
from afinv.groups import make_group
from afinv.serialize import (
    bimodule_to_json,
    diagram_to_json,
    group_to_json,
    invariant_to_json,
    matrix_to_json,
)
from afinv.k0 import StationarySystem

from json_documents import any_or_mutated


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
    K1 = qsystems(make_group([2, 2]))[0]
    klein_regular = EnrichedBratteliDiagram.homogeneous(
        K1, {b: 1 for b in simple_bimodules(K1, K1)}
    )
    put("kleindiag.json", diagram_to_json(klein_regular))
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


def child_env():
    """The environment of a fresh interpreter that imports afinv from this tree.

    PYTHONUNBUFFERED is dropped, so output to a pipe or a file is block-buffered,
    as a shell leaves it.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(afinv.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    return env


def run_process(*argv):
    """Run the CLI in a fresh interpreter, as a shell would."""
    return subprocess.run(
        [sys.executable, "-m", "afinv.cli", *argv],
        capture_output=True, text=True, env=child_env(), timeout=60,
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


def test_fusion_table_warns_once_for_noncyclic_subgroups(files, capsys):
    code, _, err = run(capsys, "fusion-table", files["klein"])
    assert code == 0
    assert err.count("warning:") == 1
    assert "not enumerated" in err
    # the JSON path warns too, though it prints no Q-system
    code, _, json_err = run(capsys, "fusion-table", files["klein"], "--format", "json")
    assert (code, json_err) == (0, err)


@pytest.mark.parametrize(
    "fmt, unused",
    [("text", "afinv.serialize.fusion_table_to_json"), ("json", "afinv.cli._render_columns")],
)
def test_fusion_table_builds_only_the_format_it_prints(fmt, unused, files, capsys, monkeypatch):
    printed = run(capsys, "fusion-table", files["z4"], "--format", fmt)

    def refuse(*args):
        raise AssertionError(f"{unused} was called for --format {fmt}")

    monkeypatch.setattr(unused, refuse)
    assert run(capsys, "fusion-table", files["z4"], "--format", fmt) == printed


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


@pytest.mark.parametrize("factors", [[4], [2, 2], [6], [8]], ids=str)
def test_every_reader_lists_the_simples_in_one_order(tmp_path, capsys, factors):
    """The fusion table, the invariant and ``simples_of`` name the same simples in order."""
    G = make_group(factors)
    Q1 = qsystems(G)[0]
    regular = EnrichedBratteliDiagram.homogeneous(Q1, {b: 1 for b in simple_bimodules(Q1, Q1)})
    group, diagram = tmp_path / "group.json", tmp_path / "regular.json"
    group.write_text(json.dumps(group_to_json(G)))
    diagram.write_text(json.dumps(diagram_to_json(regular)))

    code, out, _ = run(capsys, "fusion-table", str(group), "--format", "json")
    assert code == 0
    table_labels = json.loads(out)["labels"]
    code, out, _ = run(capsys, "invariant", str(diagram), "--format", "json")
    assert code == 0
    invariant_labels = [m["label"] for m in json.loads(out)["morphisms"]]
    expected = [bimodule_label(s) for s in simples_of(G)]
    assert len(set(expected)) == len(expected)
    assert table_labels == invariant_labels == expected
    assert compute_invariant(regular).simples == simples_of(G)


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

    # Q2-Q2: two cosets of Q2 and two characters of it, each simple of dimension 2
    code, out, _ = run(
        capsys, "bimodules", files["z4"], "--source", "2", "--target", "2",
        "--format", "json",
    )
    assert code == 0
    assert [(b["label"], b["dimension"]) for b in json.loads(out)["bimodules"]] == [
        (f"M_{{2-2,{c}}}^{x}", 2) for c in (0, 1) for x in ("triv", "sign")
    ]


def test_bimodules_index_bounds(files, capsys):
    # Z/4 has three Q-systems, so 4 is the first index out of range
    for source in ("4", "9"):
        code, out, err = run(capsys, "bimodules", files["z4"], "--source", source, "--target", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1


# ------------------------------------------------------------------- invariant


def test_invariant_text(files, capsys):
    code, out, _ = run(capsys, "invariant", files["F"])
    assert code == 0
    assert "Q1: rank 1, image 1 * Z[1/{2}] (eigenvalue 4)" in out
    assert "M_{1-3}: 4" in out
    assert "pointed class: 1" in out


def test_invariant_of_noncyclic_group_prints_no_warning(files, capsys):
    code, out, err = run(capsys, "invariant", files["kleindiag"])
    assert code == 0
    assert "pointed class: 1" in out
    assert "warning:" not in err


def test_invariant_json_round_trips(files, capsys, z4_invariants):
    code, out, _ = run(capsys, "invariant", files["F"], "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["labels"], len(doc["morphisms"]), doc["pointed"]) == (["Q1", "Q2", "Q3"], 22, "1")
    # invariant documents are output only: the CLI prints the rendering, through real JSON text
    assert doc == json.loads(json.dumps(invariant_to_json(z4_invariants["F"])))


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


@pytest.mark.parametrize(
    "option, flags",
    [
        ("--se-entries", ["--se-lag", "1", "--se-entries", "-3"]),
        ("--se-lag", ["--se-lag", "-3", "--se-entries", "2"]),
    ],
    ids=["se-entries", "se-lag"],
)
def test_a_negative_probe_bound_is_a_usage_error(option, flags, files, capsys):
    # it used to skip the probe without a word and print the plain UNKNOWN, exit 4
    with pytest.raises(SystemExit) as exc:
        main(["compare", files["E"], files["E"], *flags])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (1, "")
    assert err.startswith("usage: afinv compare")
    assert err.endswith(f"afinv compare: error: argument {option}: must be at least 0, got -3\n")
    # zero is a bound too: it turns the probe off
    code, out, _ = run(capsys, "compare", files["E"], files["E"], "--se-lag", "0")
    assert code == 4 and "verdict: unknown" in out and "witness at lag" not in out


@pytest.mark.parametrize(
    "second, message",
    [
        ("trivdiag", "invariants live over different groups"),
        ("kleindiag", "invariants live over different groups"),
        ("missing", "No such file or directory"),
        ("bad", "not valid JSON"),
    ],
)
def test_compare_refuses_its_inputs_before_computing_an_invariant(
    second, message, files, capsys, monkeypatch
):
    def refuse(d):
        raise AssertionError("an invariant was computed before both inputs were admitted")

    monkeypatch.setattr("afinv.diagrams.compute_invariant", refuse)
    code, out, err = run(capsys, "compare", files["F"], files[second])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


# ---------------------------------------------------------------------- README

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


@pytest.fixture()
def readme(tmp_path):
    """The README's text, with its example input files written to ``tmp_path``."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    written = re.findall(r"cat > (\w+\.json) <<'EOF'\n(.*?\n)EOF\n", text, re.S)
    written += [(name, body) for body, name in re.findall(r"echo '(.*?)' > (\w+\.json)", text)]
    for name, body in written:
        (tmp_path / name).write_text(body)
    return text


def test_readme_compare_output_is_printed_byte_for_byte(readme, tmp_path, capsys):
    shown = re.search(
        r"`afinv compare F\.json G\.json --format json` emits:\n\n```json\n(.*?)```", readme, re.S
    )
    code, out, err = run(
        capsys, "compare", str(tmp_path / "F.json"), str(tmp_path / "G.json"), "--format", "json"
    )
    assert (code, err) == (0, "")
    assert out == shown.group(1)


def test_readme_fusion_table_counts(readme, tmp_path, capsys):
    claim = re.search(r"all (\d+) simples of Hilb\(Z/4\), (\d+) products", readme)
    code, out, _ = run(capsys, "fusion-table", str(tmp_path / "z4.json"), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (len(doc["simples"]), len(doc["products"])) == (22, 162)
    assert claim.groups() == ("22", "162")


# ---------------------------------------------------------------------- oracle


def test_oracle_passes(files, capsys):
    code, out, _ = run(capsys, "oracle", files["z4"])
    assert code == 0
    assert out.count("PASS") == 10  # nine pairs plus the summary
    assert "oracle: PASS" in out

    code, out, _ = run(capsys, "oracle", files["z4"], "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["all_ok"], len(doc["pairs"])) == (True, 9)


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
    monkeypatch.setattr("afinv.crossed.crossed_product_blocks", lambda *a: ())
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
        pytest.param({"rows": [[1, 1], [1, 1]], "labels": ["a"]}, id="labels-one-short"),
    ],
)
def test_k0_rejects_nonsquare(doc, tmp_path, capsys):
    code, _, err = run(capsys, "k0", "--matrix", write_json(tmp_path, "m.json", doc))
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_k0_failed_self_check_exits_two(files, capsys, monkeypatch):
    # a tampered eventual row space: (1, 0) is no eigenvector of ((2, 2), (2, 2))
    monkeypatch.setattr("afinv.k0._eventual_rows", lambda A: [(1, 0)])
    code, out, err = run(capsys, "k0", "--matrix", files["mat"])
    assert (code, out) == (2, "")
    assert err.startswith("internal error:") and err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_k0_prints_the_same_bytes_with_one_label_per_row(fmt, tmp_path, capsys):
    rows = [[2, 1], [1, 1]]
    bare = write_json(tmp_path, "bare.json", {"rows": rows})
    labelled = write_json(tmp_path, "labelled.json", {"rows": rows, "labels": ["a", 7]})
    printed = run(capsys, "k0", "--matrix", bare, "--format", fmt)
    assert printed[0] == 0
    assert run(capsys, "k0", "--matrix", labelled, "--format", fmt) == printed


def test_k0_of_a_prime_eigenvalue_near_ten_to_the_twenty_is_quick(tmp_path):
    p = 10**20 + 39  # prime; trial division to its square root would take hours
    path = write_json(tmp_path, "m.json", {"rows": [[p]]})
    start = time.perf_counter()
    proc = run_process("k0", "--matrix", path, "--format", "json")
    assert time.perf_counter() - start < 5
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["prime_set"] == [p]


@pytest.mark.parametrize("base, power", [(65537, 6), (100003, 5)])
def test_k0_factors_a_power_of_a_prime_above_the_trial_bound(tmp_path, capsys, base, power):
    path = write_json(tmp_path, "m.json", {"rows": [[base**power]]})
    code, out, err = run(capsys, "k0", "--matrix", path, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["prime_set"] == [base]


def test_k0_refuses_an_eigenvalue_it_cannot_factor_exactly(tmp_path, capsys):
    # the Mersenne prime 2**89 - 1 is too large for Miller-Rabin to prove prime
    path = write_json(tmp_path, "m.json", {"rows": [[2**89 - 1]]})
    code, out, err = run(capsys, "k0", "--matrix", path)
    assert (code, out) == (1, "")
    assert err == "error: cannot prove prime a 89-bit factor of the eigenvalue\n"


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="no limit on integer string conversion",
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_k0_refuses_a_result_longer_than_the_interpreter_prints(fmt, tmp_path, capsys):
    # every entry is within the digit limit, so the document parses, but the eigenvalue is not
    c = 6 * 10 ** (sys.get_int_max_str_digits() - 1)
    path = write_json(tmp_path, "m.json", {"rows": [[c, c], [c, c]]})
    code, out, err = run(capsys, "k0", "--matrix", path, "--format", fmt)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "sys.set_int_max_str_digits" in err


def test_running_out_of_memory_is_one_error_line(files, capsys, monkeypatch):
    def exhaust(G):
        raise MemoryError

    monkeypatch.setattr("afinv.cli.fusion_table", exhaust)
    assert run(capsys, "fusion-table", files["z4"], "--format", "json") == (
        1, "", "error: out of memory\n"
    )


def test_any_other_value_error_still_propagates(files, monkeypatch):
    def fail(*args):
        raise ValueError("not a digit limit")

    monkeypatch.setattr("afinv.k0.stationary_k0", fail)
    with pytest.raises(ValueError, match="not a digit limit"):
        main(["k0", "--matrix", files["mat"]])


# ------------------------------------------------------ text from the document


@pytest.fixture()
def rendered_inputs(files, tmp_path):
    """``files`` and the inputs that reach the renderers' other branches."""
    Q1 = qsystems(make_group(2))[0]
    flip = next(b for b in simple_bimodules(Q1, Q1) if b.rep == (1,))
    # an opaque unit object, so the pointed class is a vector
    flipdiag = EnrichedBratteliDiagram.homogeneous(Q1, {flip: 1})
    return dict(
        files,
        flip=write_json(tmp_path, "flip.json", diagram_to_json(flipdiag)),
        sum=write_json(tmp_path, "sum.json", {"rows": [[2, 0], [0, 3]]}),
        opaque=write_json(tmp_path, "opaque.json", {"rows": [[2, 1], [1, 1]]}),
    )


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["qsystems", "klein"], id="qsystems-twists"),
        pytest.param(["bimodules", "z4", "--source", "2", "--target", "2"], id="bimodules"),
        pytest.param(["invariant", "E"], id="invariant-direct-sum"),
        pytest.param(["invariant", "flip"], id="invariant-opaque-pointed-vector"),
        pytest.param(["compare", "F", "G"], id="compare-witness"),
        pytest.param(["compare", "E", "F"], id="compare-certificate"),
        pytest.param(["compare", "E", "E"], id="compare-reason"),
        pytest.param(["oracle", "z4"], id="oracle"),
        pytest.param(["k0", "--matrix", "mat"], id="k0-rank-one"),
        pytest.param(["k0", "--matrix", "sum"], id="k0-direct-sum"),
        pytest.param(["k0", "--matrix", "opaque"], id="k0-opaque"),
    ],
)
def test_text_is_rendered_from_the_json_document_alone(argv, rendered_inputs, capsys, monkeypatch):
    argv = [rendered_inputs.get(a, a) for a in argv]
    emit, passed = cli._emit, []

    def capture(args, doc, render):
        passed.append((doc, render))
        if args.format == "json":
            # a JSON request renders no text
            render = None
        emit(args, doc, render)

    monkeypatch.setattr(cli, "_emit", capture)
    code, text, err = run(capsys, *argv)
    [(doc, render)] = passed
    # a module-level function of its argument: it closes over no library object
    assert getattr(cli, render.__name__) is render and render.__closure__ is None
    wire = json.loads(json.dumps(doc))
    assert "".join(line + "\n" for line in render(wire)) == text
    # --format json prints that same document, with the same exit code and stderr
    code_json, out, err_json = run(capsys, *argv, "--format", "json")
    assert (code_json, json.loads(out), err_json) == (code, wire, err)
    assert passed[1][1] is render


# ------------------------------------------------------------- error handling


def test_missing_and_malformed_files(files, capsys):
    code, _, err = run(capsys, "qsystems", files["missing"])
    assert code == 1 and err.startswith("error:")
    code, _, err = run(capsys, "qsystems", files["bad"])
    assert code == 1 and "not valid JSON" in err


@pytest.mark.parametrize(
    "command, template",
    [
        pytest.param(("qsystems",), '{"cyclic_factors": [%s]}', id="qsystems"),
        pytest.param(("k0", "--matrix"), '{"rows": [[%s]]}', id="k0"),
    ],
)
def test_integer_past_the_digit_limit_is_an_input_error(tmp_path, capsys, command, template):
    # json.load raises a plain ValueError, not a JSONDecodeError, for an
    # integer literal longer than Python's 4300-digit conversion limit.
    path = tmp_path / "huge.json"
    path.write_text(template % ("9" * 4301))
    code, out, err = run(capsys, *command, str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: not valid JSON (") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command",
    [("qsystems",), ("k0", "--matrix"), ("invariant",)],
    ids=["qsystems", "k0", "invariant"],
)
def test_deeply_nested_json_is_an_input_error(tmp_path, capsys, command):
    # json.load raises RecursionError, not a ValueError, past the recursion limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, *command, str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: not valid JSON (") and err.count("\n") == 1


def test_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"cyclic_factors": [2], "name": "\xe9"}')
    code, out, err = run(capsys, "qsystems", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: not valid JSON (") and err.count("\n") == 1


def _two_vertex_level(d, override):
    """Recast F as one level of two trivial vertices, each looping to itself."""
    loop = {"bimodule": d.pop("edge")[0]["bimodule"]}
    d.update(
        levels=[[d.pop("vertex")] * 2],
        edges=[[{**loop, "from": 0, "to": 0}, {**loop, "from": 1, "to": 1, **override}]],
        generator_weights=[1] * 8,
    )


def test_out_of_range_edge_is_one_short_line(tmp_path, z4_diagrams, capsys):
    doc = diagram_to_json(z4_diagrams["F"])
    _two_vertex_level(doc, {"from": -1})
    code, _, err = run(capsys, "invariant", write_json(tmp_path, "edge.json", doc))
    assert code == 1
    assert err == "error: edge 1 of block 0 (from -1 to 1) points outside its levels\n"


def test_wrongly_oriented_edge_names_both_q_systems(tmp_path, z4, z4_reps, z4_simples, capsys):
    Q1, Q2, _ = z4_reps
    d = EnrichedBratteliDiagram(
        group=z4,
        levels=((Q1,), (Q2,)),
        edges=(
            (DiagramEdge(0, 0, z4_simples["M_{2-1,0}"]),),
            tuple(DiagramEdge(0, 0, b) for b in simple_bimodules(Q2, Q2)),
        ),
        generator_weights=(1, 1, 1, 1),
    )
    doc = diagram_to_json(d)
    # the first edge runs from Q1 up to Q2, so it must be a Q2-Q1 bimodule
    doc["edges"][0][0]["bimodule"] = bimodule_to_json(z4_simples["M_{1-2,0}"])
    code, out, err = run(capsys, "invariant", write_json(tmp_path, "wrong.json", doc))
    assert code == 1 and out == ""
    assert err == "error: edge bimodule M_{1-2,0} must be a Q({(0,), (2,)})-Q({(0,)}) bimodule\n"


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


@pytest.mark.parametrize(
    "theta",
    [{"[2]": "1/2", "[6]": "0"}, {"[6]": "0", "[2]": "1/2"}],
    ids=["sign-first", "trivial-first"],
)
def test_theta_naming_one_element_twice_is_an_input_error(theta, tmp_path, z4_diagrams, capsys):
    # [6] is [2] in Z/4, so either key order would otherwise pick a character
    doc = diagram_to_json(z4_diagrams["G"])
    (edge,) = [e for e in doc["edge"] if e["bimodule"]["character"]["theta"]
               and e["bimodule"]["coset_rep"] == [0]]
    edge["bimodule"]["character"]["theta"] = theta
    code, _, err = run(capsys, "invariant", write_json(tmp_path, "twice.json", doc))
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "twice" in err


def test_deeply_nested_theta_key_is_an_input_error(tmp_path, z4_diagrams, capsys):
    # each theta key is parsed with json.loads, which recurses once per bracket
    doc = diagram_to_json(z4_diagrams["G"])
    (edge,) = [e for e in doc["edge"] if e["bimodule"]["character"]["theta"]
               and e["bimodule"]["coset_rep"] == [0]]
    edge["bimodule"]["character"]["theta"] = {"[" * 5000 + "2" + "]" * 5000: "1/2"}
    code, out, err = run(capsys, "invariant", write_json(tmp_path, "deep.json", doc))
    assert (code, out) == (1, "")
    assert err.startswith("error: bad element key '[[[") and err.count("\n") == 1


def _nest(text, depth):
    return "[" * depth + text + "]" * depth


@pytest.mark.parametrize(
    "path, value, head",
    [
        (("edge", 1, "bimodule", "character", "theta"), {_nest("2", 5000): "1/2"},
         "error: bad element key '[[["),
        (("edge", 0, "bimodule", "coset_rep"), _nest("0", 900), "error: element [[["),
        (("edge", 1, "bimodule", "character", "theta"), {"[2]": "1" * 100_000},
         "error: not a rational number: '111"),
        (("edge", 0), list(range(100_000)), "error: edge [0, 1, 2,"),
        (("group", "cyclic_factors"), list(range(100_000)), "error: cyclic factors (0, 1, 2,"),
    ],
    ids=["theta-key-5000-deep", "coset-rep-900-deep", "phase-of-100000-digits",
         "edge-of-100000-items", "cyclic-factors-of-100000-items"],
)
def test_error_lines_cut_the_input_they_repeat(tmp_path, z4_diagrams, path, value, head):
    # a nested list is spliced in as text: encoding it would recurse once per level
    doc = diagram_to_json(z4_diagrams["G"])
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@"
    text = json.dumps(doc).replace('"@"', value if isinstance(value, str) else json.dumps(value))
    (tmp_path / "big.json").write_text(text)
    # a fresh interpreter, so that the 900 levels parse below the recursion limit
    proc = run_process("invariant", str(tmp_path / "big.json"))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(head) and proc.stderr.count("\n") == 1
    assert len(proc.stderr) < 120


def test_repeated_malformed_bimodule_fails_at_its_first_edge(tmp_path, z4_diagrams, capsys):
    # edges that repeat a bimodule share one parse, so the first bad one decides
    doc = diagram_to_json(z4_diagrams["H"])
    bad = {**doc["edge"][1]["bimodule"], "character": {"theta": {"[1]": "1/3"}}}
    doc["edge"][1]["bimodule"] = bad
    doc["edge"] += [{"bimodule": bad, "multiplicity": 2}, {"bimodule": {**bad, "coset_rep": 0}}]
    code, out, err = run(capsys, "invariant", write_json(tmp_path, "bad.json", doc))
    assert (code, out, err) == (1, "", "error: character table is not a homomorphism\n")


def _fresh_interpreter(probe: str) -> str:
    """What ``probe`` prints, run in a new interpreter that imports afinv from this tree."""
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_imports_only_the_standard_library():
    # the README and pyproject.toml promise no runtime dependencies
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import afinv.cli\n"
        "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(new - set(sys.stdlib_module_names) - {'afinv'}))\n"
    )
    assert _fresh_interpreter(probe) == "[]"


def test_cli_import_loads_no_code_generation_modules():
    # every request is a fresh process; dataclasses and the inspect, ast and
    # dis modules it pulls in cost start-up time that no afinv path needs
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import afinv.cli, afinv.crossed\n"
        "new = set(sys.modules) - before\n"
        "print(sorted(new & {'dataclasses', 'inspect', 'ast', 'dis'}))\n"
    )
    assert _fresh_interpreter(probe) == "[]"


def test_serialize_import_loads_no_decision_layer():
    # the wire formats read no verdict, so they need nothing of afinv.compare
    probe = "import sys, afinv.serialize\nprint('afinv.compare' in sys.modules)\n"
    assert _fresh_interpreter(probe) == "False"


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["qsystems", "G"], []),
        (["bimodules", "G", "--source", "1", "--target", "2"], []),
        (["fusion-table", "G"], []),
        (["oracle", "G"], ["crossed"]),
        (["k0", "--matrix", "M"], ["k0"]),
    ],
)
def test_cli_compiles_only_the_modules_a_subcommand_runs(argv, loaded, tmp_path):
    # every request is a fresh process, and compiling a module it never calls is start-up waste
    paths = {"G": write_json(tmp_path, "z4.json", {"cyclic_factors": [4]}),
             "M": write_json(tmp_path, "m.json", {"rows": [[2, 1], [1, 1]]})}
    probe = (
        "import json, sys, types\n"
        "from afinv.cli import main\n"
        f"assert main({[paths.get(a, a) for a in argv]!r}) == 0\n"
        "lazy = ('compare', 'crossed', 'diagrams', 'k0')\n"
        "print(json.dumps([n for n in lazy if type(sys.modules['afinv.' + n]) is types.ModuleType]))\n"
    )
    assert json.loads(_fresh_interpreter(probe).splitlines()[-1]) == loaded


def test_cli_import_reuses_a_module_imported_before():
    # a second copy would hold its own classes and caches beside the first's
    probe = (
        "import sys, afinv.diagrams\n"
        "before = afinv.diagrams\n"
        "import afinv.cli\n"
        "print(afinv.cli.diagrams is before is afinv.diagrams is sys.modules['afinv.diagrams'])\n"
    )
    assert _fresh_interpreter(probe) == "True"


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


@pytest.mark.parametrize("shape", ["vertex", "levels"])
def test_bad_generator_weight_is_refused_before_any_bimodule_is_parsed(
    shape, tmp_path, z4_diagrams, capsys, monkeypatch
):
    # the weight rule needs level 0 only, not the edges, which are O(n^2) to parse
    doc = diagram_to_json(z4_diagrams["F"])
    if shape == "levels":
        _two_vertex_level(doc, {})
    doc["generator_weights"][0] = True

    def refuse(*args):
        raise AssertionError("a bimodule was parsed before the generator weights were checked")

    monkeypatch.setattr("afinv.serialize.bimodule_from_json", refuse)
    code, out, err = run(capsys, "invariant", write_json(tmp_path, "weight.json", doc))
    assert (code, out, err) == (1, "", "error: generator weights must be integers\n")


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


PYPROJECT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "pyproject.toml")


def test_console_script_runs_the_function_of_the_main_block():
    # a regex, not tomllib, so that the test runs on Python 3.10 too
    with open(PYPROJECT, encoding="utf-8") as fh:
        scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", fh.read(), re.M | re.S)
    target = re.search(r'^afinv\s*=\s*"afinv\.cli:(\w+)"\s*$', scripts.group(1), re.M)
    with open(cli.__file__, encoding="utf-8") as fh:
        block = re.search(r'^if __name__ == "__main__":\n    (\w+)\(\)\n\Z', fh.read(), re.M)
    assert target and block and target.group(1) == block.group(1)
    assert callable(getattr(cli, target.group(1)))


WORKFLOW = os.path.join(os.path.dirname(PYPROJECT), ".github", "workflows", "tests.yml")


def test_a_compiled_copy_prints_what_the_source_tree_prints(tmp_path, z4_diagrams):
    """CI's last step, with a bytecode-compiled copy of the package in place of ``pip install .``.

    The step runs each request of its list on the installed ``afinv`` and on
    ``python -m afinv.cli`` from the source tree, and requires the same exit
    code, stdout and stderr.  Here the copy is imported from outside the tree,
    with no ``src`` on the path, and run through ``afinv.cli.run`` as the
    console script runs it.
    """
    with open(WORKFLOW, encoding="utf-8") as fh:
        listed = re.search(r"<<'REQUESTS'\n(.*?)\n *REQUESTS\n", fh.read(), re.S).group(1)
    requests = [line.split() for line in listed.splitlines()]
    weighted = diagram_to_json(z4_diagrams["F"])
    weighted["generator_weights"][0] = True
    c = 6 * 10**4299
    inputs = {
        "z4.json": {"cyclic_factors": [4]},
        "m.json": {"rows": [[2, 1], [1, 1]]},
        "f.json": diagram_to_json(z4_diagrams["F"]),
        "bool-weight.json": weighted,
        "digits.json": {"rows": [[c, c], [c, c]]},
    }
    assert {a for argv in requests for a in argv if a.endswith(".json")} <= set(inputs)
    work = tmp_path / "work"
    work.mkdir()
    for name, doc in inputs.items():
        write_json(work, name, doc)

    copy = tmp_path / "site"
    shutil.copytree(os.path.dirname(os.path.abspath(afinv.__file__)), copy / "afinv")
    assert compileall.compile_dir(str(copy), quiet=1)
    installed = dict(child_env(), PYTHONPATH=str(copy))

    def start(env, *argv):
        return subprocess.Popen([sys.executable, *argv], cwd=work, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    where, _ = start(installed, "-c", "import afinv; print(afinv.__file__)").communicate(timeout=60)
    assert where.decode().startswith(str(copy / "afinv") + os.sep)
    for argv in requests:
        # the two sides of a request run at once
        both = (start(installed, "-c", "from afinv.cli import run; run()", *argv),
                start(child_env(), "-m", "afinv.cli", *argv))
        got, want = ((p.communicate(timeout=60), p.returncode) for p in both)
        assert got == want, argv


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["invariant", "F"], id="exit-0"),
        pytest.param(["qsystems", "missing"], id="exit-1"),
        pytest.param(["compare", "E", "F"], id="exit-3"),
        pytest.param(["compare", "E", "E"], id="exit-4"),
        pytest.param(["--help"], id="help"),
    ],
)
def test_process_matches_in_process_main(argv, files, capsys, monkeypatch):
    # argparse wraps help to the terminal width, so fix it for both runs
    monkeypatch.setenv("COLUMNS", "80")
    argv = [files.get(a, a) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    proc = run_process(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)


def test_a_closed_output_pipe_ends_without_a_traceback(files):
    # Z/12's table is about 600 kB, more than a pipe holds, so the write meets the closed end
    proc = subprocess.Popen(
        [sys.executable, "-m", "afinv.cli", "fusion-table", files["z12"], "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert first == b"{\n"
    assert (proc.wait(timeout=60), err) == (1, b"")


def test_output_redirected_to_files_is_flushed_whole(files, capsys, tmp_path):
    # a file, unlike a terminal, is block-buffered (child_env drops PYTHONUNBUFFERED):
    # the process ends without an interpreter shutdown, so only run's own flushes
    # can write the last block
    def run_to_files(*argv):
        out, err = tmp_path / "out", tmp_path / "err"
        with open(out, "wb") as fout, open(err, "wb") as ferr:
            proc = subprocess.run([sys.executable, "-m", "afinv.cli", *argv],
                                  stdout=fout, stderr=ferr, env=child_env(), timeout=60)
        return proc.returncode, out.read_bytes(), err.read_text()

    argv = ["fusion-table", files["z12"], "--format", "json"]
    assert main(argv) == 0
    printed = capsys.readouterr().out.encode()
    assert len(printed) > 500_000
    assert run_to_files(*argv) == (0, printed, "")
    code, out, err = run_to_files("qsystems", files["missing"])
    assert (code, out) == (1, b"")
    assert err.count("\n") == 1 and err.startswith("error:")


def test_stdin_input(files, capsys, monkeypatch, z4):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(group_to_json(z4))))
    code, out, _ = run(capsys, "qsystems", "-")
    assert code == 0
    assert "Q-systems of Hilb(Z/4): 3" in out


def test_output_is_deterministic(files, capsys):
    _, first, _ = run(capsys, "invariant", files["F"], "--format", "json")
    _, second, _ = run(capsys, "invariant", files["F"], "--format", "json")
    assert first == second


# ------------------------------------------------------------- input contract

# The kind of document each subcommand reads, and its arguments around the
# generated document {input} (compare takes the valid diagram F second).
CONTRACT_COMMANDS = {
    "fusion-table": ("group", ["{input}", "--max-group-order", "16"]),
    "qsystems": ("group", ["{input}", "--max-group-order", "16"]),
    "bimodules": (
        "group", ["{input}", "--source", "1", "--target", "2", "--max-group-order", "16"]
    ),
    "invariant": ("diagram", ["{input}", "--max-group-order", "16"]),
    "compare": ("diagram", ["{input}", "{F}", "--max-group-order", "16"]),
    "oracle": ("group", ["{input}", "--max-group-order", "16"]),
    "k0": ("matrix", ["--matrix", "{input}"]),
}


@pytest.mark.parametrize("command", sorted(CONTRACT_COMMANDS))
def test_any_json_input_ends_in_a_documented_exit(command, z4_diagrams):
    F = diagram_to_json(z4_diagrams["F"])
    two_level = diagram_to_json(z4_diagrams["F"])
    _two_vertex_level(two_level, {})
    valid = {
        "group": [{"cyclic_factors": [4]}, {"cyclic_factors": [2, 2]}],
        "diagram": [F, two_level],
        # written out, so the fuzzer also mutates a labels list, which the reader still checks
        "matrix": [{"rows": [[2, 2], [2, 2]], "labels": ["a", "b"]}],
    }
    kind, template = CONTRACT_COMMANDS[command]

    with tempfile.TemporaryDirectory() as tmp:
        F_path = os.path.join(tmp, "F.json")
        with open(F_path, "w") as fh:
            json.dump(F, fh)
        path = os.path.join(tmp, "input.json")
        argv = [command] + [a.format(input=path, F=F_path) for a in template]

        @settings(max_examples=50, derandomize=True, deadline=None, database=None)
        @given(doc=any_or_mutated(valid[kind]))
        def check(doc):
            with open(path, "w") as fh:
                json.dump(doc, fh)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            err = err.getvalue()
            assert code in {0, 1, 2, 3, 4}, (code, err)
            assert "Traceback" not in err
            if code in {1, 2}:
                lines = err.splitlines()
                assert len(lines) == 1, err
                assert lines[0].startswith(("error:", "internal error:")), err

        check()

