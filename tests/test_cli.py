import hashlib
import io
import json
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from properk.abelian import IntMatrix
from properk.cli import main, write_report
from conftest import TREE_DUMPS, mislabeled_edge_dump, vertex_edge_dump


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_amalgam_sl2z_check(capsys):
    code, out = run(capsys, ["amalgam", "--r", "2", "--m", "3,2", "--theory", "k", "--check"])
    assert code == 0
    report = json.loads(out)
    assert report["theory"] == "k" and report["period"] == 2
    assert report["degrees"]["0"]["resolved"] == {"rank": 8, "torsion": []}
    assert report["degrees"]["-1"]["resolved"] == {"rank": 0, "torsion": []}
    assert all(v["verdict"] == "EXACT_MATCH" for v in report["verdicts"])


def test_amalgam_file_input(tmp_path, capsys):
    path = tmp_path / "psl2z.json"
    path.write_text(json.dumps({"r": [1], "m": [3, 2]}))
    code, out = run(capsys, ["amalgam", "--file", str(path), "--theory", "ko", "--check"])
    assert code == 0
    report = json.loads(out)
    assert report["degrees"]["0"]["resolved"]["rank"] == 3
    assert report["degrees"]["-1"]["resolved"] == {"rank": 0, "torsion": [2, 2]}
    assert report["degrees"]["-6"]["resolved"] == {"rank": 1, "torsion": []}


def test_coxeter_pentagon_both_models(tmp_path, capsys):
    pentagon = {"size": 5, "m": [[1 if i == j else (2 if (abs(i - j) in (1, 4)) else 0)
                                  for j in range(5)] for i in range(5)]}
    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps(pentagon))
    code, out = run(capsys, ["coxeter", "--file", str(path), "--theory", "ko",
                             "--model", "both", "--check"])
    assert code == 0
    report = json.loads(out)
    assert report["models_agree"] is True
    assert report["degrees"]["0"]["resolved"]["rank"] == 11
    assert report["degrees"]["-1"]["resolved"]["torsion"] == [2] * 11
    assert all(v["verdict"] == "EXACT_MATCH" for v in report["verdicts"])


def test_coxeter_empty_matrix(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"size": 0, "m": []}))
    code, out = run(capsys, ["coxeter", "--file", str(path), "--theory", "k"])
    assert code == 0
    report = json.loads(out)
    assert report["degrees"]["0"]["resolved"] == {"rank": 1, "torsion": []}


def test_coxeter_polygon_extension_is_not_a_failure(capsys):
    matrix = "1,3,3;3,1,3;3,3,1"
    code, out = run(capsys, ["coxeter", "--matrix", matrix, "--theory", "ko", "--check"])
    assert code == 0
    report = json.loads(out)
    verdicts = {v["degree"]: v["verdict"] for v in report["verdicts"]}
    assert verdicts[-1] == "MATCH_UP_TO_EXTENSION"
    assert verdicts[-2] == "EXACT_MATCH"


def test_deterministic_output(capsys):
    argv = ["coxeter", "--matrix", "1,3,0,0;3,1,3,0;0,3,1,3;0,0,3,1",
            "--theory", "ko", "--model", "both", "--check"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_deterministic_across_processes():
    # byte-identical output under different hash seeds
    import os
    import subprocess
    import sys
    from pathlib import Path

    import properk

    argv = [sys.executable, "-m", "properk.cli", "coxeter", "--matrix",
            "1,3,3,0;3,1,0,3;3,0,1,3;0,3,3,1", "--theory", "ko",
            "--model", "both", "--check"]
    # The children import the same properk as this process, installed or not.
    src = str(Path(properk.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outputs = []
    for seed in ("0", "1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run(argv, capture_output=True, env=env)
        assert proc.returncode == 0, proc.stdout
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


def closed_stdout_child(argv: list[str], read: int) -> tuple[int, bytes]:
    """Run ``properk`` with ``argv`` in a child process, with
    PYTHONUNBUFFERED unset, whose reader takes ``read`` bytes of stdout and
    closes it; the child's exit status and stderr."""
    import os
    import subprocess

    import properk

    src = str(Path(properk.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen([sys.executable, "-m", "properk.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    return proc.returncode, stderr


def test_a_closed_stdout_ends_with_status_1_and_no_traceback():
    # The D_inf^3 Davis complex is a report of about 500 KB; the reader
    # takes 100 bytes and closes the pipe, as `| head -c 100` does.
    dinf3 = ";".join(",".join("1" if a == b else "0" if a // 2 == b // 2 else "2" for b in range(6))
                     for a in range(6))
    status, stderr = closed_stdout_child(
        ["coxeter", "--matrix", dinf3, "--emit", "complex", "--theory", "ko"], 100)
    assert status == 1
    assert b"Traceback" not in stderr, stderr.decode()


def test_a_short_report_to_a_closed_stdout_ends_with_status_1_and_nothing_on_stderr():
    # A report shorter than stdout's buffer: the child writes it only when
    # stdout is flushed, after the reader has closed the pipe.
    status, stderr = closed_stdout_child(["amalgam", "--r", "2", "--m", "3,2", "--theory", "k"], 0)
    assert status == 1
    assert stderr == b""


def test_emit_complex_round_trip(tmp_path, capsys):
    argv = ["amalgam", "--r", "2", "--m", "3,2", "--theory", "k"]
    code, direct = run(capsys, argv)
    assert code == 0
    dump = tmp_path / "complex.json"
    code, out = run(capsys, argv + ["--emit", "complex"])
    assert code == 0
    dump.write_text(json.dumps(json.loads(out)["complex"]))
    code, replayed = run(capsys, ["amalgam", "--r", "2", "--m", "3,2", "--theory", "k",
                                  "--from-complex", str(dump)])
    assert code == 0
    a, b = json.loads(direct), json.loads(replayed)
    assert a["degrees"] == b["degrees"]


def test_coxeter_from_complex_round_trip(tmp_path, capsys):
    argv = ["coxeter", "--matrix", "1,3,0,0;3,1,3,0;0,3,1,3;0,0,3,1", "--theory", "ko",
            "--model", "bestvina"]
    code, direct = run(capsys, argv)
    assert code == 0
    code, out = run(capsys, argv + ["--emit", "complex"])
    assert code == 0
    dump = tmp_path / "path3.json"
    dump.write_text(json.dumps(json.loads(out)["complex"]))
    code, replayed = run(capsys, argv + ["--from-complex", str(dump)])
    assert code == 0
    assert json.loads(direct)["degrees"] == json.loads(replayed)["degrees"]


def test_coxeter_from_complex_needs_no_matrix(tmp_path, capsys):
    # --emit complex, then --from-complex without --matrix: same page, same
    # abutment, and the report names the file the complex came from.
    argv = ["coxeter", "--matrix", "1,3,0;3,1,2;0,2,1", "--theory", "ko", "--model", "davis"]
    code, out = run(capsys, argv + ["--emit", "complex"])
    assert code == 0
    dump = tmp_path / "davis.json"
    dump.write_text(json.dumps(json.loads(out)["complex"]))
    loaded = ["coxeter", "--theory", "ko", "--from-complex", str(dump)]
    for emit in ("e2page", "result"):
        code, direct = run(capsys, argv + ["--emit", emit])
        assert code == 0
        code, replayed = run(capsys, loaded + ["--emit", emit])
        assert code == 0, replayed
        a, b = json.loads(direct), json.loads(replayed)
        if emit == "e2page":
            assert a == b
        else:
            assert a["degrees"] == b["degrees"]
            assert b["group"] == f"Coxeter group from {dump}"
    # --check still needs the matrix for its closed form.
    code, out = run(capsys, loaded + ["--check"])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "invalid_input"


def test_emit_cochain_and_e2page_are_json(capsys):
    code, out = run(capsys, ["amalgam", "--r", "1", "--m", "2,2", "--theory", "ko",
                             "--emit", "cochain"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["cochains"]) == 8
    blocks = payload["cochains"][0]["differentials"][0]
    assert "provenance" in blocks and blocks["provenance"][0]["alpha"] in (1, -1)
    code, out = run(capsys, ["amalgam", "--r", "1", "--m", "2,2", "--theory", "ko",
                             "--emit", "e2page"])
    assert code == 0
    page = json.loads(out)
    assert page["rows"]["0"][0] == {"rank": 3, "torsion": []}


def test_unsupported_stabilizer_exit_code(capsys):
    # contains an A3 = S4 spherical subset
    code, out = run(capsys, ["coxeter", "--matrix", "1,3,2,3;3,1,3,2;2,3,1,3;3,2,3,1",
                             "--theory", "k"])
    assert code == 1
    err = json.loads(out)["error"]
    assert err["kind"] == "unsupported_stabilizer"
    assert err["subset"] == ["s0", "s1", "s2"]


def test_even_edge_ko_exit_code(capsys):
    code, out = run(capsys, ["amalgam", "--r", "2", "--m", "3,2", "--theory", "ko"])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "unsupported_restriction"


def test_invalid_input_exit_code(capsys):
    code, out = run(capsys, ["coxeter", "--matrix", "1,3;4,1"])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "invalid_input"
    code, out = run(capsys, ["amalgam", "--r", "1", "--m", "1,2"])
    assert code == 1
    code, out = run(capsys, ["coxeter", "--theory", "k"])
    assert code == 1


@pytest.mark.parametrize("source", ["matrix", "file"])
def test_ragged_coxeter_matrix_is_invalid_input(tmp_path, capsys, source):
    # The last row is short; the symmetry check of the first row reads it.
    if source == "matrix":
        argv, where = ["--matrix", "1,2,2;2,1,2;2"], "bad inline matrix"
    else:
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps({"size": 3, "m": [[1, 2, 2], [2, 1, 2], [2]]}))
        argv, where = ["--file", str(path)], "bad Coxeter JSON"
    code, out = run(capsys, ["coxeter"] + argv + ["--theory", "k"])
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "invalid_input", "message": f"{where}: matrix must be square"}


def test_check_without_closed_form_errors(capsys):
    # braid star: neither right-angled nor a recognized family
    code, out = run(capsys, ["coxeter", "--matrix", "1,3,3,3;3,1,0,0;3,0,1,0;3,0,0,1",
                             "--theory", "k", "--check"])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "invalid_input"


def test_mismatch_exit_code_via_compare():
    # The closed forms agree with the pipeline on every valid input, so the
    # MISMATCH exit path is exercised at the verdict level.
    from properk.ahss import MISMATCH, ClosedForm, assemble_abutment, build_e2
    from properk.abelian import AbGroup
    from properk.orbit import AmalgamSpec, build_amalgam_orbit_complex
    from properk.cli import _verdict_payload

    x = build_amalgam_orbit_complex(AmalgamSpec(r=(2,), m=(3, 2)))
    page = build_e2(x, "k")
    bad = ClosedForm((AbGroup.free(9), AbGroup.zero()))
    payload, mismatch = _verdict_payload(assemble_abutment(page), bad)
    assert mismatch is True
    assert any(v["verdict"] == MISMATCH for v in payload)


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(capsys, ["amalgam", "--r", "1", "--m", "2,2", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["degrees"]["0"]["resolved"]["rank"] == 3


@pytest.mark.parametrize("argv", [
    ["amalgam", "--r", "3", "--m", "5,7"],
    ["amalgam", "--r", "2", "--m", "3,2", "--theory", "ko"],  # an error report
    ["coxeter", "--matrix", "1,2;2,1", "--emit", "complex"],
], ids=["result", "error", "complex"])
@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_unwritable_out_is_invalid_input(tmp_path, capsys, argv, where):
    # Whatever the report, an --out file that cannot be written is refused
    # on stdout instead of ending in a traceback.
    target = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    code, out = run(capsys, argv + ["--out", str(target)])
    assert code == 1
    err = json.loads(out)["error"]
    assert err["kind"] == "invalid_input"
    assert str(target) in err["message"]


def test_both_models_enumerate_once_and_assemble_one_abutment(monkeypatch, capsys):
    # One spherical poset per matrix: the Davis model, the Bestvina model and
    # the right-angled closed form all read it.  The two pages are compared
    # whole, and only the primary (Davis) page's abutment is assembled, once
    # for the result and the verdicts.
    import properk.cli as cli
    from properk import coxeter

    enumerated, assembled = [], []
    enumerate_spherical_subsets, assemble_abutment = (
        coxeter.enumerate_spherical_subsets, cli.assemble_abutment)

    def counting_enumerate(matrix):
        enumerated.append(matrix)
        return enumerate_spherical_subsets(matrix)

    def counting_assemble(page):
        assembled.append(page)
        return assemble_abutment(page)

    monkeypatch.setattr(coxeter, "enumerate_spherical_subsets", counting_enumerate)
    monkeypatch.setattr(cli, "assemble_abutment", counting_assemble)
    code, out = run(capsys, ["coxeter", "--matrix", "1,2,0,2;2,1,2,0;0,2,1,2;2,0,2,1",
                             "--theory", "ko", "--model", "both", "--check"])
    assert code == 0
    report = json.loads(out)
    assert report["models_agree"] is True
    assert all(v["verdict"] == "EXACT_MATCH" for v in report["verdicts"])
    assert len(enumerated) == 1
    assert len(assembled) == 1


def test_amalgam_from_complex_needs_no_parameters(tmp_path, capsys):
    # --emit complex, then --from-complex without --r/--m, for K and KO.
    for theory in ("k", "ko"):
        argv = ["amalgam", "--r", "3", "--m", "5,7", "--theory", theory]
        code, direct = run(capsys, argv)
        assert code == 0
        code, out = run(capsys, argv + ["--emit", "complex"])
        assert code == 0
        dump = tmp_path / f"complex_{theory}.json"
        dump.write_text(json.dumps(json.loads(out)["complex"]))
        code, replayed = run(capsys, ["amalgam", "--theory", theory,
                                      "--from-complex", str(dump)])
        assert code == 0, replayed
        assert json.loads(direct)["degrees"] == json.loads(replayed)["degrees"]


def test_amalgam_from_complex_checks_edge_orders_for_ko(tmp_path, capsys):
    code, out = run(capsys, ["amalgam", "--r", "2", "--m", "3,2", "--emit", "complex"])
    assert code == 0
    dump = tmp_path / "sl2z.json"
    dump.write_text(json.dumps(json.loads(out)["complex"]))
    code, out = run(capsys, ["amalgam", "--theory", "ko", "--from-complex", str(dump)])
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "unsupported_restriction",
        "message": "KO^-1 restriction for an even-order cyclic subgroup Z2 is not determined "
                   "by the supported theory; odd edge orders only"}


def test_a_davis_dump_gets_one_page_under_both_subcommands(tmp_path, capsys):
    # Its 1-cells have Z/2 stabilizers, which amalgam once read as even edge
    # orders r_i and refused under KO; a loaded complex is refused only
    # where its restrictions need it, as under coxeter.
    code, out = run(capsys, ["coxeter", "--matrix", "1,3,3;3,1,3;3,3,1", "--model", "davis",
                             "--emit", "complex"])
    assert code == 0
    dump = tmp_path / "davis.json"
    dump.write_text(out)
    pages = [run(capsys, [command, "--theory", "ko", "--from-complex", str(dump),
                          "--emit", "e2page"])
             for command in ("amalgam", "coxeter")]
    assert pages[0] == pages[1] and pages[0][0] == 0


def test_no_collapse_error_kind(tmp_path, capsys):
    # S^3 with trivial stabilizers: H^0 and H^3 are both Z, so d_3 of the
    # K-theory page has nonzero source and target.
    point = {"label": "c", "stabilizer": "trivial"}
    sphere = [{"dim": 0, "cells": [point], "incidence": [[]], "descriptors": []},
              {"dim": 1, "cells": [], "incidence": [], "descriptors": []},
              {"dim": 2, "cells": [], "incidence": [], "descriptors": []},
              {"dim": 3, "cells": [point]}]
    dump = tmp_path / "s3.json"
    dump.write_text(json.dumps(sphere))
    code, out = run(capsys, ["amalgam", "--theory", "k", "--from-complex", str(dump)])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "no_collapse"


def test_model_disagreement_error_kind(monkeypatch, capsys):
    import properk.cli as cli
    from properk.coxeter import CoxeterMatrix, build_davis_orbit_complex

    # Let the Bestvina builder answer for another group.
    other = CoxeterMatrix.from_rows([[1, 0], [0, 1]])
    monkeypatch.setattr(cli, "build_bestvina_orbit_complex",
                        lambda matrix: build_davis_orbit_complex(other))
    code, out = run(capsys, ["coxeter", "--matrix", "1,2;2,1", "--theory", "k",
                             "--model", "both"])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "model_disagreement"


def second_page_replaced(monkeypatch, replace):
    """Make ``cli.build_e2`` hand ``replace(page)`` back for its second
    page of a run: the Bestvina page under --model both."""
    import properk.cli as cli

    build_e2, calls = cli.build_e2, []

    def patched(complex_, theory):
        calls.append(complex_)
        page = build_e2(complex_, theory)
        return replace(page) if len(calls) == 2 else page

    monkeypatch.setattr(cli, "build_e2", patched)
    return calls


@pytest.mark.parametrize("emit", ["result", "e2page"])
def test_model_both_compares_whole_pages(monkeypatch, capsys, emit):
    from properk.abelian import AbGroup
    from properk.ahss import E2Page

    argv = ["coxeter", "--matrix", "1,0,2;0,1,3;2,3,1", "--theory", "ko", "--model", "both",
            "--emit", emit]
    code, expected = run(capsys, argv)
    assert code == 0
    # A page one dimension longer, zero above the other's top, agrees.
    calls = second_page_replaced(monkeypatch, lambda page: E2Page(
        page.theory, tuple(row + (AbGroup.zero(),) for row in page.rows)))
    assert run(capsys, argv) == (0, expected)
    assert len(calls) == 2
    # One entry changed is a disagreement, whatever the emit.
    monkeypatch.undo()
    second_page_replaced(monkeypatch, lambda page: E2Page(
        page.theory, ((AbGroup.free(7),) + page.rows[0][1:],) + page.rows[1:]))
    code, out = run(capsys, argv)
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "model_disagreement",
        "message": "Davis and Bestvina E2 pages disagree; this is a bug, please report it"}


def rebind_counting(monkeypatch, calls: list) -> None:
    """Rebind the builders and build_e2 in cli to wrappers that record
    each call's name in ``calls``."""
    import properk.cli as cli

    for name in ("build_davis_orbit_complex", "build_bestvina_orbit_complex", "build_e2"):
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, name=name, original=original:
                            calls.append(name) or original(*a))


@pytest.mark.parametrize("emit", ["result", "e2page"])
def test_model_both_builds_both_models_through_rebound_names(monkeypatch, capsys, emit):
    # The tracer rebinds the builders and build_e2 by name, so the run must
    # look them up in cli when it is called; a page or a result builds and
    # pages both models.
    calls = []
    rebind_counting(monkeypatch, calls)
    code, _ = run(capsys, ["coxeter", "--matrix", "1,3;3,1", "--emit", emit])
    assert code == 0
    assert calls == ["build_davis_orbit_complex", "build_bestvina_orbit_complex"] + ["build_e2"] * 2


@pytest.mark.parametrize("emit", ["complex", "cochain"])
def test_dump_emits_build_only_the_printed_model(monkeypatch, capsys, emit):
    # --emit complex and cochain print the Davis model alone under the
    # default --model both, so the Bestvina model is never built; the
    # report keeps the bytes of a --model davis run.
    calls = []
    rebind_counting(monkeypatch, calls)
    argv = ["coxeter", "--matrix", "1,0,2,2;0,1,2,2;2,2,1,0;2,2,0,1", "--theory", "ko",
            "--emit", emit]
    code, out = run(capsys, argv)
    assert code == 0
    assert calls == ["build_davis_orbit_complex"]
    assert json.loads(out).get("model", "davis") == "davis"
    assert run(capsys, argv + ["--model", "davis"]) == (0, out)


EDGE = [{"dim": 0, "cells": [{"label": "v", "stabilizer": "trivial"}],
         "incidence": [[1]],
         "descriptors": [{"row": 0, "col": 0, "descriptor": {"kind": "cyclic_in_cyclic"}}]},
        {"dim": 1, "cells": [{"label": "e", "stabilizer": "trivial"}]}]


# A cell whose label is not a JSON string, the second 0-cell.
ODD_LABEL = [{"dim": 0, "cells": [{"label": "v", "stabilizer": "trivial"},
                                  {"label": {"weird": [1, 2]}, "stabilizer": "trivial"}]}]


@pytest.mark.parametrize("command", ["amalgam", "coxeter"])
@pytest.mark.parametrize("dump", [[{"cells": []}], {"dim": 0}, EDGE, ODD_LABEL],
                         ids=["no-dim", "not-a-list", "descriptor-without-extra",
                              "label-not-a-string"])
def test_malformed_complex_dump_is_invalid_input(tmp_path, capsys, command, dump):
    # A cell layer without "dim" (KeyError), an object instead of a list of
    # layers (TypeError), a descriptor without its parameters (IndexError)
    # and a label that is not a string are refused like any other bad input.
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(dump))
    code, out = run(capsys, [command, "--theory", "k", "--from-complex", str(path)])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["kind"] == "invalid_input"
    if dump is ODD_LABEL:
        assert error["message"] == "bad orbit complex JSON: label of cell 1 at dim 0 is not a string"


def one_edge_dump(vertex, edge, descriptor) -> list[dict]:
    """A vertex and one edge through it, the edge's stabilizer included in
    the vertex's along ``descriptor``."""
    return [{"dim": 0, "cells": [{"label": "v", "stabilizer": vertex}],
             "incidence": [[1]],
             "descriptors": [{"row": 0, "col": 0, "descriptor": descriptor}]},
            {"dim": 1, "cells": [{"label": "e", "stabilizer": edge}]}]


@pytest.mark.parametrize("dump, message", [
    (one_edge_dump({"cyclic": 3}, {"cyclic": 2},
                   {"kind": "elem2_subset", "sub": {"cyclic": 2}, "big": {"cyclic": 3},
                    "extra": [0]}),
     "elem2_subset descriptor needs an elementary abelian 2-group as big, got Z3"),
    (one_edge_dump({"cyclic": 3}, {"cyclic": 3},
                   {"kind": "cyclic_in_cyclic", "sub": {"cyclic": 3}, "big": {"cyclic": 3},
                    "extra": [3]}),
     "cyclic_in_cyclic descriptor needs an extra of length 2, got 1"),
    (one_edge_dump({"dihedral_odd": 3}, {"cyclic": 2},
                   {"kind": "reflection_in_dihedral", "sub": {"cyclic": 2},
                    "big": {"dihedral_odd": 3}}),
     "reflection_in_dihedral descriptor needs an extra of length 1, got 0"),
    (mislabeled_edge_dump(),
     "cyclic_in_cyclic descriptor has sub D5, but its kind and extra give Z3"),
    (one_edge_dump({"cyclic": 6}, {"cyclic": 3},
                   {"kind": "cyclic_in_cyclic", "sub": {"cyclic": 3}, "big": {"cyclic": 7},
                    "extra": [3, 2]}),
     "cyclic_in_cyclic descriptor has big Z7, but its kind and extra give Z6"),
    (one_edge_dump({"cyclic": 6}, {"cyclic": 3},
                   {"kind": "cyclic_in_cyclic", "big": {"cyclic": 6}, "extra": [3, 2]}),
     "'sub'"),
], ids=["elem2-subset-of-cyclic", "cyclic-one-extra", "reflection-no-extra",
        "written-sub-differs", "written-big-differs", "no-sub"])
def test_malformed_descriptor_names_its_kind(tmp_path, capsys, dump, message):
    # The message names the kind whose parameters do not fit, rather than
    # a bare exception text such as "tuple index out of range".  The
    # written sub and big must be the groups that kind and extra give:
    # read from those alone, the mislabeled edge would replay as Z3 <= Z6
    # and amalgam --r 3 --m 2,5 --check would answer EXACT_MATCH.
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(dump))
    code, out = run(capsys, ["coxeter", "--theory", "ko", "--from-complex", str(path)])
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "invalid_input", "message": f"bad orbit complex JSON: {message}"}


# SHA-256 of the --emit cochain report, k then ko.  They were recorded while
# each cochain complex still stored its (always zero) cross blocks; the
# "cross" key now comes from SplitCochainComplex.cross_d and must print the
# same bytes.
COCHAIN_DIGESTS = [
    (["amalgam", "--r", "3,5", "--m", "3,7,5"],
     "a9302c8742528a31104a140bf52813e7dec229da81b28446d438cf880ef602b1",
     "2a97b76d8fe5ab48081ffab842ac1472d2e6d4ebfaabbdfe601cf175f4b761b4"),
    (["coxeter", "--matrix", "1,3,0;3,1,3;0,3,1"],
     "87385270d16394c262c11873ec396314d00057bee36c920a319873716edd93e1",
     "0fc1c0ee26c74b8f176a07ec0cb668ed4afdb18d086acfae6c027518c89c74c8"),
    (["coxeter", "--matrix", "1,2,0,2;2,1,2,0;0,2,1,2;2,0,2,1", "--model", "davis"],
     "ff4d07775e22c3031447b9f70c52bc802eaedcaa25e8e98e92a53a915ac08af9",
     "8ea3f2c5191d5bddba66e722610185c164bd8a1b45d04d4847be32d630a6831c"),
]


@pytest.mark.parametrize("argv, k_digest, ko_digest", COCHAIN_DIGESTS,
                         ids=["amalgam", "coxeter-path", "coxeter-square-davis"])
def test_emit_cochain_bytes_are_pinned(capsys, argv, k_digest, ko_digest):
    for theory, expected in (("k", k_digest), ("ko", ko_digest)):
        code, out = run(capsys, argv + ["--theory", theory, "--emit", "cochain"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected, (argv, theory)


def parallel_edges_dump(coordinates, signs) -> list[dict]:
    """Vertices u and w with stabilizer (Z/2)^2; one edge with stabilizer
    Z/2 and boundary w - u per coordinate, embedded at that coordinate of
    both vertices; and one 2-cell with stabilizer Z/2 whose boundary is the
    sum of the edges with the given signs."""
    z2, v4 = {"cyclic": 2}, {"elem2": 2}

    def along(sub, big, coordinate):
        return {"kind": "elem2_subset", "sub": sub, "big": big, "extra": [coordinate]}

    edges = range(len(coordinates))
    return [{"dim": 0,
             "cells": [{"label": "u", "stabilizer": v4}, {"label": "w", "stabilizer": v4}],
             "incidence": [[-1 for _ in edges], [1 for _ in edges]],
             "descriptors": [{"row": j, "col": k, "descriptor": along(z2, v4, coordinates[k])}
                             for j in (0, 1) for k in edges]},
            {"dim": 1,
             "cells": [{"label": f"e{k}", "stabilizer": z2} for k in edges],
             "incidence": [[sign] for sign in signs],
             "descriptors": [{"row": k, "col": 0, "descriptor": along(z2, z2, 0)}
                             for k in edges]},
            {"dim": 2, "cells": [{"label": "t", "stabilizer": z2}]}]


@pytest.mark.parametrize("theory", ["k", "ko"])
def test_disagreeing_composites_fall_back_to_the_product_check(tmp_path, capsys, theory):
    # The 2-cell's boundary a - b squares to zero, but the paths t -> a -> u
    # and t -> b -> u embed Z/2 at different coordinates of (Z/2)^2, so
    # the cochain block from u to t is R_1 - R_0, which is not zero.
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(parallel_edges_dump((0, 1), (1, -1))))
    code, out = run(capsys, ["coxeter", "--theory", theory, "--from-complex", str(path)])
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "invalid_input",
        "message": "free differentials do not compose to zero at degree 0"}


@pytest.mark.parametrize("theory, result_digest, e2page_digest", [
    ("k", "c03f6cd7cba8828d8db2872194f3f834b51e9291ed39bb45ece643ef2d9da504",
     "47c25bcfdbcc5aa88b9430c75a4960d9ffe8b5bcaddf03dfee8c4f3d6372c728"),
    ("ko", "d83bd0652d343e98195cd37824d75b4b3c6eb9c17c20065c3b24d96873e94096",
     "e14841280960cca43547f5bd01857e268a4633b7e0e197f4069a7b4910eef89d"),
])
def test_disagreeing_composites_that_cancel_are_accepted(monkeypatch, tmp_path, capsys, theory,
                                                         result_digest, e2page_digest):
    # Boundary a - a' + b - b', a and a' at coordinate 0, b and b' at 1:
    # the composites disagree but cancel in pairs, so the product check
    # runs and accepts the complex, with the bytes pinned here.
    monkeypatch.chdir(tmp_path)
    Path("cancel.json").write_text(json.dumps(parallel_edges_dump((0, 0, 1, 1), (1, -1, 1, -1))))
    products = []
    multiply = IntMatrix.__mul__
    monkeypatch.setattr(IntMatrix, "__mul__",
                        lambda a, b: products.append(1) or multiply(a, b))
    argv = ["coxeter", "--theory", theory, "--from-complex", "cancel.json"]
    for extra, digest in (([], result_digest), (["--emit", "e2page"], e2page_digest)):
        code, out = run(capsys, argv + extra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, extra
    assert products


def test_main_builds_no_parser_per_call(monkeypatch, capsys):
    # The parser is built once, on import: main works without build_parser,
    # and repeated calls give the same output, usage errors included.
    import properk.cli as cli

    def no_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    argv = ["coxeter", "--matrix", "1,3;3,1", "--theory", "ko"]
    assert run(capsys, argv) == run(capsys, argv)
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["coxeter", "--theory", "x"])
        assert exc.value.code == 2
        assert "invalid choice: 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["amalgam", "--r", "3", "--m", "5,7"],
    ["coxeter", "--matrix", "1,3,0;3,1,2;0,2,1", "--model", "davis"],
], ids=["amalgam", "coxeter"])
def test_emit_complex_out_feeds_back_verbatim(tmp_path, capsys, argv):
    # The whole --emit complex report, written by --out, is a valid dump.
    dump = tmp_path / "dump.json"
    assert main(argv + ["--emit", "complex", "--out", str(dump)]) == 0
    assert "complex" in json.loads(dump.read_text())
    for theory in ("k", "ko"):
        code, direct = run(capsys, argv + ["--theory", theory, "--emit", "e2page"])
        assert code == 0
        code, replayed = run(capsys, [argv[0], "--theory", theory, "--emit", "e2page",
                                      "--from-complex", str(dump)])
        assert code == 0, replayed
        assert replayed == direct


@pytest.mark.parametrize("emit", ["result", "e2page", "cochain"])
def test_even_edge_dump_through_coxeter_is_refused(tmp_path, capsys, emit):
    # The coxeter subcommand runs no edge-order pre-check, so the refusal
    # comes from the KO^-1 part of the one real complex.
    dump = tmp_path / "sl2z.json"
    assert main(["amalgam", "--r", "2", "--m", "3,2", "--emit", "complex", "--out", str(dump)]) == 0
    code, out = run(capsys, ["coxeter", "--theory", "ko", "--from-complex", str(dump),
                             "--emit", emit])
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "unsupported_restriction",
        "message": "KO^-1 restriction for an even-order cyclic subgroup Z2 is not determined "
                   "by the supported theory; odd edge orders only"}


def cyclic_edge(r: int, m: int) -> dict:
    return {"kind": "cyclic_in_cyclic", "sub": {"cyclic": r}, "big": {"cyclic": r * m},
            "extra": [r, m]}


@pytest.mark.parametrize("emit", ["result", "cochain"])
def test_first_even_edge_in_face_order_is_named(tmp_path, capsys, emit):
    # A path v2 - e0 - v1 - e1 - v0 with edge groups Z4 (e0) and Z2 (e1).
    # The dump lists its descriptors by row, so Z2 <= Z6 at (0, 1) comes
    # first; in face order, by higher cell, e0's Z4 <= Z8 does.
    cells = [{"label": "v0", "stabilizer": {"cyclic": 6}},
             {"label": "v1", "stabilizer": {"cyclic": 8}},
             {"label": "v2", "stabilizer": {"cyclic": 4}}]
    dump = [{"dim": 0, "cells": cells,
             "incidence": [[0, 1], [1, -1], [-1, 0]],
             "descriptors": [{"row": 0, "col": 1, "descriptor": cyclic_edge(2, 3)},
                             {"row": 1, "col": 0, "descriptor": cyclic_edge(4, 2)},
                             {"row": 1, "col": 1, "descriptor": cyclic_edge(2, 4)},
                             {"row": 2, "col": 0, "descriptor": cyclic_edge(4, 1)}]},
            {"dim": 1, "cells": [{"label": "e0", "stabilizer": {"cyclic": 4}},
                                 {"label": "e1", "stabilizer": {"cyclic": 2}}]}]
    path = tmp_path / "two_even_edges.json"
    path.write_text(json.dumps(dump))
    code, out = run(capsys, ["coxeter", "--theory", "ko", "--from-complex", str(path),
                             "--emit", emit])
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "unsupported_restriction",
        "message": "KO^-1 restriction for an even-order cyclic subgroup Z4 is not determined "
                   "by the supported theory; odd edge orders only"}


@pytest.mark.parametrize("theory", ["k", "ko"])
def test_emit_cochain_assembles_once(monkeypatch, capsys, theory):
    import properk.bredon as bredon
    from properk.orbit import AmalgamSpec, build_amalgam_orbit_complex
    from properk.reprings import type_range

    # Every assembly, of a page or of a part, is one _assemble call: the
    # report assembles each distinct part of its degrees at most once, with
    # no row peeled, and restricts each descriptor once for all of them.
    assembled, restricted = [], []
    assemble = bredon._assemble
    monkeypatch.setattr(bredon, "_assemble",
                        lambda x, theory, ranges, peel, blocks:
                        assembled.append((list(ranges.values()), peel))
                        or assemble(x, theory, ranges, peel, blocks))
    name = "restriction_k0" if theory == "k" else "real_restriction"
    restrict = getattr(bredon, name)
    monkeypatch.setattr(bredon, name, lambda incl: restricted.append(incl) or restrict(incl))
    code, out = run(capsys, ["amalgam", "--r", "3,5", "--m", "3,7,5", "--theory", theory,
                             "--emit", "cochain"])
    assert code == 0
    assert len(json.loads(out)["cochains"]) == (2 if theory == "k" else 8)
    # The stabilizers are odd cyclic groups, so the whole, R and C parts
    # and the zero part all differ.
    x = build_amalgam_orbit_complex(AmalgamSpec((3, 5), (3, 7, 5)))
    parts = ["C", ""] if theory == "k" else ["RC", "", "R", "C"]
    assert assembled == [([type_range(g, theory, types) for g in x.stabilizers], False)
                         for types in parts]
    assert sorted(map(str, restricted)) == sorted(map(str, x.descriptors))


def test_large_prime_incidence_is_not_factored(tmp_path, capsys):
    # D_inf with boundary P·v0 - P·v1: H^1 of K^0 is Z/P.  Normalizing it
    # must not factor P, so a 40-digit prime costs nothing.
    prime = pytest.importorskip("sympy").nextprime(10 ** 39)
    code, out = run(capsys, ["amalgam", "--r", "1", "--m", "2,2", "--emit", "complex"])
    report = json.loads(out)
    report["complex"][0]["incidence"] = [[prime], [-prime]]
    dump = tmp_path / "dinf.json"
    dump.write_text(json.dumps(report))
    start = time.perf_counter()
    code, out = run(capsys, ["amalgam", "--theory", "k", "--from-complex", str(dump)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(out)["degrees"]["-1"]["resolved"] == {"rank": 0, "torsion": [prime]}
    assert elapsed < 0.25


def dense_entries(report):
    """Matrix entries, zeros included, in an --emit cochain or complex report."""
    if "cochains" in report:
        return sum(len(row) for cochain in report["cochains"] for d in cochain["differentials"]
                   for block in ("free", "tor2", "cross") for row in d[block])
    return sum(len(row) for layer in report["complex"] for row in layer.get("incidence", ()))


@pytest.mark.parametrize("argv", [
    ["amalgam", "--r", "3,5", "--m", "3,7,5"],
    ["coxeter", "--matrix", "1,3,0;3,1,3;0,3,1", "--model", "bestvina"],
    ["coxeter", "--matrix", "1,2,0,2;2,1,2,0;0,2,1,2;2,0,2,1", "--model", "davis"],
    ["coxeter", "--matrix", "1,5,2;5,1,0;2,0,1", "--model", "davis"],
], ids=["amalgam", "path-bestvina", "square-davis", "dihedral-davis"])
@pytest.mark.parametrize("emit, theory", [("complex", "k"), ("cochain", "k"), ("cochain", "ko")])
def test_dense_emit_budget_is_exact(monkeypatch, capsys, argv, emit, theory):
    # At a budget of exactly the entries written the report is unchanged;
    # one entry less and it is refused, with the count, before assembly.
    import properk.cli as cli

    argv = argv + ["--theory", theory, "--emit", emit]
    code, out = run(capsys, argv)
    assert code == 0
    entries = dense_entries(json.loads(out))
    monkeypatch.setattr(cli, "EMIT_ENTRY_BUDGET", entries)
    assert run(capsys, argv) == (0, out)
    monkeypatch.setattr(cli, "EMIT_ENTRY_BUDGET", entries - 1)
    monkeypatch.setattr("properk.bredon._assemble", None)
    code, out = run(capsys, argv)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["kind"] == "too_large"
    assert (error["predicted_entries"], error["budget"]) == (entries, entries - 1)


def test_large_dense_emit_is_refused_quickly(capsys):
    # The Davis model of polygon_family(640): its KO cochains once took
    # 106 s, 1.19 GB of output and 7.6 GB of memory.
    from properk.coxeter import CoxeterMatrix
    from properk.cli import EMIT_ENTRY_BUDGET

    matrix = CoxeterMatrix.polygon_family(640)
    argv = ["coxeter", "--matrix", ";".join(",".join(map(str, row)) for row in matrix.entries),
            "--theory", "ko", "--model", "davis", "--emit", "cochain"]
    start = time.perf_counter()
    code, out = run(capsys, argv)
    elapsed = time.perf_counter() - start
    assert code == 1
    entries = 69_043_392
    assert json.loads(out)["error"] == {
        "kind": "too_large", "predicted_entries": entries, "budget": EMIT_ENTRY_BUDGET,
        "message": f"--emit cochain would write {entries} dense matrix entries, "
                   f"over the budget of {EMIT_ENTRY_BUDGET}"}
    assert elapsed < 2


def _run_capped(argv):
    """Run ``main(argv)`` in a child under a 1.5 GiB address-space cap, so a
    regression ends in a MemoryError there rather than exhausting the
    host's memory: its exit status, report, seconds in ``main`` and peak
    traced allocation in bytes."""
    import os
    import subprocess
    import sys

    import properk

    child = ("import json, resource, sys, time, tracemalloc\n"
             "cap = 1536 << 20\n"
             "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
             "from properk.cli import main\n"
             "tracemalloc.start()\n"
             "start = time.perf_counter()\n"
             f"code = main({argv!r})\n"
             "elapsed = time.perf_counter() - start\n"
             "print(json.dumps([elapsed, tracemalloc.get_traced_memory()[1]]), file=sys.stderr)\n"
             "sys.exit(code)\n")
    src = str(Path(properk.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, env=env, timeout=60)
    assert proc.stdout, proc.stderr.decode()  # a traceback writes no report
    elapsed, peak = json.loads(proc.stderr.splitlines()[-1])
    return proc.returncode, json.loads(proc.stdout), elapsed, peak


def test_amalgam_with_a_vertex_of_order_1e8_runs_in_little_memory():
    # Vertex orders 3·10^8 and 6: the tree peels the whole of d_0 before any
    # restriction block is built, so the K page is a rank count.  Building
    # the blocks once ended in a MemoryError under this cap.
    argv = ["amalgam", "--r", "3", "--m", "100000000,2", "--theory", "k", "--check"]
    code, report, elapsed, _ = _run_capped(argv)
    assert code == 0
    assert [v["verdict"] for v in report["verdicts"]] == ["EXACT_MATCH"] * 2
    assert elapsed < 1


@pytest.mark.parametrize("r, m", [("3", "100000000,2"), ("3,5", "100000001,7,30000001")])
def test_amalgam_ko_pages_of_vertex_orders_near_1e8_list_no_generator(r, m):
    # Each part of the real complex keeps one range of generators per
    # stabilizer, so its ranks, its peel and its rows are arithmetic on the
    # ranges.  Listing the
    # generators of each cell once ended in a MemoryError under this cap.
    code, report, _, peak = _run_capped(["amalgam", "--r", r, "--m", m, "--theory", "ko",
                                         "--check"])
    assert code == 0
    verdicts = [v["verdict"] for v in report["verdicts"]]
    assert len(verdicts) == 8 and set(verdicts) == {"EXACT_MATCH"}
    assert peak < 1 << 20


@pytest.mark.parametrize("m, theory, entries", [("1000000000,2", "k", 9_000_000_018),
                                                ("100000000,2", "ko", 1_050_000_031),
                                                ("10000000000000000000000,2", "k",
                                                 90_000_000_000_000_000_000_018)])
def test_huge_amalgam_cochain_is_refused_before_listing_a_generator(m, theory, entries):
    # The budget check counts each part per stabilizer; listing the parts'
    # generators to count them once ended in a MemoryError here.
    argv = ["amalgam", "--r", "3", "--m", m, "--theory", theory, "--emit", "cochain"]
    code, report, elapsed, peak = _run_capped(argv)
    assert code == 1
    assert report["error"]["kind"] == "too_large"
    assert report["error"]["predicted_entries"] == entries
    assert elapsed < 1 and peak < 1 << 20


@pytest.mark.parametrize("r, m, theory", [("30000001", "2,3", "k"), ("30000001", "2,3", "ko"),
                                          ("3", "10000000000000000000000,2", "k"),
                                          ("30000000000000000000001", "2,3", "ko")])
def test_amalgam_pages_are_linear_in_the_edges_at_any_order(r, m, theory):
    # The page peels the whole of d_0 out of the complex it factors, so it
    # keeps no row or factor per generator.  Each part's size is read off
    # the ends of its range: orders past a machine word once ended in a
    # bare OverflowError from len() of a range.
    code, report, elapsed, peak = _run_capped(["amalgam", "--r", r, "--m", m, "--theory", theory,
                                               "--check"])
    assert code == 0
    verdicts = [v["verdict"] for v in report["verdicts"]]
    assert verdicts == ["EXACT_MATCH"] * (2 if theory == "k" else 8)
    assert elapsed < 1 and peak < 1 << 20


# Each of these was once read as some other input or ended in a traceback:
# "35" as r = (3, 5), 3.9 as 3, the label 2.7 as 2, true as 1, and 1e400
# (infinity once parsed) in an OverflowError.
NON_INTEGER_INPUTS = [
    (["amalgam", "--file"], '{"r": "35", "m": [2, 2, 2]}', "'3'"),
    (["amalgam", "--file"], '{"r": [3.9], "m": [2, 2]}', "3.9"),
    (["coxeter", "--file"], '{"size": 2, "m": [[1, 2.7], [2.7, 1]]}', "2.7"),
    (["amalgam", "--file"], '{"r": [true], "m": [2, 2]}', "True"),
    (["amalgam", "--file"], '{"r": [1e400], "m": [2, 2]}', "inf"),
    (["coxeter", "--file"], '{"size": 1e400, "m": []}', "inf"),
    (["amalgam", "--from-complex"], vertex_edge_dump('{"cyclic": 1e400}'), "inf"),
    (["coxeter", "--from-complex"], vertex_edge_dump('"trivial"', "1.0"), "1.0"),
    # At a zero position of the incidence, where a read that only looks at
    # the nonzeros would take them for 0.
    (["coxeter", "--from-complex"], vertex_edge_dump('"trivial"', "1, false"), "False"),
    (["amalgam", "--from-complex"], vertex_edge_dump('"trivial"', "1, 0.0"), "0.0"),
]


@pytest.mark.parametrize("flag, text, shown", NON_INTEGER_INPUTS,
                         ids=["string-r", "float-r", "float-label", "bool-r", "huge-r",
                              "huge-size", "huge-stabilizer", "float-incidence",
                              "false-incidence-zero", "float-incidence-zero"])
def test_non_integer_json_numbers_are_invalid_input(tmp_path, capsys, flag, text, shown):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out = run(capsys, flag + [str(path), "--theory", "k"])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["kind"] == "invalid_input"
    assert f"expected an integer, got {shown}" in error["message"]


@pytest.mark.parametrize("command", ["amalgam", "coxeter"])
@pytest.mark.parametrize("theory", ["k", "ko"])
def test_rotation_in_dihedral_dump_is_invalid_input(tmp_path, capsys, command, theory):
    # No model builds the rotation subgroup Z3 <= D3, so a dump naming it
    # is refused like any unknown descriptor kind.
    rotation = {"kind": "rotation_in_dihedral", "sub": {"cyclic": 3},
                "big": {"dihedral_odd": 3}, "extra": [3]}
    dump = [{"dim": 0,
             "cells": [{"label": "v0", "stabilizer": {"dihedral_odd": 3}},
                       {"label": "v1", "stabilizer": {"dihedral_odd": 3}}],
             "incidence": [[1], [-1]],
             "descriptors": [{"row": 0, "col": 0, "descriptor": rotation},
                             {"row": 1, "col": 0, "descriptor": rotation}]},
            {"dim": 1, "cells": [{"label": "e", "stabilizer": {"cyclic": 3}}]}]
    path = tmp_path / "rotation.json"
    path.write_text(json.dumps(dump))
    code, out = run(capsys, [command, "--theory", theory, "--from-complex", str(path)])
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "invalid_input",
        "message": "bad orbit complex JSON: unrecognized inclusion kind: 'rotation_in_dihedral'"}


@pytest.mark.parametrize("theory, digest", [
    ("k", "837774e2e2e870c7b2a27fff4a2f548a7bbc8711eeb81b0243784778bfdedccb"),
    ("ko", "fe2fe583e00d2bb5df105aa88693e63ba46256f6724f74502a57e2b16352d753"),
])
def test_wide_amalgam_reports_are_pinned(capsys, theory, digest):
    # Vertex orders 100,005 and one Z15 edge: d_0 has 100,005 columns per
    # vertex, all of it peeled.  The bytes were recorded before the peel.
    code, out = run(capsys, ["amalgam", "--r", "15", "--m", "6667,6667",
                             "--theory", theory, "--check"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the result and --emit e2page reports of each TREE_DUMPS entry,
# recorded before d_0 was peeled.
TREE_DIGESTS = {
    ("star", "k"): ("04d357ba0893f795121dfd0bc527b29f17765e186e1acd94c30848acd9b3e3e4",
                    "f185ee0bcbb1fc7cefc0b53b407df3dbda5775df076c5440206c2e38be03f766"),
    ("star", "ko"): ("46235ae12389a0fd621c907ac8c21eaa5c73c873fe45aa804f9cb75b8e926d37",
                     "aa7d4b4dc0f1a36269d9a0ef91b4b99161780f8c2c2259f98ccfebf01d1c1de2"),
    ("pair", "k"): ("bffce95bd5ee8ce5a02904bb70d1591679ff8c22c2f568da3cc7a010bdc59ef0",
                    "6cfd901b27165bb3b66cfeb7b0afb47e43972b47ee21033cd89d2a57b6a6daf1"),
    ("pair", "ko"): ("fa3a4514dc489629d0427b3f637803fb8f0f7adda7a1f4af567ed7dfad867718",
                     "fe8c849cf2e71176d735c02a3f601653a7575690a16f62866dc9a783b29a3587"),
    ("path", "k"): ("7c7292ebb74d17534a34bd73717852e86535aaaa77b95bd013c91008c90ce78a",
                    "bf8e3e177b79e28ad9dc9eeae4b9f87c60e458236711e03796cc5fa4d038c9e5"),
    ("path", "ko"): ("c69c5849f0d18d65172b40349a4d6661d6d8535d057ec08a99b3b12dead1a21e",
                     "2f7a168fdb1640f4356ecec0914bbaa287d50412c1f8a722b8eb3b58e84ad54d"),
}


@pytest.mark.parametrize("name, theory", sorted(TREE_DIGESTS))
def test_tree_dumps_with_non_unit_leaf_edges_keep_their_bytes(monkeypatch, tmp_path, capsys,
                                                               name, theory):
    monkeypatch.chdir(tmp_path)
    Path("tree.json").write_text(json.dumps(TREE_DUMPS[name]))
    argv = ["amalgam", "--theory", theory, "--from-complex", "tree.json"]
    for extra, digest in zip(([], ["--emit", "e2page"]), TREE_DIGESTS[name, theory]):
        code, out = run(capsys, argv + extra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, extra


# Strings with quotes, backslashes, control characters and non-ASCII text
# (escaped as \uXXXX, astral ones as surrogate pairs) beside arbitrary ones.
WRITER_TEXT = st.one_of(
    st.text(), st.text(alphabet='"\\/\x00\x08\t\n\x1f\x7f\xe9\u2028\U0001f600 ab'))
WRITER_INTS = st.one_of(st.integers(), st.integers(min_value=2 ** 64, max_value=2 ** 200),
                        st.integers(max_value=-2 ** 64, min_value=-2 ** 200))
WRITER_PAYLOADS = st.recursive(
    st.one_of(st.none(), st.booleans(), WRITER_INTS, WRITER_TEXT,
              st.lists(st.one_of(WRITER_INTS, st.booleans()))),  # dense rows, bools mixed in
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(WRITER_TEXT, inner, max_size=5)),
    max_leaves=40)


def _written(payload) -> str:
    sink = io.StringIO()
    write_report(payload, sink)
    return sink.getvalue()


def _nested(depth: int):
    """Lists and dicts alternating ``depth`` deep, with empty ones beside."""
    value = {"": [], "x": {}}
    for level in range(depth):
        value = [value, [], {}] if level % 2 else {"k": value, "e": {}, "l": []}
    return value


@given(WRITER_PAYLOADS)
def test_report_writer_matches_indented_json_dumps(payload):
    assert _written(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_report_writer_on_empty_and_deeply_nested_containers():
    for payload in ({}, [], [[]], [{}], {"a": {}}, _nested(3), _nested(60)):
        assert _written(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("payload", [{"a": 1.5}, [1, 2.0], {"a": [{"b": float("nan")}]},
                                     {1: "x"}, {"a": {None: 1}}, {"a": (1, 2)}],
                         ids=["float", "float-in-int-row", "nested-float", "int-key",
                              "none-key", "tuple"])
def test_report_writer_refuses_other_types_and_keys(payload):
    with pytest.raises(TypeError):
        _written(payload)


class RecordingSink:
    """An output that keeps every piece written to it."""

    def __init__(self):
        self.writes: list[str] = []

    def write(self, text: str) -> None:
        self.writes.append(text)

    def flush(self) -> None:
        pass


def _dense_rows(value, depth: int = 0):
    """Each non-empty list of plain ints in ``value``, with its depth."""
    if type(value) is list and value and all(type(x) is int for x in value):
        yield value, depth
    elif isinstance(value, (list, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _dense_rows(item, depth + 1)


def test_report_is_written_row_by_row(monkeypatch):
    # D_inf^3 Davis --emit complex: hundreds of dense incidence rows.
    matrix = ";".join(",".join("1" if i == j else "0" if i // 2 == j // 2 else "2"
                               for j in range(6)) for i in range(6))
    sink = RecordingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(["coxeter", "--matrix", matrix, "--model", "davis", "--emit", "complex"]) == 0
    monkeypatch.undo()
    text = "".join(sink.writes)
    report = json.loads(text)
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
    # A row's text is its json.dumps, indented to the row's depth.
    row_texts = [json.dumps(row, indent=2).replace("\n", "\n" + "  " * depth)
                 for row, depth in _dense_rows(report)]
    assert len(row_texts) > 100
    assert max(map(len, sink.writes)) <= max(map(len, row_texts))
