"""End-to-end tests for the command line front end.

Every command runs in process through main(); one test execs the
installed console script.  Expected outputs were captured from the
library calls the commands wrap, so these mostly pin the formatting
and the exit code contract.
"""

import io
import json
import shutil
import subprocess
import sys
import time

import pytest

from ncrewrite.cli import (EXIT_CERT_FAILED, EXIT_FUSE, EXIT_INPUT,
                           EXIT_NOT_CONVERGENT, EXIT_OK, main,
                           system_from_document)

XYZ_DOC = {
    "field": "Q",
    "generators": ["x", "y", "z"],
    "rules": [{"lhs": "x*y*z", "rhs": "x^3"}],
    "certificate": {"measure": {"x*y*z": 3, "y": 1}},
}

XCUBED_DOC = {
    "field": "Q",
    "generators": ["x", "y", "z"],
    "rules": [{"lhs": "x^3", "rhs": "x*y*z - y^3 - z^3"}],
    "certificate": {"deglex": {"order": ["z", "y", "x"]}},
}

# same system as XYZ_DOC but under an order that ranks the rhs above the lhs
BADCERT_DOC = {
    "field": "Q",
    "generators": ["x", "y", "z"],
    "rules": [{"lhs": "x*y*z", "rhs": "x^3"}],
    "certificate": {"deglex": {"order": ["z", "y", "x"]}},
}

COMP_DOC = {
    "field": "Q",
    "generators": ["x", "y"],
    "rules": [{"lhs": "x^2", "rhs": "y"}, {"lhs": "y^2", "rhs": "x"}],
    "certificate": {"deglex": {}},
}


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_certify_measure_document(tmp_path, capsys):
    code, out, err = run(capsys, "certify", write_doc(tmp_path, XYZ_DOC))
    assert code == EXIT_OK
    assert out == "Certified\n"
    assert err == ""


def test_certify_reports_violation(tmp_path, capsys):
    code, out, _ = run(capsys, "certify", write_doc(tmp_path, BADCERT_DOC))
    assert code == EXIT_CERT_FAILED
    assert out.splitlines() == [
        "Failed",
        "  violation: {'rule': 0, 'lhs': 'x*y*z', 'word': 'x^3'}",
    ]


def test_check_convergent(tmp_path, capsys):
    code, out, _ = run(capsys, "check", write_doc(tmp_path, XYZ_DOC))
    assert code == EXIT_OK
    assert out == "Convergent (diamond, 0 ambiguities, 0 failing)\n"


def test_check_not_convergent(tmp_path, capsys):
    code, out, _ = run(capsys, "check", write_doc(tmp_path, XCUBED_DOC))
    assert code == EXIT_NOT_CONVERGENT
    assert out.splitlines() == [
        "NotConvergent (diamond, 2 ambiguities, 2 failing)",
        "  overlap minimal at x^4: residue z^3*x + y^3*x - x*z^3"
        " - x*y*z*x - x*y^3 + x^2*y*z",
        "  overlap at x^5: residue -z^3*y*z + z^3*x^2 - y^4*z + y^3*x^2"
        " + x*y*z*y*z - x*y*z*x^2 - x^2*z^3 - x^2*y^3",
    ]


def test_check_triangle_mode(tmp_path, capsys):
    code, out, _ = run(capsys, "check", write_doc(tmp_path, XCUBED_DOC),
                       "--mode", "triangle")
    assert code == EXIT_NOT_CONVERGENT
    assert out.splitlines()[0] == "NotConvergent (triangle, 1 ambiguities, 1 failing)"


def test_nf_text(tmp_path, capsys):
    code, out, _ = run(capsys, "nf", write_doc(tmp_path, XCUBED_DOC),
                       "--expr", "x^4")
    assert code == EXIT_OK
    assert out == "-z^3*x - y^3*x + x*y*z*x\n"


def test_nf_json_trace(tmp_path, capsys):
    code, out, _ = run(capsys, "nf", write_doc(tmp_path, XCUBED_DOC),
                       "--expr", "x^4", "--json")
    assert code == EXIT_OK
    assert json.loads(out) == {
        "input": "x^4",
        "normal_form": "-z^3*x - y^3*x + x*y*z*x",
        "steps": 1,
        "trace": [{"rule": 0, "prefix": "1", "suffix": "x", "coefficient": "1"}],
    }


def test_obstructions_listing(tmp_path, capsys):
    code, out, _ = run(capsys, "obstructions", write_doc(tmp_path, XCUBED_DOC))
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "2 ambiguities"
    assert lines[1] == ("  overlap minimal at x^4: obstruction z^3*x + y^3*x"
                        " - x*z^3 - x*y*z*x - x*y^3 + x^2*y*z; residue z^3*x"
                        " + y^3*x - x*z^3 - x*y*z*x - x*y^3 + x^2*y*z")
    assert lines[2].startswith("  overlap at x^5: obstruction")


def test_chains_text(tmp_path, capsys):
    code, out, _ = run(capsys, "chains", write_doc(tmp_path, XCUBED_DOC),
                       "--max-degree", "3", "--max-length", "8")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "6 chains up to degree 3, length 8; d^2 == 0: True",
        "  degree 0: x (tail x) d -> 0",
        "  degree 0: y (tail y) d -> 0",
        "  degree 0: z (tail z) d -> 0",
        "  degree 1: x^3 (tail x^2) d -> x|x|x",
        "  degree 2: x^4 (tail x) d -> -x^3|x + x|x^3",
        "  degree 3: x^6 (tail x^2) d -> x^4|x|x - x^3|x^3 + x|x^4|x + x|x|x^4",
    ]


def test_chains_json(tmp_path, capsys):
    code, out, _ = run(capsys, "chains", write_doc(tmp_path, XCUBED_DOC),
                       "--max-degree", "2", "--max-length", "6", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["d_squared_ok"] is True
    assert payload["chains"][-1] == {"word": "x^4", "degree": 2, "tail": "x"}
    assert payload["differentials"] == {
        "x": "0", "y": "0", "z": "0",
        "x^3": "x|x|x",
        "x^4": "-x^3|x + x|x^3",
    }


def test_homology_summary(tmp_path, capsys):
    code, out, _ = run(capsys, "homology", write_doc(tmp_path, XCUBED_DOC),
                       "--max-length", "5", "--max-degree", "3")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == ("monomial complex, 364 blocks, 343 spots with "
                        "nonzero (or truncated) homology")
    assert "  x^4 degree 1: H = 1" in lines
    assert "  x^5 degree 1: H = 2" in lines


def test_oracle_finds_witness(tmp_path, capsys):
    code, out, _ = run(capsys, "oracle", write_doc(tmp_path, XCUBED_DOC))
    assert code == EXIT_NOT_CONVERGENT
    assert out.splitlines() == [
        "NotConvergent: 1 words of length <= 6",
        "  witness with multiple normal forms: x^4",
    ]


def test_oracle_convergent_sweep(tmp_path, capsys):
    code, out, _ = run(capsys, "oracle", write_doc(tmp_path, XYZ_DOC))
    assert code == EXIT_OK
    assert out == "Convergent: 1093 words of length <= 6\n"


def test_oracle_json(tmp_path, capsys):
    code, out, _ = run(capsys, "oracle", write_doc(tmp_path, XCUBED_DOC),
                       "--json")
    assert code == EXIT_NOT_CONVERGENT
    assert json.loads(out) == {
        "verdict": "NotConvergent", "max_length": 6,
        "words_checked": 1, "witness": "x^4",
    }


def test_complete_text(tmp_path, capsys):
    code, out, _ = run(capsys, "complete", write_doc(tmp_path, COMP_DOC))
    assert code == EXIT_OK
    assert out.splitlines() == [
        "Convergent after adding 1 rules (3 total)",
        "  x^2 -> y",
        "  y^2 -> x",
        "  y*x -> x*y",
    ]


def test_complete_json_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "complete", write_doc(tmp_path, COMP_DOC),
                       "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["rules_added"] == 1
    # the emitted document must itself parse and check as convergent
    system, cert = system_from_document(payload["system"])
    assert len(system.rules) == 3
    again = write_doc(tmp_path, payload["system"], "completed.json")
    code, out, _ = run(capsys, "check", again)
    assert code == EXIT_OK
    assert out.splitlines()[0] == "Convergent (diamond, 4 ambiguities, 0 failing)"


def test_json_output_is_byte_deterministic(tmp_path, capsys):
    path = write_doc(tmp_path, XCUBED_DOC)
    _, first, _ = run(capsys, "obstructions", path, "--json")
    _, second, _ = run(capsys, "obstructions", path, "--json")
    assert first == second
    json.loads(first)


def test_stdin_document(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(XYZ_DOC)))
    code, out, _ = run(capsys, "certify", "-")
    assert code == EXIT_OK
    assert out == "Certified\n"


def test_fuse_exhaustion_exits_5(tmp_path, capsys):
    code, out, err = run(capsys, "check", write_doc(tmp_path, XCUBED_DOC),
                         "--fuse", "0")
    assert code == EXIT_FUSE
    assert out == ""
    assert "no normal form within 0 steps" in err


def test_failed_certificate_blocks_nf(tmp_path, capsys):
    code, _, err = run(capsys, "nf", write_doc(tmp_path, BADCERT_DOC),
                       "--expr", "x")
    assert code == EXIT_CERT_FAILED
    assert err.startswith("certificate Failed:")


def test_input_errors_exit_2(tmp_path, capsys):
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json")
    cases = [
        ("certify", str(tmp_path / "missing.json")),
        ("certify", str(bad_json)),
        ("certify", write_doc(tmp_path, {"field": "Q", "generators": ["x"]},
                              "norules.json")),
        ("certify", write_doc(tmp_path, dict(XYZ_DOC, field="F4"), "f4.json")),
        ("certify", write_doc(tmp_path, dict(XYZ_DOC, certificate={
            "deglex": {"order": ["x", "y"]}}), "shortorder.json")),
        ("complete", write_doc(tmp_path, XYZ_DOC, "measure.json")),
        ("nf", write_doc(tmp_path, XCUBED_DOC, "noexpr.json"),
         "--expr", "x +"),
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT, argv
        assert err.startswith("error: ")


def test_mistyped_documents_exit_2(tmp_path, capsys):
    rule = XYZ_DOC["rules"][0]
    docs = [
        dict(XYZ_DOC, rules=[dict(rule, rhs=3)]),
        dict(XYZ_DOC, rules=[dict(rule, lhs=["x", "y", "z"])]),
        dict(XYZ_DOC, rules=["x*y*z -> x^3"]),
        dict(XYZ_DOC, rules={"x*y*z": "x^3"}),
        dict(XYZ_DOC, certificate={"measure": [1]}),
        dict(XYZ_DOC, certificate={"measure": "x*y*z"}),
        dict(XYZ_DOC, certificate={"deglex": ["z", "y", "x"]}),
        dict(XYZ_DOC, certificate={"deglex": {"weights": [1, 1, 1]}}),
    ]
    for i, doc in enumerate(docs):
        code, out, err = run(capsys, "certify", write_doc(tmp_path, doc, f"{i}.json"))
        assert (code, out) == (EXIT_INPUT, ""), doc
        assert err.startswith("error: "), doc


def test_deglex_order_must_be_a_list(tmp_path, capsys):
    doc = dict(XCUBED_DOC, certificate={"deglex": {"order": "zyx"}})
    code, _, err = run(capsys, "certify", write_doc(tmp_path, doc))
    assert code == EXIT_INPUT
    assert "order must be a list" in err
    doc = dict(XCUBED_DOC, certificate={"deglex": {"order": ["z", "y", "x"]}})
    assert run(capsys, "certify", write_doc(tmp_path, doc, "list.json"))[0] == EXIT_OK


def test_large_prime_moduli(tmp_path, capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "certify",
                       write_doc(tmp_path, dict(XYZ_DOC, field="F2305843009213693951")))
    assert (code, out) == (EXIT_OK, "Certified\n")
    assert time.perf_counter() - start < 1.0
    composite = (2 ** 31 - 1) * 1073741827           # two primes near 2^31, 2^30
    too_large = 2 ** 89 - 1                           # prime, past the exact range
    for p in (composite, too_large):
        code, _, err = run(capsys, "certify",
                           write_doc(tmp_path, dict(XYZ_DOC, field=f"F{p}"), f"{p}.json"))
        assert code == EXIT_INPUT
        assert err.startswith("error: modulus")


def test_word_length_is_capped(tmp_path, capsys):
    # one letter past MAX_WORD_LENGTH = 1000, counting exponents
    doc = dict(XCUBED_DOC, rules=[{"lhs": "x^1001", "rhs": "0"}])
    code, out, err = run(capsys, "certify", write_doc(tmp_path, doc))
    assert (code, out) == (EXIT_INPUT, "")
    assert "exponent 1001 at position 2 is more than MAX_WORD_LENGTH = 1000" in err
    doc = dict(XCUBED_DOC, rules=[{"lhs": "x^3", "rhs": "y^500*z^501"}])
    code, out, err = run(capsys, "certify", write_doc(tmp_path, doc, "rhs.json"))
    assert (code, out) == (EXIT_INPUT, "")
    assert "1001 letters" in err
    path = write_doc(tmp_path, XCUBED_DOC, "ok.json")
    code, out, err = run(capsys, "nf", path, "--expr", "y - 2*x^2*y^999")
    assert (code, out) == (EXIT_INPUT, "")
    assert "monomial at position 6 has 1001 letters" in err
    code, out, _ = run(capsys, "nf", path, "--expr", "y^1000")
    assert (code, out) == (EXIT_OK, "y^1000\n")


def test_chains_refuse_nonminimal_system(tmp_path, capsys):
    doc = {"field": "Q", "generators": ["x"],
           "rules": [{"lhs": "x^2", "rhs": "0"}, {"lhs": "x^3", "rhs": "0"}]}
    code, _, err = run(capsys, "chains", write_doc(tmp_path, doc))
    assert code == EXIT_INPUT
    assert "minimal systems only" in err


# the minimal system whose chain differentials grow fastest with the bounds
CHAIN_BUDGET_DOC = {
    "field": "Q",
    "generators": ["x", "y"],
    "rules": [{"lhs": "x^2", "rhs": "0"}, {"lhs": "y^3", "rhs": "0"},
              {"lhs": "x*y*x*y", "rhs": "0"}],
}


def test_chains_honour_the_fuse(tmp_path, capsys):
    # every sign matrix charges rows x cuts cells; 237 at the bounds
    # the benchmark uses, 220 860 at degree 12 and length 40
    path = write_doc(tmp_path, CHAIN_BUDGET_DOC)
    bounds = ("--max-degree", "4", "--max-length", "8")
    assert run(capsys, "chains", path, *bounds, "--fuse", "237")[0] == EXIT_OK
    code, out, err = run(capsys, "chains", path, *bounds, "--fuse", "236")
    assert code == EXIT_FUSE
    assert out == ""
    assert "budget 236 exhausted: 237 sign-matrix cells at chain x^2*y*x*y^4" in err
    start = time.perf_counter()
    code, out, err = run(capsys, "chains", path, "--max-degree", "12",
                         "--max-length", "40", "--fuse", "20000")
    assert time.perf_counter() - start < 5
    assert code == EXIT_FUSE
    assert out == ""
    assert "budget 20000 exhausted" in err


def test_console_script(tmp_path):
    exe = shutil.which("ncrewrite")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "certify", write_doc(tmp_path, XYZ_DOC)],
                          capture_output=True, text=True)
    assert proc.returncode == EXIT_OK
    assert proc.stdout == "Certified\n"
