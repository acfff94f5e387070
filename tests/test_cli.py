"""End-to-end CLI runs: exit codes, JSON reports, determinism."""
import contextlib
import datetime
import io
import json
import sys
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given

from evolalg import ExactScalar, Element, build_family, export_window_dot
from evolalg._version import __version__
from evolalg.cli import run
from evolalg.serialize import element_jsonable, parse_element, parse_structure


def invoke(argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def report(argv, stdin=None):
    code, out, err = invoke(argv, stdin)
    assert err == ""
    return code, json.loads(out)


TWO_CYCLE = json.dumps({"rows": {"1": [[2, 1]], "2": [[1, 1]]}, "n": 2})
SHIFT_PAIR = json.dumps({"rows": {"1": [[2, 1]], "2": []},
                         "universe": "finite:2"})


def test_analyze_comb_report():
    code, rep = report(["analyze", "--family", "comb"])
    assert code == 0
    assert rep["tool"] == "evolalg"
    assert rep["version"] == __version__
    assert rep["command"] == "analyze"
    assert rep["status"] == "ok"
    assert rep["input"] == {
        "mode": "exact",
        "universe": None,
        "source": {"kind": "family", "family": "comb", "params": {}},
    }
    assert rep["params"] == {"budget": 64}
    res = rep["result"]
    assert res["type"] == "NilpotencyReport"
    assert res["index"] == {"type": "IndexExact", "n": 4}
    for key in ("nil", "nilpotent"):
        assert res[key]["status"] == "yes"
        assert res[key]["certified"] is True
        assert res[key]["witness"] is None
    assert res["notes"] == ["cycle-freeness from family metadata"]
    datetime.datetime.fromisoformat(rep["timestamp"])


def test_analyze_markov_certified_no_with_ray():
    code, rep = report(["analyze", "--family", "markov_line",
                        "--budget", "100"])
    assert code == 0
    res = rep["result"]
    assert res["index"] == {"type": "IndexInfinite"}
    for key in ("nil", "nilpotent"):
        assert res[key]["status"] == "no"
        assert res[key]["certified"] is True
        assert res[key]["witness"] == {"type": "RayPrefix",
                                       "vertices": list(range(2, 51))}


def test_analyze_budget_too_small_exits_3():
    code, rep = report(["analyze", "--family", "markov_line", "--budget", "1"])
    assert code == 3
    assert rep["status"] == "inconclusive"
    res = rep["result"]
    assert res["index"] is None
    assert res["nil"]["status"] == "inconclusive"
    assert res["nil"]["certified"] is False


def test_index_subcommand():
    code, rep = report(["index", "--family", "comb"])
    assert (code, rep["result"]) == (0, {"index": {"type": "IndexExact",
                                                   "n": 4}})
    code, rep = report(["index", "--family", "growing_teeth"])
    assert (code, rep["result"]) == (0, {"index": {"type": "IndexInfinite"}})
    code, rep = report(["index", "--family", "markov_line", "--budget", "1"])
    assert (code, rep["result"], rep["status"]) == (
        3, {"index": None}, "inconclusive")


def test_power_exact_chain():
    base = ["power", "--family", "markov_line",
            "--element", '{"2": 1, "3": 1}']
    code, rep = report(base + ["-n", "2"])
    assert code == 0
    assert rep["result"] == {"power": [[3, "1", "0"], [4, "1", "0"]]}
    assert rep["params"]["element"] == [[2, "1", "0"], [3, "1", "0"]]
    code, rep = report(base + ["-n", "4"])
    assert (code, rep["result"]) == (0, {"power": []})


def test_power_infinite_row_needs_cutoff():
    base = ["power", "--family", "markov_line", "--element", '{"1": 1}',
            "-n", "2"]
    code, out, err = invoke(base)
    assert (code, out) == (2, "")
    assert "cutoff" in err
    code, rep = report(base + ["--cutoff", "5"])
    assert code == 0
    assert rep["result"]["power"] == {
        "cutoff": 5,
        "prefix": [[2, "1/2", "0"], [3, "1/4", "0"], [4, "1/8", "0"],
                   [5, "1/16", "0"]],
        "tail_norm_bound": 0.036084391824351615,
    }


def test_apply_operator():
    code, rep = report(["apply", "--family", "comb", "--op", "omega",
                        "--vector", '{"2": 1}'])
    assert code == 0
    assert rep["result"] == {"image": [[1, "1", "0"], [3, "1", "0"],
                                       [5, "1", "0"]]}
    code, rep = report(["apply", "--family", "markov_line", "--op", "gamma",
                        "--vector", '{"3": 1}'])
    assert code == 0
    assert rep["result"] == {"image": [[1, "1/4", "0"], [2, "1", "0"]]}


def test_bounds_schur():
    code, rep = report(["bounds", "--family", "markov_line",
                        "--schur", "ones,ones,1,2"])
    assert code == 0
    res = rep["result"]
    assert res["status"] == "certified"
    assert res["bound"] == 1.4142135623730951
    assert res["detail"] == {"m1": "1", "m2": "2"}
    code, rep = report(["bounds", "--family", "markov_line",
                        "--schur", "ones,ones,1/2,1/2", "--window", "2"])
    assert code == 0
    res = rep["result"]
    assert res["status"] == "refuted"
    assert res["bound"] is None
    assert res["refutation_index"] == ["row", 2]


def test_bounds_schur_bad_args():
    for schur in ("bogus,ones,1,2", "ones,ones,x,2", "ones,ones,1"):
        code, out, err = invoke(["bounds", "--family", "markov_line",
                                 "--schur", schur])
        assert (code, out) == (2, "")
        assert "ParseError" in err


def test_bounds_frobenius_finite():
    code, rep = report(["bounds", "-", "--frobenius"], stdin=TWO_CYCLE)
    assert code == 0
    res = rep["result"]
    assert res["status"] == "certified"
    assert res["bound"] == 1.4142135623730951
    assert res["detail"] == {"total_sq": "2"}


def test_triangularize_outcomes():
    code, rep = report(["triangularize", "--family", "comb",
                        "--window", "12"])
    assert code == 0
    assert rep["result"] == {"type": "Permutation",
                             "order": [1, 4, 3, 5, 2, 8, 7, 9, 6, 12, 11, 10]}
    code, rep = report(["triangularize", "--family", "hub_line",
                        "--window", "8"])
    assert code == 0
    assert rep["result"] == {"type": "CycleFound", "path": [2, 2]}


def test_export_dot():
    code, rep = report(["export-dot", "--family", "comb", "--window", "4"])
    assert code == 0
    assert rep["result"]["dot"] == export_window_dot(build_family("comb"), 4)
    assert '2 -> 1 [label="1"];' in rep["result"]["dot"]


def test_oracle_finite():
    code, rep = report(["oracle", "-"], stdin=TWO_CYCLE)
    assert code == 0
    assert rep["result"] == {"type": "BruteForceReport",
                             "dims": [2, 2, 2, 2],
                             "nilpotent": False, "index": None}
    code, rep = report(["oracle", "-"], stdin=SHIFT_PAIR)
    assert code == 0
    assert rep["result"] == {"type": "BruteForceReport", "dims": [2, 1, 0, 0],
                             "nilpotent": True, "index": 3}


def test_oracle_rejects_infinite_universe():
    code, out, err = invoke(["oracle", "--family", "markov_line"])
    assert (code, out) == (2, "")
    assert "finite" in err


def test_families_list():
    code, rep = report(["families", "list"])
    assert code == 0
    names = [f["name"] for f in rep["result"]["families"]]
    assert names == ["alt_line_B", "alt_line_C0", "comb", "finite_explicit",
                     "growing_teeth", "hub_line", "markov_line", "rary_tree"]
    assert all(f["doc"] for f in rep["result"]["families"])


def test_version_flag():
    code, out, err = invoke(["--version"])
    assert code == 0
    assert out.strip() == f"evolalg {__version__}"


def test_usage_errors_exit_64():
    for argv in ([], ["bogus"], ["analyze"],
                 ["bounds", "--family", "comb"],
                 ["families", "destroy"]):
        code, out, err = invoke(argv)
        assert (code, out) == (64, ""), argv
        assert err != ""


def test_validation_errors_exit_2():
    cases = [
        (["analyze", "/tmp/evolalg-no-such-file.json"], None),
        (["analyze", "-"], "{nope"),
        (["analyze", "-"], json.dumps({"rows": {"1": [[2, 0.5]], "2": []},
                                       "n": 2})),
        (["analyze", "-"], json.dumps({"rows": {"1": [[2, "0/1"]], "2": []},
                                       "n": 2})),
        (["analyze", "--family", "bogus_family"], None),
        (["analyze", "--family", "markov_line", "--params", "{nope"], None),
        (["analyze", "--family", "markov_line", "--params",
          '{"rato": "1/3"}'], None),
        (["analyze", "--family", "comb", "--budget", "0"], None),
        (["analyze", "--family", "comb", "--budget", "-3"], None),
        (["power", "--family", "comb", "--element", '[[2, 1], [2, 1]]',
          "-n", "2"], None),
        (["oracle", "-"], json.dumps({"rows": {"1": []}, "n": 1,
                                      "universe": "finite:1"})),
        (["oracle", "-"], json.dumps({"rows": {"1": []},
                                      "universe": "infinite"})),
    ]
    for argv, stdin in cases:
        code, out, err = invoke(argv, stdin)
        assert (code, out) == (2, ""), argv
        assert err != ""


def test_spec_file_and_universe_forms_agree(tmp_path):
    path = tmp_path / "two_cycle.json"
    path.write_text(TWO_CYCLE)
    code, rep = report(["analyze", str(path)])
    assert code == 0
    res = rep["result"]
    assert res["nilpotent"]["status"] == "no"
    assert res["nilpotent"]["witness"] == {"type": "CycleWitness",
                                           "path": [1, 2, 1]}
    s1 = parse_structure(TWO_CYCLE)
    s2 = parse_structure(json.dumps({"rows": {"1": [[2, 1]], "2": [[1, 1]]},
                                     "universe": "finite:2"}))
    assert s1.universe == s2.universe == 2
    assert s1.row_of(1) == s2.row_of(1)


def test_reports_identical_modulo_timestamp():
    _, rep1 = report(["analyze", "--family", "growing_teeth"])
    _, rep2 = report(["analyze", "--family", "growing_teeth"])
    rep1.pop("timestamp"), rep2.pop("timestamp")
    assert rep1 == rep2


nonzero = st.fractions(min_value=-5, max_value=5).filter(bool)


@given(st.dictionaries(st.integers(min_value=1, max_value=50),
                       st.tuples(nonzero, nonzero), max_size=6))
def test_element_json_round_trip(coeffs):
    e = Element({v: ExactScalar.from_rational(re, im)
                 for v, (re, im) in coeffs.items()})
    back = parse_element(json.dumps(element_jsonable(e)), "exact")
    assert back == e


def test_analyze_float_spec():
    spec = json.dumps({"mode": "float", "tol": 1e-9, "n": 3,
                       "rows": {"1": [[2, 0.5]], "2": [[3, [0.25, -1.5]]],
                                "3": []}})
    code, rep = report(["analyze", "-"], stdin=spec)
    assert code == 0
    assert rep["input"]["mode"] == "float"
    res = rep["result"]
    assert res["index"] == {"type": "IndexExact", "n": 4}
    assert res["nil"]["status"] == res["nilpotent"]["status"] == "yes"


def test_malformed_family_params_exit_2():
    explicit = {"rows": {"1": [[2, 1]], "2": []}, "n": "x"}
    for fam, params in (("markov_line", {"ratio": "abc"}),
                        ("markov_line", {"ratio": "1/0"}),
                        ("markov_line", {"ratio": [1]}),
                        ("finite_explicit", explicit)):
        code, out, err = invoke(["analyze", "--family", fam,
                                 "--params", json.dumps(params)])
        assert (code, out) == (2, ""), params
        assert err.startswith("evolalg: InvalidParams:"), err
