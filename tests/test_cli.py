"""End-to-end CLI runs: exit codes, JSON reports, determinism."""
import contextlib
import datetime
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

import evolalg
from evolalg import (
    EX_ONE,
    Element,
    EvolutionStructure,
    ExactScalar,
    FiniteRow,
    build_family,
    classify,
    export_window_dot,
)
from evolalg import cli
from evolalg._version import __version__
from evolalg.cli import run
from evolalg.algebra import POWER_CEILING
from evolalg.graph import WINDOW_CEILING
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
                                       "vertices": list(range(1, 50))}


def _classify_without_metadata(monkeypatch):
    """Make the CLI decide the shift line i -> i+1 with no family metadata,
    which no budget settles; every built-in family is decided at budget 1."""
    shift = EvolutionStructure(lambda i: FiniteRow(((i + 1, EX_ONE),)))
    monkeypatch.setattr(cli, "classify",
                        lambda s, budget: classify(shift, budget))


def test_analyze_budget_too_small_exits_3(monkeypatch):
    _classify_without_metadata(monkeypatch)
    code, rep = report(["analyze", "--family", "markov_line", "--budget", "1"])
    assert code == 3
    assert rep["status"] == "inconclusive"
    res = rep["result"]
    assert res["index"] == {"type": "IndexAtLeast", "n": 10}
    assert res["nil"]["status"] == "inconclusive"
    assert res["nil"]["certified"] is False


def test_index_subcommand(monkeypatch):
    code, rep = report(["index", "--family", "comb"])
    assert (code, rep["result"]) == (0, {"index": {"type": "IndexExact",
                                                   "n": 4}})
    code, rep = report(["index", "--family", "growing_teeth"])
    assert (code, rep["result"]) == (0, {"index": {"type": "IndexInfinite"}})
    code, rep = report(["index", "--family", "markov_line", "--budget", "1"])
    assert (code, rep["result"]) == (0, {"index": {"type": "IndexInfinite"}})
    _classify_without_metadata(monkeypatch)
    code, rep = report(["index", "--family", "markov_line", "--budget", "1"])
    assert (code, rep["result"], rep["status"]) == (
        3, {"index": {"type": "IndexAtLeast", "n": 10}}, "inconclusive")


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


def test_apply_far_cutoff_bounds_a_tail_below_the_float_range():
    # the squared tail norm (about 4**-cutoff) is below the smallest double
    base = ["apply", "--family", "markov_line", "--op", "omega",
            "--vector", '{"1":1}', "--cutoff"]
    code, rep = report(base + ["600"])
    assert code == 0
    assert 0 < rep["result"]["image"]["tail_norm_bound"] < 1e-180
    code, rep = report(base + ["2000"])
    assert code == 0
    assert rep["result"]["image"]["tail_norm_bound"] == 5e-324


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
    # an exponent past the int-string limit is refused before Fraction
    # builds 10**exponent in full
    for schur in ("bogus,ones,1,2", "ones,ones,x,2", "ones,ones,1",
                  "ones,ones,1e999999999,1", "ones,ones,1,1e-999999999",
                  # within the exponent limit, but too long to echo
                  "ones,ones,1e4300,1e-4300"):
        start = time.monotonic()
        code, out, err = invoke(["bounds", "--family", "comb",
                                 "--schur", schur])
        assert (code, out) == (2, "")
        assert err.startswith("evolalg: ParseError:"), err
        assert time.monotonic() - start < 1.0


def test_rationals_too_long_to_echo_say_so():
    limit = str(sys.get_int_max_str_digits())
    for argv in (["analyze", "--family", "markov_line",
                  "--params", '{"ratio": "1e-4300"}'],
                 ["bounds", "--family", "comb",
                  "--schur", "ones,ones,1e-4300,1"]):
        code, out, err = invoke(argv)
        assert (code, out) == (2, ""), argv
        assert ("'1e-4300' is a valid rational that is too long to echo: "
                f"its numerator or denominator has more than {limit} "
                "digits\n") in err, err
        assert "set_int_max_str_digits" not in err


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


def test_oracle_cut_short_is_inconclusive():
    path = json.dumps({"n": 3, "rows": {"1": [[2, 1]], "2": [[3, 1]]}})
    code, rep = report(["oracle", "-", "--n-max", "2"], path)
    assert code == 3 and rep["status"] == "inconclusive"
    assert rep["result"] == {"type": "BruteForceReport", "dims": [3, 2],
                             "nilpotent": None, "index": None}
    code, rep = report(["oracle", "-", "--n-max", "2"], TWO_CYCLE)
    assert code == 0 and rep["status"] == "ok"
    assert rep["result"]["nilpotent"] is False


def test_oracle_n_max_ceiling():
    code, rep = report(["oracle", "-", "--n-max", str(POWER_CEILING)],
                       SHIFT_PAIR)
    assert code == 0
    assert rep["result"]["dims"] == [2, 1] + [0] * (POWER_CEILING - 2)
    for n_max in (POWER_CEILING + 1, 10**11):
        start = time.monotonic()
        code, out, err = invoke(["oracle", "-", "--n-max", str(n_max)],
                                SHIFT_PAIR)
        assert (code, out) == (2, "")
        assert err.startswith("evolalg: InvalidParams:")
        assert f"POWER_CEILING = {POWER_CEILING}" in err
        assert time.monotonic() - start < 1.0


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


def test_windows_past_the_ceiling_exit_2_at_once():
    # a cutoff is the window a product reads lazy rows up to
    apply = ["apply", "--family", "markov_line", "--op", "omega",
             "--vector", '{"1": 1}', "--cutoff"]
    for argv in (apply + ["100000000"], apply + [str(WINDOW_CEILING + 1)],
                 ["power", "--family", "markov_line", "--element", '{"1": 1}',
                  "-n", "2", "--cutoff", "100000000"],
                 ["triangularize", "--family", "comb", "--window", "30000000"],
                 ["export-dot", "--family", "comb",
                  "--window", str(WINDOW_CEILING + 1)],
                 ["bounds", "--family", "comb", "--frobenius",
                  "--window", "30000000"],
                 ["bounds", "--family", "markov_line", "--schur",
                  "ones,ones,1,2", "--window", "30000000"]):
        start = time.monotonic()
        code, out, err = invoke(argv)
        assert (code, out) == (2, ""), argv
        bound = "cutoff" if "--cutoff" in argv else "window"
        assert err.startswith(f"evolalg: InvalidParams: {bound} "), err
        assert f"WINDOW_CEILING = {WINDOW_CEILING}" in err
        assert time.monotonic() - start < 1.0
    # a cutoff below 1 is refused by name, on any universe
    for argv, stdin in ((apply + ["0"], None), (apply + ["-3"], None),
                        (["apply", "-", "--op", "omega", "--vector",
                          '{"1": 1}', "--cutoff", "0"], TWO_CYCLE)):
        code, out, err = invoke(argv, stdin)
        assert (code, out) == (2, ""), argv
        assert err == "evolalg: InvalidParams: cutoff must be >= 1\n"
    # a finite universe clips the window to its own size instead
    code, rep = report(["triangularize", "-", "--window", "30000000"],
                       TWO_CYCLE)
    assert code == 0
    assert rep["result"]["type"] == "CycleFound"
    code, rep = report(["power", "-", "--element", '{"1": 1}', "-n", "2",
                        "--cutoff", "100000000"], TWO_CYCLE)
    assert code == 0
    code, rep = report(apply + [str(WINDOW_CEILING)])
    assert code == 0 and rep["result"]["image"]["cutoff"] == WINDOW_CEILING


def test_values_past_the_digit_limit_exit_2():
    # markov_line with ratio 1/1000 has weights 1000^-k: at k = 1434 the
    # denominator passes sys.get_int_max_str_digits() (4300 by default)
    params = ["--family", "markov_line", "--params", '{"ratio": "1/1000"}']
    for argv in (["export-dot", *params, "--window", "2000"],
                 ["apply", *params, "--op", "omega", "--vector", '{"1": 1}',
                  "--cutoff", "2000"]):
        code, out, err = invoke(argv)
        assert (code, out) == (2, ""), argv
        assert "sys.get_int_max_str_digits()" in err
        assert str(sys.get_int_max_str_digits()) in err


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ,
               PYTHONPATH=str(Path(evolalg.__file__).resolve().parents[1]))
    for argv, want in ((["families", "list"], 0), (["analyze"], 64),
                       (["analyze", "-"], 0)):
        done = subprocess.run([sys.executable, "-m", "evolalg", *argv],
                              input=TWO_CYCLE, capture_output=True, text=True,
                              env=env, timeout=60)
        assert done.returncode == want, (argv, done.stderr)
    assert json.loads(done.stdout)["result"]["nil"]["status"] == "no"


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
    back = parse_element(json.dumps(element_jsonable(e)))
    assert back == e


def test_analyze_float_spec():
    """The spec float mode used to read, its weights quoted as strings."""
    weights = {"1": [[2, 0.5]], "2": [[3, [0.25, -1.5]]], "3": []}
    refused = json.dumps({"mode": "float", "tol": 1e-9, "n": 3,
                          "rows": weights})
    assert _refusal(["analyze", "-"], refused) == "InvalidParams"
    spec = json.dumps({"n": 3, "rows": {"1": [[2, "0.5"]],
                                        "2": [[3, ["0.25", "-1.5"]]],
                                        "3": []}})
    code, rep = report(["analyze", "-"], stdin=spec)
    assert code == 0
    assert rep["input"]["mode"] == "exact"
    res = rep["result"]
    assert res["index"] == {"type": "IndexExact", "n": 4}
    assert res["nil"]["status"] == res["nilpotent"]["status"] == "yes"


def test_malformed_family_params_exit_2():
    explicit = {"rows": {"1": [[2, 1]], "2": []}, "n": "x"}
    for fam, params in (("markov_line", {"ratio": "abc"}),
                        ("markov_line", {"ratio": "1/0"}),
                        ("markov_line", {"ratio": [1]}),
                        ("markov_line", {"ratio": 0.1}),
                        ("markov_line", {"ratio": "1e-999999999"}),
                        ("markov_line", {"ratio": "1e999999999"}),
                        ("markov_line", {"ratio": "1e-4300"}),
                        ("finite_explicit", explicit)):
        start = time.monotonic()
        code, out, err = invoke(["analyze", "--family", fam,
                                 "--params", json.dumps(params)])
        assert (code, out) == (2, ""), params
        assert err.startswith("evolalg: InvalidParams:"), err
        # the advice to quote it fits only a value that is no string
        quoted = isinstance(params.get("ratio"), str)
        assert ('"0.5", "1/2"' in err) == (fam == "markov_line"
                                           and not quoted), err
        assert "rational value" not in err
        assert time.monotonic() - start < 1.0


def test_float_specs_out_of_range_exit_2():
    """A JSON float weight, finite or not, is refused with the advice to
    quote it, never printed; the quoted weight past the float range is
    read exactly."""
    for argv, weight in ((["analyze", "-"], "NaN"),
                         (["bounds", "-", "--frobenius"], "1e400"),
                         (["analyze", "-"], "0.5")):
        spec = '{"n": 2, "rows": {"1": [[2, %s]], "2": []}}' % weight
        code, out, err = invoke(argv, spec)
        assert (code, out) == (2, ""), spec
        assert err.startswith("evolalg: ParseError:"), err
        assert '"0.5", "1/2"' in err
    huge = "1" + "0" * 400
    code, rep = report(["apply", "-", "--op", "omega", "--vector",
                        '{"1": "%s"}' % huge],
                       '{"n": 2, "rows": {"1": [[2, "%s"]], "2": []}}' % huge)
    assert code == 0
    assert rep["result"]["image"] == [[2, "1" + "0" * 800, "0"]]


def test_huge_finite_universe_exits_2():
    code, out, err = invoke(["analyze", "-"],
                            json.dumps({"n": 10**12, "rows": {}}))
    assert (code, out) == (2, "")
    assert "UNIVERSE_CEILING" in err


def test_analyze_growing_teeth_at_a_huge_budget():
    code, rep = report(["analyze", "--family", "growing_teeth",
                        "--budget", "1000000000"])
    assert code == 0
    res = rep["result"]
    assert (res["nil"]["status"], res["nilpotent"]["status"]) == ("yes", "no")


def test_frobenius_bounds_past_the_float_range():
    # the exact square sum 2e616 rounds up once, to a root below the largest
    # double
    code, rep = report(["bounds", "-", "--frobenius"], stdin=json.dumps(
        {"n": 2, "rows": {"1": [[2, "1e308"]], "2": [[1, "1e308"]]}}))
    assert code == 0
    assert rep["result"]["status"] == "certified"
    assert rep["result"]["bound"] == 1.4142135623730951e+308
    # a root of 2e308 or 1e400 has no double at or above it
    full = {"1": [[1, "1e308"], [2, "1e308"]],
            "2": [[1, "1e308"], [2, "1e308"]]}
    for spec in ({"n": 2, "rows": full},
                 {"n": 2, "rows": {"1": [[2, "1" + "0" * 400]], "2": []}}):
        code, out, err = invoke(["bounds", "-", "--frobenius"],
                                json.dumps(spec))
        assert (code, out) == (2, ""), spec
        assert "sys.float_info.max" in err


def _refusal(argv, stdin=None):
    """The error class of a refusal: exit 2, one stderr line, no stdout."""
    code, out, err = invoke(argv, stdin)
    assert (code, out) == (2, ""), (argv, stdin, err)
    assert err.startswith("evolalg: ") and err.count("\n") == 1, err
    return err.split(":")[1].strip()


ROWS = {"1": [[2, 1]], "2": []}
FLOAT_ROWS = {"mode": "float", "n": 2}

# Every refusal of the explicit-spec readers (_build_finite_explicit,
# EvolutionStructure.from_rows and __init__, as_scalar), with its class.
EXPLICIT_REFUSALS = [
    # the keys beside the rows: "exact" is the only mode, and tol is no key
    ({"rows": ROWS, "n": 2, "mode": "bogus"}, "InvalidParams"),
    ({"rows": ROWS, "n": 2, "mode": None}, "InvalidParams"),
    ({"rows": ROWS, "n": 2, "tol": "x"}, "InvalidParams"),
    ({"rows": ROWS, "n": 2, "tol": -1}, "InvalidParams"),
    ({"rows": ROWS, "n": 2, "tol": float("nan")}, "InvalidParams"),
    ({"rows": ROWS, "n": 2, "tol": float("inf")}, "InvalidParams"),
    # with tol -1 this zero-weight self-loop was read as an edge, and
    # analyze certified "not nil" from it
    ({"rows": {"1": [[1, 0.0]]}, "n": 1, "mode": "float", "tol": -1},
     "InvalidParams"),
    ({"rows": ROWS, "n": 3.7}, "InvalidParams"),
    ({"rows": ROWS, "n": "3"}, "InvalidParams"),
    ({"rows": ROWS, "n": True}, "InvalidParams"),
    ({"rows": ROWS, "n": None}, "InvalidParams"),
    ({"rows": ROWS, "n": 0}, "InvalidParams"),
    ({"rows": ROWS, "n": 10**12}, "InvalidParams"),
    ({"rows": ROWS}, "InvalidParams"),
    ({"rows": ROWS, "n": 2, "universe": "finite:2"}, "InvalidParams"),
    ({"rows": ROWS, "universe": "finite:x"}, "InvalidParams"),
    ({"rows": ROWS, "universe": 2}, "InvalidParams"),
    ({"rows": ROWS, "universe": "infinite"}, "InvalidParams"),
    ({"rows": ROWS, "n": 2, "nodes": 2}, "InvalidParams"),
    # the rows
    ({"rows": [], "n": 2}, "ParseError"),
    ({"rows": {"a": []}, "n": 2}, "ParseError"),
    ({"rows": {"3": []}, "n": 2}, "ValidationError"),
    ({"rows": {"0": []}, "n": 2}, "ValidationError"),
    ({"rows": {"1": [], "01": []}, "n": 2}, "ValidationError"),
    ({"rows": {"1": {"2": 1}}, "n": 2}, "ParseError"),
    ({"rows": {"1": [2, 1]}, "n": 2}, "ParseError"),
    ({"rows": {"1": [[2]]}, "n": 2}, "ParseError"),
    ({"rows": {"1": [[2, 1, 0, 0]]}, "n": 2}, "ParseError"),
    ({"rows": {"1": [["2", 1]]}, "n": 2}, "ParseError"),
    ({"rows": {"1": [[True, 1]]}, "n": 2}, "ParseError"),
    ({"rows": {"1": [[2, "0/1"]]}, "n": 2}, "ValidationError"),
    ({"rows": {"1": [[2, 1e-13]]}, **FLOAT_ROWS, "tol": 1e-9},
     "InvalidParams"),
    ({"rows": {"1": [[2, 1], [1, 1]]}, "n": 2}, "ValidationError"),
    ({"rows": {"1": [[2, 1], [2, 1]]}, "n": 2}, "ValidationError"),
    ({"rows": {"1": [[0, 1]]}, "n": 2}, "ValidationError"),
    ({"rows": {"1": [[3, 1]]}, "n": 2}, "ValidationError"),
    # exact weights
    ({"rows": {"1": [[2, "abc"]]}, "n": 2}, "ParseError"),
    ({"rows": {"1": [[2, "1/0"]]}, "n": 2}, "ParseError"),
    ({"rows": {"1": [[2, 0.5]]}, "n": 2}, "ParseError"),
    ({"rows": {"1": [[2, "1", 0.5]]}, "n": 2}, "ParseError"),
    ({"rows": {"1": [[2, True]]}, "n": 2}, "ParseError"),
    ({"rows": {"1": [[2, None]]}, "n": 2}, "ParseError"),
    ({"rows": {"1": [[2, {}]]}, "n": 2}, "ParseError"),
    ({"rows": {"1": [[2, [1, 2, 3]]]}, "n": 2}, "ParseError"),
    # float mode, refused before any weight is read
    ({"rows": {"1": [[2, "abc"]]}, **FLOAT_ROWS}, "InvalidParams"),
    ({"rows": {"1": [[2, "1" + "0" * 400]]}, **FLOAT_ROWS}, "InvalidParams"),
    ({"rows": {"1": [[2, 10**400]]}, **FLOAT_ROWS}, "InvalidParams"),
    ({"rows": {"1": [[2, False]]}, **FLOAT_ROWS}, "InvalidParams"),
    ({"rows": {"1": [[2, [1.0, None]]]}, **FLOAT_ROWS}, "InvalidParams"),
    ({"rows": {"1": [[2, float("nan")]]}, **FLOAT_ROWS}, "InvalidParams"),
    ({"rows": {"1": [[2, float("-inf")]]}, **FLOAT_ROWS}, "InvalidParams"),
    ({"rows": {"1": [[2, 1.0, float("inf")]]}, **FLOAT_ROWS},
     "InvalidParams"),
    # row keys: decimal digits with an optional '-', nothing else
    ({"rows": {"1_0": [[11, 1]], " 3 ": [[4, 1]]}, "n": 20}, "ParseError"),
    ({"rows": {" 3 ": [[4, 1]]}, "n": 20}, "ParseError"),
    ({"rows": {"+1": []}, "n": 2}, "ParseError"),
    ({"rows": {"\u0661": []}, "n": 2}, "ParseError"),
    ({"rows": {"1" * 5000: []}, "n": 2}, "ParseError"),
    ({"rows": {"-1": []}, "n": 2}, "ValidationError"),
    # the universe size: ASCII decimal digits after 'finite:', as row keys
    ({"rows": ROWS, "universe": "finite: 3"}, "InvalidParams"),
    ({"rows": ROWS, "universe": "finite:1_0"}, "InvalidParams"),
    ({"rows": ROWS, "universe": "finite:+3"}, "InvalidParams"),
    ({"rows": ROWS, "universe": "finite:\u0663"}, "InvalidParams"),
    # JSON floats that are not finite, as exact weights
    ({"rows": {"1": [[2, float("nan")]]}, "n": 2}, "ParseError"),
    ({"rows": {"1": [[2, "1", float("-inf")]]}, "n": 2}, "ParseError"),
]


@pytest.mark.parametrize("spec,error", EXPLICIT_REFUSALS,
                         ids=[str(n) for n in range(len(EXPLICIT_REFUSALS))])
def test_explicit_spellings_refuse_alike(spec, error):
    """A {"rows": ...} spec on stdin and the same object as finite_explicit
    params give one exit code and one stderr line."""
    text = json.dumps(spec)
    via_family = invoke(["analyze", "--family", "finite_explicit",
                         "--params", text])
    assert invoke(["analyze", "-"], text) == via_family
    assert _refusal(["analyze", "-"], text) == error


def test_finite_explicit_needs_rows():
    assert _refusal(["analyze", "--family", "finite_explicit", "--params",
                     '{"n": 2}']) == "InvalidParams"


@pytest.mark.parametrize("argv,stdin,error", [
    (["analyze", "-"], "{nope", "ParseError"),
    (["analyze", "-"], '{"n": 1%s}' % ("0" * 5000), "ParseError"),
    (["analyze", "-"], "[" * 100000, "ParseError"),
    (["analyze", "-"], "[]", "ParseError"),
    (["analyze", "-"], '{"family": 1}', "ParseError"),
    (["analyze", "-"], '{"family": "comb", "params": []}', "ParseError"),
    (["analyze", "-"], '{"n": 2}', "ParseError"),
    (["analyze", "--family", "comb", "--params", "[" * 100000], None,
     "ParseError"),
    (["analyze", "--family", "comb", "--params", "[]"], None, "ParseError"),
])
def test_spec_refusals(argv, stdin, error):
    assert _refusal(argv, stdin) == error


@pytest.mark.parametrize("element,mode,error", [
    ("{nope", "exact", "ParseError"),
    ("[" * 100000, "exact", "ParseError"),
    ('"e1"', "exact", "ParseError"),
    ("3", "exact", "ParseError"),
    ('{"a": 1}', "exact", "ParseError"),
    ("[[1]]", "exact", "ParseError"),
    ("[1]", "exact", "ParseError"),
    ('[["1", 1]]', "exact", "ParseError"),
    ("[[true, 1]]", "exact", "ParseError"),
    ("[[1, 1], [1, 2]]", "exact", "ValidationError"),
    ("[[0, 1]]", "exact", "ValidationError"),
    ('{"0": 1}', "exact", "ValidationError"),
    ('{"-3": 1}', "exact", "ValidationError"),
    ('{"1": 1, "01": 2}', "exact", "ValidationError"),
    ('{"1_0": 1}', "exact", "ParseError"),
    ('{" 1 ": 1}', "exact", "ParseError"),
    ('{"+1": 1}', "exact", "ParseError"),
    ('{"\\u0661": 1}', "exact", "ParseError"),
    ('{"": 1}', "exact", "ParseError"),
    ('{"1": 0.5}', "exact", "ParseError"),
    ('{"1": "x"}', "exact", "ParseError"),
    ('{"1": [1, 2, 3]}', "exact", "ParseError"),
    ("[[1, 1, null]]", "exact", "ParseError"),
    ('{"1": true}', "exact", "ParseError"),
    ('{"1": 1e400}', "exact", "ParseError"),
    ('{"1": NaN}', "exact", "ParseError"),
    ("[[1, 1, -Infinity]]", "exact", "ParseError"),
    # float mode is refused before the element is read
    ('{"1": "1e400"}', "float", "InvalidParams"),
])
def test_element_refusals(element, mode, error):
    spec = json.dumps({"mode": mode, "n": 2, "rows": ROWS})
    for command in (["power", "-", "--element", element, "-n", "2"],
                    ["apply", "-", "--op", "omega", "--vector", element]):
        assert _refusal(command, spec) == error


def test_power_exponent_ceiling():
    base = ["power", "--family", "hub_line", "--element", '{"2": 1}', "-n"]
    code, square = report(base + ["2"])
    assert code == 0
    code, top = report(base + [str(POWER_CEILING)])
    assert code == 0
    # u^2 = u^3 = ... = e_2 + e_3 on hub_line
    assert top["result"] == square["result"]
    start = time.monotonic()
    code, out, err = invoke(base + [str(POWER_CEILING + 1)])
    assert (code, out) == (2, "")
    assert err.startswith("evolalg: InvalidParams:")
    assert f"POWER_CEILING = {POWER_CEILING}" in err
    assert time.monotonic() - start < 1.0
