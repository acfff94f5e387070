"""CLI reports pinned byte for byte against a stored corpus.

Each case runs ``evolalg.cli.run`` in-process and compares the exit code and
the whole of stdout, with the ``timestamp`` value masked, against
``tests/golden/cli_reports.json``.  Regenerate that file (only when a report
change is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""
import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from evolalg.cli import run

GOLDEN = Path(__file__).parent / "golden" / "cli_reports.json"

ACYCLIC = json.dumps({"n": 4, "rows": {
    "1": [[2, "1/2"], [3, "1/3+1/2*sqrt2"]],
    "2": [[4, ["0", "1"]]],
    "3": [[4, "-2"]],
    "4": []}})
CYCLIC = json.dumps({"n": 3, "rows": {
    "1": [[2, "3/4"]],
    "2": [[3, "1"]],
    "3": [[1, "-1/2"], [2, "sqrt2"]]}})
FLOAT = json.dumps({"mode": "float", "tol": 1e-9, "n": 3, "rows": {
    "1": [[2, 0.5], [3, [0.25, -1.5]]],
    "2": [[3, 2.0]],
    "3": []}})
EXPLICIT_PARAMS = json.dumps({"n": 3, "rows": {
    "1": [[2, "1/2"], [3, "2"]], "2": [[3, "-1"]], "3": []}})

FAMILIES = ["comb", "growing_teeth", "markov_line", "hub_line", "alt_line_B",
            "alt_line_C0", "rary_tree", "finite_explicit"]


def _family_args(name):
    if name == "finite_explicit":
        return ["--family", name, "--params", EXPLICIT_PARAMS]
    return ["--family", name]


def _cases():
    cases = []
    for fam in FAMILIES:
        src = _family_args(fam)
        cases += [
            (["analyze", *src], None),
            (["index", *src], None),
            (["triangularize", *src, "--window", "10"], None),
            (["export-dot", *src, "--window", "5"], None),
            (["bounds", *src, "--frobenius", "--window", "12"], None),
            (["bounds", *src, "--schur", "ones,ones,1,2", "--window", "12"],
             None),
        ]
    for op in ("omega", "gamma", "adj", "adjT"):
        base = ["apply", "--family", "markov_line", "--op", op,
                "--vector", '{"1": 1, "3": "1/2"}']
        cases += [(base, None), (base + ["--cutoff", "8"], None)]
    for fam in ("markov_line", "hub_line"):
        base = ["power", "--family", fam, "--element", '{"1": 1, "2": "2"}',
                "-n", "2"]
        cases += [(base, None), (base + ["--cutoff", "9"], None)]
    for spec in (ACYCLIC, CYCLIC, FLOAT):
        cases += [
            (["analyze", "-"], spec),
            (["oracle", "-"], spec),
            (["triangularize", "-", "--window", "3"], spec),
            (["power", "-", "--element", '{"1": 1, "2": 1, "3": 1}',
              "-n", "2"], spec),
            (["apply", "-", "--op", "gamma", "--vector", '{"3": 1, "4": 1}'
              if spec == ACYCLIC else '{"3": 1}'], spec),
        ]
    cases.append((["families", "list"], None))
    return cases


CASES = _cases()

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def _case_id(argv, stdin):
    return " ".join(argv) + (" < " + stdin if stdin is not None else "")


def invoke(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = old_stdin
    return code, _TIMESTAMP.sub('"timestamp": "*"', out.getvalue())


def _expected():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv,stdin", CASES,
                         ids=[str(n) for n in range(len(CASES))])
def test_cli_report_matches_golden(argv, stdin):
    want = _expected()[_case_id(argv, stdin)]
    code, out = invoke(argv, stdin)
    assert code == want["code"]
    assert out == want["stdout"]


def test_golden_file_covers_exactly_the_cases():
    assert sorted(_expected()) == sorted(_case_id(a, s) for a, s in CASES)


if __name__ == "__main__":
    table = {}
    for argv, stdin in CASES:
        code, out = invoke(argv, stdin)
        table[_case_id(argv, stdin)] = {"code": code, "stdout": out}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cases to {GOLDEN}")
