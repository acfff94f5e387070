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
# decimal and rational strings, each read exactly
DECIMAL = json.dumps({"n": 3, "rows": {
    "1": [[2, "1/2"], [3, ["1/4", "-3/2"]]],
    "2": [[3, "2"]],
    "3": []}})
EXPLICIT_PARAMS = json.dumps({"n": 3, "rows": {
    "1": [[2, "1/2"], [3, "2"]], "2": [[3, "-1"]], "3": []}})
# 1 -> 2 -> ... -> 40: in the window {1..39} the last vertex has its edge
# leaving the window, so the whole window is blocked.
CHAIN = json.dumps({"n": 40, "rows": {
    str(i): [[i + 1, "1/2" if i % 2 else "-3"]] for i in range(1, 40)}})
# random_finite_structure(693): cycle_search finds 1 -> 3 -> 5 -> 1 while
# window triangularisation stops at the self-loop on 4.
SEED_693 = json.dumps({"n": 5, "rows": {
    "1": [[3, "-3/2"], [5, "1"]], "3": [[5, "-4/7"]], "4": [[4, "-5"]],
    "5": [[1, "1/4"]]}})
# 30 vertices, steps of 2 and 3: the longest path has 14 edges.
DAG_30 = json.dumps({"n": 30, "rows": {
    str(i): [[i + 2, "1/2"]] + ([[i + 3, "-1"]] if i % 4 == 1 else [])
    for i in range(1, 29)}})



def _weight(i, j):
    """The j-th weight of row i, cycling through every exact weight form."""
    kind = (i + j) % 5
    if kind == 0:
        return [i % 7 - 3 or 5]  # JSON integer
    if kind == 1:
        return [f"{i % 11 - 5 or 1}/{j + 2}"]
    if kind == 2:
        return [f"{i % 3 - 1}/{j + 3}+{i % 5 + 1}/2*sqrt2"]
    if kind == 3:
        return [[f"{i % 4}", f"-{j + 1}/3"]]  # [re, im] pair
    return [f"{j + 1}/{i}", "1/2*sqrt2"]  # [target, re, im] entry


def _sparse(n, back_edges=()):
    """Forward edges of reach 1-4 on {1..n}, plus the given back edges."""
    rows = {}
    for i in range(1, n):
        targets = {i + 2 + (i * 7 + d) % 3 for d in range(i % 3)}
        if i % 37:
            targets.add(i + 1)
        targets |= {t for v, t in back_edges if v == i}
        targets = sorted(t for t in targets if t <= n)
        rows[str(i)] = [[t, *_weight(i, j)] for j, t in enumerate(targets)]
    return json.dumps({"n": n, "rows": rows})


# A 300-vertex sparse DAG and the same graph with one back edge.
SPARSE_DAG = _sparse(300)
SPARSE_CYCLIC = _sparse(300, back_edges=((290, 230),))

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
    for spec in (ACYCLIC, CYCLIC, DECIMAL):
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
    for spec, window in ((CHAIN, "39"), (SEED_693, "5"), (DAG_30, "30"),
                         (SPARSE_DAG, "300"), (SPARSE_CYCLIC, "300")):
        cases += [
            (["analyze", "-"], spec),
            (["index", "-"], spec),
            (["triangularize", "-", "--window", window], spec),
        ]
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
