"""No spec makes the CLI raise.

Hypothesis draws explicit finite specs (at most six vertices, with mode
"exact" or the retired "float", and now and then the retired ``tol`` key)
whose weights are ints, ~400-digit ints, rationals with ~400-digit parts,
floats including NaN, ±inf, 1e308 and the smallest subnormal, ``[re, im]``
pairs and booleans.  Now and then ``mode``, ``tol``, ``n`` or ``universe``
is any JSON value instead (null, bool, int, float with NaN and inf, string,
list, object), both size keys are given, or a stray key is added.  The spec
goes to one report command in process, on stdin or as ``--family
finite_explicit`` params.  Every run must end with a documented exit code,
and a printed report must be strict JSON: no ``NaN`` or ``Infinity``.  A
spec with a mode other than "exact" or with ``tol`` must be refused: exit 2
and one stderr line.  Both spellings of one spec must end alike.  Family
params get the same check: ``analyze`` on every family, with thirteen bad
values per param key and with one stray key; every value of
``finite_explicit``'s ``mode`` and ``tol`` keys must be refused.
"""
import contextlib
import io
import json
import math
import sys

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from evolalg import list_families
from evolalg.cli import run

COMMANDS = (
    ["analyze"],
    ["bounds", "--frobenius"],
    ["bounds", "--schur", "ones,ones,1,1"],
    ["apply", "--op", "omega", "--vector", '{"1": 1}'],
    ["apply", "--op", "omega", "--vector", '{"1": 1e200}'],
    ["power", "--element", '{"1": 1e200}', "-n", "2"],
)

big_ints = st.integers(10**399, 10**401) | st.integers(-10**401, -10**399)
scalars = st.one_of(
    st.integers(-10**6, 10**6),
    big_ints,
    st.builds(lambda p, q: f"{p}/{q}", big_ints, st.integers(10**399, 10**401)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324]),
    st.booleans(),
)
weights = scalars | st.lists(scalars, min_size=2, max_size=2)


json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10**30),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=12),
    st.sampled_from(["exact", "float", "finite:3", "finite:", "3", "1e-9"]),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@st.composite
def specs(draw):
    n = draw(st.integers(1, 6))
    rows = {}
    for i in range(1, n + 1):
        targets = draw(st.lists(st.integers(1, n), unique=True, max_size=n))
        rows[str(i)] = [[t, draw(weights)] for t in sorted(targets)]
    spec = {"rows": rows}
    # each key is well formed three times in four, any JSON value otherwise
    size = draw(st.sampled_from(["n", "n", "universe", "both"]))
    if size != "universe":
        spec["n"] = n if draw(st.integers(0, 3)) else draw(json_values)
    if size != "n":
        spec["universe"] = (f"finite:{n}" if draw(st.integers(0, 3))
                            else draw(json_values))
    mode = draw(st.sampled_from(["exact", "float"]))
    spec["mode"] = mode if draw(st.integers(0, 3)) else draw(json_values)
    if draw(st.booleans()):
        spec["tol"] = 1e-9 if draw(st.integers(0, 3)) else draw(json_values)
    if not draw(st.integers(0, 5)):
        spec[draw(st.text(min_size=1, max_size=6))] = draw(json_values)
    return spec


def _reject(constant):
    raise ValueError(f"{constant} in a report")


def _run(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = old_stdin
    assert code in (0, 2, 3), (argv, stdin, err.getvalue())
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1, err.getvalue()
        return code, err.getvalue()
    json.loads(out.getvalue(), parse_constant=_reject)
    return code, None


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=specs(), command=st.sampled_from(COMMANDS))
def test_no_weight_makes_the_cli_raise(spec, command):
    text = json.dumps(spec)
    family = [command[0], "--family", "finite_explicit", "--params", text,
              *command[1:]]
    outcome = _run([command[0], "-", *command[1:]], text)
    assert outcome == _run(family, "")
    if spec["mode"] != "exact" or "tol" in spec:
        assert outcome[0] == 2, spec


# Thirteen values that are wrong for most family params: JSON's every kind,
# the float edge cases, huge and negative numbers, and near-miss strings.
BAD_PARAMS = (None, True, -1, 0, 10**30, 0.5, math.nan, -math.inf, "",
              "1/0", "finite:", [1, 2], {"a": 1})
FAMILY_PARAMS = {
    "rary_tree": ({}, ("r", "weights")),
    "markov_line": ({}, ("ratio",)),
    "hub_line": ({}, ("alpha",)),
    "finite_explicit": ({"rows": {"1": [[2, "1"]]}, "n": 2},
                        ("rows", "n", "universe", "mode", "tol")),
}
# Keys that no value in BAD_PARAMS, nor any other, makes acceptable.
ALWAYS_REFUSED = {("finite_explicit", "mode"), ("finite_explicit", "tol")}


def test_no_family_param_makes_analyze_raise():
    for family in list_families():
        base, keys = FAMILY_PARAMS.get(family, ({}, ()))
        cases = [({**base, "stray": 1}, False)]
        for key in keys:
            for value in BAD_PARAMS:
                params = {k: v for k, v in base.items()
                          if not (key == "universe" and k == "n")}
                cases.append(({**params, key: value},
                              (family, key) in ALWAYS_REFUSED))
        for params, refused in cases:
            # _run asserts the exit code and that stdout is strict JSON
            code, _ = _run(["analyze", "--family", family, "--params",
                            json.dumps(params)], "")
            assert code == 2 or not refused, params
