"""No weight makes the CLI raise.

Hypothesis draws explicit finite specs (at most six vertices, exact or float
mode) whose weights are ints, ~400-digit ints, rationals with ~400-digit
parts, floats including NaN, ±inf, 1e308 and the smallest subnormal,
``[re, im]`` pairs and booleans, and runs one report command in process.
Every run must end with a documented exit code, and a printed report must be
strict JSON: no ``NaN`` or ``Infinity``.
"""
import contextlib
import io
import json
import math

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

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


@st.composite
def specs(draw):
    n = draw(st.integers(1, 6))
    rows = {}
    for i in range(1, n + 1):
        targets = draw(st.lists(st.integers(1, n), unique=True, max_size=n))
        rows[str(i)] = [[t, draw(weights)] for t in sorted(targets)]
    return {"n": n, "mode": draw(st.sampled_from(["exact", "float"])),
            "rows": rows}


def _reject(constant):
    raise ValueError(f"{constant} in a report")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=specs(), command=st.sampled_from(COMMANDS))
def test_no_weight_makes_the_cli_raise(spec, command):
    argv = [command[0], "--family", "finite_explicit",
            "--params", json.dumps(spec), *command[1:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    if code == 2:
        assert out.getvalue() == ""
    else:
        json.loads(out.getvalue(), parse_constant=_reject)
