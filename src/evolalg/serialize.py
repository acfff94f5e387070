"""JSON input-spec parsing and report-friendly rendering.

Input spec (one JSON object), a family reference or explicit finite rows:

    {"family": "<name>", "params": {...}}
    {"rows": {"1": [[2, "1/2"], [3, ["0", "1"]]]}, "n": 3, "mode": "exact"}

An explicit spec takes the keys ``rows``, ``n`` (an integer >= 1) or
``"universe": "finite:N"`` in its place, and ``mode``, which may only be
"exact", the default.  It is read by one routine whichever way it comes, as
a ``{"rows": ...}`` spec or as the params of the ``finite_explicit`` family.

Row entries are ``[target, weight]`` or ``[target, re, im]``; weights are
integers, rational or decimal strings ("1/2", "0.1", "1/3+1/2*sqrt2"), or
``[re, im]`` pairs, and each is read exactly.  A JSON float is refused
rather than read as its binary64 rounding.  Every weight is converted once,
by :func:`~evolalg.scalars.as_scalar`.

Elements use the same weight forms: ``[[vertex, weight], ...]`` or
``[[vertex, re, im], ...]`` or an object ``{"vertex": weight}``.

Errors: ParseError for a value that cannot be read (text that is not JSON,
a row that is not a list, a row or element key that is not decimal digits
with an optional leading '-', a bool or a float as a weight);
ValidationError for a value that reads but breaks a rule (a zero weight, a
target out of order or outside the universe, a vertex given twice, an
element vertex id below 1); InvalidParams for a bad ``n`` or ``universe``,
a ``mode`` other than "exact", and an unknown key.
"""
from __future__ import annotations

import enum
import json
import math
from fractions import Fraction

from .algebra import ApproxElement, Element
from .errors import ParseError, ValidationError
from .families import FamilySpec, _build_finite_explicit, build_family
from .graph import EvolutionStructure, _vertex_key
from .records import Record
from .scalars import ExactScalar, Q2, as_scalar, fraction_str, q2_str

# -- structures --------------------------------------------------------------


def read_json(spec):
    """The JSON value of ``spec`` when it is text, else ``spec`` itself.

    ParseError also for text the decoder refuses past its limits: integers
    longer than ``sys.get_int_max_str_digits()`` and nesting deeper than
    the recursion limit."""
    if not isinstance(spec, (str, bytes)):
        return spec
    try:
        return json.loads(spec)
    except (ValueError, RecursionError) as e:
        raise ParseError(f"invalid JSON: {e}") from e


def parse_structure(spec) -> EvolutionStructure:
    """Build a structure from an input-spec JSON object or its text."""
    obj = read_json(spec)
    if not isinstance(obj, dict):
        raise ParseError("input spec must be a JSON object")
    if "family" in obj:
        name = obj["family"]
        params = obj.get("params", {})
        if not isinstance(name, str):
            raise ParseError("'family' must be a string")
        if not isinstance(params, dict):
            raise ParseError("'params' must be an object")
        return build_family(FamilySpec(name, params))
    if "rows" in obj:
        return _build_finite_explicit(obj)
    raise ParseError("expected {'family': name, 'params': ...} or "
                     "{'rows': ..., 'n': ...}")


def serialize_structure(s: EvolutionStructure) -> dict:
    """Report-side description: the source spec plus mode and universe."""
    return {
        "mode": "exact",
        "universe": s.universe,
        "source": jsonable(s.source if s.source is not None else {"kind": "opaque"}),
    }


# -- elements ----------------------------------------------------------------


def parse_element(spec) -> Element:
    """Element from ``[[vertex, weight], ...]`` / ``{"vertex": weight}`` JSON."""
    obj = read_json(spec)
    if isinstance(obj, dict):
        items = [(_vertex_key(key, "vertex"), raw) for key, raw in obj.items()]
    elif isinstance(obj, list):
        items = []
        for e in obj:
            if not isinstance(e, list) or len(e) not in (2, 3):
                raise ParseError(f"element entries are [vertex, weight] or "
                                 f"[vertex, re, im], got {e!r}")
            v = e[0]
            if type(v) is not int:
                raise ParseError(f"vertex {v!r} is not an integer")
            items.append((v, e[1] if len(e) == 2 else e[1:]))
    else:
        raise ParseError("element must be a JSON list or object")

    coeffs = {}
    for v, raw in items:
        if v < 1:
            raise ValidationError(f"vertex id {v} out of range")
        if v in coeffs:
            raise ValidationError(f"vertex {v} appears twice")
        coeffs[v] = as_scalar(raw)
    return Element(coeffs)


def element_jsonable(e):
    """Render an element as ``[[vertex, re, im], ...]`` with string parts."""
    if isinstance(e, ApproxElement):
        return {
            "prefix": element_jsonable(e.prefix),
            "cutoff": e.cutoff,
            "tail_norm_bound": jsonable(e.tail_norm_bound),
        }
    return [[k, q2_str(w.re), q2_str(w.im)] for k, w in e.items()]


# -- generic rendering -------------------------------------------------------


def jsonable(x):
    """Recursively convert library objects into JSON-serializable data."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, float):
        if math.isinf(x):
            return "infinity" if x > 0 else "-infinity"
        return x
    if isinstance(x, Fraction):
        return fraction_str(x)
    if isinstance(x, Q2):
        return q2_str(x)
    if isinstance(x, ExactScalar):
        return [q2_str(x.re), q2_str(x.im)]
    if isinstance(x, (Element, ApproxElement)):
        return element_jsonable(x)
    if isinstance(x, enum.Enum):
        return x.value
    if isinstance(x, Record):
        out = {"type": type(x).__name__}
        for name in x._fields:
            value = getattr(x, name)
            if callable(value):
                continue
            out[name] = jsonable(value)
        return out
    if isinstance(x, (set, frozenset)):
        return sorted(jsonable(v) for v in x)
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    return str(x)
