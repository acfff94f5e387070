"""JSON input-spec parsing and report-friendly rendering.

Input spec (one JSON object):

    {"family": "<name>", "params": {...}}
    {"rows": {"1": [[2, "1/2"], [3, ["0", "1"]]]}, "n": 3,
     "mode": "exact", "tol": 1e-12}

The universe size may also be spelled ``"universe": "finite:3"`` in place of
``"n": 3``.

Row entries are ``[target, weight]`` or ``[target, re, im]``; weights are
integers, rational strings ("1/2", "1/3+1/2*sqrt2"), or ``[re, im]`` pairs.
Plain floats are only accepted in float mode; exact mode rejects them rather
than silently converting.

Elements use the same weight forms: ``[[vertex, weight], ...]`` or
``[[vertex, re, im], ...]`` or an object ``{"vertex": weight}``.
"""
from __future__ import annotations

import dataclasses
import enum
import json
import math
from fractions import Fraction

from .algebra import ApproxElement, Element
from .errors import ParseError
from .families import FamilySpec, build_family
from .graph import EvolutionStructure
from .scalars import ExactScalar, Q2, fraction_str, q2_parse, q2_str

# -- weights -----------------------------------------------------------------


def _q2_of(raw) -> Q2:
    if isinstance(raw, bool):
        raise ParseError(f"booleans are not numbers: {raw!r}")
    if isinstance(raw, int):
        return Q2(raw)
    if isinstance(raw, str):
        try:
            return q2_parse(raw)
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError(f"cannot parse exact number {raw!r}") from e
    if isinstance(raw, float):
        raise ParseError(f"float {raw!r} in exact mode; quote a rational "
                         f"string or switch to mode 'float'")
    raise ParseError(f"cannot read {raw!r} as an exact number")


def _float_of(raw) -> float:
    if isinstance(raw, bool):
        raise ParseError(f"booleans are not numbers: {raw!r}")
    if not isinstance(raw, (int, float, str)):
        raise ParseError(f"cannot read {raw!r} as a number")
    try:
        f = float(Fraction(raw)) if isinstance(raw, str) else float(raw)
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        raise ParseError(f"cannot parse number {raw!r}") from e
    if not math.isfinite(f):
        raise ParseError(f"number {raw!r} is not finite")
    return f


def parse_weight(raw, mode: str):
    """One scalar from its JSON form, honouring the structure mode."""
    if isinstance(raw, list):
        if len(raw) != 2:
            raise ParseError(f"complex values are [re, im], got {raw!r}")
        if mode == "exact":
            return ExactScalar(_q2_of(raw[0]), _q2_of(raw[1]))
        return complex(_float_of(raw[0]), _float_of(raw[1]))
    if mode == "exact":
        return ExactScalar(_q2_of(raw))
    return complex(_float_of(raw))


def _normalize_rows(raw_rows, mode: str) -> dict:
    if not isinstance(raw_rows, dict):
        raise ParseError("'rows' must be an object mapping vertex -> entries")
    out = {}
    for key, entries in raw_rows.items():
        try:
            i = int(key)
        except (TypeError, ValueError) as e:
            raise ParseError(f"row key {key!r} is not an integer") from e
        if not isinstance(entries, list):
            raise ParseError(f"row {i}: entries must be a list")
        conv = []
        for e in entries:
            if not isinstance(e, list) or len(e) not in (2, 3):
                raise ParseError(f"row {i}: entries are [target, weight] or "
                                 f"[target, re, im], got {e!r}")
            target = e[0]
            if isinstance(target, bool) or not isinstance(target, int):
                raise ParseError(f"row {i}: target {target!r} is not an integer")
            raw_w = e[1] if len(e) == 2 else [e[1], e[2]]
            conv.append((target, parse_weight(raw_w, mode)))
        out[i] = conv
    return out


# -- structures --------------------------------------------------------------


def _universe_size(obj) -> int:
    if "n" in obj:
        if "universe" in obj:
            raise ParseError("give 'n' or 'universe', not both")
        n = obj["n"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise ParseError(f"'n' must be an integer, got {n!r}")
        return n
    uni = obj.get("universe")
    if uni is None:
        raise ParseError("explicit specs need 'n' or 'universe': 'finite:N'")
    if isinstance(uni, str) and uni.startswith("finite:"):
        try:
            return int(uni[len("finite:"):])
        except ValueError:
            pass
    raise ParseError(f"'universe' must look like 'finite:N', got {uni!r}")


def parse_structure(spec) -> EvolutionStructure:
    """Build a structure from an input-spec JSON object or its text."""
    if isinstance(spec, (str, bytes)):
        try:
            obj = json.loads(spec)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e}") from e
    else:
        obj = spec
    if not isinstance(obj, dict):
        raise ParseError("input spec must be a JSON object")

    if "family" in obj:
        name = obj["family"]
        params = obj.get("params", {})
        if not isinstance(name, str):
            raise ParseError("'family' must be a string")
        if not isinstance(params, dict):
            raise ParseError("'params' must be an object")
        if name == "finite_explicit" and "rows" in params:
            params = dict(params)
            params["rows"] = _normalize_rows(params["rows"],
                                             params.get("mode", "exact"))
        return build_family(FamilySpec(name, params))

    if "rows" in obj:
        mode = obj.get("mode", "exact")
        if mode not in ("exact", "float"):
            raise ParseError(f"mode must be 'exact' or 'float', got {mode!r}")
        n = _universe_size(obj)
        rows = _normalize_rows(obj["rows"], mode)
        tol = obj.get("tol", 1e-12)
        return EvolutionStructure.from_rows(rows, n, mode, tol)

    raise ParseError("expected {'family': name, 'params': ...} or "
                     "{'rows': ..., 'n': ...}")


def serialize_structure(s: EvolutionStructure) -> dict:
    """Report-side description: the source spec plus mode and universe."""
    return {
        "mode": s.mode,
        "universe": s.universe,
        "source": jsonable(s.source if s.source is not None else {"kind": "opaque"}),
    }


# -- elements ----------------------------------------------------------------


def parse_element(spec, mode: str) -> Element:
    """Element from ``[[vertex, weight], ...]`` / ``{"vertex": weight}`` JSON."""
    if isinstance(spec, (str, bytes)):
        try:
            obj = json.loads(spec)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e}") from e
    else:
        obj = spec
    if isinstance(obj, dict):
        items = []
        for key, raw in obj.items():
            try:
                items.append((int(key), raw))
            except (TypeError, ValueError) as e:
                raise ParseError(f"vertex key {key!r} is not an integer") from e
    elif isinstance(obj, list):
        items = []
        for e in obj:
            if not isinstance(e, list) or len(e) not in (2, 3):
                raise ParseError(f"element entries are [vertex, weight] or "
                                 f"[vertex, re, im], got {e!r}")
            v = e[0]
            if isinstance(v, bool) or not isinstance(v, int):
                raise ParseError(f"vertex {v!r} is not an integer")
            items.append((v, e[1] if len(e) == 2 else [e[1], e[2]]))
    else:
        raise ParseError("element must be a JSON list or object")

    coeffs = {}
    for v, raw in items:
        if v in coeffs:
            raise ParseError(f"vertex {v} appears twice")
        coeffs[v] = parse_weight(raw, mode)
    return Element(coeffs)


def element_jsonable(e):
    """Render an element as ``[[vertex, re, im], ...]`` (strings when exact)."""
    if isinstance(e, ApproxElement):
        return {
            "prefix": element_jsonable(e.prefix),
            "cutoff": e.cutoff,
            "tail_norm_bound": jsonable(e.tail_norm_bound),
        }
    out = []
    for k, w in e.items():
        if isinstance(w, ExactScalar):
            out.append([k, q2_str(w.re), q2_str(w.im)])
        else:
            out.append([k, w.real, w.imag])
    return out


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
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, (Element, ApproxElement)):
        return element_jsonable(x)
    if isinstance(x, enum.Enum):
        return x.value
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        out = {"type": type(x).__name__}
        for f in dataclasses.fields(x):
            value = getattr(x, f.name)
            if callable(value):
                continue
            out[f.name] = jsonable(value)
        return out
    if isinstance(x, (set, frozenset)):
        return sorted(jsonable(v) for v in x)
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    return str(x)
