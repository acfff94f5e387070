"""Per-layer measurement from outside the package: spans and a profile.

Spans wrap the benchmark's own calls into each layer's public functions and
stay in memory until the run ends.  The profile pass charges self time and
call counts to the eight layers, which are the modules of ``src/evolalg``.
Code outside those modules (``fractions``, builtins, ``evolalg.errors``)
is charged to the layer that called it, split over its callers by the time
or the calls each caller accounts for.  That is how ``scalars`` shows up
even though the benchmark never calls it directly.
"""
from __future__ import annotations

import pstats
import time
from pathlib import Path

from .workloads import LAYERS

_PACKAGE = str(Path(__file__).resolve().parent.parent / "src" / "evolalg")


def direct(layer, fn, *args, **kwargs):
    """The untraced way to call into a layer."""
    return fn(*args, **kwargs)


class Spans:
    """Calls into layers as (layer, start, end) records, kept in memory."""

    def __init__(self):
        self.records = []

    def __call__(self, layer, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.records.append((layer, start, time.perf_counter()))

    def totals(self) -> dict:
        out = {}
        for layer in LAYERS:
            spans = [end - start for name, start, end in self.records
                     if name == layer]
            out[f"{layer}.calls"] = len(spans)
            out[f"{layer}.busy_s"] = sum(spans)
        return out


def _layer_of(func) -> str | None:
    path = Path(func[0])
    if str(path.parent) == _PACKAGE and path.stem in LAYERS:
        return path.stem
    return None


def attribute(stats: pstats.Stats) -> dict:
    """``<layer>.self_share`` and ``<layer>.fn_calls`` from a profile.

    Functions are visited in sorted order, so the float sums, the call
    counts rounded from them, and the way recursion among non-layer callers
    is cut come out the same on every run.
    """
    table = stats.stats
    memo: dict = {}

    def owners(func, by: int, visiting: frozenset) -> dict:
        """Share of `func`'s cost owned by each layer; `by` picks the caller
        weight: 0 call counts, 2 time."""
        key = (func, by)
        if key in memo:
            return memo[key]
        layer = _layer_of(func)
        if layer is not None:
            memo[key] = {layer: 1.0}
            return memo[key]
        callers = table[func][4] if func in table else {}
        total, acc = 0.0, {}
        for caller in sorted(callers):
            if caller in visiting:
                continue
            weight = callers[caller][by]
            total += weight
            for name, share in owners(caller, by, visiting | {func}).items():
                acc[name] = acc.get(name, 0.0) + weight * share
        memo[key] = {name: v / total for name, v in acc.items()} if total else {}
        return memo[key]

    self_time = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0.0)
    grand = 0.0
    for func in sorted(table):
        _cc, nc, tt, _ct, _callers = table[func]
        grand += tt
        for name, share in owners(func, 2, frozenset()).items():
            self_time[name] += tt * share
        for name, share in owners(func, 0, frozenset()).items():
            calls[name] += nc * share
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_share"] = self_time[layer] / grand if grand else 0.0
        out[f"{layer}.fn_calls"] = int(round(calls[layer]))
    return out
