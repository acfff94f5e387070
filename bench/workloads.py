"""The four benchmark workloads: seeded inputs, timed calls, correctness checks.

Each workload is a closed loop over a pool of op descriptors made from the
seed with the benchmark's own ``random.Random``; nothing here calls
``evolalg.randgen``, so a change there cannot shift the inputs.  An op has
three parts, of which only the middle one is timed:

* ``prepare`` turns a descriptor into the program's inputs (rows, JSON
  specs, elements);
* ``call`` makes the calls into the package, each through
  ``call(layer, fn, *args)`` so the traced run can put a span around it;
* ``check`` compares the result with known facts or with the benchmark's own
  oracles.  It raises :class:`CheckFailed` on a wrong answer and returns
  True when the result is budget-limited (inconclusive).

Pools are stratified: op kinds come in shuffled rounds, and each size is
drawn from one of k strata of its range, the strata dealt from a deck
reshuffled every k draws.  So every run of a workload sees the same mix of
kinds and nearly the same sizes, while the seed decides the order, the
sizes within each stratum and the inputs themselves (graphs, weights,
supports).  Sizes spread over whole strata rather than sitting on k fixed
values, so op times do not bunch up and medians do not jump between bunches.
That keeps run-to-run spread down without fixing the inputs.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import evolalg.cli
from evolalg import (ONES, ApproxElement, CycleFound, CycleWitness, Element,
                     EvolutionStructure, ExactScalar, IndexExact,
                     IndexInfinite, OperatorKind, Permutation, RayPrefix,
                     UnboundedDepthSequence, apply_operator,
                     brute_force_nilpotent, build_family, classify,
                     cycle_search, descendants_generation,
                     frobenius_certificate, left_mult_bound, multiply,
                     parse_structure, permutation_is_strictly_lower,
                     principal_power, schur_certificate,
                     triangularize_window, validate_witness)

from . import oracles

LAYERS = ("scalars", "graph", "algebra", "operators", "nilpotency",
          "families", "serialize", "cli")


class CheckFailed(Exception):
    """The program returned a wrong answer."""


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _deck(rng: random.Random, k: int, count: int) -> list:
    """`count` stratum numbers 0..k-1, each k in a row a shuffled set."""
    return _rounds(rng, range(k), -(-count // k))[:count]


def _size(rng: random.Random, lo: int, hi: int, i: int, k: int) -> int:
    """A size drawn log-uniformly from the i-th of k strata of lo..hi."""
    return int(round(lo * (hi / lo) ** ((i + rng.random()) / k)))


def _rational(rng: random.Random, term: int = 7) -> Fraction:
    """Nonzero rational with numerator and denominator at most `term`."""
    return Fraction(rng.randint(1, term) * rng.choice((-1, 1)),
                    rng.randint(1, term))


def _rounds(rng: random.Random, kinds, count: int):
    """`count` shuffled rounds, each holding every kind once."""
    out = []
    for _ in range(count):
        r = list(kinds)
        rng.shuffle(r)
        out.extend(r)
    return out


@dataclass
class Op:
    kind: str
    seed: int
    params: dict = field(default_factory=dict)


class Workload:
    """Defaults for what the harness asks of a workload beyond the three
    parts named in the module docstring."""

    deadline_s: float  # per op, many times the slowest op of the workload

    def repair(self, state, op: Op) -> None:
        """Undo what a call interrupted by the deadline may have left."""


# -- finite_oracle -----------------------------------------------------------


class FiniteOracle(Workload):
    """Decide one random structure on 2..6 vertices four ways."""

    name = "finite_oracle"
    deadline_s = 2.0
    tail_percentile = 95
    trace_ops = 150
    pool_size = 4000

    def setup(self, seed: int, workdir: Path):
        rng = random.Random(f"{self.name}/{seed}")
        # randgen's distribution: n uniform on 2..6, edge probability 0.2 or
        # 0.4; dealt as shuffled rounds of all ten combinations
        combos = [(n, p) for n in range(2, 7) for p in (0.2, 0.4)]
        deck = _rounds(rng, combos, self.pool_size // len(combos))
        return {"pool": [Op(f"n{n}", rng.getrandbits(32), {"n": n, "p": p})
                         for n, p in deck]}

    def prepare(self, state, op: Op):
        rng = random.Random(op.seed)
        n, p = op.params["n"], op.params["p"]
        rows = {}
        for i in range(1, n + 1):
            entries = [(k, _rational(rng)) for k in range(1, n + 1)
                       if rng.random() < p]
            if entries:
                rows[i] = entries
        return rows

    def call(self, state, op: Op, rows, call):
        n = op.params["n"]
        s = call("graph", EvolutionStructure.from_rows, rows, n, "exact")
        bf = call("nilpotency", brute_force_nilpotent, s)
        search = call("graph", cycle_search, s, n, n * n + n + 8)
        tri = call("nilpotency", triangularize_window, s, n)
        rep = call("nilpotency", classify, s)
        return bf, search, tri, rep

    def check(self, state, op: Op, rows, result) -> bool:
        bf, (path, completed), tri, rep = result
        _require(completed, "cycle search did not complete on a finite structure")
        routes = (bf.nilpotent, path is None, isinstance(tri, Permutation),
                  rep.nilpotent.status == "yes" and rep.nilpotent.certified)
        _require(len(set(routes)) == 1, f"decision routes disagree: {routes}")
        if bf.nilpotent:
            _require(rep.index == IndexExact(bf.index),
                     f"classify index {rep.index} != brute force {bf.index}")
        return rep.nilpotent.status == "inconclusive"


# -- sparse_finite -----------------------------------------------------------


class SparseFinite(Workload):
    """One sparse structure from JSON spec to decision."""

    name = "sparse_finite"
    deadline_s = 10.0
    tail_percentile = 90
    trace_ops = 40
    pool_size = 400
    n_range = (200, 2000)
    span = 4  # forward edges reach at most this many places down the order

    def setup(self, seed: int, workdir: Path):
        rng = random.Random(f"{self.name}/{seed}")
        half = self.pool_size // 2
        # DAGs take the ten sizes in turn; cyclic inputs take every pairing
        # of size and cycle place once per 50
        dag_sizes = _deck(rng, 10, half)
        cyclic = _rounds(rng, [(i, c) for i in range(10) for c in range(5)],
                         -(-half // 50))
        pool = []
        for j in range(half):
            n = _size(rng, *self.n_range, dag_sizes[j], 10)
            pool.append(Op("dag", rng.getrandbits(32),
                           {"n": n, "cyclic": False}))
            i, c = cyclic[j]
            pool.append(Op("cyclic", rng.getrandbits(32),
                           {"n": _size(rng, *self.n_range, i, 10),
                            "cyclic": True,
                            "cycle_at": 0.9 + 0.1 * (c + rng.random()) / 5}))
        return {"pool": pool}

    def prepare(self, state, op: Op):
        """(JSON spec text, adjacency) of a structure with short forward edges
        along a random order, plus one planted cycle when asked.

        From the cycle on, every vertex but the last has a forward edge, so
        the cycle reaches the rest of the order: the cost and memory of a
        cyclic input follow from its size and cycle place, not from where
        random sinks happen to cut it off.  The cycle sits in the last tenth
        of the order, which keeps what it reaches, and so its cost, modest."""
        rng = random.Random(op.seed)
        n = op.params["n"]
        order = list(range(1, n + 1))
        rng.shuffle(order)
        adj: dict[int, set] = {}
        for p in range(n):
            reach = range(p + 1, min(n, p + self.span + 1))
            d = min(rng.choice((0, 1, 1, 2, 2, 3)), len(reach))
            for q in rng.sample(reach, d):
                adj.setdefault(order[p], set()).add(order[q])
        if op.params["cyclic"]:
            length = rng.randint(2, 5)
            a = int(op.params["cycle_at"] * (n - length - 1))
            for j in range(a, n - 1):
                if j < a + length or order[j] not in adj:
                    adj.setdefault(order[j], set()).add(order[j + 1])
            adj.setdefault(order[a + length], set()).add(order[a])
        adj = {v: sorted(ts) for v, ts in adj.items()}
        rows = {str(v): [[t, str(_rational(rng))] for t in ts]
                for v, ts in sorted(adj.items())}
        return json.dumps({"mode": "exact", "n": n, "rows": rows}), adj

    def call(self, state, op: Op, inputs, call):
        text, _adj = inputs
        s = call("serialize", parse_structure, text)
        n = op.params["n"]
        rep = call("nilpotency", classify, s)
        tri = call("nilpotency", triangularize_window, s, n)
        search = call("graph", cycle_search, s, n, 8 * n + 8)
        return s, rep, tri, search

    def check(self, state, op: Op, inputs, result) -> bool:
        _text, adj = inputs
        s, rep, tri, (path, completed) = result
        n = op.params["n"]
        cyclic = oracles.find_cycle(n, adj) is not None
        _require(completed, "cycle search did not complete")
        _require((path is not None) == cyclic,
                 f"cycle_search says cyclic={path is not None}, oracle {cyclic}")
        _require(rep.nil.status == ("no" if cyclic else "yes")
                 and rep.nil.certified, f"classify nil {rep.nil.status}")
        if cyclic:
            _require(rep.index == IndexInfinite(), f"index {rep.index}")
            w = rep.nil.witness
            _require(isinstance(w, CycleWitness) and validate_witness(s, w)
                     and oracles.is_closed_walk(adj, w.path),
                     "classify cycle witness does not check")
            _require(isinstance(tri, CycleFound)
                     and oracles.is_closed_walk(adj, tri.path),
                     f"triangularize returned {type(tri).__name__}")
            _require(validate_witness(s, CycleWitness(tuple(path)))
                     and oracles.is_closed_walk(adj, path),
                     "cycle_search path does not check")
        else:
            expected = IndexExact(oracles.longest_path(n, adj) + 2)
            _require(rep.index == expected, f"index {rep.index} != {expected}")
            _require(isinstance(tri, Permutation)
                     and permutation_is_strictly_lower(s, tri.order, n)
                     and oracles.is_strictly_lower(n, adj, tri.order),
                     "triangularization does not check")
        return False


# -- lazy_families -----------------------------------------------------------

# Closed forms of the families, written out here so the checks do not lean on
# evolalg.families: markov_line row 1 feeds every j >= 2 and i >= 2 shifts to
# i+1; hub_line row 1 feeds every j >= 2 and {2l, 2l+1} is a closed pair.


def _comb_hubs(limit: int) -> set:
    return set(range(2, limit + 1, 4))


def _teeth_hubs(limit: int) -> set:
    hubs, h, k = set(), 2, 1
    while h <= limit:
        hubs.add(h)
        h += k + 2
        k += 1
    return hubs


def _in_generation(family: str, sources, m: int, x: int) -> bool:
    """Whether x lies in D^m(sources) for markov_line or hub_line, m >= 1."""
    for u in sources:
        if u == 1:
            if family == "markov_line" and x >= m + 1:
                return True
            if family == "hub_line" and x >= 2:
                return True
        elif family == "markov_line" and x == u + m:
            return True
        elif family == "hub_line" and x // 2 == u // 2:
            return True
    return False


def _markov_ray_ok(vertices) -> bool:
    return all((a == 1 and b >= 2) or (a >= 2 and b == a + 1)
               for a, b in zip(vertices, vertices[1:]))


class LazyFamilies(Workload):
    """One query on an infinite family, from a seeded mix of kinds."""

    name = "lazy_families"
    deadline_s = 1.5
    # cutoffs stop at 518: with ratio 1/2, up_sqrt_frac takes ~70 ms there,
    # over a second at 521 and never returns from 522 on, and no op of a
    # workload may fail.  The steep rise from 515 to 518 stays in the tail.
    max_cutoff = 518
    # 48 occurrences of a kind over 16 strata: each stratum three times, so
    # the large supports that form the tail vary little from seed to seed
    strata = 16
    tail_percentile = 90
    trace_ops = 65
    rounds = 48
    kinds = ("apply_markov_omega", "apply_markov_gamma", "apply_hub_omega",
             "apply_hub_gamma", "multiply_comb", "multiply_teeth",
             "power_comb", "power_teeth", "schur_markov", "frobenius",
             "descendants", "classify", "left_mult")
    families = ("markov_line", "hub_line", "comb", "growing_teeth")

    def setup(self, seed: int, workdir: Path):
        rng = random.Random(f"{self.name}/{seed}")
        decks = {k: _deck(rng, self.strata, self.rounds) for k in self.kinds}
        seen = dict.fromkeys(self.kinds, 0)
        pool = []
        for kind in _rounds(rng, self.kinds, self.rounds):
            j = seen[kind]
            seen[kind] += 1
            i = decks[kind][j]
            # occurrence j of a kind: alt picks one of two families and
            # fresh a new structure, so every pairing comes round in four
            params = {"alt": j % 2 == 1, "fresh": j % 4 < 2}
            if kind.startswith("apply"):
                width = (self.max_cutoff - 50 + 1) / self.strata
                params["cutoff"] = 50 + int((i + rng.random()) * width)
            elif kind.startswith(("multiply", "power")):
                params["support"] = _size(rng, 50, 2000, i, self.strata)
            elif kind in ("schur_markov", "frobenius"):
                params["window"] = _size(rng, 16, 256, i, self.strata)
            elif kind == "descendants":
                params["budget"] = _size(rng, 500, 2000, i, self.strata)
                params["with_hub"] = j % 8 < 4  # vertex 1 has an infinite row
            elif kind == "classify":
                params["budget"] = _size(rng, 64, 4096, i, self.strata)
            pool.append(Op(kind, rng.getrandbits(32), params))
        warm = {name: build_family(name) for name in self.families}
        return {"pool": pool, "warm": warm}

    def repair(self, state, op: Op) -> None:
        """An interrupted call can leave a lazy row half pulled; rebuild the
        reused structure rather than carry that into later ops."""
        if not op.params["fresh"]:
            family = self._family(op)
            state["warm"][family] = build_family(family)

    def _family(self, op: Op) -> str:
        k, alt = op.kind, op.params["alt"]
        if k in ("apply_markov_omega", "apply_markov_gamma", "schur_markov"):
            return "markov_line"
        if k in ("apply_hub_omega", "apply_hub_gamma"):
            return "hub_line"
        if k in ("multiply_comb", "power_comb"):
            return "comb"
        if k in ("multiply_teeth", "power_teeth"):
            return "growing_teeth"
        if k == "frobenius":
            return "hub_line" if alt else "comb"
        if k == "classify":
            return "markov_line" if alt else "growing_teeth"
        return "hub_line" if alt else "markov_line"  # descendants, left_mult

    def prepare(self, state, op: Op):
        rng = random.Random(op.seed)

        def element(vertices):
            return Element({v: ExactScalar.from_rational(_rational(rng))
                            for v in vertices})

        k = op.kind
        if k.startswith(("apply", "left_mult")):
            # vertex 1 carries the lazy row, so it is always in the support
            return element([1] + rng.sample(range(2, 31), rng.randint(0, 4)))
        if k.startswith(("multiply", "power")):
            size = op.params["support"]
            support = rng.sample(range(1, 2 * size + 1), size)
            if k.startswith("multiply"):
                return element(support), element(support)
            return element(support)
        if k == "descendants":
            sources = rng.sample(range(2, 13), rng.randint(1, 4))
            if op.params["with_hub"]:
                sources.append(1)
            return sorted(sources), rng.randint(1, 3)
        return None

    def call(self, state, op: Op, inputs, call):
        family = self._family(op)
        if op.params["fresh"]:
            s = call("families", build_family, family)
        else:
            s = state["warm"][family]
        k, p = op.kind, op.params
        if k.startswith("apply"):
            kind = OperatorKind.OMEGA if k.endswith("omega") else OperatorKind.GAMMA
            return s, call("operators", apply_operator, s, kind, inputs,
                           cutoff=p["cutoff"])
        if k.startswith("multiply"):
            u, v = inputs
            return s, call("algebra", multiply, s, u, v)
        if k == "power_comb":
            return s, call("algebra", principal_power, s, inputs, 4)
        if k == "power_teeth":
            return s, call("algebra", principal_power, s, inputs,
                           2 + p["alt"])
        if k == "schur_markov":
            return s, call("operators", schur_certificate, s, ONES, ONES, 1, 2,
                           p["window"])
        if k == "frobenius":
            return s, call("operators", frobenius_certificate, s, p["window"])
        if k == "descendants":
            sources, m = inputs
            return s, call("graph", descendants_generation, s, sources, m,
                           p["budget"])
        if k == "classify":
            return s, call("nilpotency", classify, s, p["budget"])
        return s, call("operators", left_mult_bound, s, inputs)

    def check(self, state, op: Op, inputs, result) -> bool:
        s, out = result
        k, p = op.kind, op.params
        family = self._family(op)

        def tail_ok(bound):
            return isinstance(bound, float) and 0.0 <= bound < math.inf

        if k.startswith("apply"):
            _require(isinstance(out, (Element, ApproxElement)),
                     f"apply returned {type(out).__name__}")
            if isinstance(out, ApproxElement):
                _require(tail_ok(out.tail_norm_bound),
                         f"tail bound {out.tail_norm_bound!r}")
            return False
        if k.startswith(("multiply", "power")):
            _require(isinstance(out, Element), f"got {type(out).__name__}")
            support = out.support()
            if k == "power_comb":
                # comb is nilpotent of index 4: every 4th power vanishes
                _require(not support, "a 4th power on comb is not zero")
            elif support:
                hubs = (_comb_hubs if family == "comb" else _teeth_hubs)(support[-1])
                _require(not hubs & set(support),
                         "product reaches a hub, which has no in-edges")
            return False
        if k == "schur_markov":
            _require(out.status == "certified", f"schur {out.status}")
            bound = out.bound
            # the markov Schur bound is sqrt(2), rounded up by at most 2 ulps
            _require(Fraction(bound) ** 2 >= 2
                     and bound <= math.nextafter(math.nextafter(
                         math.sqrt(2), math.inf), math.inf),
                     f"schur bound {bound!r} is not sqrt(2)")
            return False
        if k == "frobenius":
            _require(out.status in ("certified", "inconclusive"),
                     f"frobenius {out.status}")
            if out.status == "certified":
                _require(tail_ok(out.bound), f"frobenius bound {out.bound!r}")
                return False
            _require(tail_ok(out.detail["partial_sqrt"]), "partial sqrt")
            return True
        if k == "descendants":
            sources, m = inputs
            _require(all(_in_generation(family, sources, m, x)
                         for x in out.members),
                     "a member is not in the true generation")
            if 1 not in sources:
                _require(not out.truncated, "finite rows truncated")
                want = {x for u in sources
                        for x in ((u + m,) if family == "markov_line"
                                  else (u - u % 2, u - u % 2 + 1))}
                _require(out.members == want, "generation is incomplete")
            return out.truncated
        if k == "classify":
            if family == "growing_teeth":
                # nil but not nilpotent
                _require(out.nil.status == "yes" and out.nil.certified,
                         f"growing_teeth nil {out.nil.status}")
                w = out.nilpotent.witness
                _require(out.nilpotent.status == "no"
                         and isinstance(w, UnboundedDepthSequence)
                         and validate_witness(s, w),
                         "growing_teeth not-nilpotent witness does not check")
            else:
                # markov_line is not nil; the ray re-checks edge by edge
                w = out.nil.witness
                _require(out.nil.status == "no" and out.index == IndexInfinite()
                         and isinstance(w, RayPrefix)
                         and validate_witness(s, w)
                         and _markov_ray_ok(w.vertices),
                         "markov not-nil ray does not check")
            return "inconclusive" in (out.nil.status, out.nilpotent.status)
        _require(tail_ok(out), f"left_mult_bound {out!r}")
        return False


# -- cli ---------------------------------------------------------------------

_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')
_SMALL_SPEC = "small.json"


def _cli_templates(rng: random.Random):
    """(argv after the program name, documented exit code, what the report
    must hold) for each invocation, with seeded small parameters."""
    window = rng.choice((4, 8, 12, 16))
    budget = rng.choice((16, 32, 64, 128))
    vertex = rng.randint(2, 9)
    cutoff = rng.choice((40, 80, 120))
    return [
        (["analyze", "--family", "comb"], 0, "NilpotencyReport"),
        (["analyze", "--family", "growing_teeth", "--budget", str(budget)],
         0, "NilpotencyReport"),
        (["analyze", "--family", "markov_line", "--params", '{"ratio": "1/3"}'],
         0, "NilpotencyReport"),
        (["analyze", _SMALL_SPEC, "--budget", str(budget)], 0, "NilpotencyReport"),
        (["analyze", "--family", "markov_line", "--params", '{"ratio": "3/2"}'],
         2, None),
        (["index", "--family", "comb"], 0, "index"),
        (["power", "--family", "comb", "--element",
          json.dumps({str(vertex): 1, str(vertex + 1): "1/2"}), "-n", "4"],
         0, "power"),
        (["power", "--family", "markov_line", "--element", '{"2": 1, "3": 1}',
          "-n", "2", "--cutoff", str(cutoff)], 0, "power"),
        (["apply", "--family", "markov_line", "--op", "gamma", "--vector",
          json.dumps({str(vertex): 1})], 0, "image"),
        (["apply", "--family", "hub_line", "--op", "omega", "--vector",
          '{"1": 1}', "--cutoff", str(cutoff)], 0, "image"),
        (["bounds", "--family", "markov_line", "--schur", "ones,ones,1,2",
          "--window", str(4 * window)], 0, "BoundCertificate"),
        (["bounds", _SMALL_SPEC, "--frobenius", "--window", "32"],
         0, "BoundCertificate"),
        (["triangularize", "--family", "comb", "--window", str(window)],
         0, "Permutation"),
        (["export-dot", "--family", "comb", "--window", str(window)], 0, "dot"),
        (["oracle", _SMALL_SPEC], 0, "BruteForceReport"),
        (["families", "list"], 0, "families"),
    ]


def _report_has(report: dict, expected: str) -> bool:
    result = report.get("result")
    if not isinstance(result, dict):
        return False
    if expected in ("index", "power", "image", "dot", "families"):
        return expected in result
    return result.get("type") == expected


class Cli(Workload):
    """One ``python -m evolalg.cli`` child process per op."""

    name = "cli"
    deadline_s = 20.0
    tail_percentile = 75
    trace_ops = 192
    pool_size = 48

    def __init__(self, in_process: bool = False):
        # the traced run calls evolalg.cli.run in-process so the profiler sees
        # the layers; the end-to-end run pays for a whole process per op
        self.in_process = in_process

    def setup(self, seed: int, workdir: Path):
        rng = random.Random(f"{self.name}/{seed}")
        n = rng.randint(3, 6)
        rows = {}
        for i in range(1, n + 1):
            targets = [k for k in range(i + 1, n + 1) if rng.random() < 0.5]
            rows[str(i)] = [[k, str(_rational(rng))] for k in targets]
        workdir.mkdir(parents=True, exist_ok=True)
        (workdir / _SMALL_SPEC).write_text(json.dumps({"n": n, "rows": rows}))
        templates = _cli_templates(rng)
        deck = _rounds(rng, range(len(templates)),
                       -(-self.pool_size // len(templates)))
        pool = [Op(templates[t][0][0], t, {"template": t}) for t in deck]
        return {"pool": pool, "templates": templates, "workdir": workdir,
                "first": {}}

    def prepare(self, state, op: Op):
        argv, code, expected = state["templates"][op.params["template"]]
        spec = str(state["workdir"] / _SMALL_SPEC)
        return [spec if a == _SMALL_SPEC else a for a in argv], code, expected

    def call(self, state, op: Op, inputs, call):
        argv = inputs[0]
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = call("cli", evolalg.cli.run, argv)
            return code, out.getvalue().encode(), err.getvalue().encode()
        proc = call("cli", subprocess.run,
                    [sys.executable, "-m", "evolalg.cli", *argv],
                    capture_output=True, env=child_env(), check=False)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, state, op: Op, inputs, result) -> bool:
        argv, want_code, expected = inputs
        code, out, err = result
        _require(code == want_code, f"exit code {code}, documented {want_code}")
        if expected is None:
            _require(not out and err, "an error must go to stderr only")
            return False
        report = json.loads(out)
        _require(report.get("command") == argv[0]
                 and _report_has(report, expected),
                 f"report lacks the expected {expected}")
        masked = _TIMESTAMP.sub(b'"timestamp": ""', out)
        first = state["first"].setdefault(op.params["template"], masked)
        _require(masked == first, "report differs from the first one of the run")
        return report.get("status") == "inconclusive"


WORKLOADS = {w.name: w for w in (FiniteOracle, SparseFinite, LazyFamilies, Cli)}

_SRC = Path(__file__).resolve().parent.parent / "src"


def child_env() -> dict:
    """Environment for child interpreters: the checkout's src on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC)
    return env
