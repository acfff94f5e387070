"""The benchmark's own tests: smoke runs, one test per correctness check,
and repeatable per-layer call counts.

Run from the repository root: ``python3 -m pytest -q bench/tests``.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from evolalg import (CycleWitness, Element, ExactScalar,  # noqa: E402
                     IndexExact, Permutation, RayPrefix, Verdict)
from evolalg.algebra import ApproxElement  # noqa: E402

from bench import harness, layers, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(name):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "0",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _run("--workload", "cli", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- a wrong answer counts as a failed op ------------------------------------


def _failed_by_check(name, pick, doctor, tmp_path, ops=1):
    """Run the first op `pick` accepts with its result passed through
    `doctor`; return the outcome, checked to be a failed, incorrect op."""
    w = workloads.WORKLOADS[name]()
    state = w.setup(5, tmp_path)
    op = next(op for op in state["pool"] if pick(op))
    honest = harness.execute(w, state, op, layers.direct)
    assert honest.failure is None, honest.failure
    real_call = w.call
    w.call = lambda *a: doctor(real_call(*a))
    outcomes = [harness.execute(w, state, op, layers.direct)
                for _ in range(ops)]
    out = outcomes[-1]
    assert out.failure is not None and out.failure.startswith("check")
    verdict = harness.verdict([honest, *outcomes])
    assert verdict["correct"] is False and verdict["failed"] >= 1
    return out


def _replace_at(t, i, value):
    return t[:i] + (value,) + t[i + 1:]


def _small(n=None, cyclic=None):
    def pick(op):
        return ((n is None or op.params["n"] == n)
                and (cyclic is None or op.params.get("cyclic") == cyclic))
    return pick


def test_finite_routes_must_agree(tmp_path):
    def doctor(r):
        bf = r[0]
        return _replace_at(r, 0, dataclasses.replace(bf, nilpotent=not bf.nilpotent))
    _failed_by_check("finite_oracle", _small(n=4), doctor, tmp_path)


def test_finite_index_must_match_brute_force(tmp_path):
    w = workloads.FiniteOracle()

    def pick(op):  # a nilpotent one: edges only go to larger vertices
        rows = w.prepare(None, op)
        return all(k > i for i, es in rows.items() for k, _ in es)

    def doctor(r):
        return _replace_at(r, 3, dataclasses.replace(r[3], index=IndexExact(99)))
    _failed_by_check("finite_oracle", pick, doctor, tmp_path)


def test_sparse_cyclicity_must_match_the_oracle(tmp_path):
    def doctor(r):
        return _replace_at(r, 3, (None, True))
    _failed_by_check("sparse_finite", _small(cyclic=True), doctor, tmp_path)


def test_sparse_index_must_be_longest_path_plus_two(tmp_path):
    def doctor(r):
        rep = r[1]
        return _replace_at(r, 1, dataclasses.replace(
            rep, index=IndexExact(rep.index.n + 1)))
    _failed_by_check("sparse_finite", _small(cyclic=False), doctor, tmp_path)


def test_sparse_permutation_must_be_strictly_lower(tmp_path):
    def doctor(r):
        return _replace_at(r, 2, Permutation(tuple(reversed(r[2].order))))
    _failed_by_check("sparse_finite", _small(cyclic=False), doctor, tmp_path)


def test_sparse_cycle_witness_must_validate(tmp_path):
    def doctor(r):
        rep = r[1]
        bogus = Verdict("no", True, "bogus", CycleWitness((1, 2, 1)))
        return _replace_at(r, 1, dataclasses.replace(rep, nil=bogus))
    _failed_by_check("sparse_finite", _small(cyclic=True), doctor, tmp_path)


def _kind(kind, **params):
    def pick(op):
        return op.kind == kind and all(op.params.get(k) == v
                                       for k, v in params.items())
    return pick


def _smallest(name, kind, key, tmp_path):
    pool = workloads.WORKLOADS[name]().setup(5, tmp_path)["pool"]
    best = min((op for op in pool if op.kind == kind),
               key=lambda op: op.params[key])
    return lambda op: op.kind == kind and op.params == best.params


def test_lazy_comb_fourth_power_must_vanish(tmp_path):
    one = ExactScalar.from_rational(1)
    _failed_by_check("lazy_families",
                     _smallest("lazy_families", "power_comb", "support", tmp_path),
                     lambda r: (r[0], Element({1: one})), tmp_path)


def test_lazy_products_must_avoid_hubs(tmp_path):
    one = ExactScalar.from_rational(1)
    _failed_by_check("lazy_families",
                     _smallest("lazy_families", "multiply_teeth", "support", tmp_path),
                     lambda r: (r[0], Element({2: one})), tmp_path)


def test_lazy_growing_teeth_must_be_nil_not_nilpotent(tmp_path):
    def doctor(r):
        s, rep = r
        return s, dataclasses.replace(rep, nilpotent=Verdict("yes", True, "x"))
    _failed_by_check("lazy_families", _kind("classify", alt=False), doctor,
                     tmp_path)


def test_lazy_markov_ray_must_validate(tmp_path):
    def doctor(r):
        s, rep = r
        nil = dataclasses.replace(rep.nil, witness=RayPrefix((2, 4, 5)))
        return s, dataclasses.replace(rep, nil=nil)
    _failed_by_check("lazy_families", _kind("classify", alt=True), doctor,
                     tmp_path)


def test_lazy_schur_bound_must_be_sqrt2(tmp_path):
    def doctor(r):
        return r[0], dataclasses.replace(r[1], bound=1.4142135)
    _failed_by_check("lazy_families",
                     _smallest("lazy_families", "schur_markov", "window", tmp_path),
                     doctor, tmp_path)


def test_lazy_tail_bound_must_be_nonnegative(tmp_path):
    def doctor(r):
        s, approx = r
        assert isinstance(approx, ApproxElement)
        return s, dataclasses.replace(approx, tail_norm_bound=-1e-9)
    _failed_by_check("lazy_families",
                     _smallest("lazy_families", "apply_markov_omega", "cutoff",
                               tmp_path), doctor, tmp_path)


def test_lazy_generation_must_match_closed_form(tmp_path):
    def doctor(r):
        s, gen = r
        return s, dataclasses.replace(gen, members=gen.members | {10 ** 6})
    _failed_by_check("lazy_families", _kind("descendants", with_hub=False),
                     doctor, tmp_path)


def test_lazy_cutoffs_stay_below_the_sqrt_hang(tmp_path):
    w = workloads.WORKLOADS["lazy_families"]()
    cutoffs = [op.params["cutoff"] for op in w.setup(5, tmp_path)["pool"]
               if op.kind.startswith("apply")]
    assert min(cutoffs) >= 50 and max(cutoffs) <= w.max_cutoff == 518


# -- the per-op deadline -----------------------------------------------------


def test_deadline_hit_is_a_failed_op_and_the_run_goes_on(tmp_path):
    w = workloads.WORKLOADS["lazy_families"]()
    state = w.setup(5, tmp_path)
    op = next(op for op in state["pool"]
              if op.kind == "apply_markov_omega" and not op.params["fresh"])
    warm = state["warm"]["markov_line"]
    real_call = w.call

    def hang(*a):
        while True:
            pass
    w.call, w.deadline_s = hang, 0.05
    out = harness.execute(w, state, op, layers.direct)
    assert out.failure == "deadline" and out.kind == op.kind
    assert state["warm"]["markov_line"] is not warm  # rebuilt by repair
    w.call, w.deadline_s = real_call, 1.5
    honest = harness.execute(w, state, op, layers.direct)
    assert honest.failure is None, honest.failure
    assert harness.verdict([out, honest]) == {
        "correct": True, "attempted": 2, "failed": 1}


def test_cli_exit_code_must_be_documented(tmp_path):
    _failed_by_check("cli", _kind("families"),
                     lambda r: (3,) + r[1:], tmp_path)


def test_cli_report_must_have_expected_type(tmp_path):
    def doctor(r):
        report = json.loads(r[1])
        report["result"]["type"] = "Something"
        return r[0], json.dumps(report).encode(), r[2]
    _failed_by_check("cli", _kind("analyze", template=0), doctor, tmp_path)


def test_cli_report_must_repeat_byte_for_byte(tmp_path):
    calls = []

    def doctor(r):
        calls.append(1)
        if len(calls) == 1:
            return r
        return r[0], r[1].replace(b'"status": "ok"', b'"status":  "ok"'), r[2]
    _failed_by_check("cli", _kind("triangularize"), doctor, tmp_path, ops=2)


# -- per-layer call counts repeat exactly --------------------------------------

_FN_CALLS = """
import json, sys
from pathlib import Path
sys.path[:0] = [{src!r}, {root!r}]
from bench import harness, workloads
out = {{}}
for name, n_ops in {plan!r}:
    w = workloads.WORKLOADS[name]()
    if name == "cli":
        w = workloads.Cli(in_process=True)
    metrics, _ = harness.traced_run(w, 11, Path({work!r}) / name, n_ops)
    out[name] = {{k: v for k, v in metrics.items() if k.endswith(".fn_calls")}}
print(json.dumps(out, sort_keys=True))
"""


def test_fn_calls_repeat_across_processes(tmp_path):
    plan = [("finite_oracle", 12), ("sparse_finite", 2),
            ("lazy_families", 13), ("cli", 16)]
    code = _FN_CALLS.format(src=str(ROOT / "src"), root=str(ROOT),
                            plan=plan, work=str(tmp_path))
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    assert runs[0] == runs[1]
    for name, _ in plan:
        assert len(runs[0][name]) == len(workloads.LAYERS)
    assert runs[0]["finite_oracle"]["scalars.fn_calls"] > 0
    assert runs[0]["cli"]["cli.fn_calls"] > 0


def test_tail_percentile_keeps_ten_values_beyond():
    values = list(range(1, 301))
    assert harness.tail(values, 95) == (95, 285)
    assert harness.tail(values[:150], 95) == (90, 135)
    assert harness.tail(values[:5], 95) == (50, 3)
