"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``src/``.
``--trace 0`` runs the closed loop for S seconds and reports the end-to-end
metrics; ``--trace 1`` runs a fixed list of ops with spans, then under
cProfile, and reports the per-layer metrics.  The last line of standard
output is the result object; the line before it holds the host record and
the run's detail (failures by cause, the tail percentile and its op count).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # used to time set-up
    args = parser.parse_args(argv)

    if not (SRC / "evolalg" / "__init__.py").is_file():
        print(f"bench: no evolalg package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from bench import harness, workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"bench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import evolalg
    if Path(evolalg.__file__).resolve().parent != SRC / "evolalg":
        print(f"bench: imported evolalg from {evolalg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workdir = ROOT / "bench" / ".work" / str(os.getpid())
    try:
        if args.setup_only:
            cls().setup(args.seed, workdir)
            return 0
        return _measure(args, cls, harness, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, cls, harness, workdir) -> int:
    host = harness.host_record()
    if args.trace:
        w = cls(in_process=True) if args.workload == "cli" else cls()
        metrics, outcomes = harness.traced_run(w, args.seed, workdir)
        metrics["cli.interp_start_ms"] = harness.interp_start_ms()
        metrics["cli.import_ms"] = harness.import_ms()
        detail = harness.summarize(w, outcomes)[1]
        section = "per_layer"
    else:
        w = cls()
        setup_s = harness.setup_seconds(args.workload, args.seed)
        outcomes = harness.timed_run(w, args.seed, args.seconds, workdir)
        metrics, detail = harness.summarize(w, outcomes)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = harness.peak_rss_mb(children=args.workload == "cli")
        section = "end_to_end"
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "host": host, "detail": detail},
                     sort_keys=True))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    print(json.dumps({
        **harness.verdict(outcomes),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
