"""One fresh process running one workload; started by run.py.

    python3 perfbench/child.py WORKLOAD SEED PASSES TRACE WORKDIR

Imports the package from ``src/`` of the checkout, builds the seeded inputs,
stamps the moment the first op is ready (CLOCK_MONOTONIC, comparable with
the parent's clock), runs PASSES passes over the ops and prints one JSON
object on stdout.  A pass's time is the sum of its ops' times; the checks
on each op's output run between ops, outside the timed region.  With TRACE
set to 1 the first pass runs under the tracer.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import fuzzsphere  # noqa: E402
from fuzzsphere import algebra, cli, csquant, fuzzy, quad, specfun, ssh, wigner  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

MODULES = {
    "fuzzsphere": fuzzsphere,
    "algebra": algebra,
    "cli": cli,
    "csquant": csquant,
    "fuzzy": fuzzy,
    "quad": quad,
    "specfun": specfun,
    "ssh": ssh,
    "wigner": wigner,
}


def run_pass(ops, tracer):
    """Time every op and check every output; returns (seconds, checks).

    An op that raises counts as one failed check."""
    total_ns = 0
    checks = []
    for op in ops:
        try:
            with tracer.op(op.label) if tracer else nullcontext():
                t0 = time.perf_counter_ns()
                out = op.run()
                t1 = time.perf_counter_ns()
        except (ArithmeticError, ValueError) as exc:
            checks.append(workloads.Check(op.label, False, f"raised {exc!r}"))
            continue
        total_ns += t1 - t0
        checks.extend(op.check(out))
    return total_ns / 1e9, checks


def main(argv: list[str]) -> int:
    name, seed, passes, trace, workdir = argv
    ops = workloads.build(name, int(seed), MODULES, Path(workdir))
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if int(passes) == 0:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = Tracer(MODULES, wigner._CACHE) if trace == "1" else None
    if tracer:
        tracer.install()
    runs = [run_pass(ops, tracer)]
    if tracer:
        tracer.uninstall()
    for _ in range(int(passes) - 1):
        runs.append(run_pass(ops, None))
    times = [seconds for seconds, _ in runs]
    results = [checks for _, checks in runs]

    # Identical inputs must give bit-identical outputs in every pass.
    first = {c.label: c.fingerprint for c in results[0]}
    failures = []
    attempted = 0
    for checks in results:
        for c in checks:
            attempted += 1
            same = first.get(c.label) == c.fingerprint
            if not c.ok or not same:
                failures.append({
                    "label": c.label + ("" if same else " (not reproducible)"),
                    "known": c.known and same,
                })

    out = {
        "ready": ready,
        "pass_s": times,
        "attempted": attempted,
        "failures": failures,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "three_j_cache": len(wigner._CACHE),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if tracer is not None:
        out["trace"] = trace_report(tracer)
    print(json.dumps(out))
    return 0


def trace_report(tracer: Tracer) -> dict:
    """Raw per-layer statistics and spans of the traced pass."""
    layers = {}
    for name, s in tracer.stats.items():
        layers[name] = {
            "calls": s.calls,
            "incl_s": s.incl_ns / 1e9,
            "self_s": s.self_ns / 1e9,
            "inside": s.inside,
            "misses": s.misses,
            "miss_s": s.miss_ns / 1e9,
            "durations_s": [d / 1e9 for d in s.durations_ns],
        }
    margins = {}
    for name, value in tracer.results.items():
        margins[name] = [(label, residual, tol) for label, residual, tol in value]
    return {"layers": layers, "check_results": margins, "spans": tracer.spans}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
