"""fuzzsphere benchmark runner.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 44 --trace 0

Runs one workload (verify, exact-large-j or fuzzy-hat; see README.md) in
fresh child processes, one at a time, and prints every metric by name and
unit, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

--trace 0  end-to-end metrics.  Six set-up-only children measure setup_s;
           then measured children, each a first and a steady pass, run back
           to back while the next one still fits in --seconds, so the
           samples of both kinds spread over the whole run.  setup_s and
           peak_rss_mb are medians over the children, the two pass times the
           slowest sample of their kind (README.md, "Run-to-run spread").
--trace 1  per-layer metrics.  One untraced child and two traced children
           run one pass each; the traced pass of the first gives the layer
           numbers, and both traced children must agree on every call count.

The package is imported from ``src/`` of the checkout; without it the runner
exits with code 2 and prints no result.  Scratch files go to
``perfbench/_work`` and the run record to ``perfbench/results``, both inside
the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 6
CHILD_TIMEOUT_S = 170
# One child at a time, single-threaded BLAS/OpenMP (at most nproc threads),
# fixed string hashing so every run sees the same process environment.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# Per-layer statistics reported for each wrapped layer, beyond calls.
LAYER_STATS = {
    "quad.integrate_sphere": ("self_s",),
    "quad.nodes_and_weights": (),
    "csquant.quantize_quadrature": ("self_s", "incl_s", "p50_ms"),
    "ssh.ssh_eval": ("self_s",),
    "specfun.jacobi": ("self_s",),
    "wigner.three_j": ("self_s", "incl_s", "misses", "cold_us", "warm_us"),
    "algebra.radical": ("self_s",),
    "algebra.ExactRadical.to_float": ("self_s",),
    "csquant.quantize_ylm_closed": ("self_s", "incl_s", "p50_ms"),
    "ssh.rotation_operator": ("self_s",),
    "wigner.wigner_D": ("self_s",),
    "csquant.coherent_state": ("self_s",),
    "csquant.lower_symbol": ("self_s",),
    "fuzzy.sym_product": ("self_s", "incl_s", "p50_ms"),
    "fuzzy.hat_ylm": ("self_s",),
    "fuzzy.ylm_as_polynomial": ("self_s",),
}
UNITS = {
    "calls": "count", "misses": "count", "self_s": "s", "incl_s": "s",
    "p50_ms": "ms", "cold_us": "us", "warm_us": "us", "s": "s",
    "margin": "ratio",
}


class ChildFailed(RuntimeError):
    pass


def spawn(workload, seed, passes, trace, workdir) -> dict:
    """Run one child to completion; returns its report plus setup_s."""
    env = dict(os.environ, **CHILD_ENV)
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed),
           str(passes), str(trace), str(workdir)]
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child timed out after {exc.timeout} s") from None
    end = time.clock_gettime(time.CLOCK_MONOTONIC)
    if proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - start
    report["wall_s"] = end - start
    return report


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(args, workdir) -> tuple[dict, list, dict]:
    setups = [spawn(args.workload, args.seed, 0, 0, workdir)["setup_s"]
              for _ in range(SETUP_PROBES)]
    children = []
    deadline = time.clock_gettime(time.CLOCK_MONOTONIC) + args.seconds
    while True:
        children.append(spawn(args.workload, args.seed, 2, 0, workdir))
        longest = max(c["wall_s"] for c in children)
        if time.clock_gettime(time.CLOCK_MONOTONIC) + longest > deadline:
            break
    setups += [c["setup_s"] for c in children]
    metrics = {
        "setup_s": (median(setups), "s"),
        # The host's contended speed is a steady ceiling; how much of a run
        # escapes it is not, so the slowest pass is steadier than the median.
        "first_pass_s": (max(c["pass_s"][0] for c in children), "s"),
        "steady_pass_s": (max(c["pass_s"][1] for c in children), "s"),
        "peak_rss_mb": (median([c["rss_kb"] / 1024 for c in children]), "MB"),
    }
    samples = {"setup_s": setups, "children": len(children)}
    return metrics, children, samples


def per_layer(args, workdir) -> tuple[dict, list, list]:
    plain = spawn(args.workload, args.seed, 1, 0, workdir)
    traced = [spawn(args.workload, args.seed, 1, 1, workdir) for _ in range(2)]
    rep = traced[0]["trace"]
    layers = rep["layers"]
    metrics = {}
    for name, stats in LAYER_STATS.items():
        s = layers[name]
        calls = s["calls"]
        hits = calls - s["misses"]
        values = {
            "calls": calls,
            "self_s": s["self_s"],
            "incl_s": s["incl_s"],
            "misses": s["misses"],
            "p50_ms": median(s["durations_s"]) * 1e3,
            "cold_us": s["miss_s"] / s["misses"] * 1e6 if s["misses"] else 0.0,
            "warm_us": (s["incl_s"] - s["miss_s"]) / hits * 1e6 if hits else 0.0,
        }
        for stat in ("calls",) + stats:
            metrics[f"{name}.{stat}"] = (values[stat], UNITS[stat])
    quantizations = layers["csquant.quantize_quadrature"]["calls"]
    metrics["quad.grid_builds_per_quantization"] = (
        layers["quad.nodes_and_weights"]["calls"] / quantizations if quantizations else 0.0,
        "ratio")
    metrics["ssh.ssh_eval.per_quantization"] = (
        layers["ssh.ssh_eval"]["inside"] / quantizations if quantizations else 0.0,
        "ratio")
    # One entry per cli.ALL_CHECKS check, whether or not the workload ran it.
    for name in [n for n in layers if n.startswith("cli.check.")]:
        results = rep["check_results"].get(name, [])
        # Exact checks (tolerance 0) have no margin; their outcome is in `failed`.
        margin = max((r / t for _, r, t in results if t > 0), default=0.0)
        metrics[f"{name}.s"] = (layers[name]["incl_s"], "s")
        metrics[f"{name}.margin"] = (margin, "ratio")
    for name in ("cli.save_matrix", "cli.load_matrix"):
        metrics[f"{name}.s"] = (layers[name]["incl_s"], "s")
    traced_first = traced[0]["pass_s"][0]
    metrics["trace.first_pass_s"] = (traced_first, "s")
    metrics["trace.overhead_s"] = (traced_first - plain["pass_s"][0], "s")
    # Failed checks of known package defects in one untraced pass.
    known = sum(f["known"] for f in plain["failures"])
    metrics["checks.known_failed"] = (known, "count")

    # Same seed, same code: every call count must repeat exactly.
    mismatched = []
    for name, _attr, _span in LAYERS:
        a = layers[name]["calls"]
        b = traced[1]["trace"]["layers"][name]["calls"]
        if a != b:
            mismatched.append(f"{name}.calls {a} != {b}")
    return metrics, [plain] + traced, mismatched


def run_record(args, children) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": children[0]["python"],
        "numpy": children[0]["numpy"],
        "commit": git_commit(),
        "child_env": CHILD_ENV,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fuzzsphere" / "__init__.py").is_file():
        print(f"error: no fuzzsphere package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, children, mismatched = per_layer(args, workdir)
            samples = {}
        else:
            metrics, children, samples = end_to_end(args, workdir)
            mismatched = []
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    attempted = sum(c["attempted"] for c in children) + (len(LAYERS) if args.trace else 0)
    failures = [f for c in children for f in c["failures"]]
    failures += [{"label": m, "known": False} for m in mismatched]
    # Known defects (README.md) are counted and printed but are not failed
    # ops: the workloads must run without failures, and the defects' count
    # depends on the seed and on how many passes fit in the run.
    unexpected = [f["label"] for f in failures if not f["known"]]
    record = run_record(args, children)

    print(f"run {json.dumps(record)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"metric failed_ratio = {len(failures) / attempted:.6g} "
          f"(failed {len(failures)} / ops {attempted}; "
          f"{len(failures) - len(unexpected)} of them known defects)")
    for label in sorted({f["label"] for f in failures}):
        known = "known defect" if label not in unexpected else "UNEXPECTED"
        print(f"failure {label} [{known}]")

    named = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "record": record,
        "metrics": named,
        "failed_ratio": {"failed": len(failures), "ops": attempted,
                         "unexpected": len(unexpected)},
        "failures": failures,
        "samples": samples,
        "children": children,
    }))

    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(unexpected),
        "metrics": named,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
