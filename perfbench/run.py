"""portclone benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload dense-grid --seed 1 --seconds 15 --trace 0

Each pass runs in a fresh interpreter (perfbench/passrun.py), so set-up and
library caches are paid cold on every pass, as a CLI user pays them. One
discarded warm-up pass comes first; measured passes follow until --seconds
have passed, between two halves of SETUP_PROBES interpreters that only
import portclone. With --trace 1 every measured pass is paired with a traced
pass of the same items, which gives the per-module metrics and the tracing
overhead. Human-readable lines come first; the last line of standard output
is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS
from workloads import WARMUP, WORKLOADS, check_item, items_for, load_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Set-up-only interpreters per run, half before and half after the measured
# passes, so that their median spans the run; setup_s is that median.
SETUP_PROBES = 40
DEADLINE_S = 170  # a run that cannot finish in time fails instead of overrunning
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "top_item_s": "s", "peak_rss_mb": "MB"}
TRACE_UNITS = {"trace.wall_s": "s", "trace.overhead_s": "s"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PORTCLONE_DIM_CAP", None)
    return env


def run_pass(workload: str, seed: int, mode: str, env: dict[str, str], deadline: float) -> dict:
    """Run one pass in a fresh interpreter and return its JSON report."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
         "--seed", str(seed), "--t0", repr(t0), "--mode", mode],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(deadline - t0, 1),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} pass of {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_state() -> dict:
    """Commit of the checkout and whether its tree differs from it; None
    outside a git repository (git does not look above the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if commit else None
    return {"commit": commit, "dirty": None if status is None else bool(status)}


def failures(passes: list[dict], items_by_name: dict, reference: dict) -> list[str]:
    """One line per failed item of every pass: raised, refused or off its oracle."""
    out = []
    for p in passes:
        for r in p["items"]:
            reason = r["error"] or check_item(items_by_name[r["name"]], r["values"], reference)
            if reason:
                out.append(f"{r['name']}: {reason}")
    return out


def mismatches(untraced: list[dict], traced: list[dict]) -> list[str]:
    """Items whose traced outputs differ from the untraced ones in any bit."""
    out = []
    for plain, trace in zip(untraced, traced):
        for a, b in zip(plain["items"], trace["items"]):
            if json.dumps(a["values"], sort_keys=True) != json.dumps(b["values"], sort_keys=True):
                out.append(f"{a['name']}: traced outputs differ from untraced")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "portclone" / "__init__.py").is_file():
        print(f"no portclone sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    workload = WORKLOADS[args.workload]
    items = items_for(args.workload, args.seed)
    items_by_name = {i.name: i for i in items + list(WARMUP)}
    reference = load_reference()

    deadline = time.monotonic() + DEADLINE_S

    def run(mode):
        return run_pass(args.workload, args.seed, mode, env, deadline)

    warmup = run("warmup")

    def probe(n):
        return [run("setup")["setup_s"] for _ in range(n)]

    setups = probe(SETUP_PROBES // 2)
    measured, traced = [], []
    start = time.monotonic()
    while not measured or time.monotonic() - start < args.seconds:
        measured.append(run("measure"))
        if args.trace:
            traced.append(run("trace"))
    setups += probe(SETUP_PROBES - len(setups))

    every_pass = [warmup] + measured + traced
    failed = failures(every_pass, items_by_name, reference) + mismatches(measured, traced)
    attempted = sum(len(p["items"]) for p in every_pass)

    def median_of(key):
        return statistics.median(p[key] for p in measured)

    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": median_of("wall_s"),
        "top_item_s": statistics.median(
            r["seconds"] for p in measured for r in p["items"] if r["name"] == workload.top
        ),
        "peak_rss_mb": median_of("peak_rss_mb"),
    }
    layers, absent = {}, []
    if args.trace:
        per_pass = [p["layers"] for p in traced]
        layers = {m: statistics.median(v[m] for v in per_pass) for m in LAYERS}
        absent = traced[0]["absent"]
        layers["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - e2e["wall_s"]

    print(f"workload {args.workload} seed {args.seed}: {len(measured)} measured pass(es), "
          f"{len(traced)} traced, {len(setups)} set-up probes")
    for name, value in e2e.items():
        print(f"  {name:<32} {value:>14.6f} {E2E_UNITS[name]}")
    print(f"  {'fail_ratio':<32} {len(failed) / attempted:>14.6f} ratio "
          f"({len(failed)} of {attempted} items)")
    units = {m: u for m, (u, _, _) in LAYERS.items()} | TRACE_UNITS
    for name, value in layers.items():
        shown = "absent" if name in absent else f"{value:>14.6f}"
        print(f"  {name:<32} {shown:>14} {units[name]}")
    for line in failed:
        print(f"  FAILED {line}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **git_state(), "blas_threads_set": BLAS_THREADS,
        "env": measured[0]["env"], "absent": absent, "setup_probes_s": setups,
        "passes": [
            {"mode": mode, "wall_s": p["wall_s"], "setup_s": p["setup_s"],
             "peak_rss_mb": p["peak_rss_mb"],
             "items": [[r["name"], r["seconds"]] for r in p["items"]]}
            for mode, group in (("warmup", [warmup]), ("measure", measured), ("trace", traced))
            for p in group
        ],
    }
    print("record " + json.dumps(record))
    shown = layers if args.trace else e2e
    all_units = E2E_UNITS | units
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {m: {"value": v, "unit": all_units[m]} for m, v in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
