"""bdcluster benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 60 --trace 0

Each item (see workloads.py) runs in a fresh interpreter started by this
script, under an address-space cap, so users' cold caches are paid every
time and a memory regression fails an item instead of exhausting the
machine.  The seed shuffles the order of the items and nothing else: the
paper fixes the inputs.

--trace 0 runs passes over all items, each in a new seeded order: two,
then more while the next pass still fits in --seconds; each item's
figures are the median of its runs.  --trace 1 runs every item once traced with sweeps
in one process, and once untraced with the same worker count, to give
the tracing overhead.

Measurement limit: only timers and rusage of this script's own processes
are used.  Nothing traces the machine and no cache is dropped.

The last line of stdout is the result as JSON; the line before it
records the run (seed, commit, Python, CPUs, worker count).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import signal
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
# Every run must end within 180 s; stop starting items well before that.
HARD_LIMIT_S = 165.0

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

MODULES = ("polyring", "polymat", "bdseed", "quiver", "poisson", "verify")
# Inclusive times of spans that run on every workload, in seconds.
SPAN_SECONDS = (
    "polyring.mul", "polyring.add", "polyring.divide", "polymat.determinant",
    "bdseed.cluster", "quiver.build", "quiver.rank", "quiver.mutate", "poisson.rmatrix",
    "verify.rank", "verify.stable", "verify.regular", "verify.cybe", "verify.rplus",
)
# Spans that exchange-n5 never enters, as a share of the traced wall
# time, so that no per-layer time is a constant zero on some workload.
SPAN_SHARES = (
    "polymat.replace", "poisson.tables", "poisson.bracket", "poisson.coefficient",
    "poisson.sweep", "verify.logcanon", "verify.compat", "verify.frozen",
    "verify.somega", "verify.bracketdiff",
)
SPAN_CALLS = (
    "polyring.mul", "polyring.add", "polyring.divide", "polymat.determinant",
    "polymat.replace", "quiver.mutate", "poisson.tables", "poisson.bracket",
    "poisson.coefficient",
)
COUNTERS = (
    "polyring.mul.term_products", "polyring.add.terms_copied", "polyring.divide.quot_terms",
    "polyring.divide.not_divisible", "polyring.key_bits", "polymat.determinant.terms_out",
    "bdseed.cluster.terms_total", "bdseed.cluster.terms_max", "quiver.mutate.numerator_terms",
    "poisson.bracket.terms_out", "poisson.sweep.pairs", "poisson.pool.sweeps",
)


# The shared CPUs of the 2-CPU virtual machine the bounds were set on slow down
# and speed up with their neighbours' load, by +-10% between minute-long
# runs, far beyond what a bound can absorb.  So before every item the run
# also times a fixed interpreter start that imports only the standard
# library (REFERENCE_CMD), and reports its times scaled by
# REFERENCE_S / (median reference time of the run): seconds at a fixed
# reference speed.  The record line keeps the raw seconds.
REFERENCE_CMD = [sys.executable, "-c", "import argparse, dataclasses, decimal, fractions, heapq, json, typing"]
REFERENCE_S = 0.05


def reference_time() -> float:
    t0 = time.monotonic()
    subprocess.run(REFERENCE_CMD, check=True)
    return time.monotonic() - t0


class ImportFailure(RuntimeError):
    """The checkout holds no importable bdcluster package."""


def _limit_memory(cap: int):
    def apply():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return apply


def run_child(item: dict, workload: str, traced: bool, serial: bool, deadline: float,
              reference: list) -> dict:
    """Run one item in a fresh interpreter; return its result, or a failure.

    A reference time is appended to `reference` first.
    """
    reference.append(reference_time())
    spawned = time.monotonic()
    spec = {"item": item, "traced": traced, "serial": serial}
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(spec)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        preexec_fn=_limit_memory(workloads.MEMORY_CAP),
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - spawned))
        failure = None if proc.returncode == 0 else f"child exited with {proc.returncode}"
    except subprocess.TimeoutExpired:
        out, failure = b"", "timed out"
    finally:
        # The child's pool workers share its process group; leave none behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode == 3:
        raise ImportFailure("the child could not import bdcluster")
    elapsed = time.monotonic() - spawned
    if failure is not None:
        return {"id": item["id"], "problems": [failure], "elapsed": elapsed}
    res = json.loads(out.decode().splitlines()[-1])
    res.update(id=item["id"], setup=res["ready"] - spawned, elapsed=elapsed,
               problems=workloads.gate(item, res))
    return res


def untraced(workload: str, items: list, rng: random.Random, seconds: float, start: float,
             reference: list) -> tuple:
    results = []
    passes = 0
    # Whole passes only, so every item has as many runs as the others, and
    # at least two, so that no item's figure rests on one run.
    while passes < 2 or (time.monotonic() - start) * (passes + 1) / passes <= seconds:
        order = items[:]
        rng.shuffle(order)
        for item in order:
            if time.monotonic() - start > HARD_LIMIT_S:
                break
            results.append(run_child(item, workload, False, False, start + HARD_LIMIT_S, reference))
        passes += 1
    ok = [r for r in results if "wall" in r]
    by_item = defaultdict(list)
    for r in ok:
        by_item[r["id"]].append(r)
    missing = {i["id"] for i in items} - set(by_item)
    if missing:
        return results, None
    k = REFERENCE_S / median(reference)
    metrics = {
        "setup_s": (median(r["setup"] for r in ok) * k, "s"),
        "wall_s": (sum(median(r["wall"] for r in rs) for rs in by_item.values()) * k, "s"),
        "cpu_s": (sum(median(r["cpu"] for r in rs) for rs in by_item.values()) * k, "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in ok), "MB"),
    }
    return results, metrics


def traced(workload: str, items: list, rng: random.Random, start: float, reference: list) -> tuple:
    order = items[:]
    rng.shuffle(order)
    results, pairs = [], []
    for k, item in enumerate(order):
        # Alternate which of the two runs of an item goes first.
        runs = {}
        for mode in ((True, False) if k % 2 == 0 else (False, True)):
            runs[mode] = run_child(item, workload, mode, True, start + HARD_LIMIT_S, reference)
            results.append(runs[mode])
        pairs.append((runs[True], runs[False]))
    if any("wall" not in r for r in results):
        return results, None, None

    spans = defaultdict(lambda: [0, 0.0, 0.0])
    outer = defaultdict(float)
    counters = defaultdict(int)
    wall = ref_wall = unattributed = 0.0
    for tr_run, ref in pairs:
        t = tr_run["trace"]
        top = 0.0
        for name, parent, calls, incl, own in t["spans"]:
            rec = spans[(name, parent)]
            rec[0] += calls
            rec[1] += incl
            rec[2] += own
            if parent is None:
                top += incl
        for name, s in t["outer"].items():
            outer[name] += s
        for name, v in t["counters"].items():
            if name in ("polyring.key_bits", "bdseed.cluster.terms_max"):
                counters[name] = max(counters[name], v)
            else:
                counters[name] += v
        wall += tr_run["wall"]
        ref_wall += ref["wall"]
        unattributed += tr_run["wall"] - top

    calls = defaultdict(int)
    for (name, _), (c, _, _) in spans.items():
        calls[name] += c
    m = {}
    for name in SPAN_SECONDS:
        m[f"{name}.s"] = (outer[name], "s")
    for name in SPAN_SHARES:
        m[f"{name}.share"] = (outer[name] / wall, "ratio")
    for mod in MODULES:
        own = sum(s for (name, _), (_, _, s) in spans.items() if name.startswith(mod + "."))
        m[f"{mod}.self_s"] = (own, "s")
    for name in SPAN_CALLS:
        m[f"{name}.calls"] = (calls[name], "count")
    for name in COUNTERS:
        m[name] = (counters[name], "bits" if name.endswith("key_bits") else "count")
    tabled = calls["poisson.tables"]
    m["poisson.tables.useful_ratio"] = (
        counters["poisson.tables.distinct"] / tabled if tabled else 1.0, "ratio")
    m["poisson.pool.workers"] = (results[0]["sweep_workers"], "count")
    checks = [r for tr_run, _ in pairs for r in tr_run["reports"]]
    m["verify.checks.run"] = (len(checks), "count")
    # Items whose verdicts or details differ from the expected ones.
    m["verify.checks.wrong_verdict"] = (sum(1 for r in results if r["problems"]), "count")
    cli = [r for r in results if r["exit"] is not None]
    m["cli.invocations"] = (len(cli), "count")
    m["cli.exit_mismatch"] = (sum(1 for r in cli if any("exit code" in p for p in r["problems"])), "count")
    m["cli.start_s"] = (median(r["setup"] for r in results), "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.untraced_wall_s"] = (ref_wall, "s")
    m["trace.overhead_s"] = (wall - ref_wall, "s")
    m["trace.unattributed_s"] = (unattributed, "s")
    m["trace.spans"] = (sum(calls.values()), "count")
    k = REFERENCE_S / median(reference)
    m = {name: (v * k if u == "s" else v, u) for name, (v, u) in m.items()}
    table = sorted(([n, p, c, i, s] for (n, p), (c, i, s) in spans.items()), key=lambda r: -r[4])
    return results, m, table


def record(args, results, reference) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    workers = next((r["sweep_workers"] for r in results if "sweep_workers" in r), None)
    walls = defaultdict(list)
    for r in results:
        if "wall" in r:
            walls[r["id"]].append(r["wall"])
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "sweep_workers": workers,
        "BD_CLUSTER_THREADS": os.environ.get("BD_CLUSTER_THREADS"),
        "memory_cap_bytes": workloads.MEMORY_CAP,
        "runs": len(results),
        # Raw seconds, not scaled to the reference speed.
        "raw_item_wall_s": {i: median(w) for i, w in sorted(walls.items())},
        "raw_wall_s": sum(median(w) for w in walls.values()),
        "reference_median_s": median(reference) if reference else None,
        "time_scale": REFERENCE_S / median(reference) if reference else None,
        "measurement_limit": "timers and rusage of the benchmark's own processes only; "
                             "no machine-wide tracing, no cache dropping",
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("paper-sweep", "exchange-n5"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "bdcluster" / "__init__.py").is_file():
        print(f"run.py: no bdcluster package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    items = workloads.items(args.workload)
    rng = random.Random(args.seed)
    reference = []
    try:
        if args.trace:
            results, metrics, table = traced(args.workload, items, rng, start, reference)
        else:
            results, metrics = untraced(args.workload, items, rng, args.seconds, start, reference)
    except ImportFailure as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2

    failed = [r for r in results if r["problems"]]
    for r in failed:
        print(f"run.py: item {r['id']} failed: {'; '.join(r['problems'][:3])}", file=sys.stderr)
    if metrics is None:
        print("run.py: some item never completed; no metrics", file=sys.stderr)
        metrics = {}
    if args.trace and table is not None:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        (out / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(
            {"columns": ["span", "parent", "calls", "inclusive_s", "self_s"], "spans": table}, indent=1))
    print(json.dumps({"record": record(args, results, reference)}))
    print(json.dumps({
        "correct": not failed and bool(metrics),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
