"""Run one benchmark item in a fresh interpreter; print its result as JSON.

Usage (run.py starts it): python3 perfbench/child.py '<item spec as JSON>'

The spec carries the item, the monotonic time at which the parent
spawned this process (so set-up time includes interpreter start), and
two switches: `traced` installs the span tracer, `serial` makes every
sweep run in this process (`processes=1`).  Whatever the switches, the
child records every omega and every exchanged variable the item
computes, as a digest the parent compares with expected.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _capture(bd, reports: list, lines: list) -> None:
    """Record checks' reports, omegas and exchanged variables as they are made."""
    from bdcluster import poisson, quiver, verify
    from tracer import rebind

    modules = [bd, bd.cli, poisson, quiver, verify]
    run_checks, omega_sweep, mutate_seed = verify.run_checks, poisson.omega_sweep, quiver.mutate_seed

    def capture_checks(*args, **kwargs):
        out = run_checks(*args, **kwargs)
        reports.extend(out)
        return out

    def capture_sweep(functions, op, *args, **kwargs):
        omegas, failures = omega_sweep(functions, op, *args, **kwargs)
        lines.extend(f"w {op.n} {ia} {ib} {w}" for (ia, ib), w in sorted(omegas.items()))
        lines.extend(f"f {ia} {ib} {reason}" for ia, ib, reason in failures)
        return omegas, failures

    def capture_mutation(seed, label):
        new = mutate_seed(seed, label)
        f = new.cluster.functions[label]
        # hash() of ints, Fractions and tuples of them does not depend on
        # PYTHONHASHSEED, so this is the same in every run.
        lines.append(f"x {label} {len(f)} {hash(frozenset(f._d.items()))}")
        return new

    rebind(run_checks, capture_checks, modules)
    rebind(omega_sweep, capture_sweep, modules)
    rebind(mutate_seed, capture_mutation, modules)


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import bdcluster
        from bdcluster import cli, poisson
        from bdcluster.bdseed import normalize_triple
    except ImportError as e:
        print(f"child: cannot import bdcluster from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 3
    import tracer

    item, serial = spec["item"], spec["serial"]
    tr = None
    if spec["traced"]:
        tr = tracer.Tracer()
        tracer.install(tr, bdcluster)
    reports, lines = [], []
    _capture(bdcluster, reports, lines)

    if "argv" in item:
        argv = list(item["argv"])
        if serial and argv[0] == "check":
            argv += ["--processes", "1"]
    else:
        triple = normalize_triple(item["n"], *item["pair"])
    ready = time.monotonic()

    stdout = io.StringIO()
    cpu0 = _cpu()
    t0 = time.perf_counter()
    if "argv" in item:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
    else:
        bdcluster.verify.run_checks(item["checks"], triple=triple, processes=1 if serial else None)
        code = None
    wall = time.perf_counter() - t0
    cpu = _cpu() - cpu0

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "ready": ready,
        "wall": wall,
        "cpu": cpu,
        "rss_mb": max(own, kids) / 1024,
        "exit": code,
        "stdout": stdout.getvalue(),
        "reports": [dict(r.to_dict(), details=r.details) for r in reports],
        "digest": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        "sweep_workers": poisson.sweep_workers(),
    }
    if tr is not None:
        result["trace"] = tr.dump()
    print(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
