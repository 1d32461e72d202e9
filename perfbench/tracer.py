"""Span tracer that wraps bdcluster's public functions from outside.

Nothing under src/ knows about it: `install` rebinds every module-level
name (and every Poly operator slot) that refers to a traced function, so
calls made through `from .polyring import exact_divide` style imports are
caught too.  Spans are aggregated in memory per (span, parent) with call
count, inclusive time and self time; the child process writes them out
once, when its item is done.
"""

from __future__ import annotations

import time
from collections import defaultdict

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        # Each frame is [name, time covered by child spans].
        self.stack = []
        # (name, parent) -> [calls, inclusive seconds, self seconds]
        self.spans = {}
        # name -> inclusive seconds of its outermost calls only, so a
        # span nested in itself is not counted twice.
        self.outer = defaultdict(float)
        self.active = defaultdict(int)
        self.counters = defaultdict(int)
        self.tabled = set()

    def wrap(self, name, fn, count=None):
        stack, spans, outer, active = self.stack, self.spans, self.outer, self.active

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            active[name] += 1
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = perf_counter() - t0
                stack.pop()
                active[name] -= 1
                if stack:
                    stack[-1][1] += dur
                if not active[name]:
                    outer[name] += dur
                rec = spans.get((name, parent))
                if rec is None:
                    spans[(name, parent)] = [1, dur, dur - frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += dur - frame[1]
                if count is not None:
                    count(self, parent, args, result)

        traced.__wrapped__ = fn
        return traced

    def dump(self) -> dict:
        return {
            "spans": [[n, p, c, i, s] for (n, p), (c, i, s) in self.spans.items()],
            "outer": dict(self.outer),
            "counters": dict(self.counters),
        }


# ----------------------------------------------------------------------
# Counters computed at the span boundary from arguments and results.


def _count_mul(tr, parent, args, result):
    a, b = args
    tr.counters["polyring.mul.term_products"] += len(a) * (len(b) if hasattr(b, "_d") else 1)


def _count_add(tr, parent, args, result):
    # Poly.__add__ starts from a copy of the larger operand's dict.
    a, b = args
    tr.counters["polyring.add.terms_copied"] += max(len(a), len(b) if hasattr(b, "_d") else 1)


def _count_sub(tr, parent, args, result):
    # Poly.__sub__ starts from a copy of its left operand's dict.
    tr.counters["polyring.add.terms_copied"] += len(args[0])


def _count_divide(tr, parent, args, result):
    if result is None:
        tr.counters["polyring.divide.not_divisible"] += 1
    else:
        tr.counters["polyring.divide.quot_terms"] += len(result)
    if parent == "quiver.mutate":
        tr.counters["quiver.mutate.numerator_terms"] += len(args[0])


def _count_determinant(tr, parent, args, result):
    if result is not None:
        tr.counters["polymat.determinant.terms_out"] += len(result)


def _count_cluster(tr, parent, args, result):
    if result is None:
        return
    sizes = [len(f) for f in result.functions.values()]
    tr.counters["bdseed.cluster.terms_total"] += sum(sizes)
    key = "bdseed.cluster.terms_max"
    tr.counters[key] = max(tr.counters[key], max(sizes))
    key = "polyring.key_bits"
    tr.counters[key] = max(tr.counters[key], 8 * result.ring.nvars)


def _count_tables(tr, parent, args, result):
    # Distinct by content: the frozen check tables the same function again
    # for every coordinate.
    tr.tabled.add((args[1], hash(frozenset(args[0]._d.items()))))
    tr.counters["poisson.tables.distinct"] = len(tr.tabled)


def _count_bracket(tr, parent, args, result):
    if result is not None:
        tr.counters["poisson.bracket.terms_out"] += len(result)


def _sweep_counter(default_workers):
    def count(tr, parent, args, result):
        nfun = len(args[0])
        pairs = nfun * (nfun - 1) // 2
        tr.counters["poisson.sweep.pairs"] += pairs
        # Same rule as omega_sweep: the pool runs for 32 pairs or more.
        if default_workers > 1 and pairs >= 32:
            tr.counters["poisson.pool.sweeps"] += 1

    return count


def install(tracer: Tracer, bd) -> None:
    """Wrap the traced functions of the imported package `bd`."""
    from bdcluster import bdseed, cli, poisson, polymat, polyring, quiver, verify

    modules = [bd, bdseed, cli, poisson, polymat, polyring, quiver, verify]
    Poly = polyring.Poly
    targets = [
        (Poly.__mul__, "polyring.mul", _count_mul),
        (Poly.__add__, "polyring.add", _count_add),
        (Poly.__sub__, "polyring.add", _count_sub),
        (Poly.__pow__, "polyring.pow", None),
        (polyring.exact_divide, "polyring.divide", _count_divide),
        (polyring.partial_derivative, "polyring.derivative", None),
        (polymat.determinant, "polymat.determinant", _count_determinant),
        (polymat.col_replace, "polymat.replace", None),
        (polymat.row_replace, "polymat.replace", None),
        (bdseed.initial_cluster, "bdseed.cluster", _count_cluster),
        (bdseed.standard_cluster, "bdseed.cluster", _count_cluster),
        (quiver.bd_quiver, "quiver.build", None),
        (quiver.standard_quiver, "quiver.build", None),
        (quiver.to_exchange_matrix, "quiver.build", None),
        (quiver.make_seed, "quiver.build", None),
        (quiver.matrix_rank, "quiver.rank", None),
        (quiver.mutate_seed, "quiver.mutate", None),
        (poisson.r_plus_operator, "poisson.rmatrix", None),
        (poisson.build_r_tensor, "poisson.rmatrix", None),
        (poisson.verify_cybe, "poisson.rmatrix", None),
        (poisson.r_plus, "poisson.rmatrix", None),
        (poisson.r_plus_oracle, "poisson.rmatrix", None),
        (poisson.gradient_tables, "poisson.tables", _count_tables),
        (poisson.bracket_from_tables, "poisson.bracket", _count_bracket),
        (poisson.poisson_coefficient, "poisson.coefficient", None),
        (poisson.omega_sweep, "poisson.sweep", _sweep_counter(poisson.sweep_workers())),
        (verify.run_checks, "verify.run_checks", None),
        (verify.check_log_canonical, "verify.logcanon", None),
        (verify.check_compatibility, "verify.compat", None),
        (verify.check_rank, "verify.rank", None),
        (verify.check_stable_count, "verify.stable", None),
        (verify.check_regularity, "verify.regular", None),
        (verify.check_frozen_log_canonical_with_coordinates, "verify.frozen", None),
        (verify.check_s_omega, "verify.somega", None),
        (verify.check_bracket_difference, "verify.bracketdiff", None),
        (verify.check_cybe, "verify.cybe", None),
        (verify.check_r_plus_consistency, "verify.rplus", None),
        (cli.main, "cli.main", None),
    ]
    for fn, name, count in targets:
        rebind(fn, tracer.wrap(name, fn, count), modules, [Poly])


def rebind(orig, new, modules, classes=()) -> None:
    """Point every module global and class attribute bound to `orig` at `new`."""
    for owner in list(modules) + list(classes):
        for key, value in list(vars(owner).items()):
            if value is orig:
                setattr(owner, key, new)
