"""One task runner for the pair sweeps and the exact divisions.

run_tasks(fn, tasks, costs, workers) returns [fn(t) for t in tasks].  It
calls them in this process, in order, unless the run forks (forks): two
or more workers, two or more tasks, and costs that reach
POOL_MIN_PRODUCTS together.  Then it deals the tasks heaviest first to
the share of the least-loaded worker, forks one child per share but the
first with os.fork, runs the first share itself, and reads each child's
pickled results from a pipe.  A child inherits every object the tasks
read, so only results cross a pipe, and fn may be a closure.  Each share
runs in task order and stops at its first task that raises; the parent
then raises the exception of the earliest such task, as a run in process
would.  A child leaves only through os._exit, and every child is reaped
before run_tasks returns or raises.  A child that ends without handing
back its results raises WorkerDied.  A forked run forks no further: the
runs that its tasks start stay in process, in the workers and in the
calling process alike.

The worker count of a run that gives none is 1, or what worker_count
sets for a block; run_checks sets it for its checks, so the exact
divisions of an exchange, which are called without one, split their
slices over the same workers as the sweep.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, List, Optional, Sequence

# A run forks only when its tasks together cost at least this much.  A
# pair test costs its planned term products (sweep_plan); a division slice
# costs twice its term products, since each is summed and then reduced
# (0.34 us a product in process, against 0.20 us in a pair test).  On a
# 2-vCPU host two CPU-bound processes each run at 55-100% of their solo
# speed.  Cold, median of 8 alternated runs, two workers took the (5,1,3)
# sweep of 450,349 from 0.089 to 0.068 s wall but from 0.090 to 0.112 s
# CPU, so it stays in process, as every sweep and division of n <= 5 but
# two does.  Those two fork: the (5,1,4) sweep of 2.8 million (0.52 to
# 0.32 s wall, 0.52 to 0.55 s CPU) and the division of the (5,1,4) (2,2)
# exchange, of cost 661,008 (README's Performance section).
POOL_MIN_PRODUCTS = 600_000


class WorkerDied(RuntimeError):
    """Raised when a forked worker ends without handing back its results."""


# The worker count of runs that give none (worker_count), and whether a
# forked run is under way: in its workers, and in the calling process while
# it runs its own share, a nested run stays in process.
_workers = 1
_forking = False


@contextmanager
def worker_count(count: int):
    """Within the block, runs that give no worker count use count."""
    global _workers
    saved, _workers = _workers, count
    try:
        yield
    finally:
        _workers = saved


def forks(costs: Sequence[int], workers: int) -> bool:
    """Whether run_tasks forks for tasks of these costs and this worker count."""
    return (workers > 1 and len(costs) > 1 and sum(costs) >= POOL_MIN_PRODUCTS
            and not _forking and hasattr(os, "fork"))


def run_tasks(fn: Callable, tasks: Sequence, costs: Sequence[int], workers: Optional[int] = None) -> List:
    """[fn(t) for t in tasks], in process or split over forked workers."""
    if workers is None:
        workers = _workers
    if not forks(costs, workers):
        return [fn(t) for t in tasks]
    # Heaviest first, each to the least-loaded share (the shortest of equal
    # loads); each share runs in task order.
    shares: List[List[int]] = [[] for _ in range(min(workers, len(tasks)))]
    loads = [0] * len(shares)
    for i in sorted(range(len(tasks)), key=costs.__getitem__, reverse=True):
        k = min(range(len(shares)), key=lambda k: (loads[k], len(shares[k])))
        shares[k].append(i)
        loads[k] += costs[i]
    return _forked(fn, tasks, [sorted(share) for share in shares])


def _run_share(fn: Callable, tasks: Sequence, share: List[int]):
    """([(i, fn(tasks[i])), ...], None) over share, or, at the first task
    that raises, the results before it and (i, its exception)."""
    done = []
    for i in share:
        try:
            done.append((i, fn(tasks[i])))
        except Exception as e:
            return done, (i, e)
    return done, None


def _forked(fn: Callable, tasks: Sequence, shares: List[List[int]]) -> List:
    import pickle
    import signal

    global _forking
    _forking = True
    reap = []  # the children not yet reaped
    ends = {}  # each child's read end of its pipe, until it is read
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    data = pickle.dumps(_run_share(fn, tasks, share), pickle.HIGHEST_PROTOCOL)
                    with open(w, "wb") as pipe:
                        pipe.write(data)
                    code = 0
                finally:
                    os._exit(code)
            reap.append(pid)
            ends[pid] = r
            os.close(w)
        outcomes = [_run_share(fn, tasks, shares[0])]
        for pid in reap[:]:
            with open(ends.pop(pid), "rb") as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            reap.remove(pid)
            if status:
                raise WorkerDied(f"a worker process terminated abruptly (exit code {os.waitstatus_to_exitcode(status)})")
            outcomes.append(pickle.loads(data))
    finally:
        _forking = False
        for r in ends.values():
            os.close(r)
        for pid in reap:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
    results = [None] * len(tasks)
    for done, _ in outcomes:
        for i, result in done:
            results[i] = result
    errors = [error for _, error in outcomes if error is not None]
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    return results
