"""Tests for the task runner that the pair sweeps and the exact divisions share."""

import os
import signal

import pytest

from bdcluster import poisson, polyring, tasks, verify
from bdcluster.bdseed import BDTriple, get_ring, normalize_triple
from bdcluster.polyring import ExponentOverflow, exact_divide
from bdcluster.quiver import NotLaurentPolynomial, mutate_seed
from bdcluster.tasks import WorkerDied, run_tasks, worker_count
from bdcluster.verify import Fault, Workspace, structure
from test_verify import built

N4_PAIRS = [(3, 1, 2), (4, 1, 2), (4, 1, 3), (4, 2, 3)]


def _count_forks(monkeypatch):
    """The pids of the children forked from now on, with two CPUs, so that
    two workers are not capped to one on any host."""
    started = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return started


@pytest.fixture
def forks(monkeypatch):
    """_count_forks with the threshold at 0, so that every run of two tasks
    or more and two workers forks."""
    monkeypatch.setattr(tasks, "POOL_MIN_PRODUCTS", 0)
    return _count_forks(monkeypatch)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


class TestRunner:
    def test_results_in_task_order(self, forks, monkeypatch):
        # Costs deal the tasks out of order; results still come back in order.
        # Three CPUs, so that three workers fork two children.
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        items = list(range(11))
        costs = [5, 1, 9, 2, 7, 3, 8, 4, 6, 1, 2]
        with worker_count(3):
            assert run_tasks(lambda t: t * t, items, costs) == [t * t for t in items]
            assert len(forks) == 2 and _no_child_left()
            assert run_tasks(lambda t: t * t, items[:1], costs[:1]) == [0]
        with worker_count(1):
            assert run_tasks(lambda t: t * t, items, costs) == [t * t for t in items]
        assert len(forks) == 2

    def test_threshold_and_worker_count(self, forks, monkeypatch):
        monkeypatch.setattr(tasks, "POOL_MIN_PRODUCTS", 100)
        with worker_count(2):
            assert not tasks.forks([50, 49]) and tasks.forks([50, 50])
        with worker_count(1):
            assert not tasks.forks([50, 50])
        with worker_count(4):
            assert not tasks.forks([100])
        # Runs take worker_count's count, 1 outside every block.
        assert not tasks.forks([50, 50])
        assert run_tasks(abs, [-1, -2], [50, 50]) == [1, 2] and not forks
        with worker_count(2):
            assert run_tasks(abs, [-1, -2], [50, 50]) == [1, 2]
        assert len(forks) == 1 and tasks._workers == 1 and _no_child_left()

    def test_forked_run_forks_no_further(self, forks):
        # A task of a forked run that runs tasks of its own runs them where
        # it runs, in a worker or in the calling process.
        def nested(t):
            return run_tasks(lambda u: (os.getpid(), u), [t, t + 1], [1, 1])

        with worker_count(2):
            out = run_tasks(nested, [0, 10], [1, 1])
            assert [[u for _, u in inner] for inner in out] == [[0, 1], [10, 11]]
            assert [len({pid for pid, _ in inner}) for inner in out] == [1, 1]
            assert os.getpid() in {pid for inner in out for pid, _ in inner}
            assert len(forks) == 1 and _no_child_left()
            # Outside a forked run, the same nested run forks.
            assert [u for _, u in run_tasks(nested, [0], [1])[0]] == [0, 1]
            assert len(forks) == 2 and _no_child_left()

    def test_worker_overflow_reraises_with_serial_text(self, forks):
        # The task raises in the forked worker alone; the parent re-raises it.
        parent = os.getpid()

        def overflow(t):
            if os.getpid() != parent:
                raise ExponentOverflow("a product has an exponent of 128 or more in some variable")
            return t

        with worker_count(2), pytest.raises(
            ExponentOverflow, match="^a product has an exponent of 128 or more in some variable$"
        ):
            run_tasks(overflow, [0, 1, 2, 3], [4, 3, 2, 1])
        assert len(forks) == 1 and _no_child_left()

    def test_earliest_failing_task_wins(self, forks):
        # As in process, the exception of the first failing task in task order.
        def fail(t):
            if t in (1, 2):
                raise ValueError(f"task {t}")
            return t

        for workers in (1, 2):
            with worker_count(workers), pytest.raises(ValueError, match="^task 1$"):
                run_tasks(fail, [0, 1, 2, 3], [1, 1, 1, 1])
        assert len(forks) == 1 and _no_child_left()

    def test_killed_worker_raises_and_leaves_no_child(self, forks):
        parent = os.getpid()

        def killed(t):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return t

        with worker_count(2), pytest.raises(WorkerDied, match="terminated abruptly"):
            run_tasks(killed, [0, 1, 2, 3], [1, 1, 1, 1])
        assert len(forks) == 1 and _no_child_left()

    def test_parent_error_reaps_children(self, forks, monkeypatch):
        # An error that is not a task's, here in the parent's share, still
        # ends and reaps every worker before it propagates.  Three CPUs, so
        # that three workers fork two children.
        parent = os.getpid()

        def interrupted(t):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return t

        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        with worker_count(3), pytest.raises(KeyboardInterrupt):
            run_tasks(interrupted, [0, 1, 2], [1, 1, 1])
        assert len(forks) == 2 and _no_child_left()

    def test_worker_count_is_capped_by_the_cpu_count(self, forks):
        # A forked run starts all its workers at once, so a block's count is
        # capped by the CPU count, 2 here: three tasks, which uncapped would
        # fork two children, fork one.
        with worker_count(10**5):
            assert tasks._workers == 2
            assert run_tasks(lambda t: t + 1, [0, 1, 2], [1, 1, 1]) == [1, 2, 3]
        assert len(forks) == 1 and _no_child_left() and tasks._workers == 1


class TestForkedDivision:
    def test_division_overflow_in_worker_has_serial_text(self, forks, monkeypatch):
        # Two slices: x[2,1] times a multiple of q, the heavier, goes to the
        # calling process, and x[1,1] x[1,2]^127 to the worker, where its
        # reduction reaches x[1,2]^129.
        monkeypatch.setattr(polyring, "SLICE_PRODUCTS", 0)
        x = get_ring(2).x
        q = x(1, 1) + x(1, 2) ** 2
        p = x(1, 1) * x(1, 2) ** 127 + x(2, 1) * q * (x(1, 1) + x(1, 2) + 1)
        texts = []
        for workers in (1, 2):
            with worker_count(workers), pytest.raises(ExponentOverflow) as e:
                exact_divide(p, q)
            texts.append(str(e.value))
        assert texts[0] == texts[1] == "a division reaches an exponent of 128 or more in some variable"
        assert len(forks) == 1 and _no_child_left()

    @pytest.mark.parametrize("fault", [None, Fault.DROP_PHI31_TERM])
    @pytest.mark.parametrize("pair", N4_PAIRS)
    def test_forced_pool_regular_matches_serial(self, forks, monkeypatch, pair, fault):
        # With the threshold at 0 and every dividend sliced, each exchange of
        # two slices or more forks; its exchanged variable, or the text of
        # its NotLaurentPolynomial, is that of --processes 1, and so are
        # regular's witnesses.
        monkeypatch.setattr(polyring, "SLICE_PRODUCTS", 0)
        triple = BDTriple(*pair)
        seed = Workspace(built(triple, fault=fault)).exchange_seed

        def exchanged(workers):
            out = []
            with worker_count(workers):
                for lab in seed.matrix.mutable_labels():
                    try:
                        out.append(mutate_seed(seed, lab).cluster.functions[lab])
                    except NotLaurentPolynomial as e:
                        out.append(str(e))
            return out

        serial = exchanged(1)
        assert not forks
        assert exchanged(2) == serial
        assert forks and _no_child_left()
        assert any(isinstance(v, str) for v in serial) == (fault is not None)
        reports = [verify.run_checks(["regular"], triple=triple, fault=fault, processes=w)[0] for w in (1, 2)]
        assert reports[0].witnesses == reports[1].witnesses and reports[0].details == reports[1].details
        assert _no_child_left()


class TestOneWorkerRoute:
    def test_library_runs_fork_only_within_worker_count(self, monkeypatch):
        # worker_count is the one route to a fork: the (5,1,4) sweep and its
        # (2,2) exchange, both above the threshold, each fork one child in a
        # worker_count(2) block and none outside it, and give the same
        # omegas and exchanged variable either way.
        started = _count_forks(monkeypatch)
        ws = Workspace(structure(BDTriple(5, 1, 4)))
        serial = ws.omega
        x22 = mutate_seed(ws.exchange_seed, (2, 2)).cluster.functions[2, 2]
        assert not started
        with worker_count(2):
            ws = Workspace(structure(BDTriple(5, 1, 4)))
            assert ws.omega == serial
            assert len(started) == 1 and _no_child_left()
            assert mutate_seed(ws.exchange_seed, (2, 2)).cluster.functions[2, 2] == x22
            assert len(started) == 2 and _no_child_left()


def _costs(monkeypatch):
    """Record the costs of every sweep's and every division's run_tasks call."""
    seen = {"sweep": [], "division": []}
    for module, kind in ((poisson, "sweep"), (polyring, "division")):
        def spy(fn, items, costs, kind=kind, real=module.run_tasks):
            seen[kind].append(list(costs))
            return real(fn, items, costs)

        monkeypatch.setattr(module, "run_tasks", spy)
    return seen


class TestThreshold:
    """POOL_MIN_PRODUCTS is pinned against the real costs, and forks is the
    decision run_tasks takes on them."""

    def test_paper_sweep_stays_in_process(self, monkeypatch):
        # Every check of the paper-sweep benchmark's check-all items, with
        # two workers: the largest sweep is (5,1,3)'s and the largest
        # division (5,2,4)'s, and neither reaches the threshold.
        def refuse():
            raise AssertionError("a paper-sweep item forked")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "fork", refuse)
        seen = _costs(monkeypatch)
        pairs = [(3, 1, 2), (4, 1, 2), (4, 1, 3), (4, 2, 3), (5, 1, 2), (5, 1, 3), (5, 2, 3), (5, 2, 4), (5, 3, 4)]
        runs = [dict(triple=BDTriple(*p)) for p in pairs]
        runs += [dict(triple=normalize_triple(4, 3, 1)), dict(triple=BDTriple(4, 1, 3), sl=True), dict(n=4)]
        for run in runs:
            reports = verify.run_checks(["all"], processes=2, **run)
            assert all(r.passed for r in reports), run
        sweeps, divisions = (seen[kind] for kind in ("sweep", "division"))
        with worker_count(2):
            assert not any(tasks.forks(costs) for costs in sweeps + divisions)
        assert max(map(sum, sweeps)) == 450_349 < tasks.POOL_MIN_PRODUCTS
        assert max(map(sum, divisions)) == 2 * 86_472

    def test_heavy_exchange_forks(self, monkeypatch):
        # Of (5,1,4) regular's 18 exchanges only (2,2) forks: 330,504
        # numerator products in 142 slices, packed into 19 tasks of fewer
        # than SLICE_PRODUCTS products each, cost 661,008.  The (5,1,4)
        # sweep of 2.8 million products forks too.
        started = _count_forks(monkeypatch)
        seen = _costs(monkeypatch)
        report = verify.run_checks(["regular"], triple=BDTriple(5, 1, 4), processes=2)[0]
        assert report.passed and report.details == {"exchanges": 18}
        with worker_count(2):
            heavy = [costs for costs in seen["division"] if tasks.forks(costs)]
            assert [(len(costs), sum(costs)) for costs in heavy] == [(19, 661_008)]
            assert len(started) == 1 and _no_child_left()
            ws = Workspace(structure(BDTriple(5, 1, 4)))
            s = ws.structure
            plan = poisson.sweep_plan([ws.tables(f, s.op) for f in s.cluster.functions.values()])
            assert tasks.forks([p for p, _ in plan]) and sum(p for p, _ in plan) == 2_822_224
