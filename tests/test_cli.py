"""End-to-end tests of the command line, run in process."""

import json
import os
from dataclasses import replace

import pytest

from bdcluster import bdseed, cli, poisson, verify
from bdcluster.bdseed import get_ring
from bdcluster.cli import main
from test_verify import REFUSAL


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestSeed:
    def test_text_output(self, capsys):
        rc, out, _ = run(capsys, "seed", "--n", "3", "--alpha", "1", "--beta", "2")
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 9
        # (2,1) and (1,3) thaw for the pair (1,2); (3,1) stays frozen
        assert any(line.startswith("(2,1) mutable") for line in lines)
        assert any(line.startswith("(3,1) frozen") for line in lines)

    def test_json_output(self, capsys):
        rc, out, _ = run(capsys, "seed", "--n", "3", "--alpha", "1", "--beta", "2", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["n"] == 3
        assert (payload["alpha"], payload["beta"]) == (1, 2)
        assert payload["transposed"] is False
        assert payload["standard"] is False
        assert len(payload["frozen"]) == 3
        assert len(payload["functions"]) == 9

    def test_transposed_pair_normalizes(self, capsys):
        rc, out, _ = run(capsys, "seed", "--n", "3", "--alpha", "2", "--beta", "1", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert (payload["alpha"], payload["beta"]) == (1, 2)
        assert payload["transposed"] is True

    def test_standard_without_pair(self, capsys):
        rc, out, _ = run(capsys, "seed", "--n", "2", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["alpha"] is None
        assert payload["standard"] is True
        assert payload["functions"]["2,2"] == "x[2,2]"

    def test_sl_drops_determinant(self, capsys):
        rc, out, _ = run(capsys, "seed", "--n", "3", "--sl", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert "1,1" not in payload["functions"]
        assert len(payload["functions"]) == 8


class TestQuiver:
    def test_text_arcs(self, capsys):
        rc, out, _ = run(capsys, "quiver", "--n", "3", "--alpha", "1", "--beta", "2")
        assert rc == 0
        assert "(1,3) -> (3,1)" in out  # corner arc added by the pair
        assert out.strip().splitlines()[-1].startswith("frozen:")

    def test_dot_output(self, capsys):
        rc, out, _ = run(capsys, "quiver", "--n", "3", "--alpha", "1", "--beta", "2", "--dot")
        assert rc == 0
        assert out.startswith("digraph")
        assert '"2,2"' in out

    def test_json_arcs(self, capsys):
        rc, out, _ = run(capsys, "quiver", "--n", "3", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert all(set(a) == {"from", "to", "weight"} for a in payload["arcs"])
        assert {"from": "2,2", "to": "2,3", "weight": 1} in payload["arcs"]


class TestBracket:
    def test_log_canonical_pair(self, capsys):
        rc, out, _ = run(capsys, "bracket", "--n", "2", "--f", "1,2", "--g", "2,2")
        assert rc == 0
        assert "omega = 1/2" in out

    def test_casimir_pair(self, capsys):
        rc, out, _ = run(capsys, "bracket", "--n", "2", "--f", "1,1", "--g", "2,2", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["log_canonical"] is True
        assert payload["omega"] == "0"
        assert payload["bracket"] == "0"

    def test_exotic_pair(self, capsys):
        rc, out, _ = run(
            capsys, "bracket", "--n", "3", "--alpha", "1", "--beta", "2",
            "--f", "3,1", "--g", "1,3", "--format", "json",
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["log_canonical"] is True

    def test_tables_each_function_once(self, capsys, monkeypatch):
        # The bracket and omega come from one tabling of f and of g, made
        # through the workspace, one pass over each function's terms, and
        # each tabling holds both halves of the operator, R_+ and R_-.
        tabled, passes = [], []
        real, real_pass = verify.gradient_tables, poisson._replacement_tables

        def counted(f, op, *, like=None):
            tabled.append(real(f, op, like=like))
            return tabled[-1]

        def counted_pass(f):
            passes.append(f)
            return real_pass(f)

        monkeypatch.setattr(verify, "gradient_tables", counted)
        monkeypatch.setattr(poisson, "_replacement_tables", counted_pass)
        rc, out, _ = run(capsys, "bracket", "--n", "4", "--alpha", "1", "--beta", "3", "--f", "2,2", "--g", "3,1")
        assert rc == 0 and "omega = " in out
        assert len(tabled) == len(passes) == 2
        assert all(len(t.halves) == len(t.op.halves) == 2 for t in tabled)

    def test_unknown_label(self, capsys):
        rc, _, err = run(capsys, "bracket", "--n", "2", "--f", "9,9", "--g", "2,2")
        assert rc == 2
        assert "error:" in err

    def test_malformed_label(self, capsys):
        rc, _, err = run(capsys, "bracket", "--n", "2", "--f", "pancake", "--g", "2,2")
        assert rc == 2
        assert "label" in err

    def test_non_integer_label(self, capsys):
        rc, out, err = run(capsys, "bracket", "--n", "2", "--f", "1,x", "--g", "2,2")
        assert (rc, out) == (2, "")
        assert err == "error: label must be two integers, got '1,x'\n"


class TestMutate:
    def test_standard_exchange(self, capsys):
        rc, out, _ = run(capsys, "mutate", "--n", "3", "--at", "2,2")
        assert rc == 0
        ring = get_ring(3)
        x = ring.x
        expect = (
            x(1, 1) * x(2, 3) * x(3, 2)
            - x(1, 2) * x(2, 3) * x(3, 1)
            - x(1, 3) * x(2, 1) * x(3, 2)
            + x(1, 3) * x(2, 2) * x(3, 1)
        )
        assert out.strip() == str(expect)

    def test_mutate_json(self, capsys):
        rc, out, _ = run(
            capsys, "mutate", "--n", "3", "--alpha", "1", "--beta", "2",
            "--at", "2,2", "--format", "json",
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["at"] == "2,2"
        assert payload["new_variable"]

    def test_sl_prints_the_gl_exchange(self, capsys):
        # Next to (1,1) the SL exchange divides only modulo det X = 1, so
        # the SL verb exchanges on GL, as the regularity check does.
        for pair in ((), ("--alpha", "1", "--beta", "3")):
            n = "4" if pair else "3"
            gl = run(capsys, "mutate", "--n", n, *pair, "--at", "2,2")
            sl = run(capsys, "mutate", "--n", n, *pair, "--at", "2,2", "--sl")
            assert gl[0] == 0 and gl[1]
            assert sl == gl

    def test_frozen_label_errors(self, capsys):
        rc, _, err = run(capsys, "mutate", "--n", "3", "--at", "1,1")
        assert rc == 2
        assert "error:" in err

    def test_unknown_vertex_errors(self, capsys):
        rc, out, err = run(capsys, "mutate", "--n", "3", "--at", "9,9")
        assert (rc, out) == (2, "")
        assert err == "error: (9, 9) is not a vertex\n"


class TestCheck:
    def test_single_check_text(self, capsys):
        rc, out, _ = run(capsys, "check", "rank", "--n", "3", "--alpha", "1", "--beta", "2")
        assert rc == 0
        assert "check=rank n=3 alpha=1 beta=2 status=pass witnesses=0" in out

    def test_single_check_json(self, capsys):
        rc, out, _ = run(
            capsys, "check", "stable", "--n", "3", "--alpha", "1", "--beta", "2",
            "--format", "json",
        )
        assert rc == 0
        reports = json.loads(out)
        assert len(reports) == 1
        assert reports[0]["details"] == {"frozen": 3, "expected": 3}
        assert reports[0]["status"] == "pass"

    def test_all_standard(self, capsys):
        rc, out, _ = run(capsys, "check", "all", "--n", "3", "--format", "json")
        assert rc == 0
        reports = json.loads(out)
        assert len(reports) == 8
        assert all(r["status"] == "pass" for r in reports)

    def test_fault_injection_fails(self, capsys):
        rc, out, _ = run(
            capsys, "check", "logcanon", "--n", "3", "--alpha", "1", "--beta", "2",
            "--inject-fault", "drop-phi31-term",
        )
        assert rc == 1
        assert "status=fail" in out
        assert "pair (" in out

    def test_fault_without_its_label_is_an_error(self, capsys):
        # n = 2 has no label (3, 1) to plant the fault at, on GL or SL.
        for extra in ((), ("--sl",)):
            rc, out, err = run(
                capsys, "check", "logcanon", "--n", "2", *extra,
                "--inject-fault", "drop-phi31-term",
            )
            assert rc == 2, extra
            assert out == ""
            assert err.startswith("error:") and "(3, 1)" in err

    @pytest.mark.parametrize("error", [MemoryError, RecursionError])
    def test_exhaustion_in_process_is_an_error(self, capsys, monkeypatch, error):
        # Running out of memory or stack proves nothing: exit 2, not the 1 of
        # a failed check, with an error line that names the check.
        def exhausted(*args):
            raise error()

        monkeypatch.setattr(poisson, "pair_test", exhausted)
        rc, out, err = run(capsys, "check", "logcanon", "--n", "3", "--alpha", "1", "--beta", "2", "--processes", "1")
        assert (rc, out) == (2, "")
        assert err == f"error: check logcanon stopped by {error.__name__}\n"

    def test_exhaustion_in_a_worker_is_an_error(self, capsys, monkeypatch):
        # The (5,1,4) sweep forks with two workers; a MemoryError raised in
        # the forked worker alone is re-raised in the parent and exits 2.
        parent, forked = os.getpid(), []
        real_pair_test, real_fork = poisson.pair_test, os.fork

        def exhausted_in_worker(*args):
            if os.getpid() != parent:
                raise MemoryError()
            return real_pair_test(*args)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "fork", lambda: forked.append(1) or real_fork())
        monkeypatch.setattr(poisson, "pair_test", exhausted_in_worker)
        rc, out, err = run(capsys, "check", "logcanon", "--n", "5", "--alpha", "1", "--beta", "4", "--processes", "2")
        assert (rc, out, forked) == (2, "", [1])
        assert err == "error: check logcanon stopped by MemoryError\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_checks_without_functions_compute_no_determinant(self, capsys, monkeypatch):
        # The structure makes its seed functions only when a check reads
        # one: cybe, rank, rplus and stable, and the quiver verb, never do.
        class Computed(Exception):
            pass

        def refuse(m):
            raise Computed("a determinant was computed")

        monkeypatch.setattr(bdseed, "determinant", refuse)
        bdseed.trailing_minor.cache_clear()
        pair = ("--n", "5", "--alpha", "1", "--beta", "4")
        for check in ("cybe", "rank", "rplus", "stable"):
            for sl in ((), ("--sl",)):
                rc, out, _ = run(capsys, "check", check, *pair, *sl)
                assert rc == 0 and "status=pass" in out, (check, sl)
        assert run(capsys, "quiver", *pair)[0] == 0
        with pytest.raises(Computed):
            run(capsys, "check", "regular", *pair)

    def test_equal_roots_rejected(self, capsys):
        rc, _, err = run(capsys, "check", "rank", "--n", "3", "--alpha", "2", "--beta", "2")
        assert rc == 2
        assert "error:" in err

    def test_bad_thread_count_is_an_error(self, capsys):
        # Checks that do not sweep (rank) must refuse a bad count too.
        for check in ("logcanon", "rank"):
            for count in ("0", "-3"):
                rc, out, err = run(capsys, "check", check, "--n", "3", "--processes", count)
                assert rc == 2, (check, count)
                assert out == ""
                assert "error:" in err and "processes" in err

    def test_arithmetic_error_exits_2(self, capsys, monkeypatch):
        # A verb whose arithmetic overflows the packed exponents.
        monkeypatch.setattr(verify, "standard_cluster", lambda n, sl=False: get_ring(n).x(1, 1) ** 128)
        rc, out, err = run(capsys, "seed", "--n", "3")
        assert rc == 2
        assert out == ""
        assert "error:" in err and "128" in err

    def test_bracket_overflow_exits_2(self, capsys, monkeypatch):
        # x[1,1]^64 would reach x[1,1]^128 in the pairing against itself;
        # table keys do not fit it, so the table pass refuses it first.
        standard = verify.standard_cluster

        def big(n, sl=False):
            c = standard(n, sl=sl)
            x = get_ring(n).x(1, 1) ** 64
            return replace(c, functions={**c.functions, (1, 2): x, (2, 2): x})

        monkeypatch.setattr(verify, "standard_cluster", big)
        rc, out, err = run(capsys, "bracket", "--n", "2", "--f", "1,2", "--g", "2,2")
        assert rc == 2
        assert out == ""
        assert err == f"error: {REFUSAL}\n"

    def test_sweep_refusal_exits_2(self, capsys, monkeypatch):
        # The same function in a coefficient sweep stops the check with the
        # rule's text while its functions are tabled, before any pair test.
        standard = verify.standard_cluster

        def big(n, sl=False):
            c = standard(n, sl=sl)
            ring = get_ring(n)
            x = ring.x(1, 1) ** 64
            return replace(c, functions={**c.functions, (1, 2): x, (2, 2): x + ring.x(1, 2)})

        monkeypatch.setattr(verify, "standard_cluster", big)
        rc, out, err = run(capsys, "check", "logcanon", "--n", "2")
        assert rc == 2
        assert out == ""
        assert err == f"error: {REFUSAL}\n"

    def test_lonely_alpha_rejected(self, capsys):
        rc, _, err = run(capsys, "seed", "--n", "3", "--alpha", "1")
        assert rc == 2
        assert "together" in err


class TestCybeVerb:
    def test_standard(self, capsys):
        rc, out, _ = run(capsys, "cybe", "--n", "3")
        assert rc == 0
        assert "check=cybe n=3 status=pass" in out

    def test_with_pair(self, capsys):
        rc, out, _ = run(capsys, "cybe", "--n", "4", "--alpha", "1", "--beta", "3", "--format", "json")
        assert rc == 0
        assert json.loads(out)[0]["status"] == "pass"


class TestParser:
    def test_one_verb_parser_reads_as_every_verb_parser(self, capsys):
        # main gives arguments to the named verb's subparser alone.  Help,
        # usage and errors must read byte for byte as with every verb's
        # parser, cli.build_parser(), and exit with the same code.
        def outcome(parse, argv):
            try:
                parse(argv)
                code = None
            except SystemExit as e:
                code = e.code
            captured = capsys.readouterr()
            return captured.out, captured.err, code

        argvs = [["--help"], [], ["pancake"], ["seed"], ["seed", "--n", "3", "extra"], ["check", "pancake", "--n", "3"]]
        argvs += [[verb, "--help"] for verb in cli.VERBS]
        for argv in argvs:
            got = outcome(main, argv)
            assert got == outcome(lambda a: cli.build_parser().parse_args(a), argv), argv
            assert got[2] in (0, 2) and (got[0] or got[1]), argv
        assert set(cli.VERBS) == {"seed", "quiver", "bracket", "mutate", "check", "cybe"}
