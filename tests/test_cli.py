"""End-to-end tests of the command line, run in process."""

import json

from bdcluster import verify
from bdcluster.bdseed import get_ring
from bdcluster.cli import main


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

    def test_unknown_label(self, capsys):
        rc, _, err = run(capsys, "bracket", "--n", "2", "--f", "9,9", "--g", "2,2")
        assert rc == 2
        assert "error:" in err

    def test_malformed_label(self, capsys):
        rc, _, err = run(capsys, "bracket", "--n", "2", "--f", "pancake", "--g", "2,2")
        assert rc == 2
        assert "label" in err


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

    def test_equal_roots_rejected(self, capsys):
        rc, _, err = run(capsys, "check", "rank", "--n", "3", "--alpha", "2", "--beta", "2")
        assert rc == 2
        assert "error:" in err

    def test_bad_thread_count_is_an_error(self, capsys, monkeypatch):
        monkeypatch.setenv("BD_CLUSTER_THREADS", "four")
        rc, out, err = run(capsys, "check", "logcanon", "--n", "3")
        assert rc == 2
        assert out == ""
        assert "error:" in err and "BD_CLUSTER_THREADS" in err
        monkeypatch.delenv("BD_CLUSTER_THREADS")
        for count in ("0", "-3"):
            rc, out, err = run(capsys, "check", "logcanon", "--n", "3", "--processes", count)
            assert rc == 2
            assert out == ""
            assert "error:" in err and "processes" in err

    def test_arithmetic_error_exits_2(self, capsys, monkeypatch):
        # A verb whose arithmetic overflows the packed exponents.
        monkeypatch.setattr(verify, "standard_cluster", lambda n, sl=False: get_ring(n).x(1, 1) ** 128)
        rc, out, err = run(capsys, "seed", "--n", "3")
        assert rc == 2
        assert out == ""
        assert "error:" in err and "128" in err

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
