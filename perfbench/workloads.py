"""Benchmark workloads: the items each one runs and what a correct run prints.

An item is one thing a user runs in a fresh interpreter: either one
`bdcluster` command line, or one `run_checks` call on one pair.  The
expected verdicts and details below come from the paper's counts
(frozen and mutable sizes, number of pairs, sign of the compatibility
product), not from the program; `expected.json` adds what can only be
recorded from a known-good commit: digests of every omega and exchanged
variable, and the stdout of the commands that print polynomials.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

# Every minimal pair with n in {3, 4, 5}, as (n, alpha, beta).
PAIRS = [
    (3, 1, 2),
    (4, 1, 2), (4, 1, 3), (4, 2, 3),
    (5, 1, 2), (5, 1, 3), (5, 1, 4), (5, 2, 3), (5, 2, 4), (5, 3, 4),
]
# paper-sweep leaves out (5,1,4): its check all takes 30 s, so a run could
# time it only once, and single runs spread too much; expected.json has
# the numbers.
PAPER_PAIRS = [p for p in PAIRS if p != (5, 1, 4)]
# Every check that needs no Poisson bracket.  cybe and rplus cost a few
# milliseconds a pair; they keep the R-matrix layer timed on exchange-n5.
EXCHANGE_CHECKS = ["rank", "stable", "regular", "cybe", "rplus"]

ALL_CHECKS = ["logcanon", "compat", "rank", "stable", "regular", "frozen",
              "somega", "bracketdiff", "cybe", "rplus"]
PAIR_ONLY = {"somega", "bracketdiff"}

# Address-space cap of each item's process tree, several times the largest
# peak RSS measured on either workload (36 MB).
MEMORY_CAP = 256 << 20

LABEL = re.compile(r"\(\d+, ?\d+\)")


def _pair(n, a, b):
    return ["--n", str(n), "--alpha", str(a), "--beta", str(b)]


def _check(id, argv, n, pair, sl=False):
    return {"id": id, "argv": argv, "kind": "checks", "n": n, "pair": pair, "sl": sl}


def items(workload: str) -> list:
    if workload == "paper-sweep":
        out = [_check(f"check-all-{n}-{a}-{b}", ["check", "all", *_pair(n, a, b)], n, [a, b])
               for n, a, b in PAPER_PAIRS]
        out += [
            # A transposed pair, SL mode and the standard structure.
            _check("check-all-4-3-1", ["check", "all", *_pair(4, 3, 1)], 4, [1, 3]),
            _check("check-all-sl-4-1-3", ["check", "all", *_pair(4, 1, 3), "--sl"], 4, [1, 3], sl=True),
            _check("check-all-std-4", ["check", "all", "--n", "4"], 4, None),
        ]
        # The negative controls: each must fail with witnesses naming labels.
        for n, a, b in PAPER_PAIRS[1:4]:
            out.append({"id": f"fault-drop-{n}-{a}-{b}", "kind": "fault", "check": "logcanon",
                        "argv": ["check", "logcanon", *_pair(n, a, b), "--inject-fault", "drop-phi31-term"]})
            out.append({"id": f"fault-zero-r0-{n}-{a}-{b}", "kind": "fault", "check": "somega",
                        "argv": ["check", "somega", *_pair(n, a, b), "--inject-fault", "zero-r0"]})
        out += [
            {"id": "seed-4-1-3", "kind": "stdout", "argv": ["seed", *_pair(4, 1, 3)]},
            {"id": "quiver-dot-4-1-3", "kind": "stdout", "argv": ["quiver", *_pair(4, 1, 3), "--dot"]},
            {"id": "bracket-3-1-2", "kind": "stdout", "contains": "omega = 2/3",
             "argv": ["bracket", *_pair(3, 1, 2), "--f", "3,2", "--g", "3,3"]},
            {"id": "mutate-4-1-3", "kind": "stdout", "argv": ["mutate", *_pair(4, 1, 3), "--at", "2,2"]},
            {"id": "cybe-4-1-3", "kind": "stdout", "argv": ["cybe", *_pair(4, 1, 3)]},
        ]
        return out
    if workload == "exchange-n5":
        return [{"id": f"exchange-{n}-{a}-{b}", "kind": "checks", "checks": EXCHANGE_CHECKS,
                 "n": n, "pair": [a, b], "sl": False}
                for n, a, b in PAIRS]
    raise ValueError(f"unknown workload {workload!r}")


def expected_details(n: int, pair, sl: bool) -> dict:
    """Details every passing check must report, from the paper's counts."""
    exotic = pair is not None
    if exotic:
        frozen, gl_frozen = (2 * (n - 2) if sl else 2 * n - 3), 2 * n - 3
    else:
        frozen, gl_frozen = (2 * n - 2 if sl else 2 * n - 1), 2 * n - 1
    labels = n * n - (1 if sl else 0)
    mutable = labels - frozen
    return {
        "logcanon": {"pairs": labels * (labels - 1) // 2, "failures": 0},
        "compat": {"diagonal_sign": -1, "n_mutable": mutable},
        "rank": {"rank": mutable, "n_mutable": mutable},
        "stable": {"frozen": frozen, "expected": frozen},
        # Regularity is always checked on the GL seed.
        "regular": {"exchanges": n * n - gl_frozen},
        "cybe": {"cybe": True, "unitary": True},
    }


def gate(item: dict, res: dict) -> list:
    """Everything wrong with one item's result; empty when it is correct."""
    problems = []
    want = EXPECTED["digests"].get(item["id"])
    if res["digest"] != want:
        problems.append(f"digest of omegas and exchanges is {res['digest']}, expected {want}")
    code, reports = res["exit"], res["reports"]
    if item["kind"] == "checks":
        if "argv" in item and code != 0:
            problems.append(f"exit code {code}, expected 0")
        names = item.get("checks") or [c for c in ALL_CHECKS if item["pair"] or c not in PAIR_ONLY]
        got = [r["check"] for r in reports]
        if got != names:
            problems.append(f"checks run {got}, expected {names}")
        details = expected_details(item["n"], item["pair"], item["sl"])
        for r in reports:
            if r["status"] != "pass" or r["witnesses"]:
                problems.append(f"{r['check']}: status {r['status']}, witnesses {r['witnesses'][:2]}")
            for key, value in details.get(r["check"], {}).items():
                if r["details"].get(key) != value:
                    problems.append(f"{r['check']}: {key} is {r['details'].get(key)}, expected {value}")
    elif item["kind"] == "fault":
        if code != 1:
            problems.append(f"exit code {code}, expected 1")
        if [r["check"] for r in reports] != [item["check"]]:
            problems.append(f"checks run {[r['check'] for r in reports]}, expected {[item['check']]}")
        for r in reports:
            if r["status"] != "fail" or not r["witnesses"]:
                problems.append(f"{r['check']}: the planted fault was not caught")
            unnamed = [w for w in r["witnesses"] if not LABEL.search(w)]
            if unnamed:
                problems.append(f"{r['check']}: witness names no label: {unnamed[0]}")
    else:
        if code != 0:
            problems.append(f"exit code {code}, expected 0")
        digest = hashlib.sha256(res["stdout"].encode()).hexdigest()
        if digest != EXPECTED["stdout"].get(item["id"]):
            problems.append(f"stdout digest {digest} differs from the recorded one")
        if item.get("contains", "") not in res["stdout"]:
            problems.append(f"stdout lacks {item['contains']!r}")
    return problems
