"""Tests for the verification suites on small sizes.

The heavy sweeps over all pairs and sizes live in the acceptance tests;
here each check is exercised once on size 3 plus the failure paths.
"""

import ast
import hashlib
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import bdcluster
from bdcluster import bdseed, cli, poisson, polymat, polyring, quiver, verify
from bdcluster.bdseed import BDTriple, get_ring, initial_cluster, standard_cluster
from bdcluster.poisson import r_plus_operator
from bdcluster.verify import FAULTS, Workspace, drop_phi31_term, run_checks, structure

T312 = BDTriple(3, 1, 2)

# The ValueError text of a function that table keys do not fit.
REFUSAL = "gradient tables need a polynomial in x alone with no exponent above 6"

# sha256 of the logcanon witnesses, joined by newlines, under the
# drop-phi31-term fault.  Recorded while the coefficient was still read
# from exact division, which the failure reasons still come from.
DROPPED_TERM_WITNESSES = {
    (3, 1, 2): "0bba7ea772dd1748cb0252eaf267a06ee4b237bf4c73d45d5e8ea4515654fdeb",
    (4, 1, 3): "0f30013bec98474600c219978d7f06268517b983d7de6ffd5cd13c559ce2df97",
}


def one(name, triple=None, **kwargs):
    """The report of a single check run through run_checks."""
    (report,) = run_checks([name], triple=triple, **kwargs)
    return report


def built(triple=None, n=None, fault=None, **flags):
    """The structure that run_checks makes from these arguments."""
    s = structure(triple, n, **flags)
    return FAULTS[fault](s) if fault else s


def fault_id(v):
    """The test id of a fault name, as a constant: Fault.ZERO_R0 for
    zero-r0; None, pytest's own id, for any other parameter."""
    return f"Fault.{v.upper().replace('-', '_')}" if isinstance(v, str) and v in FAULTS else None


def _structures():
    """(n, pair, standard) for the standard structure and every pair,
    exotic and standard companion, n = 2..5."""
    for n in range(2, 6):
        yield n, None, True
        for a in range(1, n):
            for b in range(a + 1, n):
                yield n, (a, b), False
                yield n, (a, b), True


class TestWorkspace:
    @pytest.mark.parametrize(
        "n, pair, standard",
        list(_structures()),
        ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else str(v),
    )
    def test_cluster_and_quiver_share_labels_and_frozen(self, n, pair, standard):
        # The quiver holds the labels and the frozen set; the seed's functions
        # are keyed by its labels in its order, in every structure, its GL
        # twin and companion, and in what each fault makes of them.
        triple = BDTriple(n, *pair) if pair else None
        for sl in (False, True):
            s = structure(triple, n, sl=sl, standard=standard)
            faulted = [FAULTS[f](s) for f in FAULTS if not (f == "drop-phi31-term" and n < 3)]
            for t in [s] + faulted:
                for u in filter(None, (t, t.gl, t.companion)):
                    assert tuple(u.cluster.functions) == u.quiver.labels
            if sl:
                assert s.quiver.labels == tuple(lab for lab in s.gl.quiver.labels if lab != (1, 1))
                assert s.quiver.frozen == s.gl.quiver.frozen - {(1, 1)}
                assert (1, 1) in s.gl.quiver.labels and (1, 1) in s.gl.quiver.frozen


class TestStructure:
    @pytest.mark.parametrize("sl", [False, True])
    @pytest.mark.parametrize("fault", list(FAULTS))
    def test_fault_returns_a_new_structure(self, fault, sl):
        # A fault is a function on structures: its input, and the input's
        # GL twin, keep their functions and operators; the output and its
        # twin carry the defect.  Only zero-r0 reaches the companion.
        s = structure(BDTriple(4, 1, 3), sl=sl)
        twins = [s, s.gl] if sl else [s]
        before = [(dict(t.cluster.functions), t.op, t.companion.op) for t in twins]
        faulted = FAULTS[fault](s)
        assert faulted is not s and (faulted.gl is not s.gl) == sl
        changed = [faulted, faulted.gl] if sl else [faulted]
        for t, u, (functions, op, companion_op) in zip(twins, changed, before):
            assert (t.cluster.functions, t.op, t.companion.op) == (functions, op, companion_op)
            assert u.quiver is t.quiver
            assert u.companion.cluster.functions == t.companion.cluster.functions
            if fault == "drop-phi31-term":
                assert u.op == op and u.companion is t.companion
                assert [lab for lab in functions if u.cluster.functions[lab] != functions[lab]] == [(3, 1)]
            else:
                assert u.cluster.functions == functions
                assert all(not any(map(any, o.c)) for o in (u.op, u.companion.op))
                assert (u.op.wedge, u.companion.op.wedge) == (op.wedge, companion_op.wedge)

    @pytest.mark.parametrize("sl", [False, True])
    @pytest.mark.parametrize("standard", [False, True])
    def test_companion_is_the_standard_structure_on_gl(self, standard, sl):
        # A pair's structure, exotic or standard, on GL or SL, holds the
        # standard seed and quiver on GL under its operator without the
        # wedge; the standard structure with the pair reads its seed.
        t = BDTriple(4, 1, 3)
        s = structure(t, sl=sl, standard=standard)
        c, plain = s.companion, structure(n=4)
        assert (c.n, c.sl, c.standard, c.triple, c.companion) == (4, False, True, t, None)
        assert c.quiver == plain.quiver
        assert c.cluster.functions == standard_cluster(4).functions
        assert c.op == replace(r_plus_operator(t), wedge=None)
        assert c.op != plain.op
        assert (s.gl or s).companion is c
        if standard:
            gl = s.gl or s
            assert gl.cluster is c.cluster
        assert structure(n=4).companion is None

    def test_sl_reads_its_gl_twins_functions(self, monkeypatch):
        # check all --sl builds the pair's block determinants once: the SL
        # seed is its GL twin's less (1, 1), and regular exchanges on the twin.
        made = []
        real = verify.initial_cluster
        monkeypatch.setattr(verify, "initial_cluster", lambda t: made.append(t) or real(t))
        t = BDTriple(4, 1, 3)
        reports = run_checks(["all"], triple=t, sl=True, processes=1)
        assert all(r.passed for r in reports) and made == [t]
        s = structure(t, sl=True)
        assert s.quiver.labels == s.gl.quiver.labels[1:] and s.gl.quiver.labels[0] == (1, 1)
        assert all(s.cluster.functions[lab] is s.gl.cluster.functions[lab] for lab in s.quiver.labels)
        assert made == [t, t]


class TestIndividualChecks:
    def test_log_canonical_passes(self):
        rep = one("logcanon", T312)
        assert rep.passed
        assert rep.check == "logcanon"
        assert (rep.n, rep.alpha, rep.beta) == (3, 1, 2)
        assert rep.details["failures"] == 0
        assert rep.details["pairs"] == 9 * 8 // 2
        # The sum and the largest of the planned products over the 36
        # pairs, each pair in the half of the operator, R_+ or R_-, with
        # fewer products (607 and 138 in R_+ alone).
        assert (rep.details["products"], rep.details["max_pair_products"]) == (517, 138)

    def test_compatibility_sign(self):
        rep = one("compat", T312)
        assert rep.passed
        assert rep.details["diagonal_sign"] == -1
        assert rep.details["n_mutable"] == 9 - 3

    def test_rank_full(self):
        rep = one("rank", T312)
        assert rep.passed
        assert rep.details["rank"] == rep.details["n_mutable"] == 6

    def test_stable_counts(self):
        assert one("stable", T312).details["frozen"] == 3
        assert one("stable", T312, sl=True).details["frozen"] == 2
        assert one("stable", n=3).details["frozen"] == 5
        assert one("stable", n=3, sl=True).details["frozen"] == 4

    def test_regularity(self):
        rep = one("regular", T312)
        assert rep.passed
        assert rep.details["exchanges"] == 6

    def test_regularity_ignores_sl_flag(self):
        # Divisibility is checked in the ambient ring, so the SL request
        # still runs on the GL cluster and sees all 6 exchanges.
        rep = one("regular", T312, sl=True)
        assert rep.passed
        assert rep.details["exchanges"] == 6

    def test_frozen_log_canonical(self):
        assert one("frozen", T312).passed

    def test_s_omega(self):
        assert one("somega", T312).passed

    def test_bracket_difference(self):
        assert one("bracketdiff", T312).passed

    def test_cybe(self):
        rep = one("cybe", T312)
        assert rep.passed
        assert rep.details["cybe"] and rep.details["unitary"]
        assert rep.details["terms"] > 0
        assert one("cybe", n=3).passed

    def test_r_plus_consistency(self):
        assert one("rplus", T312).passed
        assert one("rplus", T312, standard=True).passed
        assert one("rplus", n=4).passed

    def test_standard_structure_checks(self):
        for rep in (
            one("logcanon", n=3),
            one("compat", n=3),
            one("rank", n=3),
            one("regular", n=3),
        ):
            assert rep.passed, rep.witnesses
            assert rep.alpha is None and rep.beta is None


# The witnesses of compat on (4,1,3) with omega((2, 2), (2, 3)) raised by
# each key: both kinds, product entries and the diagonal, which a faulted
# seed never reaches (its logcanon fails first).  Recorded while compat
# still summed Fractions.
PERTURBED_COMPAT_WITNESSES = {
    Fraction(1, 7): [
        "product entry at row (2, 1), column (2, 3) is 1/7, expected 0",
        "product entry at row (2, 4), column (2, 2) is 1/7, expected 0",
        "product entry at row (3, 2), column (2, 3) is -1/7, expected 0",
        "product entry at row (3, 3), column (2, 2) is 1/7, expected 0",
        "product entry at row (3, 3), column (2, 3) is 1/7, expected 0",
        "product entry at row (3, 4), column (2, 2) is -1/7, expected 0",
        "diagonal of the product is not a uniform unit: saw -8/7 and -1",
    ],
    Fraction(2): [
        "product entry at row (2, 1), column (2, 3) is 2, expected 0",
        "product entry at row (2, 4), column (2, 2) is 2, expected 0",
        "product entry at row (3, 2), column (2, 3) is -2, expected 0",
        "product entry at row (3, 3), column (2, 2) is 2, expected 0",
        "product entry at row (3, 3), column (2, 3) is 2, expected 0",
        "product entry at row (3, 4), column (2, 2) is -2, expected 0",
        "diagonal of the product is not a uniform unit: saw -3 and -1",
    ],
}


# The bracketdiff witnesses on (4,1,3) when the standard companion is
# replaced by the exotic operator, so that the two brackets agree and every
# pair's difference is minus its wedge products: (ia, ib, difference) per
# coordinate pair, ia and ib the coordinates' row-major indices, recorded
# while the check still subtracted two brackets.  The witnesses name the
# coordinates themselves, x[1,1] for 0.
SWAPPED_COMPANION_WITNESSES = [
    (0, 3, "-x[1,2]*x[1,3]"),
    (0, 7, "-x[1,2]*x[2,3]"),
    (0, 11, "-x[1,2]*x[3,3]"),
    (0, 15, "-x[1,2]*x[4,3]"),
    (3, 4, "x[1,3]*x[2,2]"),
    (3, 8, "x[1,3]*x[3,2]"),
    (3, 12, "x[1,3]*x[4,2]"),
    (4, 7, "-x[2,2]*x[2,3]"),
    (4, 8, "x[1,1]*x[4,1]"),
    (4, 9, "x[1,1]*x[4,2]"),
    (4, 10, "x[1,1]*x[4,3]"),
    (4, 11, "x[1,1]*x[4,4] - x[2,2]*x[3,3]"),
    (4, 15, "-x[2,2]*x[4,3]"),
    (5, 8, "x[1,2]*x[4,1]"),
    (5, 9, "x[1,2]*x[4,2]"),
    (5, 10, "x[1,2]*x[4,3]"),
    (5, 11, "x[1,2]*x[4,4]"),
    (6, 8, "x[1,3]*x[4,1]"),
    (6, 9, "x[1,3]*x[4,2]"),
    (6, 10, "x[1,3]*x[4,3]"),
    (6, 11, "x[1,3]*x[4,4]"),
    (7, 8, "x[1,4]*x[4,1] + x[2,3]*x[3,2]"),
    (7, 9, "x[1,4]*x[4,2]"),
    (7, 10, "x[1,4]*x[4,3]"),
    (7, 11, "x[1,4]*x[4,4]"),
    (7, 12, "x[2,3]*x[4,2]"),
    (8, 11, "-x[3,2]*x[3,3]"),
    (8, 15, "-x[3,2]*x[4,3]"),
    (11, 12, "x[3,3]*x[4,2]"),
    (12, 15, "-x[4,2]*x[4,3]"),
]


class TestCompatibilityWitnesses:
    @pytest.mark.parametrize("delta", sorted(PERTURBED_COMPAT_WITNESSES), ids=str)
    def test_perturbed_omega_witnesses_unchanged(self, delta):
        ws = Workspace(structure(BDTriple(4, 1, 3)))
        labels, omegas, failures = ws.omega
        omegas = dict(omegas)
        omegas[labels.index((2, 2)), labels.index((2, 3))] += delta
        ws.omega = (labels, omegas, failures)
        witnesses, details = verify.check_compatibility(ws)
        assert witnesses == PERTURBED_COMPAT_WITNESSES[delta]
        assert details == {"diagonal_sign": None, "n_mutable": 11}


class TestBracketDifferenceWitnesses:
    def test_swapped_companion_witnesses_unchanged(self):
        s = structure(BDTriple(4, 1, 3))
        exotic_for_both = replace(s, companion=replace(s.companion, op=s.op))
        witnesses, details = verify.check_bracket_difference(Workspace(exotic_for_both))
        assert len(witnesses) == len(SWAPPED_COMPANION_WITNESSES) == 30
        assert witnesses == [
            f"difference mismatch at coordinate pair (x[{ia // 4 + 1},{ia % 4 + 1}], x[{ib // 4 + 1},{ib % 4 + 1}]): {diff}"
            for ia, ib, diff in SWAPPED_COMPANION_WITNESSES
        ]
        assert details == {}


class TestFaults:
    def test_dropped_term_breaks_log_canonicality(self):
        rep = one("logcanon", T312, fault="drop-phi31-term")
        assert not rep.passed
        assert rep.witnesses
        assert any("(3, 1)" in w for w in rep.witnesses)

    @pytest.mark.parametrize("pair", sorted(DROPPED_TERM_WITNESSES), ids=lambda p: "-".join(map(str, p)))
    def test_dropped_term_witnesses_unchanged(self, pair):
        rep = one("logcanon", BDTriple(*pair), fault="drop-phi31-term")
        text = "\n".join(rep.witnesses)
        assert hashlib.sha256(text.encode()).hexdigest() == DROPPED_TERM_WITNESSES[pair], text

    @pytest.mark.parametrize("half", [0, 1])
    @pytest.mark.parametrize("pair", sorted(DROPPED_TERM_WITNESSES), ids=lambda p: "-".join(map(str, p)))
    def test_dropped_term_witnesses_in_either_half(self, monkeypatch, pair, half):
        # Every pair test forced into R_+ (0) or R_- (1) names the same
        # witnesses.
        monkeypatch.setattr(poisson, "_half", lambda ta, tb: (0, half))
        rep = one("logcanon", BDTriple(*pair), fault="drop-phi31-term", processes=1)
        text = "\n".join(rep.witnesses)
        assert hashlib.sha256(text.encode()).hexdigest() == DROPPED_TERM_WITNESSES[pair], text

    def test_zeroed_diagonal_breaks_sums(self):
        rep = one("somega", T312, fault="zero-r0")
        assert not rep.passed
        assert any("sum at" in w for w in rep.witnesses)

    def test_zeroed_diagonal_reaches_every_r_matrix(self):
        # The fault zeroes c in every operator of the structure, so the
        # tensor sees it too and cybe fails with the bracket checks.
        # rplus compares two readings of the same c, and bracketdiff
        # (exotic minus companion is the wedge alone) does not depend on c.
        t = BDTriple(4, 1, 3)
        reports = run_checks(["all"], triple=t, fault="zero-r0", processes=1)
        failed = [r for r in reports if not r.passed]
        assert [r.check for r in failed] == ["logcanon", "compat", "frozen", "somega", "cybe"]
        assert all(r.witnesses for r in failed)
        assert [r.check for r in reports if r.passed] == ["rank", "stable", "regular", "bracketdiff", "rplus"]
        assert structure(t).companion.op == replace(r_plus_operator(t), wedge=None)
        zeroed = built(t, fault="zero-r0").companion.op
        assert zeroed.wedge is None and not any(v for row in zeroed.c for v in row)

    def test_fault_values(self):
        # One registry, keyed by the names --inject-fault takes.
        assert FAULTS == {"drop-phi31-term": verify.drop_phi31_term, "zero-r0": verify.zero_r0}
        with pytest.raises(ValueError, match="unknown fault 'DROP_PHI31_TERM'"):
            run_checks(["rank"], triple=T312, fault="DROP_PHI31_TERM")


class TestPlantedDefects:
    """Neither fault reaches rank, stable or rplus, so each is shown to
    fail, with its witness, on a defect planted in the structure that
    run_checks builds."""

    def test_rank_deficient_exchange_matrix(self, monkeypatch):
        # Without its arcs, the mutable vertex (2, 2) has a zero row.
        real = verify.structure

        def cut(*args):
            s = real(*args)
            arcs = {arc: w for arc, w in s.quiver.arcs.items() if (2, 2) not in arc}
            return replace(s, quiver=replace(s.quiver, arcs=arcs))

        monkeypatch.setattr(verify, "structure", cut)
        [rep] = run_checks(["rank"], triple=T312)
        assert rep.status == "fail"
        assert rep.witnesses == ["rank is 5, expected 6"]

    def test_extra_frozen_label(self, monkeypatch):
        # The quiver's frozen set is the one every check reads: stable
        # counts it and rank's exchange matrix loses the frozen row.
        real = verify.structure

        def frozen_22(*args):
            s = real(*args)
            return replace(s, quiver=replace(s.quiver, frozen=s.quiver.frozen | {(2, 2)}))

        monkeypatch.setattr(verify, "structure", frozen_22)
        stable, rank = run_checks(["stable", "rank"], triple=T312)
        assert stable.status == "fail"
        assert stable.witnesses == ["4 frozen variables, expected 3"]
        assert rank.details["n_mutable"] == 5

    def test_halves_without_the_tensors_wedge(self, monkeypatch):
        # The tensor reads op.wedge and the closed form reads op.halves, so
        # they disagree on the wedge's two source units, e[alpha, alpha+1]
        # and e[beta+1, beta].
        class WedgeDropped(poisson.RPlusOperator):
            @property
            def halves(self):
                return poisson.RPlusOperator(self.n, self.c).halves

        real = verify.structure

        def wedge_dropped(*args):
            s = real(*args)
            return replace(s, op=WedgeDropped(s.op.n, s.op.c, s.op.wedge))

        monkeypatch.setattr(verify, "structure", wedge_dropped)
        [rep] = run_checks(["rplus"], triple=BDTriple(4, 1, 3))
        assert rep.status == "fail"
        assert rep.witnesses == [
            "operator and tensor disagree on unit e[1,2]",
            "operator and tensor disagree on unit e[4,3]",
        ]


    def test_defect_in_the_companions_seed(self, monkeypatch):
        # somega reads the companion's seed, not the structure's, so the
        # dropped term planted there alone fails it at (3, 1), which is no
        # corner of (4,1,3)'s sums, and at no other label.
        real = verify.structure

        def planted(*args):
            s = real(*args)
            return replace(s, companion=drop_phi31_term(s.companion))

        monkeypatch.setattr(verify, "structure", planted)
        reports = run_checks(["somega", "logcanon"], triple=BDTriple(4, 1, 3))
        assert [r.status for r in reports] == ["fail", "pass"]
        witnesses = reports[0].witnesses
        assert witnesses and all(w.startswith(("row sum at (3, 1): ", "column sum at (3, 1): ")) for w in witnesses)


class TestReports:
    def test_report_dict_shape(self):
        rep = one("rank", T312)
        d = rep.to_dict()
        assert set(d) == {
            "check", "n", "alpha", "beta", "status", "witnesses", "seconds", "details",
        }
        assert d["details"] == {"rank": 6, "n_mutable": 6}
        assert d["status"] == "pass"
        assert d["witnesses"] == []
        assert isinstance(d["seconds"], float)

    def test_witness_cap(self):
        rep = one("logcanon", T312, fault="drop-phi31-term")
        assert len(rep.witnesses) <= 10


class TestRunChecks:
    def test_all_with_pair(self):
        reports = run_checks(["all"], triple=T312)
        assert [r.check for r in reports] == [
            "logcanon",
            "compat",
            "rank",
            "stable",
            "regular",
            "frozen",
            "somega",
            "bracketdiff",
            "cybe",
            "rplus",
        ]
        assert all(r.passed for r in reports)

    def test_all_without_pair_skips_lemma_suites(self):
        reports = run_checks(["all"], n=3)
        names = [r.check for r in reports]
        assert "somega" not in names
        assert "bracketdiff" not in names
        assert len(names) == 8
        assert all(r.passed for r in reports)

    def test_named_subset(self):
        reports = run_checks(["rank", "stable"], triple=T312)
        assert [r.check for r in reports] == ["rank", "stable"]

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown check"):
            run_checks(["nonsense"], triple=T312)

    def test_size_must_match_the_pair(self):
        # The pair fixes n; a different explicit n is refused, not ignored.
        with pytest.raises(ValueError, match="n = 5 .* n = 4"):
            run_checks(["rank"], triple=BDTriple(4, 1, 3), n=5)
        assert one("rank", BDTriple(4, 1, 3), n=4).n == 4

    def test_pair_only_checks_refuse_standalone_size(self):
        with pytest.raises(ValueError, match="needs a pair"):
            run_checks(["somega"], n=3)
        with pytest.raises(ValueError, match="needs a pair"):
            run_checks(["bracketdiff"], n=3)

    def test_each_table_is_made_once(self, monkeypatch):
        # The checks share the workspace's tables: frozen reuses the
        # sweep's, and frozen and bracketdiff share the coordinates'.
        made = []
        real = verify.gradient_tables

        def counted(f, op, **kwargs):
            made.append((op, frozenset(f._d.items())))
            return real(f, op, **kwargs)

        monkeypatch.setattr(verify, "gradient_tables", counted)
        reports = run_checks(["all"], triple=BDTriple(4, 1, 3), processes=1)
        assert all(r.passed for r in reports)
        assert len(made) == len(set(made))

    def test_r_tensor_is_built_once(self, monkeypatch):
        # cybe and rplus read the workspace's one tensor of the operator.
        built_for = []
        real = verify.build_r_tensor
        monkeypatch.setattr(verify, "build_r_tensor", lambda op: built_for.append(op) or real(op))
        t = BDTriple(4, 1, 3)
        reports = run_checks(["cybe", "rplus", "all"], triple=t, processes=1)
        assert all(r.passed for r in reports)
        assert built_for == [r_plus_operator(t)]

    def test_each_function_is_tabled_once(self, monkeypatch):
        # F, F', the degree classes and top do not read the operator, so
        # one pass over f's terms serves every operator's tables of f: one
        # per distinct function of the exotic seed, the standard seed (for
        # somega) and the coordinates (for frozen and bracketdiff).
        tabled = []
        real = poisson._replacement_tables

        def counted(f):
            tabled.append(frozenset(f._d.items()))
            return real(f)

        monkeypatch.setattr(poisson, "_replacement_tables", counted)
        t = BDTriple(4, 1, 3)
        reports = run_checks(["all"], triple=t, processes=1)
        assert all(r.passed for r in reports)
        ring = get_ring(4)
        funcs = [*initial_cluster(t).functions.values(), *standard_cluster(4).functions.values()]
        funcs += [ring.x(i, j) for i in range(1, 5) for j in range(1, 5)]
        assert set(tabled) == {frozenset(f._d.items()) for f in funcs}
        assert len(tabled) == len(set(tabled)) == 29

    def test_fault_propagates(self):
        reports = run_checks(["logcanon"], triple=T312, fault="drop-phi31-term")
        assert not reports[0].passed


class TestPairTest:
    def test_untabled_function_stops_every_pair_check(self, monkeypatch):
        # x[1,1]^64 against x[1,1]^64 + x[1,2] would reach x[1,1]^128 in
        # f g, but table keys fit neither, so the sweep, frozen and somega
        # each stop with the rule's ValueError when they table them, before
        # any pair test.  frozen pairs frozen functions with coordinates, so
        # there x[1,1] reads as x[1,1]^64 + x[1,2].
        ring = get_ring(3)
        big = ring.x(1, 1) ** 64
        standard = verify.standard_cluster

        class Coordinates:
            def x(self, i, j):
                return big + ring.x(1, 2) if (i, j) == (1, 1) else ring.x(i, j)

        def cluster(n):
            c = standard(n)
            functions = {**c.functions, (3, 1): big, (1, 2): big + ring.x(1, 2)}
            return replace(c, ring=Coordinates(), functions=functions)

        monkeypatch.setattr(verify, "standard_cluster", cluster)
        ws = Workspace(structure(T312, standard=True))
        for check in (verify.check_log_canonical, verify.check_frozen_log_canonical_with_coordinates,
                      verify.check_s_omega):
            with pytest.raises(ValueError, match=f"^{REFUSAL}$"):
                check(ws)

    def test_only_pair_test_and_poisson_coefficient_call_the_coefficient(self, monkeypatch):
        # Every check that tests pairs, and the bracket verb, reach
        # coefficient_from_tables through pair_test alone: at run time, over
        # every check with and without each fault, and in the source.
        real = poisson.coefficient_from_tables
        callers = set()

        def spy(ta, tb, half=None):
            callers.add(sys._getframe(1).f_code.co_name)
            return real(ta, tb, half)

        modules = [bdcluster, bdseed, cli, poisson, polymat, polyring, quiver, verify]
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, name, spy)
        for fault in (None, *FAULTS):
            run_checks(["all"], triple=BDTriple(4, 1, 3), fault=fault, processes=1)
        assert cli.main(["bracket", "--n", "3", "--alpha", "1", "--beta", "2", "--f", "3,2", "--g", "3,3"]) == 0
        x = get_ring(2).x(1, 2)
        assert poisson.poisson_coefficient(x, x, r_plus_operator(n=2)) == 0
        assert callers == {"pair_test", "poisson_coefficient"}

        calling = set()
        for module in modules:
            for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
                if isinstance(node, ast.FunctionDef) and any(
                    isinstance(n, ast.Name) and n.id == "coefficient_from_tables" for n in ast.walk(node)
                ):
                    calling.add(node.name)
        assert calling == {"pair_test", "poisson_coefficient"}
