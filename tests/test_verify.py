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
from bdcluster.verify import Fault, Workspace, run_checks

T312 = BDTriple(3, 1, 2)

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
        triple = BDTriple(n, *pair) if pair else None
        seen = {}
        for sl in (False, True):
            ws = Workspace(triple, n, sl=sl, standard=standard)
            cluster, quiver = ws.cluster(), ws.quiver()
            assert cluster.labels == quiver.labels
            assert cluster.frozen == quiver.frozen
            seen[sl] = set(cluster.labels), set(cluster.frozen)
        gl_labels, gl_frozen = seen[False]
        assert seen[True] == (gl_labels - {(1, 1)}, gl_frozen - {(1, 1)})
        assert (1, 1) in gl_labels and (1, 1) in gl_frozen


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
# coordinate pair, recorded while the check still subtracted two brackets.
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
        ws = Workspace(BDTriple(4, 1, 3), processes=1)
        labels, omegas, failures = ws.omega()
        omegas = dict(omegas)
        omegas[labels.index((2, 2)), labels.index((2, 3))] += delta
        ws._omega = (labels, omegas, failures)
        witnesses, details = verify.check_compatibility(ws)
        assert witnesses == PERTURBED_COMPAT_WITNESSES[delta]
        assert details == {"diagonal_sign": None, "n_mutable": 11}


class TestBracketDifferenceWitnesses:
    def test_swapped_companion_witnesses_unchanged(self, monkeypatch):
        real = Workspace.op

        def exotic_for_both(self, standard=None):
            return real(self, False if standard else standard)

        monkeypatch.setattr(Workspace, "op", exotic_for_both)
        witnesses, details = verify.check_bracket_difference(Workspace(BDTriple(4, 1, 3), processes=1))
        assert witnesses == [
            f"difference mismatch at coordinate pair ({ia}, {ib}): {diff}"
            for ia, ib, diff in SWAPPED_COMPANION_WITNESSES
        ]
        assert details == {}


class TestFaults:
    def test_dropped_term_breaks_log_canonicality(self):
        rep = one("logcanon", T312, fault=Fault.DROP_PHI31_TERM)
        assert not rep.passed
        assert rep.witnesses
        assert any("(3, 1)" in w for w in rep.witnesses)

    @pytest.mark.parametrize("pair", sorted(DROPPED_TERM_WITNESSES), ids=lambda p: "-".join(map(str, p)))
    def test_dropped_term_witnesses_unchanged(self, pair):
        rep = one("logcanon", BDTriple(*pair), fault=Fault.DROP_PHI31_TERM)
        text = "\n".join(rep.witnesses)
        assert hashlib.sha256(text.encode()).hexdigest() == DROPPED_TERM_WITNESSES[pair], text

    @pytest.mark.parametrize("half", [0, 1])
    @pytest.mark.parametrize("pair", sorted(DROPPED_TERM_WITNESSES), ids=lambda p: "-".join(map(str, p)))
    def test_dropped_term_witnesses_in_either_half(self, monkeypatch, pair, half):
        # Every pair test forced into R_+ (0) or R_- (1) names the same
        # witnesses.
        monkeypatch.setattr(poisson, "_half", lambda ta, tb: (0, half))
        rep = one("logcanon", BDTriple(*pair), fault=Fault.DROP_PHI31_TERM, processes=1)
        text = "\n".join(rep.witnesses)
        assert hashlib.sha256(text.encode()).hexdigest() == DROPPED_TERM_WITNESSES[pair], text

    def test_zeroed_diagonal_breaks_sums(self):
        rep = one("somega", T312, fault=Fault.ZERO_R0)
        assert not rep.passed
        assert any("sum at" in w for w in rep.witnesses)

    def test_zeroed_diagonal_reaches_every_r_matrix(self):
        # The workspace zeroes c in the one operator each check reads, so
        # the tensor sees it too and cybe fails with the bracket checks.
        # rplus compares two readings of the same c, and bracketdiff
        # (exotic minus companion is the wedge alone) does not depend on c.
        t = BDTriple(4, 1, 3)
        reports = run_checks(["all"], triple=t, fault=Fault.ZERO_R0, processes=1)
        failed = [r for r in reports if not r.passed]
        assert [r.check for r in failed] == ["logcanon", "compat", "frozen", "somega", "cybe"]
        assert all(r.witnesses for r in failed)
        assert [r.check for r in reports if r.passed] == ["rank", "stable", "regular", "bracketdiff", "rplus"]
        assert Workspace(t).op(True) == r_plus_operator(t, standard=True)
        zeroed = Workspace(t, fault=Fault.ZERO_R0).op(True)
        assert zeroed.wedge is None and not any(v for row in zeroed.c for v in row)

    def test_fault_values(self):
        assert Fault("drop-phi31-term") is Fault.DROP_PHI31_TERM
        assert Fault("zero-r0") is Fault.ZERO_R0


class TestPlantedDefects:
    """Neither fault reaches rank, stable or rplus, so each is shown to
    fail, with its witness, on a defect planted in the workspace."""

    def test_rank_deficient_exchange_matrix(self, monkeypatch):
        # Without its arcs, the mutable vertex (2, 2) has a zero row.
        real = Workspace.quiver

        def cut(self):
            q = real(self)
            return replace(q, arcs={arc: w for arc, w in q.arcs.items() if (2, 2) not in arc})

        monkeypatch.setattr(Workspace, "quiver", cut)
        [rep] = run_checks(["rank"], triple=T312)
        assert rep.status == "fail"
        assert rep.witnesses == ["rank is 5, expected 6"]

    def test_extra_frozen_label(self, monkeypatch):
        real = Workspace.cluster

        def frozen_22(self):
            c = real(self)
            return replace(c, frozen=c.frozen | {(2, 2)})

        monkeypatch.setattr(Workspace, "cluster", frozen_22)
        [rep] = run_checks(["stable"], triple=T312)
        assert rep.status == "fail"
        assert rep.witnesses == ["4 frozen variables, expected 3"]

    def test_halves_without_the_tensors_wedge(self, monkeypatch):
        # The tensor reads op.wedge and the closed form reads op.halves, so
        # they disagree on the wedge's two source units, e[alpha, alpha+1]
        # and e[beta+1, beta].
        class WedgeDropped(poisson.RPlusOperator):
            @property
            def halves(self):
                return poisson.RPlusOperator(self.n, self.c).halves

        real = Workspace.op

        def wedge_dropped(self, standard=None):
            op = real(self, standard)
            return WedgeDropped(op.n, op.c, op.wedge)

        monkeypatch.setattr(Workspace, "op", wedge_dropped)
        [rep] = run_checks(["rplus"], triple=BDTriple(4, 1, 3))
        assert rep.status == "fail"
        assert rep.witnesses == [
            "operator and tensor disagree on unit e[1,2]",
            "operator and tensor disagree on unit e[4,3]",
        ]


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
        rep = one("logcanon", T312, fault=Fault.DROP_PHI31_TERM)
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
        reports = run_checks(["logcanon"], triple=T312, fault=Fault.DROP_PHI31_TERM)
        assert not reports[0].passed


class TestPairTest:
    OVERFLOW = "a product has an exponent of 128 or more in some variable"

    def test_overflow_fails_one_pair_with_one_reason(self, monkeypatch):
        # x[1,1]^64 against x[1,1]^64 + x[1,2] reaches x[1,1]^128 in f g.
        # The sweep, frozen and somega each fail that pair, with the same
        # reason as its witness, instead of stopping the check.  frozen
        # pairs frozen functions with coordinates, so there x[1,1] reads
        # as x[1,1]^64 + x[1,2].
        ring = get_ring(3)
        big = ring.x(1, 1) ** 64
        standard = verify.standard_cluster

        class Coordinates:
            def x(self, i, j):
                return big + ring.x(1, 2) if (i, j) == (1, 1) else ring.x(i, j)

        def cluster(n, sl=False):
            c = standard(n, sl=sl)
            functions = {**c.functions, (3, 1): big, (1, 2): big + ring.x(1, 2)}
            return replace(c, ring=Coordinates(), functions=functions)

        monkeypatch.setattr(verify, "standard_cluster", cluster)
        ws = Workspace(T312, standard=True, processes=1)
        expected = {
            verify.check_log_canonical: f"pair ((1, 2), (3, 1)): {self.OVERFLOW}",
            verify.check_frozen_log_canonical_with_coordinates: f"frozen (3, 1) with x[1,1]: {self.OVERFLOW}",
            verify.check_s_omega: f"row sum at (1, 2): {self.OVERFLOW}",
        }
        for check, witness in expected.items():
            assert witness in check(ws)[0], check.__name__

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
        for fault in (None, *Fault):
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
