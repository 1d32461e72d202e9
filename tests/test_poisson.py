"""Tests for the r-matrix operators and the Sklyanin bracket.

Every numeric expectation in this file was worked out by hand (or with
the independent tensor-contraction oracle) before being frozen here.
"""

import hashlib
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdcluster import cli, poisson, polyring, tasks, verify
from bdcluster.bdseed import BDTriple, get_ring, initial_cluster, standard_cluster
from bdcluster.poisson import (
    NotLogCanonical,
    RPlusOperator,
    bracket_from_tables,
    build_r0,
    build_r_tensor,
    casimir_tensor,
    coefficient_from_tables,
    gradient_tables,
    omega_sweep,
    pair_test,
    poisson_coefficient,
    r_plus,
    r_plus_operator,
    r_plus_oracle,
    sklyanin_bracket,
    sweep_workers,
    tensor_sum,
    tensor_transpose,
    unscale,
    verify_cybe,
)
from bdcluster.polymat import col_replace, row_replace
from bdcluster.polyring import NotDivisible, Poly, PolyRing, exact_divide, partial_derivative
from bdcluster.quiver import mutate_seed
from bdcluster.tasks import worker_count
from bdcluster.verify import Fault, Workspace, check_frozen_log_canonical_with_coordinates, structure
from oracles import (
    class_pairing,
    cybe_all_pairs,
    derivative_tables,
    heap_exact_divide,
    tensor_pairing,
    unpack,
    whole_pair_sums,
)
from test_verify import REFUSAL, _structures, built

# sha256 of every omega of all ten minimal pairs with n <= 5, one line
# "n alpha beta ia ib omega" per pair of functions (see
# test_omega_digest_unchanged).  Recorded before the bracket kernel
# factored out the tagged diagonal products.
OMEGA_DIGEST = "0b5461997949400db92c52066ebb6722186e9412ad385765eb7bcbee7bd9d687"

# sha256 of 2,652 scaled brackets, one line "n alpha beta std i j bracket"
# per pair of tables (see test_bracket_digest_unchanged).  Recorded with
# the tagged-diagonal kernel, before the diagonal became one bilinear form
# in the degree classes.
BRACKET_DIGEST = "abcb7b2c2bb850b2e6883c4128fdfe2a4b430ca3f3a2fed447e76c9c3e4878a1"


def _in_half(half, fn, *args):
    """fn(*args) with every pair test and bracket forced into one half of
    the operator, R_+ (0) or R_- (1), whatever their sizes; a
    NotLogCanonical is returned as its text."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poisson, "_half", lambda ta, tb: (0, half))
        try:
            return fn(*args)
        except NotLogCanonical as e:
            return str(e)


def unit(n, i, j):
    """The elementary matrix e_ij over Fractions."""
    return [
        [Fraction(1) if (r, c) == (i - 1, j - 1) else Fraction(0) for c in range(n)]
        for r in range(n)
    ]


def _ops(n, pair, standard):
    """The operator of a structure of _structures() and its zero-r0 version."""
    triple = BDTriple(n, *pair) if pair else None
    return [built(triple, n, standard=standard, fault=fault).op for fault in (None, Fault.ZERO_R0)]


def _apply_half(half, mat):
    """The image of mat under a half of an operator, R_+ or R_-, given as
    its (diagonal matrix, off-diagonal entries) of RPlusOperator.halves,
    which are n^2 times the half."""
    M, off_diagonal = half
    n = len(mat)
    out = [[Fraction(0)] * n for _ in range(n)]
    for k, row in enumerate(M):
        out[k][k] = sum(mkl * mat[l][l] for l, mkl in enumerate(row))
    for co, (si, sj), (ti, tj) in off_diagonal:
        out[ti][tj] += co * mat[si][sj]
    return [[v / (n * n) for v in row] for row in out]


# One test per structure of _structures(), with ids like 5-1-4-False.
by_structure = pytest.mark.parametrize(
    "n, pair, standard",
    list(_structures()),
    ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else str(v),
)


class TestR0:
    def test_standard_is_unipotent_bidiagonal(self):
        assert build_r0(4) == (
            (1, 0, 0),
            (-1, 1, 0),
            (0, -1, 1),
        )

    def test_adjacent_pair_keeps_plain_form(self):
        assert build_r0(4, 1, 2) == build_r0(4)
        assert build_r0(5, 3, 4) == build_r0(5)

    def test_separated_pair_adds_correction(self):
        # alpha=1, beta=3 in size 4: B has +1 at (1,3),(2,1),(3,2) and
        # -1 at (3,1),(1,2),(2,3), on top of A.
        assert build_r0(4, 1, 3) == (
            (1, -1, 1),
            (0, 1, -1),
            (-1, 0, 1),
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            build_r0(4, 1, None)
        with pytest.raises(ValueError):
            build_r0(4, 3, 1)
        with pytest.raises(ValueError):
            build_r0(4, 2, 4)

    def test_beta_without_alpha_is_refused(self):
        # A beta alone used to be dropped silently, giving A.
        with pytest.raises(ValueError, match="beta given without alpha"):
            build_r0(4, None, 3)
        with pytest.raises(ValueError, match="alpha given without beta"):
            build_r0(4, 1, None)


class TestDualBasis:
    """RPlusOperator.s, the dual basis of the traceless diagonal matrices."""

    def test_s_values(self):
        d = r_plus_operator(n=4)
        assert [d.s(k, 1) for k in (1, 2, 3, 4)] == [3, -1, -1, -1]
        assert [d.s(k, 3) for k in (1, 2, 3, 4)] == [1, 1, 1, -3]

    def test_h_hat_is_traceless(self):
        # hhat_p has diagonal entries s(k, p) / n.
        d = r_plus_operator(n=5)
        for p in range(1, 5):
            assert sum(d.s(k, p) for k in range(1, 6)) == 0

    def test_duality_pairing(self):
        # <h_p, hhat_q> = delta_pq under the trace form on diagonals, with
        # h_p = e_pp - e_{p+1,p+1}: (s(p, q) - s(p+1, q)) / n.
        for n in (2, 3, 4, 5):
            d = r_plus_operator(n=n)
            for p in range(1, n):
                for q in range(1, n):
                    pair = Fraction(d.s(p, q) - d.s(p + 1, q), n)
                    assert pair == (1 if p == q else 0)


class TestRPlusOperator:
    def test_size_must_match_the_pair(self):
        # The pair fixes n; a different explicit n is refused, not ignored.
        with pytest.raises(ValueError, match="n = 5 .* n = 4"):
            r_plus_operator(BDTriple(4, 1, 3), n=5)
        assert r_plus_operator(BDTriple(4, 1, 3), n=4) == r_plus_operator(BDTriple(4, 1, 3))

    def test_upper_part_passes_through(self):
        op = r_plus_operator(n=3, standard=True)
        out = r_plus(op, unit(3, 1, 3))
        assert out == unit(3, 1, 3)

    def test_lower_part_dies_for_standard(self):
        op = r_plus_operator(n=3, standard=True)
        out = r_plus(op, unit(3, 3, 1))
        assert all(v == 0 for row in out for v in row)

    def test_wedge_images(self):
        # For a pair (alpha, beta) the extra term sends e[a,a+1] to
        # itself plus e[b,b+1], and e[b+1,b] to -e[a+1,a].
        op = r_plus_operator(BDTriple(4, 1, 3))
        a, b = 1, 3
        out = r_plus(op, unit(4, a, a + 1))
        expect = unit(4, a, a + 1)
        expect[b - 1][b] += 1
        assert out == expect
        out = r_plus(op, unit(4, b + 1, b))
        expect = [[Fraction(0)] * 4 for _ in range(4)]
        expect[a][a - 1] = Fraction(-1)
        assert out == expect

    def test_standard_twin_disables_wedge(self):
        t = BDTriple(4, 1, 3)
        twin = r_plus_operator(t, standard=True)
        assert twin.c == build_r0(4, 1, 3)
        assert twin.wedge is None
        out = r_plus(twin, unit(4, 4, 3))
        assert all(v == 0 for row in out for v in row)

    def test_needs_size_or_pair(self):
        with pytest.raises(ValueError):
            r_plus_operator()

    def test_bad_operator_is_refused(self):
        # A wedge root of 0 would make slot indices of -1, which r_plus
        # wraps to the other end of the matrix; a c of the wrong size
        # would be read out of range or in part.
        c = build_r0(4)
        for wedge in [(0, 2), (2, 2), (1, 4)]:
            with pytest.raises(ValueError, match="wedge"):
                RPlusOperator(4, c, wedge)
        with pytest.raises(ValueError, match="3x3"):
            RPlusOperator(4, build_r0(3), (1, 3))
        # Every structure's operator and its zero-r0 version still build.
        for n, pair, standard in _structures():
            for op in _ops(n, pair, standard):
                assert op.wedge == (None if standard else pair)

    @pytest.mark.parametrize("n, pair", [(n, p) for n, p, std in _structures() if p and not std])
    def test_reversed_wedge_needs_transposed_c(self, n, pair):
        # The ordered wedge: beta -> alpha is the wedge (beta, alpha) with
        # c transposed, a solution of CYBE whose r_plus is its tensor's
        # contraction.  Keeping the alpha -> beta c breaks CYBE, not
        # unitarity.
        a, b = pair
        c = build_r0(n, a, b)
        op = RPlusOperator(n, tuple(zip(*c)), (b, a))
        rt = build_r_tensor(op)
        assert verify_cybe(rt, n) == (True, True, [])
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert r_plus(op, unit(n, i, j)) == r_plus_oracle(rt, unit(n, i, j)), (i, j)
        cybe, unitary, _ = verify_cybe(build_r_tensor(RPlusOperator(n, c, (b, a))), n)
        assert (cybe, unitary) == (False, True)

    def test_matches_oracle_on_all_units(self):
        """Operator form == tensor contraction, every e_ij, n <= 4."""
        cases = [(n, None, False) for n in (2, 3, 4)]
        for n in (3, 4):
            for a in range(1, n):
                for b in range(a + 1, n):
                    cases.append((n, (a, b), False))
                    cases.append((n, (a, b), True))
        for n, pair, std in cases:
            if pair is None:
                op = r_plus_operator(n=n, standard=True)
            else:
                op = r_plus_operator(BDTriple(n, *pair), standard=std)
            rt = build_r_tensor(op)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    m = unit(n, i, j)
                    assert r_plus(op, m) == r_plus_oracle(rt, m), (n, pair, std, i, j)

    @by_structure
    def test_r_minus_is_r_plus_minus_identity(self, n, pair, standard):
        # The operator's halves are R_+, as r_plus and the tensor give it,
        # and R_- with R_-(e_kl) = R_+(e_kl) - e_kl on every matrix unit, by
        # the operator and by the tensor, for the structure's operator and
        # its zero-r0 version.
        for op in _ops(n, pair, standard):
            rt = build_r_tensor(op)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    e = unit(n, i, j)
                    got = _apply_half(op.halves[1], e)
                    for plus in (r_plus(op, e), r_plus_oracle(rt, e)):
                        assert _apply_half(op.halves[0], e) == plus, (op, i, j)
                        assert got == [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(plus, e)], (op, i, j)

    def test_matches_oracle_on_polynomial_matrix(self):
        ring = get_ring(3)
        op = r_plus_operator(BDTriple(3, 1, 2))
        rt = build_r_tensor(op)
        mat = [[ring.x(i, j) + ring.const(i - j) for j in range(1, 4)] for i in range(1, 4)]
        assert r_plus(op, mat) == r_plus_oracle(rt, mat)


class TestUnscale:
    def test_exact_division_by_n_squared(self):
        # Integral quotients come back as ints, the rest as reduced
        # Fractions, for ints, Fractions and Poly coefficients alike.
        ring = get_ring(3)
        for x, want in [(18, 2), (-27, -3), (0, 0), (12, Fraction(4, 3)), (-5, Fraction(-5, 9)),
                        (Fraction(9, 2), Fraction(1, 2)), (Fraction(18, 1), 2)]:
            got = unscale(x, 3)
            assert got == want and type(got) is type(want), (x, got)
        p = 18 * ring.x(1, 2) + 12 * ring.x(2, 1) + Fraction(9, 4) * ring.x(3, 3)
        got = unscale(p, 3)
        assert got == 2 * ring.x(1, 2) + Fraction(4, 3) * ring.x(2, 1) + Fraction(1, 4) * ring.x(3, 3)
        assert [type(c) for c in got._d.values()] == [int, Fraction, Fraction]


class TestRTensor:
    def test_standard_n2_entries(self):
        rt = build_r_tensor(r_plus_operator(n=2))
        assert rt == {
            ((1, 1), (1, 1)): Fraction(1, 4),
            ((1, 1), (2, 2)): Fraction(-1, 4),
            ((2, 2), (1, 1)): Fraction(-1, 4),
            ((2, 2), (2, 2)): Fraction(1, 4),
            ((2, 1), (1, 2)): Fraction(1),
        }

    def test_exotic_wedge_entries(self):
        rt = build_r_tensor(r_plus_operator(BDTriple(3, 1, 2)))
        assert rt[((2, 1), (2, 3))] == 1
        assert rt[((2, 3), (2, 1))] == -1
        std = build_r_tensor(r_plus_operator(BDTriple(3, 1, 2), standard=True))
        assert ((2, 1), (2, 3)) not in std

    def test_unitarity_directly(self):
        for n, pair in [(2, None), (3, None), (3, (1, 2)), (4, (1, 3))]:
            rt = build_r_tensor(r_plus_operator(BDTriple(n, *pair) if pair else None, n))
            total = tensor_sum(rt, tensor_transpose(rt))
            assert total == casimir_tensor(n)

    def test_casimir_n2(self):
        assert casimir_tensor(2) == {
            ((1, 2), (2, 1)): Fraction(1),
            ((2, 1), (1, 2)): Fraction(1),
            ((1, 1), (1, 1)): Fraction(1, 2),
            ((1, 1), (2, 2)): Fraction(-1, 2),
            ((2, 2), (1, 1)): Fraction(-1, 2),
            ((2, 2), (2, 2)): Fraction(1, 2),
        }


class TestCybe:
    def test_holds_for_standard_and_exotic(self):
        for n, pair in [(2, None), (3, None), (3, (1, 2)), (4, (1, 3)), (4, (2, 3))]:
            rt = build_r_tensor(r_plus_operator(BDTriple(n, *pair) if pair else None, n))
            ok, unitary, witnesses = verify_cybe(rt, n)
            assert ok and unitary, witnesses
            assert witnesses == []

    @by_structure
    def test_matches_all_pairs_oracle(self, n, pair, standard):
        # Index-matching term pairs give the verdicts and witnesses of the
        # expansion over all pairs, on every operator with n <= 5 and on
        # its zero-r0 version, which fails CYBE.
        for op, fails in zip(_ops(n, pair, standard), (False, True)):
            rt = build_r_tensor(op)
            got = verify_cybe(rt, n)
            assert got == cybe_all_pairs(rt, n)
            assert got[0] != fails and bool(got[2]) == fails, got

    def test_detects_broken_tensor(self):
        # Scaling the mixed term breaks both the bracket identity and
        # unitarity.  (Merely deleting it would leave a diagonal tensor,
        # which still satisfies the bracket identity.)
        rt = build_r_tensor(r_plus_operator(n=2))
        rt[((2, 1), (1, 2))] = Fraction(2)
        ok, unitary, witnesses = verify_cybe(rt, 2)
        assert not ok
        assert not unitary
        assert any("[[r,r]]" in w for w in witnesses)
        assert any("casimir" in w for w in witnesses)


class TestSklyaninBracket:
    """Hand-computed GL(2) brackets for the standard structure."""

    def setup_method(self):
        self.ring = get_ring(2)
        self.op = r_plus_operator(n=2, standard=True)

    def x(self, i, j):
        return self.ring.x(i, j)

    def test_row_bracket(self):
        br = sklyanin_bracket(self.x(1, 2), self.x(2, 2), self.op)
        assert br == Fraction(1, 2) * self.x(1, 2) * self.x(2, 2)

    def test_column_bracket(self):
        br = sklyanin_bracket(self.x(2, 1), self.x(2, 2), self.op)
        assert br == Fraction(1, 2) * self.x(2, 1) * self.x(2, 2)

    def test_antidiagonal_commutes(self):
        assert not sklyanin_bracket(self.x(2, 1), self.x(1, 2), self.op)

    def test_diagonal_pair_not_log_canonical(self):
        f, g = self.x(1, 1), self.x(2, 2)
        br = sklyanin_bracket(f, g, self.op)
        assert br == self.x(1, 2) * self.x(2, 1)
        # The pair test divides the scaled bracket n^2 {f, g}.
        with pytest.raises(NotDivisible) as want:
            heap_exact_divide(br * 4, f * g)
        with pytest.raises(NotLogCanonical) as got:
            poisson_coefficient(f, g, self.op)
        assert str(got.value) == f"bracket is not divisible by the product: {want.value}"

    def test_bracket_zero_at_the_lead_monomial_is_not_omega_zero(self):
        # {x11, x22} = x12 x21 is 0 at x11 x22, the leading monomial of the
        # product, so the coefficient read there is 0; the pair still
        # fails, with exact division's reason.
        f, g = self.x(1, 1), self.x(2, 2)
        ta, tb = gradient_tables(f, self.op), gradient_tables(g, self.op)
        br = bracket_from_tables(ta, tb)
        assert br and (f * g).leading_monomial() not in br._d
        with pytest.raises(NotDivisible) as want:
            heap_exact_divide(br, f * g)
        for compute in (
            lambda: coefficient_from_tables(ta, tb),
            lambda: poisson_coefficient(f, g, self.op),
        ):
            with pytest.raises(NotLogCanonical) as got:
                compute()
            assert str(got.value) == f"bracket is not divisible by the product: {want.value}"

    def test_determinant_is_casimir(self):
        det = self.x(1, 1) * self.x(2, 2) - self.x(1, 2) * self.x(2, 1)
        for i in (1, 2):
            for j in (1, 2):
                assert not sklyanin_bracket(det, self.x(i, j), self.op)

    def test_poisson_coefficient_values(self):
        assert poisson_coefficient(self.x(1, 2), self.x(2, 2), self.op) == Fraction(1, 2)
        assert poisson_coefficient(self.x(2, 1), self.x(1, 2), self.op) == 0

    def test_tables_route_agrees(self):
        """The tables' F and F' equal the ones built from partial
        derivatives entry by entry off the diagonal and hold None on it,
        where col_replace and row_replace equal the derivatives' entries;
        bracket_from_tables equals n^2 (<R_+(F), G> - <R_+(F'), G'>) with
        R_+ contracted from the r tensor in either half of the operator;
        and sklyanin_bracket equals the unscaled pairing, on random
        polynomials for n <= 4: every minimal pair with its exotic operator
        and its standard companion, and the standard operator of each
        size."""
        rng = random.Random(1412)
        cases = [(n, None, True) for n in (2, 3, 4)]
        for n in (3, 4):
            for a in range(1, n):
                for b in range(a + 1, n):
                    cases += [(n, (a, b), False), (n, (a, b), True)]
        for n, pair, std in cases:
            ring = get_ring(n)
            if pair is None:
                op = r_plus_operator(n=n, standard=True)
            else:
                op = r_plus_operator(BDTriple(n, *pair), standard=std)
            rt = build_r_tensor(op)
            for _ in range(3):
                f, g = _random_poly(rng, ring), _random_poly(rng, ring)
                ta, tb = gradient_tables(f, op), gradient_tables(g, op)
                for p, t in ((f, ta), (g, tb)):
                    grads = _oracle_grads(p, n)
                    want_grads = [
                        [[None if i == j else e._d for j, e in enumerate(row)] for i, row in enumerate(T)] for T in grads
                    ]
                    got_grads = [[[e if e is None else unpack(e, ring) for e in row] for row in T] for T in t[:2]]
                    assert got_grads == want_grads, (n, pair, std, str(p))
                    for i in range(1, n + 1):
                        assert col_replace(p, i, i) == grads[0][i - 1][i - 1], (n, i, str(p))
                        assert row_replace(p, i, i) == grads[1][i - 1][i - 1], (n, i, str(p))
                want = _oracle_bracket(f, g, rt, n)
                for half in (0, 1):
                    got = _in_half(half, bracket_from_tables, ta, tb)
                    assert got == n * n * want, (n, pair, std, half, str(f), str(g))
                assert sklyanin_bracket(f, g, op) == want, (n, pair, std, str(f), str(g))

    def test_kernel_stays_integral(self):
        """On the integer seed functions every entry of F and F', every
        degree-class part and every scaled bracket has int coefficients,
        for the exotic operator and its standard companion; the class
        parts split f."""
        t = BDTriple(4, 1, 3)
        funcs = list(initial_cluster(t).functions.values())
        for std in (False, True):
            op = r_plus_operator(t, standard=std)
            tables = [gradient_tables(f, op) for f in funcs]
            for table in tables:
                for mat in (table.F, table.Fp):
                    for i, row in enumerate(mat):
                        assert row[i] is None
                        for entry in row[:i] + row[i + 1 :]:
                            assert all(isinstance(c, int) for c in entry.values()), entry
                for part in table.classes.values():
                    assert all(isinstance(c, int) for c in part.values()), part
                parts = [m for part in table.classes.values() for m in unpack(part, table.f.ring)]
                assert sorted(parts) == sorted(table.f._d), str(table.f)
            for ia, ib in [(0, 1), (2, 5), (3, 7), (4, len(funcs) - 1)]:
                br = bracket_from_tables(tables[ia], tables[ib])
                assert all(isinstance(c, int) for c in br._d.values()), str(br)

    def test_bracket_digest_unchanged(self):
        """Every ordered pair of seed functions for n <= 4, for the exotic
        operator and its standard companion, and every frozen function
        against every coordinate both ways: the scaled brackets hash to
        BRACKET_DIGEST."""
        lines = []
        for n in (3, 4):
            ring = get_ring(n)
            coords = [ring.x(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
            for a in range(1, n):
                for b in range(a + 1, n):
                    cluster = initial_cluster(BDTriple(n, a, b))
                    funcs = [cluster.functions[lab] for lab in cluster.labels]
                    frozen = [funcs.index(cluster.functions[lab]) for lab in cluster.frozen]
                    L = len(funcs)
                    pairs = [(i, j) for i in range(L) for j in range(L) if i != j]
                    pairs += [(i, L + k) for i in frozen for k in range(n * n)]
                    pairs += [(L + k, i) for i in frozen for k in range(n * n)]
                    for std in (False, True):
                        op = r_plus_operator(BDTriple(n, a, b), standard=std)
                        t = [gradient_tables(f, op) for f in funcs + coords]
                        lines += [
                            f"{n} {a} {b} {int(std)} {i} {j} {bracket_from_tables(t[i], t[j])}"
                            for i, j in pairs
                        ]
        assert len(lines) == 2652
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == BRACKET_DIGEST

    def test_weight_zero_class_pair_keeps_the_overflow_guard(self):
        # f = x[1,1]^6 and the x[1,1]^6 class of g = x[1,1]^6 + x[1,2] have
        # equal column and row degrees, so their class pair has weight 0 and
        # is never multiplied.  The rule that refuses an exponent above 6
        # bounds f g by x[1,1]^12, so no guard on the pair is needed: the
        # pair test divides in ring keys and agrees with the oracle.  At 7
        # the rule refuses f itself.
        ring = get_ring(2)
        x11, x12 = ring.x(1, 1), ring.x(1, 2)
        f, g = x11**6, x11**6 + x12
        ta, tb = gradient_tables(f, self.op), gradient_tables(g, self.op)
        assert list(ta.classes) == [((6, 0), (6, 0))] and ((6, 0), (6, 0)) in tb.classes
        want = 4 * _oracle_bracket(f, g, build_r_tensor(self.op), 2)
        assert bracket_from_tables(ta, tb) == want == 12 * x11**6 * x12
        with pytest.raises(NotDivisible) as e:
            heap_exact_divide(want, f * g)
        assert pair_test(ta, tb) == f"bracket is not divisible by the product: {e.value}"
        for big in (x11**7, x11**7 + x12):
            with pytest.raises(ValueError, match=REFUSAL):
                gradient_tables(big, self.op)

    def test_overflow_guard_reads_max_exponents(self):
        # The rule reads f's largest exponent in each variable, not the OR
        # of its keys: x[1,1]^6 + x[1,1]^5 x[1,2] ORs 6 | 5 = 7 in x[1,1],
        # but its largest exponent is 6, so it is tabled.
        ring = get_ring(2)
        x11, x12 = ring.x(1, 1), ring.x(1, 2)
        f = x11**6 + x11**5 * x12
        got = sklyanin_bracket(f, x11 * x12, self.op)
        assert got == _oracle_bracket(f, x11 * x12, build_r_tensor(self.op), 2)
        assert got == 3 * x11**7 * x12 + 2 * x11**6 * x12**2

    def test_kernel_keeps_the_overflow_guard(self):
        # The kernel sums table keys unguarded, so the guard is the rule the
        # table pass applies to every function: x[1,1]^7 and x[1,1] +
        # y[1,1] are refused, with the rule's text, by every entry point
        # that tables a function, and x[1,1]^6 x[1,2] is tabled.
        ring = get_ring(2)
        x11, x12 = ring.x(1, 1), ring.x(1, 2)
        for bad in (x11**7, x11 + ring.y(1, 1)):
            for call in (
                lambda: gradient_tables(bad, self.op),
                lambda: sklyanin_bracket(bad, x12, self.op),
                lambda: sklyanin_bracket(x12, bad, self.op),
                lambda: poisson_coefficient(bad, x12, self.op),
                lambda: poisson_coefficient(x12, bad, self.op),
                lambda: col_replace(bad, 1, 2),
                lambda: row_replace(bad, 1, 2),
            ):
                with pytest.raises(ValueError, match=f"^{REFUSAL}$"):
                    call()
        f = x11**6 * x12
        assert col_replace(f, 1, 2) == 6 * x11**5 * x12**2
        assert sklyanin_bracket(f, x12, self.op) == 3 * x11**6 * x12**2
        assert poisson_coefficient(f, x12, self.op) == 3

    def test_off_diagonal_overflow_passes_the_largest_exponents(self):
        # The largest exponents of x[1,2] are 6 in both functions, but
        # F_12 = x[1,2]^7, and the strict upper part pairs it with G_21's
        # x[1,2]^6 x[2,1], reaching x[1,2]^13, past the sum of the largest
        # exponents; a 4-bit field holds it without carrying.
        ring = get_ring(2)
        x11, x12, x21, x22 = (ring.x(i, j) for i in (1, 2) for j in (1, 2))
        f, g = x11 * x12**6, x12**6 * x22
        ta, tb = gradient_tables(f, self.op), gradient_tables(g, self.op)
        assert Poly(ring, ring.from_nibbles(ta.F[0][1])) == x12**7
        want = 4 * _oracle_bracket(f, g, build_r_tensor(self.op), 2)
        assert bracket_from_tables(ta, tb) == want == 24 * x11 * x12**12 * x22 + 4 * x12**13 * x21
        with pytest.raises(NotDivisible) as e:
            heap_exact_divide(want, f * g)
        assert pair_test(ta, tb) == f"bracket is not divisible by the product: {e.value}"


def _random_poly(rng, ring):
    p = ring.zero
    for _ in range(rng.randint(1, 3)):
        mono = ring.const(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 3)):
            mono = mono * ring.x(rng.randint(1, ring.n), rng.randint(1, ring.n))
        p = p + mono
    return p


def _oracle_grads(p, n):
    """F and F' from partial derivatives:
    F_ij = sum_k dp/dx[k,i] x[k,j], F'_ij = sum_k dp/dx[j,k] x[i,k]."""
    ring = p.ring
    idx = range(1, n + 1)

    def d(k, i):
        return partial_derivative(p, ("x", k, i))

    P = [[sum((d(k, i) * ring.x(k, j) for k in idx), ring.zero) for j in idx] for i in idx]
    Pp = [[sum((d(j, k) * ring.x(i, k) for k in idx), ring.zero) for j in idx] for i in idx]
    return P, Pp


def _oracle_bracket(f, g, rt, n):
    """<R_+(F), G> - <R_+(F'), G'> from _oracle_grads and the tensor."""
    ring = f.ring
    (F, Fp), (G, Gp) = _oracle_grads(f, n), _oracle_grads(g, n)
    RF, RFp = r_plus_oracle(rt, F), r_plus_oracle(rt, Fp)
    total = ring.zero
    for i in range(n):
        for j in range(n):
            total = total + RF[i][j] * G[j][i] - RFp[i][j] * Gp[j][i]
    return total


class TestBracketHalves:
    @by_structure
    def test_r_minus_bracket_equals_r_plus_and_tensor(self, n, pair, standard):
        # n^2 {f, g} from the tables in R_- equals it in R_+ and the
        # bracket read off the r tensor, on every pair of seed functions
        # and coordinates, for the structure's operator and its zero-r0
        # version.
        triple = BDTriple(n, *pair) if pair else None
        cluster = structure(triple, n, standard=standard).cluster
        ring, idx = cluster.ring, range(1, n + 1)
        funcs = [cluster.functions[lab] for lab in cluster.labels]
        funcs += [ring.x(i, j) for i in idx for j in idx]
        for op in _ops(n, pair, standard):
            rt = build_r_tensor(op)
            tables = [gradient_tables(f, op) for f in funcs]
            for ia, ta in enumerate(tables):
                for tb in tables[ia + 1 :]:
                    sums = ring.accumulate(sum(tensor_pairing(ta, tb, rt), []), guard=False)
                    tensor = unpack({m: c for m, c in sums.items() if c}, ring)
                    plus = _in_half(0, bracket_from_tables, ta, tb)
                    assert _in_half(1, bracket_from_tables, ta, tb) == plus == Poly(ring, tensor), (
                        op,
                        str(ta.f),
                        str(tb.f),
                    )


class TestExoticCoefficients:
    def test_hand_values_for_first_column(self):
        # Standard twin of the pair (1,2) in size 3; brackets against
        # x13 computed by hand from the diagonal part.
        ring = get_ring(3)
        op = r_plus_operator(BDTriple(3, 1, 2), standard=True)
        x = ring.x
        assert poisson_coefficient(x(3, 1), x(1, 3), op) == Fraction(-1, 3)
        assert poisson_coefficient(x(3, 2), x(1, 3), op) == 0
        assert poisson_coefficient(x(3, 3), x(1, 3), op) == Fraction(-2, 3)


def _seed_tables(triple):
    """The seed functions of a pair in label order, its exotic operator,
    and their tables."""
    s = structure(triple)
    cluster, op = s.cluster, s.op
    funcs = [cluster.functions[lab] for lab in cluster.labels]
    return funcs, op, [gradient_tables(f, op) for f in funcs]


def _spy_accumulate(monkeypatch):
    """A list that gets every term dict PolyRing.accumulate returns from now on."""
    made = []
    real = PolyRing.accumulate

    def spy(self, products, guard=True):
        out = real(self, products, guard)
        made.append(out)
        return out

    monkeypatch.setattr(PolyRing, "accumulate", spy)
    return made


class TestDerivedTables:
    @by_structure
    def test_derived_tables_equal_fresh_ones(self, monkeypatch, n, pair, standard):
        # Tables derived from another operator's tables of the same f equal
        # fresh ones field by field, for the structure's operators (a pair's
        # exotic one and its standard companion) and their zero-r0
        # versions, on the seed functions and the coordinates; the
        # derivation makes no pass over f's terms, and a half whose
        # diagonal matrix M equals like's (exotic and companion share c)
        # takes like's parts as they are.
        triple = BDTriple(n, *pair) if pair else None
        # A pair's exotic operator and its standard companion, or the standard one.
        ops = [
            op
            for fault in (None, Fault.ZERO_R0)
            for s in [built(triple, n, standard=standard, fault=fault)]
            for op in s.pair_ops or (s.op,)
        ]
        assert len(set(ops)) == len(ops)
        cluster = structure(triple, n, standard=standard).cluster
        idx = range(1, n + 1)
        funcs = [cluster.functions[lab] for lab in cluster.labels]
        funcs += [cluster.ring.x(i, j) for i in idx for j in idx]
        fresh = [[gradient_tables(f, op) for op in ops] for f in funcs]

        def no_pass(f):
            raise AssertionError("derived tables made a pass over f's terms")

        monkeypatch.setattr(poisson, "_replacement_tables", no_pass)
        for f, tables in zip(funcs, fresh):
            for like in tables:
                for op, want in zip(ops, tables):
                    got = gradient_tables(f, op, like=like)
                    for field in poisson.Tables._fields:
                        assert getattr(got, field) == getattr(want, field), (field, str(f), like.op, op)
                    for h, (M, _) in enumerate(op.halves):
                        if M == like.op.halves[h][0]:
                            assert got.halves[h].parts is like.halves[h].parts
                    # Both halves, R_+ and R_-, each with a slot per entry
                    # of its off-diagonal list on F and on F'.
                    assert [len(h.right) for h in got.halves] == [2 * len(off) for _, off in op.halves]
                    for h, (M, _) in zip(got.halves, op.halves):
                        for (cols, rows), (_, u, v) in zip(got.classes, h.parts):
                            assert v == cols + rows
                            assert u == tuple(sum(m * c for m, c in zip(r, cols)) for r in M) + tuple(
                                -sum(m * c for m, c in zip(r, rows)) for r in M
                            )


class TestSlicedPairTest:
    @pytest.mark.parametrize(
        "n, pair, standard, fault",
        [(*s, None) for s in _structures()] + [(4, (1, 3), False, Fault.DROP_PHI31_TERM)],
        ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else str(v),
    )
    def test_equals_one_whole_sum(self, monkeypatch, n, pair, standard, fault):
        # Every pair of seed functions and coordinates against the oracles,
        # which derive the bracket's products per pair from the degree
        # classes and the operator, in R_+ and in R_- = R_+ - id: the pair
        # test lists the products of the half with fewer (R_+ on a tie),
        # with their weights and _half's product count, and gives the same
        # omega or the same failure as one whole accumulation in either
        # half; forced into either half, it gives the same omega or the
        # same NotLogCanonical text.  The pair test's sums, zero sums
        # included, equal the whole sum (its slices disjoint), which also
        # pins W: a wrong W would leave (W' - W) lc f g in them.
        s = built(BDTriple(n, *pair) if pair else None, n, standard=standard, fault=fault)
        cluster, op = s.cluster, s.op
        idx = range(1, n + 1)
        funcs = [(lab, cluster.functions[lab]) for lab in cluster.labels]
        funcs += [(f"x[{i},{j}]", cluster.ring.x(i, j)) for i in idx for j in idx]
        tables = [gradient_tables(f, op) for _, f in funcs]
        made = _spy_accumulate(monkeypatch)
        failures = []
        for ia, ta in enumerate(tables):
            for ib in range(ia + 1, len(tables)):
                where = (funcs[ia][0], funcs[ib][0])
                tb = tables[ib]
                halves = [whole_pair_sums(ta, tb, half) for half in (0, 1)]
                half = min((0, 1), key=lambda h: (halves[h][2], h))
                omega, whole, products = halves[half]
                assert halves[1 - half][0] == omega, where
                assert poisson._half(ta, tb) == (products, half) and products <= halves[1 - half][2], where
                assert poisson._pairing(ta, tb) == class_pairing(ta, tb, half), where
                forced = {_in_half(h, coefficient_from_tables, ta, tb) for h in (0, 1)}
                assert len(forced) == 1, (where, forced)
                made.clear()
                try:
                    got = coefficient_from_tables(ta, tb)
                except NotLogCanonical as e:
                    assert forced == {str(e)}, where
                    got = None
                assert got == omega, where
                if omega is None:
                    failures.append((ia, ib))
                    # A light pair test is one sum; exact division follows.
                    assert products < polyring.SLICE_PRODUCTS and unpack(made[0], ta.f.ring) == whole, where
                    continue
                assert forced == {omega}, where
                sliced = {}
                for sums in made:
                    assert not sliced.keys() & sums.keys()
                    sliced.update(sums)
                assert unpack(sliced, ta.f.ring) == whole, where
        # Most coordinate pairs fail, so the failure path is always compared;
        # only the pairs of seed functions (listed first) tell a faulted seed.
        seed_failures = [ib for _, ib in failures if ib < len(cluster.labels)]
        assert bool(seed_failures) == (fault is not None) and failures

    def test_no_slice_holds_the_whole_sum(self, monkeypatch):
        # (5,1,4), (1,2) x (2,3): 1,391,532 term products, whose sums held
        # 175,114 monomials in one dict.
        s = structure(BDTriple(5, 1, 4))
        cluster, op = s.cluster, s.op
        ta, tb = (gradient_tables(cluster.functions[lab], op) for lab in ((1, 2), (2, 3)))
        assert poisson._half(ta, tb)[0] == 1_391_532
        made = _spy_accumulate(monkeypatch)
        assert coefficient_from_tables(ta, tb) == Fraction(1, 5)
        assert len(made) > 1
        assert max(map(len, made)) <= polyring.SLICE_PRODUCTS
        assert sum(map(len, made)) == 175_114

    def test_light_pair_test_is_one_sum(self, monkeypatch):
        # The frozen check's tiny pair tests are not split: each is one
        # accumulation over the tables' own dicts.  The check reaches
        # coefficient_from_tables through pair_test.
        calls = []
        made = _spy_accumulate(monkeypatch)
        real = coefficient_from_tables

        def counted(ta, tb, half=None):
            made.clear()
            out = real(ta, tb, half)
            calls.append(len(made))
            return out

        monkeypatch.setattr(poisson, "coefficient_from_tables", counted)
        assert check_frozen_log_canonical_with_coordinates(Workspace(structure(BDTriple(4, 1, 3)))) == ([], {})
        assert calls == [1] * (5 * 16)


def _seed_and_coordinate_functions(n_max=5):
    """Every distinct function of every exotic, standard and SL seed with
    n <= n_max, and every coordinate, with the operator of its seed
    (the standard one for coordinates)."""
    funcs = {}
    for n in range(2, n_max + 1):
        ring = get_ring(n)
        for sl in (False, True):
            seeds = [(standard_cluster(n, sl=sl), r_plus_operator(n=n, standard=True))]
            for a in range(1, n):
                for b in range(a + 1, n):
                    t = BDTriple(n, a, b)
                    seeds.append((initial_cluster(t, sl=sl), r_plus_operator(t)))
            for seed, op in seeds:
                for f in seed.functions.values():
                    funcs.setdefault((n, frozenset(f._d.items())), (f, op))
        op = r_plus_operator(n=n, standard=True)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                funcs.setdefault((n, frozenset(ring.x(i, j)._d.items())), (ring.x(i, j), op))
    return list(funcs.values())


def _poly_up_to(data, n, top):
    """A random polynomial of x alone in size n with one term holding
    x[1,1]^top, whose coefficient 100 the at most three other terms (of
    coefficients at most 3) cannot cancel, and every other exponent at
    most top."""
    ring = get_ring(n)
    variables = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    f = 100 * ring.x(1, 1) ** top * ring.x(*data.draw(st.sampled_from(variables[1:])))
    for _ in range(data.draw(st.integers(0, 3))):
        term = ring.const(data.draw(st.sampled_from([-2, -1, 1, 3])))
        for v, e in data.draw(st.dictionaries(st.sampled_from(variables), st.integers(1, top), max_size=3)).items():
            term = term * ring.x(*v) ** e
        f = f + term
    return f


def _ring_key_pair_test(ta, tb):
    """omega of f and g, or the reason there is none in pair_test's words,
    in ring keys: the bracket that bracket_from_tables forms, mapped back
    to ring keys, divided by f g with exact_divide."""
    try:
        quo = exact_divide(bracket_from_tables(ta, tb), ta.f * tb.f)
    except NotDivisible as e:
        return f"bracket is not divisible by the product: {e}"
    if quo._d.keys() - {0}:
        return "bracket is a non-constant multiple of the product"
    return Fraction(quo._d.get(0, 0), ta.op.n**2)


class TestTableKeys:
    """The 4-bit table keys of the gradient tables against ring-key
    oracles (the derivative tables, the tensor bracket and the division of
    a formed bracket), and the rule that refuses every function that does
    not fit them."""

    def test_every_tabled_function_fits(self):
        # Every function the program tables fits table keys: the functions
        # of the standard and every exotic seed for n = 3..6, on GL and SL,
        # the coordinates, and every one-step exchanged variable of every
        # n <= 5 pair.  A structure that needs a wider layout fails here,
        # with the labels of the functions that do not fit.
        misfits = []
        for n in range(3, 7):
            ring = get_ring(n)
            named = [(f"x[{i},{j}]", ring.x(i, j)) for i in range(1, n + 1) for j in range(1, n + 1)]
            pairs = [(a, b) for a in range(1, n) for b in range(a + 1, n)]
            for sl in (False, True):
                group = "SL" if sl else "GL"
                seeds = [(f"{group} standard n={n}", standard_cluster(n, sl=sl))]
                seeds += [(f"{group} ({n},{a},{b})", initial_cluster(BDTriple(n, a, b), sl=sl)) for a, b in pairs]
                named += [(f"{name} seed {lab}", f) for name, seed in seeds for lab, f in seed.functions.items()]
            for a, b in pairs if n <= 5 else ():
                seed = Workspace(structure(BDTriple(n, a, b))).exchange_seed
                named += [(f"({n},{a},{b}) exchange at {lab}", mutate_seed(seed, lab).cluster.functions[lab])
                          for lab in seed.matrix.mutable_labels()]
            misfits += [name for name, f in named if not ring.fits_nibbles(ring.top(f._d))]
        assert not misfits, misfits

    def test_tables_unpack_to_the_ring_key_tables(self):
        # Every entry, class part and lead of the tables of every seed
        # function and coordinate with n <= 5, unpacked, equals the ring-key
        # tables that oracles.derivative_tables builds from partial
        # derivatives; each half's factors, coefficients and sizes are
        # those of its entries on these tables.
        funcs = _seed_and_coordinate_functions()
        assert len(funcs) > 100
        for f, op in funcs:
            ring = f.ring
            got = gradient_tables(f, op)
            F, Fp, classes = derivative_tables(f)

            def back(terms):
                return unpack(terms, ring)

            for T, U in ((got.F, F), (got.Fp, Fp)):
                assert [[e if e is None else back(e) for e in row] for row in T] == U, str(f)
            assert {degs: back(part) for degs, part in got.classes.items()} == classes, str(f)
            key, i, c = got.lead
            lead = max(f._d)
            assert back({key: c}) == {lead: f._d[lead]} and lead in list(classes.values())[i], str(f)
            for h, (_, entries) in zip(got.halves, op.halves):
                slots = [(T[si][sj], T[tj][ti], sign * co) for T, sign in ((F, 1), (Fp, -1))
                         for co, (si, sj), (ti, tj) in entries]
                assert [(s, back(a), co) for s, a, co in h.left] == [(s, a, co) for s, (a, _, co) in enumerate(slots) if a]
                assert [back(b) for b in h.right] == [b for _, b, _ in slots], str(f)
                assert h.lsizes == tuple(len(a) for a, _, _ in slots), str(f)
                assert h.rsizes == tuple(len(b) for _, b, _ in slots), str(f)

    @pytest.mark.parametrize(
        "n, pair, standard, fault",
        [(*s, None) for s in _structures() if s[0] > 2]
        + [(n, pair, False, fault) for n, pair, std in _structures() if pair and not std and n in (3, 4) for fault in Fault],
        ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else str(v),
    )
    def test_pair_tests_agree_in_both_layouts(self, n, pair, standard, fault):
        # Every pair of seed functions and coordinates gives the same omega,
        # or the same reason, from the pair test on table keys and from the
        # formed bracket divided in ring keys (_ring_key_pair_test).
        s = built(BDTriple(n, *pair) if pair else None, n, standard=standard, fault=fault)
        cluster, op = s.cluster, s.op
        idx = range(1, n + 1)
        funcs = [cluster.functions[lab] for lab in cluster.labels]
        funcs += [cluster.ring.x(i, j) for i in idx for j in idx]
        tables = [gradient_tables(f, op) for f in funcs]
        got = [pair_test(ta, tb) for ta, tb in combinations(tables, 2)]
        assert got == [_ring_key_pair_test(ta, tb) for ta, tb in combinations(tables, 2)]
        # Only the faulted seeds fail among the seed functions' pairs.
        seeds = len(cluster.labels)
        seed_pairs = [w for (ia, ib), w in zip(combinations(range(len(funcs)), 2), got) if ib < seeds]
        assert any(isinstance(w, str) for w in seed_pairs) == (fault is not None)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_the_rule_boundary(self, data):
        # Polynomials whose largest exponent is 6, 7 or 8 are tabled exactly
        # at 6 and refused above it; every pair of tabled ones gives the
        # tensor oracle's bracket and the ring-key route's pair test.
        n = data.draw(st.integers(2, 3))
        tops = [data.draw(st.sampled_from([6, 7, 8])) for _ in range(2)]
        f, g = (_poly_up_to(data, n, top) for top in tops)
        op = r_plus_operator(n=n, standard=True) if n == 2 else r_plus_operator(BDTriple(3, 1, 2))
        tabled = []
        for p, top in zip((f, g), tops):
            if top == 6:
                tabled.append(gradient_tables(p, op))
            else:
                with pytest.raises(ValueError, match=REFUSAL):
                    gradient_tables(p, op)
        for x in tabled:
            for y in tabled:
                br = bracket_from_tables(x, y)
                assert br == n * n * _oracle_bracket(x.f, y.f, build_r_tensor(op), n), (str(x.f), str(y.f))
                assert pair_test(x, y) == _ring_key_pair_test(x, y), (str(x.f), str(y.f))

    def test_boundary_exponents_do_not_carry(self):
        # x[1,1]^e x[1,2] against x[1,1]^e x[2,1] + x[1,1] x[2,2]^e: F
        # entries raise x[1,1] to e + 1, so at e = 7 two of them would fill
        # a 4-bit field; e = 6 is tabled, and its brackets equal the
        # oracle's, and e = 7 is refused.
        ring = get_ring(2)
        op = r_plus_operator(n=2, standard=True)
        x = ring.x
        f, g = x(1, 1) ** 6 * x(1, 2), x(1, 1) ** 6 * x(2, 1) + x(1, 1) * x(2, 2) ** 6
        ta, tb = gradient_tables(f, op), gradient_tables(g, op)
        want = 4 * _oracle_bracket(f, g, build_r_tensor(op), 2)
        assert bracket_from_tables(ta, tb) == want == bracket_from_tables(tb, ta) * -1
        assert bracket_from_tables(ta, ta) == 0 == bracket_from_tables(tb, tb)
        for h in (x(1, 1) ** 7 * x(1, 2), x(1, 1) ** 7 * x(2, 1) + x(1, 1) * x(2, 2) ** 7):
            with pytest.raises(ValueError, match=REFUSAL):
                gradient_tables(h, op)


class TestSweeps:
    def test_omega_matrix_standard_n2(self):
        cl = standard_cluster(2)
        op = r_plus_operator(n=2, standard=True)
        labels = list(cl.labels)
        assert labels == [(1, 1), (1, 2), (2, 1), (2, 2)]
        omegas, failures = omega_sweep([cl[lab] for lab in labels], op)
        assert failures == []
        w = {(la, la): 0 for la in labels}
        for (ia, ib), v in omegas.items():
            w[(labels[ia], labels[ib])] = v
            w[(labels[ib], labels[ia])] = -v
        # the determinant row is identically zero
        for lab in labels:
            assert w[((1, 1), lab)] == 0
        assert w[((1, 2), (2, 2))] == Fraction(1, 2)
        assert w[((2, 1), (2, 2))] == Fraction(1, 2)
        assert w[((1, 2), (2, 1))] == 0
        for la in labels:
            for lb in labels:
                assert w[(la, lb)] == -w[(lb, la)]

    def test_omega_digest_unchanged(self):
        lines = []
        for n in (3, 4, 5):
            for a in range(1, n):
                for b in range(a + 1, n):
                    _, omegas, failures = Workspace(structure(BDTriple(n, a, b))).omega
                    assert failures == []
                    lines += [f"{n} {a} {b} {ia} {ib} {w}" for (ia, ib), w in sorted(omegas.items())]
        assert len(lines) == 2196
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == OMEGA_DIGEST

    def test_omega_is_read_without_division(self, monkeypatch):
        # Log-canonical pairs never reach exact division: omega is read at
        # the product's leading monomial and checked by comparison.
        def refuse(products, q):
            raise AssertionError("a log-canonical pair reached exact division")

        monkeypatch.setattr(poisson, "_divide", refuse)
        _, omegas, failures = Workspace(structure(BDTriple(4, 1, 3))).omega
        assert failures == [] and len(omegas) == 16 * 15 // 2

    def test_omega_sweep_reports_failures(self):
        ring = get_ring(2)
        op = r_plus_operator(n=2, standard=True)
        omegas, failures = omega_sweep([ring.x(1, 1), ring.x(2, 2)], op)
        assert omegas == {}
        assert len(failures) == 1
        assert failures[0][:2] == (0, 1)

    def test_untabled_function_stops_the_sweep(self):
        # x[1,1]^64 does not fit table keys, so the sweep raises the rule's
        # ValueError while tabling its functions, before any pair test.
        ring = get_ring(2)
        op = r_plus_operator(n=2, standard=True)
        big = ring.x(1, 1) ** 64
        with pytest.raises(ValueError, match=f"^{REFUSAL}$"):
            omega_sweep([ring.x(1, 2), big, big + ring.x(1, 2)], op)

    def test_sweep_workers_env(self, monkeypatch, capsys):
        # processes is the only worker setting, so BD_CLUSTER_THREADS, even
        # with a bad value, neither sets the count nor stops a check.
        monkeypatch.setenv("BD_CLUSTER_THREADS", "four")
        assert sweep_workers() == min(4, os.cpu_count() or 1)
        assert cli.main(["check", "rank", "--n", "3"]) == 0
        assert "status=pass" in capsys.readouterr().out

    def test_sweep_workers_capped_by_cpu_count(self, monkeypatch):
        # A forked pool starts every worker on its first task, so the
        # count is capped, the default of 4 too.  No process is started here.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert sweep_workers(10**6) == 2
        assert sweep_workers() == 2
        assert sweep_workers(1) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert sweep_workers() == 4
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert sweep_workers() == 1

    @pytest.mark.parametrize("value", ["four", 2.5, 0, -3, True, False])
    def test_sweep_workers_rejects_bad_count(self, value):
        with pytest.raises(ValueError, match="processes must be a positive integer"):
            sweep_workers(value)
        # run_checks checks the count before any check runs, rank included.
        with pytest.raises(ValueError, match="processes"):
            verify.run_checks(["rank"], n=3, processes=value)

    def test_pair_products_once_per_sweep(self, monkeypatch):
        # The workspace hands its sweep plan to the sweep, which would
        # otherwise count the products again to plan its pool.  Each pair's
        # count is that of the half, R_+ or R_-, with fewer products
        # (class_pairing lists them), and the same plan plans the pool and
        # gives the logcanon details.
        calls = []
        real = poisson._half
        real_sweep = poisson.omega_sweep
        planned = []

        def counted(ta, tb):
            calls.append((ta, tb))
            return real(ta, tb)

        def sweep(*args, plan=None, **kwargs):
            planned.append(plan)
            return real_sweep(*args, plan=plan, **kwargs)

        monkeypatch.setattr(poisson, "_half", counted)
        monkeypatch.setattr(verify, "omega_sweep", sweep)
        ws = Workspace(structure(BDTriple(4, 1, 3)))
        with worker_count(2):
            labels, omegas, failures = ws.omega
        L = len(labels)
        assert failures == [] and len(omegas) == L * (L - 1) // 2
        assert len(calls) == len(ws.sweep_plan) == L * (L - 1) // 2
        assert planned == [ws.sweep_plan] and planned[0] is ws.sweep_plan
        products = [p for p, _ in ws.sweep_plan]
        cheaper_minus = 0
        for (ta, tb), (got, half) in zip(calls, ws.sweep_plan):
            counts = [sum(len(a) * len(b) for a, b, _ in sum(class_pairing(ta, tb, h), [])) for h in (0, 1)]
            assert got == min(counts) == counts[half]
            assert half == (counts[1] < counts[0])
            cheaper_minus += counts[1] < counts[0]
        assert cheaper_minus
        details = verify.check_log_canonical(ws)[1]
        assert (details["products"], details["max_pair_products"]) == (sum(products), max(products))

    def test_half_once_per_swept_pair(self, monkeypatch):
        # A serial (4,1,3) sweep decides each of its 120 pairs' half once,
        # in the sweep plan, and each pair test sums in that half: 120 calls
        # of _half, where choosing again in every pair test made 240.  The
        # logcanon details read the same plan.
        calls = []
        real = poisson._half

        def counted(ta, tb):
            calls.append((ta, tb))
            return real(ta, tb)

        monkeypatch.setattr(poisson, "_half", counted)
        rep = verify.run_checks(["logcanon"], triple=BDTriple(4, 1, 3), processes=1)[0]
        assert rep.passed and rep.details["pairs"] == 120
        assert len(calls) == 120
        assert (rep.details["products"], rep.details["max_pair_products"]) == (22_449, 8_074)

    def test_failed_sweep_clears_its_state(self, monkeypatch):
        # A pair test that raises, as MemoryError does at n = 6, must not
        # leave the sweep's tables alive in a process that catches it: no
        # module state of the sweep or of its task runner holds them, and a
        # forked sweep raises the same error and leaves no worker behind.
        funcs, op, tables = _seed_tables(BDTriple(4, 1, 3))

        def exhaust(ta, tb, half=None):
            raise MemoryError

        monkeypatch.setattr(poisson, "coefficient_from_tables", exhaust)
        with pytest.raises(MemoryError):
            omega_sweep(funcs, op, tables=tables)
        assert not _module_state_holds(tables, poisson, tasks)
        monkeypatch.setattr(tasks, "POOL_MIN_PRODUCTS", 0)
        with worker_count(2), pytest.raises(MemoryError):
            omega_sweep(funcs, op, tables=tables)
        assert not _module_state_holds(tables, poisson, tasks)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_forced_pool_matches_serial(self, monkeypatch):
        # With the threshold at 0 every sweep forks; omegas and failures
        # (the faulted seed's and the pair x[1,1], x[2,2] of coordinates)
        # come back in pair order, as in-process.
        started = []
        workers = 2
        fork = os.fork

        def counted():
            pid = fork()
            if pid:
                started.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        # worker_count caps its count by the CPU count.
        monkeypatch.setattr(os, "cpu_count", lambda: workers)
        monkeypatch.setattr(tasks, "POOL_MIN_PRODUCTS", 0)
        ring = get_ring(2)
        cases = [([ring.x(1, 2), ring.x(1, 1), ring.x(2, 2)], r_plus_operator(n=2, standard=True))]
        for fault in (None, Fault.DROP_PHI31_TERM):
            s = built(BDTriple(4, 1, 3), fault=fault)
            cluster = s.cluster
            cases.append(([cluster.functions[lab] for lab in cluster.labels], s.op))
        failures = []
        for funcs, op in cases:
            serial = omega_sweep(funcs, op)
            assert not started
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            with worker_count(workers):
                assert omega_sweep(funcs, op) == serial
            # The calling process runs one share, so two workers fork one child.
            assert len(started) == workers - 1
            started.clear()
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            failures.append(bool(serial[1]))
        assert failures == [True, False, True]

    def test_light_sweep_stays_in_process(self, monkeypatch):
        # Every n <= 4 sweep, and the n = 5 sweeps of 431,000-482,000
        # products, which run faster and in less CPU time in process than
        # with two workers.
        def refuse(*args, **kwargs):
            raise AssertionError("a worker was forked for a sweep below the threshold")

        monkeypatch.setattr(os, "fork", refuse)
        for triple in ((4, 1, 3), (5, 1, 3), (5, 2, 4)):
            funcs, op, tables = _seed_tables(BDTriple(*triple))
            pairs = [(ia, ib) for ia in range(len(funcs)) for ib in range(ia + 1, len(funcs))]
            assert sum(products for products, _ in poisson.sweep_plan(tables)) < tasks.POOL_MIN_PRODUCTS
            with worker_count(2):
                omegas, failures = omega_sweep(funcs, op, tables=tables)
            assert failures == [] and len(omegas) == len(pairs), triple

    def test_sweep_never_multiplies_polynomials(self, monkeypatch):
        # The pair test accumulates n^2 {f, g} and f g together, so no
        # Poly product (f g above all) is formed for a log-canonical pair.
        funcs, op, tables = _seed_tables(BDTriple(4, 1, 3))

        def refuse(self, other):
            raise AssertionError("Poly.__mul__ called in the sweep")

        monkeypatch.setattr(Poly, "__mul__", refuse)
        omegas, failures = omega_sweep(funcs, op, tables=tables)
        assert failures == [] and len(omegas) == 16 * 15 // 2

    def test_dead_worker_fails_the_sweep(self):
        # A worker that dies mid-sweep must make the sweep raise (and the
        # CLI exit 2), not leave it waiting for results forever, and it
        # leaves no child behind.  Run in a subprocess so a hang fails this
        # test instead of the suite.  The (4,1,3) sweep is below the pool
        # threshold, so the threshold is lowered to 0 to make it fork; the
        # calling process runs a share too, so only a forked worker dies.
        script = textwrap.dedent(
            """
            import os, sys
            from bdcluster import cli, poisson, tasks

            parent = os.getpid()
            test = poisson.pair_test

            def die(*args):
                if os.getpid() != parent:
                    os._exit(1)
                return test(*args)

            poisson.pair_test = die
            tasks.POOL_MIN_PRODUCTS = 0
            code = cli.main(["check", "logcanon", "--n", "4", "--alpha", "1",
                             "--beta", "3", "--processes", "2"])
            try:
                os.waitpid(-1, os.WNOHANG)
                sys.exit(3)
            except ChildProcessError:
                sys.exit(code)
            """
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "error:" in proc.stderr and "terminated abruptly" in proc.stderr


def _module_state_holds(obj, *modules) -> bool:
    """Whether a global of one of modules, or an item of a dict, list or
    tuple that one holds, is obj."""
    for module in modules:
        for value in vars(module).values():
            items = value.values() if isinstance(value, dict) else value if isinstance(value, (list, tuple)) else ()
            if value is obj or any(item is obj for item in items):
                return True
    return False


# ----------------------------------------------------------------------
# Property tests.  The bracket must be an honest Poisson bracket, so we
# check antisymmetry, Leibniz, and Jacobi on random small polynomials.

R2 = get_ring(2)
OP2 = r_plus_operator(n=2, standard=True)
R3 = get_ring(3)
OP3 = r_plus_operator(BDTriple(3, 1, 2))

coeffs = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=3
).filter(lambda q: q != 0)


@st.composite
def small_poly(draw, ring, max_terms=3, max_exp=2):
    n = ring.n
    p = ring.zero
    for _ in range(draw(st.integers(1, max_terms))):
        mono = ring.one
        for _ in range(draw(st.integers(0, max_exp))):
            i = draw(st.integers(1, n))
            j = draw(st.integers(1, n))
            mono = mono * ring.x(i, j)
        p = p + draw(coeffs) * mono
    return p


@settings(max_examples=40, deadline=None)
@given(small_poly(R2), small_poly(R2))
def test_bracket_antisymmetric(f, g):
    assert sklyanin_bracket(f, g, OP2) == -sklyanin_bracket(g, f, OP2)


@settings(max_examples=40, deadline=None)
@given(small_poly(R2), small_poly(R2), small_poly(R2))
def test_bracket_leibniz(f, g, h):
    lhs = sklyanin_bracket(f, g * h, OP2)
    rhs = sklyanin_bracket(f, g, OP2) * h + g * sklyanin_bracket(f, h, OP2)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(small_poly(R3), small_poly(R3), small_poly(R3))
def test_bracket_leibniz_exotic(f, g, h):
    # g h mixes the degree classes of g and h, so the diagonal pairs
    # classes that neither factor has on its own.
    lhs = sklyanin_bracket(f, g * h, OP3)
    rhs = sklyanin_bracket(f, g, OP3) * h + g * sklyanin_bracket(f, h, OP3)
    assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(small_poly(R2, max_terms=2), small_poly(R2, max_terms=2), small_poly(R2, max_terms=2))
def test_bracket_jacobi(f, g, h):
    total = (
        sklyanin_bracket(f, sklyanin_bracket(g, h, OP2), OP2)
        + sklyanin_bracket(g, sklyanin_bracket(h, f, OP2), OP2)
        + sklyanin_bracket(h, sklyanin_bracket(f, g, OP2), OP2)
    )
    assert not total


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
    st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
)
def test_bracket_jacobi_exotic_on_coordinates(i1, j1, i2, j2, i3, j3):
    f, g, h = R3.x(i1, j1), R3.x(i2, j2), R3.x(i3, j3)
    total = (
        sklyanin_bracket(f, sklyanin_bracket(g, h, OP3), OP3)
        + sklyanin_bracket(g, sklyanin_bracket(h, f, OP3), OP3)
        + sklyanin_bracket(h, sklyanin_bracket(f, g, OP3), OP3)
    )
    assert not total


@settings(max_examples=40, deadline=None)
@given(small_poly(R3, max_terms=2, max_exp=1), small_poly(R3, max_terms=2, max_exp=1))
def test_bracket_antisymmetric_exotic(f, g):
    assert sklyanin_bracket(f, g, OP3) == -sklyanin_bracket(g, f, OP3)


def _division_oracle(f, g, op):
    """omega, or the NotLogCanonical text, from the unscaled bracket and
    exact division by f g (the heap oracle)."""
    nn = op.n * op.n
    br = sklyanin_bracket(f, g, op) * nn
    if not br:
        return Fraction(0)
    try:
        quo = heap_exact_divide(br, f * g)._d
    except NotDivisible as e:
        return f"bracket is not divisible by the product: {e}"
    if len(quo) != 1 or 0 not in quo:
        return "bracket is a non-constant multiple of the product"
    return Fraction(quo[0], nn)


@pytest.mark.parametrize("slice_products", [20_000, 0])
@settings(max_examples=80, deadline=None)
@given(small_poly(R3, max_terms=2), small_poly(R3, max_terms=2))
def test_coefficient_matches_division_oracle(slice_products, f, g):
    # With SLICE_PRODUCTS 0 the pair test's sums and its division are
    # both split into slices.
    want = _division_oracle(f, g, OP3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyring, "SLICE_PRODUCTS", slice_products)
        try:
            got = poisson_coefficient(f, g, OP3)
        except NotLogCanonical as e:
            got = str(e)
    assert got == want
