"""Tests for the r-matrix operators and the Sklyanin bracket.

Every numeric expectation in this file was worked out by hand (or with
the independent tensor-contraction oracle) before being frozen here.
"""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdcluster.bdseed import BDTriple, get_ring, standard_cluster
from bdcluster.poisson import (
    DualBasis,
    NotLogCanonical,
    bracket_from_tables,
    build_r0,
    build_r_tensor,
    casimir_tensor,
    gradient_tables,
    omega_matrix,
    omega_sweep,
    poisson_coefficient,
    r_plus,
    r_plus_operator,
    r_plus_oracle,
    sklyanin_bracket,
    sweep_workers,
    tensor_sum,
    tensor_transpose,
    verify_cybe,
)
from bdcluster.polyring import partial_derivative


def unit(n, i, j):
    """The elementary matrix e_ij over Fractions."""
    return [
        [Fraction(1) if (r, c) == (i - 1, j - 1) else Fraction(0) for c in range(n)]
        for r in range(n)
    ]


class TestR0:
    def test_standard_is_unipotent_bidiagonal(self):
        assert build_r0(4, standard=True) == (
            (1, 0, 0),
            (-1, 1, 0),
            (0, -1, 1),
        )

    def test_adjacent_pair_keeps_plain_form(self):
        assert build_r0(4, 1, 2) == build_r0(4, standard=True)
        assert build_r0(5, 3, 4) == build_r0(5, standard=True)

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


class TestDualBasis:
    def test_s_values(self):
        d = DualBasis(4)
        assert [d.s(k, 1) for k in (1, 2, 3, 4)] == [3, -1, -1, -1]
        assert [d.s(k, 3) for k in (1, 2, 3, 4)] == [1, 1, 1, -3]

    def test_h_hat_is_traceless(self):
        # hhat_p has diagonal entries s(k, p) / n.
        d = DualBasis(5)
        for p in range(1, 5):
            assert sum(d.s(k, p) for k in range(1, 6)) == 0

    def test_duality_pairing(self):
        # <h_p, hhat_q> = delta_pq under the trace form on diagonals, with
        # h_p = e_pp - e_{p+1,p+1}: (s(p, q) - s(p+1, q)) / n.
        for n in (2, 3, 4, 5):
            d = DualBasis(n)
            for p in range(1, n):
                for q in range(1, n):
                    pair = Fraction(d.s(p, q) - d.s(p + 1, q), n)
                    assert pair == (1 if p == q else 0)


class TestRPlusOperator:
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
        assert not twin.wedge_active
        out = r_plus(twin, unit(4, 4, 3))
        assert all(v == 0 for row in out for v in row)

    def test_needs_size_or_pair(self):
        with pytest.raises(ValueError):
            r_plus_operator()

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
                rt = build_r_tensor(n, standard=True)
            else:
                op = r_plus_operator(BDTriple(n, *pair), standard=std)
                rt = build_r_tensor(n, *pair, standard=std)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    m = unit(n, i, j)
                    assert r_plus(op, m) == r_plus_oracle(rt, m), (n, pair, std, i, j)

    def test_matches_oracle_on_polynomial_matrix(self):
        ring = get_ring(3)
        op = r_plus_operator(BDTriple(3, 1, 2))
        rt = build_r_tensor(3, 1, 2)
        mat = [[ring.x(i, j) + ring.const(i - j) for j in range(1, 4)] for i in range(1, 4)]
        assert r_plus(op, mat) == r_plus_oracle(rt, mat)


class TestRTensor:
    def test_standard_n2_entries(self):
        rt = build_r_tensor(2, standard=True)
        assert rt == {
            ((1, 1), (1, 1)): Fraction(1, 4),
            ((1, 1), (2, 2)): Fraction(-1, 4),
            ((2, 2), (1, 1)): Fraction(-1, 4),
            ((2, 2), (2, 2)): Fraction(1, 4),
            ((2, 1), (1, 2)): Fraction(1),
        }

    def test_exotic_wedge_entries(self):
        rt = build_r_tensor(3, 1, 2)
        assert rt[((2, 1), (2, 3))] == 1
        assert rt[((2, 3), (2, 1))] == -1
        std = build_r_tensor(3, 1, 2, standard=True)
        assert ((2, 1), (2, 3)) not in std

    def test_unitarity_directly(self):
        for n, pair in [(2, None), (3, None), (3, (1, 2)), (4, (1, 3))]:
            rt = build_r_tensor(n, *pair) if pair else build_r_tensor(n, standard=True)
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
            rt = build_r_tensor(n, *pair) if pair else build_r_tensor(n, standard=True)
            ok, unitary, witnesses = verify_cybe(rt, n)
            assert ok and unitary, witnesses
            assert witnesses == []

    def test_detects_broken_tensor(self):
        # Scaling the mixed term breaks both the bracket identity and
        # unitarity.  (Merely deleting it would leave a diagonal tensor,
        # which still satisfies the bracket identity.)
        rt = dict(build_r_tensor(2, standard=True))
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
        br = sklyanin_bracket(self.x(1, 1), self.x(2, 2), self.op)
        assert br == self.x(1, 2) * self.x(2, 1)
        with pytest.raises(NotLogCanonical):
            poisson_coefficient(self.x(1, 1), self.x(2, 2), self.op, bracket=br)

    def test_determinant_is_casimir(self):
        det = self.x(1, 1) * self.x(2, 2) - self.x(1, 2) * self.x(2, 1)
        for i in (1, 2):
            for j in (1, 2):
                assert not sklyanin_bracket(det, self.x(i, j), self.op)

    def test_poisson_coefficient_values(self):
        assert poisson_coefficient(self.x(1, 2), self.x(2, 2), self.op) == Fraction(1, 2)
        assert poisson_coefficient(self.x(2, 1), self.x(1, 2), self.op) == 0

    def test_tables_route_agrees(self):
        """bracket_from_tables equals <R_+(F), G> - <R_+(F'), G'> with R_+
        contracted from the r tensor, on random polynomials for n <= 4:
        every minimal pair with its exotic operator and its standard
        companion, and the standard operator of each size."""
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
                rt = build_r_tensor(n, standard=True)
            else:
                op = r_plus_operator(BDTriple(n, *pair), standard=std)
                rt = build_r_tensor(n, *pair, standard=std)
            for _ in range(3):
                f, g = _random_poly(rng, ring), _random_poly(rng, ring)
                got = bracket_from_tables(gradient_tables(f, op), gradient_tables(g, op))
                assert got == _oracle_bracket(f, g, rt, n), (n, pair, std, str(f), str(g))


def _random_poly(rng, ring):
    p = ring.zero
    for _ in range(rng.randint(1, 3)):
        mono = ring.const(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 3)):
            mono = mono * ring.x(rng.randint(1, ring.n), rng.randint(1, ring.n))
        p = p + mono
    return p


def _oracle_bracket(f, g, rt, n):
    """<R_+(F), G> - <R_+(F'), G'> from partial derivatives and the tensor:
    F_ij = sum_k df/dx[k,i] x[k,j], F'_ij = sum_k df/dx[j,k] x[i,k]."""
    ring = f.ring
    idx = range(1, n + 1)

    def d(p, k, i):
        return partial_derivative(p, ("x", k, i))

    def grads(p):
        P = [[sum((d(p, k, i) * ring.x(k, j) for k in idx), ring.zero) for j in idx] for i in idx]
        Pp = [[sum((d(p, j, k) * ring.x(i, k) for k in idx), ring.zero) for j in idx] for i in idx]
        return P, Pp

    (F, Fp), (G, Gp) = grads(f), grads(g)
    RF, RFp = r_plus_oracle(rt, F), r_plus_oracle(rt, Fp)
    total = ring.zero
    for i in range(n):
        for j in range(n):
            total = total + RF[i][j] * G[j][i] - RFp[i][j] * Gp[j][i]
    return total


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


class TestSweeps:
    def test_omega_matrix_standard_n2(self):
        cl = standard_cluster(2)
        op = r_plus_operator(n=2, standard=True)
        labels, mat = omega_matrix(cl, op)
        assert labels == [(1, 1), (1, 2), (2, 1), (2, 2)]
        w = {
            (la, lb): mat[labels.index(la)][labels.index(lb)]
            for la in labels
            for lb in labels
        }
        # the determinant row is identically zero
        for lab in labels:
            assert w[((1, 1), lab)] == 0
        assert w[((1, 2), (2, 2))] == Fraction(1, 2)
        assert w[((2, 1), (2, 2))] == Fraction(1, 2)
        assert w[((1, 2), (2, 1))] == 0
        for la in labels:
            for lb in labels:
                assert w[(la, lb)] == -w[(lb, la)]

    def test_omega_sweep_reports_failures(self):
        ring = get_ring(2)
        op = r_plus_operator(n=2, standard=True)
        omegas, failures = omega_sweep([ring.x(1, 1), ring.x(2, 2)], op)
        assert omegas == {}
        assert len(failures) == 1
        assert failures[0][:2] == (0, 1)

    def test_omega_matrix_raises_with_pair_name(self):
        ring = get_ring(2)
        cl = standard_cluster(2)
        bad = dict(cl.functions)
        bad[(1, 1)] = ring.x(1, 1)  # no longer the determinant
        from dataclasses import replace

        broken = replace(cl, functions=bad)
        op = r_plus_operator(n=2, standard=True)
        with pytest.raises(NotLogCanonical, match=r"\(1, 1\)"):
            omega_matrix(broken, op)

    def test_sweep_workers_env(self, monkeypatch):
        monkeypatch.setenv("BD_CLUSTER_THREADS", "2")
        assert sweep_workers() == 2
        monkeypatch.delenv("BD_CLUSTER_THREADS")
        assert sweep_workers() >= 1

    @pytest.mark.parametrize("value", ["four", "2.5", "0", "-3"])
    def test_sweep_workers_rejects_bad_env(self, monkeypatch, value):
        monkeypatch.setenv("BD_CLUSTER_THREADS", value)
        with pytest.raises(ValueError, match="BD_CLUSTER_THREADS"):
            sweep_workers()
        if value.lstrip("-").isdigit():
            # The same count passed to the sweep directly is refused too.
            monkeypatch.delenv("BD_CLUSTER_THREADS")
            ring = get_ring(2)
            op = r_plus_operator(n=2, standard=True)
            with pytest.raises(ValueError, match="processes"):
                omega_sweep([ring.x(1, 1), ring.x(2, 2)], op, processes=int(value))

    def test_dead_worker_fails_the_sweep(self):
        # A pool worker that dies mid-sweep must make the sweep raise (and
        # the CLI exit 2), not leave it waiting for results forever.  Run
        # in a subprocess so a hang fails this test instead of the suite.
        script = textwrap.dedent(
            """
            import os, sys
            from bdcluster import cli, poisson

            def die(idx):
                os._exit(1)

            poisson._sweep_pair = die
            sys.exit(cli.main(["check", "logcanon", "--n", "4", "--alpha", "1",
                               "--beta", "3", "--processes", "2"]))
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
