"""Determinants, minor families, and the special block matrices."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bdcluster.polyring import ExponentOverflow, Poly, PolyRing, partial_derivative
from bdcluster.polymat import (
    IndexNotSpecial,
    IndexOutOfRange,
    NotSquare,
    _replacement_tables,
    _trailing,
    build_M,
    build_Mtilde,
    col_replace,
    determinant,
    first_family,
    row_replace,
    second_family,
)
from oracles import build_Mtilde_shift

R3 = PolyRing(3)
R4 = PolyRing(4)

# sha256 of _layout_lines for n = 2..7 (see test_layout_digest_unchanged).
LAYOUT_DIGEST = "9de8f98a9cb2bbb8961163a4bc2728f033d60534716b5374fc2ce90f3133312a"


def cofactor_det(rows):
    """Independent oracle: plain recursive expansion along the first row.

    Deliberately shares no code with the library determinant.
    """
    k = len(rows)
    if k == 1:
        return rows[0][0]
    acc = None
    for c in range(k):
        entry = rows[0][c]
        if not entry:
            continue
        sub = [r[:c] + r[c + 1 :] for r in rows[1:]]
        piece = entry * cofactor_det(sub)
        if c % 2:
            piece = -piece
        acc = piece if acc is None else acc + piece
    return acc if acc is not None else rows[0][0].ring.zero


def random_const_matrix(ring, rng, nrows, ncols, span=9):
    return [
        [ring.const(Fraction(rng.randint(-span, span), rng.randint(1, 3))) for _ in range(ncols)]
        for _ in range(nrows)
    ]


def drop(rows, rs=(), cs=()):
    """Delete 1-based row indices rs and column indices cs."""
    return [
        [v for j, v in enumerate(r, start=1) if j not in cs]
        for i, r in enumerate(rows, start=1)
        if i not in rs
    ]


class TestDeterminant:
    def test_two_by_two(self):
        a, b, c, d = R3.x(1, 1), R3.x(1, 2), R3.x(2, 1), R3.x(2, 2)
        assert determinant([[a, b], [c, d]]) == a * d - b * c

    def test_identity_matrix(self):
        rows = [[R3.one if i == j else R3.zero for j in range(3)] for i in range(3)]
        assert determinant(rows) == R3.one

    def test_rejects_non_square(self):
        with pytest.raises(NotSquare):
            determinant([[R3.one, R3.zero]])

    def test_row_swap_changes_sign(self):
        rows = [[R3.x(i, j) for j in range(1, 4)] for i in range(1, 4)]
        swapped = [rows[1], rows[0], rows[2]]
        assert determinant(swapped) == -determinant(rows)

    def test_symbolic_full_matrix_against_oracle(self):
        rows = [[R3.x(i, j) for j in range(1, 4)] for i in range(1, 4)]
        assert determinant(rows) == cofactor_det(rows)

    def test_polynomial_entries_against_oracle(self):
        # General Poly entries, with Fraction coefficients and products that
        # cancel, as well as zero entries.
        rng = random.Random(4471)
        for size in (2, 3, 4):
            for _ in range(6):
                rows = [
                    [
                        sum(
                            (Fraction(rng.randint(-3, 3), rng.randint(1, 2)) * R3.x(rng.randint(1, 3), rng.randint(1, 3))
                             for _ in range(rng.randint(0, 2))),
                            R3.const(rng.randint(-1, 1)),
                        )
                        for _ in range(size)
                    ]
                    for _ in range(size)
                ]
                assert determinant(rows) == cofactor_det(rows)

    def test_one_accumulation_per_minor(self, monkeypatch):
        # Each memoized minor of a full 4x4 matrix, one per nonempty column
        # set, is one PolyRing.accumulate, and no running sum is built by
        # adding Polys.
        rows = [[R4.x(i, j) for j in range(1, 5)] for i in range(1, 5)]
        want = cofactor_det(rows)
        calls = []
        real = PolyRing.accumulate

        def counted(self, products):
            calls.append(len(products))
            return real(self, products)

        def refuse(self, other):
            raise AssertionError("determinant added two Polys")

        monkeypatch.setattr(PolyRing, "accumulate", counted)
        monkeypatch.setattr(Poly, "__add__", refuse)
        monkeypatch.setattr(Poly, "__sub__", refuse)
        assert determinant(rows)._d == want._d
        assert sorted(calls) == [1] * 4 + [2] * 6 + [3] * 4 + [4]

    def test_random_rational_matrices_against_oracle(self):
        rng = random.Random(20250819)
        for size in (2, 3, 4, 5):
            for _ in range(8):
                rows = random_const_matrix(R3, rng, size, size)
                assert determinant(rows) == cofactor_det(rows)


def test_desnanot_jacobi_on_random_matrices():
    """det A * det A(minus r1 r2, c1 c2) = det A(r1,c1) det A(r2,c2)
    - det A(r2,c1) det A(r1,c2), for sorted index pairs.

    Acceptance asks for at least 100 random instances over sizes 3..6.
    """
    rng = random.Random(1321)
    count = 0
    for size in (3, 4, 5, 6):
        for _ in range(30):
            rows = random_const_matrix(R3, rng, size, size, span=7)
            r1, r2 = sorted(rng.sample(range(1, size + 1), 2))
            c1, c2 = sorted(rng.sample(range(1, size + 1), 2))
            lhs = determinant(rows) * determinant(drop(rows, (r1, r2), (c1, c2)))
            rhs = determinant(drop(rows, (r1,), (c1,))) * determinant(
                drop(rows, (r2,), (c2,))
            ) - determinant(drop(rows, (r2,), (c1,))) * determinant(drop(rows, (r1,), (c2,)))
            assert lhs == rhs
            count += 1
    assert count >= 100


def test_desnanot_jacobi_tall_variant():
    """The same identity for a matrix with one more row than columns."""
    rng = random.Random(1322)
    for cols in (2, 3, 4, 5):
        for _ in range(10):
            rows = random_const_matrix(R3, rng, cols + 1, cols, span=7)
            r1, r2, r3 = sorted(rng.sample(range(1, cols + 2), 3))
            c1 = rng.randint(1, cols)
            lhs = determinant(drop(rows, (r1,))) * determinant(drop(rows, (r2, r3), (c1,)))
            rhs = determinant(drop(rows, (r2,))) * determinant(
                drop(rows, (r1, r3), (c1,))
            ) - determinant(drop(rows, (r3,))) * determinant(drop(rows, (r1, r2), (c1,)))
            assert lhs == rhs


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_desnanot_jacobi_hypothesis(data):
    size = data.draw(st.integers(min_value=3, max_value=5))
    flat = data.draw(
        st.lists(
            st.integers(min_value=-5, max_value=5),
            min_size=size * size,
            max_size=size * size,
        )
    )
    rows = [[R3.const(flat[i * size + j]) for j in range(size)] for i in range(size)]
    lhs = determinant(rows) * determinant(drop(rows, (1, size), (1, size)))
    rhs = determinant(drop(rows, (1,), (1,))) * determinant(
        drop(rows, (size,), (size,))
    ) - determinant(drop(rows, (size,), (1,))) * determinant(drop(rows, (1,), (size,)))
    assert lhs == rhs


class TestSubmatrixFamilies:
    def test_build_M_full(self):
        m = build_M(R3, 1, 1)
        assert [[str(e) for e in row] for row in m] == [
            [f"x[{i},{j}]" for j in range(1, 4)] for i in range(1, 4)
        ]

    def test_build_M_below_diagonal(self):
        m = build_M(R3, 2, 1)
        assert [[str(e) for e in row] for row in m] == [
            ["x[2,1]", "x[2,2]"],
            ["x[3,1]", "x[3,2]"],
        ]

    def test_build_M_above_diagonal(self):
        m = build_M(R3, 1, 2)
        assert [[str(e) for e in row] for row in m] == [
            ["x[1,2]", "x[1,3]"],
            ["x[2,2]", "x[2,3]"],
        ]

    def test_build_M_bad_index(self):
        with pytest.raises(IndexOutOfRange):
            build_M(R3, 0, 1)

    def test_trailing_chain(self):
        m = build_M(R4, 1, 2)
        assert len(m) == 3
        assert determinant([row[1:] for row in m[1:]]) == determinant(build_M(R4, 2, 3))


class TestSpecialFamilies:
    def test_family_labels(self):
        assert list(first_family(3, 1)) == [(3, 1)]
        assert list(second_family(3, 2)) == [(1, 2), (2, 3)]
        assert list(first_family(5, 2)) == [(4, 1), (5, 2)]
        assert list(second_family(5, 3)) == [(1, 3), (2, 4), (3, 5)]

    def test_first_family_example(self):
        m = build_Mtilde(R3, 1, 2, 3, 1)
        assert [[str(e) for e in row] for row in m] == [
            ["x[3,1]", "x[3,2]"],
            ["x[1,2]", "x[1,3]"],
        ]
        assert determinant(m) == R3.x(3, 1) * R3.x(1, 3) - R3.x(3, 2) * R3.x(1, 2)

    def test_second_family_example(self):
        m = build_Mtilde(R3, 1, 2, 1, 2)
        shown = [[str(e) if e else "0" for e in row] for row in m]
        assert shown == [
            ["x[1,2]", "x[1,3]", "0", "0"],
            ["x[2,2]", "x[2,3]", "x[1,1]", "x[1,2]"],
            ["x[3,2]", "x[3,3]", "x[2,1]", "x[2,2]"],
            ["0", "0", "x[3,1]", "x[3,2]"],
        ]

    def test_not_special(self):
        with pytest.raises(IndexNotSpecial):
            build_Mtilde(R3, 1, 2, 2, 2)

    def test_block_shapes_are_square(self):
        for (n, a, b) in [(4, 1, 3), (5, 2, 4), (5, 1, 2)]:
            ring = PolyRing(n)
            for lab in first_family(n, a) + second_family(n, b):
                m = build_Mtilde(ring, a, b, *lab)
                assert len(m) == len(m[0])


class TestCoincidenceBlocks:
    """n even with beta = n/2 (or alpha = n/2) grows a third block."""

    def test_first_family_three_block_layout(self):
        m = build_Mtilde(R4, 1, 2, 4, 1)
        shown = [[str(e) if e else "0" for e in row] for row in m]
        assert shown == [
            ["x[4,1]", "x[4,2]", "0", "0", "0", "0"],
            ["x[1,2]", "x[1,3]", "x[1,4]", "0", "0", "0"],
            ["x[2,2]", "x[2,3]", "x[2,4]", "x[1,1]", "x[1,2]", "x[1,3]"],
            ["x[3,2]", "x[3,3]", "x[3,4]", "x[2,1]", "x[2,2]", "x[2,3]"],
            ["0", "0", "0", "x[3,1]", "x[3,2]", "x[3,3]"],
            ["0", "0", "0", "x[4,1]", "x[4,2]", "x[4,3]"],
        ]

    def test_second_family_three_block_layout(self):
        m = build_Mtilde(R4, 2, 3, 1, 2)
        shown = [[str(e) if e else "0" for e in row] for row in m]
        assert shown == [
            ["x[1,2]", "x[1,3]", "x[1,4]", "0", "0", "0"],
            ["x[2,2]", "x[2,3]", "x[2,4]", "0", "0", "0"],
            ["x[3,2]", "x[3,3]", "x[3,4]", "x[2,1]", "x[2,2]", "x[2,3]"],
            ["x[4,2]", "x[4,3]", "x[4,4]", "x[3,1]", "x[3,2]", "x[3,3]"],
            ["0", "0", "0", "x[4,1]", "x[4,2]", "x[4,3]"],
            ["0", "0", "0", "0", "x[1,3]", "x[1,4]"],
        ]

    def test_trailing_corner_recovers_two_block_matrix(self):
        # Deleting the leading rows and columns of the glued matrix at
        # (1,2) lands on the plain two-block matrix of the other family.
        big = build_Mtilde(R4, 2, 3, 1, 2)
        small = build_Mtilde(R4, 2, 3, 3, 1)
        t = 3
        assert [row[t:] for row in big[t:]] == small

    def test_three_block_only_at_matching_family(self):
        # beta = n/2 affects the first family only; the second family
        # at the same pair keeps its two blocks.
        m = build_Mtilde(R4, 1, 2, 1, 3)
        assert len(m) == 2 + 3
        m2 = build_Mtilde(R4, 2, 3, 3, 1)
        assert len(m2) == 2 + 1


class TestReplacements:
    def test_col_replace_single_entry(self):
        assert col_replace(R3.x(3, 1), 1, 2) == R3.x(3, 2)

    def test_col_replace_absent_column(self):
        f = determinant(build_M(R3, 1, 2))
        assert col_replace(f, 1, 3).is_zero()

    def test_col_replace_repeated_column_kills_minor(self):
        f = determinant(build_M(R3, 1, 2))
        assert col_replace(f, 2, 3).is_zero()

    def test_row_replace_single_entry(self):
        assert row_replace(R3.x(1, 3), 1, 2) == R3.x(2, 3)

    def test_minor_arrows(self):
        # Stepping the first row of the minor at (2,1) up, and the last
        # column of the 1x1 minors at (3,1) and (1,3) out by one.
        up = row_replace(determinant(build_M(R3, 2, 1)), 2, 1)
        expect = determinant(
            [[R3.x(1, 1), R3.x(1, 2)], [R3.x(3, 1), R3.x(3, 2)]]
        )
        assert up == expect
        assert col_replace(determinant(build_M(R3, 3, 1)), 1, 2) == R3.x(3, 2)
        assert col_replace(determinant(build_M(R3, 1, 3)), 3, 2) == R3.x(1, 2)

    def test_arrow_out_of_range(self):
        f = determinant(build_M(R3, 1, 1))
        with pytest.raises(IndexOutOfRange):
            row_replace(f, 1, 0)
        with pytest.raises(IndexOutOfRange):
            col_replace(f, 3, 4)

    def test_arrows_agree_with_replacements(self):
        x = R3.x
        f = determinant(build_M(R3, 2, 1))
        assert col_replace(f, 2, 3) == determinant([[x(2, 1), x(2, 3)], [x(3, 1), x(3, 3)]])
        g = determinant(build_M(R3, 1, 2))
        assert row_replace(g, 2, 3) == determinant([[x(1, 2), x(1, 3)], [x(3, 2), x(3, 3)]])

    def test_diagonal_is_the_degree_weighted_function(self):
        # Euler's identity: col_replace(f, i, i) is f with each term times
        # its degree in column i, and row_replace(f, i, i) with its degree
        # in row i, which is also sum_k x[k,i] df/dx[k,i] (x[i,k] df/dx[i,k]
        # for rows); the tables hold no diagonal entry.
        rng = random.Random(31)
        funcs = [determinant(build_M(R4, i, j)) for i in range(1, 5) for j in range(1, 5)]
        funcs.append(determinant(build_Mtilde(R4, 1, 3, 4, 1)))
        for _ in range(20):
            p = R4.zero
            for _ in range(rng.randint(1, 4)):
                mono = R4.const(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)))
                for _ in range(rng.randint(0, 4)):
                    mono = mono * R4.x(rng.randint(1, 4), rng.randint(1, 4))
                p = p + mono
            funcs.append(p)
        idx = range(1, 5)
        for f in funcs:
            F, Fp, _, _ = _replacement_tables(f)
            for i in idx:
                assert F[i - 1][i - 1] is None and Fp[i - 1][i - 1] is None
                for rows, got in ((False, col_replace(f, i, i)), (True, row_replace(f, i, i))):
                    var = [("x", i, k) if rows else ("x", k, i) for k in idx]
                    weighted = {}
                    for m, c in f._d.items():
                        deg = sum(R4.monomial_exponents(m).get(v, 0) for v in var)
                        if deg:
                            weighted[m] = c * deg
                    euler = sum((R4.x(*v[1:]) * partial_derivative(f, v) for v in var), R4.zero)
                    assert got == Poly(R4, weighted) == euler, (str(f), i, rows)

    def test_overflow_guard(self):
        # d/dx[1,1] of x[1,1] x[1,2]^127, times x[1,2], reaches x[1,2]^128.
        # Both maps read one table pass, so row_replace raises too.
        f = R3.x(1, 1) * R3.x(1, 2) ** 127
        with pytest.raises(ExponentOverflow):
            col_replace(f, 1, 2)
        with pytest.raises(ExponentOverflow):
            row_replace(f, 1, 1)

    def test_shift_variant_first_family(self):
        m = build_Mtilde_shift(R4, 2, 3, 3, 1)
        plain = build_Mtilde(R4, 2, 3, 3, 1)
        assert m[1:] == plain[1:]
        assert str(m[0][0]) == "x[2,1]"
        assert str(plain[0][0]) == "x[3,1]"

    def test_shift_variant_second_family(self):
        m = build_Mtilde_shift(R4, 1, 2, 1, 3)
        plain = build_Mtilde(R4, 1, 2, 1, 3)
        assert [r[1:] for r in m] == [r[1:] for r in plain]
        assert str(m[0][0]) == "x[1,2]"
        assert str(plain[0][0]) == "x[1,3]"

    def test_shift_variant_rejects_ordinary_labels(self):
        with pytest.raises(IndexNotSpecial):
            build_Mtilde_shift(R4, 2, 3, 2, 1)


def _layout_lines(n):
    """One line per builder call on every label 0..n+1 (so out-of-range
    ones too) and every ordered pair of distinct roots, with the rendered
    matrix, the trailing rectangle, or the name of the error raised."""
    ring = PolyRing(n)

    def show(build, *args):
        try:
            out = build(ring, *args)
        except (IndexNotSpecial, IndexOutOfRange) as e:
            return type(e).__name__
        if isinstance(out, tuple):
            rows, cols = out
            return f"{rows[0]}..{rows[-1]}x{cols[0]}..{cols[-1]}"
        return ";".join(",".join(str(e) if e else "0" for e in row) for row in out)

    pairs = [(a, b) for a in range(1, n) for b in range(1, n) if a != b]
    for i in range(n + 2):
        for j in range(n + 2):
            yield f"M {n} {i} {j} {show(build_M, i, j)}"
            yield f"S {n} {i} {j} {show(lambda r, *a: _trailing(r.n, *a), i, j)}"
            for a, b in pairs:
                yield f"T {n} {a} {b} {i} {j} {show(build_Mtilde, a, b, i, j)}"
                yield f"U {n} {a} {b} {i} {j} {show(build_Mtilde_shift, a, b, i, j)}"


def test_layout_digest_unchanged():
    # Recorded before the block matrices were described as chains of X
    # blocks; every layout for n <= 7 must stay the same.
    text = "\n".join(line for n in range(2, 8) for line in _layout_lines(n))
    assert hashlib.sha256(text.encode()).hexdigest() == LAYOUT_DIGEST
