"""Matrices of polynomials: determinants, trailing minors, and shifts.

The cluster functions of interest are all determinants of submatrices
of an n-by-n matrix of indeterminates X (and, for the two special
families, of 2x2-block matrices glued from two submatrices of X).  This
module knows how to build those matrices and take their determinants,
and provides the "replace a column/row of a minor by a neighbouring
one" operators that show up throughout the bracket computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence

from .polyring import Poly, PolyRing, partial_derivative

Matrix = List[List[Poly]]


class NotSquare(ValueError):
    """Raised when a determinant of a non-square matrix is requested."""


class IndexOutOfRange(IndexError):
    """Raised when a matrix or minor index leaves the valid 1..n range."""


class IndexNotSpecial(ValueError):
    """Raised when a 2x2-block minor is requested at a non-special label."""


def determinant(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant by Laplace expansion, memoized on the active column set.

    Memoization keys on (depth, frozen bitmask of surviving columns), so
    shared subminors across expansion branches are computed once.
    """
    k = len(rows)
    for r in rows:
        if len(r) != k:
            raise NotSquare(f"matrix is {k}x{len(r)}")
    if k == 0:
        raise NotSquare("empty matrix has no determinant")
    ring = rows[0][0].ring
    all_cols = (1 << k) - 1

    memo = {}

    def expand(depth: int, colmask: int) -> Poly:
        if depth == k:
            return ring.one
        key = colmask
        cached = memo.get(key)
        if cached is not None:
            return cached
        row = rows[depth]
        total = ring.zero
        sign = 1
        mask = colmask
        while mask:
            low = mask & -mask
            c = low.bit_length() - 1
            entry = row[c]
            if entry:
                sub = expand(depth + 1, colmask ^ low)
                total = total + entry * sub if sign > 0 else total - entry * sub
            sign = -sign
            mask ^= low
        memo[key] = total
        return total

    return expand(0, all_cols)


def _check_label(n: int, i: int, j: int) -> None:
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexOutOfRange(f"label ({i},{j}) outside 1..{n}")


def build_M(ring: PolyRing, i: int, j: int) -> Matrix:
    """Submatrix of X whose determinant is the cluster function at (i, j).

    For j > i it consists of rows i..n-j+i and columns j..n; for j <= i
    of rows i..n and columns j..n-i+j.  Either way the (1,1) entry is
    x[i,j] and the matrix is square.
    """
    n = ring.n
    _check_label(n, i, j)
    if j > i:
        rows = range(i, n - j + i + 1)
        cols = range(j, n + 1)
    else:
        rows = range(i, n + 1)
        cols = range(j, n - i + j + 1)
    return [[ring.x(r, c) for c in cols] for r in rows]


def first_family(n: int, alpha: int, beta: int) -> List[tuple]:
    """Labels (n+k-alpha, k) for k = 1..alpha."""
    return [(n + k - alpha, k) for k in range(1, alpha + 1)]


def second_family(n: int, alpha: int, beta: int) -> List[tuple]:
    """Labels (m, n+m-beta) for m = 1..beta."""
    return [(m, n + m - beta) for m in range(1, beta + 1)]


def build_Mtilde(
    ring: PolyRing,
    alpha: int,
    beta: int,
    i: int,
    j: int,
) -> Matrix:
    """Block matrix for a special label of the (alpha, beta) structure.

    First family (i = n+j-alpha, j <= alpha): an X block of rows i..n,
    columns j..alpha+1 in the upper left, glued over its last two
    columns to a Y block of rows 1..n-beta, columns beta..n.  Second
    family (j = n+i-beta, i <= beta): a Y block of rows i..beta+1,
    columns j..n in the upper left, glued over its last two rows to an
    X block of rows alpha..n, columns 1..n-alpha.

    When n = 2*beta the label (1, beta+1) heading the second family is
    itself a removed border label, so every first-family matrix picks
    up a third block: the Y block grows to rows 1..beta+1, columns
    beta..n and is glued over its last two rows to a trailing X block
    of rows alpha..n, columns 1..n-alpha.  Symmetrically, when
    n = 2*alpha every second-family matrix ends with a trailing Y
    block of rows 1..n-beta, columns beta..n glued over the last two
    columns of the middle X block (rows alpha..n, columns 1..alpha+1).

    Y names the second kind of block only; its entries are x variables.
    """
    n = ring.n
    _check_label(n, i, j)
    zero = ring.zero

    if j <= alpha and i == n + j - alpha:
        xrows = n - i + 1          # = alpha - j + 1
        if n == 2 * beta:
            # Three blocks: X rows i..n over the square Y block over
            # X rows alpha..n.
            size = n + beta + 1 - j
            grid = [[zero] * size for _ in range(size)]
            for r in range(xrows):
                for c in range(xrows + 1):
                    grid[r][c] = ring.x(i + r, j + c)
            for r in range(beta + 1):
                for c in range(beta + 1):
                    grid[xrows + r][xrows - 1 + c] = ring.x(1 + r, beta + c)
            base = xrows + beta - 1
            for r in range(n - alpha + 1):
                for c in range(n - alpha):
                    grid[base + r][xrows + beta + c] = ring.x(alpha + r, 1 + c)
            return grid
        # First family: X rows i..n over Y rows 1..n-beta.
        yrows = n - beta
        size = xrows + yrows
        grid = [[zero] * size for _ in range(size)]
        # X block: columns j..alpha+1 occupy grid columns 0..xrows.
        for r in range(xrows):
            for c in range(xrows + 1):
                grid[r][c] = ring.x(i + r, j + c)
        # Y block: columns beta..n occupy grid columns xrows-1..size-1.
        for r in range(yrows):
            for c in range(yrows + 1):
                grid[xrows + r][xrows - 1 + c] = ring.x(1 + r, beta + c)
        return grid

    if i <= beta and j == n + i - beta:
        ycols = n - j + 1          # = beta - i + 1
        if n == 2 * alpha:
            # Three blocks: Y columns j..n, then the square X block,
            # then Y columns beta..n.
            size = n + alpha + 1 - i
            grid = [[zero] * size for _ in range(size)]
            for r in range(ycols + 1):
                for c in range(ycols):
                    grid[r][c] = ring.x(i + r, j + c)
            for r in range(alpha + 1):
                for c in range(alpha + 1):
                    grid[ycols - 1 + r][ycols + c] = ring.x(alpha + r, 1 + c)
            base = ycols + alpha - 1
            for r in range(n - beta):
                for c in range(n - beta + 1):
                    grid[ycols + alpha + r][base + c] = ring.x(1 + r, beta + c)
            return grid
        # Second family: Y columns j..n to the left of X columns 1..n-alpha.
        xcols = n - alpha
        size = ycols + xcols
        grid = [[zero] * size for _ in range(size)]
        # Y block: rows i..beta+1 occupy grid rows 0..ycols.
        for r in range(ycols + 1):
            for c in range(ycols):
                grid[r][c] = ring.x(i + r, j + c)
        # X block: rows alpha..n occupy grid rows ycols-1..size-1.
        for r in range(xcols + 1):
            for c in range(xcols):
                grid[ycols - 1 + r][ycols + c] = ring.x(alpha + r, 1 + c)
        return grid

    raise IndexNotSpecial(
        f"({i},{j}) is not a special label for alpha={alpha}, beta={beta}"
    )


def build_Mtilde_shift(
    ring: PolyRing,
    alpha: int,
    beta: int,
    i: int,
    j: int,
) -> Matrix:
    """The block matrix of build_Mtilde with its leading line stepped out.

    For a first-family label the first grid row (row i of the leading X
    block) is rewritten with row i-1; for a second-family label the
    first grid column (column j of the leading Y block) is rewritten
    with column j-1.  This is the block-matrix form of the one-step
    row/column replacement maps on minors, and it is what the glued
    determinants of a coincidence structure (n = 2*alpha or n = 2*beta)
    expand along.
    """
    n = ring.n
    grid = build_Mtilde(ring, alpha, beta, i, j)
    # Valid special labels always leave room for the step: the first
    # family has i >= n+1-alpha >= 2 and the second family j >= 2.
    if j <= alpha and i == n + j - alpha:
        xrows = n - i + 1
        for c in range(xrows + 1):
            grid[0][c] = ring.x(i - 1, j + c)
        return grid
    ycols = n - j + 1
    for r in range(ycols + 1):
        grid[r][0] = ring.x(i + r, j - 1)
    return grid


def col_replace(f: Poly, i: int, j: int) -> Poly:
    """The polynomial sum_k (df/dx[k,i]) * x[k,j].

    When f is the determinant of a submatrix of X using column i exactly
    once, this is the same determinant with column i replaced by column j.
    """
    ring = f.ring
    n = ring.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexOutOfRange(f"column index outside 1..{n}")
    out = ring.zero
    for k in range(1, n + 1):
        d = partial_derivative(f, ("x", k, i))
        if d:
            out = out + d * ring.x(k, j)
    return out


def row_replace(f: Poly, i: int, j: int) -> Poly:
    """The polynomial sum_k (df/dx[i,k]) * x[j,k].

    Replaces row i of a determinant by row j, in the same sense as
    col_replace.
    """
    ring = f.ring
    n = ring.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexOutOfRange(f"row index outside 1..{n}")
    out = ring.zero
    for k in range(1, n + 1):
        d = partial_derivative(f, ("x", i, k))
        if d:
            out = out + d * ring.x(j, k)
    return out


@dataclass(frozen=True)
class Minor:
    """A contiguous minor det X[row_lo..row_hi, col_lo..col_hi] of X.

    The arrow methods shift one boundary line of the rectangle by one:
    right() swaps the last column col_hi for col_hi+1, left() swaps the
    first column col_lo for col_lo-1, down() swaps the last row, up()
    the first row.
    """

    ring: PolyRing
    row_lo: int
    row_hi: int
    col_lo: int
    col_hi: int

    def __post_init__(self):
        n = self.ring.n
        if not (1 <= self.row_lo <= self.row_hi <= n and 1 <= self.col_lo <= self.col_hi <= n):
            raise IndexOutOfRange(
                f"minor rows {self.row_lo}..{self.row_hi}, cols {self.col_lo}..{self.col_hi} "
                f"outside 1..{n}"
            )
        if self.row_hi - self.row_lo != self.col_hi - self.col_lo:
            raise NotSquare("minor rectangle is not square")

    def det(self) -> Poly:
        return _minor_det(self.ring, self.row_lo, self.row_hi, self.col_lo, self.col_hi)

    def right(self) -> Poly:
        if self.col_hi + 1 > self.ring.n:
            raise IndexOutOfRange("no column to the right of the minor")
        return col_replace(self.det(), self.col_hi, self.col_hi + 1)

    def left(self) -> Poly:
        if self.col_lo - 1 < 1:
            raise IndexOutOfRange("no column to the left of the minor")
        return col_replace(self.det(), self.col_lo, self.col_lo - 1)

    def down(self) -> Poly:
        if self.row_hi + 1 > self.ring.n:
            raise IndexOutOfRange("no row below the minor")
        return row_replace(self.det(), self.row_hi, self.row_hi + 1)

    def up(self) -> Poly:
        if self.row_lo - 1 < 1:
            raise IndexOutOfRange("no row above the minor")
        return row_replace(self.det(), self.row_lo, self.row_lo - 1)


@lru_cache(maxsize=4096)
def _minor_det(ring: PolyRing, row_lo: int, row_hi: int, col_lo: int, col_hi: int) -> Poly:
    return determinant(
        [
            [ring.x(r, c) for c in range(col_lo, col_hi + 1)]
            for r in range(row_lo, row_hi + 1)
        ]
    )


def standard_minor(ring: PolyRing, i: int, j: int) -> Minor:
    """The Minor whose determinant is the standard cluster function at (i, j)."""
    n = ring.n
    _check_label(n, i, j)
    if j > i:
        return Minor(ring, i, n - j + i, j, n)
    return Minor(ring, i, n, j, n - i + j)
