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
from typing import List, Sequence, Tuple

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


def _trailing(n: int, i: int, j: int) -> Tuple[range, range]:
    """Rows and columns of the largest square submatrix of X with
    upper-left corner (i, j): rows i..n-j+i and columns j..n for j > i,
    rows i..n and columns j..n-i+j for j <= i."""
    _check_label(n, i, j)
    if j > i:
        return range(i, n - j + i + 1), range(j, n + 1)
    return range(i, n + 1), range(j, n - i + j + 1)


def build_M(ring: PolyRing, i: int, j: int) -> Matrix:
    """Submatrix of X whose determinant is the cluster function at (i, j)."""
    rows, cols = _trailing(ring.n, i, j)
    return [[ring.x(r, c) for c in cols] for r in rows]


def first_family(n: int, alpha: int, beta: int) -> List[tuple]:
    """Labels (n+k-alpha, k) for k = 1..alpha."""
    return [(n + k - alpha, k) for k in range(1, alpha + 1)]


def second_family(n: int, alpha: int, beta: int) -> List[tuple]:
    """Labels (m, n+m-beta) for m = 1..beta."""
    return [(m, n + m - beta) for m in range(1, beta + 1)]


def _chain(n: int, alpha: int, beta: int, i: int, j: int):
    """The X blocks (rows, cols) glued into the matrix at a special label,
    and whether the first two share columns (else rows).

    The chain starts with the head block at the label: X rows i..n,
    columns j..alpha+1 for the first family (i = n+j-alpha), X rows
    i..beta+1, columns j..n for the second (j = n+i-beta).  A
    first-family head is followed by the Y block X[1..n-beta, beta..n],
    a second-family head by the low block X[alpha..n, 1..n-alpha].  When
    n = 2*beta the label (1, beta+1) is itself special, so Y grows to
    rows 1..beta+1 and the low block follows it; symmetrically, when
    n = 2*alpha the low block grows to columns 1..alpha+1 and Y follows
    it.  Y and low name blocks only; every entry is an x variable.
    """
    _check_label(n, i, j)
    y = (range(1, (beta + 1 if n == 2 * beta else n - beta) + 1), range(beta, n + 1))
    low = (range(alpha, n + 1), range(1, (alpha + 1 if n == 2 * alpha else n - alpha) + 1))
    if j <= alpha and i == n + j - alpha:
        head = (range(i, n + 1), range(j, alpha + 2))
        return [head, y] + ([low] if n == 2 * beta else []), True
    if i <= beta and j == n + i - beta:
        head = (range(i, beta + 2), range(j, n + 1))
        return [head, low] + ([y] if n == 2 * alpha else []), False
    raise IndexNotSpecial(
        f"({i},{j}) is not a special label for alpha={alpha}, beta={beta}"
    )


def _glue(ring: PolyRing, blocks, share_cols: bool) -> Matrix:
    """Place each block so it shares two grid columns with the block
    before it, then two grid rows, alternating; zeros elsewhere."""
    top = left = 0
    placed = []
    for k, (rows, cols) in enumerate(blocks):
        if k:
            prev_rows, prev_cols = blocks[k - 1]
            top += len(prev_rows) - (0 if share_cols else 2)
            left += len(prev_cols) - (2 if share_cols else 0)
            share_cols = not share_cols
        placed.append((top, left, rows, cols))
    size = top + len(rows)
    grid = [[ring.zero] * size for _ in range(size)]
    for top, left, rows, cols in placed:
        for r, xr in enumerate(rows):
            grid[top + r][left : left + len(cols)] = [ring.x(xr, xc) for xc in cols]
    return grid


def build_Mtilde(
    ring: PolyRing,
    alpha: int,
    beta: int,
    i: int,
    j: int,
) -> Matrix:
    """Block matrix for a special label of the (alpha, beta) structure:
    the chain of X blocks of _chain, glued.

    For example, the first-family label (i, j) away from n = 2*beta
    gives X rows i..n, columns j..alpha+1 in the upper left, glued over
    its last two columns to X rows 1..n-beta, columns beta..n.
    """
    return _glue(ring, *_chain(ring.n, alpha, beta, i, j))


def build_Mtilde_shift(
    ring: PolyRing,
    alpha: int,
    beta: int,
    i: int,
    j: int,
) -> Matrix:
    """The block matrix of build_Mtilde with its leading line stepped out.

    For a first-family label the first grid row (row i of the leading
    block) is rewritten with row i-1; for a second-family label the
    first grid column (column j of the leading block) is rewritten
    with column j-1.  This is the block-matrix form of the one-step
    row/column replacement maps on minors, and it is what the glued
    determinants of a coincidence structure (n = 2*alpha or n = 2*beta)
    expand along.  Special labels always leave room for the step: the
    first family has i >= 2 and the second family j >= 2.
    """
    blocks, share_cols = _chain(ring.n, alpha, beta, i, j)
    rows, cols = blocks[0]
    if share_cols:
        blocks[0] = ([i - 1, *rows[1:]], cols)
    else:
        blocks[0] = (rows, [j - 1, *cols[1:]])
    return _glue(ring, blocks, share_cols)


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
    rows, cols = _trailing(ring.n, i, j)
    return Minor(ring, rows[0], rows[-1], cols[0], cols[-1])
