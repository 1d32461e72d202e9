"""Matrices of polynomials: determinants, trailing minors, block matrices.

The cluster functions of interest are all determinants of submatrices
of an n-by-n matrix of indeterminates X (and, for the two special
families, of 2x2-block matrices glued from two submatrices of X).  This
module knows how to build those matrices and take their determinants.
Both kinds are chains of X blocks placed by one routine, _glue: a
trailing minor is a chain of one block.

It also holds the column and row replacement maps, which replace a
column or row of a minor by another.  One pass over a polynomial's
terms gives all of them at once, as the tables F = (grad f) X and
F' = X (grad f) that the Sklyanin bracket is built from;
col_replace and row_replace each read one entry of those tables.  The
pass makes no diagonal entry: by Euler's identity F[i][i] (F'[i][i])
is f with each term times its degree in column (row) i, so the maps
read those from f's degree classes, as the bracket does.

Each minor of a determinant is one PolyRing.accumulate over its first
row's (entry, subminor) products, memoized on its column set.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .polyring import Poly, PolyRing

Matrix = List[List[Poly]]


class NotSquare(ValueError):
    """Raised when a determinant of a non-square matrix is requested."""


class IndexOutOfRange(IndexError):
    """Raised when a matrix or minor index leaves the valid 1..n range."""


class IndexNotSpecial(ValueError):
    """Raised when a 2x2-block minor is requested at a non-special label."""


def determinant(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant by Laplace expansion, memoized on the active column set.

    Memoization keys on the bitmask of surviving columns, which fixes the
    depth, so shared subminors across expansion branches are computed
    once.  Each minor is one PolyRing.accumulate over the (entry,
    subminor, +-1) products of its first row, with no running sum.
    """
    k = len(rows)
    for r in rows:
        if len(r) != k:
            raise NotSquare(f"matrix is {k}x{len(r)}")
    if k == 0:
        raise NotSquare("empty matrix has no determinant")
    ring = rows[0][0].ring
    # Term dicts of the minors on the surviving columns; no column left is 1.
    memo = {0: ring.one._d}

    def expand(depth: int, colmask: int):
        cached = memo.get(colmask)
        if cached is not None:
            return cached
        row = rows[depth]
        products = []
        sign = 1
        mask = colmask
        while mask:
            low = mask & -mask
            entry = row[low.bit_length() - 1]
            if entry:
                products.append((entry._d, expand(depth + 1, colmask ^ low), sign))
            sign = -sign
            mask ^= low
        acc = ring.accumulate(products)
        memo[colmask] = acc if 0 not in acc.values() else {m: c for m, c in acc.items() if c}
        return memo[colmask]

    return Poly(ring, expand(0, (1 << k) - 1))


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
    """Submatrix of X whose determinant is the cluster function at (i, j):
    the chain of the one block _trailing gives."""
    return _glue(ring, [_trailing(ring.n, i, j)], True)


def first_family(n: int, alpha: int) -> List[tuple]:
    """Labels (n+k-alpha, k) for k = 1..alpha."""
    return [(n + k - alpha, k) for k in range(1, alpha + 1)]


def second_family(n: int, beta: int) -> List[tuple]:
    """Labels (m, n+m-beta) for m = 1..beta: first_family(n, beta)
    transposed."""
    return [(j, i) for i, j in first_family(n, beta)]


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
    if (i, j) in first_family(n, alpha):
        head = (range(i, n + 1), range(j, alpha + 2))
        return [head, y] + ([low] if n == 2 * beta else []), True
    if (i, j) in second_family(n, beta):
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


def _replacement_tables(f: Poly):
    """F and F' of f off the diagonal from one pass over its terms, as
    term dicts, with 1-based F[i][j] the terms of col_replace(f, i, j) and
    F'[i][j] those of row_replace(f, j, i) for i != j, and None on the
    diagonal; f's degree classes {(column degrees, row degrees): {monomial:
    coefficient}}; and the packed key of f's maximum exponent in each
    variable.

    A term c*m holding x[a,b]^e differentiates to c*e*m/x[a,b], so it
    adds c*e*m*x[a,t]/x[a,b] to F[b][t] and c*e*m*x[t,b]/x[a,b] to
    F'[t][a] for every t; each is one shift of the packed key.  The
    diagonal entries F[b][b] and F'[a][a] are f with each term times its
    degree in column b or row a (Euler's identity), which the degree
    classes hold, so the pass skips t = b and t = a.
    """
    ring = f.ring
    n = ring.n
    unit = ring.x_units
    F = [[{} for _ in range(n)] for _ in range(n)]
    # Fp_t[a][t] accumulates F'[t][a].
    Fp_t = [[{} for _ in range(n)] for _ in range(n)]
    # For x[a,b]: (entry, key of x[a,t] or x[t,b]) for every t off the diagonal.
    targets = [
        [(F[b][t], unit[a * n + t]) for t in range(n) if t != b]
        + [(Fp_t[a][t], unit[t * n + b]) for t in range(n) if t != a]
        for a in range(n)
        for b in range(n)
    ]
    classes: dict = {}
    for m, c in f._d.items():
        exps = ring.x_exponents(m)
        cdeg = tuple(sum(exps[b::n]) for b in range(n))
        rdeg = tuple(sum(exps[a * n : a * n + n]) for a in range(n))
        classes.setdefault((cdeg, rdeg), {})[m] = c
        for k, e in enumerate(exps):
            if not e:
                continue
            base = m - unit[k]
            ce = c * e
            for acc, u in targets[k]:
                key = base + u
                acc[key] = acc.get(key, 0) + ce
    # Each key is m / x[a,b] plus the key of x[a,t], so the guard applies.
    tables = (F, [list(col) for col in zip(*Fp_t)])
    ring.check_exponents(key for T in tables for row in T for acc in row for key in acc)
    return *(
        [
            [None if i == j else {k: v for k, v in acc.items() if v} if 0 in acc.values() else acc
             for j, acc in enumerate(row)]
            for i, row in enumerate(T)
        ]
        for T in tables
    ), classes, ring.top(f._d)


def _replacement(f: Poly, i: int, j: int, rows: bool) -> Poly:
    """F[i][j] of f, or F'[j][i] when rows is set, 1-based.  On the
    diagonal that is f with each term times its degree in column i (row i
    when rows is set), read from the degree classes."""
    n = f.ring.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexOutOfRange(f"{'row' if rows else 'column'} index outside 1..{n}")
    F, Fp, classes, _ = _replacement_tables(f)
    if i != j:
        return Poly(f.ring, Fp[j - 1][i - 1] if rows else F[i - 1][j - 1])
    side = 1 if rows else 0
    return Poly(f.ring, {m: c * degs[side][i - 1] for degs, part in classes.items() if degs[side][i - 1]
                         for m, c in part.items()})


def col_replace(f: Poly, i: int, j: int) -> Poly:
    """The polynomial sum_k (df/dx[k,i]) * x[k,j].

    When f is the determinant of a submatrix of X using column i exactly
    once, this is the same determinant with column i replaced by column j.
    """
    return _replacement(f, i, j, False)


def row_replace(f: Poly, i: int, j: int) -> Poly:
    """The polynomial sum_k (df/dx[i,k]) * x[j,k].

    Replaces row i of a determinant by row j, in the same sense as
    col_replace.
    """
    return _replacement(f, i, j, True)
