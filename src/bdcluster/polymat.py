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
pass reads a template made once per size n (_template), which lists for
each variable every off-diagonal entry it reaches with its key delta,
and visits only the variables a term holds, so a pass costs per term,
not per entry of the size.  The pass makes no diagonal entry: by
Euler's identity F[i][i] (F'[i][i]) is f with each term times its
degree in column (row) i, so the maps read those from f's degree
classes, as the bracket does.  The tables are keyed by polyring's
4-bit table keys, so the pass takes a polynomial in x alone with no
exponent above 6, as every seed function, coordinate and one-step
exchanged variable is, and refuses any other with a ValueError.

Each minor of a determinant is one PolyRing.accumulate over its first
row's (entry, subminor) products, memoized on its column set.
"""

from __future__ import annotations

from functools import cache
from itertools import compress
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


@cache
def _template(ring: PolyRing):
    """The table pass's template for the ring's size n, in table keys, made
    once per n: for each variable x[a,b] in nibble_units order, (b, a,
    targets), targets listing (slot, delta) for every off-diagonal entry
    of F and F' that x[a,b] reaches, slot b*n + t for F[b][t] and n*n +
    t*n + a for F'[t][a], and delta the table key of x[a,t] (x[t,b] for
    F') less that of x[a,b]."""
    n, unit = ring.n, ring.nibble_units
    return tuple(
        (b, a, tuple([(b * n + t, unit[a * n + t] - unit[a * n + b]) for t in range(n) if t != b]
                     + [(n * n + t * n + a, unit[t * n + b] - unit[a * n + b]) for t in range(n) if t != a]))
        for a in range(n)
        for b in range(n)
    )


def _replacement_tables(f: Poly):
    """F and F' of f off the diagonal from one pass over its terms, as
    term dicts keyed by table keys (PolyRing.nibble_key), with 1-based
    F[i][j] the terms of col_replace(f, i, j) and F'[i][j] those of
    row_replace(f, j, i) for i != j, and None on the diagonal; and f's
    degree classes {(column degrees, row degrees): {table key:
    coefficient}}.  Raises ValueError when f does not fit table keys
    (PolyRing.fits_nibbles): it must be a polynomial in x alone with no
    exponent above 6.  Each term's key is made once, and every entry key
    is it plus a template delta; an entry raises one exponent by 1, to at
    most 7, so no key carries into its neighbour.

    A term c*m holding x[a,b]^e differentiates to c*e*m/x[a,b], so it
    adds c*e*m*x[a,t]/x[a,b] to F[b][t] and c*e*m*x[t,b]/x[a,b] to
    F'[t][a] for every t; each is m plus one delta of the size's
    template (_template), and the pass visits only the variables a term
    holds, summing its column and row degrees on the way.  The diagonal
    entries F[b][b] and F'[a][a] are f with each term times its degree in
    column b or row a (Euler's identity), which the degree classes hold,
    so the pass skips t = b and t = a.
    """
    ring = f.ring
    n = ring.n
    if not ring.fits_nibbles(ring.top(f._d)):
        raise ValueError("gradient tables need a polynomial in x alone with no exponent above 6")
    template = _template(ring)
    # F[i][j] accumulates in entries[i*n + j] and F'[i][j] in entries[n*n + i*n + j].
    entries = [{} for _ in range(2 * n * n)]
    classes: dict = {}
    variables = range(n * n)
    for m, c in f._d.items():
        cdeg, rdeg = [0] * n, [0] * n
        exps = ring.x_exponents(m)
        key = ring.nibble_key(exps)
        for k in compress(variables, exps):
            e = exps[k]
            b, a, targets = template[k]
            cdeg[b] += e
            rdeg[a] += e
            ce = c * e
            for slot, delta in targets:
                acc = entries[slot]
                made = key + delta
                acc[made] = acc.get(made, 0) + ce
        classes.setdefault((tuple(cdeg), tuple(rdeg)), {})[key] = c
    for s, acc in enumerate(entries):
        if 0 in acc.values():
            entries[s] = {k: v for k, v in acc.items() if v}
    rows = [entries[i : i + n] for i in range(0, 2 * n * n, n)]
    for i in range(n):
        rows[i][i] = rows[n + i][i] = None
    return rows[:n], rows[n:], classes


def _replacement(f: Poly, i: int, j: int, rows: bool) -> Poly:
    """F[i][j] of f, or F'[j][i] when rows is set, 1-based.  On the
    diagonal that is f with each term times its degree in column i (row i
    when rows is set), read from the degree classes."""
    n = f.ring.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexOutOfRange(f"{'row' if rows else 'column'} index outside 1..{n}")
    F, Fp, classes = _replacement_tables(f)
    if i != j:
        terms = Fp[j - 1][i - 1] if rows else F[i - 1][j - 1]
    else:
        side = 1 if rows else 0
        terms = {m: c * degs[side][i - 1] for degs, part in classes.items() if degs[side][i - 1]
                 for m, c in part.items()}
    return Poly(f.ring, f.ring.from_nibbles(terms))


def col_replace(f: Poly, i: int, j: int) -> Poly:
    """The polynomial sum_k (df/dx[k,i]) * x[k,j].

    When f is the determinant of a submatrix of X using column i exactly
    once, this is the same determinant with column i replaced by column j.
    It reads the table pass, so f must be a polynomial in x alone with no
    exponent above 6 (ValueError otherwise).
    """
    return _replacement(f, i, j, False)


def row_replace(f: Poly, i: int, j: int) -> Poly:
    """The polynomial sum_k (df/dx[i,k]) * x[j,k].

    Replaces row i of a determinant by row j, in the same sense as
    col_replace, and refuses the same polynomials.
    """
    return _replacement(f, i, j, True)
