"""Independent oracles that only the tests call; the package never does.

theta and psi are the paper's closed forms of the block-minor cluster
functions, built from trailing minors and the replacement maps;
build_Mtilde_shift is the block matrix with its leading line stepped
out, along which the coincidence structures (n = 2*alpha or n = 2*beta)
expand; evaluate substitutes rational values for the variables of a
polynomial; heap_exact_divide is exact division by a heap of every
remainder monomial, the package's earlier algorithm; derivative_tables
builds a function's gradient tables and degree classes from
partial_derivative, variable by variable; class_pairing
derives the bracket's products per pair from the tables' degree classes
and the operator, in either half R_+ or R_- = R_+ - id, as the package
did before its tables carried them; tensor_pairing reads the same
bracket's products off the r tensor; unpack maps the 4-bit table keys of
the package's gradient tables back to ring keys byte by byte from
x_units, and ring_keyed does so for a product list; whole_pair_sums is
the pair test on class_pairing's products summed in one dict, in ring
keys, as the package did before it summed one first-row slice at a time;
cybe_all_pairs expands the Yang-Baxter bracket [[r,r]] over every pair
of r's terms, as the package did before it paired index-matching terms
only.  Each is a second path to something the package computes one way
(block determinants, exact identities, exact division, the table pass,
the bracket's products, the table keys, the pair test, the Yang-Baxter
check), so a test can compare the two.
"""

from __future__ import annotations

import heapq
from functools import cache
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

from bdcluster.bdseed import BDTriple, InvalidRoot, get_ring
from bdcluster.polymat import (
    Matrix,
    _chain,
    _glue,
    build_M,
    build_Mtilde,
    col_replace,
    determinant,
    row_replace,
)
from bdcluster.poisson import Tables, casimir_tensor, tensor_sum, tensor_transpose
from bdcluster.polyring import NotDivisible, Poly, PolyRing, Scalar, VarId, _normalize_scalar, partial_derivative


class MissingAssignment(LookupError):
    """Raised when evaluation lacks a value for some variable."""

    def __init__(self, missing: Iterable[VarId]):
        self.missing = sorted(missing)
        super().__init__(f"no value assigned to {self.missing}")


def evaluate(p: Poly, assignment: Mapping[VarId, Scalar]) -> Fraction:
    """Evaluate at rational values; every variable occurring in p needs a value."""
    terms = [(c, p.ring.monomial_exponents(m)) for m, c in p._d.items()]
    missing = {v for _, exps in terms for v in exps if v not in assignment}
    if missing:
        raise MissingAssignment(missing)
    total = Fraction(0)
    for c, exps in terms:
        term = Fraction(c)
        for v, e in exps.items():
            term *= Fraction(assignment[v]) ** e
        total += term
    return total


def heap_exact_divide(p: Poly, q: Poly) -> Poly:
    """p / q by leading-term reduction with a max-heap holding every
    remainder monomial; entries that have since cancelled are skipped
    when popped.  Raises NotDivisible at the first remainder term that
    lead(q) does not divide, with the package's message."""
    ring = p.ring
    qlead = max(q._d)
    qlc = q._d[qlead]
    qexps = ring.monomial_exponents(qlead)
    rem = dict(p._d)
    quot = {}
    heap = [-m for m in rem]
    heapq.heapify(heap)
    while heap:
        m = -heapq.heappop(heap)
        c = rem.get(m)
        if not c:
            continue
        exps = ring.monomial_exponents(m)
        if any(exps.get(v, 0) < e for v, e in qexps.items()):
            raise NotDivisible(
                f"remainder term of degree profile {exps} "
                "is not reducible by the divisor's leading term"
            )
        tmono = m - qlead
        if isinstance(c, int) and isinstance(qlc, int):
            tc, r = divmod(c, qlc)
            if r:
                tc = Fraction(c, qlc)
        else:
            tc = Fraction(c) / qlc
            tc = int(tc) if tc.denominator == 1 else tc
        quot[tmono] = tc
        for m2, c2 in q._d.items():
            k = tmono + m2
            v = rem.get(k, 0) - tc * c2
            if v:
                if k not in rem:
                    heapq.heappush(heap, -k)
                rem[k] = v
            else:
                rem.pop(k, None)
    return Poly(ring, quot)


def derivative_tables(f: Poly):
    """(F, F', classes) of f as polymat._replacement_tables gives them,
    in ring keys, from partial_derivative and Poly arithmetic alone,
    0-based: F[b][t] = sum_a x[a,t] df/dx[a,b] and F'[t][a] = sum_b
    x[t,b] df/dx[a,b] as term dicts, None on the diagonal; classes groups
    f's terms by their (column degrees, row degrees) in x, read from
    monomial_exponents."""
    ring = f.ring
    idx = range(ring.n)

    def x(a, b):
        return ring.x(a + 1, b + 1)

    d = {(a, b): partial_derivative(f, ("x", a + 1, b + 1)) for a in idx for b in idx}
    F = [[None if b == t else sum((x(a, t) * d[a, b] for a in idx), ring.zero)._d for t in idx] for b in idx]
    Fp = [[None if t == a else sum((x(t, b) * d[a, b] for b in idx), ring.zero)._d for a in idx] for t in idx]
    classes: dict = {}
    for m, c in f._d.items():
        exps = ring.monomial_exponents(m)
        cols = tuple(sum(exps.get(("x", a + 1, b + 1), 0) for a in idx) for b in idx)
        rows = tuple(sum(exps.get(("x", a + 1, b + 1), 0) for b in idx) for a in idx)
        classes.setdefault((cols, rows), {})[m] = c
    return F, Fp, classes


def _half_lists(op, half: int):
    """(M, off-diagonal entries) of n^2 R_+ (half 0) or of n^2 R_- = n^2
    (R_+ - id) (half 1), derived from R_+ alone (op.halves[0]), never read
    from op.halves[1]: R_- subtracts n^2 from the diagonal of M and
    replaces each strict upper entry (n^2, s, s) by the strict lower
    entries (-n^2, s, s), row by row, before the wedge."""
    n, nn = op.n, op.n * op.n
    plus, entries = op.halves[0]
    if not half:
        return plus, entries
    M = tuple(tuple(v - nn * (k == l) for l, v in enumerate(row)) for k, row in enumerate(plus))
    wedge = [e for e in entries if not (e[1] == e[2] and e[1][0] < e[1][1])]
    lower = [(-nn, (i, j), (i, j)) for i in range(n) for j in range(i)]
    return M, tuple(lower + wedge)


def class_pairing(ta: Tables, tb: Tables, half: int = 0):
    """The products whose sum is n^2 {f, g}, as (diagonal, off_diagonal)
    lists of (terms, terms, weight), derived per pair from the degree
    classes and the operator's R_+ (half 0) or R_- (half 1, _half_lists),
    as the package did before its tables carried the weight vectors and
    off-diagonal factors.

    Class pair (c, d) has weight col(d) M col(c) - row(d) M row(c), M the
    half's diagonal matrix, weight 0 included; each off-diagonal entry (co,
    s, t) gives F_s G_t' with co and F'_s G'_t' with -co, t' = t
    transposed, when both factors are nonzero."""
    M, entries = _half_lists(ta.op, half)
    diagonal = []
    for (cf, rf), part_f in ta.classes.items():
        mc = [sum(mk * e for mk, e in zip(row, cf)) for row in M]
        mr = [sum(mk * e for mk, e in zip(row, rf)) for row in M]
        for (cg, rg), part_g in tb.classes.items():
            w = sum(e * m for e, m in zip(cg, mc)) - sum(e * m for e, m in zip(rg, mr))
            diagonal.append((part_f, part_g, w))
    off_diagonal = []
    for R, H, sign in ((ta.F, tb.F, 1), (ta.Fp, tb.Fp, -1)):
        for co, (si, sj), (ti, tj) in entries:
            a, b = R[si][sj], H[tj][ti]
            if a and b:
                off_diagonal.append((a, b, sign * co))
    return diagonal, off_diagonal


def tensor_pairing(ta: Tables, tb: Tables, rt):
    """The products whose sum is n^2 {f, g}, read off the r tensor rt
    (build_r_tensor) instead of the operator: <R_+(F), G> = sum over rt's
    entries r[(i,j),(k,l)] of r F_ji G_lk, and likewise for F', G' with
    the opposite sign.  An entry on the diagonal, ((k,k),(l,l)), pairs
    F_kk G_ll, and F_kk is the sum of f's classes f_c times col_k(c)
    (rows for F'), so it adds n^2 r (col_k(c) col_l(d) - row_k(c) row_l(d))
    to the weight of class pair (c, d)."""
    n = ta.op.n
    nn = n * n
    diag = {(a[0], b[0]): v for (a, b), v in rt.items() if a[0] == a[1] and b[0] == b[1]}
    diagonal = []
    for (cf, rf), part_f in ta.classes.items():
        for (cg, rg), part_g in tb.classes.items():
            w = sum(v * (cf[k - 1] * cg[l - 1] - rf[k - 1] * rg[l - 1]) for (k, l), v in diag.items()) * nn
            assert w.denominator == 1
            diagonal.append((part_f, part_g, int(w)))
    off_diagonal = []
    for ((i, j), (k, l)), v in rt.items():
        if i == j and k == l:
            continue
        assert i != j and k != l, "an entry mixes a diagonal and an off-diagonal leg"
        co = v * nn
        assert co.denominator == 1
        for R, H, sign in ((ta.F, tb.F, 1), (ta.Fp, tb.Fp, -1)):
            a, b = R[j - 1][i - 1], H[l - 1][k - 1]
            if a and b:
                off_diagonal.append((a, b, sign * int(co)))
    return diagonal, off_diagonal


@cache
def _byte_units(ring):
    """For each byte of a table key (4 bits per x variable, x[1,1] on
    top), the ring key of each of its 256 values: the high nibble's
    exponent times its variable's x_units key plus the low one's."""
    nn = ring.n * ring.n
    width = (nn + 1) // 2
    # An odd count of variables leaves the top nibble of the first byte empty.
    units = (0,) * (2 * width - nn) + ring.x_units
    return width, [[units[2 * j] * (b >> 4) + units[2 * j + 1] * (b & 0xF) for b in range(256)] for j in range(width)]


def unpack(terms, ring):
    """The term dict terms, keyed by table keys, keyed by ring keys, built
    byte by byte from x_units (_byte_units)."""
    width, tables = _byte_units(ring)
    return {sum(map(list.__getitem__, tables, k.to_bytes(width, "big"))): c for k, c in terms.items()}


def ring_keyed(products, ring):
    """products (a, b, weight) with each factor unpacked, each distinct
    factor once."""
    done = {}
    for a, b, _ in products:
        for t in (a, b):
            if id(t) not in done:
                done[id(t)] = unpack(t, ring)
    return [(done[id(a)], done[id(b)], w) for a, b, w in products]


def whole_pair_sums(ta: Tables, tb: Tables, half: int = 0):
    """(omega, sums, products) for the pair test of f and g in one half of
    the operator, from class_pairing alone: sums is the term dict of lc n^2
    {f, g} - W f g accumulated in one dict in ring keys, the products of
    the tables mapped back from table keys first (ring_keyed), zero sums
    and all, omega = W / (lc n^2) when every sum is 0, else None, and
    products the number of term products listed.  lc is the coefficient of lead f +
    lead g in f g, and W that of n^2 {f, g}, read off the whole bracket."""
    f, g = ta.f, tb.f
    lf, lg = max(f._d), max(g._d)
    lc = f._d[lf] * g._d[lg]
    diagonal, off_diagonal = class_pairing(ta, tb, half)
    keyed = ring_keyed(diagonal + off_diagonal, f.ring)
    diagonal, off_diagonal = keyed[: len(diagonal)], keyed[len(diagonal) :]
    W = f.ring.accumulate(diagonal + off_diagonal).get(lf + lg, 0)
    products = [(a, b, lc * w - W) for a, b, w in diagonal] + [(a, b, lc * co) for a, b, co in off_diagonal]
    sums = f.ring.accumulate(products)
    n = ta.op.n
    omega = None if any(sums.values()) else Fraction(W, lc * n * n)
    return omega, sums, sum(len(a) * len(b) for a, b, _ in products)


def _commutator(a, b):
    """[e_a, e_b] as a list of (unit, sign)."""
    out = []
    if a[1] == b[0]:
        out.append(((a[0], b[1]), 1))
    if b[1] == a[0]:
        out.append(((b[0], a[1]), -1))
    return out


def cybe_all_pairs(rt, n: int):
    """(cybe_holds, unitary, witnesses) as verify_cybe returns them, with
    [[r,r]] expanded over every pair of r's terms, three commutators each,
    as the package did before it looked up index-matching pairs only."""
    d = lcm(*(v.denominator for v in rt.values()))
    terms = [(key, int(v * d)) for key, v in rt.items()]
    acc = {}

    def add(key, v):
        w = acc.get(key, 0) + v
        if w:
            acc[key] = w
        else:
            acc.pop(key, None)

    for (a1, b1), c1 in terms:
        for (a2, b2), c2 in terms:
            co = c1 * c2
            for u, sgn in _commutator(a1, a2):
                add((u, b1, b2), sgn * co)
            for u, sgn in _commutator(b1, a2):
                add((a1, u, b2), sgn * co)
            for u, sgn in _commutator(b1, b2):
                add((a1, a2, u), sgn * co)
    witnesses = []
    for key in sorted(acc)[:5]:
        witnesses.append(f"[[r,r]] has coefficient {_normalize_scalar(Fraction(acc[key], d * d))} at {key}")
    diff = tensor_sum(tensor_sum(rt, tensor_transpose(rt)), {k: -v for k, v in casimir_tensor(n).items()})
    unitary = not diff
    for key in sorted(diff)[:5]:
        witnesses.append(f"r + r_21 - casimir has coefficient {diff[key]} at {key}")
    return (not acc, unitary, witnesses)


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


def theta(triple: BDTriple, k: int) -> Poly:
    """Closed form for the first-family function at label (n+k-alpha, k):

        theta_k = f * g - f_right * g_left

    with f the trailing minor at (n+k-alpha, k) (columns k..alpha),
    g the one at (1, beta+1) (columns beta+1..n), f_right = f with
    column alpha replaced by alpha+1 and g_left = g with column beta+1
    replaced by beta.

    When n = 2*beta the label (1, beta+1) heads the second family and
    carries the glued function psi_1 instead of a plain minor, so g and
    g_left become the determinants of that block matrix and of its
    left-stepped variant.
    """
    n, alpha, beta = triple.n, triple.alpha, triple.beta
    if not (1 <= k <= alpha):
        raise InvalidRoot(f"first-family index {k} outside 1..{alpha}")
    ring = get_ring(n)
    f = determinant(build_M(ring, n + k - alpha, k))
    if n == 2 * beta:
        g = determinant(build_Mtilde(ring, alpha, beta, 1, beta + 1))
        g_left = determinant(build_Mtilde_shift(ring, alpha, beta, 1, beta + 1))
    else:
        g = determinant(build_M(ring, 1, beta + 1))
        g_left = col_replace(g, beta + 1, beta)
    return f * g - col_replace(f, alpha, alpha + 1) * g_left


def psi(triple: BDTriple, m: int) -> Poly:
    """Closed form for the second-family function at label (m, n+m-beta):

        psi_m = f * g - f_down * g_up

    with f the trailing minor at (m, n+m-beta) (rows m..beta), g the one
    at (alpha+1, 1) (rows alpha+1..n), f_down = f with row beta replaced
    by beta+1 and g_up = g with row alpha+1 replaced by alpha.

    When n = 2*alpha the label (alpha+1, 1) heads the first family and
    carries the glued function theta_1 instead of a plain minor, so g
    and g_up become the determinants of that block matrix and of its
    up-stepped variant.
    """
    n, alpha, beta = triple.n, triple.alpha, triple.beta
    if not (1 <= m <= beta):
        raise InvalidRoot(f"second-family index {m} outside 1..{beta}")
    ring = get_ring(n)
    f = determinant(build_M(ring, m, n + m - beta))
    if n == 2 * alpha:
        g = determinant(build_Mtilde(ring, alpha, beta, alpha + 1, 1))
        g_up = determinant(build_Mtilde_shift(ring, alpha, beta, alpha + 1, 1))
    else:
        g = determinant(build_M(ring, alpha + 1, 1))
        g_up = row_replace(g, alpha + 1, alpha)
    return f * g - row_replace(f, beta, beta + 1) * g_up
