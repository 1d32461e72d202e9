"""Classical r-matrices and the Sklyanin bracket, in exact arithmetic.

The r-matrix attached to a pair (alpha, beta) is

    r = sum_{p,q} c_pq hhat_p (x) hhat_q  +  sum_{p<q} e_qp (x) e_pq
        +  e_{alpha+1,alpha} (x) e_{beta,beta+1}
        -  e_{beta,beta+1} (x) e_{alpha+1,alpha},

where hhat_p is the basis of the traceless diagonal matrices dual to
h_p = e_pp - e_{p+1,p+1} under the trace form, and the coefficient
matrix c is the unipotent lower bidiagonal matrix A (ones on the
diagonal, minus ones just below) when beta = alpha + 1, and A plus a
six-entry antisymmetric correction B otherwise.  The standard r-matrix
drops the last two (wedge) terms; the standard companion of a pair
keeps the pair's own c so that the two brackets differ exactly by the
wedge contribution.

R_+ is the half of r acting on one tensor leg: for a matrix eta,

    R_+(eta) = strict upper part of eta
               + sum_q ( sum_p c_pq <hhat_p, eta> ) hhat_q
               + eta_{alpha,alpha+1} e_{beta,beta+1}
               - eta_{beta+1,beta} e_{alpha+1,alpha},

and the Sklyanin bracket of two polynomial functions f, g of X is

    {f, g} = <R_+(F), G> - <R_+(F'), G'>,

with F = (grad f) X, F' = X (grad f) (entrywise F_ij = sum_k df/dx[k,i]
x[k,j] = col_replace(f, i, j), F'_ij = sum_k df/dx[j,k] x[i,k] =
row_replace(f, j, i)) and <A, B> = tr(AB) the trace form.  F and F'
come from one pass over the terms of f (polymat._replacement_tables,
which reads a template made once per size n), as term dicts, off the
diagonal only: F_ii and F'_ii are f with each
term times its degree in column or row i (Euler), which f's degree
classes give.  The tables of a function that fits polyring's 4-bit
table keys (every seed function and coordinate) are keyed by them, so
every product of a pair test adds and hashes a key a quarter of a ring
key's size; a pair whose tables differ in layout runs in ring keys
(_one_layout), and keys go back to ring keys only where a user sees
them: bracket_from_tables' bracket, a failing pair's division and
bracketdiff's witness (_ring_sum, _ring_keys).

Since <F, G> = tr(grad f X grad g X) = <F', G'>, the same bracket is
<R_-(F), G> - <R_-(F'), G'> for R_- = R_+ - id, which takes minus the
strict lower part of eta where R_+ takes its strict upper part, and
keeps the diagonal map less the identity and the wedge
(RPlusOperator.halves).  The two halves pair opposite triangles of F
with G, so each pair of functions is paired in the half that lists
fewer term products, read off the sizes of the tables' entries
(_half); both halves give every coefficient of n^2 {f, g}.

The only denominators in R_+ are the n of each hhat pairing and the n
of each hhat entry, so n^2 R_+ and n^2 R_- map integer matrices to
integer matrices.  bracket_from_tables returns the integer pairing
n^2 {f, g}: the diagonal of the half pairs with G as one bilinear form
in the degree classes of f and g, and the rest pairs table entries
directly, so no R_+ of a table is stored.  gradient_tables is the one
place tables are made.  F, F', the degree classes and the largest
exponents do not read the operator, so tables of f for a second
operator are derived from the first operator's (its like= keyword)
without a pass over f's terms; only what a pair test reads of f for
each half of that operator, its classes' weight vectors and its nonzero
off-diagonal factors, is made per operator, and the weight vectors are
taken over too when the half's diagonal matrix is the same.
coefficient_from_tables tests {f, g} = omega f g as the integer sum
lc n^2 {f, g} - W f g = 0, with W the bracket's coefficient at the
leading monomial of f g and lc that monomial's coefficient, so a
log-canonical pair forms neither the bracket nor f g and makes one
Fraction, omega = W / (lc n^2); a heavy sum goes one first-row slice
at a time (polyring's one slicing rule), and a failing pair divides the
bracket's products, in ring keys, by f g for its witness, never forming
the bracket.
omega_sweep runs it over all pairs by a per-pair plan (sweep_plan), each
pair's (products, half) decided once by _half, the one place the half
is chosen: the half goes to the pair's test, and the pair tests are the
tasks of tasks.run_tasks, each costing its products, so a sweep of
POOL_MIN_PRODUCTS term products or more forks sweep_workers(processes)
workers.  r_plus, sklyanin_bracket and unscale
remove the n^2.  pair_test is the one pair step of every check that
tests pairs: omega, or the reason there is none, an overflow included.
RPlusOperator.halves is the operator's one form, each half as one
diagonal matrix and one entry list; r_plus reads R_+, and the bracket
either half.
build_r_tensor expands the explicit tensor of r from the operator's c,
its dual basis s and its wedge, not from its halves, and
r_plus_oracle contracts that tensor against a matrix; the two are kept
as separate code paths on purpose and checked against each other.
Both read the one c of the operator, so a changed c reaches the
bracket, the tensor and the Yang-Baxter check alike.
"""

from __future__ import annotations

import os
from collections import defaultdict, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .bdseed import BDTriple, structure_size
from .polymat import _replacement_tables
from .polyring import ExponentOverflow, NotDivisible, Poly, _divide, _normalize_scalar
from .tasks import run_tasks

TensorKey = Tuple[Tuple[int, int], Tuple[int, int]]
Tensor = Dict[TensorKey, Fraction]


class NotLogCanonical(ArithmeticError):
    """Raised when a bracket is not a rational multiple of the product."""


def build_r0(
    n: int,
    alpha: Optional[int] = None,
    beta: Optional[int] = None,
) -> Tuple[Tuple[int, ...], ...]:
    """Coefficient matrix of the diagonal part of r, size (n-1)x(n-1).

    A alone without a pair and for beta = alpha + 1; A + B for
    separated pairs.  Rows and columns are indexed by simple roots.
    """
    m = n - 1
    a = [[0] * m for _ in range(m)]
    for i in range(m):
        a[i][i] = 1
        if i > 0:
            a[i][i - 1] = -1
    if (alpha is None) != (beta is None):
        raise ValueError("alpha given without beta" if beta is None else "beta given without alpha")
    if alpha is not None:
        if not (1 <= alpha < beta <= m):
            raise ValueError(f"need 1 <= alpha < beta <= {m}")
        if beta > alpha + 1:
            plus = [(alpha, beta), (beta - 1, alpha), (beta, alpha + 1)]
            minus = [(beta, alpha), (alpha, beta - 1), (alpha + 1, beta)]
            for (p, q) in plus:
                a[p - 1][q - 1] += 1
            for (p, q) in minus:
                a[p - 1][q - 1] -= 1
    return tuple(tuple(row) for row in a)


@dataclass(frozen=True)
class RPlusOperator:
    """R_+ for a size n, a diagonal coefficient matrix c and a wedge.

    The wedge is the ordered root pair (alpha, beta) of the term
    e_{alpha+1,alpha} (x) e_{beta,beta+1} - e_{beta,beta+1} (x)
    e_{alpha+1,alpha} of r, or None for the standard operator and for a
    pair's standard companion, which keeps the pair's c.
    """

    n: int
    c: Tuple[Tuple[int, ...], ...]
    wedge: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        m = self.n - 1
        if len(self.c) != m or any(len(row) != m for row in self.c):
            raise ValueError(f"c must be {m}x{m} for n = {self.n}")
        w = self.wedge
        if w is not None and not (len(w) == 2 and w[0] != w[1] and all(type(r) is int and 1 <= r <= m for r in w)):
            raise ValueError(f"wedge must be two distinct roots in 1..{m}, got {w!r}")

    def s(self, k: int, p: int) -> int:
        """n times the k-th diagonal entry of hhat_p, an integer: n - p
        for p >= k and -p otherwise."""
        return self.n - p if p >= k else -p

    @cached_property
    def halves(self):
        """(M, entries) of n^2 R_+ and of n^2 R_-, R_- = R_+ - id, the
        operator's one form.  n^2 R(mat) has diagonal sum_l M_kl mat_ll, and
        each entry (coefficient, source, target), 0-based, adds coefficient
        * mat[source] at target.  R_+ has M_kl = sum_pq s(k, q) c_pq s(l, p)
        and n^2 on the strict upper part; R_- has M - n^2 I and -n^2 on the
        strict lower part; both then have the wedge."""
        n, nn, s, c = self.n, self.n * self.n, self.s, self.c
        r, idx = range(1, n), range(1, n + 1)
        M = [[sum(s(k, q) * c[p - 1][q - 1] * s(l, p) for p in r for q in r) for l in idx] for k in idx]
        wedge = []
        if self.wedge is not None:
            a, b = self.wedge
            wedge = [(nn, (a - 1, a), (b - 1, b)), (-nn, (b, b - 1), (a, a - 1))]

        def half(sign, shift):
            diagonal = tuple(tuple(v - shift * (k == l) for l, v in enumerate(row)) for k, row in enumerate(M))
            triangle = [(sign * nn, (i, j), (i, j)) for i in range(n) for j in range(n) if sign * (j - i) > 0]
            return diagonal, tuple(triangle + wedge)

        return half(1, 0), half(-1, nn)


def r_plus_operator(
    triple: Optional[BDTriple] = None,
    n: Optional[int] = None,
    standard: bool = False,
) -> RPlusOperator:
    """R_+ of the pair's exotic structure, or of its standard companion
    when standard is set; without a pair, the standard R_+ of size n.  An
    n given with a pair must be the pair's."""
    n = structure_size(triple, n)
    if triple is None:
        return RPlusOperator(n, build_r0(n))
    pair = (triple.alpha, triple.beta)
    return RPlusOperator(n, build_r0(n, *pair), None if standard else pair)


def unscale(x, n: int):
    """x / n^2 for a scalar or a polynomial, integral coefficients as ints:
    R_+ from n^2 R_+, or {f, g} from the pairing of bracket_from_tables.
    An int is divided with divmod, and only a remainder makes a Fraction."""
    nn = n * n

    def divide(c):
        if isinstance(c, int):
            q, r = divmod(c, nn)
            return Fraction(c, nn) if r else q
        return _normalize_scalar(c / nn)

    if isinstance(x, Poly):
        return Poly(x.ring, {m: divide(c) for m, c in x._d.items()})
    return divide(x)


def r_plus(op: RPlusOperator, mat: Sequence[Sequence]) -> List[List]:
    """Apply R_+ to an n-by-n matrix with rational or polynomial entries.

    <hhat_p, mat> is sum_k s(k, p) mat_kk / n and the entries of hhat_q
    are s(k, q) / n, so n^2 R_+(mat) has diagonal sum_l M_kl mat_ll with
    M the matrix of op.halves[0], whose entries hold the rest.
    """
    n = op.n
    if len(mat) != n or any(len(row) != n for row in mat):
        raise ValueError(f"matrix must be {n}x{n}")
    zero = mat[0][0] * 0
    out = [[zero for _ in range(n)] for _ in range(n)]
    M, entries = op.halves[0]
    for k, row in enumerate(M):
        out[k][k] = sum((mat[l][l] * mkl for l, mkl in enumerate(row) if mkl), zero)
    for co, (si, sj), (ti, tj) in entries:
        out[ti][tj] = out[ti][tj] + mat[si][sj] * co
    return [[unscale(v, n) for v in row] for row in out]


def build_r_tensor(op: RPlusOperator) -> Tensor:
    """The full r tensor of op as {((i,j),(k,l)): coefficient of e_ij (x) e_kl},
    expanded from op.c, op.s and the wedge, not from op.halves."""
    n, c, s = op.n, op.c, op.s
    r, idx = range(1, n), range(1, n + 1)
    out: Tensor = {}
    for k in idx:
        for l in idx:
            v = Fraction(sum(c[p - 1][q - 1] * s(k, p) * s(l, q) for p in r for q in r), n * n)
            if v:
                out[((k, k), (l, l))] = v
    for p in idx:
        for q in range(p + 1, n + 1):
            out[((q, p), (p, q))] = Fraction(1)
    if op.wedge is not None:
        a, b = op.wedge
        out[((a + 1, a), (b, b + 1))] = Fraction(1)
        out[((b, b + 1), (a + 1, a))] = Fraction(-1)
    return out


def r_plus_oracle(rt: Tensor, mat: Sequence[Sequence]) -> List[List]:
    """Contract the second leg of r against a matrix:
    R_+(eta)_kl = sum_(i,j) r[(i,j),(k,l)] eta_ji."""
    n = len(mat)
    zero = mat[0][0] * 0
    out = [[zero for _ in range(n)] for _ in range(n)]
    for ((i, j), (k, l)), co in rt.items():
        src = mat[j - 1][i - 1]
        if src:
            out[k - 1][l - 1] = out[k - 1][l - 1] + src * co
    return out


def casimir_tensor(n: int) -> Tensor:
    """The split Casimir of sl(n) under the trace form."""
    out: Tensor = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                out[((i, j), (j, i))] = Fraction(1)
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            v = Fraction(1 if k == l else 0) - Fraction(1, n)
            if v:
                out[((k, k), (l, l))] = v
    return out


def tensor_transpose(rt: Tensor) -> Tensor:
    return {(b, a): v for (a, b), v in rt.items()}


def tensor_sum(a: Tensor, b: Tensor) -> Tensor:
    out = dict(a)
    for k, v in b.items():
        w = out.get(k, Fraction(0)) + v
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


def verify_cybe(rt: Tensor, n: int) -> Tuple[bool, bool, List[str]]:
    """Check the classical Yang-Baxter equation and unitarity.

    Returns (cybe_holds, unitary, witnesses).  CYBE is the vanishing of
    [[r,r]] = [r_12, r_13] + [r_12, r_23] + [r_13, r_23], expanded over
    the basis of elementary tensors; unitarity is r + r_21 = split
    Casimir.

    With r = sum c a (x) b, [[r,r]] sums c1 c2 ([a1, a2] (x) b1 (x) b2 +
    a1 (x) [b1, a2] (x) b2 + a1 (x) a2 (x) [b1, b2]) over pairs of terms,
    and [e_ij, e_kl] = d_jk e_il - d_li e_kj, so only term pairs whose
    indices match contribute: each term's partners are looked up by the
    row or column of their first or second leg.
    """
    # [[r,r]] is accumulated in integers, over d r with d the common
    # denominator of r's entries (a factor of n^2 for build_r_tensor).
    d = lcm(*(v.denominator for v in rt.values()))
    terms = [(a, b, int(v * d)) for (a, b), v in rt.items()]
    # by[leg][side][index]: the terms whose first (leg 0) or second (leg 1)
    # factor has that row (side 0) or column (side 1).
    by = [[defaultdict(list), defaultdict(list)] for _ in range(2)]
    for t in terms:
        for leg in (0, 1):
            for side in (0, 1):
                by[leg][side][t[leg][side]].append(t)
    acc: Dict[Tuple, int] = defaultdict(int)
    for a1, b1, c1 in terms:
        (i1, j1), (k1, l1) = a1, b1
        for a2, b2, c2 in by[0][0][j1]:
            acc[(i1, a2[1]), b1, b2] += c1 * c2
        for a2, b2, c2 in by[0][1][i1]:
            acc[(a2[0], j1), b1, b2] -= c1 * c2
        for a2, b2, c2 in by[0][0][l1]:
            acc[a1, (k1, a2[1]), b2] += c1 * c2
        for a2, b2, c2 in by[0][1][k1]:
            acc[a1, (a2[0], l1), b2] -= c1 * c2
        for a2, b2, c2 in by[1][0][l1]:
            acc[a1, a2, (k1, b2[1])] += c1 * c2
        for a2, b2, c2 in by[1][1][k1]:
            acc[a1, a2, (b2[0], l1)] -= c1 * c2
    nonzero = sorted(key for key, v in acc.items() if v)
    witnesses = [
        f"[[r,r]] has coefficient {_normalize_scalar(Fraction(acc[key], d * d))} at {key}" for key in nonzero[:5]
    ]
    diff = tensor_sum(tensor_sum(rt, tensor_transpose(rt)), {k: -v for k, v in casimir_tensor(n).items()})
    unitary = not diff
    for key in sorted(diff)[:5]:
        witnesses.append(f"r + r_21 - casimir has coefficient {diff[key]} at {key}")
    return (not nonzero, unitary, witnesses)


# ----------------------------------------------------------------------
# Sklyanin bracket


Tables = namedtuple("Tables", "F Fp f classes top op lead halves nibbles")

# What the pair tests of f read for one half of the operator, R_+ or R_-.
Half = namedtuple("Half", "parts left right lsizes rsizes")


def gradient_tables(f: Poly, op: RPlusOperator, *, like: Optional[Tables] = None) -> Tables:
    """The tables of f for op: F_ij, the terms of col_replace(f, i, j),
    F'_ij, those of row_replace(f, j, i), for i != j (the diagonal entries
    are None), f, its degree classes {(column degrees, row degrees): part
    of f} and the packed ring key of its maximum exponents (top), from one
    pass over f's terms, or taken from like, the tables of f for another
    operator, since none of them reads op; nibbles, whether the entries
    and parts are keyed by table keys, as they are when f fits them
    (PolyRing.fits_nibbles), or else by ring keys; lead, (key, index of
    its class, coefficient) of f's leading term, None for f = 0, in the
    same keys; then op and, for each of its halves
    R_+ and R_- (RPlusOperator.halves), what each pair test of f reads
    there (_pairing).  A half's parts lists (part, u_c, v_c) for each class
    c, with u_c = (M col(c), -M row(c)) for the half's diagonal matrix M
    and v_c = (col(c), row(c)).  Each entry (co, s, t) of the half's
    entry list is a slot on F and one on F' (with -co): left lists
    (slot, F_s, co) for nonzero F_s, right holds F_t', t' = t transposed,
    for every slot, and lsizes and rsizes the sizes of F_s and F_t' per
    slot.  Tables derived from like also take each half's parts from
    like's when that half has the same M, as a pair's standard companion
    has.  Entries are term dicts, with int coefficients when f's are."""
    if like is None:
        F, Fp, classes, top, nibbles = _replacement_tables(f)
        lead = _lead(classes)
    else:
        F, Fp, classes, top, lead, nibbles = like.F, like.Fp, like.classes, like.top, like.lead, like.nibbles
    halves = []
    for h, (M, entries) in enumerate(op.halves):
        if like is not None and like.op.halves[h][0] == M:
            # A pair's standard companion keeps the pair's c, and so M.
            parts = like.halves[h].parts
        else:
            parts = [
                (part, tuple(sum(map(mul, r, cols)) for r in M) + tuple(-sum(map(mul, r, rows)) for r in M), cols + rows)
                for (cols, rows), part in classes.items()
            ]
        slots = [(T[si][sj], T[tj][ti], sign * co) for T, sign in ((F, 1), (Fp, -1))
                 for co, (si, sj), (ti, tj) in entries]
        left = [(slot, a, co) for slot, (a, _, co) in enumerate(slots) if a]
        right = [b for _, b, _ in slots]
        halves.append(Half(parts, left, right, tuple(len(a) for a, _, _ in slots), tuple(map(len, right))))
    return Tables(F, Fp, f, classes, top, op, lead, tuple(halves), nibbles)


def _lead(classes) -> Optional[Tuple[int, int, int]]:
    """(key, index of its class, coefficient) of the leading term of the
    degree classes' parts, None when there is no term."""
    if not classes:
        return None
    parts = list(classes.values())
    m, i = max((max(part), i) for i, part in enumerate(parts))
    return m, i, parts[i][m]


def _ring_keys(ring):
    """A map of term dicts from table keys to ring keys
    (PolyRing.from_nibbles) that maps each distinct dict once."""
    done: dict = {}

    def back(terms):
        if id(terms) not in done:
            done[id(terms)] = ring.from_nibbles(terms)
        return done[id(terms)]

    return back


def _one_layout(ta: Tables, tb: Tables) -> Tuple[Tables, Tables]:
    """ta and tb with their keys in one layout: as they are, or, when one
    is in table keys and the other is not, with the first one's every
    term dict mapped back to ring keys, so the pair runs in ring keys."""
    if ta.nibbles == tb.nibbles:
        return ta, tb
    t = ta if ta.nibbles else tb
    back = _ring_keys(t.f.ring)
    F, Fp = ([[e if e is None else back(e) for e in row] for row in T] for T in (t.F, t.Fp))
    classes = {degs: back(part) for degs, part in t.classes.items()}
    halves = tuple(
        h._replace(parts=[(back(p), u, v) for p, u, v in h.parts], left=[(s, back(a), co) for s, a, co in h.left],
                   right=[back(b) for b in h.right])
        for h in t.halves
    )
    t = t._replace(F=F, Fp=Fp, classes=classes, lead=_lead(classes), halves=halves, nibbles=False)
    return (t, tb) if ta.nibbles else (ta, t)


def _ring_sum(t: Tables, products) -> dict:
    """The nonzero sums of products (PolyRing.accumulate) over term dicts
    in the key layout of t, keyed by ring keys."""
    ring = t.f.ring
    acc = ring.accumulate(products, guard=not t.nibbles)
    acc = {m: c for m, c in acc.items() if c}
    return ring.from_nibbles(acc) if t.nibbles else acc


def _half(ta: Tables, tb: Tables) -> Tuple[int, int]:
    """(products, h) for the half h of the operator, R_+ (0) or R_- (1),
    whose pair test of f and g lists fewer term products, R_+ on a tie:
    |f| |g| on the diagonal plus |F_s| |G_t'| for each off-diagonal slot
    of the half (_pairing)."""
    (plus_f, minus_f), (plus_g, minus_g) = ta.halves, tb.halves
    plus = sum(map(mul, plus_f.lsizes, plus_g.rsizes))
    minus = sum(map(mul, minus_f.lsizes, minus_g.rsizes))
    diagonal = len(ta.f) * len(tb.f)
    return (diagonal + plus, 0) if plus <= minus else (diagonal + minus, 1)


def _pairing(ta: Tables, tb: Tables, half: Optional[int] = None):
    """The products whose sum is n^2 {f, g}, as (diagonal, off_diagonal)
    lists of (terms, terms, weight), over the half R of the operator
    given, R_+ (0) or R_- (1), or else the one _half picks: n^2 {f, g} =
    <n^2 R(F), G> - <n^2 R(F'), G'> for R = R_+ and for R = R_- alike,
    since R_+ - R_- = id and <F, G> = tr(grad f X grad g X) = <F', G'>.

    F_ll is the sum of f's terms, each times its degree in column l
    (Euler; F'_ll likewise with rows), so with M the half's diagonal
    matrix the diagonal of the pairing is sum_{c,d} w(c, d) f_c g_d over
    the degree classes c of f and d of g, w(c, d) = col(d) M col(c) -
    row(d) M row(c) = u_c . v_d; every class pair is listed, in the order
    of f's classes then g's, weight 0 included.  The off-diagonal
    products pair each slot's F_s of f with the same slot's G_t' of g,
    both nonzero.  The factors are the tables' own term dicts, so ta and
    tb must share one key layout (_one_layout).
    """
    # A class pair of weight 0 never reaches the kernel and its exponent
    # guard, so f g is guarded as a whole, by its largest exponents, in
    # ring keys whatever the tables' layout.
    ta.f.ring.check_exponents((ta.top + tb.top,))
    if half is None:
        half = _half(ta, tb)[1]
    ha, hb = ta.halves[half], tb.halves[half]
    diagonal = [(a, b, sum(map(mul, u, v))) for a, u, _ in ha.parts for b, _, v in hb.parts]
    return diagonal, [(a, b, co) for slot, a, co in ha.left if (b := hb.right[slot])]


def bracket_from_tables(ta: Tables, tb: Tables) -> Poly:
    """n^2 {f, g} from the tables of f and g for one operator (_pairing),
    summed by the ring's product kernel."""
    ta, tb = _one_layout(ta, tb)
    diagonal, off_diagonal = _pairing(ta, tb)
    return Poly(ta.f.ring, _ring_sum(ta, diagonal + off_diagonal))


def sklyanin_bracket(f: Poly, g: Poly, op: RPlusOperator) -> Poly:
    """The Poisson bracket {f, g} for the operator's r-matrix."""
    return unscale(bracket_from_tables(gradient_tables(f, op), gradient_tables(g, op)), op.n)


def coefficient_from_tables(ta: Tables, tb: Tables, half: Optional[int] = None) -> Fraction:
    """The scalar omega with {f, g} = omega * f * g, from the tables of f
    and g for one operator, without forming the bracket or f g, summed in
    the given half of the operator or the one _half picks (_pairing).

    With L = lead f + lead g and lc = lc(f) lc(g), W is the coefficient
    of n^2 {f, g} at L, so log-canonicity is lc n^2 {f, g} - W f g = 0.
    Both terms expand over the same products: f g is the sum of f_c g_d
    over every class pair, so the pair (c, d) carries the weight
    lc w(c, d) - W, and each off-diagonal product of _pairing carries lc
    times its coefficient.  PolyRing.slices groups these products by the
    monomials' exponents in X's first row (nibble_row_mask on table keys,
    first_row_mask on ring keys), and omega = W / (lc n^2) when
    every group's sum is 0.  At the first group with a nonzero sum, the
    exact division of the bracket's products (_pairing) by f g decides:
    a constant quotient is omega, and any other quotient or a remainder
    raises NotLogCanonical with its reason.
    """
    ta, tb = _one_layout(ta, tb)
    f, g, op = ta.f, tb.f, ta.op
    diagonal, off_diagonal = _pairing(ta, tb, half)
    if ta.lead is None or tb.lead is None:
        return Fraction(0)
    (lf, cf, af), (lg, cg, ag) = ta.lead, tb.lead
    L, lc = lf + lg, af * ag
    # Only lead f times lead g reaches L in f g, so on the diagonal W
    # comes from the class pair of the two leading terms alone.
    W = lc * diagonal[cf * len(tb.classes) + cg][2]
    for a, b, co in off_diagonal:
        if len(a) < len(b):
            a, b = b, a
        # Packed keys add without carry, so a hit at L - m is exactly one
        # factorization of L.
        W += co * sum(a.get(L - mb, 0) * cb for mb, cb in b.items())
    ring, nibbles = f.ring, ta.nibbles
    products = [(a, b, lc * w - W) for a, b, w in diagonal] + [(a, b, lc * co) for a, b, co in off_diagonal]
    mask = ring.nibble_row_mask if nibbles else ring.first_row_mask
    # Each slice's sums are freed before the next slice is accumulated.
    if any(any(ring.accumulate(group, guard=not nibbles).values()) for group in ring.slices(products, mask)):
        # The quotient is authoritative, so a wrong nonzero sum could cost
        # only time, never a verdict.  A zero bracket has W = 0 and zero
        # sums, so it never gets here.  The division runs in ring keys.
        dividend = diagonal + off_diagonal
        if nibbles:
            back = _ring_keys(ring)
            dividend = [(back(a), back(b), w) for a, b, w in dividend]
        try:
            quo = _divide(dividend, f * g)
        except NotDivisible as e:
            raise NotLogCanonical(f"bracket is not divisible by the product: {e}") from None
        if len(quo) != 1 or 0 not in quo:
            raise NotLogCanonical("bracket is a non-constant multiple of the product")
        return Fraction(quo[0], op.n * op.n)
    return Fraction(W, lc * op.n * op.n)


def pair_test(ta: Tables, tb: Tables, half: Optional[int] = None) -> Union[Fraction, str]:
    """omega of f and g from their tables (coefficient_from_tables, in the
    half given or the one _half picks), or, when there is none, the
    reason: the message of its NotLogCanonical, or of the ExponentOverflow
    of a product with an exponent of 128 or more.  Every check that tests
    pairs calls this, so a pair that overflows fails that pair alone."""
    try:
        return coefficient_from_tables(ta, tb, half)
    except (NotLogCanonical, ExponentOverflow) as e:
        return str(e)


def poisson_coefficient(f: Poly, g: Poly, op: RPlusOperator) -> Fraction:
    """The scalar omega with {f, g} = omega * f * g: coefficient_from_tables
    on the tables of f and g.  Raises NotLogCanonical when the bracket is
    not a constant multiple of f g, with exact division's remainder as
    witness."""
    return coefficient_from_tables(gradient_tables(f, op), gradient_tables(g, op))


# ----------------------------------------------------------------------
# Full-cluster sweeps, optionally parallel


def sweep_plan(tables: Sequence[Tables]) -> List[Tuple[int, int]]:
    """(products, half) of _half for each pair ia < ib of tables, in pair
    order: the half of the operator each pair test sums in, and an upper
    bound on its term products there."""
    return [_half(ta, tb) for ta, tb in combinations(tables, 2)]


def sweep_workers(processes: Optional[int] = None) -> int:
    """Worker count for sweeps and exchange divisions: processes, a
    positive integer, or 4 when not given, capped by the CPU count, since
    a forked run (tasks.run_tasks) starts all its workers at once."""
    if processes is None:
        processes = 4
    elif isinstance(processes, bool) or not isinstance(processes, int) or processes < 1:
        raise ValueError(f"processes must be a positive integer, got {processes!r}")
    return min(processes, os.cpu_count() or 1)


def omega_sweep(
    functions: Sequence[Poly],
    op: RPlusOperator,
    processes: Optional[int] = None,
    *,
    tables: Optional[Sequence[Tables]] = None,
    plan: Optional[Sequence[Tuple[int, int]]] = None,
):
    """All pairwise coefficients.  Returns ({(ia, ib): omega}, failures)
    with ia < ib and failures a list of (ia, ib, reason), overflows too.

    processes goes through sweep_workers (1 runs in process); tables,
    when given, are the functions' gradient tables for op, and plan
    their sweep_plan, each pair's (products, half), made here when not
    given.  Each pair's half is thus chosen once per sweep: the pair
    tests are tasks.run_tasks' tasks, each costing its products, and the
    half goes to the pair's pair_test.
    """
    nproc = sweep_workers(processes)
    if tables is None:
        tables = [gradient_tables(f, op) for f in functions]
    if plan is None:
        plan = sweep_plan(tables)
    pairs = [(ia, ib, half) for (ia, ib), (_, half) in zip(combinations(range(len(functions)), 2), plan)]
    results = run_tasks(lambda pair: pair_test(tables[pair[0]], tables[pair[1]], pair[2]), pairs,
                        [products for products, _ in plan], nproc)
    omegas = {}
    failures = []
    for (ia, ib, _), omega in zip(pairs, results):
        if isinstance(omega, str):
            failures.append((ia, ib, omega))
        else:
            omegas[ia, ib] = omega
    return omegas, failures
