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
row_replace(f, j, i)) and <A, B> = tr(AB) the trace form.

r_plus applies the closed form above, and the bracket is computed as
exactly that pairing of r_plus with the tables of f and g, so R_+ has
one implementation.  r_plus_oracle contracts the explicit tensor of r
against a matrix; the two are kept as separate code paths on purpose
and checked against each other.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .bdseed import BDTriple, Cluster
from .polymat import col_replace, row_replace
from .polyring import Poly, NotConstant, NotDivisible, constant_value, exact_divide

TensorKey = Tuple[Tuple[int, int], Tuple[int, int]]
Tensor = Dict[TensorKey, Fraction]


class NotLogCanonical(ArithmeticError):
    """Raised when a bracket is not a rational multiple of the product."""


def build_r0(
    n: int,
    alpha: Optional[int] = None,
    beta: Optional[int] = None,
    standard: bool = False,
) -> Tuple[Tuple[int, ...], ...]:
    """Coefficient matrix of the diagonal part of r, size (n-1)x(n-1).

    A alone for the standard structure and for beta = alpha + 1; A + B
    for separated pairs.  Rows and columns are indexed by simple roots.
    """
    m = n - 1
    a = [[0] * m for _ in range(m)]
    for i in range(m):
        a[i][i] = 1
        if i > 0:
            a[i][i - 1] = -1
    if not standard and alpha is not None:
        if beta is None:
            raise ValueError("alpha given without beta")
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
class DualBasis:
    """The dual bases of the traceless diagonal matrices.

    s(k, p) is n times the k-th diagonal entry of hhat_p, an integer:
    n - p for p >= k and -p otherwise.
    """

    n: int

    def s(self, k: int, p: int) -> int:
        return self.n - p if p >= k else -p


@dataclass(frozen=True)
class RPlusOperator:
    """R_+ for a given size, pair, and standard/exotic flag.

    c is the diagonal coefficient matrix; the wedge part acts only when
    the operator is exotic (standard=False with a pair present).  The
    standard companion of a pair keeps the pair's c and only switches
    the wedge off.
    """

    n: int
    alpha: Optional[int]
    beta: Optional[int]
    standard: bool
    c: Tuple[Tuple[int, ...], ...]
    dual: DualBasis

    @property
    def wedge_active(self) -> bool:
        return self.alpha is not None and not self.standard


def r_plus_operator(
    triple: Optional[BDTriple] = None,
    n: Optional[int] = None,
    standard: bool = False,
) -> RPlusOperator:
    if triple is None:
        if n is None:
            raise ValueError("need a pair or an explicit size")
        return RPlusOperator(
            n=n,
            alpha=None,
            beta=None,
            standard=True,
            c=build_r0(n, standard=True),
            dual=DualBasis(n),
        )
    n = triple.n
    return RPlusOperator(
        n=n,
        alpha=triple.alpha,
        beta=triple.beta,
        standard=standard,
        c=build_r0(n, triple.alpha, triple.beta),
        dual=DualBasis(n),
    )


def r_plus(op: RPlusOperator, mat: Sequence[Sequence]) -> List[List]:
    """Apply R_+ to an n-by-n matrix with rational or polynomial entries."""
    n = op.n
    if len(mat) != n or any(len(row) != n for row in mat):
        raise ValueError(f"matrix must be {n}x{n}")
    zero = mat[0][0] * 0
    out = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            out[i][j] = mat[i][j]
    # Diagonal part through the coefficient matrix.
    m = n - 1
    dual = op.dual
    hvals = [
        sum((mat[k][k] * Fraction(dual.s(k + 1, p + 1), n) for k in range(n)), zero)
        for p in range(m)
    ]
    for q in range(m):
        wq = sum((hvals[p] * op.c[p][q] for p in range(m) if op.c[p][q]), zero)
        for k in range(n):
            out[k][k] = out[k][k] + wq * Fraction(dual.s(k + 1, q + 1), n)
    if op.wedge_active:
        a, b = op.alpha, op.beta
        out[b - 1][b] = out[b - 1][b] + mat[a - 1][a]
        out[a][a - 1] = out[a][a - 1] - mat[b][b - 1]
    return out


def build_r_tensor(
    n: int,
    alpha: Optional[int] = None,
    beta: Optional[int] = None,
    standard: bool = False,
) -> Tensor:
    """The full r tensor as {((i,j),(k,l)): coefficient of e_ij (x) e_kl}."""
    c = build_r0(n, alpha, beta) if alpha is not None else build_r0(n, standard=True)
    dual = DualBasis(n)
    out: Tensor = {}
    m = n - 1
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            v = Fraction(0)
            for p in range(1, m + 1):
                sk = dual.s(k, p)
                if not sk:
                    continue
                for q in range(1, m + 1):
                    if c[p - 1][q - 1]:
                        v += Fraction(c[p - 1][q - 1] * sk * dual.s(l, q), n * n)
            if v:
                out[((k, k), (l, l))] = v
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            key = ((q, p), (p, q))
            out[key] = out.get(key, Fraction(0)) + 1
    if alpha is not None and not standard:
        k1 = ((alpha + 1, alpha), (beta, beta + 1))
        k2 = ((beta, beta + 1), (alpha + 1, alpha))
        out[k1] = out.get(k1, Fraction(0)) + 1
        out[k2] = out.get(k2, Fraction(0)) - 1
    return {k: v for k, v in out.items() if v}


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


def _commutator(a: Tuple[int, int], b: Tuple[int, int]):
    """[e_a, e_b] as a list of (unit, sign)."""
    out = []
    if a[1] == b[0]:
        out.append(((a[0], b[1]), 1))
    if b[1] == a[0]:
        out.append(((b[0], a[1]), -1))
    return out


def verify_cybe(rt: Tensor, n: int) -> Tuple[bool, bool, List[str]]:
    """Check the classical Yang-Baxter equation and unitarity.

    Returns (cybe_holds, unitary, witnesses).  CYBE is the vanishing of
    [[r,r]] = [r_12, r_13] + [r_12, r_23] + [r_13, r_23], expanded over
    the basis of elementary tensors; unitarity is r + r_21 = split
    Casimir.
    """
    terms = list(rt.items())
    acc: Dict[Tuple, Fraction] = {}

    def add(key, v):
        w = acc.get(key, Fraction(0)) + v
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
        witnesses.append(f"[[r,r]] has coefficient {acc[key]} at {key}")
    diff = tensor_sum(tensor_sum(rt, tensor_transpose(rt)), {k: -v for k, v in casimir_tensor(n).items()})
    unitary = not diff
    for key in sorted(diff)[:5]:
        witnesses.append(f"r + r_21 - casimir has coefficient {diff[key]} at {key}")
    return (not acc, unitary, witnesses)


# ----------------------------------------------------------------------
# Sklyanin bracket


def gradient_tables(f: Poly, op: RPlusOperator):
    """The tables of f for the operator's bracket: (F, F', R_+(F), R_+(F'))
    with F_ij = col_replace(f, i, j) and F'_ij = row_replace(f, j, i)."""
    idx = range(1, op.n + 1)
    F = [[col_replace(f, i, j) for j in idx] for i in idx]
    Fp = [[row_replace(f, j, i) for j in idx] for i in idx]
    return (F, Fp, r_plus(op, F), r_plus(op, Fp))


def bracket_from_tables(ta, tb) -> Poly:
    """<R_+(F), G> - <R_+(F'), G'> from the tables of f and g, made for
    the same operator."""
    _, _, RF, RFp = ta
    G, Gp, _, _ = tb
    n = len(G)
    total = G[0][0] * 0
    for i in range(n):
        for j in range(n):
            if RF[i][j] and G[j][i]:
                total = total + RF[i][j] * G[j][i]
            if RFp[i][j] and Gp[j][i]:
                total = total - RFp[i][j] * Gp[j][i]
    return total


def sklyanin_bracket(f: Poly, g: Poly, op: RPlusOperator) -> Poly:
    """The Poisson bracket {f, g} for the operator's r-matrix."""
    return bracket_from_tables(gradient_tables(f, op), gradient_tables(g, op))


def poisson_coefficient(
    f: Poly,
    g: Poly,
    op: RPlusOperator,
    bracket: Optional[Poly] = None,
) -> Fraction:
    """The scalar omega with {f, g} = omega * f * g.

    Raises NotLogCanonical when the bracket is not such a multiple.
    """
    br = sklyanin_bracket(f, g, op) if bracket is None else bracket
    if not br:
        return Fraction(0)
    try:
        quo = exact_divide(br, f * g)
        return Fraction(constant_value(quo))
    except NotDivisible as e:
        raise NotLogCanonical(f"bracket is not divisible by the product: {e}") from None
    except NotConstant:
        raise NotLogCanonical("bracket is a non-constant multiple of the product") from None


# ----------------------------------------------------------------------
# Full-cluster sweeps, optionally parallel

_SWEEP: dict = {}


def _sweep_init(tables, funcs, op, pairs):
    _SWEEP["tables"] = tables
    _SWEEP["funcs"] = funcs
    _SWEEP["op"] = op
    _SWEEP["pairs"] = pairs


def _sweep_pair(idx: int):
    ia, ib = _SWEEP["pairs"][idx]
    tables = _SWEEP["tables"]
    funcs = _SWEEP["funcs"]
    op = _SWEEP["op"]
    br = bracket_from_tables(tables[ia], tables[ib])
    try:
        omega = poisson_coefficient(funcs[ia], funcs[ib], op, bracket=br)
        return (idx, True, omega)
    except NotLogCanonical as e:
        return (idx, False, str(e))


def sweep_workers() -> int:
    """Worker count for pair sweeps: BD_CLUSTER_THREADS if set, else up
    to 4, capped by the CPU count."""
    env = os.environ.get("BD_CLUSTER_THREADS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ValueError(f"BD_CLUSTER_THREADS must be a positive integer, got {env!r}")
        return workers
    return max(1, min(4, os.cpu_count() or 1))


def omega_sweep(
    functions: Sequence[Poly],
    op: RPlusOperator,
    processes: Optional[int] = None,
):
    """All pairwise coefficients.  Returns ({(ia, ib): omega}, failures)
    with ia < ib and failures a list of (ia, ib, reason).

    processes defaults to sweep_workers(); it must be at least 1.
    """
    nproc = processes if processes is not None else sweep_workers()
    if nproc < 1:
        raise ValueError(f"processes must be a positive integer, got {nproc}")
    tables = [gradient_tables(f, op) for f in functions]
    L = len(functions)
    pairs = [(ia, ib) for ia in range(L) for ib in range(ia + 1, L)]
    if nproc > 1 and len(pairs) >= 32 and hasattr(os, "fork"):
        # Imported here, as at module level it slows every start-up.  Forked
        # workers inherit the tables; a dead one raises BrokenProcessPool.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            nproc,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_sweep_init,
            initargs=(tables, list(functions), op, pairs),
        ) as pool:
            chunk = max(1, len(pairs) // (nproc * 8))
            results = list(pool.map(_sweep_pair, range(len(pairs)), chunksize=chunk))
    else:
        _sweep_init(tables, list(functions), op, pairs)
        results = [_sweep_pair(i) for i in range(len(pairs))]
        _SWEEP.clear()
    omegas = {}
    failures = []
    for idx, ok, payload in sorted(results, key=lambda t: t[0]):
        pair = pairs[idx]
        if ok:
            omegas[pair] = payload
        else:
            failures.append((pair[0], pair[1], payload))
    return omegas, failures


def omega_matrix(
    cluster: Cluster,
    op: RPlusOperator,
    processes: Optional[int] = None,
):
    """The antisymmetric matrix omega over the cluster's label order.

    Raises NotLogCanonical (naming the first offending pair) if any
    pair of cluster functions fails to be log-canonical.
    """
    labels = list(cluster.labels)
    funcs = [cluster.functions[lab] for lab in labels]
    omegas, failures = omega_sweep(funcs, op, processes=processes)
    if failures:
        ia, ib, reason = failures[0]
        raise NotLogCanonical(
            f"pair ({labels[ia]}, {labels[ib]}) is not log-canonical: {reason}"
        )
    L = len(labels)
    mat = [[Fraction(0)] * L for _ in range(L)]
    for (ia, ib), w in omegas.items():
        mat[ia][ib] = w
        mat[ib][ia] = -w
    return labels, mat
