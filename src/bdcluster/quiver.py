"""Quivers, exchange matrices, and seed mutation.

Vertices are matrix labels (i, j).  The standard quiver on the n-by-n
grid has arrows (i,j) -> (i,j+1), (i,j) -> (i+1,j) and the reverse
diagonals (i+1,j+1) -> (i,j), with arrows between two frozen vertices
discarded.  The exotic quiver for a pair (alpha, beta) keeps exactly
that arc set (arcs once discarded stay out, even when an endpoint
becomes mutable), unfreezes (alpha+1, 1) and (1, beta+1), and adds six
arcs tying the two unfrozen border vertices to the corners:

    (alpha, 1) -> (alpha+1, 1)        (1, beta) -> (1, beta+1)
    (n, alpha+1) -> (1, beta+1)       (1, beta+1) -> (n, alpha)
    (beta+1, n) -> (alpha+1, 1)       (alpha+1, 1) -> (beta, n)

The exchange matrix of a quiver has one row per mutable vertex and one
column per vertex, ordered row-major with mutable vertices first, and
entry b_ij = (arrows i -> j) - (arrows j -> i).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from .bdseed import BDTriple, Cluster, Label, seed_labels
from .polyring import NotDivisible, exact_divide_products


class FrozenDirection(ValueError):
    """Raised when mutation is requested at a frozen vertex."""


class NotLaurentPolynomial(ArithmeticError):
    """Raised when an exchange does not divide exactly, which would leave
    the new cluster variable a genuine Laurent polynomial."""


@dataclass(frozen=True)
class Quiver:
    n: int
    labels: Tuple[Label, ...]
    frozen: frozenset
    arcs: Dict[Tuple[Label, Label], int]

    def weight(self, src: Label, dst: Label) -> int:
        return self.arcs.get((src, dst), 0)


def standard_quiver(n: int, sl: bool = False) -> Quiver:
    return _quiver(n, sl, None)


def bd_quiver(triple: BDTriple, sl: bool = False) -> Quiver:
    """The standard quiver's arcs plus the six pair arcs, with
    (alpha+1, 1) and (1, beta+1) unfrozen."""
    return _quiver(triple.n, sl, triple)


def _quiver(n: int, sl: bool, triple: Optional[BDTriple]) -> Quiver:
    """The grid arcs not joining two vertices of the first row and
    column, then the pair arcs; an arc is kept only when both ends are
    labels, which on SL drops the arcs at (1, 1)."""
    labels, frozen = seed_labels(n, triple, sl)
    border = seed_labels(n)[1]
    arcs = [
        (s, d)
        for i, j in labels
        for s, d in (((i, j), (i, j + 1)), ((i, j), (i + 1, j)), ((i + 1, j + 1), (i, j)))
        if not (s in border and d in border)
    ]
    if triple is not None:
        alpha, beta = triple.alpha, triple.beta
        arcs += [
            ((alpha, 1), (alpha + 1, 1)),
            ((1, beta), (1, beta + 1)),
            ((n, alpha + 1), (1, beta + 1)),
            ((1, beta + 1), (n, alpha)),
            ((beta + 1, n), (alpha + 1, 1)),
            ((alpha + 1, 1), (beta, n)),
        ]
    inside = set(labels)
    return Quiver(
        n=n,
        labels=labels,
        frozen=frozen,
        arcs={arc: 1 for arc in arcs if arc[0] in inside and arc[1] in inside},
    )


@dataclass(frozen=True)
class ExchangeMatrix:
    """Rows indexed by mutable labels, columns by all labels.

    labels lists every vertex, mutable block first, row-major inside
    each block.
    """

    labels: Tuple[Label, ...]
    n_mutable: int
    entries: Tuple[Tuple[int, ...], ...]

    def mutable_labels(self) -> Tuple[Label, ...]:
        return self.labels[: self.n_mutable]

    def entry(self, row_label: Label, col_label: Label) -> int:
        r = self.labels.index(row_label)
        if r >= self.n_mutable:
            raise FrozenDirection(f"{row_label} is frozen; exchange matrix has no such row")
        return self.entries[r][self.labels.index(col_label)]


def to_exchange_matrix(q: Quiver) -> ExchangeMatrix:
    mutable = sorted(set(q.labels) - set(q.frozen))
    labels = tuple(mutable + sorted(q.frozen))
    w = q.arcs.get
    entries = tuple(
        tuple(w((r, c), 0) - w((c, r), 0) for c in labels) for r in mutable
    )
    return ExchangeMatrix(labels=labels, n_mutable=len(mutable), entries=entries)


def mutate_matrix(em: ExchangeMatrix, label: Label) -> ExchangeMatrix:
    """Matrix mutation in direction of a mutable label."""
    try:
        k = em.labels.index(label)
    except ValueError:
        raise FrozenDirection(f"{label} is not a vertex") from None
    if k >= em.n_mutable:
        raise FrozenDirection(f"cannot mutate at frozen vertex {label}")
    old = em.entries
    new_rows = []
    krow = old[k]
    for r in range(em.n_mutable):
        row = old[r]
        b_rk = row[k]
        if r == k:
            new_rows.append(tuple(-b for b in row))
        elif not b_rk:  # only column k changes, and it stays 0
            new_rows.append(row)
        else:
            new_rows.append(
                tuple(
                    -row[c] if c == k else row[c] + (abs(b_rk) * krow[c] + b_rk * abs(krow[c])) // 2
                    for c in range(len(em.labels))
                )
            )
    return replace(em, entries=tuple(new_rows))


def matrix_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    nrows = len(m)
    if nrows == 0:
        return 0
    ncols = len(m[0])
    rank = 0
    prev = 1
    for c in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[rank][c] * m[i][j] - m[i][c] * m[rank][j]) // prev
            m[i][c] = 0
        prev = m[rank][c]
        rank += 1
        if rank == nrows:
            break
    return rank


@dataclass(frozen=True)
class Seed:
    cluster: Cluster
    matrix: ExchangeMatrix


def make_seed(cluster: Cluster, quiver: Quiver) -> Seed:
    if set(quiver.labels) != set(cluster.labels):
        raise ValueError("cluster and quiver have different vertex sets")
    return Seed(cluster=cluster, matrix=to_exchange_matrix(quiver))


def mutate_seed(seed: Seed, label: Label) -> Seed:
    """One-step mutation: exchange the variable at a mutable label and
    mutate the matrix.  Raises NotLaurentPolynomial if the exchange
    polynomial is not divisible by the old variable.  The exchange
    polynomial is divided one slice at a time (exact_divide_products) and
    never formed whole, not even when a slice fails to divide; the slices
    of a heavy exchange are split over the workers of tasks.worker_count,
    which run_checks sets, and come out the same as in process."""
    em = seed.matrix
    new_matrix = mutate_matrix(em, label)
    funcs = seed.cluster.functions
    sides = ([], [])
    for lab, b in zip(em.labels, em.entries[em.labels.index(label)]):
        sides[b < 0].extend([funcs[lab]] * abs(b))
    try:
        new_var = exact_divide_products(sides, funcs[label])
    except NotDivisible as e:
        raise NotLaurentPolynomial(
            f"exchange at {label} is not polynomial: {e}"
        ) from None
    new_funcs = dict(funcs)
    new_funcs[label] = new_var
    new_cluster = replace(seed.cluster, functions=new_funcs)
    return Seed(cluster=new_cluster, matrix=new_matrix)


def to_dot(q: Quiver) -> str:
    """GraphViz rendering; frozen vertices drawn as boxes."""
    lines = ["digraph quiver {"]
    for lab in sorted(q.labels):
        shape = "box" if lab in q.frozen else "ellipse"
        lines.append(f'  "{lab[0]},{lab[1]}" [shape={shape}];')
    for (s, d) in sorted(q.arcs):
        w = q.arcs[(s, d)]
        attr = f' [label="{w}"]' if w != 1 else ""
        lines.append(f'  "{s[0]},{s[1]}" -> "{d[0]},{d[1]}"{attr};')
    lines.append("}")
    return "\n".join(lines)
