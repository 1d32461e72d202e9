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

from .bdseed import BDTriple, Cluster, Label, border_labels, grid_labels
from .polyring import NotDivisible, exact_divide


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
    labels = grid_labels(n, False)
    inside, border = set(labels), border_labels(n)
    arcs = {}
    for i, j in labels:
        for s, d in (((i, j), (i, j + 1)), ((i, j), (i + 1, j)), ((i + 1, j + 1), (i, j))):
            if s in inside and d in inside and not (s in border and d in border):
                arcs[(s, d)] = 1
    return _restrict(Quiver(n=n, labels=labels, frozen=frozenset(border), arcs=arcs), sl)


def bd_quiver(triple: BDTriple, sl: bool = False) -> Quiver:
    """The standard quiver's arcs plus the six pair arcs, with
    (alpha+1, 1) and (1, beta+1) unfrozen."""
    n, alpha, beta = triple.n, triple.alpha, triple.beta
    q = standard_quiver(n)
    arcs = dict(q.arcs)
    for arc in [
        ((alpha, 1), (alpha + 1, 1)),
        ((1, beta), (1, beta + 1)),
        ((n, alpha + 1), (1, beta + 1)),
        ((1, beta + 1), (n, alpha)),
        ((beta + 1, n), (alpha + 1, 1)),
        ((alpha + 1, 1), (beta, n)),
    ]:
        arcs[arc] = 1
    frozen = q.frozen - {(alpha + 1, 1), (1, beta + 1)}
    return _restrict(replace(q, frozen=frozen, arcs=arcs), sl)


def _restrict(q: Quiver, sl: bool) -> Quiver:
    """On SL, drop the determinant vertex (1, 1) and its arcs."""
    if not sl:
        return q
    return replace(
        q,
        labels=grid_labels(q.n, True),
        frozen=q.frozen - {(1, 1)},
        arcs={(s, d): w for (s, d), w in q.arcs.items() if (1, 1) not in (s, d)},
    )


@dataclass(frozen=True)
class ExchangeMatrix:
    """Rows indexed by mutable labels, columns by all labels.

    labels lists every vertex, mutable block first, row-major inside
    each block; permutation[k] is the position of labels[k] in the plain
    row-major ordering of all vertices.
    """

    labels: Tuple[Label, ...]
    n_mutable: int
    entries: Tuple[Tuple[int, ...], ...]
    permutation: Tuple[int, ...]

    def mutable_labels(self) -> Tuple[Label, ...]:
        return self.labels[: self.n_mutable]

    def column_index(self, label: Label) -> int:
        return self.labels.index(label)

    def entry(self, row_label: Label, col_label: Label) -> int:
        r = self.labels.index(row_label)
        if r >= self.n_mutable:
            raise FrozenDirection(f"{row_label} is frozen; exchange matrix has no such row")
        return self.entries[r][self.labels.index(col_label)]


def to_exchange_matrix(q: Quiver) -> ExchangeMatrix:
    mutable = sorted(set(q.labels) - set(q.frozen))
    frozen = sorted(q.frozen)
    labels = tuple(mutable + frozen)
    row_major = {lab: k for k, lab in enumerate(sorted(q.labels))}
    permutation = tuple(row_major[lab] for lab in labels)
    w = q.arcs.get
    entries = tuple(
        tuple(w((r, c), 0) - w((c, r), 0) for c in labels) for r in mutable
    )
    return ExchangeMatrix(
        labels=labels,
        n_mutable=len(mutable),
        entries=entries,
        permutation=permutation,
    )


def from_exchange_matrix(em: ExchangeMatrix) -> Quiver:
    """Rebuild the quiver from an exchange matrix.

    Only arcs with at least one mutable endpoint are recoverable, which
    is the invariant the round trip promises.
    """
    n = max(max(i, j) for i, j in em.labels)
    arcs: Dict[Tuple[Label, Label], int] = {}
    for r in range(em.n_mutable):
        for c, lab in enumerate(em.labels):
            b = em.entries[r][c]
            if b > 0:
                arcs[(em.labels[r], lab)] = b
            elif b < 0 and c >= em.n_mutable:
                # A negative entry against a frozen column is the only
                # record of a frozen-to-mutable arc; mutable-to-mutable
                # arcs also show up positively on the mirrored entry.
                arcs[(lab, em.labels[r])] = -b
    return Quiver(
        n=n,
        labels=tuple(sorted(em.labels)),
        frozen=frozenset(em.labels[em.n_mutable :]),
        arcs=arcs,
    )


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
    for r in range(em.n_mutable):
        row = old[r]
        if r == k:
            new_rows.append(tuple(-b for b in row))
            continue
        b_rk = row[k]
        krow = old[k]
        new_rows.append(
            tuple(
                -row[c]
                if c == k
                else row[c] + (abs(b_rk) * krow[c] + b_rk * abs(krow[c])) // 2
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


def make_seed(cluster: Cluster, quiver: Optional[Quiver] = None) -> Seed:
    if quiver is None:
        if cluster.standard:
            quiver = standard_quiver(cluster.n, sl=cluster.sl)
        else:
            quiver = bd_quiver(cluster.triple, sl=cluster.sl)
    if set(quiver.labels) != set(cluster.labels):
        raise ValueError("cluster and quiver have different vertex sets")
    return Seed(cluster=cluster, matrix=to_exchange_matrix(quiver))


def mutate_seed(seed: Seed, label: Label) -> Seed:
    """One-step mutation: exchange the variable at a mutable label and
    mutate the matrix.  Raises NotLaurentPolynomial if the exchange
    polynomial is not divisible by the old variable."""
    em = seed.matrix
    try:
        k = em.labels.index(label)
    except ValueError:
        raise FrozenDirection(f"{label} is not a vertex") from None
    if k >= em.n_mutable:
        raise FrozenDirection(f"cannot mutate at frozen vertex {label}")
    funcs = seed.cluster.functions
    ring = seed.cluster.ring
    pos = ring.one
    neg = ring.one
    row = em.entries[k]
    for c, lab in enumerate(em.labels):
        b = row[c]
        if b > 0:
            pos = pos * funcs[lab] ** b
        elif b < 0:
            neg = neg * funcs[lab] ** (-b)
    try:
        new_var = exact_divide(pos + neg, funcs[label])
    except NotDivisible as e:
        raise NotLaurentPolynomial(
            f"exchange at {label} is not polynomial: {e}"
        ) from None
    new_funcs = dict(funcs)
    new_funcs[label] = new_var
    new_cluster = replace(seed.cluster, functions=new_funcs)
    return Seed(cluster=new_cluster, matrix=mutate_matrix(em, label))


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
