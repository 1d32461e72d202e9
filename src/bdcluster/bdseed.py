"""Initial cluster seeds for the standard and exotic structures on GL(n)/SL(n).

A Belavin-Drinfeld pair here is a single pair of simple roots
(alpha, beta) with alpha != beta; the map sends alpha to beta.  Pairs
with alpha > beta are normalized by transposition to alpha < beta, and
the flag remembering this is carried along.

The standard seed consists of the trailing minors f_ij = det of the
largest contiguous submatrix of X with upper-left corner (i, j) hugging
the border.  The exotic seed for (alpha, beta) replaces the functions
at the two special families of labels

    (n+k-alpha, k), k = 1..alpha   and   (m, n+m-beta), m = 1..beta

by determinants of 2x2-block matrices mixing two copies of X, and it
unfreezes the border labels (alpha+1, 1) and (1, beta+1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional, Tuple

from .polyring import Poly, PolyRing
from .polymat import (
    build_Mtilde,
    build_Mtilde_shift,
    determinant,
    first_family,
    second_family,
    standard_minor,
)

Label = Tuple[int, int]


class InvalidRoot(ValueError):
    """Raised when a root index is outside 1..n-1."""


class EqualRoots(ValueError):
    """Raised when the two roots of a pair coincide."""


@dataclass(frozen=True)
class BDTriple:
    """A normalized minimal Belavin-Drinfeld pair alpha < beta on sl(n)."""

    n: int
    alpha: int
    beta: int
    transposed: bool = False

    def __post_init__(self):
        if self.n < 3:
            raise InvalidRoot(f"need n >= 3 for a pair of distinct simple roots, got n={self.n}")
        for r in (self.alpha, self.beta):
            if not (1 <= r <= self.n - 1):
                raise InvalidRoot(f"root {r} outside 1..{self.n - 1}")
        if self.alpha == self.beta:
            raise EqualRoots(f"roots must differ, both are {self.alpha}")
        if self.alpha > self.beta:
            raise ValueError("pair not normalized; use normalize_triple")


def normalize_triple(n: int, i: int, j: int) -> BDTriple:
    """Validate a pair of simple-root indices and normalize to alpha < beta."""
    if not (1 <= i <= n - 1):
        raise InvalidRoot(f"root {i} outside 1..{n - 1}")
    if not (1 <= j <= n - 1):
        raise InvalidRoot(f"root {j} outside 1..{n - 1}")
    if i == j:
        raise EqualRoots(f"roots must differ, both are {i}")
    if i < j:
        return BDTriple(n, i, j, transposed=False)
    return BDTriple(n, j, i, transposed=True)


@lru_cache(maxsize=64)
def get_ring(n: int) -> PolyRing:
    return PolyRing(n)


@dataclass(frozen=True)
class Cluster:
    """An initial extended cluster: labelled functions plus the frozen set."""

    ring: PolyRing
    n: int
    labels: Tuple[Label, ...]
    functions: Dict[Label, Poly] = field(compare=False)
    frozen: frozenset
    sl: bool = False
    standard: bool = True
    triple: Optional[BDTriple] = None

    def mutable_labels(self) -> Tuple[Label, ...]:
        return tuple(lab for lab in self.labels if lab not in self.frozen)

    def __getitem__(self, label: Label) -> Poly:
        return self.functions[label]


def border_labels(n: int) -> set:
    """The labels of the first row and the first column."""
    return {(i, 1) for i in range(1, n + 1)} | {(1, j) for j in range(1, n + 1)}


def grid_labels(n: int, sl: bool) -> Tuple[Label, ...]:
    """Every label in row-major order; SL drops the determinant label (1, 1)."""
    labels = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    if sl:
        labels.remove((1, 1))
    return tuple(labels)


def standard_cluster(n: int, sl: bool = False) -> Cluster:
    """The seed of trailing minors with the whole border frozen."""
    return _cluster(n, sl, None)


def initial_cluster(triple: BDTriple, sl: bool = False) -> Cluster:
    """The exotic seed for a normalized pair: the standard seed with block
    minors at the special labels and the two border labels
    (alpha+1, 1), (1, beta+1) unfrozen."""
    return _cluster(triple.n, sl, triple)


def _cluster(n: int, sl: bool, triple: Optional[BDTriple]) -> Cluster:
    ring = get_ring(n)
    labels = grid_labels(n, sl)
    frozen = border_labels(n) & set(labels)
    blocks: Dict[Label, Poly] = {}
    if triple is not None:
        alpha, beta = triple.alpha, triple.beta
        blocks = {
            lab: determinant(build_Mtilde(ring, alpha, beta, *lab))
            for lab in first_family(n, alpha, beta) + second_family(n, alpha, beta)
        }
        frozen -= {(alpha + 1, 1), (1, beta + 1)}
    functions = {
        lab: blocks[lab] if lab in blocks else standard_minor(ring, *lab).det()
        for lab in labels
    }
    return Cluster(
        ring=ring,
        n=n,
        labels=labels,
        functions=functions,
        frozen=frozenset(frozen),
        sl=sl,
        standard=triple is None,
        triple=triple,
    )


def theta(triple: BDTriple, k: int) -> Poly:
    """Closed form for the first-family function at label (n+k-alpha, k):

        theta_k = f * g - f_right * g_left

    with f the trailing minor at (n+k-alpha, k) (columns k..alpha),
    g the one at (1, beta+1), and the arrows swapping the boundary
    column of each for its neighbour.

    When n = 2*beta the label (1, beta+1) heads the second family and
    carries the glued function psi_1 instead of a plain minor, so g and
    g_left become the determinants of that block matrix and of its
    left-stepped variant.
    """
    n, alpha, beta = triple.n, triple.alpha, triple.beta
    if not (1 <= k <= alpha):
        raise InvalidRoot(f"first-family index {k} outside 1..{alpha}")
    ring = get_ring(n)
    f = standard_minor(ring, n + k - alpha, k)
    if n == 2 * beta:
        g_det = determinant(build_Mtilde(ring, alpha, beta, 1, beta + 1))
        g_left = determinant(build_Mtilde_shift(ring, alpha, beta, 1, beta + 1))
    else:
        g = standard_minor(ring, 1, beta + 1)
        g_det, g_left = g.det(), g.left()
    return f.det() * g_det - f.right() * g_left


def psi(triple: BDTriple, m: int) -> Poly:
    """Closed form for the second-family function at label (m, n+m-beta):

        psi_m = f * g - f_down * g_up

    with f the trailing minor at (m, n+m-beta) (rows m..beta), g the one
    at (alpha+1, 1), and the arrows swapping the boundary row of each
    for its neighbour.

    When n = 2*alpha the label (alpha+1, 1) heads the first family and
    carries the glued function theta_1 instead of a plain minor, so g
    and g_up become the determinants of that block matrix and of its
    up-stepped variant.
    """
    n, alpha, beta = triple.n, triple.alpha, triple.beta
    if not (1 <= m <= beta):
        raise InvalidRoot(f"second-family index {m} outside 1..{beta}")
    ring = get_ring(n)
    f = standard_minor(ring, m, n + m - beta)
    if n == 2 * alpha:
        g_det = determinant(build_Mtilde(ring, alpha, beta, alpha + 1, 1))
        g_up = determinant(build_Mtilde_shift(ring, alpha, beta, alpha + 1, 1))
    else:
        g = standard_minor(ring, alpha + 1, 1)
        g_det, g_up = g.det(), g.up()
    return f.det() * g_det - f.down() * g_up
