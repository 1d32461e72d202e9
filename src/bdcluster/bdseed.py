"""Initial cluster seeds for the standard and exotic structures on GL(n)/SL(n).

A Belavin-Drinfeld pair here is a single pair of simple roots
(alpha, beta) with alpha != beta; the map sends alpha to beta.  Pairs
with alpha > beta are normalized to alpha < beta, and BDTriple.transposed
records that, but no builder reads it.  So a reversed pair builds and
checks the alpha -> beta structure, not the beta -> alpha one: `check all
--n 3 --alpha 2 --beta 1` checks the 1 -> 2 structure and reports
alpha=1 beta=2.  Building beta -> alpha is item 2 of ROADMAP.md; it waits
for a re-record of the benchmark, whose check-all-4-3-1 digest pins the
present behaviour.

The standard seed consists of the trailing minors f_ij = det of the
largest contiguous submatrix of X with upper-left corner (i, j) hugging
the border.  The exotic seed for (alpha, beta) replaces the functions
at the two special families of labels

    (n+k-alpha, k), k = 1..alpha   and   (m, n+m-beta), m = 1..beta

by determinants of 2x2-block matrices mixing two copies of X, and it
unfreezes the border labels (alpha+1, 1) and (1, beta+1).

standard_cluster and initial_cluster build the functions of GL seeds;
a seed's labels and frozen set are its quiver's (quiver.py), from
seed_labels.  An SL seed is its GL twin's without the determinant label
(1, 1), and verify.structure,
the one builder of the structures that the checks and the verbs read,
makes it so; nothing else in the package calls the two builders.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple

from .polyring import Poly, PolyRing
from .polymat import build_M, build_Mtilde, determinant, first_family, second_family

Label = Tuple[int, int]


class InvalidRoot(ValueError):
    """Raised when a root index is outside 1..n-1."""


class EqualRoots(ValueError):
    """Raised when the two roots of a pair coincide."""


@dataclass(frozen=True)
class BDTriple:
    """A normalized minimal Belavin-Drinfeld pair alpha < beta on sl(n).

    transposed says the pair was given as beta, alpha.  Only the seed
    verb's JSON output reads it: every structure, reversed or not, is the
    alpha -> beta one (see the module docstring).
    """

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
    """The pair of simple-root indices i, j normalized to alpha < beta;
    BDTriple validates it."""
    return BDTriple(n, min(i, j), max(i, j), transposed=i > j)


def structure_size(triple: Optional[BDTriple], n: Optional[int]) -> int:
    """The matrix size of a pair, an explicit n, or both when they agree:
    the one size check of every structure and operator."""
    if triple is None and n is None:
        raise ValueError("need a pair or an explicit size")
    if triple is not None and n not in (None, triple.n):
        raise ValueError(f"size n = {n} disagrees with the pair's n = {triple.n}")
    if triple is None and n < 1:
        raise ValueError(f"matrix size must be positive, got {n}")
    return n if triple is None else triple.n


@lru_cache(maxsize=64)
def get_ring(n: int) -> PolyRing:
    return PolyRing(n)


@lru_cache(maxsize=None)
def trailing_minor(n: int, i: int, j: int) -> Poly:
    """The trailing minor at (i, j), made once per (n, label) per process
    and shared by every seed that holds it: at most n^2 entries per size,
    each of at most n! terms, made only when a seed asks for the label."""
    return determinant(build_M(get_ring(n), i, j))


@dataclass(frozen=True, eq=False)
class Cluster:
    """An extended cluster: its ring and its functions by label, in the
    label order of the seed's quiver, which holds the labels and the
    frozen set.  Two clusters are equal only when they are one object."""

    ring: PolyRing
    functions: Dict[Label, Poly]


def seed_labels(
    n: int, triple: Optional[BDTriple] = None, sl: bool = False
) -> Tuple[Tuple[Label, ...], frozenset]:
    """The vertex labels of a seed and its frozen set, which its quiver
    holds; its cluster holds its functions in this label order.

    The labels are row-major; SL drops the determinant label (1, 1).
    The frozen labels are those of the first row and the first column,
    less (alpha+1, 1) and (1, beta+1) when a pair is given.
    """
    labels = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    if sl:
        labels.remove((1, 1))
    frozen = {lab for lab in labels if 1 in lab}
    if triple is not None:
        frozen -= {(triple.alpha + 1, 1), (1, triple.beta + 1)}
    return tuple(labels), frozenset(frozen)


def standard_cluster(n: int) -> Cluster:
    """The GL cluster of trailing minors; the standard quiver freezes its
    whole border."""
    return _cluster(n, None)


def initial_cluster(triple: BDTriple) -> Cluster:
    """The exotic GL cluster for a normalized pair: the standard one with
    block minors at the special labels.  Its quiver, bd_quiver, unfreezes
    the two border labels (alpha+1, 1) and (1, beta+1)."""
    return _cluster(triple.n, triple)


def _cluster(n: int, triple: Optional[BDTriple]) -> Cluster:
    ring = get_ring(n)
    special = first_family(n, triple.alpha) + second_family(n, triple.beta) if triple else []
    functions = {
        lab: determinant(build_Mtilde(ring, triple.alpha, triple.beta, *lab)) if lab in special else trailing_minor(n, *lab)
        for lab in seed_labels(n)[0]
    }
    return Cluster(ring=ring, functions=functions)

