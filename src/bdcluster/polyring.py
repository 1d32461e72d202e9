"""Exact sparse multivariate polynomials over the rationals.

Polynomials live in Q[x[1,1], ..., x[n,n], y[1,1], ..., y[n,n]], the
coordinate ring of one or two n-by-n matrices of indeterminates.  A
polynomial is a map from monomials to nonzero rational coefficients;
the zero polynomial is the empty map.

Monomials are packed into Python integers, one byte per variable, with
the byte for x[1,1] most significant and y[n,n] least significant.
Comparing two packed monomials as integers is then exactly the
lexicographic comparison of exponent vectors in variable order
x[1,1] < x[1,2] < ... < y[n,n] (earlier variables dominate), which is
the monomial order used for leading terms, division, and printing.
Packing also makes monomial multiplication a single integer addition.
Exponents must stay below 128 per variable: a product that reaches 128
in any variable raises ExponentOverflow instead of carrying into the
neighbouring byte.

Only this module reads the layout: every product of polynomials runs
through one kernel, PolyRing.accumulate, every exponent test through one
guard, PolyRing.check_exponents, and other modules read keys only
through x_exponents and top, and table keys (below) only through the
nibble_ and fits_nibbles helpers.  Once a sum of products
reaches SLICE_PRODUCTS term products, PolyRing.slices splits it into
slices, a slice being the terms whose keys agree under a mask, and packs
consecutive slices into groups below SLICE_PRODUCTS term products, so
that each group is accumulated and freed before the next.  Every exact
division, the pair test's of poisson included, is _divide: it slices its
dividend by the variables the divisor lacks and hands each slice to the
kernel _reduce, which walks only the terms that the divisor's leading
term divides; the slices are tasks of tasks.run_tasks, so a heavy
division forks within a tasks.worker_count block.  _divide also cuts its
keys to the bytes in use, shifting out the low bytes that no operand
key uses, so the kernel of a division in x alone never carries the y
bytes.  Poly keys keep every byte, y's included, since stored digests
hash raw keys; once the ring holds x alone, the cut is usually empty.

The gradient tables of poisson carry table keys instead: x alone, 4
bits per variable, x[1,1] on top, so a table key is a quarter of a ring
key and still orders as it does.  Only a function that fits them is
tabled (fits_nibbles: no y, and no exponent above 6).  A table entry
raises one exponent by 1, so its fields are at most 7, and the sum of
two table keys is at most 14 in every field: a pair test's sum never
carries into a neighbouring field, and accumulate skips its guard there
(guard off).  The table pass makes each term's table key once
(nibble_key) and adds template deltas built from nibble_units; the pair
test slices by nibble_row_mask, X's first row, one slice at a time;
from_nibbles maps table keys back to ring keys where a user sees them.

Coefficients are ints or fractions.Fraction, so arithmetic stays exact.
const, scalar products and exact_divide give ints for integral values;
sums, Poly * Poly products and derivatives may keep an integral
Fraction, which compares and hashes equal to the int.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from .tasks import run_tasks

Scalar = Union[int, Fraction]
VarId = Tuple[str, int, int]  # ("x" | "y", row, col), 1-based

_BITS = 8
_DIGIT_MASK = (1 << _BITS) - 1

# Table keys give each x variable one hex digit; a function fits them when
# no exponent exceeds _NIBBLE_TOP, so that sums of entries stay below 16.
_NIBBLE_BITS = 4
_NIBBLE_TOP = 6

# A sum of this many term products or more is split into slices, packed
# into groups of fewer products unless one slice alone has more
# (PolyRing.slices), so it holds one group's monomials at once: at most
# 9,573 for the heaviest (5,1,4) pair test, whose whole sum held 175,114.
# Lighter sums, such as the few hundred tiny pair tests of the frozen,
# somega and bracketdiff checks, are one slice over their own dicts, since
# splitting every factor would cost more than their sums.
SLICE_PRODUCTS = 20_000


def _normalize_scalar(c: Scalar) -> Scalar:
    """Collapse integral Fractions to plain ints."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class DivisionByZero(ZeroDivisionError):
    """Raised when the divisor of an exact division is the zero polynomial."""


class NotDivisible(ArithmeticError):
    """Raised when exact division leaves a nonzero remainder."""


class ExponentOverflow(ArithmeticError):
    """Raised when a product, or a term that an exact division creates, has
    an exponent of 128 or more in some variable."""


class PolyRing:
    """The ring Q[x[i,j], y[i,j] : 1 <= i, j <= n] with a fixed monomial order."""

    symbols = ("x", "y")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"matrix size must be positive, got {n}")
        self.n = n
        self.nvars = len(self.symbols) * n * n
        # Variable 0 (= x[1,1]) occupies the most significant byte.
        self._shift = {i: (self.nvars - 1 - i) * _BITS for i in range(self.nvars)}
        self._ids: List[VarId] = [
            (s, i, j) for s in self.symbols for i in range(1, n + 1) for j in range(1, n + 1)
        ]
        self._index = {v: k for k, v in enumerate(self._ids)}
        # High bit of every variable byte; read by the guard and the divisibility test.
        hi = 0
        for i in range(self.nvars):
            hi |= 0x80 << self._shift[i]
        self._himask = hi
        # x_units[(a-1)*n + (b-1)] is the key of x[a,b]; x comes first.
        self.x_units = tuple(1 << self._shift[k] for k in range(n * n))
        self._x_shift = (self.nvars - n * n) * _BITS
        # nibble_units[k] is x_units[k] as a table key: x alone, x[1,1] in
        # the top nibble, so table keys compare as the ring's do.
        self.nibble_units = tuple(1 << (n * n - 1 - k) * _NIBBLE_BITS for k in range(n * n))
        # All ones on the nibbles of X's first row: a table key's slice.
        self.nibble_row_mask = ((1 << n * _NIBBLE_BITS) - 1) << (n * n - n) * _NIBBLE_BITS
        self._nibble_hex = f"0{n * n}x"
        self.zero = Poly(self, {})
        self.one = Poly(self, {0: 1})

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyRing) and other.n == self.n

    def __hash__(self):
        return hash(self.n)

    def __repr__(self):
        return f"PolyRing(n={self.n})"

    def var_index(self, v: VarId) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise KeyError(f"{v} is not a variable of {self!r}") from None

    def var(self, sym: str, i: int, j: int) -> "Poly":
        idx = self.var_index((sym, i, j))
        return Poly(self, {1 << self._shift[idx]: 1})

    def x(self, i: int, j: int) -> "Poly":
        return self.var("x", i, j)

    def y(self, i: int, j: int) -> "Poly":
        return self.var("y", i, j)

    def const(self, c: Scalar) -> "Poly":
        c = _normalize_scalar(c)
        return Poly(self, {0: c} if c else {})

    def x_exponents(self, mono: int) -> bytes:
        """The exponents of x[1,1], x[1,2], ..., x[n,n] in a monomial key."""
        return (mono >> self._x_shift).to_bytes(self.n * self.n, "big")

    def fits_nibbles(self, top: int) -> bool:
        """Whether a function whose largest exponents have the key top fits
        table keys, as every tabled function must: it holds no y, and no
        exponent above 6."""
        return not top & ((1 << self._x_shift) - 1) and max(self.x_exponents(top)) <= _NIBBLE_TOP

    def nibble_key(self, exps: bytes) -> int:
        """The table key of the x exponents exps, as x_exponents gives
        them, every one below 16: each byte's low hex digit."""
        return int(exps.hex()[1::2], 16)

    def from_nibbles(self, terms: Dict[int, Scalar]) -> Dict[int, Scalar]:
        """The term dict terms, keyed by table keys, keyed by ring keys:
        each hex digit of a table key becomes a byte."""
        spec, shift = self._nibble_hex, self._x_shift
        return {int("0" + "0".join(format(k, spec)), 16) << shift: c for k, c in terms.items()}

    def top(self, monos: Iterable[int]) -> int:
        """The key of the largest exponent of each variable over monos, 0
        for none: a byte-wise max of keys whose bytes are all below 0x80, as
        every stored key's are, in a few integer operations per key."""
        hi = self._himask
        top = 0
        for m in monos:
            # 0x80 in each byte where m's exponent is at least top's: m + 128
            # - top stays within its byte, so no byte borrows from the next.
            ge = ((m | hi) - top) & hi
            top ^= (m ^ top) & (ge - (ge >> 7))
        return top

    def check_exponents(self, keys: Iterable[int]) -> None:
        """Raise ExponentOverflow when one of keys has an exponent of 128 or
        more.  Each must be a sum of keys with every byte below 0x80, as a
        product's is: such a sum cannot carry, so 128 shows as a high bit."""
        if reduce(or_, keys, 0) & self._himask:
            raise ExponentOverflow("a product has an exponent of 128 or more in some variable")

    def accumulate(self, products, guard: bool = True) -> Dict[int, Scalar]:
        """sum of weight * a * b over (a, b, weight) in products, a and b
        term dicts, skipping weight 0, as one term dict.  Zero sums stay in,
        and unless guard is off, as it is for table keys, which cannot
        carry, every key made is guarded, even one whose sum cancelled."""
        acc: Dict[int, Scalar] = {}
        get = acc.get
        for a, b, scale in products:
            if not scale:
                continue
            if len(a) < len(b):
                a, b = b, a
            for mb, cb in b.items():
                cb = scale * cb
                for ma, ca in a.items():
                    k = ma + mb
                    acc[k] = get(k, 0) + ca * cb
        if guard:
            self.check_exponents(acc)
        return acc

    def slices(self, products, mask: int) -> Iterable[list]:
        """The products (a, b, weight) of accumulate in groups whose sums
        are disjoint and add up to accumulate(products): below
        SLICE_PRODUCTS term products, products itself; otherwise, per
        target slice v, [(a_p, b_q, weight), ...] over the parts a_p of a
        and b_q of b whose keys k have k & mask = p and q, p + q = v,
        weight 0 dropped.  Packed keys add without carry, so a term of a_p
        times one of b_q lands in slice p + q.  Each distinct factor dict
        is split once, however many products read it.  Consecutive slices
        are packed into one group while it stays below SLICE_PRODUCTS term
        products, so many small slices cost one sum, not one each; a
        heavier slice is a group of its own."""
        if sum(len(a) * len(b) for a, b, _ in products) < SLICE_PRODUCTS:
            return [products]
        parts: Dict[int, list] = {}
        out: Dict[int, list] = defaultdict(list)
        for a, b, scale in products:
            if not scale:
                continue
            for terms in (a, b):
                if id(terms) not in parts:
                    by_v: Dict[int, Dict[int, Scalar]] = defaultdict(dict)
                    for m, c in terms.items():
                        by_v[m & mask][m] = c
                    parts[id(terms)] = list(by_v.items())
            for p, ap in parts[id(a)]:
                for q, bq in parts[id(b)]:
                    out[p + q].append((ap, bq, scale))
        # The first slice, and each that would take a pack to SLICE_PRODUCTS, opens a pack.
        packs, size = [], SLICE_PRODUCTS
        for group in out.values():
            cost = sum(len(a) * len(b) for a, b, _ in group)
            if size + cost >= SLICE_PRODUCTS:
                packs.append([])
                size = 0
            packs[-1] += group
            size += cost
        return packs

    def monomial_exponents(self, mono: int) -> Dict[VarId, int]:
        """Unpack a monomial key into {variable: exponent}, nonzero entries only."""
        out: Dict[VarId, int] = {}
        if mono:
            raw = mono.to_bytes(self.nvars, "big")
            for i, e in enumerate(raw):
                if e:
                    out[self._ids[i]] = e
        return out


class Poly:
    """Immutable sparse polynomial; do not mutate the underlying dict."""

    __slots__ = ("ring", "_d")

    def __init__(self, ring: PolyRing, terms: Dict[int, Scalar]):
        self.ring = ring
        self._d = terms

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self._d

    def __bool__(self) -> bool:
        return bool(self._d)

    def __len__(self) -> int:
        return len(self._d)

    def leading_monomial(self) -> int:
        if not self._d:
            raise ValueError("the zero polynomial has no leading monomial")
        return max(self._d)

    def leading_coefficient(self) -> Scalar:
        return self._d[self.leading_monomial()]

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise ValueError("polynomials belong to different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented  # type: ignore[return-value]

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._d == o._d

    __hash__ = None  # type: ignore[assignment]

    def __neg__(self) -> "Poly":
        return Poly(self.ring, {m: -c for m, c in self._d.items()})

    def __add__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self._d, o._d
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        get = out.get
        for m, c in b.items():
            v = get(m, 0) + c
            if v:
                out[m] = v
            else:
                del out[m]
        return Poly(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + -o

    def __rsub__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = _normalize_scalar(other)
            if not other:
                return self.ring.zero
            return Poly(self.ring, {m: _normalize_scalar(c * other) for m, c in self._d.items()})
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        acc = self.ring.accumulate([(self._d, o._d, 1)])
        return Poly(self.ring, {m: c for m, c in acc.items() if c})

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative powers are not polynomials")
        result = self.ring.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        return render(self)


def partial_derivative(p: Poly, v: VarId) -> Poly:
    ring = p.ring
    shift = ring._shift[ring.var_index(v)]
    out: Dict[int, Scalar] = {}
    for m, c in p._d.items():
        e = (m >> shift) & _DIGIT_MASK
        if e:
            out[m - (1 << shift)] = c * e
    return Poly(ring, out)


def _reduce(rem: Dict[int, Scalar], qd: Dict[int, Scalar], himask: int) -> Dict[int, Scalar]:
    """The quotient of the term dict rem by the term dict qd, consuming
    rem; himask holds the high bit of every byte the keys use.  Zero
    entries are allowed, and a rem of zeros alone, such as a slice whose
    sums all cancel, is not sorted.  Raises NotDivisible(m) for the
    largest nonzero remainder term m, which lead(q) does not divide, and
    ExponentOverflow when a reduction makes an exponent of 128 or more.

    One decreasing walk over the monomials of rem that lead(q) divides,
    the only ones a quotient term can come from; the others are never
    sorted.  A term that has cancelled costs one lookup; a nonzero one is
    reduced against lead(q), deleted from rem, and q's other terms times
    the quotient term are subtracted.  A subtraction only reaches
    monomials below the current one; one that rem lacked and lead(q)
    divides goes on a small max-heap, merged with the walk, and any other
    is merely entered in rem.  Cancelled sums stay in rem as 0, so
    membership in rem tells which monomials the walk or the heap will
    still reach, and each is reached once.  What the walk leaves in rem
    is the remainder.  Its largest nonzero term is the one a walk over
    every monomial would have stopped at, since a quotient term changes
    only monomials below its own.
    """
    if not any(rem.values()):
        return {}
    qlead = max(qd)
    qlc = qd[qlead]
    tail = [(m, c) for m, c in qd.items() if m != qlead]
    quot: Dict[int, Scalar] = {}
    heap: List[int] = []
    # lead(q) divides m when no byte of m is below qlead's, that is when
    # (m | himask) - qlead borrows no high bit: every byte is below 0x80.
    walk = iter(sorted([m for m in rem if (m | himask) - qlead & himask == himask], reverse=True))
    # -1 is below every monomial, so it ends the walk.
    nxt = next(walk, -1)
    while True:
        if heap and -heap[0] > nxt:
            m = -heapq.heappop(heap)
        elif nxt < 0:
            break
        else:
            m = nxt
            nxt = next(walk, -1)
        c = rem[m]
        if not c:
            continue
        del rem[m]
        tmono = m - qlead
        if isinstance(c, int) and isinstance(qlc, int):
            tc, r = divmod(c, qlc)
            if r:
                tc = Fraction(c, qlc)
        else:
            tc = _normalize_scalar(c / qlc)
        quot[tmono] = tc
        for m2, c2 in tail:
            k = tmono + m2
            v = rem.get(k)
            if v is None:
                # tmono and m2 have every byte below 0x80, so k carries
                # nothing and an exponent of 128 shows as a high bit.
                if k & himask:
                    raise ExponentOverflow("a division reaches an exponent of 128 or more in some variable")
                if (k | himask) - qlead & himask == himask:
                    heapq.heappush(heap, -k)
                rem[k] = -tc * c2
            else:
                rem[k] = v - tc * c2
    if any(rem.values()):
        raise NotDivisible(max(m for m, c in rem.items() if c))
    return quot


def _divide(products, q: Poly) -> Dict[int, Scalar]:
    """The quotient by q of P, the sum of products (a, b, weight) as
    accumulate takes them, or NotDivisible naming the largest remainder
    term that lead(q) does not divide.

    With V the variables q lacks, write P = sum_v P_v m_v, m_v a monomial
    in V alone, and take the P_v from PolyRing.slices with V's bytes as
    mask, one at a time.  q holds no variable of V, so every reduction
    stays inside its own slice: q | P exactly when q | P_v for every v,
    P / q = sum_v (P_v / q) m_v, and the remainder of P is the sum of the
    slices' remainders.  Its largest term is therefore the largest of the
    slices' witnesses, so every slice is tried and the dividend is never
    formed whole.  The slices are the tasks of tasks.run_tasks, each
    costing twice its term products, since it is summed and then reduced:
    a slice returns its quotient's term dict or its largest remainder
    term, and a heavy division splits its slices over the workers of
    tasks.worker_count, in process outside a worker_count block.

    The keys are cut to the bytes in use first: the low bytes that no key
    of q or of a factor uses, the y bytes of every polynomial in x alone,
    are shifted out of every key and of the slice mask and high-bit mask,
    and shifted back into the quotient and the witness.  Sums and
    comparisons of keys are unchanged by the cut, and each costs less on
    the shorter integers.
    """
    ring = q.ring
    if not q._d:
        raise DivisionByZero("division by the zero polynomial")
    factors = {id(t): t for a, b, _ in products for t in (a, b)}
    used = reduce(or_, q._d, 0)
    # The low bytes that no key uses: the trailing zero bytes of all keys or'ed.
    every = reduce(or_, (reduce(or_, t, 0) for t in factors.values()), used).to_bytes(ring.nvars, "big")
    shift = _BITS * (ring.nvars - len(every.rstrip(b"\0")))
    # All ones on the bytes of the variables that no term of q contains.
    mask = int.from_bytes(bytes(0 if b else _DIGIT_MASK for b in used.to_bytes(ring.nvars, "big")), "big")
    cut = {i: {m >> shift: c for m, c in t.items()} for i, t in factors.items()}
    qd = {m >> shift: c for m, c in q._d.items()}
    # accumulate's guard reads the cut keys' high bits with the ring's whole
    # high-bit mask, as the cut keys sit on the ring's lowest bytes.
    himask = ring._himask >> shift
    groups = list(ring.slices([(cut[id(a)], cut[id(b)], w) for a, b, w in products], mask >> shift))

    def divide_slice(group):
        # Only _reduce holds the slice, so it is freed before the next slice
        # is summed.
        try:
            return _reduce(ring.accumulate(group), qd, himask)
        except NotDivisible as e:
            return e.args[0]

    parts = run_tasks(divide_slice, groups, [2 * sum(len(a) * len(b) for a, b, _ in g) for g in groups])
    witnesses = [part for part in parts if isinstance(part, int)]
    if witnesses:
        raise NotDivisible(
            f"remainder term of degree profile {ring.monomial_exponents(max(witnesses) << shift)} "
            "is not reducible by the divisor's leading term"
        )
    return {m << shift: c for part in parts for m, c in part.items()}


def exact_divide(p: Poly, q: Poly) -> Poly:
    """Return p / q when q divides p exactly; raise NotDivisible otherwise,
    naming the largest remainder term that q's leading term does not
    divide (_divide of p alone)."""
    if p.ring != q.ring:
        raise ValueError("polynomials belong to different rings")
    return Poly(p.ring, _divide([(p._d, p.ring.one._d, 1)], q))


def exact_divide_products(sides: Sequence[List[Poly]], q: Poly) -> Poly:
    """(sum over sides of the product of the side's factors) / q, exactly,
    without forming the whole numerator: each side multiplies all but its
    largest factor into a head, and _divide sums the head times that
    factor one slice at a time."""
    ring = q.ring
    heads = []
    for factors in sides:
        *rest, big = sorted(factors, key=len) or [ring.one]
        heads.append((reduce(Poly.__mul__, rest, ring.one)._d, big._d, 1))
    return Poly(ring, _divide(heads, q))


def render(p: Poly) -> str:
    """Deterministic text form, terms in decreasing monomial order."""
    if not p._d:
        return "0"
    pieces: List[str] = []
    for m in sorted(p._d, reverse=True):
        c = p._d[m]
        exps = p.ring.monomial_exponents(m)
        factors = []
        for (sym, i, j), e in exps.items():
            name = f"{sym}[{i},{j}]"
            factors.append(name if e == 1 else f"{name}^{e}")
        body = "*".join(factors)
        neg = c < 0
        mag = -c if neg else c
        if body and mag == 1:
            term = body
        elif body:
            term = f"{mag}*{body}"
        else:
            term = str(mag)
        if not pieces:
            pieces.append(f"-{term}" if neg else term)
        else:
            pieces.append(f"- {term}" if neg else f"+ {term}")
    return " ".join(pieces)
