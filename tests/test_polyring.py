"""Arithmetic in the exact sparse polynomial ring."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from bdcluster import polyring
from bdcluster.polyring import (
    DivisionByZero,
    ExponentOverflow,
    NotDivisible,
    Poly,
    PolyRing,
    exact_divide,
    partial_derivative,
    render,
)
from oracles import MissingAssignment, evaluate, heap_exact_divide, unpack

R2 = PolyRing(2)
R3 = PolyRing(3)


def _vars(ring):
    return [
        ring.var(s, i, j)
        for s in ring.symbols
        for i in range(1, ring.n + 1)
        for j in range(1, ring.n + 1)
    ]


# Small random polynomials over PolyRing(2): up to 4 terms, each a
# product of at most 3 of the 8 variables (or of the given ones), small
# rational coefficients unless coeff says otherwise.
def _poly_strategy(ring, coeff=None, variables=None):
    variables = variables or _vars(ring)
    if coeff is None:
        coeff = st.fractions(
            min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4
        ).filter(lambda c: c != 0)
    term = st.tuples(
        st.lists(st.sampled_from(range(len(variables))), min_size=0, max_size=3),
        coeff,
    )

    def build(terms):
        p = ring.zero
        for idxs, c in terms:
            m = ring.const(c)
            for k in idxs:
                m = m * variables[k]
            p = p + m
        return p

    return st.lists(term, min_size=0, max_size=4).map(build)


polys = _poly_strategy(R2)
# Integer coefficients as well, so division takes its int path.
mixed_polys = st.one_of(_poly_strategy(R2, st.integers(-6, 6).filter(bool)), polys)
_X2 = [R2.x(i, j) for i in (1, 2) for j in (1, 2)]
x_polys = st.one_of(_poly_strategy(R2, st.integers(-6, 6).filter(bool), _X2), _poly_strategy(R2, None, _X2))


class TestBasics:
    def test_zero_and_one(self):
        assert R2.zero.is_zero()
        assert not R2.one.is_zero()
        assert R2.one * R2.zero == R2.zero
        assert len(R2.one) == 1

    def test_constant_collapses_to_int(self):
        p = R2.const(Fraction(6, 2))
        assert p.leading_coefficient() == 3
        assert isinstance(p.leading_coefficient(), int)
        # So does an integral coefficient of a scalar product, either way round.
        x = R2.x(1, 1)
        for q in ((2 * x) * Fraction(1, 2), (x * Fraction(1, 2)) * 2):
            assert q == x
            assert type(q.leading_coefficient()) is int

    def test_var_roundtrip(self):
        p = R3.x(2, 3)
        assert len(p) == 1
        assert R3.monomial_exponents(p.leading_monomial()) == {("x", 2, 3): 1}
        assert p.leading_coefficient() == 1

    def test_lex_order_respects_variable_listing(self):
        # x[1,1] dominates every later variable.
        assert (R2.x(1, 1) + R2.x(2, 2)).leading_monomial() == R2.x(1, 1).leading_monomial()
        assert (R2.x(1, 2) + R2.y(1, 1)).leading_monomial() == R2.x(1, 2).leading_monomial()

    def test_str_of_simple_polynomials(self):
        assert str(R2.zero) == "0"
        assert str(R2.x(1, 2) - R2.x(2, 1)) == "x[1,2] - x[2,1]"
        assert render(2 * R2.x(1, 1) ** 2) == "2*x[1,1]^2"

    def test_scalar_coercion(self):
        p = R2.x(1, 1)
        assert p + 1 - 1 == p
        assert 3 * p == p + p + p
        assert (Fraction(1, 2) * p + Fraction(1, 2) * p) == p

    def test_pow(self):
        p = R2.x(1, 1) + 1
        assert p ** 0 == R2.one
        assert p ** 3 == p * p * p
        with pytest.raises(ValueError):
            p ** -1


@given(p=polys, q=polys, r=polys)
@settings(max_examples=120, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + R2.zero == p
    assert p * R2.one == p
    assert p - p == R2.zero


def _typed(p):
    """p's terms with each coefficient's type, so 2 and Fraction(2) differ."""
    return {m: (type(c), c) for m, c in p._d.items()}


def _divide_or_witness(divide, p, q):
    try:
        return _typed(divide(p, q))
    except NotDivisible as e:
        return str(e)


@given(p=mixed_polys, q=mixed_polys)
@settings(max_examples=200, deadline=None)
def test_exact_division_inverts_multiplication(p, q):
    if q.is_zero():
        with pytest.raises(DivisionByZero):
            exact_divide(p, q)
        return
    quot = exact_divide(p * q, q)
    assert quot == p
    assert _typed(quot) == _typed(heap_exact_divide(p * q, q))


class TestSlices:
    @pytest.mark.parametrize("limit", [0, 1, 12, 60, 200, 10**6])
    def test_packs_are_disjoint_and_add_up(self, monkeypatch, limit):
        # Products of small x polynomials of size 3, sliced by the bytes of
        # x[1,1] and x[1,2]: the packs' sums have disjoint keys and add up
        # to the whole sum, cancelled sums included; a pack holds fewer than
        # SLICE_PRODUCTS term products unless it is one slice, and the
        # slices (SLICE_PRODUCTS 0) are packed in order.
        x = R3.x
        a = (x(1, 1) + 2 * x(1, 2) + x(2, 1)) ** 3 - x(3, 3)
        b = (x(1, 1) - x(1, 2) + x(2, 2) + 1) ** 2
        c = x(1, 2) * x(3, 1) - 3 * x(1, 1) ** 2
        products = [(a._d, b._d, 1), (b._d, c._d, -2), (c._d, c._d, 0), (a._d, c._d, 5)]
        whole = R3.accumulate(products)
        mask = int.from_bytes(bytes([0xFF, 0xFF] + [0] * (R3.nvars - 2)), "big")

        def cost(group):
            return sum(len(p) * len(q) for p, q, _ in group)

        monkeypatch.setattr(polyring, "SLICE_PRODUCTS", 0)
        slices = [cost(g) for g in R3.slices(products, mask)]
        monkeypatch.setattr(polyring, "SLICE_PRODUCTS", limit)
        packs = list(R3.slices(products, mask))
        merged = {}
        for pack in packs:
            sums = R3.accumulate(pack)
            assert not merged.keys() & sums.keys()
            merged.update(sums)
        assert merged == whole
        total = sum(slices)
        if total < limit:
            assert packs == [products]
            return
        assert len(slices) > 1 and sum(map(cost, packs)) == total
        # Greedy packing of the slices in order.
        expected, size = [[]], 0
        for k in slices:
            if expected[-1] and size + k >= limit:
                expected.append([])
                size = 0
            expected[-1].append(k)
            size += k
        assert [cost(pack) for pack in packs] == [sum(e) for e in expected]
        for pack, e in zip(packs, expected):
            assert cost(pack) < limit or len(e) == 1


def test_division_remainder_detected():
    p = R2.x(1, 1) * R2.x(2, 2) + 1
    with pytest.raises(NotDivisible):
        exact_divide(p, R2.x(1, 1))


def test_division_with_fractional_leading_coefficient():
    q = Fraction(3, 7) * R2.x(1, 2) + Fraction(1, 2)
    p = (R2.x(2, 1) - 5) * q
    assert exact_divide(p, q) == R2.x(2, 1) - 5


class TestExactDivision:
    """exact_divide against multiplication and against heap_exact_divide,
    the earlier algorithm kept in the oracles."""

    def test_non_unit_leading_coefficient(self):
        x = R3.x
        q = 6 * x(1, 1) * x(2, 2) - 4 * x(1, 3) + 3
        s = 5 * x(1, 1) ** 2 - Fraction(7, 2) * x(3, 3) + 1
        quot = exact_divide(s * q, q)
        assert quot == s
        assert _typed(quot) == _typed(heap_exact_divide(s * q, q))

    def test_zero_dividend(self):
        q = 2 * R2.x(1, 1) + R2.x(2, 2)
        assert exact_divide(R2.zero, q) == R2.zero
        with pytest.raises(DivisionByZero):
            exact_divide(R2.zero, R2.zero)

    def test_created_monomial_that_cancels(self, monkeypatch):
        # Dividing by q = x[1,1] + x[1,2] + x[1,3] the product q * (x[1,2] -
        # x[1,3]): the quotient term x[1,2] subtracts x[1,2]*x[1,3], which p
        # lacks, and the term -x[1,3] then cancels it again.  lead(q) =
        # x[1,1] does not divide x[1,2]*x[1,3], so it is entered in the
        # remainder, never pushed on the heap, and must end there as 0.
        x = R3.x
        q = x(1, 1) + x(1, 2) + x(1, 3)
        s = x(1, 2) - x(1, 3)
        p = s * q
        created = (x(1, 2) * x(1, 3)).leading_monomial()
        assert created not in p._d
        pushed, made = [], []
        real_push, real_reduce = polyring.heapq.heappush, polyring._reduce
        monkeypatch.setattr(polyring.heapq, "heappush", lambda h, k: (pushed.append(-k), real_push(h, k)))

        def spy(rem, qd, himask):
            before = set(rem)
            quot = real_reduce(rem, qd, himask)
            # The kernel sees keys with their unused low bytes cut off.
            shift = max(q._d).bit_length() - max(qd).bit_length()
            made.append({m << shift: c for m, c in rem.items() if m not in before})
            return quot

        monkeypatch.setattr(polyring, "_reduce", spy)
        assert exact_divide(p, q) == s
        assert made == [{created: 0}]
        assert pushed == []

    @pytest.mark.parametrize("slice_products", [20_000, 3, 0])
    @given(s=mixed_polys, q=mixed_polys, r=mixed_polys)
    @settings(max_examples=200, deadline=None)
    def test_same_witness_as_the_heap_algorithm(self, slice_products, s, q, r):
        # s * q + r divides only when q divides r; otherwise both name the
        # same remainder term.  With SLICE_PRODUCTS 0 every dividend is
        # split by the variables q lacks, and the witness must be the
        # largest of the failing slices' first ones; with 3, slices are
        # packed in groups of fewer than 3 term products.
        assume(q)
        p = s * q + r
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polyring, "SLICE_PRODUCTS", slice_products)
            got = _divide_or_witness(exact_divide, p, q)
        assert got == _divide_or_witness(heap_exact_divide, p, q)

    @pytest.mark.parametrize("y", ["1", "y[2,2]"])
    @given(s=x_polys, q=x_polys, r=x_polys)
    @settings(max_examples=100, deadline=None)
    def test_same_witness_on_cut_and_whole_keys(self, y, s, q, r):
        # Over x alone every key loses at least the four y bytes in the
        # kernel; a factor y[2,2] on s * q keeps the last byte, so no key
        # is cut.  Either way the quotient and witness are the heap's.
        assume(q)
        p = s * q * (R2.y(2, 2) if y == "y[2,2]" else 1) + r
        shifts = []
        real = polyring._reduce

        def spy(rem, qd, himask):
            shifts.append(R2._himask.bit_length() - himask.bit_length())
            return real(rem, qd, himask)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polyring, "_reduce", spy)
            got = _divide_or_witness(exact_divide, p, q)
        assert got == _divide_or_witness(heap_exact_divide, p, q)
        if y == "1":
            assert all(shift >= 32 for shift in shifts)
        elif s * q:
            assert shifts == [0]


class TestExponentOverflow:
    """Exponents live in one byte each; 128 or more must raise, not carry."""

    def test_largest_exponent_is_fine(self):
        p = R2.x(1, 2) ** 127
        assert R2.monomial_exponents(p.leading_monomial()) == {("x", 1, 2): 127}
        assert exact_divide(p, R2.x(1, 2)) == R2.x(1, 2) ** 126

    def test_power_overflow_raises(self):
        x = R2.x(1, 2)
        with pytest.raises(ExponentOverflow):
            x ** 128
        # Once carried into the neighbouring byte, this used to read x[1,1].
        with pytest.raises(ExponentOverflow):
            x ** 255 * x

    def test_product_overflow_raises(self):
        x = R2.x(2, 2)
        with pytest.raises(ExponentOverflow):
            (x ** 100 + 1) * (x ** 28 - R2.y(1, 1))
        assert isinstance(ExponentOverflow(), ArithmeticError)

    def test_division_overflow_raises(self):
        # The quotient term x[1,2]^127 times the tail x[1,2]^2 would leave
        # the remainder term -x[1,2]^129, which no key can hold.
        x = R2.x
        with pytest.raises(ExponentOverflow):
            exact_divide(x(1, 1) * x(1, 2) ** 127, x(1, 1) + x(1, 2) ** 2)
        # Two lower, the remainder term -x[1,2]^127 fits and is the witness.
        with pytest.raises(NotDivisible, match=r"\{\('x', 1, 2\): 127\}"):
            exact_divide(x(1, 1) * x(1, 2) ** 125, x(1, 1) + x(1, 2) ** 2)


class TestTableKeys:
    """The 4-bit table keys of x alone against ring keys and oracles.unpack."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 6), data=st.data())
    def test_table_keys_mirror_ring_keys(self, n, data):
        # For exponent vectors of x with every exponent below 16: the table
        # key unpacks to the ring key, both ways; table keys order as ring
        # keys do; they add field by field while no field passes 15; the
        # units are the keys of the variables; and the row mask keeps X's
        # first row exactly.
        ring = PolyRing(n)
        nn = n * n
        vectors = st.lists(st.integers(0, 15), min_size=nn, max_size=nn).map(bytes)
        a, b = data.draw(vectors), data.draw(vectors)
        ka, kb = ring.nibble_key(a), ring.nibble_key(b)
        ma, mb = (sum(e * u for e, u in zip(v, ring.x_units)) for v in (a, b))
        assert ring.from_nibbles({ka: 1, kb: 2}) == unpack({ka: 1, kb: 2}, ring) == {ma: 1, mb: 2} or a == b
        assert (ka < kb) == (ma < mb) and ring.x_exponents(ma) == a
        if all(x + y <= 15 for x, y in zip(a, b)):
            assert ring.from_nibbles({ka + kb: 1}) == {ma + mb: 1}
        assert ring.nibble_units == tuple(ring.nibble_key(bytes(k == i for k in range(nn))) for i in range(nn))
        first_row = bytes(a[:n]) + bytes(nn - n)
        assert ka & ring.nibble_row_mask == ring.nibble_key(first_row)

    def test_which_functions_fit(self):
        # x alone with every exponent at most 6; y, or an exponent of 7,
        # keeps ring keys.
        x, y = R3.x, R3.y
        fits = [
            (x(1, 1) ** 6 * x(3, 3) ** 6, True),
            (x(1, 1) ** 7, False),
            (x(3, 3) ** 7 + x(1, 1), False),
            (x(2, 2) * y(1, 1), False),
            (R3.one, True),
            (R3.zero, True),
        ]
        for f, want in fits:
            assert R3.fits_nibbles(R3.top(f._d)) is want, str(f)


class TestCalculusAndEvaluation:
    def test_partial_derivative_product_rule(self):
        v = ("x", 1, 1)
        p = R2.x(1, 1) ** 2 * R2.x(2, 2)
        q = R2.x(1, 1) + R2.y(1, 1)
        lhs = partial_derivative(p * q, v)
        rhs = partial_derivative(p, v) * q + p * partial_derivative(q, v)
        assert lhs == rhs

    def test_partial_derivative_of_missing_variable(self):
        assert partial_derivative(R2.x(1, 1), ("y", 2, 2)).is_zero()

    def test_evaluate(self):
        p = R2.x(1, 1) * R2.x(2, 2) - R2.x(1, 2) * R2.x(2, 1)
        point = {
            ("x", 1, 1): Fraction(1, 2),
            ("x", 1, 2): 3,
            ("x", 2, 1): 1,
            ("x", 2, 2): 4,
        }
        assert evaluate(p, point) == Fraction(1, 2) * 4 - 3

    def test_evaluate_missing_variable(self):
        p = R2.x(1, 1) + R2.y(2, 2)
        with pytest.raises(MissingAssignment) as err:
            evaluate(p, {("x", 1, 1): 1})
        assert ("y", 2, 2) in err.value.missing



@given(p=polys, point=st.fixed_dictionaries({}))
@settings(max_examples=1, deadline=None)
def test_zero_poly_evaluates_to_zero(p, point):
    assert evaluate(R2.zero, {}) == 0


@given(p=polys, q=polys)
@settings(max_examples=60, deadline=None)
def test_evaluation_is_a_ring_map(p, q):
    point = {v: Fraction(k % 5 - 2, 1 + k % 3) for k, v in enumerate(R2._ids)}
    assert evaluate(p + q, point) == evaluate(p, point) + evaluate(q, point)
    assert evaluate(p * q, point) == evaluate(p, point) * evaluate(q, point)


def test_rings_with_distinct_sizes_are_distinct():
    assert PolyRing(2) == PolyRing(2)
    assert PolyRing(2) != PolyRing(3)
    with pytest.raises(ValueError):
        PolyRing(0)
