"""Quivers, exchange matrices, and seed mutation."""

import hashlib
import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from bdcluster import polyring
from bdcluster.bdseed import BDTriple, initial_cluster, standard_cluster
from bdcluster.polyring import ExponentOverflow
from bdcluster.quiver import (
    ExchangeMatrix,
    FrozenDirection,
    NotLaurentPolynomial,
    Seed,
    bd_quiver,
    make_seed,
    matrix_rank,
    mutate_matrix,
    mutate_seed,
    standard_quiver,
    to_dot,
    to_exchange_matrix,
)
from bdcluster.verify import Fault, Workspace, run_checks, structure
from oracles import heap_exact_divide
from test_verify import _structures

# sha256 of the regular check's witnesses under drop-phi31-term, recorded
# when each exchange was divided as one whole numerator.
DROPPED_TERM_WITNESSES = {
    (3, 1, 2): "d7707bfba92043aaf94f73e57568e2097eaccdc7f2c5aaf189dd0177a68d2530",
    (4, 1, 3): "4a2f9fccebbf05c809252f443a129695900e5c5c89f7d043176960c86c29f0fa",
}


class TestStandardQuiver:
    def test_interior_vertex_arcs(self):
        q = standard_quiver(4)
        assert q.weight((2, 2), (2, 3)) == 1
        assert q.weight((2, 2), (3, 2)) == 1
        assert q.weight((3, 3), (2, 2)) == 1
        # reversed directions carry no arc
        assert q.weight((2, 3), (2, 2)) == 0
        assert q.weight((2, 2), (3, 3)) == 0

    def test_border_to_border_arcs_removed(self):
        q = standard_quiver(4)
        assert q.weight((1, 1), (1, 2)) == 0
        assert q.weight((3, 1), (4, 1)) == 0
        assert q.weight((2, 2), (1, 1)) == 1  # one endpoint mutable is fine

    def test_frozen_is_border(self):
        q = standard_quiver(3)
        assert q.frozen == frozenset({(1, 1), (1, 2), (1, 3), (2, 1), (3, 1)})

    def test_sl_removes_vertex(self):
        q = standard_quiver(3, sl=True)
        assert (1, 1) not in q.labels
        assert all((1, 1) not in arc for arc in q.arcs)


class TestBDQuiver:
    def test_exactly_six_new_arcs(self):
        for n, a, b in [(3, 1, 2), (4, 1, 3), (5, 2, 4), (4, 1, 2)]:
            std = standard_quiver(n)
            q = bd_quiver(BDTriple(n, a, b))
            added = set(q.arcs) - set(std.arcs)
            assert added == {
                ((a, 1), (a + 1, 1)),
                ((1, b), (1, b + 1)),
                ((n, a + 1), (1, b + 1)),
                ((1, b + 1), (n, a)),
                ((b + 1, n), (a + 1, 1)),
                ((a + 1, 1), (b, n)),
            }
            assert set(std.arcs) - set(q.arcs) == set()

    def test_once_dropped_border_arcs_stay_out(self):
        # (1, beta+1) is mutable here, but its border arcs were dropped
        # from the standard quiver and are not reinstated.
        q = bd_quiver(BDTriple(4, 1, 2))
        assert q.weight((1, 2), (1, 3)) == 1  # re-added by the pair
        assert q.weight((1, 3), (1, 4)) == 0

    def test_two_vertices_thaw(self):
        n, a, b = 5, 2, 3
        q = bd_quiver(BDTriple(n, a, b))
        std = standard_quiver(n)
        assert std.frozen - q.frozen == {(a + 1, 1), (1, b + 1)}

    def test_neighbourhood_of_thawed_column_vertex(self):
        # Arcs meeting (1, beta+1) for n=4, pair (2,3): the two added
        # arcs plus the surviving grid arcs.
        q = bd_quiver(BDTriple(4, 2, 3))
        into = {s for (s, d) in q.arcs if d == (1, 4)}
        out = {d for (s, d) in q.arcs if s == (1, 4)}
        assert into == {(1, 3), (4, 3)}
        assert out == {(4, 2), (2, 4)}


class TestExchangeMatrix:
    def test_tiny_example(self):
        q = bd_quiver(BDTriple(3, 1, 2))
        em = to_exchange_matrix(q)
        assert em.entry((2, 2), (2, 3)) == 1
        assert em.entry((2, 2), (3, 3)) == -1
        with pytest.raises(FrozenDirection):
            em.entry((1, 1), (2, 2))

    def test_principal_part_skew_symmetric(self):
        for n, a, b in [(3, 1, 2), (4, 2, 3), (5, 1, 4)]:
            em = to_exchange_matrix(bd_quiver(BDTriple(n, a, b)))
            for r in range(em.n_mutable):
                for c in range(em.n_mutable):
                    assert em.entries[r][c] == -em.entries[c][r]

    def test_rank_of_standard(self):
        em = to_exchange_matrix(standard_quiver(3))
        assert matrix_rank(em.entries) == em.n_mutable


def _random_exchange_matrices(rng, count):
    """Small random skew-symmetric principal parts with frozen tails."""
    out = []
    for _ in range(count):
        nm = rng.randint(2, 5)
        nf = rng.randint(0, 3)
        total = nm + nf
        rows = [[0] * total for _ in range(nm)]
        for r in range(nm):
            for c in range(r + 1, nm):
                v = rng.randint(-2, 2)
                rows[r][c] = v
                rows[c][r] = -v
            for c in range(nm, total):
                rows[r][c] = rng.randint(-2, 2)
        labels = tuple((1, k + 1) for k in range(total))
        out.append(
            ExchangeMatrix(
                labels=labels,
                n_mutable=nm,
                entries=tuple(tuple(r) for r in rows),
            )
        )
    return out


def test_matrix_mutation_is_an_involution():
    rng = random.Random(90125)
    checked = 0
    for em in _random_exchange_matrices(rng, 40):
        for lab in em.mutable_labels():
            assert mutate_matrix(mutate_matrix(em, lab), lab).entries == em.entries
            checked += 1
    assert checked >= 100


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_matrix_mutation_involution_hypothesis(data):
    nm = data.draw(st.integers(min_value=2, max_value=4))
    entries = [[0] * nm for _ in range(nm)]
    for r in range(nm):
        for c in range(r + 1, nm):
            v = data.draw(st.integers(min_value=-3, max_value=3))
            entries[r][c] = v
            entries[c][r] = -v
    em = ExchangeMatrix(
        labels=tuple((1, k + 1) for k in range(nm)),
        n_mutable=nm,
        entries=tuple(tuple(r) for r in entries),
    )
    k = data.draw(st.integers(min_value=0, max_value=nm - 1))
    lab = em.labels[k]
    assert mutate_matrix(mutate_matrix(em, lab), lab).entries == em.entries


def test_mutation_at_frozen_label_rejected():
    em = to_exchange_matrix(standard_quiver(3))
    with pytest.raises(FrozenDirection):
        mutate_matrix(em, (1, 1))


class TestSeedMutation:
    def test_standard_exchange_small(self):
        # At (2,2) of the standard n=3 seed the exchange relation is
        # f22 * f22' = f21*f12*f33 + f23*f32*f11, and the quotient
        # expands to the polynomial below (checked by hand).
        seed = make_seed(standard_cluster(3), standard_quiver(3))
        new = mutate_seed(seed, (2, 2))
        ring = seed.cluster.ring
        x = ring.x
        got = new.cluster.functions[(2, 2)]
        expect = (
            x(1, 1) * x(2, 3) * x(3, 2)
            - x(1, 2) * x(2, 3) * x(3, 1)
            - x(1, 3) * x(2, 1) * x(3, 2)
            + x(1, 3) * x(2, 2) * x(3, 1)
        )
        assert got == expect
        f = seed.cluster.functions
        lhs = got * f[(2, 2)]
        rhs = f[(2, 1)] * f[(1, 2)] * f[(3, 3)] + f[(2, 3)] * f[(3, 2)] * f[(1, 1)]
        assert lhs == rhs

    def test_seed_mutation_restores_cluster(self):
        seed = make_seed(standard_cluster(3), standard_quiver(3))
        once = mutate_seed(seed, (2, 3))
        twice = mutate_seed(once, (2, 3))
        assert twice.cluster.functions[(2, 3)] == seed.cluster.functions[(2, 3)]
        assert twice.matrix.entries == seed.matrix.entries

    def test_seed_involution_on_bd_seed(self):
        t = BDTriple(4, 2, 3)
        seed = make_seed(initial_cluster(t), bd_quiver(t))
        for lab in [(2, 2), (1, 4), (3, 1), (4, 4)]:
            once = mutate_seed(seed, lab)
            twice = mutate_seed(once, lab)
            assert twice.cluster.functions[lab] == seed.cluster.functions[lab]

    def test_frozen_vertex_rejected(self):
        seed = make_seed(standard_cluster(3), standard_quiver(3))
        with pytest.raises(FrozenDirection):
            mutate_seed(seed, (1, 2))

    def test_laurent_failure_reported(self):
        # Corrupting one cluster function breaks the exchange division.
        from dataclasses import replace

        cluster = standard_cluster(3)
        funcs = dict(cluster.functions)
        funcs[(2, 2)] = funcs[(2, 2)] + 1
        broken = replace(cluster, functions=funcs)
        seed = make_seed(broken, standard_quiver(3))
        with pytest.raises(NotLaurentPolynomial):
            mutate_seed(seed, (2, 3))


def whole_exchange(seed, label):
    """The exchanged variable from the whole numerator: M+ and M- by
    Poly powers and products, their sum divided at once."""
    em, funcs, ring = seed.matrix, seed.cluster.functions, seed.cluster.ring
    pos = neg = ring.one
    for lab, b in zip(em.labels, em.entries[em.labels.index(label)]):
        if b > 0:
            pos = pos * funcs[lab] ** b
        elif b < 0:
            neg = neg * funcs[lab] ** -b
    return heap_exact_divide(pos + neg, funcs[label])


class TestSlicedExchange:
    @pytest.mark.parametrize(
        "n, pair, standard",
        list(_structures()),
        ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else str(v),
    )
    def test_equals_the_whole_division(self, n, pair, standard):
        # Every structure of test_verify, each on GL.
        seed = Workspace(structure(BDTriple(n, *pair) if pair else None, n, standard=standard)).exchange_seed
        for lab in seed.matrix.mutable_labels():
            got = mutate_seed(seed, lab).cluster.functions[lab]
            assert got._d == whole_exchange(seed, lab)._d, lab

    def test_no_division_sees_the_whole_numerator(self, monkeypatch):
        # (5,2,4) at (2,2): the numerator has 35,264 terms in 43 slices,
        # packed into 5 groups of fewer than SLICE_PRODUCTS products.  Each
        # group reaches the division kernel as accumulate's term dict,
        # cancelled sums included, so only its nonzero entries count.
        sizes = []
        real = polyring._reduce

        def spy(rem, qd, himask):
            sizes.append(sum(1 for c in rem.values() if c))
            return real(rem, qd, himask)

        monkeypatch.setattr(polyring, "_reduce", spy)
        seed = Workspace(structure(BDTriple(5, 2, 4))).exchange_seed
        mutate_seed(seed, (2, 2))
        assert sum(sizes) == 35_264
        assert sizes == [8_215, 7_669, 6_996, 7_193, 5_191]

    def test_only_keys_that_lead_q_divides_are_sorted(self, monkeypatch):
        # (5,2,4) at (2,2): each slice's walk is the keys of the slice that
        # lead(q) divides, in decreasing order, and no other key is sorted.
        walks, expected = [], []
        real = polyring._reduce

        def divides(a, b, width=50):
            return all(x <= y for x, y in zip(a.to_bytes(width, "big"), b.to_bytes(width, "big")))

        def spy(rem, qd, himask):
            if any(rem.values()):
                lead = max(qd)
                expected.append(sorted((m for m in rem if divides(lead, m)), reverse=True))
            return real(rem, qd, himask)

        def spy_sorted(items, **kw):
            out = sorted(items, **kw)
            # exact_divide_products also sorts each side's factors by size.
            if "key" not in kw:
                walks.append(out)
            return out

        monkeypatch.setattr(polyring, "_reduce", spy)
        monkeypatch.setattr(polyring, "sorted", spy_sorted, raising=False)
        seed = Workspace(structure(BDTriple(5, 2, 4))).exchange_seed
        got = mutate_seed(seed, (2, 2)).cluster.functions[(2, 2)]
        monkeypatch.undo()
        assert walks == expected
        # 3,752 of the 43,107 keys the slices hold, cancelled sums included.
        assert sum(map(len, walks)) == 3_752
        assert got._d == whole_exchange(seed, (2, 2))._d

    def test_exponent_overflow_is_raised(self):
        # x[1,1]^64 * (x[1,1]^64 + x[1,2]) reaches x[1,1]^128.
        cluster = standard_cluster(2)
        x = cluster.ring.x
        funcs = {**cluster.functions, (1, 1): x(1, 1) ** 64, (1, 2): x(1, 1) ** 64 + x(1, 2)}
        labels = ((2, 2), (1, 1), (1, 2), (2, 1))
        em = ExchangeMatrix(labels=labels, n_mutable=1, entries=((0, 1, 1, -1),))
        seed = Seed(cluster=replace(cluster, functions=funcs), matrix=em)
        with pytest.raises(ExponentOverflow):
            mutate_seed(seed, (2, 2))

    @pytest.mark.parametrize("pair", sorted(DROPPED_TERM_WITNESSES), ids=lambda p: "-".join(map(str, p)))
    def test_dropped_term_witnesses_unchanged(self, pair):
        (rep,) = run_checks(["regular"], triple=BDTriple(*pair), fault=Fault.DROP_PHI31_TERM)
        text = "\n".join(rep.witnesses)
        assert not rep.passed
        assert hashlib.sha256(text.encode()).hexdigest() == DROPPED_TERM_WITNESSES[pair], text


def test_dot_export_mentions_every_vertex():
    q = bd_quiver(BDTriple(3, 1, 2))
    dot = to_dot(q)
    assert dot.startswith("digraph")
    for i, j in q.labels:
        assert f'"{i},{j}"' in dot
    assert "->" in dot
