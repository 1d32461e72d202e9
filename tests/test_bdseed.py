"""Initial clusters for the standard and the pair-twisted structures."""

import itertools

import pytest

from bdcluster.bdseed import (
    BDTriple,
    EqualRoots,
    InvalidRoot,
    get_ring,
    initial_cluster,
    normalize_triple,
    seed_labels,
    standard_cluster,
)
from bdcluster.polymat import (
    build_M,
    build_Mtilde,
    col_replace,
    determinant,
    first_family,
    second_family,
)
from bdcluster.verify import structure
from oracles import build_Mtilde_shift, psi, theta


def all_pairs(n):
    return itertools.combinations(range(1, n), 2)


class TestTriple:
    def test_validation(self):
        with pytest.raises(InvalidRoot):
            BDTriple(3, 0, 2)
        with pytest.raises(InvalidRoot):
            BDTriple(3, 1, 3)
        with pytest.raises(EqualRoots):
            BDTriple(4, 2, 2)
        with pytest.raises(ValueError):
            BDTriple(2, 1, 1)

    def test_ordering_required(self):
        with pytest.raises(ValueError, match="normalize"):
            BDTriple(4, 3, 1)

    def test_normalize_swaps_and_records(self):
        t = normalize_triple(4, 3, 1)
        assert (t.alpha, t.beta, t.transposed) == (1, 3, True)
        s = normalize_triple(4, 1, 3)
        assert (s.alpha, s.beta, s.transposed) == (1, 3, False)

    def test_normalize_rejects_equal(self):
        with pytest.raises(EqualRoots):
            normalize_triple(5, 2, 2)

    @pytest.mark.parametrize("n, i, j", [(2, 1, 1), (3, 0, 2), (3, 1, 3), (4, 2, 2)])
    def test_normalize_validates_as_the_pair_does(self, n, i, j):
        # normalize_triple leaves validation to BDTriple, so both raise alike.
        with pytest.raises(ValueError) as direct:
            BDTriple(n, min(i, j), max(i, j))
        with pytest.raises(ValueError) as normalized:
            normalize_triple(n, i, j)
        assert type(normalized.value) is type(direct.value)


class TestStandardCluster:
    def test_label_count_and_frozen_gl(self):
        labels, frozen = seed_labels(4)
        assert tuple(standard_cluster(4).functions) == labels
        assert len(labels) == 16
        assert len(frozen) == 2 * 4 - 1
        assert frozen == {(i, 1) for i in range(1, 5)} | {(1, j) for j in range(1, 5)}

    def test_sl_drops_the_determinant(self):
        s = structure(n=4, sl=True)
        assert (1, 1) not in s.cluster.functions
        assert len(s.cluster.functions) == 15
        assert len(s.quiver.frozen) == 2 * 4 - 2

    def test_functions_are_trailing_minors(self):
        c = standard_cluster(3)
        ring = c.ring
        f = c.functions
        assert f[(3, 3)] == ring.x(3, 3)
        assert f[(2, 2)] == ring.x(2, 2) * ring.x(3, 3) - ring.x(2, 3) * ring.x(3, 2)
        for lab in f:
            assert f[lab] == determinant(build_M(ring, *lab))

    def test_single_entry_corners(self):
        c = standard_cluster(5)
        for k in range(1, 6):
            assert c.functions[(5, k)] == c.ring.x(5, k)
            assert c.functions[(k, 5)] == c.ring.x(k, 5)


class TestInitialCluster:
    def test_frozen_set_drops_two_border_labels(self):
        for n in (3, 4, 5):
            for a, b in all_pairs(n):
                labels, frozen = seed_labels(n, BDTriple(n, a, b))
                assert tuple(initial_cluster(BDTriple(n, a, b)).functions) == labels
                border = {(i, 1) for i in range(1, n + 1)} | {
                    (1, j) for j in range(1, n + 1)
                }
                assert frozen == border - {(a + 1, 1), (1, b + 1)}
                assert len(frozen) == 2 * n - 3

    def test_sl_frozen_count(self):
        for n in (3, 4, 5):
            for a, b in all_pairs(n):
                s = structure(BDTriple(n, a, b), sl=True)
                assert len(s.quiver.frozen) == 2 * (n - 2)
                assert (1, 1) not in s.cluster.functions

    def test_special_labels_get_block_determinants(self):
        for n in (3, 4):
            ring = get_ring(n)
            for a, b in all_pairs(n):
                t = BDTriple(n, a, b)
                c = initial_cluster(t)
                special = set(first_family(n, a)) | set(second_family(n, b))
                for lab, f in c.functions.items():
                    if lab in special:
                        assert f == determinant(build_Mtilde(ring, a, b, *lab))
                    else:
                        assert f == determinant(build_M(ring, *lab))

    def test_mutable_labels(self):
        # The pair unfreezes (alpha+1, 1) and (1, beta+1) of the border.
        labels, frozen = seed_labels(3, BDTriple(3, 1, 2))
        assert set(labels) - frozen == {(1, 3), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)}


class TestClosedForms:
    def test_theta_index_range(self):
        t = BDTriple(4, 2, 3)
        with pytest.raises(InvalidRoot):
            theta(t, 0)
        with pytest.raises(InvalidRoot):
            theta(t, 3)
        with pytest.raises(InvalidRoot):
            psi(t, 4)

    def test_theta_example_smallest(self):
        # theta_1 for n=3, pair (1,2) is x31*x13 - x32*x12.
        t = BDTriple(3, 1, 2)
        ring = get_ring(3)
        assert theta(t, 1) == ring.x(3, 1) * ring.x(1, 3) - ring.x(3, 2) * ring.x(1, 2)

    def test_block_determinants_match_closed_forms(self):
        # n = 6 holds both coincidences: n = 2*beta at (6,1,3) and
        # (6,2,3), n = 2*alpha at (6,3,4) and (6,3,5).
        for n in (3, 4, 5, 6):
            ring = get_ring(n)
            for a, b in all_pairs(n):
                t = BDTriple(n, a, b)
                for k, lab in enumerate(first_family(n, a), start=1):
                    assert determinant(build_Mtilde(ring, a, b, *lab)) == theta(t, k)
                for m, lab in enumerate(second_family(n, b), start=1):
                    assert determinant(build_Mtilde(ring, a, b, *lab)) == psi(t, m)

    def test_coincidence_pair_uses_resident_partner(self):
        # For n = 2*beta the partner of the first family at (1, beta+1)
        # is psi_1 rather than the plain minor, and theta_k changes.
        t = BDTriple(4, 1, 2)
        ring = get_ring(4)
        f = determinant(build_M(ring, 4, 1))
        g = determinant(build_M(ring, 1, 3))
        f_right = col_replace(f, 1, 2)
        plain = f * g - f_right * col_replace(g, 3, 2)
        assert theta(t, 1) != plain
        stepped = determinant(build_Mtilde_shift(ring, 1, 2, 1, 3))
        assert theta(t, 1) == f * psi(t, 1) - f_right * stepped

    def test_theta_and_psi_are_irreducible_sized(self):
        # Not a factorization check, just a guard that the closed forms
        # stay the size the block determinant produces.
        t = BDTriple(5, 2, 4)
        ring = get_ring(5)
        for k, lab in enumerate(first_family(5, 2), start=1):
            assert theta(t, k) == determinant(build_Mtilde(ring, 2, 4, *lab))
