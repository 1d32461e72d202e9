"""Acceptance suite: the ten headline guarantees of the library.

Each test covers one guarantee in full, over every minimal pair with
n in {3, 4, 5} where applicable, in exact rational arithmetic with zero
tolerance, and prints one pass/fail line.  Everything here is a
theorem-level statement: a single mismatching coefficient fails the run.
"""

import random
from fractions import Fraction

from bdcluster.bdseed import BDTriple, get_ring, initial_cluster
from bdcluster.poisson import r_plus_operator, sklyanin_bracket
from bdcluster.polymat import build_M, col_replace, determinant
from bdcluster.quiver import (
    ExchangeMatrix,
    bd_quiver,
    make_seed,
    matrix_rank,
    mutate_matrix,
    mutate_seed,
    to_exchange_matrix,
)
from bdcluster.verify import Fault, run_checks

ALL_TRIPLES = [
    BDTriple(n, a, b)
    for n in (3, 4, 5)
    for a in range(1, n)
    for b in range(a + 1, n)
]

# The coefficient sweep is the expensive part and is shared by the
# log-canonicality and compatibility tests, so cache it per pair.
_SWEEPS = {}


def sweep(triple):
    key = (triple.n, triple.alpha, triple.beta)
    if key not in _SWEEPS:
        _SWEEPS[key] = {
            r.check: r for r in run_checks(["logcanon", "compat"], triple=triple)
        }
    return _SWEEPS[key]


def _line(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {name}: {status} ({detail})")
    assert ok


def test_criterion_01_log_canonicality():
    """Every pair of initial cluster functions is log-canonical."""
    ok = True
    pairs = 0
    for t in ALL_TRIPLES:
        rep = sweep(t)["logcanon"]
        n = t.n
        assert rep.details["pairs"] == n * n * (n * n - 1) // 2
        pairs += rep.details["pairs"]
        if not rep.passed:
            ok = False
            print(f"  {t}: {rep.witnesses[:2]}")
    _line(1, "log-canonicality", ok, f"{len(ALL_TRIPLES)} pairs of roots, {pairs} function pairs")


def test_criterion_02_compatibility():
    """The exchange matrix times the coefficient matrix is [D 0] with D
    a positive diagonal; with our arrow-count sign convention the raw
    product lands on [-I 0], so D = I strictly after the orientation
    flip.  Both facts are asserted: zero off-diagonal entries, uniform
    unit diagonal, and the recorded sign."""
    ok = True
    for t in ALL_TRIPLES:
        rep = sweep(t)["compat"]
        if not (rep.passed and rep.details["diagonal_sign"] == -1):
            ok = False
            print(f"  {t}: sign={rep.details.get('diagonal_sign')} {rep.witnesses[:2]}")
    _line(2, "compatibility [D 0], strict [I 0] under orientation flip", ok, f"{len(ALL_TRIPLES)} pairs")


def test_criterion_03_maximal_rank():
    ok = True
    for t in ALL_TRIPLES:
        gl = run_checks(["rank"], triple=t)[0]
        sl = run_checks(["rank"], triple=t, sl=True)[0]
        n = t.n
        expected_sl_mutable = n * n - 1 - (2 * n - 4)
        if not (gl.passed and sl.passed and sl.details["n_mutable"] == expected_sl_mutable):
            ok = False
            print(f"  {t}: gl={gl.details} sl={sl.details}")
    _line(3, "maximal rank (GL and SL)", ok, f"{len(ALL_TRIPLES)} pairs, both modes")


def test_criterion_04_stable_count():
    ok = True
    for t in ALL_TRIPLES:
        rep = run_checks(["stable"], triple=t, sl=True)[0]
        if not (rep.passed and rep.details["frozen"] == 2 * (t.n - 2)):
            ok = False
            print(f"  {t}: {rep.details}")
    _line(4, "SL frozen count 2(n-2)", ok, f"{len(ALL_TRIPLES)} pairs")


def _corner_row_matrix(ring, a, b):
    """Tall matrix certifying the exchange at (1, b+1): the two bottom
    corner entries stacked over rows 1..n-b+1 of columns b..n."""
    n = ring.n
    mu = n - b
    grid = [[ring.zero] * (mu + 1) for _ in range(mu + 2)]
    grid[0][0] = ring.x(n, a)
    grid[0][1] = ring.x(n, a + 1)
    for r in range(1, mu + 2):
        for c in range(mu + 1):
            grid[r][c] = ring.x(r, b + c)
    return grid


def _corner_col_matrix(ring, a, b):
    """Transposed companion for the exchange at (a+1, 1)."""
    n = ring.n
    mu = n - a
    grid = [[ring.zero] * (mu + 1) for _ in range(mu + 2)]
    grid[0][0] = ring.x(b, n)
    grid[0][1] = ring.x(b + 1, n)
    for r in range(1, mu + 2):
        for c in range(mu + 1):
            grid[r][c] = ring.x(a + c, r)
    return grid


def _drop_second_row(grid):
    return [row for i, row in enumerate(grid) if i != 1]


def test_criterion_05_regularity():
    """All one-step exchanges are polynomials, and the closed forms for
    the distinguished exchanges hold exactly:

      * at (n, a) with a > 1 the new variable is the right-shifted
        trailing minor anchored at (n-1, a-1);
      * at the thawed border labels the new variable is the determinant
        of the corner-extended block with its second row deleted (valid
        away from n = 2b-1 for the row form and n = 2a-1 for the column
        form, where the neighbour functions change shape; every pair has
        at least one valid form).
    """
    ok = True
    identities = 0
    for t in ALL_TRIPLES:
        rep = run_checks(["regular"], triple=t)[0]
        n, a, b = t.n, t.alpha, t.beta
        if not (rep.passed and rep.details["exchanges"] == n * n - (2 * n - 3)):
            ok = False
            print(f"  {t}: {rep.details} {rep.witnesses[:2]}")
            continue
        ring = get_ring(n)
        seed = make_seed(initial_cluster(t), bd_quiver(t))
        if a > 1:
            got = mutate_seed(seed, (n, a)).cluster.functions[(n, a)]
            if got != col_replace(determinant(build_M(ring, n - 1, a - 1)), a, a + 1):
                ok = False
                print(f"  {t}: corner exchange at ({n},{a}) mismatch")
            identities += 1
        forms = 0
        if n != 2 * b - 1:
            got = mutate_seed(seed, (1, b + 1)).cluster.functions[(1, b + 1)]
            want = determinant(_drop_second_row(_corner_row_matrix(ring, a, b)))
            if got != want:
                ok = False
                print(f"  {t}: thawed row exchange at (1,{b + 1}) mismatch")
            forms += 1
        if n != 2 * a - 1:
            got = mutate_seed(seed, (a + 1, 1)).cluster.functions[(a + 1, 1)]
            want = determinant(_drop_second_row(_corner_col_matrix(ring, a, b)))
            if got != want:
                ok = False
                print(f"  {t}: thawed column exchange at ({a + 1},1) mismatch")
            forms += 1
        if forms == 0:
            ok = False
            print(f"  {t}: no valid thawed closed form")
        identities += forms
    _line(5, "regularity of all exchanges + closed forms", ok, f"{len(ALL_TRIPLES)} pairs, {identities} identities")


def test_criterion_06_half_operator_closed_form():
    """The closed-form half operator equals the tensor contraction on
    all n^2 matrix units, n <= 5, standard and exotic."""
    ok = True
    runs = 0
    for n in (2, 3, 4, 5):
        rep = run_checks(["rplus"], n=n)[0]
        runs += 1
        ok = ok and rep.passed
    for t in ALL_TRIPLES:
        for std in (False, True):
            rep = run_checks(["rplus"], triple=t, standard=std)[0]
            runs += 1
            if not rep.passed:
                ok = False
                print(f"  {t} standard={std}: {rep.witnesses[:2]}")
    _line(6, "half operator == tensor oracle on all units", ok, f"{runs} operators")


def test_criterion_07_yang_baxter():
    """[[r,r]] = 0 and r + r21 = Casimir for every constructed tensor,
    n <= 4."""
    ok = True
    runs = 0
    for n in (2, 3, 4):
        rep = run_checks(["cybe"], n=n)[0]
        runs += 1
        ok = ok and rep.passed
    for t in ALL_TRIPLES:
        if t.n > 4:
            continue
        for std in (False, True):
            rep = run_checks(["cybe"], triple=t, standard=std)[0]
            runs += 1
            if not rep.passed:
                ok = False
                print(f"  {t} standard={std}: {rep.witnesses[:2]}")
    _line(7, "Yang-Baxter and unitarity", ok, f"{runs} tensors")


def test_criterion_08_bracket_lemmas():
    """The exotic-minus-standard bracket difference formula on all
    coordinate pairs (n = 3), and the alternating coefficient sums
    against the four corner minors on every standard cluster function
    (n <= 5)."""
    ok = True
    runs = 0
    for t in ALL_TRIPLES:
        if t.n == 3:
            rep = run_checks(["bracketdiff"], triple=t)[0]
            runs += 1
            if not rep.passed:
                ok = False
                print(f"  bracket difference {t}: {rep.witnesses[:2]}")
    for t in ALL_TRIPLES:
        rep = run_checks(["somega"], triple=t)[0]
        runs += 1
        if not rep.passed:
            ok = False
            print(f"  coefficient sums {t}: {rep.witnesses[:2]}")
    _line(8, "bracket difference + coefficient sum tables", ok, f"{runs} checks")


def _random_fraction_matrix(rng, size):
    return [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(size)]
        for _ in range(size)
    ]


def _frac_det(mat):
    """Fraction-exact Gaussian elimination determinant."""
    m = [row[:] for row in mat]
    size = len(m)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, size):
            if m[r][col]:
                factor = m[r][col] * inv
                m[r] = [v - factor * w for v, w in zip(m[r], m[col])]
    return det


def _delete(mat, rows, cols):
    return [
        [v for j, v in enumerate(row) if j not in cols]
        for i, row in enumerate(mat)
        if i not in rows
    ]


def _random_exchange_matrix(rng):
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
    return ExchangeMatrix(
        labels=tuple((1, k + 1) for k in range(total)),
        n_mutable=nm,
        entries=tuple(tuple(r) for r in rows),
    )


def _random_poly(rng, ring, max_terms=3):
    p = ring.zero
    for _ in range(rng.randint(1, max_terms)):
        mono = ring.one
        for _ in range(rng.randint(0, 2)):
            mono = mono * ring.x(rng.randint(1, ring.n), rng.randint(1, ring.n))
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        p = p + c * mono
    return p


def test_criterion_09_property_suite():
    """Random-input identities, all exact: the determinant condensation
    identity on >= 100 rational matrices, mutation as an involution on
    >= 100 matrix/direction choices, and the Poisson bracket axioms."""
    rng = random.Random(20240817)
    ok = True

    # determinant condensation on sizes 3..6
    desjac = 0
    for size in (3, 4, 5, 6):
        for _ in range(30):
            m = _random_fraction_matrix(rng, size)
            r1, r2 = sorted(rng.sample(range(size), 2))
            c1, c2 = sorted(rng.sample(range(size), 2))
            lhs = _frac_det(m) * _frac_det(_delete(m, {r1, r2}, {c1, c2}))
            rhs = _frac_det(_delete(m, {r1}, {c1})) * _frac_det(_delete(m, {r2}, {c2})) - _frac_det(
                _delete(m, {r2}, {c1})
            ) * _frac_det(_delete(m, {r1}, {c2}))
            if lhs != rhs:
                ok = False
            desjac += 1

    # mutation is an involution, on matrices and on a block-det seed
    involutions = 0
    for _ in range(30):
        em = _random_exchange_matrix(rng)
        for lab in em.mutable_labels():
            if mutate_matrix(mutate_matrix(em, lab), lab).entries != em.entries:
                ok = False
            involutions += 1
    t = BDTriple(4, 2, 3)
    seed = make_seed(initial_cluster(t), bd_quiver(t))
    for lab in seed.matrix.mutable_labels():
        twice = mutate_seed(mutate_seed(seed, lab), lab)
        if twice.cluster.functions[lab] != seed.cluster.functions[lab]:
            ok = False
        if twice.matrix.entries != seed.matrix.entries:
            ok = False
        involutions += 1

    # bracket axioms on random inputs, standard n=2 and exotic n=3
    axioms = 0
    for ring, op in (
        (get_ring(2), r_plus_operator(n=2, standard=True)),
        (get_ring(3), r_plus_operator(BDTriple(3, 1, 2))),
    ):
        for _ in range(20):
            f = _random_poly(rng, ring)
            g = _random_poly(rng, ring)
            h = _random_poly(rng, ring, max_terms=2)
            if sklyanin_bracket(f, g, op) != -sklyanin_bracket(g, f, op):
                ok = False
            lhs = sklyanin_bracket(f, g * h, op)
            rhs = sklyanin_bracket(f, g, op) * h + g * sklyanin_bracket(f, h, op)
            if lhs != rhs:
                ok = False
            axioms += 2
        for _ in range(8):
            f = _random_poly(rng, ring, max_terms=2)
            g = _random_poly(rng, ring, max_terms=2)
            h = _random_poly(rng, ring, max_terms=2)
            jac = (
                sklyanin_bracket(f, sklyanin_bracket(g, h, op), op)
                + sklyanin_bracket(g, sklyanin_bracket(h, f, op), op)
                + sklyanin_bracket(h, sklyanin_bracket(f, g, op), op)
            )
            if jac:
                ok = False
            axioms += 1

    assert desjac >= 100 and involutions >= 100
    _line(9, "property suite (condensation, involution, bracket axioms)", ok,
          f"{desjac} condensations, {involutions} involutions, {axioms} axiom checks")


def test_criterion_10_negative_controls():
    """Planted defects must be caught with explicit witnesses: dropping
    a term from the block determinant at (3,1) breaks log-canonicality,
    zeroing the diagonal coefficient matrix breaks the sum tables."""
    t = BDTriple(3, 1, 2)
    ok = True

    rep = run_checks(["logcanon"], triple=t, fault=Fault.DROP_PHI31_TERM)[0]
    if rep.passed or not rep.witnesses or not any("(3, 1)" in w for w in rep.witnesses):
        ok = False
        print(f"  dropped term not caught: {rep.status} {rep.witnesses[:2]}")

    rep = run_checks(["somega"], triple=t, fault=Fault.ZERO_R0)[0]
    if rep.passed or not rep.witnesses:
        ok = False
        print(f"  zeroed diagonal not caught: {rep.status} {rep.witnesses[:2]}")

    _line(10, "negative controls fail with witnesses", ok, "2 planted defects")
