"""Machine verification of the defining properties of the cluster structures.

A cluster structure is one value, a Structure: its seed's labels,
frozen set, quiver and lazily made functions, the operator R_+ of the
bracket it is checked against, and what the checks expect of it.  One
builder, structure(triple, n, sl, standard), makes every structure
the checks and the CLI verbs read, and nothing downstream re-decides it
from those flags.  A Workspace caches what the checks derive from one
structure: tables, the coefficient sweep, the exchange seed and the r
tensor.

Checks are run by name through run_checks, which looks each one up in
CHECKS and returns one VerificationReport per check with a pass/fail
status, a list of human-readable failure witnesses, details and wall
time.  Checks are pure computations in exact rational arithmetic;
"pass" means the property holds on the nose for the requested size and
pair.

Two fault injections show that the checks can fail.  Each is a function
from a structure to a new one (FAULTS), applied to its GL twin too.
drop_phi31_term drops the leading term of the cluster function at
(3,1); with n <= 5 it trips compat and regular, and logcanon and frozen
on most pairs.  zero_r0 zeroes c, the coefficients of r's diagonal part,
in every operator of the structure, so on the exotic structure
logcanon, compat, frozen, somega and cybe fail, while rplus (both its
sides read c) and bracketdiff (the wedge alone) pass.
"""

from __future__ import annotations

import enum
import time
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from functools import cached_property, partial
from math import lcm
from typing import Callable, List, Optional, Sequence, Tuple

from .bdseed import (
    BDTriple,
    Cluster,
    Label,
    get_ring,
    initial_cluster,
    seed_labels,
    standard_cluster,
    structure_size,
)
from .polymat import first_family
from .polyring import Poly
from .poisson import (
    RPlusOperator,
    _pairing,
    _ring_sum,
    build_r_tensor,
    gradient_tables,
    omega_sweep,
    pair_test,
    r_plus,
    r_plus_operator,
    r_plus_oracle,
    sweep_plan,
    sweep_workers,
    unscale,
    verify_cybe,
)
from .quiver import (
    Quiver,
    Seed,
    bd_quiver,
    make_seed,
    matrix_rank,
    mutate_seed,
    standard_quiver,
    to_exchange_matrix,
    NotLaurentPolynomial,
)
from .tasks import worker_count

MAX_WITNESSES = 10

# What a check returns: its failure witnesses and its details.
Outcome = Tuple[List[str], dict]


class Fault(enum.Enum):
    """Deliberate defects for negative-control runs (see FAULTS)."""

    DROP_PHI31_TERM = "drop-phi31-term"
    ZERO_R0 = "zero-r0"


@dataclass
class VerificationReport:
    check: str
    n: int
    alpha: Optional[int]
    beta: Optional[int]
    status: str
    witnesses: List[str]
    seconds: float
    details: dict = field(default_factory=dict, repr=False)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class Structure:
    """One cluster structure and the bracket it is checked against.

    triple is the pair as given, None for the standard structure of size
    n; standard says the seed is the standard one.  op is R_+ of the
    structure's bracket; pair_ops is the pair's exotic operator and its
    standard companion, which somega and bracketdiff read, None without
    a pair.  expected_frozen and roots are what stable expects and what a
    report prints.  gl is the GL structure that an SL one stands for in
    exchanges, None on GL.  seed makes the seed (a Cluster) when cluster
    is first read, so a check that reads no function computes no
    determinant; an SL seed is its GL twin's without (1, 1).  A fault or
    a test makes a new structure from one with dataclasses.replace.
    """

    n: int
    sl: bool
    triple: Optional[BDTriple]
    standard: bool
    labels: Tuple[Label, ...]
    frozen: frozenset
    quiver: Quiver
    op: RPlusOperator
    pair_ops: Optional[Tuple[RPlusOperator, RPlusOperator]]
    expected_frozen: int
    roots: Tuple[Optional[int], Optional[int]]
    seed: Callable[[], Cluster]
    gl: Optional["Structure"] = None

    @cached_property
    def cluster(self) -> Cluster:
        return self.seed()


def structure(triple: Optional[BDTriple] = None, n: Optional[int] = None, sl: bool = False,
              standard: bool = False) -> Structure:
    """The standard structure of size n without a pair; with one, the
    pair's exotic structure, or its standard companion when standard is
    set; on SL when sl is set.  An n given with a pair must be the pair's."""
    n = structure_size(triple, n)
    standard = standard or triple is None
    pair_ops = None if triple is None else (r_plus_operator(triple, n), r_plus_operator(triple, n, True))
    seed_triple = None if standard else triple
    quiver = partial(standard_quiver, n) if standard else partial(bd_quiver, triple)
    labels, frozen = seed_labels(n, seed_triple)
    gl = Structure(
        n=n, sl=False, triple=triple, standard=standard, labels=labels, frozen=frozen, quiver=quiver(sl=False),
        op=pair_ops[standard] if pair_ops else r_plus_operator(None, n), pair_ops=pair_ops,
        expected_frozen=2 * n - 1 if standard else 2 * n - 3,
        roots=(triple.alpha, triple.beta) if triple else (None, None),
        seed=lambda: standard_cluster(n) if standard else initial_cluster(triple),
    )
    if not sl:
        return gl
    labels, frozen = seed_labels(n, seed_triple, sl=True)

    def seed() -> Cluster:
        c = gl.cluster
        return replace(c, labels=labels, frozen=frozen, functions={lab: c.functions[lab] for lab in labels})

    return replace(gl, sl=True, labels=labels, frozen=frozen, quiver=quiver(sl=True),
                   expected_frozen=gl.expected_frozen - 1, seed=seed, gl=gl)


def drop_phi31_term(s: Structure) -> Structure:
    """s with the leading term of its function at (3, 1) dropped."""
    if s.n < 3:
        raise ValueError(f"fault drop-phi31-term needs label (3, 1), which n = {s.n} lacks")

    def seed() -> Cluster:
        c = s.cluster
        f = c.functions[3, 1]
        lead = Poly(f.ring, {f.leading_monomial(): f.leading_coefficient()})
        return replace(c, functions={**c.functions, (3, 1): f - lead})

    return replace(s, seed=seed, gl=s.gl and drop_phi31_term(s.gl))


def zero_r0(s: Structure) -> Structure:
    """s with c, the coefficients of r's diagonal part, zeroed in every
    operator, so every check that reads an r-matrix sees it."""
    zeros = ((0,) * (s.n - 1),) * (s.n - 1)
    pair_ops = s.pair_ops and tuple(replace(op, c=zeros) for op in s.pair_ops)
    return replace(s, op=replace(s.op, c=zeros), pair_ops=pair_ops, gl=s.gl and zero_r0(s.gl))


FAULTS = {Fault.DROP_PHI31_TERM: drop_phi31_term, Fault.ZERO_R0: zero_r0}


class Workspace:
    """Caches what the checks derive from one structure, so several checks
    can share it: gradient tables, the coefficient sweep and its plan, the
    exchange seed and the r tensor."""

    def __init__(self, structure: Structure):
        self.structure = structure
        # Each swept pair's (products, half), in pair order, once omega is read.
        self.sweep_plan: List[Tuple[int, int]] = []
        # {f's terms: {op: tables of f for op}}
        self._tables: dict = {}

    @cached_property
    def exchange_seed(self) -> Seed:
        """The seed that one-step exchanges start from: the structure's GL
        twin.  Exchanges divide in the ambient polynomial ring only there;
        on SL the divisibility holds modulo det X = 1, and the GL variable
        represents the SL one."""
        gl = self.structure.gl or self.structure
        return make_seed(gl.cluster, gl.quiver)

    @cached_property
    def r_tensor(self):
        """The r tensor of the structure's operator, which cybe and rplus share."""
        return build_r_tensor(self.structure.op)

    def tables(self, f: Poly, op: RPlusOperator):
        """The gradient tables of f for op, made once per distinct (f, op)
        and kept for the workspace's life.  F, F' and the degree classes do
        not read op, so they are made once per distinct f, and every
        further operator's tables of f are derived from them."""
        views = self._tables.setdefault(frozenset(f._d.items()), {})
        if op not in views:
            views[op] = gradient_tables(f, op, like=next(iter(views.values()), None))
        return views[op]

    @cached_property
    def omega(self):
        """(labels, {(ia, ib): omega}, failures) over the cluster label order,
        from the workspace's tables of the cluster functions."""
        s = self.structure
        labels = list(s.labels)
        funcs = [s.cluster.functions[lab] for lab in labels]
        tables = [self.tables(f, s.op) for f in funcs]
        self.sweep_plan = sweep_plan(tables)
        omegas, failures = omega_sweep(funcs, s.op, tables=tables, plan=self.sweep_plan)
        return labels, omegas, failures


# ----------------------------------------------------------------------
# Individual checks.  Each takes a Workspace and returns an Outcome.


def check_log_canonical(ws: Workspace) -> Outcome:
    """Every pair of cluster functions has {f, g} = omega f g."""
    labels, _, failures = ws.omega
    products = [p for p, _ in ws.sweep_plan]
    witnesses = [
        f"pair ({labels[ia]}, {labels[ib]}): {reason}" for ia, ib, reason in failures
    ]
    details = {
        "pairs": len(labels) * (len(labels) - 1) // 2,
        "failures": len(failures),
        "products": sum(products),
        "max_pair_products": max(products, default=0),
    }
    return witnesses, details


def check_compatibility(ws: Workspace) -> Outcome:
    """The product of the exchange matrix with the coefficient matrix is
    [D 0] with D = s*I for a single sign s.

    The exchange matrix convention here is b_ij = arrows(i to j) minus
    arrows(j to i); details["diagonal_sign"] records the sign s, and
    the product under the opposite (incidence-oriented) convention is
    s times the recorded one.
    """
    labels, omegas, failures = ws.omega
    if failures:
        ia, ib, reason = failures[0]
        return [f"coefficient matrix undefined: pair ({labels[ia]}, {labels[ib]}): {reason}"], {}
    em = to_exchange_matrix(ws.structure.quiver)
    cl_index = {lab: i for i, lab in enumerate(labels)}
    L = len(em.labels)
    # D omega in the exchange matrix's label order, antisymmetric, in ints:
    # D is the lcm of omega's denominators, so the product is D times B omega.
    D = lcm(*(v.denominator for v in omegas.values()))
    pos = [cl_index[lab] for lab in em.labels]
    w = [[0] * L for _ in range(L)]
    for a in range(L):
        for b in range(a + 1, L):
            ia, ib = pos[a], pos[b]
            v = omegas[(ia, ib)] if ia < ib else -omegas[(ib, ia)]
            w[a][b] = v.numerator * (D // v.denominator)
            w[b][a] = -w[a][b]
    witnesses: List[str] = []
    diag: List[int] = []
    for r in range(em.n_mutable):
        nonzero = [(b, w[m]) for m, b in enumerate(em.entries[r]) if b]
        for c in range(L):
            v = sum(b * wm[c] for b, wm in nonzero)
            if c == r:
                diag.append(v)
            elif v:
                witnesses.append(
                    f"product entry at row {em.labels[r]}, column {em.labels[c]} is {Fraction(v, D)}, expected 0"
                )
    sign = None
    if diag:
        first = diag[0]
        if first in (D, -D) and all(d == first for d in diag):
            sign = first // D
        else:
            bad = next((d for d in diag if d != first or d not in (D, -D)), first)
            witnesses.append(
                f"diagonal of the product is not a uniform unit: saw {Fraction(bad, D)} and {Fraction(first, D)}"
            )
    return witnesses, {"diagonal_sign": sign, "n_mutable": em.n_mutable}


def check_rank(ws: Workspace) -> Outcome:
    """The exchange matrix has full rank, equal to the mutable count."""
    em = to_exchange_matrix(ws.structure.quiver)
    rank = matrix_rank(em.entries)
    witnesses = []
    if rank != em.n_mutable:
        witnesses.append(f"rank is {rank}, expected {em.n_mutable}")
    return witnesses, {"rank": rank, "n_mutable": em.n_mutable}


def check_stable_count(ws: Workspace) -> Outcome:
    """The frozen set has the predicted size (2(n-2) for the exotic
    structure on SL, one more on GL; 2n-2 and 2n-1 for the standard),
    read from the structure's labels, without its functions."""
    expected, actual = ws.structure.expected_frozen, len(ws.structure.frozen)
    witnesses = []
    if actual != expected:
        witnesses.append(f"{actual} frozen variables, expected {expected}")
    return witnesses, {"frozen": actual, "expected": expected}


def check_regularity(ws: Workspace) -> Outcome:
    """Every one-step exchange from the initial seed is a polynomial.

    Divisibility is checked in the ambient polynomial ring, so this
    check always runs on the GL twin (see Workspace.exchange_seed).
    """
    seed = ws.exchange_seed
    witnesses = []
    mutated = 0
    for lab in seed.matrix.mutable_labels():
        try:
            mutate_seed(seed, lab)
            mutated += 1
        except NotLaurentPolynomial as e:
            witnesses.append(f"exchange at {lab}: {e}")
    return witnesses, {"exchanges": mutated}


def check_frozen_log_canonical_with_coordinates(ws: Workspace) -> Outcome:
    """Frozen variables are log-canonical with every matrix entry."""
    cluster, op = ws.structure.cluster, ws.structure.op
    idx = range(1, ws.structure.n + 1)
    coords = [((i, j), ws.tables(cluster.ring.x(i, j), op)) for i in idx for j in idx]
    witnesses = []
    for lab in sorted(cluster.frozen):
        ft = ws.tables(cluster.functions[lab], op)
        for (i, j), gt in coords:
            omega = pair_test(ft, gt)
            if isinstance(omega, str):
                witnesses.append(f"frozen {lab} with x[{i},{j}]: {omega}")
    return witnesses, {}


def _expected_s_omega(n: int, alpha: int, beta: int, label) -> int:
    """The row sum s at label: 1 on first_family(n, alpha), -1 on column
    beta+1, their sum where both hold."""
    return (label in first_family(n, alpha)) - (label[1] == beta + 1)


def check_s_omega(ws: Workspace) -> Outcome:
    """The alternating sums of standard-bracket coefficients against the
    four bottom-row (respectively right-column) entries match their
    predicted values on every standard cluster function.

    With s(g) = w(f[n,a], g) - w(f[n,a+1], g) - w(f[n,b], g) + w(f[n,b+1], g)
    (w = log-canonical coefficient for the pair's standard companion
    bracket), s(g) is 1 on the first special family, -1 on column b+1,
    and 0 elsewhere.  The column sum s' takes the row corners
    transposed, and its rule is the row rule for (b, a) read at the
    transposed label: 1 on the second special family, -1 on row a+1,
    and 0 where the two meet.

    The right-column combination is taken with the sweep function in the
    first slot, s'(g) = w(g, f[a,n]) - w(g, f[a+1,n]) - ..., matching
    the orientation in which those coefficients enter the column-side
    exchange computations.  Since w is antisymmetric the two orders
    differ only by a global sign.
    """
    n, (alpha, beta) = ws.structure.n, ws.structure.roots
    cluster = standard_cluster(n)
    op = ws.structure.pair_ops[1]
    tables = {lab: ws.tables(cluster.functions[lab], op) for lab in cluster.labels}
    row_labels = [(n, alpha), (n, alpha + 1), (n, beta), (n, beta + 1)]
    col_labels = [c[::-1] for c in row_labels]
    signs = (1, -1, -1, 1)
    witnesses = []
    for lab in cluster.labels:
        for kind, corners, expected in (
            ("row", row_labels, _expected_s_omega(n, alpha, beta, lab)),
            ("column", col_labels, _expected_s_omega(n, beta, alpha, lab[::-1])),
        ):
            s = 0
            for sgn, c in zip(signs, corners):
                a, b = (c, lab) if kind == "row" else (lab, c)
                omega = pair_test(tables[a], tables[b])
                if isinstance(omega, str):
                    witnesses.append(f"{kind} sum at {lab}: {omega}")
                    break
                s += sgn * omega
            else:
                if s != expected:
                    witnesses.append(f"{kind} sum at {lab}: got {s}, expected {expected}")
    return witnesses, {}


def check_bracket_difference(ws: Workspace) -> Outcome:
    """The exotic and standard-companion brackets differ by the wedge
    (a, b) of the exotic operator:

        {f,g}_ab - {f,g}_std = f^(a<-a+1) g^(b+1<-b) - f^(b+1<-b) g^(a<-a+1)
                               - f_(a+1<-a) g_(b<-b+1) + f_(b<-b+1) g_(a+1<-a)

    checked on every pair of coordinate functions.  The replacements are
    entries of the gradient tables: f^(i<-j) = F[i][j] and
    f_(j<-i) = F'[i][j] (1-based).  Each pair is one accumulation of the
    exotic pairing, the standard one negated and the four wedge products
    negated, all scaled by n^2, and passes when every sum is 0.
    """
    n, (exotic_op, companion_op) = ws.structure.n, ws.structure.pair_ops
    a, b = exotic_op.wedge
    nn = n * n
    ring = get_ring(n)
    coords = [ring.x(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    exotic = [ws.tables(f, exotic_op) for f in coords]
    std = [ws.tables(f, companion_op) for f in coords]
    witnesses = []
    for ia, (ef, sf) in enumerate(zip(exotic, std)):
        for ib in range(ia + 1, len(coords)):
            eg, sg = exotic[ib], std[ib]
            (ed, eo), (sd, so) = _pairing(ef, eg), _pairing(sf, sg)
            products = ed + eo + [(x, y, -w) for x, y, w in sd + so] + [
                (ef.F[a - 1][a], eg.F[b][b - 1], -nn),
                (ef.F[b][b - 1], eg.F[a - 1][a], nn),
                (ef.Fp[a - 1][a], eg.Fp[b][b - 1], nn),
                (ef.Fp[b][b - 1], eg.Fp[a - 1][a], -nn),
            ]
            diff = _ring_sum(ring, products)
            if diff:
                witnesses.append(
                    f"difference mismatch at coordinate pair ({coords[ia]}, {coords[ib]}): "
                    f"{unscale(Poly(ring, diff), n)}"
                )
    return witnesses, {}


def check_cybe(ws: Workspace) -> Outcome:
    """The r tensor solves the classical Yang-Baxter equation and
    r + r_21 is the split Casimir."""
    rt = ws.r_tensor
    cybe, unitary, witnesses = verify_cybe(rt, ws.structure.n)
    return witnesses, {"cybe": cybe, "unitary": unitary, "terms": len(rt)}


def check_r_plus_consistency(ws: Workspace) -> Outcome:
    """The closed-form half operator agrees with the tensor contraction
    on every matrix unit."""
    nn, op, rt = ws.structure.n, ws.structure.op, ws.r_tensor
    witnesses = []
    for k in range(nn):
        for l in range(nn):
            unit = [[int((i, j) == (k, l)) for j in range(nn)] for i in range(nn)]
            if r_plus(op, unit) != r_plus_oracle(rt, unit):
                witnesses.append(f"operator and tensor disagree on unit e[{k + 1},{l + 1}]")
    return witnesses, {}


# ----------------------------------------------------------------------
# Suites

# Check name -> (name of the check function in this module, needs a pair).
# Functions are looked up by name when run, so a rebinding of the module
# attribute (as a tracer does) is honoured.
CHECKS = {
    "logcanon": ("check_log_canonical", False),
    "compat": ("check_compatibility", False),
    "rank": ("check_rank", False),
    "stable": ("check_stable_count", False),
    "regular": ("check_regularity", False),
    "frozen": ("check_frozen_log_canonical_with_coordinates", False),
    "somega": ("check_s_omega", True),
    "bracketdiff": ("check_bracket_difference", True),
    "cybe": ("check_cybe", False),
    "rplus": ("check_r_plus_consistency", False),
}


def run_checks(
    names: Sequence[str],
    triple: Optional[BDTriple] = None,
    n: Optional[int] = None,
    sl: bool = False,
    standard: bool = False,
    fault: Optional[Fault] = None,
    processes: Optional[int] = None,
) -> List[VerificationReport]:
    """Run checks by name, sharing the coefficient sweep between them.

    "all" expands to every check in CHECKS order; the two lemma-level
    checks that need a pair (somega, bracketdiff) are skipped when none
    was given.  The flags make one structure, and fault, when given, one
    function of it.  A MemoryError or RecursionError names the check it
    stopped.
    """
    expanded: List[str] = []
    for name in names:
        if name == "all":
            expanded.extend(c for c, (_, pair) in CHECKS.items() if triple is not None or not pair)
        elif name not in CHECKS:
            raise ValueError(f"unknown check {name!r}")
        elif CHECKS[name][1] and triple is None:
            raise ValueError(f"{name} needs a pair")
        else:
            expanded.append(name)
    # The one worker count of the sweeps and the exchanges' divisions,
    # checked before the workspace is made, so a bad count fails every check.
    with worker_count(sweep_workers(processes)):
        s = structure(triple, n, sl, standard)
        ws = Workspace(FAULTS[fault](s) if fault else s)
        reports = []
        for name in expanded:
            started = time.perf_counter()
            try:
                witnesses, details = globals()[CHECKS[name][0]](ws)
            except (MemoryError, RecursionError) as e:
                raise type(e)(f"check {name} stopped by {type(e).__name__}" + (f": {e}" if str(e) else "")) from e
            reports.append(
                VerificationReport(
                    check=name,
                    n=s.n,
                    alpha=s.roots[0],
                    beta=s.roots[1],
                    status="pass" if not witnesses else "fail",
                    witnesses=witnesses[:MAX_WITNESSES],
                    seconds=round(time.perf_counter() - started, 6),
                    details=details,
                )
            )
    return reports
