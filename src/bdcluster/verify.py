"""Machine verification of the defining properties of the cluster structures.

Checks are run by name through run_checks, which looks each one up in
CHECKS and returns one VerificationReport per check with a pass/fail
status, a list of human-readable failure witnesses, details and wall
time.  Checks are pure computations in exact rational arithmetic;
"pass" means the property holds on the nose for the requested size and
pair.

Two fault injections show that the checks can fail.  drop-phi31-term
drops the leading term of the cluster function at (3,1); with n <= 5 it
trips compat and regular, and logcanon and frozen on most pairs.
zero-r0 zeroes c, the coefficients of r's diagonal part, in
Workspace.op, so on the exotic structure logcanon, compat, frozen,
somega and cybe fail, while rplus (both its sides read c) and
bracketdiff (the wedge alone) pass.
"""

from __future__ import annotations

import enum
import time
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Tuple

from .bdseed import (
    BDTriple,
    Cluster,
    get_ring,
    initial_cluster,
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
    """Deliberate defects for negative-control runs."""

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


class Workspace:
    """Caches the cluster, quiver, operator, tables and coefficients for
    one (pair, mode, fault) so several checks can share them.

    The checks and the CLI pick the structure here: the standard one
    without a pair, else the pair's exotic structure, or its standard
    companion when standard is set.
    """

    def __init__(
        self,
        triple: Optional[BDTriple] = None,
        n: Optional[int] = None,
        sl: bool = False,
        standard: bool = False,
        fault: Optional[Fault] = None,
        processes: Optional[int] = None,
    ):
        self.n = structure_size(triple, n)
        if triple is None:
            standard = True
        self.triple = triple
        # SL drops only (1, 1), so every seed with n >= 3 has the label.
        if fault is Fault.DROP_PHI31_TERM and self.n < 3:
            raise ValueError(f"fault {fault.value} needs label (3, 1), which n = {self.n} lacks")
        self.sl = sl
        self.standard = standard
        self.fault = fault
        self.processes = processes
        self._cluster: Optional[Cluster] = None
        self._quiver: Optional[Quiver] = None
        self._ops: dict = {}
        self._omega = None
        # Each swept pair's (products, half), in pair order, once omega() ran.
        self.sweep_plan: List[Tuple[int, int]] = []
        # {f's terms: {op: tables of f for op}}
        self._tables: dict = {}

    @property
    def alpha(self) -> Optional[int]:
        return self.triple.alpha if self.triple is not None else None

    @property
    def beta(self) -> Optional[int]:
        return self.triple.beta if self.triple is not None else None

    def exchange_seed(self) -> Seed:
        """The seed that one-step exchanges start from: this structure on
        GL.  Exchanges divide in the ambient polynomial ring only there; on
        SL the divisibility holds modulo det X = 1, and the GL variable
        represents the SL one."""
        ws = self
        if self.sl:
            ws = Workspace(self.triple, self.n, False, self.standard, self.fault, self.processes)
        return make_seed(ws.cluster(), ws.quiver())

    def cluster(self) -> Cluster:
        if self._cluster is None:
            if self.standard:
                c = standard_cluster(self.n, sl=self.sl)
            else:
                c = initial_cluster(self.triple, sl=self.sl)
            if self.fault is Fault.DROP_PHI31_TERM:
                lab = (3, 1)
                f = c.functions[lab]
                lead = f.leading_monomial()
                funcs = dict(c.functions)
                funcs[lab] = f - Poly(f.ring, {lead: f.leading_coefficient()})
                c = replace(c, functions=funcs)
            self._cluster = c
        return self._cluster

    def quiver(self) -> Quiver:
        if self._quiver is None:
            if self.standard:
                self._quiver = standard_quiver(self.n, sl=self.sl)
            else:
                self._quiver = bd_quiver(self.triple, sl=self.sl)
        return self._quiver

    def op(self, standard: Optional[bool] = None) -> RPlusOperator:
        """R_+ of this structure, or, with standard given, the pair's exotic
        (False) or standard-companion (True) operator.  Every check reads
        its r-matrix here, so the zero-r0 fault reaches them all."""
        if standard is None:
            standard = self.standard
        if standard not in self._ops:
            op = r_plus_operator(self.triple, self.n, standard)
            if self.fault is Fault.ZERO_R0:
                m = self.n - 1
                zeros = tuple(tuple(0 for _ in range(m)) for _ in range(m))
                op = replace(op, c=zeros)
            self._ops[standard] = op
        return self._ops[standard]

    def tables(self, f: Poly, op: RPlusOperator):
        """The gradient tables of f for op, made once per distinct (f, op)
        and kept for the workspace's life.  F, F', the degree classes and
        top do not read op, so they are made once per distinct f, and
        every further operator's tables of f are derived from them."""
        views = self._tables.setdefault(frozenset(f._d.items()), {})
        if op not in views:
            views[op] = gradient_tables(f, op, like=next(iter(views.values()), None))
        return views[op]

    def omega(self):
        """(labels, {(ia, ib): omega}, failures) over the cluster label order,
        from the workspace's tables of the cluster functions."""
        if self._omega is None:
            cluster = self.cluster()
            labels = list(cluster.labels)
            funcs = [cluster.functions[lab] for lab in labels]
            op = self.op()
            tables = [self.tables(f, op) for f in funcs]
            self.sweep_plan = sweep_plan(tables)
            omegas, failures = omega_sweep(funcs, op, processes=self.processes, tables=tables, plan=self.sweep_plan)
            self._omega = (labels, omegas, failures)
        return self._omega


# ----------------------------------------------------------------------
# Individual checks.  Each takes a Workspace and returns an Outcome.


def check_log_canonical(ws: Workspace) -> Outcome:
    """Every pair of cluster functions has {f, g} = omega f g."""
    labels, _, failures = ws.omega()
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
    labels, omegas, failures = ws.omega()
    if failures:
        ia, ib, reason = failures[0]
        return [f"coefficient matrix undefined: pair ({labels[ia]}, {labels[ib]}): {reason}"], {}
    em = to_exchange_matrix(ws.quiver())
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
    em = to_exchange_matrix(ws.quiver())
    rank = matrix_rank(em.entries)
    witnesses = []
    if rank != em.n_mutable:
        witnesses.append(f"rank is {rank}, expected {em.n_mutable}")
    return witnesses, {"rank": rank, "n_mutable": em.n_mutable}


def check_stable_count(ws: Workspace) -> Outcome:
    """The frozen set has the predicted size (2(n-2) for the exotic
    structure on SL, one more on GL; 2n-2 and 2n-1 for the standard)."""
    nn = ws.n
    if ws.standard:
        expected = (2 * nn - 2) if ws.sl else (2 * nn - 1)
    else:
        expected = 2 * (nn - 2) if ws.sl else 2 * nn - 3
    actual = len(ws.cluster().frozen)
    witnesses = []
    if actual != expected:
        witnesses.append(f"{actual} frozen variables, expected {expected}")
    return witnesses, {"frozen": actual, "expected": expected}


def check_regularity(ws: Workspace) -> Outcome:
    """Every one-step exchange from the initial seed is a polynomial.

    Divisibility is checked in the ambient polynomial ring, so this
    check always runs on the GL cluster (see Workspace.exchange_seed).
    """
    seed = ws.exchange_seed()
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
    cluster = ws.cluster()
    op = ws.op()
    idx = range(1, ws.n + 1)
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
    n, alpha, beta = ws.n, ws.alpha, ws.beta
    cluster = standard_cluster(n)
    op = ws.op(True)
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
    n, (a, b) = ws.n, ws.op(False).wedge
    nn = n * n
    ring = get_ring(n)
    coords = [ring.x(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    exotic = [ws.tables(f, ws.op(False)) for f in coords]
    std = [ws.tables(f, ws.op(True)) for f in coords]
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
            # Every coordinate's tables share one key layout.
            diff = _ring_sum(ef, products)
            if diff:
                witnesses.append(
                    f"difference mismatch at coordinate pair ({coords[ia]}, {coords[ib]}): "
                    f"{unscale(Poly(ring, diff), n)}"
                )
    return witnesses, {}


def check_cybe(ws: Workspace) -> Outcome:
    """The r tensor solves the classical Yang-Baxter equation and
    r + r_21 is the split Casimir."""
    rt = build_r_tensor(ws.op())
    cybe, unitary, witnesses = verify_cybe(rt, ws.n)
    return witnesses, {"cybe": cybe, "unitary": unitary, "terms": len(rt)}


def check_r_plus_consistency(ws: Workspace) -> Outcome:
    """The closed-form half operator agrees with the tensor contraction
    on every matrix unit."""
    nn, op = ws.n, ws.op()
    rt = build_r_tensor(op)
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
    was given.
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
    # Checked here so that a bad count fails every check, not only those that sweep.
    ws = Workspace(triple, n, sl, standard, fault, sweep_workers(processes))
    reports = []
    # The exchanges' divisions take the sweep's worker count from here.
    with worker_count(ws.processes):
        for name in expanded:
            started = time.perf_counter()
            witnesses, details = globals()[CHECKS[name][0]](ws)
            reports.append(
                VerificationReport(
                    check=name,
                    n=ws.n,
                    alpha=ws.alpha,
                    beta=ws.beta,
                    status="pass" if not witnesses else "fail",
                    witnesses=witnesses[:MAX_WITNESSES],
                    seconds=round(time.perf_counter() - started, 6),
                    details=details,
                )
            )
    return reports
