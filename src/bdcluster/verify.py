"""Machine verification of the defining properties of the cluster structures.

Checks are run by name through run_checks, which looks each one up in
CHECKS and returns one VerificationReport per check with a pass/fail
status, a list of human-readable failure witnesses, details and wall
time.  Checks are pure computations in exact rational arithmetic;
"pass" means the property holds on the nose for the requested size and
pair.

Two deliberate fault injections are available to demonstrate that the
checks can fail: dropping a term from the cluster function at label
(3,1), and zeroing the diagonal part of the r-matrix.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .bdseed import (
    BDTriple,
    Cluster,
    get_ring,
    initial_cluster,
    standard_cluster,
)
from .polymat import col_replace, first_family, row_replace, second_family
from .polyring import Poly
from .poisson import (
    NotLogCanonical,
    RPlusOperator,
    build_r_tensor,
    bracket_from_tables,
    gradient_tables,
    omega_sweep,
    poisson_coefficient,
    r_plus,
    r_plus_operator,
    r_plus_oracle,
    verify_cybe,
)
from .quiver import (
    Quiver,
    bd_quiver,
    make_seed,
    matrix_rank,
    mutate_seed,
    standard_quiver,
    to_exchange_matrix,
    NotLaurentPolynomial,
)

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
        return {
            "check": self.check,
            "n": self.n,
            "alpha": self.alpha,
            "beta": self.beta,
            "status": self.status,
            "witnesses": list(self.witnesses),
            "seconds": self.seconds,
            "details": dict(self.details),
        }


class Workspace:
    """Caches the cluster, quiver, operator, and pairwise coefficients
    for one (pair, mode, fault) so several checks can share them.

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
        if triple is None and n is None:
            raise ValueError("need a pair or an explicit size")
        if triple is None:
            standard = True
        self.triple = triple
        self.n = triple.n if triple is not None else n
        self.sl = sl
        self.standard = standard
        self.fault = fault
        self.processes = processes
        self._cluster: Optional[Cluster] = None
        self._quiver: Optional[Quiver] = None
        self._op: Optional[RPlusOperator] = None
        self._omega = None

    @property
    def alpha(self) -> Optional[int]:
        return self.triple.alpha if self.triple is not None else None

    @property
    def beta(self) -> Optional[int]:
        return self.triple.beta if self.triple is not None else None

    def gl(self) -> "Workspace":
        """The same structure on GL.  Exchanges divide in the ambient
        polynomial ring only there; on SL the divisibility holds modulo
        det X = 1, and the GL variable represents the SL one."""
        if not self.sl:
            return self
        return Workspace(self.triple, self.n, False, self.standard, self.fault, self.processes)

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

    def op(self) -> RPlusOperator:
        if self._op is None:
            op = r_plus_operator(self.triple, self.n, self.standard)
            if self.fault is Fault.ZERO_R0:
                m = self.n - 1
                zeros = tuple(tuple(0 for _ in range(m)) for _ in range(m))
                op = replace(op, c=zeros)
            self._op = op
        return self._op

    def omega(self):
        """(labels, {(ia, ib): omega}, failures) over the cluster label order."""
        if self._omega is None:
            cluster = self.cluster()
            labels = list(cluster.labels)
            funcs = [cluster.functions[lab] for lab in labels]
            omegas, failures = omega_sweep(funcs, self.op(), processes=self.processes)
            self._omega = (labels, omegas, failures)
        return self._omega


# ----------------------------------------------------------------------
# Individual checks.  Each takes a Workspace and returns an Outcome.


def check_log_canonical(ws: Workspace) -> Outcome:
    """Every pair of cluster functions has {f, g} = omega f g."""
    labels, _, failures = ws.omega()
    witnesses = [
        f"pair ({labels[ia]}, {labels[ib]}): {reason}" for ia, ib, reason in failures
    ]
    details = {"pairs": len(labels) * (len(labels) - 1) // 2, "failures": len(failures)}
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

    def w(la, lb) -> Fraction:
        ia, ib = cl_index[la], cl_index[lb]
        if ia == ib:
            return Fraction(0)
        if ia < ib:
            return omegas[(ia, ib)]
        return -omegas[(ib, ia)]

    L = len(em.labels)
    witnesses: List[str] = []
    diag: List[Fraction] = []
    for r in range(em.n_mutable):
        row = em.entries[r]
        for c in range(L):
            v = Fraction(0)
            for m in range(L):
                if row[m]:
                    v += row[m] * w(em.labels[m], em.labels[c])
            if c == r:
                diag.append(v)
            elif v:
                witnesses.append(
                    f"product entry at row {em.labels[r]}, column {em.labels[c]} is {v}, expected 0"
                )
    sign = None
    if diag:
        first = diag[0]
        if first in (Fraction(1), Fraction(-1)) and all(d == first for d in diag):
            sign = int(first)
        else:
            bad = next((d for d in diag if d != first or d not in (Fraction(1), Fraction(-1))), first)
            witnesses.append(
                f"diagonal of the product is not a uniform unit: saw {bad} and {first}"
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
    check always runs on the GL cluster (see Workspace.gl).
    """
    ws = ws.gl()
    seed = make_seed(ws.cluster(), ws.quiver())
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
    coords = [((i, j), cluster.ring.x(i, j)) for i in idx for j in idx]
    coord_tables = [gradient_tables(g, op) for _, g in coords]
    witnesses = []
    for lab in sorted(cluster.frozen):
        f = cluster.functions[lab]
        ft = gradient_tables(f, op)
        for ((i, j), g), gt in zip(coords, coord_tables):
            try:
                poisson_coefficient(f, g, op, bracket=bracket_from_tables(ft, gt))
            except NotLogCanonical as e:
                witnesses.append(f"frozen {lab} with x[{i},{j}]: {e}")
    return witnesses, {}


def _expected_s_omega(triple: BDTriple, label) -> int:
    v = 0
    if label in first_family(triple.n, triple.alpha, triple.beta):
        v += 1
    if label[1] == triple.beta + 1:
        v -= 1
    return v


def _expected_s_omega_prime(triple: BDTriple, label) -> int:
    v = 0
    if label in second_family(triple.n, triple.alpha, triple.beta):
        v += 1
    if label[0] == triple.alpha + 1:
        v -= 1
    return v


def check_s_omega(ws: Workspace) -> Outcome:
    """The alternating sums of standard-bracket coefficients against the
    four bottom-row (respectively right-column) entries match their
    predicted values on every standard cluster function.

    With s(g) = w(f[n,a], g) - w(f[n,a+1], g) - w(f[n,b], g) + w(f[n,b+1], g)
    (w = log-canonical coefficient for the pair's standard companion
    bracket), s(g) is 1 on the first special family, -1 on column b+1,
    and 0 elsewhere; the transposed sum s' behaves symmetrically except
    that its two cases can meet at one label, where they add to 0.

    The right-column combination is taken with the sweep function in the
    first slot, s'(g) = w(g, f[a,n]) - w(g, f[a+1,n]) - ..., matching
    the orientation in which those coefficients enter the column-side
    exchange computations.  Since w is antisymmetric the two orders
    differ only by a global sign.
    """
    triple = ws.triple
    n, alpha, beta = triple.n, triple.alpha, triple.beta
    cluster = standard_cluster(n)
    op = Workspace(triple, standard=True, fault=ws.fault).op()
    funcs = cluster.functions
    tables = {lab: gradient_tables(funcs[lab], op) for lab in cluster.labels}
    row_labels = [(n, alpha), (n, alpha + 1), (n, beta), (n, beta + 1)]
    col_labels = [(alpha, n), (alpha + 1, n), (beta, n), (beta + 1, n)]
    signs = (1, -1, -1, 1)
    witnesses = []
    for lab in cluster.labels:
        for kind, corners, expected in (
            ("row", row_labels, _expected_s_omega(triple, lab)),
            ("column", col_labels, _expected_s_omega_prime(triple, lab)),
        ):
            s = 0
            try:
                for sgn, c in zip(signs, corners):
                    a, b = (c, lab) if kind == "row" else (lab, c)
                    br = bracket_from_tables(tables[a], tables[b])
                    s += sgn * poisson_coefficient(funcs[a], funcs[b], op, bracket=br)
            except NotLogCanonical as e:
                witnesses.append(f"{kind} sum at {lab}: {e}")
                continue
            if s != expected:
                witnesses.append(f"{kind} sum at {lab}: got {s}, expected {expected}")
    return witnesses, {}


def check_bracket_difference(ws: Workspace) -> Outcome:
    """The exotic and standard-companion brackets differ by the wedge:

        {f,g}_ab - {f,g}_std = f^(a<-a+1) g^(b+1<-b) - f^(b+1<-b) g^(a<-a+1)
                               - f_(a+1<-a) g_(b<-b+1) + f_(b<-b+1) g_(a+1<-a)

    checked on every pair of coordinate functions.
    """
    n, alpha, beta = ws.n, ws.alpha, ws.beta
    ring = get_ring(n)
    coords = [ring.x(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    exotic_op = r_plus_operator(ws.triple, standard=False)
    std_op = r_plus_operator(ws.triple, standard=True)
    exotic = [gradient_tables(f, exotic_op) for f in coords]
    std = [gradient_tables(f, std_op) for f in coords]
    witnesses = []
    for ia in range(len(coords)):
        for ib in range(ia + 1, len(coords)):
            f, g = coords[ia], coords[ib]
            lhs = bracket_from_tables(exotic[ia], exotic[ib]) - bracket_from_tables(std[ia], std[ib])
            rhs = (
                col_replace(f, alpha, alpha + 1) * col_replace(g, beta + 1, beta)
                - col_replace(f, beta + 1, beta) * col_replace(g, alpha, alpha + 1)
                - row_replace(f, alpha + 1, alpha) * row_replace(g, beta, beta + 1)
                + row_replace(f, beta, beta + 1) * row_replace(g, alpha + 1, alpha)
            )
            if lhs != rhs:
                witnesses.append(
                    f"difference mismatch at coordinate pair ({ia}, {ib}): {lhs - rhs}"
                )
    return witnesses, {}


def check_cybe(ws: Workspace) -> Outcome:
    """The r tensor solves the classical Yang-Baxter equation and
    r + r_21 is the split Casimir."""
    rt = build_r_tensor(ws.n, ws.alpha, ws.beta, standard=ws.standard)
    cybe, unitary, witnesses = verify_cybe(rt, ws.n)
    out = [] if (cybe and unitary) else witnesses
    return out, {"cybe": cybe, "unitary": unitary, "terms": len(rt)}


def check_r_plus_consistency(ws: Workspace) -> Outcome:
    """The closed-form half operator agrees with the tensor contraction
    on every matrix unit."""
    nn = ws.n
    op = r_plus_operator(ws.triple, nn, ws.standard)
    rt = build_r_tensor(nn, ws.alpha, ws.beta, standard=ws.standard)
    witnesses = []
    for k in range(nn):
        for l in range(nn):
            unit = [[Fraction(1) if (i, j) == (k, l) else Fraction(0) for j in range(nn)] for i in range(nn)]
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
    ws = Workspace(triple, n, sl, standard, fault, processes)
    reports = []
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
