"""Proving relative termination.

Certificate checkers (weights, natural and arctic matrix interpretations)
use exact integer arithmetic throughout; minus infinity in the arctic
semiring is a distinguished value (None), never a sentinel integer.

Conventions for matrix interpretations: a word maps to the product of its
letter matrices in word order, the empty word to the identity.  Natural
letter matrices need corner entries (1,1) and (d,d) at least 1; a strict
rule needs entry-wise >= plus strict decrease at the (1,d) corner.  Both
corner requirements make the strict decrease survive left and right
contexts (C[1,1] >= 1 feeds the left product, D[d,d] >= 1 the right).
Arctic letter matrices need a finite (1,1) entry >= 0; strict decrease is
entry-wise x >> y, i.e. x > y or x = y = -inf.  One checker, one rule test
and one search serve both semirings, each described by a `Semiring` record
(certificates.NATURAL and certificates.ARCTIC).  Matrix search is
exhaustive for every dimension up to the bound, under an assignment cap
and the prove deadline.

prove() runs a fixed method order, so outcomes are deterministic for a
given budget: trivial verdicts, then the strictification strategy, then
the direct relative methods.  The strictification strategy decides SN(S)
first (weights, else an S loop, else natural and arctic matrices on S
made strict); with SN(S) in hand, a termination proof of the strictified
system R union S confirms and a loop of it refutes.  Both blocks run
their methods cheapest first: weights, the loop search, then natural and
arctic matrices.  Most small systems are strictly terminating and settled
by weights, and a system with weights has no loop, so putting the loop
search after them only saves time.  A search cut by its node budget or
assignment cap is logged `cap`, one cut by the deadline `deadline`, one
that found nothing within its bounds `none`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .certificates import (
    SEMIRINGS,
    ArcticMatrixCertificate,
    Attempt,
    Certificate,
    CheckResult,
    ComposeCertificate,
    EmptyRCertificate,
    LoopCertificate,
    NaturalMatrixCertificate,
    ProofOutcome,
    SearchReport,
    Semiring,
    WeightCertificate,
    is_int,
    matrix_semiring,
    trivial_verdict,
)
from .core import RelSRS, Rule, Word, strictify, used_letters
from .nonterm import check_loop_certificate, search_emitting_loop, search_mixed_loop


# ---------------------------------------------------------------- weights


def check_weights(cert: WeightCertificate, system: RelSRS) -> CheckResult:
    if not isinstance(cert, WeightCertificate):
        return CheckResult(False, "not a weight certificate")
    weights: dict[int, Fraction] = {}
    for i, name in enumerate(system.letters):
        if name in cert.weights:
            v = cert.weights[name]
            if isinstance(v, bool):
                return CheckResult(False, f"weight for letter {name!r} must be a number")
            w = Fraction(v)
            if w < 0:
                return CheckResult(False, f"negative weight for letter {name!r}")
            weights[i] = w
    for rule in system.rules:
        for c in rule.lhs + rule.rhs:
            if c not in weights:
                return CheckResult(False, f"unknown letter {system.letters[c]!r}")
        wl = sum((weights[c] for c in rule.lhs), Fraction(0))
        wr = sum((weights[c] for c in rule.rhs), Fraction(0))
        if rule.strict:
            if not wl > wr:
                return CheckResult(
                    False, f"strict rule {system.rule_str(rule)} does not decrease ({wl} <= {wr})"
                )
        elif not wl >= wr:
            return CheckResult(
                False, f"relative rule {system.rule_str(rule)} increases ({wl} < {wr})"
            )
    return CheckResult(True)


def search_weights(system: RelSRS, max_weight: int = 16) -> Optional[WeightCertificate]:
    """The lexicographically first vector of integer weights 0..max_weight
    over the letters used in rules (in letter order) that proves the system,
    or None when there is none.

    A depth-first search gives the letters their weights in turn, each
    smallest first.  A rule only sees its per-letter count differences
    delta = |lhs| - |rhs|, and the letters still to come can add at most
    max_weight * max(0, delta) each to its total; a branch whose total
    cannot reach 0 (1 for a strict rule) even so is cut.
    """
    used = used_letters(system)
    n = len(used)
    deltas = [[rule.lhs.count(c) - rule.rhs.count(c) for c in used] for rule in system.rules]
    need = [1 if rule.strict else 0 for rule in system.rules]
    # reach[k][j]: the most the letters used[k:] can add to rule j's total
    reach = [
        [max_weight * sum(max(0, x) for x in delta[k:]) for delta in deltas]
        for k in range(n + 1)
    ]

    def first(k: int, totals: list[int]) -> Optional[list[int]]:
        if any(t + r < m for t, r, m in zip(totals, reach[k], need)):
            return None
        if k == n:
            return []
        for w in range(max_weight + 1):
            rest = first(k + 1, [t + w * delta[k] for t, delta in zip(totals, deltas)])
            if rest is not None:
                return [w] + rest
        return None

    vec = first(0, [0] * len(deltas))
    if vec is None:
        return None
    return WeightCertificate({system.letters[c]: Fraction(w) for c, w in zip(used, vec)})


# ------------------------------------------------------ matrix interpretations


def _word_matrix(word: Word, mats: dict, semiring: Semiring, d: int):
    if not word:
        return semiring.identity(d)
    m = mats[word[0]]
    for c in word[1:]:
        m = semiring.mul(m, mats[c], d)
    return m


def _rule_fault(rule: Rule, mats: dict, semiring: Semiring, d: int):
    """The first entry where the rule's sides are out of order, as (i, j,
    lhs entry, rhs entry, whether the comparison was strict); None when the
    interpretation respects the rule."""
    lm = _word_matrix(rule.lhs, mats, semiring, d)
    rm = _word_matrix(rule.rhs, mats, semiring, d)
    strict = rule.strict and not semiring.corner_only
    cmp = semiring.strict if strict else semiring.weak
    for i in range(d):
        for j in range(d):
            if not cmp(lm[i][j], rm[i][j]):
                return i, j, lm[i][j], rm[i][j], strict
    if rule.strict and semiring.corner_only:
        left, right = lm[0][d - 1], rm[0][d - 1]
        if not semiring.strict(left, right):
            return 0, d - 1, left, right, True
    return None


def check_matrix(
    cert: NaturalMatrixCertificate | ArcticMatrixCertificate, system: RelSRS
) -> CheckResult:
    semiring = matrix_semiring(cert)
    if semiring is None:
        return CheckResult(False, "not a matrix certificate")
    d = cert.dimension
    if not is_int(d) or d < 1:
        return CheckResult(False, "dimension must be a positive integer")
    mats = {}
    for i, name in enumerate(system.letters):
        if name not in cert.interp:
            continue
        m = cert.interp[name]
        if len(m) != d or any(len(row) != d for row in m):
            return CheckResult(False, f"matrix for {name!r} is not {d}x{d}")
        for row in m:
            for x in row:
                if not semiring.entry_ok(x):
                    return CheckResult(False, f"matrix for {name!r} has a bad entry {x!r}")
        fault = semiring.letter_fault(m, d)
        if fault is not None:
            return CheckResult(False, f"matrix for {name!r} {fault}")
        mats[i] = m
    for rule in system.rules:
        for c in rule.lhs + rule.rhs:
            if c not in mats:
                return CheckResult(False, f"no matrix for letter {system.letters[c]!r}")
        fault = _rule_fault(rule, mats, semiring, d)
        if fault is not None:
            return CheckResult(False, semiring.rule_fault(system.rule_str(rule), *fault))
    return CheckResult(True)


check_matrix_natural = check_matrix_arctic = check_matrix


# ----------------------------------------------------------- matrix search


class _Candidates:
    """The matrices allowed for a letter, in row-major lexicographic order
    over the semiring's entry pool.  They are made as the search first
    reaches them and kept for the next pass: at d = 3 the arctic pool gives
    over a million, more than a capped or timed search visits."""

    def __init__(self, semiring: Semiring, d: int, max_entry: int):
        rows = list(product(semiring.pool(max_entry), repeat=d))
        self._source = (
            m for m in product(rows, repeat=d) if semiring.letter_fault(m, d) is None
        )
        self._made: list = []

    def __iter__(self):
        made = self._made
        i = 0
        while True:
            if i == len(made):
                m = next(self._source, None)
                if m is None:
                    return
                made.append(m)
            yield made[i]
            i += 1


class _SearchCap(Exception):
    pass


def _exhaustive_matrix_search(
    system: RelSRS,
    semiring: Semiring,
    d: int,
    max_entry: int,
    cap: int,
    deadline: Optional[float],
    report: Optional[SearchReport],
) -> Optional[dict]:
    used = used_letters(system)
    candidates = _Candidates(semiring, d, max_entry)
    # a rule becomes checkable once all its letters are assigned; checking
    # at the earliest such depth prunes the assignment tree hard
    position = {c: i for i, c in enumerate(used)}
    ready: list[list[Rule]] = [[] for _ in used]
    for rule in system.rules:
        letters = set(rule.lhs) | set(rule.rhs)
        if not letters:
            if _rule_fault(rule, {}, semiring, d) is not None:
                return None
            continue
        ready[max(position[c] for c in letters)].append(rule)
    mats: dict = {}
    visited = 0

    def rec(level: int):
        nonlocal visited
        if level == len(used):
            return dict(mats)
        for m in candidates:
            visited += 1
            if visited > cap or (deadline is not None and time.monotonic() >= deadline):
                raise _SearchCap()
            mats[used[level]] = m
            if all(_rule_fault(r, mats, semiring, d) is None for r in ready[level]):
                found = rec(level + 1)
                if found is not None:
                    return found
        mats.pop(used[level], None)  # candidates may be empty
        return None

    try:
        return rec(0)
    except _SearchCap:
        if visited > cap and report is not None:
            report.capped = True
        return None


def search_matrix(
    system: RelSRS,
    semiring: str,
    max_dim: int = 2,
    max_entry: int = 2,
    *,
    assignment_cap: int = 500_000,
    deadline: Optional[float] = None,
    report: Optional[SearchReport] = None,
) -> Optional[NaturalMatrixCertificate | ArcticMatrixCertificate]:
    """Exhaustive certificate search (with pruning) for each dimension
    1..max_dim in turn, each giving up after assignment_cap letter
    assignments (which sets report.capped) or at the monotonic-clock
    deadline.  None is not a proof of absence."""
    sr = next((s for s in SEMIRINGS if s.name == semiring), None)
    if sr is None:
        raise ValueError(f"semiring must be natural or arctic, got {semiring!r}")
    for d in range(1, max_dim + 1):
        mats = _exhaustive_matrix_search(
            system, sr, d, max_entry, assignment_cap, deadline, report
        )
        if mats is not None:
            return sr.certificate(d, {system.letters[c]: m for c, m in mats.items()})
    return None


# ------------------------------------------------------------------ prove


@dataclass(frozen=True)
class ProveBudget:
    max_weight: int = 16
    # exhaustive matrix search for every dimension up to matrix_max_dim
    matrix_max_dim: int = 2
    matrix_max_entry: int = 2
    matrix_assignment_cap: int = 500_000
    loop_max_word_len: int = 12
    loop_max_steps: int = 40
    loop_max_start_len: int = 6
    loop_node_budget: int = 100_000
    emit_max_word_len: int = 10
    emit_max_steps: int = 20
    emit_max_start_len: int = 5
    emit_node_budget: int = 50_000
    # cheap bounds for refuting SN(S) when weights fail to prove it
    sloop_max_word_len: int = 8
    sloop_max_steps: int = 10
    sloop_max_start_len: int = 4
    sloop_node_budget: int = 20_000


SWEEP_BUDGET = ProveBudget(
    max_weight=8,
    matrix_max_dim=2,
    matrix_max_entry=2,
    matrix_assignment_cap=20_000,
    loop_max_word_len=8,
    loop_max_steps=10,
    loop_max_start_len=4,
    loop_node_budget=4_000,
    emit_max_word_len=8,
    emit_max_steps=8,
    emit_max_start_len=4,
    emit_node_budget=2_000,
    sloop_max_word_len=7,
    sloop_max_steps=8,
    sloop_max_start_len=3,
    sloop_node_budget=1_500,
)


def _expired(deadline: Optional[float]) -> bool:
    return deadline is not None and time.monotonic() >= deadline


def _outcome(cert, deadline: Optional[float], report: SearchReport) -> str:
    """How a search ended: found, cut by the deadline, cut by its node
    budget or assignment cap, or none up to its bounds."""
    if cert is not None:
        return "found"
    if _expired(deadline):
        return "deadline"
    return "cap" if report.capped else "none"


def _s_as_strict(system: RelSRS) -> RelSRS:
    """The relative rules S alone, made strict: SN(S) is its termination."""
    return RelSRS(system.letters, tuple(Rule(r.lhs, r.rhs, True) for r in system.relative_rules))


def _weights_attempt(system: RelSRS, budget: ProveBudget, tag: str, attempts: list):
    w = search_weights(system, budget.max_weight)
    attempts.append(Attempt(f"{tag}weights", "found" if w else "none", f"max {budget.max_weight}"))
    return w


def _loop_attempt(
    search,
    system: RelSRS,
    budget: ProveBudget,
    bounds: str,
    method: str,
    attempts: list,
    deadline: Optional[float],
    found_detail: str = "",
):
    """Run a loop search under the budget's `bounds` fields (sloop, loop or
    emit) and log it as `method`."""
    report = SearchReport()
    cert = search(
        system,
        getattr(budget, f"{bounds}_max_word_len"),
        getattr(budget, f"{bounds}_max_steps"),
        max_start_len=getattr(budget, f"{bounds}_max_start_len"),
        node_budget=getattr(budget, f"{bounds}_node_budget"),
        deadline=deadline,
        report=report,
    )
    detail = found_detail if cert is not None else ""
    attempts.append(Attempt(method, _outcome(cert, deadline, report), detail))
    return cert


def _matrix_attempt(
    system: RelSRS,
    budget: ProveBudget,
    semiring: str,
    tag: str,
    attempts: list,
    deadline: Optional[float],
):
    report = SearchReport()
    cert = search_matrix(
        system,
        semiring,
        budget.matrix_max_dim,
        budget.matrix_max_entry,
        assignment_cap=budget.matrix_assignment_cap,
        deadline=deadline,
        report=report,
    )
    attempts.append(
        Attempt(
            f"{tag}matrix-{semiring}",
            _outcome(cert, deadline, report),
            f"dim <= {budget.matrix_max_dim}, entries <= {budget.matrix_max_entry}",
        )
    )
    return cert


def _matrix_methods(
    system: RelSRS,
    budget: ProveBudget,
    tag: str,
    attempts: list,
    deadline: Optional[float],
):
    """Natural, then arctic matrices, while the deadline allows."""
    for semiring in ("natural", "arctic"):
        if _expired(deadline):
            return None
        cert = _matrix_attempt(system, budget, semiring, tag, attempts, deadline)
        if cert is not None:
            return cert
    return None


def prove(
    system: RelSRS,
    budget: Optional[ProveBudget] = None,
    *,
    deadline: Optional[float] = None,
) -> ProofOutcome:
    budget = budget or ProveBudget()
    attempts: list[Attempt] = []

    def timed_out() -> ProofOutcome:
        attempts.append(Attempt("timeout", "hit", "wall clock budget exhausted"))
        return ProofOutcome("MAYBE", None, "timeout", tuple(attempts))

    tv = trivial_verdict(system)
    if tv is not None:
        attempts.append(Attempt("trivial", tv.verdict, tv.reason))
        return ProofOutcome(tv.verdict, tv.certificate, tv.reason, tuple(attempts))

    # 1) decide SN(S): weights, a loop refutation, then matrices
    s_cert: Optional[Certificate] = None
    if not system.relative_rules:
        s_cert = EmptyRCertificate()
        attempts.append(Attempt("s-termination", "trivial", "S is empty"))
    else:
        s_system = _s_as_strict(system)
        s_cert = _weights_attempt(s_system, budget, "s-", attempts)
        if s_cert is None:
            s_loop = _loop_attempt(
                search_mixed_loop, s_system, budget, "sloop", "s-loop", attempts, deadline,
                "S alone does not terminate",
            )
            if s_loop is None:
                if _expired(deadline):
                    return timed_out()
                s_cert = _matrix_methods(s_system, budget, "s-", attempts, deadline)
    if _expired(deadline):
        return timed_out()

    # 2) strictification strategy, available once SN(S) is settled positively;
    # weights first, as a system they settle has no loop to find
    if s_cert is not None:
        stric = strictify(system)
        t_cert = _weights_attempt(stric, budget, "strictified-", attempts)
        if t_cert is None:
            loop = _loop_attempt(
                search_mixed_loop, stric, budget, "loop", "strictified-loop", attempts, deadline
            )
            if loop is not None:
                cert = ComposeCertificate(
                    "NO", (("s-termination", s_cert), ("strictified-loop", loop))
                )
                return ProofOutcome(
                    "NO", cert, "loop of R union S while S terminates", tuple(attempts)
                )
            if _expired(deadline):
                return timed_out()
            t_cert = _matrix_methods(stric, budget, "strictified-", attempts, deadline)
        if t_cert is not None:
            cert = ComposeCertificate("YES", (("strictified-termination", t_cert),))
            return ProofOutcome("YES", cert, "R union S terminates", tuple(attempts))
    if _expired(deadline):
        return timed_out()

    # 3) direct relative methods
    w = _weights_attempt(system, budget, "", attempts)
    if w is not None:
        return ProofOutcome("YES", w, "weight certificate", tuple(attempts))
    loop = _loop_attempt(
        search_mixed_loop, system, budget, "loop", "mixed-loop", attempts, deadline
    )
    if loop is not None:
        return ProofOutcome("NO", loop, "mixed loop", tuple(attempts))
    if _expired(deadline):
        return timed_out()
    if s_cert is None:
        # an emitting loop is an S-only loop, impossible under proven SN(S)
        em = _loop_attempt(
            search_emitting_loop, system, budget, "emit", "emitting-loop", attempts, deadline
        )
        if em is not None:
            return ProofOutcome("NO", em, "emitting loop", tuple(attempts))
        if _expired(deadline):
            return timed_out()
    cert = _matrix_methods(system, budget, "", attempts, deadline)
    if cert is not None:
        reason = f"{matrix_semiring(cert).name} matrix certificate"
        return ProofOutcome("YES", cert, reason, tuple(attempts))
    if _expired(deadline):
        return timed_out()
    return ProofOutcome(
        "MAYBE", None, "no method conclusive within budget", tuple(attempts)
    )


# ------------------------------------------------------------ verification


def verify_certificate(cert: Certificate, system: RelSRS) -> CheckResult:
    """Re-check any certificate against the system it claims to settle."""
    if isinstance(cert, LoopCertificate):
        return check_loop_certificate(cert, system)
    if isinstance(cert, WeightCertificate):
        return check_weights(cert, system)
    if matrix_semiring(cert) is not None:
        return check_matrix(cert, system)
    if isinstance(cert, EmptyRCertificate):
        if system.strict_rules:
            return CheckResult(False, "system has strict rules, R is not empty")
        return CheckResult(True)
    if isinstance(cert, ComposeCertificate):
        return _verify_compose(cert, system)
    return CheckResult(False, f"unknown certificate object {type(cert).__name__}")


def _verify_compose(cert: ComposeCertificate, system: RelSRS) -> CheckResult:
    s_system = _s_as_strict(system)
    stric = strictify(system)
    roles_ok = set()
    for role, part in cert.parts:
        if role == "s-termination":
            if isinstance(part, EmptyRCertificate):
                sub = CheckResult(True) if not s_system.rules else CheckResult(
                    False, "S is not empty"
                )
            else:
                sub = verify_certificate(part, s_system)
        elif role == "strictified-loop":
            if not isinstance(part, LoopCertificate) or part.kind != "mixed":
                sub = CheckResult(False, "strictified-loop part must be a mixed loop")
            else:
                sub = check_loop_certificate(part, stric)
        elif role == "strictified-termination":
            sub = verify_certificate(part, stric)
        else:
            return CheckResult(False, f"unknown composite role {role!r}")
        if not sub:
            return CheckResult(False, f"part {role!r}: {sub.reason}")
        roles_ok.add(role)
    if cert.verdict == "YES":
        if "strictified-termination" not in roles_ok:
            return CheckResult(False, "YES composite needs a strictified-termination part")
        return CheckResult(True)
    if cert.verdict == "NO":
        if not {"s-termination", "strictified-loop"} <= roles_ok:
            return CheckResult(
                False, "NO composite needs s-termination and strictified-loop parts"
            )
        return CheckResult(True)
    return CheckResult(False, f"composite verdict must be YES or NO, got {cert.verdict!r}")
