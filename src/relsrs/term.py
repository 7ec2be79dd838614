"""Proving relative termination: the weight and matrix searches and prove().

Matrix search is exhaustive for every dimension up to the bound, under an
assignment cap and the prove deadline.  The matrix conventions, and the
checkers that re-verify every certificate, are in `relsrs.check`.

prove() runs a fixed method order, so outcomes are deterministic for a
given budget: trivial verdicts, then the strictification strategy, which
rests on SN(R union S) => SN(R/S) and on a loop of R union S refuting
SN(R/S) once SN(S) holds.  It runs in three phases, and each tries the
same four methods in the same order: weights, the mixed-loop search, then
natural and arctic matrices.

- `s-`: S alone made strict, under the cheap `sloop_*` loop bounds.  A
  proof gives SN(S); a loop ends the phase and skips the next one.
- `strictified-`, only once SN(S) is proven: the strictified system
  R union S.  A proof settles YES, a loop NO.
- no tag: the system itself.  A proof settles YES, a mixed loop NO.

Most small systems are strictly terminating and settled by weights, and a
system with weights has no loop, so putting the loop search after them
only saves time.  After each attempt, except a weights search that found
nothing, prove returns `timeout` once the deadline has passed; a
certificate that settles the system is returned as its verdict.  A search
cut by its node budget or assignment cap is logged `cap`, one cut by the
deadline `deadline`, one that found nothing within its bounds `none`.
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
    ComposeCertificate,
    EmptyRCertificate,
    LoopCertificate,
    NaturalMatrixCertificate,
    ProofOutcome,
    SearchReport,
    Semiring,
    WeightCertificate,
    matrix_semiring,
    trivial_verdict,
)
from .check import _rule_fault, _s_as_strict
from .core import RelSRS, Rule, strictify, used_letters
from .nonterm import search_mixed_loop

# unused here, but perfbench/spans.py wraps these names in this module
from .check import check_loop_certificate, verify_certificate  # noqa: F401
from .nonterm import search_emitting_loop  # noqa: F401


# ---------------------------------------------------------------- weights


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
    sloop_max_word_len=7,
    sloop_max_steps=8,
    sloop_max_start_len=3,
    sloop_node_budget=1_500,
)

_METHODS = ("weights", "loop", "natural", "arctic")


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


def _attempt(
    method: str,
    tag: str,
    system: RelSRS,
    budget: ProveBudget,
    deadline: Optional[float],
) -> tuple[Optional[Certificate], Attempt]:
    """Run one method of the phase `tag` on its subsystem: the certificate
    found, or None, and the attempt to log."""
    b = budget
    if method == "weights":
        cert = search_weights(system, b.max_weight)
        return cert, Attempt(f"{tag}weights", "found" if cert else "none", f"max {b.max_weight}")
    report = SearchReport()
    if method == "loop":
        if tag == "s-":
            word_len, steps, start_len, nodes = (
                b.sloop_max_word_len, b.sloop_max_steps, b.sloop_max_start_len, b.sloop_node_budget
            )
        else:
            word_len, steps, start_len, nodes = (
                b.loop_max_word_len, b.loop_max_steps, b.loop_max_start_len, b.loop_node_budget
            )
        cert = search_mixed_loop(
            system,
            word_len,
            steps,
            max_start_len=start_len,
            node_budget=nodes,
            deadline=deadline,
            report=report,
        )
        detail = "S alone does not terminate" if cert is not None and tag == "s-" else ""
        return cert, Attempt(f"{tag or 'mixed-'}loop", _outcome(cert, deadline, report), detail)
    cert = search_matrix(
        system,
        method,
        b.matrix_max_dim,
        b.matrix_max_entry,
        assignment_cap=b.matrix_assignment_cap,
        deadline=deadline,
        report=report,
    )
    detail = f"dim <= {b.matrix_max_dim}, entries <= {b.matrix_max_entry}"
    return cert, Attempt(f"{tag}matrix-{method}", _outcome(cert, deadline, report), detail)


def _settled(tag: str, cert: Certificate, s_cert: Optional[Certificate]) -> tuple:
    """Verdict, certificate and reason for a certificate found in the
    strictified phase (tag `strictified-`) or the direct one (no tag)."""
    is_loop = isinstance(cert, LoopCertificate)
    if tag:
        if is_loop:
            parts = (("s-termination", s_cert), ("strictified-loop", cert))
            return "NO", ComposeCertificate("NO", parts), "loop of R union S while S terminates"
        parts = (("strictified-termination", cert),)
        return "YES", ComposeCertificate("YES", parts), "R union S terminates"
    if is_loop:
        return "NO", cert, "mixed loop"
    if isinstance(cert, WeightCertificate):
        return "YES", cert, "weight certificate"
    return "YES", cert, f"{matrix_semiring(cert).name} matrix certificate"


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

    # SN(S), when proven: the certificate the strictified phase builds on
    s_cert: Optional[Certificate] = None
    for tag in ("s-", "strictified-", ""):
        if tag == "s-":
            if not system.relative_rules:
                s_cert = EmptyRCertificate()
                attempts.append(Attempt("s-termination", "trivial", "S is empty"))
                if _expired(deadline):
                    return timed_out()
                continue
            phase_system = _s_as_strict(system)
        elif tag:
            if s_cert is None:
                continue
            phase_system = strictify(system)
        else:
            phase_system = system
        for method in _METHODS:
            cert, attempt = _attempt(method, tag, phase_system, budget, deadline)
            attempts.append(attempt)
            if cert is not None and tag != "s-":
                verdict, cert, reason = _settled(tag, cert, s_cert)
                return ProofOutcome(verdict, cert, reason, tuple(attempts))
            # a weights search that found nothing leaves the clock to the
            # loop search after it, which logs the expiry as `deadline`
            if (cert is not None or method != "weights") and _expired(deadline):
                return timed_out()
            if cert is not None:
                if not isinstance(cert, LoopCertificate):
                    s_cert = cert
                break
    return ProofOutcome(
        "MAYBE", None, "no method conclusive within budget", tuple(attempts)
    )
