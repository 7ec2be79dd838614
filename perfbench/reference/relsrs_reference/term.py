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
entry-wise x >> y, i.e. x > y or x = y = -inf.

prove() runs a fixed method order, so outcomes are deterministic for a
given budget: trivial verdicts, then the strictification strategy (decide
SN(S) first; with SN(S) in hand, a loop of the strictified system refutes
and a termination proof of it confirms), then the direct relative methods.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .certificates import (
    ArcMatrix,
    ArcticMatrixCertificate,
    Attempt,
    Certificate,
    CheckResult,
    ComposeCertificate,
    EmptyRCertificate,
    LoopCertificate,
    NatMatrix,
    NaturalMatrixCertificate,
    ProofOutcome,
    WeightCertificate,
    trivial_verdict,
)
from .core import RelSRS, Rule, Word, strictify
from .nonterm import check_loop_certificate, search_emitting_loop, search_mixed_loop


def _used_letters(system: RelSRS) -> list[int]:
    used = set()
    for rule in system.rules:
        used.update(rule.lhs)
        used.update(rule.rhs)
    return sorted(used)


# ---------------------------------------------------------------- weights


def check_weights(cert: WeightCertificate, system: RelSRS) -> CheckResult:
    if not isinstance(cert, WeightCertificate):
        return CheckResult(False, "not a weight certificate")
    weights: dict[int, Fraction] = {}
    for i, name in enumerate(system.letters):
        if name in cert.weights:
            w = Fraction(cert.weights[name])
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
    """Exhaustive integer weights 0..max_weight over the letters used in rules."""
    used = _used_letters(system)
    # the weight condition only sees per-rule letter count differences
    deltas = []
    for rule in system.rules:
        d = {c: 0 for c in used}
        for c in rule.lhs:
            d[c] += 1
        for c in rule.rhs:
            d[c] -= 1
        deltas.append((rule.strict, [d[c] for c in used]))
    for strict, delta in deltas:
        if strict and not any(delta):
            return None  # lhs and rhs have equal counts, no weights can work
    for vec in product(range(max_weight + 1), repeat=len(used)):
        ok = True
        for strict, delta in deltas:
            total = sum(w * x for w, x in zip(vec, delta))
            if total < 0 or (strict and total == 0):
                ok = False
                break
        if ok:
            cert = WeightCertificate(
                {system.letters[c]: Fraction(w) for c, w in zip(used, vec)}
            )
            return cert
    return None


# ------------------------------------------------------- natural matrices


def _nat_identity(d: int) -> NatMatrix:
    return tuple(tuple(int(i == j) for j in range(d)) for i in range(d))


def _nat_mul(a: NatMatrix, b: NatMatrix, d: int) -> NatMatrix:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d)) for i in range(d)
    )


def _nat_word(word: Word, mats: dict[int, NatMatrix], d: int) -> NatMatrix:
    m = _nat_identity(d)
    for c in word:
        m = _nat_mul(m, mats[c], d)
    return m


def check_matrix_natural(cert: NaturalMatrixCertificate, system: RelSRS) -> CheckResult:
    if not isinstance(cert, NaturalMatrixCertificate):
        return CheckResult(False, "not a natural matrix certificate")
    d = cert.dimension
    if not isinstance(d, int) or d < 1:
        return CheckResult(False, "dimension must be a positive integer")
    mats: dict[int, NatMatrix] = {}
    for i, name in enumerate(system.letters):
        if name not in cert.interp:
            continue
        m = cert.interp[name]
        if len(m) != d or any(len(row) != d for row in m):
            return CheckResult(False, f"matrix for {name!r} is not {d}x{d}")
        for row in m:
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool) or x < 0:
                    return CheckResult(False, f"matrix for {name!r} has a bad entry {x!r}")
        if m[0][0] < 1:
            return CheckResult(False, f"matrix for {name!r} has entry (1,1) = {m[0][0]} < 1")
        if m[d - 1][d - 1] < 1:
            return CheckResult(
                False, f"matrix for {name!r} has entry ({d},{d}) = {m[d-1][d-1]} < 1"
            )
        mats[i] = m
    for rule in system.rules:
        for c in rule.lhs + rule.rhs:
            if c not in mats:
                return CheckResult(False, f"no matrix for letter {system.letters[c]!r}")
        lm = _nat_word(rule.lhs, mats, d)
        rm = _nat_word(rule.rhs, mats, d)
        for i in range(d):
            for j in range(d):
                if lm[i][j] < rm[i][j]:
                    return CheckResult(
                        False,
                        f"rule {system.rule_str(rule)}: entry ({i+1},{j+1}) "
                        f"{lm[i][j]} < {rm[i][j]}",
                    )
        if rule.strict and not lm[0][d - 1] > rm[0][d - 1]:
            return CheckResult(
                False,
                f"strict rule {system.rule_str(rule)}: corner (1,{d}) "
                f"{lm[0][d-1]} <= {rm[0][d-1]}",
            )
    return CheckResult(True)


# -------------------------------------------------------- arctic matrices


def _arc_identity(d: int) -> ArcMatrix:
    return tuple(tuple(0 if i == j else None for j in range(d)) for i in range(d))


def _arc_mul(a: ArcMatrix, b: ArcMatrix, d: int) -> ArcMatrix:
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            best = None
            for k in range(d):
                x, y = a[i][k], b[k][j]
                if x is None or y is None:
                    continue
                s = x + y
                if best is None or s > best:
                    best = s
            row.append(best)
        out.append(tuple(row))
    return tuple(out)


def _arc_word(word: Word, mats: dict[int, ArcMatrix], d: int) -> ArcMatrix:
    m = _arc_identity(d)
    for c in word:
        m = _arc_mul(m, mats[c], d)
    return m


def _arc_ge(x, y) -> bool:
    return y is None or (x is not None and x >= y)


def _arc_gg(x, y) -> bool:
    if x is None:
        return y is None
    return y is None or x > y


def check_matrix_arctic(cert: ArcticMatrixCertificate, system: RelSRS) -> CheckResult:
    if not isinstance(cert, ArcticMatrixCertificate):
        return CheckResult(False, "not an arctic matrix certificate")
    d = cert.dimension
    if not isinstance(d, int) or d < 1:
        return CheckResult(False, "dimension must be a positive integer")
    mats: dict[int, ArcMatrix] = {}
    for i, name in enumerate(system.letters):
        if name not in cert.interp:
            continue
        m = cert.interp[name]
        if len(m) != d or any(len(row) != d for row in m):
            return CheckResult(False, f"matrix for {name!r} is not {d}x{d}")
        for row in m:
            for x in row:
                if x is not None and (not isinstance(x, int) or isinstance(x, bool)):
                    return CheckResult(False, f"matrix for {name!r} has a bad entry {x!r}")
        if m[0][0] is None or m[0][0] < 0:
            return CheckResult(
                False, f"matrix for {name!r} needs a finite entry (1,1) >= 0"
            )
        mats[i] = m
    for rule in system.rules:
        for c in rule.lhs + rule.rhs:
            if c not in mats:
                return CheckResult(False, f"no matrix for letter {system.letters[c]!r}")
        lm = _arc_word(rule.lhs, mats, d)
        rm = _arc_word(rule.rhs, mats, d)
        cmp = _arc_gg if rule.strict else _arc_ge
        rel = ">>" if rule.strict else ">="
        for i in range(d):
            for j in range(d):
                if not cmp(lm[i][j], rm[i][j]):
                    return CheckResult(
                        False,
                        f"rule {system.rule_str(rule)}: entry ({i+1},{j+1}) "
                        f"violates {rel} ({lm[i][j]} vs {rm[i][j]})",
                    )
    return CheckResult(True)


# ----------------------------------------------------------- matrix search


def _nat_candidates(d: int, max_entry: int) -> list[NatMatrix]:
    out = []
    for cells in product(range(max_entry + 1), repeat=d * d):
        if cells[0] < 1 or cells[-1] < 1:
            continue  # both diagonal corners must be >= 1
        out.append(tuple(tuple(cells[i * d : (i + 1) * d]) for i in range(d)))
    return out


def _arc_candidates(d: int, max_entry: int) -> list[ArcMatrix]:
    pool = [None] + list(range(-1, max_entry + 1))
    out = []
    for cells in product(pool, repeat=d * d):
        if cells[0] is None or cells[0] < 0:
            continue
        out.append(tuple(tuple(cells[i * d : (i + 1) * d]) for i in range(d)))
    return out


def _check_rule_mats(rule: Rule, mats, d: int, semiring: str) -> bool:
    if semiring == "natural":
        lm = _nat_word(rule.lhs, mats, d)
        rm = _nat_word(rule.rhs, mats, d)
        if any(lm[i][j] < rm[i][j] for i in range(d) for j in range(d)):
            return False
        return not rule.strict or lm[0][d - 1] > rm[0][d - 1]
    lm = _arc_word(rule.lhs, mats, d)
    rm = _arc_word(rule.rhs, mats, d)
    cmp = _arc_gg if rule.strict else _arc_ge
    return all(cmp(lm[i][j], rm[i][j]) for i in range(d) for j in range(d))


class _SearchCap(Exception):
    pass


def _exhaustive_matrix_search(
    system: RelSRS, semiring: str, d: int, max_entry: int, cap: int
) -> Optional[dict[int, NatMatrix | ArcMatrix]]:
    used = _used_letters(system)
    candidates = _nat_candidates(d, max_entry) if semiring == "natural" else _arc_candidates(d, max_entry)
    # a rule becomes checkable once all its letters are assigned; checking
    # at the earliest such depth prunes the assignment tree hard
    position = {c: i for i, c in enumerate(used)}
    ready: list[list[Rule]] = [[] for _ in used]
    for rule in system.rules:
        letters = set(rule.lhs) | set(rule.rhs)
        if not letters:
            if not _check_rule_mats(rule, {}, d, semiring):
                return None
            continue
        ready[max(position[c] for c in letters)].append(rule)
    mats: dict[int, NatMatrix | ArcMatrix] = {}
    visited = 0

    def rec(level: int):
        nonlocal visited
        if level == len(used):
            return dict(mats)
        for m in candidates:
            visited += 1
            if visited > cap:
                raise _SearchCap()
            mats[used[level]] = m
            if all(_check_rule_mats(r, mats, d, semiring) for r in ready[level]):
                found = rec(level + 1)
                if found is not None:
                    return found
        mats.pop(used[level], None)  # candidates may be empty
        return None

    try:
        return rec(0)
    except _SearchCap:
        return None


def _random_matrix_search(
    system: RelSRS, semiring: str, d: int, max_entry: int, trials: int, rng: random.Random
) -> Optional[dict[int, NatMatrix | ArcMatrix]]:
    used = _used_letters(system)

    def draw_natural() -> NatMatrix:
        rows = [[rng.randint(0, max_entry) for _ in range(d)] for _ in range(d)]
        rows[0][0] = max(1, rows[0][0])
        rows[d - 1][d - 1] = max(1, rows[d - 1][d - 1])
        return tuple(tuple(r) for r in rows)

    def draw_arctic() -> ArcMatrix:
        rows = []
        for i in range(d):
            row = []
            for j in range(d):
                v = rng.randint(-3, max_entry)
                row.append(None if v < -1 else v)
            rows.append(row)
        if rows[0][0] is None or rows[0][0] < 0:
            rows[0][0] = rng.randint(0, max_entry)
        return tuple(tuple(r) for r in rows)

    draw = draw_natural if semiring == "natural" else draw_arctic
    for _ in range(trials):
        mats = {c: draw() for c in used}
        if all(_check_rule_mats(r, mats, d, semiring) for r in system.rules):
            return mats
    return None


def search_matrix(
    system: RelSRS,
    semiring: str,
    max_dim: int = 2,
    max_entry: int = 2,
    *,
    random_trials: int = 10_000,
    assignment_cap: int = 500_000,
    seed: int = 0,
) -> Optional[NaturalMatrixCertificate | ArcticMatrixCertificate]:
    """Bounded certificate search: exhaustive (with pruning) for d <= 2,
    seeded random sampling for d >= 3.  Best-effort; None is not a proof
    of absence."""
    if semiring not in ("natural", "arctic"):
        raise ValueError(f"semiring must be natural or arctic, got {semiring!r}")

    def to_cert(mats, d):
        interp = {system.letters[c]: m for c, m in mats.items()}
        if semiring == "natural":
            return NaturalMatrixCertificate(d, interp)
        return ArcticMatrixCertificate(d, interp)

    for d in range(1, min(max_dim, 2) + 1):
        mats = _exhaustive_matrix_search(system, semiring, d, max_entry, assignment_cap)
        if mats is not None:
            return to_cert(mats, d)
    rng = random.Random(seed)
    for d in range(3, max_dim + 1):
        mats = _random_matrix_search(system, semiring, d, max_entry, random_trials, rng)
        if mats is not None:
            return to_cert(mats, d)
    return None


# ------------------------------------------------------------------ prove


@dataclass(frozen=True)
class ProveBudget:
    max_weight: int = 16
    # exhaustive matrix search up to dim 2, randomized trials at dim 3
    matrix_max_dim: int = 3
    matrix_max_entry: int = 2
    matrix_random_trials: int = 10_000
    matrix_assignment_cap: int = 500_000
    loop_max_word_len: int = 12
    loop_max_steps: int = 40
    loop_max_start_len: int = 6
    loop_node_budget: int = 100_000
    emit_max_word_len: int = 10
    emit_max_steps: int = 20
    emit_max_start_len: int = 5
    emit_node_budget: int = 50_000
    # cheap bounds for refuting SN(S) before trying to prove it
    sloop_max_word_len: int = 8
    sloop_max_steps: int = 10
    sloop_max_start_len: int = 4
    sloop_node_budget: int = 20_000
    seed: int = 0


SWEEP_BUDGET = ProveBudget(
    max_weight=8,
    matrix_max_dim=2,
    matrix_max_entry=2,
    matrix_random_trials=0,
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


def _termination_methods(
    system: RelSRS,
    budget: ProveBudget,
    tag: str,
    attempts: list,
    deadline: Optional[float] = None,
):
    """Weights, then natural, then arctic matrices, on an arbitrary system."""
    w = search_weights(system, budget.max_weight)
    attempts.append(Attempt(f"{tag}weights", "found" if w else "none", f"max {budget.max_weight}"))
    if w is not None:
        return w
    for semiring in ("natural", "arctic"):
        if _expired(deadline):
            return None
        cert = search_matrix(
            system,
            semiring,
            budget.matrix_max_dim,
            budget.matrix_max_entry,
            random_trials=budget.matrix_random_trials,
            assignment_cap=budget.matrix_assignment_cap,
            seed=budget.seed,
        )
        attempts.append(
            Attempt(
                f"{tag}matrix-{semiring}",
                "found" if cert else "none",
                f"dim <= {budget.matrix_max_dim}, entries <= {budget.matrix_max_entry}",
            )
        )
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

    rel = system.relative_rules
    s_system = RelSRS(system.letters, tuple(Rule(r.lhs, r.rhs, True) for r in rel))

    # 1) decide SN(S): cheap loop refutation first, then termination proofs
    s_cert: Optional[Certificate] = None
    if not rel:
        s_cert = EmptyRCertificate()
        attempts.append(Attempt("s-termination", "trivial", "S is empty"))
    else:
        s_loop = search_mixed_loop(
            s_system,
            budget.sloop_max_word_len,
            budget.sloop_max_steps,
            max_start_len=budget.sloop_max_start_len,
            node_budget=budget.sloop_node_budget,
        )
        if s_loop is not None:
            attempts.append(Attempt("s-loop", "found", "S alone does not terminate"))
        else:
            attempts.append(Attempt("s-loop", "none", ""))
            s_cert = _termination_methods(s_system, budget, "s-", attempts, deadline)
    if _expired(deadline):
        return timed_out()

    # 2) strictification strategy, available once SN(S) is settled positively
    if s_cert is not None:
        stric = strictify(system)
        loop = search_mixed_loop(
            stric,
            budget.loop_max_word_len,
            budget.loop_max_steps,
            max_start_len=budget.loop_max_start_len,
            node_budget=budget.loop_node_budget,
        )
        attempts.append(Attempt("strictified-loop", "found" if loop else "none", ""))
        if loop is not None:
            cert = ComposeCertificate(
                "NO", (("s-termination", s_cert), ("strictified-loop", loop))
            )
            return ProofOutcome(
                "NO", cert, "loop of R union S while S terminates", tuple(attempts)
            )
        t_cert = _termination_methods(stric, budget, "strictified-", attempts, deadline)
        if t_cert is not None:
            cert = ComposeCertificate("YES", (("strictified-termination", t_cert),))
            return ProofOutcome("YES", cert, "R union S terminates", tuple(attempts))
    if _expired(deadline):
        return timed_out()

    # 3) direct relative methods
    w = search_weights(system, budget.max_weight)
    attempts.append(Attempt("weights", "found" if w else "none", f"max {budget.max_weight}"))
    if w is not None:
        return ProofOutcome("YES", w, "weight certificate", tuple(attempts))
    loop = search_mixed_loop(
        system,
        budget.loop_max_word_len,
        budget.loop_max_steps,
        max_start_len=budget.loop_max_start_len,
        node_budget=budget.loop_node_budget,
    )
    attempts.append(Attempt("mixed-loop", "found" if loop else "none", ""))
    if loop is not None:
        return ProofOutcome("NO", loop, "mixed loop", tuple(attempts))
    if s_cert is None:
        # an emitting loop is an S-only loop, impossible under proven SN(S)
        em = search_emitting_loop(
            system,
            budget.emit_max_word_len,
            budget.emit_max_steps,
            max_start_len=budget.emit_max_start_len,
            node_budget=budget.emit_node_budget,
        )
        attempts.append(Attempt("emitting-loop", "found" if em else "none", ""))
        if em is not None:
            return ProofOutcome("NO", em, "emitting loop", tuple(attempts))
    for semiring in ("natural", "arctic"):
        if _expired(deadline):
            return timed_out()
        cert = search_matrix(
            system,
            semiring,
            budget.matrix_max_dim,
            budget.matrix_max_entry,
            random_trials=budget.matrix_random_trials,
            assignment_cap=budget.matrix_assignment_cap,
            seed=budget.seed,
        )
        attempts.append(
            Attempt(
                f"matrix-{semiring}",
                "found" if cert else "none",
                f"dim <= {budget.matrix_max_dim}, entries <= {budget.matrix_max_entry}",
            )
        )
        if cert is not None:
            return ProofOutcome("YES", cert, f"{semiring} matrix certificate", tuple(attempts))
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
    if isinstance(cert, NaturalMatrixCertificate):
        return check_matrix_natural(cert, system)
    if isinstance(cert, ArcticMatrixCertificate):
        return check_matrix_arctic(cert, system)
    if isinstance(cert, EmptyRCertificate):
        if system.strict_rules:
            return CheckResult(False, "system has strict rules, R is not empty")
        return CheckResult(True)
    if isinstance(cert, ComposeCertificate):
        return _verify_compose(cert, system)
    return CheckResult(False, f"unknown certificate object {type(cert).__name__}")


def _verify_compose(cert: ComposeCertificate, system: RelSRS) -> CheckResult:
    s_system = RelSRS(
        system.letters,
        tuple(Rule(r.lhs, r.rhs, True) for r in system.relative_rules),
    )
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
