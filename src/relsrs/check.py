"""Re-checking certificates: the trust base.

Every YES and NO that relsrs prints rests on the functions here alone,
each returning a `CheckResult`.  They run no search: a loop certificate is
replayed, weights and matrix interpretations are checked rule by rule, and
a strictification composite checks each part against the system its role
names.  This module imports only `.core` and `.certificates`, so the
searches stay outside it.

Weights and matrices use exact arithmetic throughout.  The weight check
sums integers: with D the least common multiple of the weights'
denominators, every weight w = p/q becomes the integer D*w = p*(D/q), so
the scaled sum over a word is exactly D times its rational sum.  As D > 0,
scaling both sides of a comparison by D keeps > and >= as they were: the
integer sums decide exactly what the Fraction sums would.  A failure
prints the sums back as Fraction(sum, D), in lowest terms.

Arctic minus infinity is float("-inf") (certificates.NEG_INF), never a
sentinel integer, and every finite entry must be an int, so the max-plus
products stay exact: -inf is absorbing under + and neutral under max, a
sum or max of ints is an int and never becomes a float, no +inf arises
(so no nan either), and comparing an int with -inf is exact.  A word
maps to the product of its letter matrices in word order, the empty word
to the identity.  Natural letter matrices need corner entries (1,1) and
(d,d) at least 1; a strict rule needs entry-wise >= plus strict decrease
at the (1,d) corner.  Both corner requirements make the strict decrease
survive left and right contexts (C[1,1] >= 1 feeds the left product,
D[d,d] >= 1 the right).  Arctic letter matrices need a finite (1,1)
entry >= 0; strict decrease is entry-wise x >> y, i.e. x > y or
x = y = -inf.  One checker and one rule test serve both semirings, each
described by a `Semiring` record (certificates.NATURAL and
certificates.ARCTIC).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .certificates import (
    ArcticMatrixCertificate,
    Certificate,
    ComposeCertificate,
    EmptyRCertificate,
    LoopCertificate,
    NaturalMatrixCertificate,
    Semiring,
    WeightCertificate,
    is_int,
    matrix_semiring,
)
from .core import Derivation, RelSRS, ReplayError, Rule, Word, replay, s_as_strict, strictify


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


# every success is this one result; CheckResult is frozen, so sharing it is safe
_OK = CheckResult(True)


def certificate_verdict(cert: Certificate) -> str:
    """The verdict a certificate claims: NO for a loop, a composite's own
    verdict, YES for everything else."""
    if isinstance(cert, LoopCertificate):
        return "NO"
    if isinstance(cert, ComposeCertificate):
        return cert.verdict
    return "YES"


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
        return _OK
    if isinstance(cert, ComposeCertificate):
        return _verify_compose(cert, system)
    return CheckResult(False, f"unknown certificate object {type(cert).__name__}")


def _verify_compose(cert: ComposeCertificate, system: RelSRS) -> CheckResult:
    """Check each part against the system its role names, built for that
    part alone: S made strict for s-termination, the strictified system
    for the other two roles.  Parts are leaves: a composite part is
    rejected, so no check goes past one level."""
    roles_ok = set()
    for role, part in cert.parts:
        if isinstance(part, ComposeCertificate):
            sub = CheckResult(False, "a composite part must be a leaf, not a composite")
        elif role == "strictified-loop":
            if not isinstance(part, LoopCertificate) or part.kind != "mixed":
                sub = CheckResult(False, "strictified-loop part must be a mixed loop")
            else:
                sub = check_loop_certificate(part, strictify(system))
        elif role not in ("s-termination", "strictified-termination"):
            return CheckResult(False, f"unknown composite role {role!r}")
        elif certificate_verdict(part) != "YES":
            # a loop replays fine on the subsystem, but proves the opposite
            sub = CheckResult(False, "a termination part must be a YES certificate")
        elif role == "strictified-termination":
            sub = verify_certificate(part, strictify(system))
        elif isinstance(part, EmptyRCertificate):
            sub = CheckResult(False, "S is not empty") if system.relative_rules else _OK
        else:
            sub = verify_certificate(part, s_as_strict(system))
        if not sub:
            return CheckResult(False, f"part {role!r}: {sub.reason}")
        roles_ok.add(role)
    if cert.verdict == "YES":
        if "strictified-termination" not in roles_ok:
            return CheckResult(False, "YES composite needs a strictified-termination part")
        return _OK
    if cert.verdict == "NO":
        if not {"s-termination", "strictified-loop"} <= roles_ok:
            return CheckResult(
                False, "NO composite needs s-termination and strictified-loop parts"
            )
        return _OK
    return CheckResult(False, f"composite verdict must be YES or NO, got {cert.verdict!r}")


# ------------------------------------------------------------------ loops


def check_loop_certificate(cert: LoopCertificate, system: RelSRS) -> CheckResult:
    """Re-verify a loop certificate by replay; never raises on bad input."""
    if not isinstance(cert, LoopCertificate):
        return CheckResult(False, "not a loop certificate")
    if cert.kind not in ("mixed", "emitting"):
        return CheckResult(False, f"unknown loop kind {cert.kind!r}")
    if not cert.steps:
        return CheckResult(False, "loop must have at least one step")
    try:
        final = replay(Derivation(cert.start, cert.steps), system)
    except ReplayError as e:
        return CheckResult(False, f"replay failed: {e}")
    if final != cert.left + cert.start + cert.right:
        return CheckResult(
            False,
            f"final word {system.word_str(final)} does not match the claimed "
            f"split u.v.w = {system.word_str(cert.left)} . "
            f"{system.word_str(cert.start)} . {system.word_str(cert.right)}",
        )
    strict_step = any(system.rules[s.rule_index].strict for s in cert.steps)
    if cert.kind == "mixed":
        if not strict_step:
            return CheckResult(False, "mixed loop has no strict step")
        return _OK
    # emitting
    if strict_step:
        return CheckResult(False, "emitting loop must use relative steps only")
    if cert.redex is None:
        return CheckResult(False, "emitting loop needs a redex witness")
    r = cert.redex
    if not 0 <= r.rule_index < len(system.rules):
        return CheckResult(False, f"redex rule index {r.rule_index} out of range")
    rule = system.rules[r.rule_index]
    if not rule.strict:
        return CheckResult(False, "redex witness must name a strict rule")
    if r.side == "left":
        side = cert.left
    elif r.side == "right":
        side = cert.right
    else:
        return CheckResult(False, f"redex side must be left or right, got {r.side!r}")
    k = len(rule.lhs)
    if r.offset < 0 or r.offset + k > len(side):
        return CheckResult(False, "redex offset out of range")
    if side[r.offset : r.offset + k] != rule.lhs:
        return CheckResult(False, "strict lhs does not occur at the claimed offset")
    return _OK


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
            if w.numerator < 0:
                return CheckResult(False, f"negative weight for letter {name!r}")
            weights[i] = w
    # D * weight for the common denominator D: see the module docstring
    den = lcm(*(w.denominator for w in weights.values()))
    scaled = {i: w.numerator * (den // w.denominator) for i, w in weights.items()}.__getitem__
    for rule in system.rules:
        try:
            wl = sum(map(scaled, rule.lhs))
            wr = sum(map(scaled, rule.rhs))
        except KeyError as e:
            return CheckResult(False, f"unknown letter {system.letters[e.args[0]]!r}")
        if rule.strict:
            if not wl > wr:
                return CheckResult(
                    False,
                    f"strict rule {system.rule_str(rule)} does not decrease "
                    f"({Fraction(wl, den)} <= {Fraction(wr, den)})",
                )
        elif not wl >= wr:
            return CheckResult(
                False,
                f"relative rule {system.rule_str(rule)} increases "
                f"({Fraction(wl, den)} < {Fraction(wr, den)})",
            )
    return _OK


# ------------------------------------------------------ matrix interpretations


def _word_matrix(word: Word, mats: dict, semiring: Semiring, one):
    """The word's matrix; `one` is the d x d identity, the empty word's."""
    if not word:
        return one
    m = mats[word[0]]
    for c in word[1:]:
        m = semiring.mul(m, mats[c], len(one))
    return m


def _rule_fault(rule: Rule, mats: dict, semiring: Semiring, d: int, one):
    """The first entry where the rule's sides are out of order, as (i, j,
    lhs entry, rhs entry, whether the comparison was strict); None when the
    interpretation respects the rule.  `one` is the d x d identity."""
    lm = _word_matrix(rule.lhs, mats, semiring, one)
    rm = _word_matrix(rule.rhs, mats, semiring, one)
    strict = rule.strict and not semiring.corner_only
    cmp = semiring.strict if strict else operator.ge
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
    if not mats:  # only letterless rules can hold: I vs I has one verdict at every d
        d = 1
    one = semiring.identity(d)
    for rule in system.rules:
        for c in rule.lhs + rule.rhs:
            if c not in mats:
                return CheckResult(False, f"no matrix for letter {system.letters[c]!r}")
        fault = _rule_fault(rule, mats, semiring, d, one)
        if fault is not None:
            return CheckResult(False, semiring.rule_fault(system.rule_str(rule), *fault))
    return _OK
