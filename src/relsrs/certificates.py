"""Certificate values, proof outcomes, and their textual schema.

Every YES/NO verdict is backed by one of these certificate records, and
each record re-checks against the system without redoing any search.  The
schema is JSON: a top-level object with a `type` tag in {weights,
matrix-natural, matrix-arctic, loop-mixed, loop-emitting,
strictify-compose, empty-R}.  Words are token lists, steps are
{"rule": i, "position": p} objects, matrices are row-major lists with
"-inf" standing for minus infinity, weights are integers or "p/q" strings.
Matrix and weight maps are keyed by letter name, so a certificate can be
checked against any system that uses the same names.

The two matrix semirings are `Semiring` records, NATURAL and ARCTIC: their
arithmetic, order, letter conditions and entry codec.  Arctic minus
infinity is the arctic zero, NEG_INF = float("-inf"), in every matrix
held in memory; "-inf" is only its JSON spelling.  The checker and this
schema use all of it.  The matrix search takes only the identity, the
arctic zero, `corner_only` and the certificate class: it has its own
arithmetic and entry pool, and restates the letter conditions on rows.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Union

from .core import RelSRS, Step, Word


class CertificateFormatError(Exception):
    """Structurally malformed certificate data."""


class CertificateMismatchError(Exception):
    """Well-formed certificate that does not bind to the given system."""


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class EmittingRedex:
    """Occurrence of a strict rule's lhs inside the left or right context."""

    rule_index: int
    side: str  # "left" or "right"
    offset: int


@dataclass(frozen=True)
class LoopCertificate:
    kind: str  # "mixed" or "emitting"
    start: Word
    steps: tuple[Step, ...]
    left: Word
    right: Word
    redex: Optional[EmittingRedex] = None  # emitting only


@dataclass(frozen=True)
class WeightCertificate:
    weights: dict[str, Fraction]


NEG_INF = float("-inf")  # arctic minus infinity, the zero of max-plus

NatMatrix = tuple[tuple[int, ...], ...]
ArcMatrix = tuple[tuple[Union[int, float], ...], ...]  # ints and NEG_INF


@dataclass(frozen=True)
class NaturalMatrixCertificate:
    dimension: int
    interp: dict[str, NatMatrix]


@dataclass(frozen=True)
class ArcticMatrixCertificate:
    dimension: int
    interp: dict[str, ArcMatrix]


def is_int(v) -> bool:
    """An int that is not a bool (JSON true/false load as bool, a subclass of int)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _nat_mul(a: NatMatrix, b: NatMatrix, d: int) -> NatMatrix:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d)) for i in range(d)
    )


def _arc_mul(a: ArcMatrix, b: ArcMatrix, d: int) -> ArcMatrix:
    return tuple(
        tuple(max(a[i][k] + b[k][j] for k in range(d)) for j in range(d)) for i in range(d)
    )


def _arc_gg(x, y) -> bool:
    return x > y or y == NEG_INF


def _nat_letter_fault(m: NatMatrix, d: int) -> Optional[str]:
    if m[0][0] < 1:
        return f"has entry (1,1) = {m[0][0]} < 1"
    if m[d - 1][d - 1] < 1:
        return f"has entry ({d},{d}) = {m[d-1][d-1]} < 1"
    return None


def _arc_letter_fault(m: ArcMatrix, d: int) -> Optional[str]:
    if m[0][0] < 0:
        return "needs a finite entry (1,1) >= 0"
    return None


def _nat_rule_fault(rule: str, i: int, j: int, left, right, strict: bool) -> str:
    if strict:
        return f"strict rule {rule}: corner ({i+1},{j+1}) {left} <= {right}"
    return f"rule {rule}: entry ({i+1},{j+1}) {left} < {right}"


def _arc_rule_fault(rule: str, i: int, j: int, left, right, strict: bool) -> str:
    rel = ">>" if strict else ">="
    return f"rule {rule}: entry ({i+1},{j+1}) violates {rel} ({left} vs {right})"


@dataclass(frozen=True)
class Semiring:
    """A matrix semiring, with everything checking, search and the JSON
    schema need to know about it.

    A word maps to the product of its letter matrices, the empty word to
    the identity.  Every rule needs lhs >= rhs entry-wise; a strict rule
    needs `strict` at the (1,d) corner only when `corner_only`, else at
    every entry.
    """

    name: str  # the JSON type tag is matrix-<name>
    certificate: type
    zero: Union[int, float]
    one: int
    mul: Callable  # (a, b, d) -> the product of two d x d matrices
    strict: Callable[[object, object], bool]
    corner_only: bool
    rule_fault: Callable[..., str]  # (rule text, i, j, lhs entry, rhs entry, strict) -> reason
    letter_fault: Callable  # (m, d) -> why m may not interpret a letter, or None
    entry_ok: Callable[[object], bool]
    entries: str  # what entry_ok accepts, for error messages

    @property
    def tag(self) -> str:
        return f"matrix-{self.name}"

    def identity(self, d: int):
        return tuple(tuple(self.one if i == j else self.zero for j in range(d)) for i in range(d))


NATURAL = Semiring(
    name="natural",
    certificate=NaturalMatrixCertificate,
    zero=0,
    one=1,
    mul=_nat_mul,
    strict=operator.gt,
    corner_only=True,
    rule_fault=_nat_rule_fault,
    letter_fault=_nat_letter_fault,
    entry_ok=lambda x: is_int(x) and x >= 0,
    entries="a non-negative integer",
)

ARCTIC = Semiring(
    name="arctic",
    certificate=ArcticMatrixCertificate,
    zero=NEG_INF,
    one=0,
    mul=_arc_mul,
    strict=_arc_gg,
    corner_only=False,
    rule_fault=_arc_rule_fault,
    letter_fault=_arc_letter_fault,
    entry_ok=lambda x: x == NEG_INF or is_int(x),
    entries='an integer or "-inf"',
)

SEMIRINGS = (NATURAL, ARCTIC)


def matrix_semiring(cert) -> Optional[Semiring]:
    """The semiring of a matrix certificate, None for any other object."""
    return next((s for s in SEMIRINGS if isinstance(cert, s.certificate)), None)


@dataclass(frozen=True)
class EmptyRCertificate:
    """SN(R/S) holds vacuously: R is empty, so every derivation has zero strict steps."""


Certificate = Union[
    LoopCertificate,
    WeightCertificate,
    NaturalMatrixCertificate,
    ArcticMatrixCertificate,
    EmptyRCertificate,
    "ComposeCertificate",
]


@dataclass(frozen=True)
class ComposeCertificate:
    """Strictification strategy trace: named parts that each re-check on their own."""

    verdict: str  # "YES" or "NO"
    parts: tuple[tuple[str, Certificate], ...]  # (role, certificate)


@dataclass(frozen=True)
class Attempt:
    method: str
    outcome: str
    detail: str = ""


@dataclass
class SearchReport:
    """Handed to a search to learn why it came back empty.  The search sets
    `stop` where it gives up: "cap" when its node budget or assignment cap
    cut it short (the weight search counts its nodes against the matrix
    assignment cap), "deadline" when the monotonic-clock deadline did.  It
    stays "none" when the search ran to the end of its space.  Every search
    adds what it counted against its cap to `nodes`, so a report handed to
    several searches, or to the matrix search's several dimensions, holds
    their sum."""

    stop: str = "none"
    nodes: int = 0


def give_up(report: Optional[SearchReport], stop: str) -> None:
    """Record in the report, if any, why a search stops; None, its result."""
    if report is not None:
        report.stop = stop


@dataclass(frozen=True)
class ProofOutcome:
    verdict: str  # "YES", "NO", or "MAYBE"
    certificate: Optional[Certificate] = None
    reason: str = ""
    attempts: tuple[Attempt, ...] = field(default_factory=tuple)


def trivial_verdict(system: RelSRS) -> Optional[ProofOutcome]:
    """Immediate verdicts that need no search.

    A strict rule with lhs = rhs loops in place; a strict rule with empty
    lhs re-applies inside its own output forever.  Either way the lhs is a
    prefix of the rhs, so one step from the lhs is the loop, with the rest
    of the rhs as its right flank.  Empty R terminates relative to anything.
    """
    for i, rule in enumerate(system.rules):
        same = rule.lhs == rule.rhs
        if rule.strict and (same or not rule.lhs):
            cert = LoopCertificate("mixed", rule.lhs, (Step(i, 0),), (), rule.rhs[len(rule.lhs) :])
            reason = "strict rule with lhs = rhs" if same else "strict rule with empty lhs"
            return ProofOutcome("NO", cert, reason=reason)
    if not system.strict_rules:
        return ProofOutcome("YES", EmptyRCertificate(), reason="R is empty")
    return None


def _word_tokens(word: Word, system: RelSRS) -> list[str]:
    return [system.letters[c] for c in word]


def _tokens_word(tokens, index: dict[str, int]) -> Word:
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise CertificateFormatError("word must be a list of letter tokens")
    try:
        return tuple(index[t] for t in tokens)
    except KeyError as e:
        raise CertificateMismatchError(f"letter {e.args[0]!r} not in system alphabet") from None


def _entry_in(v, semiring: Semiring):
    # json.loads reads the bare literal -Infinity as a float: no float is an entry
    x = NEG_INF if v == "-inf" else v
    if isinstance(v, float) or not semiring.entry_ok(x):
        raise CertificateFormatError(
            f"{semiring.name} matrix entry must be {semiring.entries}, got {v!r}"
        )
    return x


def _matrix_out(m) -> list:
    return [["-inf" if x == NEG_INF else x for x in row] for row in m]


def _matrix_in(data, dimension: int, semiring: Semiring):
    if not isinstance(data, list) or len(data) != dimension:
        raise CertificateFormatError(f"matrix must have {dimension} rows")
    rows = []
    for row in data:
        if not isinstance(row, list) or len(row) != dimension:
            raise CertificateFormatError(f"matrix row must have {dimension} entries")
        rows.append(tuple(_entry_in(x, semiring) for x in row))
    return tuple(rows)


def _steps_out(steps: tuple[Step, ...]) -> list:
    return [{"rule": s.rule_index, "position": s.position} for s in steps]


def _steps_in(data) -> tuple[Step, ...]:
    if not isinstance(data, list):
        raise CertificateFormatError("steps must be a list")
    out = []
    for s in data:
        if (
            not isinstance(s, dict)
            or not is_int(s.get("rule"))
            or not is_int(s.get("position"))
        ):
            raise CertificateFormatError('each step must be {"rule": int, "position": int}')
        out.append(Step(s["rule"], s["position"]))
    return tuple(out)


def serialize_certificate(cert: Certificate, system: RelSRS) -> dict:
    if isinstance(cert, LoopCertificate):
        data = {
            "type": "loop-mixed" if cert.kind == "mixed" else "loop-emitting",
            "start": _word_tokens(cert.start, system),
            "steps": _steps_out(cert.steps),
            "left": _word_tokens(cert.left, system),
            "right": _word_tokens(cert.right, system),
        }
        if cert.redex is not None:
            data["redex"] = {
                "rule": cert.redex.rule_index,
                "side": cert.redex.side,
                "offset": cert.redex.offset,
            }
        return data
    if isinstance(cert, WeightCertificate):
        out = {}
        for name, w in sorted(cert.weights.items()):
            frac = Fraction(w)
            out[name] = int(frac) if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"
        return {"type": "weights", "weights": out}
    semiring = matrix_semiring(cert)
    if semiring is not None:
        return {
            "type": semiring.tag,
            "dimension": cert.dimension,
            "matrices": {name: _matrix_out(m) for name, m in sorted(cert.interp.items())},
        }
    if isinstance(cert, EmptyRCertificate):
        return {"type": "empty-R"}
    if isinstance(cert, ComposeCertificate):
        return {
            "type": "strictify-compose",
            "verdict": cert.verdict,
            "parts": [
                {"role": role, "certificate": serialize_certificate(part, system)}
                for role, part in cert.parts
            ],
        }
    raise TypeError(f"unknown certificate object {cert!r}")


def parse_certificate(data, system: RelSRS) -> Certificate:
    if not isinstance(data, dict):
        raise CertificateFormatError("certificate must be a JSON object")
    kind = data.get("type")
    if kind in ("loop-mixed", "loop-emitting"):
        redex = None
        if "redex" in data:
            rd = data["redex"]
            if (
                not isinstance(rd, dict)
                or not is_int(rd.get("rule"))
                or rd.get("side") not in ("left", "right")
                or not is_int(rd.get("offset"))
            ):
                raise CertificateFormatError("redex must have rule, side (left/right), offset")
            redex = EmittingRedex(rd["rule"], rd["side"], rd["offset"])
        index = {name: i for i, name in enumerate(system.letters)}
        return LoopCertificate(
            kind="mixed" if kind == "loop-mixed" else "emitting",
            start=_tokens_word(data.get("start"), index),
            steps=_steps_in(data.get("steps")),
            left=_tokens_word(data.get("left"), index),
            right=_tokens_word(data.get("right"), index),
            redex=redex,
        )
    if kind == "weights":
        raw = data.get("weights")
        if not isinstance(raw, dict):
            raise CertificateFormatError("weights must be an object mapping letters to values")
        weights: dict[str, Fraction] = {}
        for name, v in raw.items():
            if isinstance(v, bool):
                raise CertificateFormatError(f"weight for {name!r} must be a number")
            if isinstance(v, int):
                weights[name] = Fraction(v)
            elif isinstance(v, str):
                try:
                    weights[name] = Fraction(v)
                except (ValueError, ZeroDivisionError):
                    raise CertificateFormatError(f"bad weight {v!r} for {name!r}") from None
            else:
                raise CertificateFormatError(f"weight for {name!r} must be int or p/q string")
            if weights[name] < 0:
                raise CertificateFormatError(f"weight for {name!r} must be non-negative")
        return WeightCertificate(weights)
    semiring = next((s for s in SEMIRINGS if s.tag == kind), None)
    if semiring is not None:
        dim = data.get("dimension")
        if not is_int(dim) or dim < 1:
            raise CertificateFormatError("dimension must be a positive integer")
        raw = data.get("matrices")
        if not isinstance(raw, dict):
            raise CertificateFormatError("matrices must be an object keyed by letter")
        return semiring.certificate(
            dim, {name: _matrix_in(m, dim, semiring) for name, m in raw.items()}
        )
    if kind == "empty-R":
        return EmptyRCertificate()
    if kind == "strictify-compose":
        verdict = data.get("verdict")
        if verdict not in ("YES", "NO"):
            raise CertificateFormatError("compose verdict must be YES or NO")
        raw = data.get("parts")
        if not isinstance(raw, list) or not raw:
            raise CertificateFormatError("compose parts must be a non-empty list")
        parts = []
        for p in raw:
            if not isinstance(p, dict) or not isinstance(p.get("role"), str):
                raise CertificateFormatError('each part must be {"role": ..., "certificate": ...}')
            parts.append((p["role"], parse_certificate(p.get("certificate"), system)))
        return ComposeCertificate(verdict, tuple(parts))
    raise CertificateFormatError(f"unknown certificate type {kind!r}")
