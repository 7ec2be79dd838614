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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

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


NatMatrix = tuple[tuple[int, ...], ...]
ArcEntry = Optional[int]  # None is minus infinity
ArcMatrix = tuple[tuple[ArcEntry, ...], ...]


@dataclass(frozen=True)
class NaturalMatrixCertificate:
    dimension: int
    interp: dict[str, NatMatrix]


@dataclass(frozen=True)
class ArcticMatrixCertificate:
    dimension: int
    interp: dict[str, ArcMatrix]


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


@dataclass(frozen=True)
class ProofOutcome:
    verdict: str  # "YES", "NO", or "MAYBE"
    certificate: Optional[Certificate] = None
    reason: str = ""
    attempts: tuple[Attempt, ...] = field(default_factory=tuple)


def trivial_verdict(system: RelSRS) -> Optional[ProofOutcome]:
    """Immediate verdicts that need no search.

    A strict rule with lhs = rhs loops in place; a strict rule with empty
    lhs re-applies inside its own output forever.  Empty R terminates
    relative to anything.
    """
    for i, rule in enumerate(system.rules):
        if not rule.strict:
            continue
        if rule.lhs == rule.rhs:
            cert = LoopCertificate(
                kind="mixed",
                start=rule.lhs,
                steps=(Step(i, 0),),
                left=(),
                right=(),
            )
            return ProofOutcome("NO", cert, reason="strict rule with lhs = rhs")
        if not rule.lhs:
            cert = LoopCertificate(
                kind="mixed",
                start=(),
                steps=(Step(i, 0),),
                left=(),
                right=rule.rhs,
            )
            return ProofOutcome("NO", cert, reason="strict rule with empty lhs")
    if not system.strict_rules:
        return ProofOutcome("YES", EmptyRCertificate(), reason="R is empty")
    return None


def _word_tokens(word: Word, system: RelSRS) -> list[str]:
    return [system.letters[c] for c in word]


def _tokens_word(tokens, system: RelSRS) -> Word:
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise CertificateFormatError("word must be a list of letter tokens")
    index = {name: i for i, name in enumerate(system.letters)}
    try:
        return tuple(index[t] for t in tokens)
    except KeyError as e:
        raise CertificateMismatchError(f"letter {e.args[0]!r} not in system alphabet") from None


def _nat_entry_out(x: int):
    return x


def _arc_entry_out(x: ArcEntry):
    return "-inf" if x is None else x


def _nat_entry_in(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise CertificateFormatError(f"natural matrix entry must be an integer, got {v!r}")
    if v < 0:
        raise CertificateFormatError(f"natural matrix entry must be non-negative, got {v}")
    return v


def _arc_entry_in(v) -> ArcEntry:
    if v == "-inf":
        return None
    if isinstance(v, bool) or not isinstance(v, int):
        raise CertificateFormatError(f'arctic matrix entry must be an integer or "-inf", got {v!r}')
    return v


def _matrix_out(m, entry_out) -> list:
    return [[entry_out(x) for x in row] for row in m]


def _matrix_in(data, dimension: int, entry_in):
    if not isinstance(data, list) or len(data) != dimension:
        raise CertificateFormatError(f"matrix must have {dimension} rows")
    rows = []
    for row in data:
        if not isinstance(row, list) or len(row) != dimension:
            raise CertificateFormatError(f"matrix row must have {dimension} entries")
        rows.append(tuple(entry_in(x) for x in row))
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
            or not isinstance(s.get("rule"), int)
            or not isinstance(s.get("position"), int)
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
    if isinstance(cert, NaturalMatrixCertificate):
        return {
            "type": "matrix-natural",
            "dimension": cert.dimension,
            "matrices": {
                name: _matrix_out(m, _nat_entry_out) for name, m in sorted(cert.interp.items())
            },
        }
    if isinstance(cert, ArcticMatrixCertificate):
        return {
            "type": "matrix-arctic",
            "dimension": cert.dimension,
            "matrices": {
                name: _matrix_out(m, _arc_entry_out) for name, m in sorted(cert.interp.items())
            },
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
                or not isinstance(rd.get("rule"), int)
                or rd.get("side") not in ("left", "right")
                or not isinstance(rd.get("offset"), int)
            ):
                raise CertificateFormatError("redex must have rule, side (left/right), offset")
            redex = EmittingRedex(rd["rule"], rd["side"], rd["offset"])
        return LoopCertificate(
            kind="mixed" if kind == "loop-mixed" else "emitting",
            start=_tokens_word(data.get("start"), system),
            steps=_steps_in(data.get("steps")),
            left=_tokens_word(data.get("left"), system),
            right=_tokens_word(data.get("right"), system),
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
    if kind in ("matrix-natural", "matrix-arctic"):
        dim = data.get("dimension")
        if not isinstance(dim, int) or dim < 1:
            raise CertificateFormatError("dimension must be a positive integer")
        raw = data.get("matrices")
        if not isinstance(raw, dict):
            raise CertificateFormatError("matrices must be an object keyed by letter")
        entry_in = _nat_entry_in if kind == "matrix-natural" else _arc_entry_in
        interp = {name: _matrix_in(m, dim, entry_in) for name, m in raw.items()}
        if kind == "matrix-natural":
            return NaturalMatrixCertificate(dim, interp)
        return ArcticMatrixCertificate(dim, interp)
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
