"""Grid-checked ordered interpretations on N and N x N.

Three built-in fixtures, each a concrete interpretation with the order
pair it is meant for.  A word denotes the composition of its letter
functions applied right to left (the rightmost letter acts first), the
empty word the identity.  All properties are verified exhaustively over
the finite grid {0..B} or {0..B}^2; a pass means "verified up to B",
never a full proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import RelSRS, Word


@dataclass(frozen=True)
class GridAlgebra:
    name: str
    domain: str  # "N" or "NxN"
    letters: dict[str, Callable]
    strict_order: Callable  # strict_order(p, q): p strictly above q
    weak_order: Callable
    check_model: bool
    check_monotone: bool
    check_compat: bool


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    counterexample: str = ""


@dataclass(frozen=True)
class GridReport:
    algebra: str
    bound: int
    results: tuple[PropertyResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)


def _monus(x: int) -> int:
    return x if x > 0 else 0


FIXTURE_M = GridAlgebra(
    name="M",
    domain="N",
    letters={
        "a": lambda y: _monus(y - 1),
        "b": lambda y: y + 1,
        "c": lambda y: 0,
    },
    strict_order=lambda p, q: p > q,
    weak_order=lambda p, q: p >= q,
    check_model=True,
    check_monotone=False,
    check_compat=False,
)


def _i_a(p):
    x, y = p
    return (x, y - 1) if y > 0 else (x + 1, 0)


def _i_b(p):
    x, y = p
    return (x, y + 1)


def _i_c(p):
    x, y = p
    return (x, 0)


_I_LETTERS = {"a": _i_a, "b": _i_b, "c": _i_c}

# first component drops strictly, second is pinned; relative rules must
# preserve the point exactly
FIXTURE_I_EQ = GridAlgebra(
    name="I-eq",
    domain="NxN",
    letters=_I_LETTERS,
    strict_order=lambda p, q: p[0] > q[0] and p[1] == q[1],
    weak_order=lambda p, q: p == q,
    check_model=False,
    check_monotone=True,
    check_compat=True,
)

# quasi-order pair on the same interpretation: relative rules may move the
# point as long as both components and their difference never go up
FIXTURE_I_QUASI = GridAlgebra(
    name="I-quasi",
    domain="NxN",
    letters=_I_LETTERS,
    strict_order=lambda p, q: p[0] > q[0] and p[1] >= q[1] and p[0] - p[1] > q[0] - q[1],
    weak_order=lambda p, q: p[0] >= q[0] and p[1] >= q[1] and p[0] - p[1] >= q[0] - q[1],
    check_model=False,
    check_monotone=True,
    check_compat=True,
)

FIXTURES = {f.name: f for f in (FIXTURE_M, FIXTURE_I_EQ, FIXTURE_I_QUASI)}


def _grid_points(domain: str, bound: int):
    if domain == "N":
        return [y for y in range(bound + 1)]
    return [(x, y) for x in range(bound + 1) for y in range(bound + 1)]


def _word_fn(word: Word, system: RelSRS, fns: dict[str, Callable]) -> Callable:
    chain = [fns[system.letters[c]] for c in word]

    def apply(p):
        for f in reversed(chain):
            p = f(p)
        return p

    return apply


def check_grid_algebra(fixture: GridAlgebra, system: RelSRS, bound: int) -> GridReport:
    """Exhaustively verify the fixture's claimed properties over the grid.

    Reports model agreement, letter monotonicity w.r.t. the strict order,
    and rule compatibility (strict rules decrease strictly, relative rules
    weakly), each with the first counterexample on failure.
    """
    results: list[PropertyResult] = []
    missing = sorted(
        {system.letters[c] for r in system.rules for c in r.lhs + r.rhs}
        - set(fixture.letters)
    )
    if missing:
        return GridReport(
            fixture.name,
            bound,
            (PropertyResult("letters", False, f"no interpretation for {missing}"),),
        )
    points = _grid_points(fixture.domain, bound)
    # each rule with its two sides as functions on the grid
    sides = [
        (rule, _word_fn(rule.lhs, system, fixture.letters),
         _word_fn(rule.rhs, system, fixture.letters))
        for rule in system.rules
    ]

    def record(name: str, counterexamples) -> None:
        """A property holds when it has no counterexample; report the first."""
        bad = next(counterexamples, None)
        results.append(PropertyResult(name, bad is None, bad or ""))

    if fixture.check_model:
        record("model", (
            f"{system.rule_str(rule)} at {p}: {lf(p)} != {rf(p)}"
            for rule, lf, rf in sides for p in points if lf(p) != rf(p)
        ))

    if fixture.check_monotone:
        above = fixture.strict_order
        record("monotonicity", (
            f"letter {name} at {p} > {q}: {f(p)} not > {f(q)}"
            for name, f in sorted(fixture.letters.items()) for p in points for q in points
            if above(p, q) and not above(f(p), f(q))
        ))

    if fixture.check_compat:
        record("compatibility", (
            f"{system.rule_str(rule)} at {p}: {lf(p)} not {'>' if rule.strict else '>='} {rf(p)}"
            for rule, lf, rf in sides for p in points
            if not (fixture.strict_order if rule.strict else fixture.weak_order)(lf(p), rf(p))
        ))

    return GridReport(fixture.name, bound, tuple(results))
