"""Words, rules, relative string rewriting systems, and single/multi-step rewriting.

Letters are small integer indices into a system-level alphabet of display
names; words are plain tuples of those indices.  A relative SRS carries two
kinds of rules: strict rules (the R part, counted toward non-termination)
and relative rules (the S part, not counted).
"""

from __future__ import annotations

from dataclasses import dataclass

Word = tuple[int, ...]

EPSILON: Word = ()
ARROW_STRICT = "->"  # how TPDB text and rule_str spell a strict rule's arrow
ARROW_RELATIVE = "->="  # and a relative rule's


class RewriteError(Exception):
    """A rule application that does not match."""


class ReplayError(RewriteError):
    """A derivation whose step at `step_index` does not apply."""

    def __init__(self, step_index: int, message: str):
        super().__init__(f"step {step_index}: {message}")
        self.step_index = step_index


@dataclass(frozen=True)
class Rule:
    lhs: Word
    rhs: Word
    strict: bool

    @property
    def size(self) -> int:
        return len(self.lhs) + len(self.rhs)


@dataclass(frozen=True)
class RelSRS:
    letters: tuple[str, ...]
    rules: tuple[Rule, ...]

    def __post_init__(self):
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("duplicate letter names in alphabet")
        n = len(self.letters)
        for rule in self.rules:
            for c in rule.lhs + rule.rhs:
                if not 0 <= c < n:
                    raise ValueError(f"letter index {c} outside alphabet of size {n}")

    @property
    def strict_rules(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.strict)

    @property
    def relative_rules(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if not r.strict)

    def word(self, tokens: str | list[str]) -> Word:
        """Build a word from whitespace-separated tokens (or a token list)."""
        if isinstance(tokens, str):
            tokens = tokens.split()
        index = {name: i for i, name in enumerate(self.letters)}
        try:
            return tuple(index[t] for t in tokens)
        except KeyError as e:
            raise ValueError(f"unknown letter {e.args[0]!r}") from None

    def word_str(self, word: Word) -> str:
        return " ".join(self.letters[c] for c in word) if word else "(empty)"

    def rule_str(self, rule: Rule) -> str:
        arrow = ARROW_STRICT if rule.strict else ARROW_RELATIVE
        parts = [self.letters[c] for c in rule.lhs] + [arrow] + [self.letters[c] for c in rule.rhs]
        return " ".join(parts)

    def __str__(self) -> str:
        return "{ " + " , ".join(self.rule_str(r) for r in self.rules) + " }"


@dataclass(frozen=True)
class Step:
    rule_index: int
    position: int


@dataclass(frozen=True)
class Derivation:
    start: Word
    steps: tuple[Step, ...]


def apply_rule_at(word: Word, rule: Rule, position: int) -> Word:
    """Replace the lhs occurrence at `position` by the rhs.

    An empty lhs matches at every position 0..len(word) and the application
    inserts the rhs there.  Raises RewriteError when the lhs does not occur
    at the position or the position is out of range.
    """
    n, k = len(word), len(rule.lhs)
    if position < 0 or position + k > n:
        raise RewriteError(f"position {position} out of range for |word|={n}, |lhs|={k}")
    if word[position : position + k] != rule.lhs:
        raise RewriteError(f"lhs does not occur at position {position}")
    return word[:position] + rule.rhs + word[position + k :]


def successors(word: Word, system: RelSRS) -> list[tuple[Step, Word]]:
    """All one-step rewrites of `word`, ordered by rule index, then position."""
    out: list[tuple[Step, Word]] = []
    n = len(word)
    for i, rule in enumerate(system.rules):
        k = len(rule.lhs)
        for p in range(n - k + 1):
            if word[p : p + k] == rule.lhs:
                out.append((Step(i, p), word[:p] + rule.rhs + word[p + k :]))
    return out


def replay(derivation: Derivation, system: RelSRS) -> Word:
    """Run the derivation and return the final word.

    Raises ReplayError naming the first failing step.
    """
    word = derivation.start
    for i, step in enumerate(derivation.steps):
        if not 0 <= step.rule_index < len(system.rules):
            raise ReplayError(i, f"rule index {step.rule_index} out of range")
        try:
            word = apply_rule_at(word, system.rules[step.rule_index], step.position)
        except RewriteError as e:
            raise ReplayError(i, str(e)) from None
    return word


def strict_step_count(derivation: Derivation, system: RelSRS) -> int:
    return sum(1 for s in derivation.steps if system.rules[s.rule_index].strict)


def strictify(system: RelSRS) -> RelSRS:
    """Replace every relative rule by its strict counterpart."""
    return RelSRS(system.letters, tuple(Rule(r.lhs, r.rhs, True) for r in system.rules))


def s_as_strict(system: RelSRS) -> RelSRS:
    """The relative rules S alone, made strict: SN(S) is its termination."""
    return RelSRS(system.letters, tuple(Rule(r.lhs, r.rhs, True) for r in system.relative_rules))


def reverse_system(system: RelSRS) -> RelSRS:
    """Reverse every lhs and rhs; an involution that preserves SN(R/S)."""
    return RelSRS(
        system.letters,
        tuple(Rule(r.lhs[::-1], r.rhs[::-1], r.strict) for r in system.rules),
    )


def used_letters(system: RelSRS) -> list[int]:
    """The letters that occur in some rule, in increasing order."""
    used = set()
    for rule in system.rules:
        used.update(rule.lhs)
        used.update(rule.rhs)
    return sorted(used)


def system_size(system: RelSRS) -> int:
    return sum(r.size for r in system.rules)
