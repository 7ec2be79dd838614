"""TPDB plain SRS format.

A file is a sequence of parenthesized sections.  `(RULES ...)` holds
comma-separated rules `lhs -> rhs` (strict) or `lhs ->= rhs` (relative),
both sides whitespace-separated identifier tokens, either side possibly
empty.  Any other section such as `(COMMENT ...)` is kept verbatim so a
round-trip does not lose metadata.

The reader finds the sections by counting parentheses, splits the RULES
body on commas and each rule on whitespace, and finds the arrow among
the tokens.  A line and column are worked out only for an error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .core import RelSRS, Rule

ARROW_STRICT = "->"
ARROW_RELATIVE = "->="


class SrsParseError(Exception):
    """Malformed TPDB input, with 1-based line and column."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class SrsRule:
    lhs: tuple[str, ...]
    rhs: tuple[str, ...]
    strict: bool


@dataclass(frozen=True)
class SrsDocument:
    rules: tuple[SrsRule, ...]
    # (name, raw text between the parens) for every non-RULES section, in order
    other_sections: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def alphabet(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for rule in self.rules:
            for tok in rule.lhs + rule.rhs:
                seen.setdefault(tok)
        return tuple(seen)


def _error(text: str, pos: int, message: str) -> SrsParseError:
    line = text.count("\n", 0, pos) + 1
    return SrsParseError(line, pos - text.rfind("\n", 0, pos), message)


_PAREN = re.compile(r"[()]")
_NAME = re.compile(r"\s*([^\s()]*)")
_NON_SPACE = re.compile(r"\S")
_TOKEN = re.compile(r"\S+")


def _expect_blank(text: str, start: int, end: int) -> None:
    found = _NON_SPACE.search(text, start, end)
    if found:
        raise _error(text, found.start(), f"expected '(' at top level, found {found[0]!r}")


def _section_name(text: str, open_pos: int) -> tuple[str, int]:
    """The name of the section opened at open_pos, and where its body starts."""
    m = _NAME.match(text, open_pos + 1)
    if not m[1]:
        raise _error(text, open_pos, "section has no name")
    return m[1], m.end()


def _parse_rules(text: str, body: str, offset: int) -> tuple[SrsRule, ...]:
    rules: list[SrsRule] = []
    chunks = body.split(",")
    for k, chunk in enumerate(chunks):
        tokens = chunk.split()
        arrows = tokens.count(ARROW_STRICT) + tokens.count(ARROW_RELATIVE)
        if arrows == 1:
            strict = ARROW_STRICT in tokens
            j = tokens.index(ARROW_STRICT if strict else ARROW_RELATIVE)
            rules.append(SrsRule(tuple(tokens[:j]), tuple(tokens[j + 1 :]), strict))
            continue
        if not tokens and k + 1 == len(chunks):
            continue  # a trailing comma, or an empty body
        pos = offset + sum(map(len, chunks[:k])) + k
        if not tokens:
            raise _error(text, pos + len(chunk), "stray comma: empty rule")
        starts = [m.start() for m in _TOKEN.finditer(chunk)]
        if not arrows:
            raise _error(text, pos + starts[0], "rule has no -> or ->= arrow")
        second = [j for j, t in enumerate(tokens) if t in (ARROW_STRICT, ARROW_RELATIVE)][1]
        raise _error(text, pos + starts[second], "rule has more than one arrow")
    return tuple(rules)


def parse_srs(text: str) -> SrsDocument:
    rules: tuple[SrsRule, ...] | None = None
    others: list[tuple[str, str]] = []
    depth = 0
    after = 0  # where the last section ended
    for paren in _PAREN.finditer(text):
        pos = paren.start()
        if depth == 0:
            # only whitespace between sections, and a ')' here closes nothing
            _expect_blank(text, after, pos + (paren[0] == ")"))
            open_pos = pos
        depth += 1 if paren[0] == "(" else -1
        if depth:
            continue
        name, body_start = _section_name(text, open_pos)
        if name != "RULES":
            others.append((name, text[body_start:pos]))
        elif rules is None:
            rules = _parse_rules(text, text[body_start:pos], body_start)
        else:
            raise _error(text, open_pos, "multiple RULES sections")
        after = pos + 1
    if depth:
        _section_name(text, open_pos)
        raise _error(text, open_pos, "unbalanced parenthesis: section never closes")
    _expect_blank(text, after, len(text))
    if rules is None:
        raise _error(text, max(0, len(text) - 1), "no RULES section")
    return SrsDocument(rules=rules, other_sections=tuple(others))


def print_srs(doc: SrsDocument) -> str:
    lines: list[str] = []
    for name, body in doc.other_sections:
        lines.append(f"({name}{body})")
    lines.append("(RULES")
    for k, rule in enumerate(doc.rules):
        arrow = ARROW_STRICT if rule.strict else ARROW_RELATIVE
        tokens = list(rule.lhs) + [arrow] + list(rule.rhs)
        sep = " ," if k + 1 < len(doc.rules) else ""
        lines.append("  " + " ".join(tokens) + sep)
    lines.append(")")
    return "\n".join(lines) + "\n"


def document_to_system(doc: SrsDocument) -> RelSRS:
    letters = doc.alphabet()
    index = {name: i for i, name in enumerate(letters)}
    rules = tuple(
        Rule(
            lhs=tuple(index[t] for t in r.lhs),
            rhs=tuple(index[t] for t in r.rhs),
            strict=r.strict,
        )
        for r in doc.rules
    )
    return RelSRS(letters, rules)


def system_to_document(system: RelSRS) -> SrsDocument:
    rules = tuple(
        SrsRule(
            lhs=tuple(system.letters[c] for c in r.lhs),
            rhs=tuple(system.letters[c] for c in r.rhs),
            strict=r.strict,
        )
        for r in system.rules
    )
    return SrsDocument(rules=rules)


def parse_system(text: str) -> RelSRS:
    return document_to_system(parse_srs(text))


def print_system(system: RelSRS) -> str:
    return print_srs(system_to_document(system))
