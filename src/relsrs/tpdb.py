"""TPDB plain SRS format.

A file is a sequence of parenthesized sections.  `(RULES ...)` holds
comma-separated rules `lhs -> rhs` (strict) or `lhs ->= rhs` (relative),
both sides whitespace-separated identifier tokens, either side possibly
empty.  Any other section such as `(COMMENT ...)` is kept verbatim so a
round-trip does not lose metadata.

One scanner serves both readers.  It finds the sections by counting
parentheses, splits the RULES body on commas and each rule on whitespace,
and finds the arrow among the tokens.  A line and column are worked out
only for an error.  `parse_srs` wraps the scanned rules in an
`SrsDocument`; `parse_system` builds the `RelSRS` straight from the token
lists, numbering the letters in order of first appearance, with no
document in between.
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


_NAME = re.compile(r"\s*([^\s()]*)")
_NON_SPACE = re.compile(r"\S")
_TOKEN = re.compile(r"\S+")


def _expect_blank(text: str, start: int, end: int) -> None:
    if start < end and not text[start:end].isspace():
        found = _NON_SPACE.search(text, start, end)
        raise _error(text, found.start(), f"expected '(' at top level, found {found[0]!r}")


def _section_name(text: str, open_pos: int) -> tuple[str, int]:
    """The name of the section opened at open_pos, and where its body starts."""
    m = _NAME.match(text, open_pos + 1)
    if not m[1]:
        raise _error(text, open_pos, "section has no name")
    return m[1], m.end()


# a scanned rule: its tokens, and the index of its arrow among them
_Scanned = tuple[list[str], int]


def _scan_rules(text: str, body: str, offset: int) -> list[_Scanned]:
    rules: list[_Scanned] = []
    chunks = body.split(",")
    for k, chunk in enumerate(chunks):
        tokens = chunk.split()
        strict = tokens.count(ARROW_STRICT)
        if strict + tokens.count(ARROW_RELATIVE) == 1:
            rules.append((tokens, tokens.index(ARROW_STRICT if strict else ARROW_RELATIVE)))
            continue
        if not tokens and k + 1 == len(chunks):
            continue  # a trailing comma, or an empty body
        pos = offset + sum(map(len, chunks[:k])) + k
        if not tokens:
            raise _error(text, pos + len(chunk), "stray comma: empty rule")
        starts = [m.start() for m in _TOKEN.finditer(chunk)]
        arrows = [j for j, t in enumerate(tokens) if t in (ARROW_STRICT, ARROW_RELATIVE)]
        if not arrows:
            raise _error(text, pos + starts[0], "rule has no -> or ->= arrow")
        raise _error(text, pos + starts[arrows[1]], "rule has more than one arrow")
    return rules


def _scan(text: str) -> tuple[list[_Scanned], list[tuple[str, str]]]:
    """The RULES section's rules and every other section as (name, body),
    raising the first error in document order."""
    rules: list[_Scanned] | None = None
    others: list[tuple[str, str]] = []
    after = 0  # where the last section ended
    while True:
        open_pos = text.find("(", after)
        gap_end = len(text) if open_pos < 0 else open_pos
        stray = text.find(")", after, gap_end)
        # only whitespace between sections, and a ')' there closes nothing
        _expect_blank(text, after, gap_end if stray < 0 else stray + 1)
        if open_pos < 0:
            break
        # the ')' that brings the depth back to 0: between two ')' every paren is a '('
        depth, close = 1, open_pos
        while depth:
            start, close = close + 1, text.find(")", close + 1)
            if close < 0:
                _section_name(text, open_pos)
                raise _error(text, open_pos, "unbalanced parenthesis: section never closes")
            depth += text.count("(", start, close) - 1
        name, body_start = _section_name(text, open_pos)
        if name != "RULES":
            others.append((name, text[body_start:close]))
        elif rules is None:
            rules = _scan_rules(text, text[body_start:close], body_start)
        else:
            raise _error(text, open_pos, "multiple RULES sections")
        after = close + 1
    if rules is None:
        raise _error(text, max(0, len(text) - 1), "no RULES section")
    return rules, others


def parse_srs(text: str) -> SrsDocument:
    rules, others = _scan(text)
    return SrsDocument(
        rules=tuple(
            SrsRule(tuple(tokens[:j]), tuple(tokens[j + 1 :]), tokens[j] == ARROW_STRICT)
            for tokens, j in rules
        ),
        other_sections=tuple(others),
    )


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
    """The system of a TPDB text, its letters in order of first appearance:
    the same system as `document_to_system(parse_srs(text))`."""
    # the arrows are numbered -2 and -1, the letters 0, 1, ... as they appear;
    # each rule has one arrow, so no letter is an arrow
    index = {ARROW_STRICT: -2, ARROW_RELATIVE: -1}
    rules = []
    for tokens, j in _scan(text)[0]:
        for token in tokens:
            if token not in index:
                index[token] = len(index) - 2
        word = tuple(map(index.__getitem__, tokens))
        rules.append(Rule(word[:j], word[j + 1 :], tokens[j] == ARROW_STRICT))
    return RelSRS(tuple(index)[2:], tuple(rules))


def print_system(system: RelSRS) -> str:
    return print_srs(system_to_document(system))
