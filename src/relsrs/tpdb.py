"""TPDB plain SRS format.

A file is a sequence of parenthesized sections.  `(RULES ...)` holds
comma-separated rules `lhs -> rhs` (strict) or `lhs ->= rhs` (relative),
both sides whitespace-separated identifier tokens, either side possibly
empty.  Any other section such as `(COMMENT ...)` is kept verbatim so a
round-trip does not lose metadata.

A parsed file is an `SrsDocument`: the `RelSRS` of its RULES section and
its other sections.  One scanner finds the sections by counting
parentheses, splits the RULES body on commas and each rule on whitespace,
and finds the arrow among the tokens.  A line and column are worked out
only for an error.  One builder turns the scanned rules into the `RelSRS`,
numbering the letters in order of first appearance; `parse_srs` keeps the
other sections beside it, and `parse_system` returns the system alone.
One printer writes a document back, each rule as `RelSRS.rule_str`
spells it, other sections first; `print_system` prints a system with no
other sections.  A letter that occurs in no rule is not printed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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
class SrsDocument:
    system: RelSRS
    # (name, raw text between the parens) for every non-RULES section, in order
    other_sections: tuple[tuple[str, str], ...] = ()


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


def _build_system(rules: list[_Scanned]) -> RelSRS:
    """The system of the scanned rules, its letters in order of first appearance."""
    # the arrows are numbered -2 and -1, the letters 0, 1, ... as they appear;
    # each rule has one arrow, so no letter is an arrow
    index = {ARROW_STRICT: -2, ARROW_RELATIVE: -1}
    built = []
    for tokens, j in rules:
        for token in tokens:
            if token not in index:
                index[token] = len(index) - 2
        word = tuple(map(index.__getitem__, tokens))
        built.append(Rule(word[:j], word[j + 1 :], tokens[j] == ARROW_STRICT))
    return RelSRS(tuple(index)[2:], tuple(built))


def parse_srs(text: str) -> SrsDocument:
    rules, others = _scan(text)
    return SrsDocument(_build_system(rules), tuple(others))


def parse_system(text: str) -> RelSRS:
    """The system of a TPDB text: `parse_srs(text).system`."""
    return _build_system(_scan(text)[0])


def print_srs(doc: SrsDocument) -> str:
    system = doc.system
    lines = [f"({name}{body})" for name, body in doc.other_sections]
    lines.append("(RULES")
    if system.rules:
        lines.append(" ,\n".join("  " + system.rule_str(r) for r in system.rules))
    lines.append(")")
    return "\n".join(lines) + "\n"


def print_system(system: RelSRS) -> str:
    return print_srs(SrsDocument(system))
