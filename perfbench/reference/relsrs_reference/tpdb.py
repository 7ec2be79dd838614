"""TPDB plain SRS format.

A file is a sequence of parenthesized sections.  `(RULES ...)` holds
comma-separated rules `lhs -> rhs` (strict) or `lhs ->= rhs` (relative),
both sides whitespace-separated identifier tokens, either side possibly
empty.  Any other section such as `(COMMENT ...)` is kept verbatim so a
round-trip does not lose metadata.
"""

from __future__ import annotations

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


def _line_col(text: str, pos: int) -> tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return line, col


def _error(text: str, pos: int, message: str) -> SrsParseError:
    line, col = _line_col(text, pos)
    return SrsParseError(line, col, message)


def _scan_section(text: str, open_pos: int) -> tuple[str, str, int, int]:
    """From a '(' return (section name, body text, body start, position after ')')."""
    i = open_pos + 1
    n = len(text)
    while i < n and text[i].isspace():
        i += 1
    start = i
    while i < n and not text[i].isspace() and text[i] not in "()":
        i += 1
    name = text[start:i]
    if not name:
        raise _error(text, open_pos, "section has no name")
    body_start = i
    depth = 1
    while i < n:
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return name, text[body_start:i], body_start, i + 1
        i += 1
    raise _error(text, open_pos, "unbalanced parenthesis: section never closes")


def _parse_rule(text: str, chunk: str, offset: int) -> SrsRule:
    tokens: list[tuple[str, int]] = []
    i = 0
    n = len(chunk)
    while i < n:
        if chunk[i].isspace():
            i += 1
            continue
        start = i
        while i < n and not chunk[i].isspace():
            i += 1
        tokens.append((chunk[start:i], offset + start))
    arrows = [j for j, (tok, _) in enumerate(tokens) if tok in (ARROW_STRICT, ARROW_RELATIVE)]
    if not arrows:
        anchor = tokens[0][1] if tokens else offset
        raise _error(text, anchor, "rule has no -> or ->= arrow")
    if len(arrows) > 1:
        raise _error(text, tokens[arrows[1]][1], "rule has more than one arrow")
    j = arrows[0]
    arrow = tokens[j][0]
    return SrsRule(
        lhs=tuple(tok for tok, _ in tokens[:j]),
        rhs=tuple(tok for tok, _ in tokens[j + 1 :]),
        strict=(arrow == ARROW_STRICT),
    )


def _parse_rules_body(text: str, body: str, offset: int) -> tuple[SrsRule, ...]:
    rules: list[SrsRule] = []
    chunk_start = 0
    i = 0
    n = len(body)

    def flush(end: int, comma_pos: int | None):
        chunk = body[chunk_start:end]
        if chunk.strip():
            rules.append(_parse_rule(text, chunk, offset + chunk_start))
        elif comma_pos is not None:
            raise _error(text, offset + comma_pos, "stray comma: empty rule")

    while i < n:
        if body[i] == ",":
            flush(i, i)
            chunk_start = i + 1
        i += 1
    # trailing empty chunk after a final comma is tolerated only if truly empty
    # of tokens AND there was no comma (handled above); here just parse leftovers
    if body[chunk_start:].strip():
        rules.append(_parse_rule(text, body[chunk_start:], offset + chunk_start))
    return tuple(rules)


def parse_srs(text: str) -> SrsDocument:
    rules: tuple[SrsRule, ...] | None = None
    others: list[tuple[str, str]] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c != "(":
            raise _error(text, i, f"expected '(' at top level, found {c!r}")
        name, body, body_start, after = _scan_section(text, i)
        if name == "RULES":
            if rules is not None:
                raise _error(text, i, "multiple RULES sections")
            rules = _parse_rules_body(text, body, body_start)
        else:
            others.append((name, body))
        i = after
    if rules is None:
        raise _error(text, max(0, n - 1), "no RULES section")
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
