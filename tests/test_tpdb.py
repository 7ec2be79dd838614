"""TPDB SRS format: parsing, printing, round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relsrs import (
    RelSRS,
    Rule,
    SrsDocument,
    SrsParseError,
    SrsRule,
    document_to_system,
    parse_srs,
    parse_system,
    print_srs,
    print_system,
    system_to_document,
)

REL = """(RULES
  a b -> a ,
  c ->= b c
)
"""


class TestParse:
    def test_strict_and_relative_rules(self):
        doc = parse_srs(REL)
        assert doc.rules == (
            SrsRule(("a", "b"), ("a",), True),
            SrsRule(("c",), ("b", "c"), False),
        )

    def test_alphabet_first_occurrence_order(self):
        assert parse_srs(REL).alphabet() == ("a", "b", "c")

    def test_empty_sides(self):
        doc = parse_srs("(RULES -> a, b ->= )")
        assert doc.rules[0].lhs == ()
        assert doc.rules[1].rhs == ()

    def test_single_line_whitespace_insensitive(self):
        assert parse_srs("(RULES  a   b  ->  a ,  c ->=  b c )") == parse_srs(REL)

    def test_arrow_must_be_its_own_token(self):
        with pytest.raises(SrsParseError):
            parse_srs("(RULES a b->a)")  # 'b->a' is a single token, not an arrow

    def test_other_sections_preserved(self):
        text = "(COMMENT relative ex.)\n" + REL
        doc = parse_srs(text)
        assert doc.other_sections == (("COMMENT", " relative ex."),)

    def test_nested_parens_in_other_section(self):
        doc = parse_srs("(COMMENT see (nested) note)" + REL)
        assert doc.other_sections[0][1] == " see (nested) note"

    def test_multiword_tokens(self):
        doc = parse_srs("(RULES f10 f2 -> f2)")
        assert doc.rules[0].lhs == ("f10", "f2")


class TestParseErrors:
    def test_no_rules_section(self):
        with pytest.raises(SrsParseError):
            parse_srs("(COMMENT nothing here)")

    def test_multiple_rules_sections(self):
        with pytest.raises(SrsParseError) as e:
            parse_srs("(RULES a -> b)(RULES b -> a)")
        assert "multiple RULES" in str(e.value)

    def test_missing_arrow(self):
        with pytest.raises(SrsParseError) as e:
            parse_srs("(RULES a b)")
        assert "no -> or ->=" in str(e.value)

    def test_two_arrows(self):
        with pytest.raises(SrsParseError) as e:
            parse_srs("(RULES a -> b -> c)")
        assert e.value.line == 1
        assert "more than one arrow" in str(e.value)

    def test_stray_comma(self):
        with pytest.raises(SrsParseError) as e:
            parse_srs("(RULES a -> b ,, c -> d)")
        assert "stray comma" in str(e.value)

    def test_unbalanced_paren(self):
        with pytest.raises(SrsParseError):
            parse_srs("(RULES a -> b")

    def test_garbage_at_top_level(self):
        with pytest.raises(SrsParseError):
            parse_srs("RULES a -> b")

    def test_error_positions_are_one_based(self):
        with pytest.raises(SrsParseError) as e:
            parse_srs("(RULES\n  a b)")
        assert e.value.line == 2
        assert e.value.col >= 1

    @pytest.mark.parametrize(
        "text,line,col,message",
        [
            ("(RULES\n  a -> b ,\n  c -> d ->= e)", 3, 10, "rule has more than one arrow"),
            ("(RULES a -> b c ->= d)", 1, 17, "rule has more than one arrow"),
            ("(RULES a b)", 1, 8, "rule has no -> or ->= arrow"),
            ("(RULES a -> b ,\n  c d)", 2, 3, "rule has no -> or ->= arrow"),
            # an arrow glued to a token is part of that token
            ("(RULES a b->a)", 1, 8, "rule has no -> or ->= arrow"),
            ("(RULES a ->b)", 1, 8, "rule has no -> or ->= arrow"),
            ("(RULES a -> b ,\n ,\n c -> d)", 2, 2, "stray comma: empty rule"),
            ("(RULES , a -> b)", 1, 8, "stray comma: empty rule"),
            ("(RULES a -> b,,)", 1, 15, "stray comma: empty rule"),
            ("(RULES\u3000a -> b,\u3000,)", 1, 16, "stray comma: empty rule"),
            ("(COMMENT x)\n(RULES a -> b", 2, 1, "unbalanced parenthesis: section never closes"),
            ("(RULES a(b -> c)", 1, 1, "unbalanced parenthesis: section never closes"),
            ("(RULES a -> b)(COMMENT (x)", 1, 15, "unbalanced parenthesis: section never closes"),
            ("(RULES a -> b)(RULES b -> a", 1, 15, "unbalanced parenthesis: section never closes"),
            ("(RULES a -> b)\nx", 2, 1, "expected '(' at top level, found 'x'"),
            ("RULES a -> b", 1, 1, "expected '(' at top level, found 'R'"),
            ("(RULES a -> b)x(COMMENT)", 1, 15, "expected '(' at top level, found 'x'"),
            ("(RULES a -> b) )", 1, 16, "expected '(' at top level, found ')'"),
            ("(RULES a -> b)\n  )", 2, 3, "expected '(' at top level, found ')'"),
            ("(RULES a -> b)(RULES b -> a)", 1, 15, "multiple RULES sections"),
            ("(COMMENT nothing)", 1, 17, "no RULES section"),
            ("(COMMENT)(COMMENT)", 1, 18, "no RULES section"),
            ("", 1, 1, "no RULES section"),
            ("   \n ", 2, 1, "no RULES section"),
            ("( )", 1, 1, "section has no name"),
            ("((x) y)", 1, 1, "section has no name"),
            ("(RULES a -> b)(", 1, 15, "section has no name"),
            ("(RULES a -> b) (  (x)", 1, 16, "section has no name"),
            # errors are raised in document order
            ("(RULES a b) x", 1, 8, "rule has no -> or ->= arrow"),
            ("x (RULES a b)", 1, 1, "expected '(' at top level, found 'x'"),
            ("(RULES a b)(RULES c)", 1, 8, "rule has no -> or ->= arrow"),
        ],
    )
    def test_exact_error_positions(self, text, line, col, message):
        for parse in (parse_srs, parse_system):
            with pytest.raises(SrsParseError) as e:
                parse(text)
            assert (e.value.line, e.value.col) == (line, col)
            assert str(e.value) == f"line {line}, column {col}: {message}"


A_TO_B = (SrsRule(("a",), ("b",), True),)


class TestEdgeInputs:
    @pytest.mark.parametrize(
        "text,doc",
        [
            ("( RULES a -> b)", SrsDocument(A_TO_B)),
            # parens inside a rule are token characters
            ("(RULES a(b) -> c)", SrsDocument((SrsRule(("a(b)",), ("c",), True),))),
            ("(RULES(x) a -> b)", SrsDocument((SrsRule(("(x)", "a"), ("b",), True),))),
            (
                "(COMMENT see (nested (deep)) note)(RULES a -> b)",
                SrsDocument(A_TO_B, (("COMMENT", " see (nested (deep)) note"),)),
            ),
            ("(RULES a -> b, )", SrsDocument(A_TO_B)),
            ("(RULES )", SrsDocument(())),
            ("(RULES ->)", SrsDocument((SrsRule((), (), True),))),
            (
                "(COMMENT\nfoo)\n(RULES a -> b)\n(COMMENT)\n",
                SrsDocument(A_TO_B, (("COMMENT", "\nfoo"), ("COMMENT", ""))),
            ),
            (
                "(RULES\x0ba\x1c->\xa0b\u3000,\u3000c ->= )",
                SrsDocument((SrsRule(("a",), ("b",), True), SrsRule(("c",), (), False))),
            ),
        ],
    )
    def test_accepted(self, text, doc):
        assert parse_srs(text) == doc


WHITESPACE = " \t\n\x0b\xa0"


@st.composite
def laid_out_systems(draw):
    """A random system over up to 3 letters and one text of it, with random
    whitespace, an optional trailing comma and COMMENT sections (nested
    parens included) before and after the RULES section."""
    letters = ("a", "b", "c")[: draw(st.integers(1, 3))]
    word = st.lists(st.integers(0, len(letters) - 1), max_size=3)
    rules = draw(st.lists(st.tuples(word, word, st.booleans()), min_size=1, max_size=4))
    system = RelSRS(letters, tuple(Rule(tuple(l), tuple(r), s) for l, r, s in rules))
    gap = st.text(WHITESPACE, max_size=3)
    sep = st.text(WHITESPACE, min_size=1, max_size=3)
    comment_bodies = st.sampled_from(["", " x", " see (nested) note", " ((a) (b)) ,", "\n(c -> d)"])

    def comments():
        bodies = draw(st.lists(comment_bodies, max_size=2))
        return bodies, "".join(draw(gap) + f"(COMMENT{b})" for b in bodies)

    chunks = []
    for rule in system.rules:
        tokens = [letters[c] for c in rule.lhs] + ["->" if rule.strict else "->="]
        tokens += [letters[c] for c in rule.rhs]
        chunks.append(draw(gap) + "".join(t + draw(sep) for t in tokens[:-1]) + tokens[-1])
    body = "".join(c + draw(gap) + "," for c in chunks[:-1]) + chunks[-1]
    if draw(st.booleans()):
        body += draw(gap) + ","
    before, text_before = comments()
    after, text_after = comments()
    text = text_before + draw(gap) + "(RULES" + draw(sep) + body + draw(gap) + ")"
    text += text_after + draw(gap)
    return system, text, tuple(("COMMENT", b) for b in before + after)


class TestLayout:
    @settings(max_examples=300, deadline=None)
    @given(laid_out_systems())
    def test_any_layout_parses_to_the_system(self, case):
        system, text, others = case
        doc = parse_srs(text)
        assert doc.rules == system_to_document(system).rules
        assert doc.other_sections == others

    @settings(max_examples=300, deadline=None)
    @given(laid_out_systems())
    def test_system_reader_matches_the_document_reader(self, case):
        _, text, _ = case
        system = parse_system(text)
        assert system == document_to_system(parse_srs(text))
        assert system.letters == parse_srs(text).alphabet()


class TestPrint:
    def test_round_trip_is_stable(self):
        printed = print_srs(parse_srs(REL))
        assert printed == REL
        assert print_srs(parse_srs(printed)) == printed

    def test_normalizes_whitespace(self):
        printed = print_srs(parse_srs("(RULES  a   b -> a a , c ->=  b c )"))
        reparsed = print_srs(parse_srs(printed))
        assert printed == reparsed

    def test_other_sections_precede_rules(self):
        text = print_srs(parse_srs(REL + "(COMMENT x)"))
        assert text.startswith("(COMMENT x)")
        assert print_srs(parse_srs(text)) == text


class TestSystemBridge:
    def test_document_to_system_letter_indices(self):
        sys_ = document_to_system(parse_srs(REL))
        assert sys_.letters == ("a", "b", "c")
        assert sys_.rules[0].lhs == (0, 1)
        assert sys_.rules[1].rhs == (1, 2)
        assert sys_.rules[0].strict and not sys_.rules[1].strict

    def test_system_round_trip(self):
        sys_ = parse_system(REL)
        assert print_system(sys_) == REL
        assert parse_system(print_system(sys_)) == sys_

    def test_empty_word_prints_as_nothing(self):
        sys_ = parse_system("(RULES a -> , ->= a)")
        text = print_system(sys_)
        assert "a -> ," in text
        assert "->= a" in text
        assert parse_system(text) == sys_

    def test_unused_letters_dropped_by_bridge(self):
        # the alphabet is rebuilt from rule tokens on the way back out
        doc = system_to_document(parse_system(REL))
        assert doc.alphabet() == ("a", "b", "c")
