"""Words, rules, rewriting, replay, and the records verdicts are made of."""

import pickle

import pytest

from relsrs import (
    ArcticMatrixCertificate,
    Attempt,
    Derivation,
    EPSILON,
    EmittingRedex,
    LoopCertificate,
    NaturalMatrixCertificate,
    ProofOutcome,
    RelSRS,
    ReplayError,
    RewriteError,
    Rule,
    Step,
    apply_rule_at,
    parse_certificate,
    parse_system,
    prove,
    replay,
    reverse_system,
    strict_step_count,
    strictify,
    serialize_certificate,
    successors,
    system_size,
)


def make(letters, *rules):
    sys_ = RelSRS(tuple(letters), ())
    built = tuple(
        Rule(sys_.word(lhs), sys_.word(rhs), strict) for lhs, rhs, strict in rules
    )
    return RelSRS(tuple(letters), built)


AB_A = make("abc", ("a b", "a", True), ("c", "b c", False))


class TestAlphabet:
    def test_duplicate_letter_names_rejected(self):
        with pytest.raises(ValueError):
            RelSRS(("a", "a"), ())

    def test_out_of_range_letter_index_rejected(self):
        with pytest.raises(ValueError):
            RelSRS(("a",), (Rule((1,), (), True),))

    def test_word_from_tokens(self):
        assert AB_A.word("a b c") == (0, 1, 2)
        assert AB_A.word([]) == EPSILON

    def test_word_unknown_token(self):
        with pytest.raises(ValueError):
            AB_A.word("a z")

    def test_word_str_empty(self):
        assert AB_A.word_str(()) == "(empty)"
        assert AB_A.word_str((0, 2)) == "a c"

    def test_rule_str_arrows(self):
        assert AB_A.rule_str(AB_A.rules[0]) == "a b -> a"
        assert AB_A.rule_str(AB_A.rules[1]) == "c ->= b c"


class TestApplyRule:
    def test_replaces_at_position(self):
        rule = AB_A.rules[0]
        assert apply_rule_at((0, 1, 2), rule, 0) == (0, 2)

    def test_mismatch_raises(self):
        rule = AB_A.rules[0]
        with pytest.raises(RewriteError):
            apply_rule_at((1, 0), rule, 0)

    def test_position_out_of_range_raises(self):
        rule = AB_A.rules[0]
        with pytest.raises(RewriteError):
            apply_rule_at((0, 1), rule, 1)
        with pytest.raises(RewriteError):
            apply_rule_at((0, 1), rule, -1)

    def test_empty_lhs_inserts_everywhere(self):
        rule = Rule((), (1,), True)
        word = (0, 0)
        results = [apply_rule_at(word, rule, p) for p in range(3)]
        assert results == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_empty_lhs_out_of_range(self):
        rule = Rule((), (1,), True)
        with pytest.raises(RewriteError):
            apply_rule_at((0,), rule, 2)


class TestSuccessors:
    def test_ordered_by_rule_then_position(self):
        # word "a b c": rule 0 fires at 0, rule 1 fires at 2
        steps = [s for s, _ in successors((0, 1, 2), AB_A)]
        assert steps == [Step(0, 0), Step(1, 2)]

    def test_overlapping_occurrences(self):
        sys_ = make("a", ("a a", "a", True))
        steps = [s for s, _ in successors((0, 0, 0), sys_)]
        assert steps == [Step(0, 0), Step(0, 1)]

    def test_empty_lhs_rule_fires_at_every_gap(self):
        sys_ = make("a", ("", "a", False))
        steps = [s for s, _ in successors((0,), sys_)]
        assert steps == [Step(0, 0), Step(0, 1)]

    def test_no_successors_on_normal_form(self):
        assert successors((1,), AB_A) == []


class TestReplay:
    def test_replays_to_final_word(self):
        d = Derivation((0, 2), (Step(1, 1), Step(0, 0)))
        assert replay(d, AB_A) == (0, 2)

    def test_failing_step_named(self):
        d = Derivation((0, 2), (Step(1, 1), Step(0, 1)))
        with pytest.raises(ReplayError) as e:
            replay(d, AB_A)
        assert e.value.step_index == 1
        assert "step 1" in str(e.value)

    def test_rule_index_out_of_range(self):
        d = Derivation((0,), (Step(5, 0),))
        with pytest.raises(ReplayError) as e:
            replay(d, AB_A)
        assert e.value.step_index == 0

    def test_strict_step_count(self):
        d = Derivation((0, 2), (Step(1, 1), Step(0, 0)))
        assert strict_step_count(d, AB_A) == 1


class TestSystemOps:
    def test_strictify_flips_relative_rules(self):
        stric = strictify(AB_A)
        assert all(r.strict for r in stric.rules)
        assert [r.lhs for r in stric.rules] == [r.lhs for r in AB_A.rules]

    def test_reverse_is_involution(self):
        assert reverse_system(reverse_system(AB_A)) == AB_A

    def test_reverse_reverses_sides(self):
        rev = reverse_system(AB_A)
        assert rev.rules[0].lhs == (1, 0)
        assert rev.rules[1].rhs == (2, 1)

    def test_system_size_sums_rule_sizes(self):
        assert system_size(AB_A) == 3 + 3
        assert AB_A.rules[0].size == 3

    def test_strict_and_relative_partition(self):
        assert AB_A.strict_rules == (AB_A.rules[0],)
        assert AB_A.relative_rules == (AB_A.rules[1],)

    def test_reverse_preserves_derivation_existence(self):
        # a c -> a b c -> a c in the original maps to c a -> c b a -> c a
        rev = reverse_system(AB_A)
        d = Derivation((2, 0), (Step(1, 0), Step(0, 1)))
        assert replay(d, rev) == (2, 0)


class TestRecordContract:
    """The NamedTuple records built on every verdict and re-check: immutable,
    compared and hashed by value, with dataclass-style repr text."""

    RECORDS = [
        Rule((0, 1), (1,), True),
        Step(1, 2),
        Derivation((0, 1), (Step(0, 0),)),
        EmittingRedex(0, "left", 1),
        LoopCertificate("emitting", (0,), (Step(0, 0),), (1,), (), EmittingRedex(0, "left", 0)),
        Attempt("weights", "none", "max 16"),
        ProofOutcome("NO", LoopCertificate("mixed", (), (Step(0, 0),), (), (0,)), "r", ()),
    ]

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_immutable_and_by_value(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        twin = type(record)(*record)
        assert twin == record and hash(twin) == hash(record) and twin is not record

    def test_repr_text(self):
        assert repr(Step(1, 2)) == "Step(rule_index=1, position=2)"
        assert repr(Rule((0,), (), False)) == "Rule(lhs=(0,), rhs=(), strict=False)"
        assert repr(Attempt("trivial", "NO")) == "Attempt(method='trivial', outcome='NO', detail='')"
        assert repr(LoopCertificate("mixed", (0,), (Step(0, 0),), (), (1,))) == (
            "LoopCertificate(kind='mixed', start=(0,), steps=(Step(rule_index=0, position=0),),"
            " left=(), right=(1,), redex=None)"
        )

    def test_defaults(self):
        assert ProofOutcome("MAYBE") == ProofOutcome("MAYBE", None, "", ())
        assert ProofOutcome("MAYBE").attempts == ()
        assert Rule((0,), (1,), True).size == 2

    @pytest.mark.parametrize("text, kind", [
        ("(RULES a b -> a , b ->= )", "ComposeCertificate"),
        ("(RULES a -> b , b ->= a , a ->= a)", "LoopCertificate"),
    ])
    def test_outcome_survives_pickle(self, text, kind):
        """The --jobs pool ships outcomes between processes."""
        out = prove(parse_system(text))
        # prove writes composites for YES only, every NO is a loop
        verdict = "NO" if kind == "LoopCertificate" else "YES"
        assert out.verdict == verdict and type(out.certificate).__name__ == kind
        back = pickle.loads(pickle.dumps(out))
        assert back == out and type(back) is ProofOutcome
        assert type(back.attempts[0]) is Attempt

    def test_certificate_steps_are_steps(self):
        system = parse_system("(RULES a -> b , b ->= a , a ->= a)")
        cert = prove(system).certificate
        parsed = parse_certificate(serialize_certificate(cert, system), system)
        assert parsed == cert
        for steps in (cert.steps, parsed.steps):
            assert steps and all(type(s) is Step for s in steps)

    def test_matrix_certificates_stay_apart(self):
        """Same fields, different semirings: as tuples they would compare equal."""
        m = {"a": ((1, 0), (0, 1))}
        assert NaturalMatrixCertificate(2, m) != ArcticMatrixCertificate(2, m)
