"""Loop search, loop checking, reversal transport, forward closures."""

import time
from bisect import bisect_left

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relsrs import nonterm
from relsrs import (
    SWEEP_BUDGET,
    Derivation,
    EmittingRedex,
    EnumerationConfig,
    ForwardClosure,
    LoopCertificate,
    RelSRS,
    Rule,
    SearchReport,
    Step,
    WeightCertificate,
    check_loop_certificate,
    closure_to_loop_certificate,
    enumerate_systems,
    find_looping_forward_closure,
    forward_closures,
    parse_system,
    replay,
    replay_closure,
    reverse_loop_certificate,
    reverse_system,
    search_emitting_loop,
    search_mixed_loop,
    serialize_certificate,
    strict_step_count,
    successors,
)
from relsrs.core import RewriteError

from oracles import closure_saturation, forms, is_factor, reference_loop_search

ABA = parse_system("(RULES a b -> a, c ->= b c)")
BAB = parse_system("(RULES b a b -> a, c ->= c b, d ->= b d)")


class TestMixedLoopSearch:
    def test_finds_two_step_loop(self):
        cert = search_mixed_loop(ABA)
        assert cert is not None and cert.kind == "mixed"
        assert len(cert.steps) == 2
        # deterministic start: shortest lhs-containing word that loops is "a c"
        assert cert.start == ABA.word("a c")
        # the cycle visits exactly a c and a b c
        mid = replay(Derivation(cert.start, cert.steps[:1]), ABA)
        assert mid == ABA.word("a b c")
        assert check_loop_certificate(cert, ABA)

    def test_finds_three_step_loop(self):
        # BAB has no loop of two steps through words of at most five
        # letters, and the search that may take three finds one
        report = SearchReport()
        assert search_mixed_loop(BAB, 5, 2, report=report) is None
        assert report.stop == "none"
        cert = search_mixed_loop(BAB, 5, 3)
        assert cert is not None and len(cert.steps) == 3
        assert check_loop_certificate(cert, BAB)

    def test_at_least_one_strict_step(self):
        cert = search_mixed_loop(BAB)
        d = Derivation(cert.start, cert.steps)
        assert strict_step_count(d, BAB) >= 1

    def test_none_on_terminating_system(self):
        sys_ = parse_system("(RULES a b -> a, b ->= )")
        assert search_mixed_loop(sys_) is None

    def test_relative_only_cycle_is_not_mixed(self):
        # S can cycle forever, but no strict rule ever fires
        sys_ = parse_system("(RULES a b -> b, c ->= c)")
        assert search_mixed_loop(sys_, max_word_len=6, max_steps=8) is None

    def test_none_without_a_strict_rule(self):
        # no mixed loop can use a strict step, so nothing is searched
        report = SearchReport()
        assert search_mixed_loop(parse_system("(RULES a ->= b)"), report=report) is None
        assert (report.stop, report.nodes) == ("none", 0)

    def test_node_budget_gives_up(self):
        assert search_mixed_loop(ABA, node_budget=1) is None

    @pytest.mark.parametrize("system", [ABA, BAB], ids=["ABA", "BAB"])
    def test_node_budget_boundary(self, system):
        # the uncapped search's node count is the smallest sufficient budget
        uncapped = SearchReport()
        cert = search_mixed_loop(system, report=uncapped)
        needed = uncapped.nodes
        assert cert is not None
        assert search_mixed_loop(system, node_budget=needed - 1) is None
        assert search_mixed_loop(system, node_budget=needed) == cert
        # only the search the budget cut short reports it
        short, enough = SearchReport(), SearchReport()
        search_mixed_loop(system, node_budget=needed - 1, report=short)
        search_mixed_loop(system, node_budget=needed, report=enough)
        assert (short.stop, enough.stop) == ("cap", "none")
        # the node that crosses the budget is counted
        assert short.nodes == enough.nodes == needed

    def test_exhausted_search_is_not_capped(self):
        report = SearchReport()
        sys_ = parse_system("(RULES a b -> a, b ->= )")
        assert search_mixed_loop(sys_, 6, 8, node_budget=100_000, report=report) is None
        assert report.stop == "none"

    def test_overlapping_matches_are_successors(self):
        # a c ->= a a a makes a run of three a; rewriting its first a a gives
        # c a, which no rule rewrites, so every loop rewrites the second a a,
        # which overlaps the first
        sys_ = parse_system("(RULES a a -> c, a c ->= a a a)")
        cert = search_mixed_loop(sys_)
        assert cert is not None and check_loop_certificate(cert, sys_)

    def test_expired_deadline_gives_up(self):
        assert search_mixed_loop(ABA) is not None
        report = SearchReport()
        assert search_mixed_loop(ABA, deadline=time.monotonic() - 1, report=report) is None
        assert report.stop == "deadline"

    def test_letters_past_255(self):
        # ABA renamed into letters 297..299 of a 300-letter alphabet
        big = RelSRS(
            tuple(f"x{i}" for i in range(300)),
            tuple(
                Rule(tuple(c + 297 for c in r.lhs), tuple(c + 297 for c in r.rhs), r.strict)
                for r in ABA.rules
            ),
        )
        cert = search_mixed_loop(big)
        small = search_mixed_loop(ABA)
        assert cert == LoopCertificate(
            small.kind,
            tuple(c + 297 for c in small.start),
            small.steps,
            tuple(c + 297 for c in small.left),
            tuple(c + 297 for c in small.right),
        )
        assert check_loop_certificate(cert, big)

    def test_deterministic(self):
        assert search_mixed_loop(BAB) == search_mixed_loop(BAB)


class TestRedexes:
    """The successor rows both loop engines cache, against core.successors."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 2), max_size=4),
                st.lists(st.integers(0, 2), max_size=3),
                st.booleans(),
            ),
            min_size=1,
            max_size=4,
        ),
        st.lists(st.integers(0, 2), max_size=8),
        st.integers(0, 10),
    )
    # "a a a" holds two overlapping matches of "a a", but str.count sees one
    @example([([0, 0], [1, 1, 1], True)], [0, 0, 0], 3)
    # likewise "a b a b" twice in "a b a b a b", an lhs that ends unlike it begins
    @example([([0, 1, 0, 1], [0, 1, 0, 1, 0], True)], [0, 1, 0, 1, 0, 1], 6)
    # an empty lhs that fits: one row per position 0..len(word), p = 0 first
    @example([([], [1, 0, 1], False)], [0, 0, 1, 0, 1, 1], 10)
    def test_rows_are_core_successors(self, rules, word, bound):
        system = RelSRS(
            ("a", "b", "c"),
            tuple(Rule(tuple(lhs), tuple(rhs), strict) for lhs, rhs, strict in rules),
        )
        word = tuple(word)
        expected = []
        for i, rule in enumerate(system.rules):
            steps = [(step, succ) for step, succ in successors(word, system) if step.rule_index == i]
            if not steps:
                continue
            if len(word) + len(rule.rhs) - len(rule.lhs) > bound:
                expected.append(len(steps))
            else:
                expected += [
                    (i, step.position, nonterm._encode(succ), rule.strict) for step, succ in steps
                ]
        encoded = nonterm._encoded_rules(enumerate(system.rules))
        assert nonterm._redexes(nonterm._encode(word), encoded, bound) == tuple(expected)
        # without counts, as closure saturation asks: the too-long rules drop out
        in_bound = tuple(row for row in expected if row.__class__ is not int)
        assert nonterm._redexes(nonterm._encode(word), encoded, bound, False) == in_bound


class TestNodeBudgetSweep:
    # every budget up to one past the search's total; the empty-lhs and
    # growing rules make runs of too-long matches for the cap to fall in.
    # Recorded on the search that expanded every word afresh: no budget
    # below the total finds a certificate, each stops "cap" on the node
    # that crosses it, and the totals are the nodes of the whole search.
    # No rule set searched here has a counter that drops a rule, so the
    # totals also pin that a search without one expands every word it did
    # before.
    @pytest.mark.parametrize(
        "text, search, total",
        [
            ("(RULES a b -> b b a , b ->= )", search_mixed_loop, 1135),
            ("(RULES a -> b , c ->= b c)", search_emitting_loop, 908),
            ("(RULES a a -> , ->= b a b)", search_mixed_loop, 819),
        ],
    )
    @pytest.mark.parametrize("memo_rows", [nonterm._MEMO_ROWS, 0], ids=["memo", "no-memo"])
    def test_every_budget(self, text, search, total, memo_rows, monkeypatch):
        monkeypatch.setattr(nonterm, "_MEMO_ROWS", memo_rows)
        system = parse_system(text)
        searched = [
            (i, r) for i, r in enumerate(system.rules)
            if search is search_mixed_loop or not r.strict
        ]
        assert nonterm._lasting(nonterm._encoded_rules(searched)) == ("", False)
        for budget in range(total + 2):
            report = SearchReport()
            cert = search(system, 5, node_budget=budget, report=report)
            want = ("cap", budget + 1) if budget < total else ("none", total)
            assert (cert, report.stop, report.nodes) == (None, *want), budget


_LOOP_SEARCH_ARGS = (
    st.integers(2, 3).flatmap(
        lambda k: st.lists(
            st.tuples(
                st.lists(st.integers(0, k - 1), max_size=3),
                st.lists(st.integers(0, k - 1), max_size=3),
                st.booleans(),
            ),
            min_size=2,
            max_size=4,
        ).filter(lambda rules: len({strict for _, _, strict in rules}) == 2)
    ),
    st.booleans(),
    st.integers(1, 6),
    st.integers(1, 8),
    st.one_of(st.none(), st.integers(-1, 4)),
    st.integers(1, 300),
)


def _kernel_and_reference(rules, emitting, word_len, steps, start_len, cap, loop_rules):
    """The kernel's (certificate, stop, nodes) and the reference's, the
    certificates serialized, on the random system `rules` describes."""
    system = RelSRS(
        ("a", "b", "c"),
        tuple(Rule(tuple(lhs), tuple(rhs), strict) for lhs, rhs, strict in rules),
    )
    search = search_emitting_loop if emitting else search_mixed_loop
    report = SearchReport()
    cert = search(system, word_len, steps, max_start_len=start_len, node_budget=cap, report=report)
    want, stop, nodes = reference_loop_search(
        system, emitting, word_len, steps, start_len, cap, loop_rules
    )

    def data(c):
        return None if c is None else serialize_certificate(c, system)

    return (data(cert), report.stop, report.nodes), (data(want), stop, nodes)


class TestLoopKernelOrder:
    """The loop kernel tests a successor for a witness only when it is new.
    A reference that tests every successor containing the start first, on
    random systems and budgets small enough to cap inside a word's redex
    list, including its too-long counts, must agree on the certificate,
    the stop and the node count.  Each system has strict and relative
    rules, so both searches have work to do.  The reference searches the
    same loop rules as the kernel; TestLastingCounterPrune compares the
    kernel with a reference that searches every rule."""

    @settings(max_examples=400, deadline=None)
    @given(*_LOOP_SEARCH_ARGS)
    # an empty strict lhs sits in the empty flanks of the start itself, so
    # the start is an emitting witness the first time it comes back
    @example([([0], [1], False), ([1], [0], False), ([], [2], True)], True, 4, 4, None, 300)
    @example([([0], [0], False), ([], [1], True)], True, 3, 3, 2, 300)
    # (RULES a -> a b , ->= b , ->= c): the empty start, tried first, spends
    # 98 nodes on the insertions before the start a loops at once, so the
    # start order decides whether a budget of 60 finds a loop
    @example([([0], [0, 1], True), ([], [1], False), ([], [2], False)], False, 4, 4, None, 60)
    @example([([0], [0, 1], True), ([], [1], False), ([], [2], False)], False, 4, 4, None, 300)
    # the insertions alone make no emitting loop: S never writes an a
    @example([([0], [0, 1], True), ([], [1], False), ([], [2], False)], True, 3, 3, None, 300)
    def test_agrees_with_the_reference(self, rules, emitting, word_len, steps, start_len, cap):
        got, want = _kernel_and_reference(rules, emitting, word_len, steps, start_len, cap, True)
        assert got == want


class TestLastingCounterPrune:
    """The searches drop every rule that lowers a lasting counter, a letter
    whose count no rule raises or the length when no rule lengthens a word,
    again on the rules left until none is lowered.  No loop uses a dropped
    rule, so against the reference that searches every rule, the loop
    kernel finds the same first certificate, ends "none" whenever the
    reference does, and never counts more nodes; the looping-closure search
    finds the first looping closure of the saturation of every rule."""

    @settings(max_examples=400, deadline=None)
    @given(*_LOOP_SEARCH_ARGS)
    # the mixed search finds the loop from b that the reference, capped, does not
    @example([([0], [1], True), ([1], [1, 1], True), ([], [2], False)], False, 5, 6, None, 300)
    # S lowers the counts of b and of the length: the emitting search ends
    # "none" where the reference caps
    @example(
        [([1], [], False), ([1, 0, 1], [0], False), ([0, 1], [], True)], True, 5, 6, None, 300
    )
    # (RULES a -> a b , ->= b , ->= c): no counter lasts, so both search
    # every rule, and the start order decides the first loop
    @example([([0], [0, 1], True), ([], [1], False), ([], [2], False)], False, 4, 4, None, 60)
    @example([([0], [0, 1], True), ([], [1], False), ([], [2], False)], False, 4, 4, None, 300)
    # (RULES a -> , ->= b , b a ->= a): a lasts and a -> lowers it, so the
    # mixed search ends at once, where the reference's insertions cap it
    @example([([0], [], True), ([], [1], False), ([1, 0], [0], False)], False, 4, 4, None, 300)
    # (RULES b -> , b a -> b , ->= a): b lasts and b -> is dropped, so the
    # kernel's starts must be the reference's that hold a kept lhs, in the
    # reference's order; an order keyed on the searched strict lhss puts
    # b a first in the kernel and b first in the reference
    @example([([1], [], True), ([1, 0], [1], True), ([], [0], False)], False, 5, 3, 3, 240)
    def test_never_worse_than_expanding_every_word(
        self, rules, emitting, word_len, steps, start_len, cap
    ):
        (cert, stop, nodes), (want, want_stop, want_nodes) = _kernel_and_reference(
            rules, emitting, word_len, steps, start_len, cap, False
        )
        assert nodes <= want_nodes
        if want is not None:
            assert (cert, stop) == (want, "none")
        elif want_stop == "none":
            assert (cert, stop) == (None, "none")

    @settings(max_examples=200, deadline=None)
    @given(_LOOP_SEARCH_ARGS[0], st.integers(0, 6))
    # a lasts, so a -> and every closure built on it is dropped; the
    # looping search ends at once, with nothing left to saturate
    @example([([0], [], True), ([], [1], False), ([1, 0], [0], False)], 6)
    def test_looping_closure_is_the_first_of_the_full_saturation(self, rules, bound):
        system = RelSRS(
            ("a", "b", "c"),
            tuple(Rule(tuple(lhs), tuple(rhs), strict) for lhs, rhs, strict in rules),
        )
        rows, _ = nonterm._saturate_closures(system, bound, False)
        looping = [i for i, (u, v, s, _, _) in enumerate(rows) if s and u in v]
        report = SearchReport()
        closure = find_looping_forward_closure(system, bound, report=report)
        assert closure == (nonterm._closure(rows[looping[0]]) if looping else None)
        assert report.stop == "none"
        assert report.nodes <= (looping[0] + 1 if looping else len(rows))

    @pytest.mark.parametrize("text, kept", [
        # b lasts, and the length: both rules shorten a word
        ("(RULES a b -> a , b ->= )", []),
        # a lasts and a -> lowers it; ->= b raises b and lengthens words
        ("(RULES a -> , ->= b , b a ->= a)", [1, 2]),
        # b lasts and b ->= a a lowers it; without that rule, a lasts too
        ("(RULES a -> , b ->= a a)", []),
    ])
    def test_loop_rules(self, text, kept):
        rules = nonterm._encoded_rules(enumerate(parse_system(text).rules))
        assert [rule[0] for rule in nonterm._loop_rules(rules)] == kept

    def test_loop_rules_take_two_rounds(self):
        rules = nonterm._encoded_rules(enumerate(parse_system("(RULES a -> , b ->= a a)").rules))
        # the first round sees b alone, which a -> keeps
        assert nonterm._lasting(rules) == ("\x01", False)
        assert nonterm._lasting(rules[:1]) == ("\x00", True)

    def test_lasting_counters(self):
        # no rule changes the count of a, so it drops no rule and is left out
        rules = nonterm._encoded_rules(enumerate(parse_system("(RULES a b -> a , b ->= )").rules))
        assert nonterm._lasting(rules) == ("\x01", True)
        # the rules raise b and c, and the insertion of c lengthens words
        rules = nonterm._encoded_rules(enumerate(parse_system("(RULES a -> b , ->= c)").rules))
        assert nonterm._lasting(rules) == ("\x00", False)


class TestLoopChecker:
    def test_rejects_wrong_final_word(self):
        cert = search_mixed_loop(ABA)
        bad = LoopCertificate("mixed", cert.start, cert.steps, ABA.word("b"), ())
        res = check_loop_certificate(bad, ABA)
        assert not res and res.reason

    def test_rejects_no_strict_step(self):
        sys_ = parse_system("(RULES a b -> b, c ->= c)")
        bad = LoopCertificate("mixed", sys_.word("c"), (Step(1, 0),), (), ())
        assert not check_loop_certificate(bad, sys_)

    def test_rejects_broken_replay(self):
        cert = search_mixed_loop(ABA)
        bad = LoopCertificate("mixed", cert.start, (Step(0, 5),), (), ())
        res = check_loop_certificate(bad, ABA)
        assert not res and "step" in res.reason

    def test_rejects_another_certificate(self):
        res = check_loop_certificate(WeightCertificate({"a": 1}), ABA)
        assert res.reason == "not a loop certificate"

    def test_rejects_empty_steps(self):
        bad = LoopCertificate("mixed", ABA.word("a"), (), (), ())
        assert not check_loop_certificate(bad, ABA)

    def test_rejects_unknown_kind(self):
        cert = search_mixed_loop(ABA)
        bad = LoopCertificate("sideways", cert.start, cert.steps, cert.left, cert.right)
        assert not check_loop_certificate(bad, ABA)

    def test_rejects_a_redex_on_a_mixed_loop(self):
        system = parse_system("(RULES a -> a)")
        cert = LoopCertificate("mixed", system.word("a"), (Step(0, 0),), (), ())
        assert check_loop_certificate(cert, system)
        res = check_loop_certificate(cert._replace(redex=EmittingRedex(0, "left", 5)), system)
        assert (res.ok, res.reason) == (False, "mixed loop carries a redex witness")

    def test_accepts_other_phase_of_same_cycle(self):
        # the same cycle entered at a b c instead of a c
        cert = LoopCertificate(
            "mixed", ABA.word("a b c"), (Step(0, 0), Step(1, 1)), (), ()
        )
        assert check_loop_certificate(cert, ABA)


class TestReversalTransport:
    def test_transported_certificates_check(self):
        for sys_ in (ABA, BAB):
            cert = search_mixed_loop(sys_)
            rev = reverse_loop_certificate(cert, sys_)
            assert check_loop_certificate(rev, reverse_system(sys_))

    def test_transport_is_involution(self):
        cert = search_mixed_loop(BAB)
        back = reverse_loop_certificate(
            reverse_loop_certificate(cert, BAB), reverse_system(BAB)
        )
        assert back == cert

    def test_transport_rejects_a_step_that_does_not_match(self):
        # a b -> a at position 0 of a c
        bad = LoopCertificate("mixed", ABA.word("a c"), (Step(0, 0),), (), ())
        with pytest.raises(RewriteError):
            reverse_loop_certificate(bad, ABA)

    def test_transport_swaps_contexts(self):
        # an emitting loop with a left context lands in the right context reversed
        sys_ = parse_system("(RULES a -> b, c ->= a c)")
        cert = search_emitting_loop(sys_)
        assert cert.left == sys_.word("a")
        rev = reverse_loop_certificate(cert, sys_)
        assert rev.right == sys_.word("a")
        assert rev.redex.side == "right"
        assert check_loop_certificate(rev, reverse_system(sys_))


class TestEmittingLoopSearch:
    def test_finds_emitting_context(self):
        sys_ = parse_system("(RULES a -> b, c ->= a c)")
        cert = search_emitting_loop(sys_)
        assert cert is not None and cert.kind == "emitting"
        assert cert.start == sys_.word("c")
        assert cert.left == sys_.word("a") and cert.right == ()
        assert cert.redex == EmittingRedex(0, "left", 0)
        assert check_loop_certificate(cert, sys_)

    def test_node_budget_boundary(self):
        sys_ = parse_system("(RULES a -> b, c ->= a c)")
        cert = search_emitting_loop(sys_)
        assert search_emitting_loop(sys_, node_budget=0) is None
        assert search_emitting_loop(sys_, node_budget=1) == cert
        short, enough = SearchReport(), SearchReport()
        search_emitting_loop(sys_, node_budget=0, report=short)
        search_emitting_loop(sys_, node_budget=1, report=enough)
        assert (short.stop, enough.stop) == ("cap", "none")
        assert short.nodes == enough.nodes == 1

    def test_overlapping_matches_are_successors(self):
        # b a a a -> b a c rewrites the second of two overlapping a a
        sys_ = parse_system("(RULES b -> c, a a ->= c, a c ->= b a a a)")
        cert = search_emitting_loop(sys_)
        assert cert.start == sys_.word("a c") and cert.left == sys_.word("b")
        assert cert.steps == (Step(2, 0), Step(1, 2))

    def test_expired_deadline_gives_up(self):
        sys_ = parse_system("(RULES a -> b, c ->= a c)")
        report = SearchReport()
        assert search_emitting_loop(sys_, deadline=time.monotonic() - 1, report=report) is None
        assert report.stop == "deadline"

    def test_steps_are_all_relative(self):
        sys_ = parse_system("(RULES a -> b, c ->= a c)")
        cert = search_emitting_loop(sys_)
        assert all(not sys_.rules[s.rule_index].strict for s in cert.steps)

    def test_none_without_redex_in_context(self):
        # S grows only by b's, and no strict lhs is made of b's
        sys_ = parse_system("(RULES a -> b, c ->= b c)")
        assert search_emitting_loop(sys_) is None

    def test_scans_every_occurrence_of_the_start(self):
        # a -> a b a holds a at 0 and 2; only the split at 2 puts the strict
        # lhs a b in a flank.  Scanning the first occurrence alone finds the
        # 2-step loop a -> a b a b a with right flank b a b a instead.
        sys_ = parse_system("(RULES a b -> , a ->= a b a)")
        cert = search_emitting_loop(sys_)
        assert cert.start == sys_.word("a") and cert.steps == (Step(1, 0),)
        assert cert.left == sys_.word("a b") and cert.right == ()
        assert cert.redex == EmittingRedex(0, "left", 0)
        assert check_loop_certificate(cert, sys_)

    def test_strict_lhs_on_start_itself_does_not_count(self):
        # context must contain the redex strictly outside the repeated word
        sys_ = parse_system("(RULES c -> b, c ->= b c)")
        cert = search_emitting_loop(sys_)
        assert cert is None


class TestEmittingChecker:
    SYS = parse_system("(RULES a -> b, c ->= a c)")

    def cert(self, **overrides):
        base = dict(
            kind="emitting",
            start=self.SYS.word("c"),
            steps=(Step(1, 0),),
            left=self.SYS.word("a"),
            right=(),
            redex=EmittingRedex(0, "left", 0),
        )
        base.update(overrides)
        return LoopCertificate(**base)

    def test_valid(self):
        assert check_loop_certificate(self.cert(), self.SYS)

    def test_rejects_missing_redex(self):
        assert not check_loop_certificate(self.cert(redex=None), self.SYS)

    def test_rejects_relative_rule_as_redex(self):
        bad = self.cert(redex=EmittingRedex(1, "left", 0))
        assert not check_loop_certificate(bad, self.SYS)

    def test_rejects_redex_not_occurring(self):
        bad = self.cert(redex=EmittingRedex(0, "right", 0))
        assert not check_loop_certificate(bad, self.SYS)

    def test_rejects_strict_step_in_trace(self):
        bad = self.cert(steps=(Step(0, 0),))
        assert not check_loop_certificate(bad, self.SYS)

    def test_rejects_a_strict_step_that_replays(self):
        system = parse_system("(RULES a -> a a)")
        a = system.word("a")
        bad = LoopCertificate("emitting", a, (Step(0, 0),), (), a, EmittingRedex(0, "right", 0))
        res = check_loop_certificate(bad, system)
        assert res.reason == "emitting loop must use relative steps only"

    @pytest.mark.parametrize("redex, reason", [
        (EmittingRedex(5, "left", 0), "redex rule index 5 out of range"),
        (EmittingRedex(0, "middle", 0), "redex side must be left or right, got 'middle'"),
    ])
    def test_rejects_a_bad_redex(self, redex, reason):
        assert check_loop_certificate(self.cert(redex=redex), self.SYS).reason == reason

    # Each certificate below is rejected by one guard alone: without it the
    # checker accepts the certificate.

    def test_rejects_an_unknown_kind_that_replays_as_emitting(self):
        res = check_loop_certificate(self.cert(kind="sideways"), self.SYS)
        assert res.reason == "unknown loop kind 'sideways'"

    def test_rejects_no_steps_with_an_empty_strict_lhs(self):
        system = parse_system("(RULES -> a , b ->= b)")
        cert = LoopCertificate("emitting", (), (), (), (), EmittingRedex(0, "left", 0))
        res = check_loop_certificate(cert, system)
        assert res.reason == "loop must have at least one step"

    def test_rejects_a_relative_lhs_in_a_flank(self):
        # c ->= c c with the relative lhs c in the left flank: b -> never fires
        system = parse_system("(RULES b -> , c ->= c c)")
        c = system.word("c")
        cert = LoopCertificate("emitting", c, (Step(1, 0),), c, (), EmittingRedex(1, "left", 0))
        res = check_loop_certificate(cert, system)
        assert res.reason == "redex witness must name a strict rule"

    def test_rejects_a_negative_offset(self):
        # c ->= a c ->= a a c; left[-2:-1] is the lhs a, but -2 is no offset
        steps = (Step(1, 0), Step(1, 1))
        bad = self.cert(steps=steps, left=self.SYS.word("a a"), redex=EmittingRedex(0, "left", -2))
        res = check_loop_certificate(bad, self.SYS)
        assert res.reason == "redex offset out of range"

    def test_rejects_a_flank_without_the_strict_lhs(self):
        system = parse_system("(RULES a -> b, c ->= b c)")
        cert = LoopCertificate(
            "emitting", system.word("c"), (Step(1, 0),), system.word("b"), (),
            EmittingRedex(0, "left", 0),
        )
        res = check_loop_certificate(cert, system)
        assert res.reason == "strict lhs does not occur at the claimed offset"


class TestForwardClosures:
    def test_aba_family_has_no_looping_closure(self):
        assert find_looping_forward_closure(ABA, 20) is None

    def test_reversal_has_looping_closure(self):
        rev = reverse_system(ABA)  # b a -> a, c ->= c b
        closure = find_looping_forward_closure(rev, 20)
        assert closure is not None
        assert closure.source == rev.word("c a")
        assert closure.target == rev.word("c a")
        assert closure.strict_steps == 1

    def test_expired_deadline_gives_up(self):
        rev = reverse_system(ABA)
        assert find_looping_forward_closure(rev, 20, deadline=time.monotonic() + 60) is not None
        report = SearchReport()
        expired = time.monotonic() - 1
        assert find_looping_forward_closure(rev, 20, deadline=expired, report=report) is None
        assert report.stop == "deadline"

    def test_report_counts_kept_closures(self):
        report = SearchReport()
        assert find_looping_forward_closure(ABA, 12, report=report) is None
        assert (report.stop, report.nodes) == ("none", len(forward_closures(ABA, 12)))
        rev = reverse_system(ABA)
        report = SearchReport()
        assert find_looping_forward_closure(rev, 12, report=report) is not None
        assert 0 < report.nodes <= len(forward_closures(rev, 12))

    def test_bab_and_its_reversal_have_none(self):
        assert find_looping_forward_closure(BAB, 20) is None
        assert find_looping_forward_closure(reverse_system(BAB), 20) is None

    def test_seed_closure_loops_immediately(self):
        sys_ = parse_system("(RULES a -> a a)")
        closure = find_looping_forward_closure(sys_, 20)
        assert closure is not None
        assert closure.source == (0,) and closure.target == (0, 0)

    def test_closure_families_of_aba(self):
        # saturation yields exactly (a b^n -> a) and (c -> b^n c) shapes
        closures = forward_closures(ABA, 12)
        a, b, c = ABA.word("a")[0], ABA.word("b")[0], ABA.word("c")[0]
        for cl in closures:
            if cl.source[0] == a:
                n = len(cl.source) - 1
                assert cl.source == (a,) + (b,) * n and cl.target == (a,)
            else:
                assert cl.source == (c,)
                assert cl.target[-1] == c and set(cl.target[:-1]) <= {b}

    def test_replay_closure_reproduces_target(self):
        for cl in forward_closures(ABA, 10):
            assert replay_closure(cl, ABA) == cl.target

    def test_closure_trace_strict_count_matches(self):
        rev = reverse_system(ABA)
        closure = find_looping_forward_closure(rev, 20)
        strict = sum(1 for s in closure.trace if rev.rules[s.rule_index].strict)
        assert strict == closure.strict_steps

    def test_size_bound_respected(self):
        for cl in forward_closures(ABA, 8):
            assert len(cl.source) <= 8 and len(cl.target) <= 8

    def test_closure_to_loop_certificate(self):
        rev = reverse_system(ABA)
        closure = find_looping_forward_closure(rev, 20)
        cert = closure_to_loop_certificate(closure, rev)
        assert cert.kind == "mixed"
        assert check_loop_certificate(cert, rev)

    def test_closure_to_loop_rejects_non_factor(self):
        closures = forward_closures(ABA, 10)
        shrinking = next(c for c in closures if len(c.source) > len(c.target))
        with pytest.raises(ValueError):
            closure_to_loop_certificate(shrinking, ABA)

    def test_closure_to_loop_rejects_a_trace_that_ends_elsewhere(self):
        # a -> b from a reaches b, not the claimed target b b
        system = parse_system("(RULES a -> b)")
        closure = ForwardClosure((0,), (1, 1), 1, (Step(0, 0),))
        with pytest.raises(ValueError, match="^closure trace does not replay to its target$"):
            closure_to_loop_certificate(closure, system)

    def test_zero_strict_conversion_fails_the_checker(self):
        # (c -> b c) embeds its source but has no strict step; the converted
        # certificate must not pass as a mixed loop
        closures = forward_closures(ABA, 10)
        flat = next(c for c in closures if c.strict_steps == 0 and len(c.trace) > 0)
        cert = closure_to_loop_certificate(flat, ABA)
        assert not check_loop_certificate(cert, ABA)

    def test_deterministic_order(self):
        first = [(c.source, c.target) for c in forward_closures(ABA, 10)]
        second = [(c.source, c.target) for c in forward_closures(ABA, 10)]
        assert first == second


class TestFrozenClosureResults:
    """The closure searches against `oracles.closure_saturation`, the set
    fixpoint of the forward-closure calculus, which no order of search
    moves: on every two-letter system up to size 4, and deeper on
    A_B_BA_A.  `forward_closures` keeps exactly the saturation's (source,
    target, any strict step).  The looping search finds a closure exactly
    when the saturation holds a looping one (a strict step, the source a
    factor of the target); the one it finds is in the saturation and
    converts to a mixed loop that re-checks; and it keeps no more closures
    than the saturation holds.  A closure of bound 6 is one of bound 8, so
    the bound-8 saturation is made only where the bound-6 one cannot show
    a looping search at bound 8 right."""

    A_B_BA_A = parse_system("(RULES a -> , ->= b , b a ->= a)")
    # no counter lasts in ABB_ABA, so its looping search keeps both rules
    ABB_ABA = parse_system("(RULES a b b -> , ->= a b a)")

    @staticmethod
    def agrees(closure, report, saturation):
        if report.stop != "none" or report.nodes > len(saturation):
            return False
        if closure is None:
            return not any(strict and is_factor(u, v) for u, v, strict in saturation)
        return (closure.source, closure.target, True) in saturation

    def test_size_four_results_are_unchanged(self):
        systems = 0
        for system in enumerate_systems(EnumerationConfig(2, 4)):
            systems += 1
            saturation = closure_saturation(system, 6)
            kept = forward_closures(system, 6)
            assert len(kept) == len(saturation), str(system)
            assert {(c.source, c.target, c.strict_steps > 0) for c in kept} == saturation
            for bound in (6, 8):
                report = SearchReport()
                closure = find_looping_forward_closure(system, bound, report=report)
                agrees = self.agrees(closure, report, saturation)
                if bound == 8 and not (agrees and closure is not None):
                    agrees = self.agrees(closure, report, closure_saturation(system, 8))
                assert agrees, (str(system), bound)
                if closure is not None:
                    cert = closure_to_loop_certificate(closure, system)
                    assert check_loop_certificate(cert, system), str(system)
        assert systems == 987

    def test_size_four_results_without_memo(self, monkeypatch):
        # the memo changes what is computed, not what is kept: every target's
        # successors computed afresh give the same rows in the same order,
        # and the same looping searches
        def results(system):
            rows, _ = nonterm._saturate_closures(system, 6, False)
            looping = []
            for bound in (6, 8):
                report = SearchReport()
                closure = find_looping_forward_closure(system, bound, report=report)
                looping.append((closure, report.stop, report.nodes))
            return [row[:3] + row[4:] for row in rows], looping

        for system in enumerate_systems(EnumerationConfig(2, 4)):
            with monkeypatch.context() as m:
                m.setattr(nonterm, "_MEMO_ROWS", 0)
                afresh = results(system)
            assert afresh == results(system), str(system)

    @pytest.mark.parametrize("bound, count", [(8, 5091), (9, 11232)])
    def test_saturation_sizes(self, bound, count):
        # an empty rhs, an insertion and an overlap rule, saturated deeper
        kept = forward_closures(self.A_B_BA_A, bound)
        saturation = closure_saturation(self.A_B_BA_A, bound)
        assert len(kept) == len(saturation) == count
        assert {(c.source, c.target, c.strict_steps > 0) for c in kept} == saturation

    @pytest.mark.parametrize("bound, count", [(8, 5091), (9, 11232)])
    def test_looping_search_sizes(self, bound, count):
        # the path `relsrs closures` runs: no looping closure.  a is a lasting
        # counter that a -> lowers, so a loop cannot use that rule, and the
        # two rules left are relative: the search keeps no closure, where
        # the saturation keeps `count`
        report = SearchReport()
        assert find_looping_forward_closure(self.A_B_BA_A, bound, report=report) is None
        assert (report.stop, report.nodes) == ("none", 0)

    @pytest.mark.parametrize("budget", [0, 3, 1000, 5000])
    def test_looping_search_cap(self, budget, monkeypatch):
        # the search checks the cap before each expansion: it stops at the
        # first one before which it keeps more closures than the budget, and
        # counts those.  The uncapped search's rows show when each was kept,
        # as a row's parent is the row whose expansion kept it
        rows, _ = nonterm._saturate_closures(self.ABB_ABA, 12, True)
        index = {id(row): i for i, row in enumerate(rows)}
        made = [-1 if row[3] is None else index[id(row[3])] for row in rows]
        kept = [bisect_left(made, h) for h in range(len(rows))]  # before row h expands
        want = next((("cap", n) for n in kept if n > budget), ("none", len(rows)))
        monkeypatch.setattr(nonterm, "DEFAULT_NODE_BUDGET", budget)
        report = SearchReport()
        assert find_looping_forward_closure(self.ABB_ABA, 12, report=report) is None
        assert (report.stop, report.nodes) == want

    @pytest.mark.parametrize("bound, count", [(8, 5091), (9, 11232)])
    def test_saturation_sizes_without_memo(self, bound, count, monkeypatch):
        monkeypatch.setattr(nonterm, "_MEMO_ROWS", 0)
        self.test_saturation_sizes(bound, count)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 1), max_size=3),
                st.lists(st.integers(0, 1), max_size=3),
                st.booleans(),
            ),
            min_size=1,
            max_size=4,
        ),
        st.integers(0, 6),
    )
    # A_B_BA_A: a lasts and a -> lowers it, so the looping search drops
    # that rule and, with no strict rule left, saturates nothing
    @example([([0], [], True), ([], [1], False), ([1, 0], [0], False)], 6)
    def test_closures_replay_to_their_targets(self, rules, bound):
        system = RelSRS(
            ("a", "b"),
            tuple(Rule(tuple(lhs), tuple(rhs), strict) for lhs, rhs, strict in rules),
        )
        closures = forward_closures(system, bound)
        for c in closures:
            assert len(c.source) <= bound and len(c.target) <= bound
            assert replay_closure(c, system) == c.target
            assert sum(system.rules[s.rule_index].strict for s in c.trace) == c.strict_steps
        looping = [c for c in closures if c.strict_steps and is_factor(c.source, c.target)]
        assert find_looping_forward_closure(system, bound) == (looping[0] if looping else None)


class TestSizeFourLoopSearches:
    """Both loop searches, with the SWEEP_BUDGET loop bounds and the
    emitting bounds SWEEP_BUDGET had while prove ran that search, on every
    non-trivial two-letter system up to size 4 as is, strictified, and with
    S alone made strict: 1,134 searches, which agree with the reference BFS
    on the certificate, the stop and the node count, with and without the
    memo.  Every certificate found re-checks."""

    @pytest.mark.parametrize("memo_rows", [nonterm._MEMO_ROWS, 0], ids=["memo", "no-memo"])
    def test_kernel_agrees_with_the_reference(self, memo_rows, monkeypatch):
        monkeypatch.setattr(nonterm, "_MEMO_ROWS", memo_rows)
        b = SWEEP_BUDGET
        # (search, max_word_len, max_steps, max_start_len, node_budget)
        kinds = (
            (search_mixed_loop, b.loop_max_word_len, b.loop_max_steps, b.loop_max_start_len,
             b.loop_node_budget),
            (search_emitting_loop, 8, 8, 4, 2_000),
        )
        searches = 0
        for form in forms(EnumerationConfig(2, 4)):
            for search, *bounds in kinds:
                word_len, steps, start_len, cap = bounds
                emitting = search is search_emitting_loop
                report = SearchReport()
                cert = search(
                    form, word_len, steps, max_start_len=start_len, node_budget=cap,
                    report=report,
                )
                want = reference_loop_search(form, emitting, *bounds, True)
                assert (cert, report.stop, report.nodes) == want, form
                assert cert is None or check_loop_certificate(cert, form), form
                searches += 1
        assert searches == 1134
