"""Loop search, loop checking, reversal transport, forward closures."""

import hashlib
import json
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relsrs import nonterm
from relsrs import (
    SWEEP_BUDGET,
    Derivation,
    EmittingRedex,
    EnumerationConfig,
    LoopCertificate,
    RelSRS,
    Rule,
    SearchReport,
    Step,
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
    strictify,
    successors,
    trivial_verdict,
)

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
        cert = search_mixed_loop(BAB)
        assert cert is not None
        assert cert.start == BAB.word("c a d")
        assert len(cert.steps) == 3
        assert cert.left == () and cert.right == ()
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

    def test_node_budget_gives_up(self):
        assert search_mixed_loop(ABA, node_budget=1) is None

    @pytest.mark.parametrize("system, needed", [(ABA, 15), (BAB, 1720)])
    def test_node_budget_boundary(self, system, needed):
        # every generated successor counts, also those over the word bound;
        # the smallest sufficient budgets were recorded on the tuple-word search
        cert = search_mixed_loop(system)
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
        # from a a a the loop needs the rewrite at position 1, which overlaps
        # the match at position 0
        sys_ = parse_system("(RULES a a -> c, a c ->= a a a)")
        cert = search_mixed_loop(sys_)
        assert cert.start == sys_.word("a c")
        assert cert.steps == (Step(1, 0), Step(0, 1))

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
        for budget in range(total + 2):
            report = SearchReport()
            cert = search(system, 5, node_budget=budget, report=report)
            want = ("cap", budget + 1) if budget < total else ("none", total)
            assert (cert, report.stop, report.nodes) == (None, *want), budget


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

    def test_rejects_empty_steps(self):
        bad = LoopCertificate("mixed", ABA.word("a"), (), (), ())
        assert not check_loop_certificate(bad, ABA)

    def test_rejects_unknown_kind(self):
        cert = search_mixed_loop(ABA)
        bad = LoopCertificate("sideways", cert.start, cert.steps, cert.left, cert.right)
        assert not check_loop_certificate(bad, ABA)

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


def _is_factor(needle, hay):
    return any(hay[i : i + len(needle)] == needle for i in range(len(hay) - len(needle) + 1))


class TestFrozenClosureResults:
    A_B_BA_A = parse_system("(RULES a -> , ->= b , b a ->= a)")
    # recorded with the tuple-word saturation (987 systems, 1732 looping
    # closures, 122,212 closures at bound 6)
    DIGEST = "1903c46f3feb1e65558ad3468aca8a49ef16efd1c28868382377e1110023e238"
    # why each looping-closure search stopped and how many closures it kept
    REPORT_DIGEST = "e4042c1dbc26b4cd2a93d44b6cee3ee957f9ce0ee762e35556d3ff9ffdac42de"

    def test_size_four_results_are_unchanged(self):
        """The looping closure at bounds 6 and 8 and the saturation at
        bound 6 of every two-letter system up to size 4.  DIGEST was made by
        this snippet, and REPORT_DIGEST by hashing `[report.stop,
        report.nodes]` of each looping-closure search the same way:

            def row(c):
                return None if c is None else [
                    c.source, c.target, c.strict_steps,
                    [[s.rule_index, s.position] for s in c.trace]]
            h = hashlib.sha256()
            for system in enumerate_systems(EnumerationConfig(2, 4)):
                for bound in (6, 8):
                    c = find_looping_forward_closure(system, bound)
                    h.update(json.dumps(row(c)).encode() + b"\n")
                closures = forward_closures(system, 6)
                h.update(json.dumps([row(c) for c in closures]).encode() + b"\n")
            h.hexdigest()
        """

        def row(c):
            if c is None:
                return None
            return [c.source, c.target, c.strict_steps, [[s.rule_index, s.position] for s in c.trace]]

        h, reports = hashlib.sha256(), hashlib.sha256()
        systems = found = total = 0
        for system in enumerate_systems(EnumerationConfig(2, 4)):
            systems += 1
            for bound in (6, 8):
                report = SearchReport()
                c = find_looping_forward_closure(system, bound, report=report)
                found += c is not None
                h.update(json.dumps(row(c)).encode() + b"\n")
                reports.update(json.dumps([report.stop, report.nodes]).encode() + b"\n")
            closures = forward_closures(system, 6)
            total += len(closures)
            h.update(json.dumps([row(c) for c in closures]).encode() + b"\n")
        assert (systems, found, total) == (987, 1732, 122_212)
        assert h.hexdigest() == self.DIGEST
        assert reports.hexdigest() == self.REPORT_DIGEST

    def test_size_four_results_without_memo(self, monkeypatch):
        # a full memo: every target's successors are computed afresh
        monkeypatch.setattr(nonterm, "_MEMO_ROWS", 0)
        self.test_size_four_results_are_unchanged()

    @pytest.mark.parametrize("bound, count", [(8, 5091), (9, 11232)])
    def test_saturation_sizes(self, bound, count):
        # recorded with the tuple-word saturation
        assert len(forward_closures(self.A_B_BA_A, bound)) == count

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
        looping = [c for c in closures if c.strict_steps and _is_factor(c.source, c.target)]
        assert find_looping_forward_closure(system, bound) == (looping[0] if looping else None)


class TestFrozenSearchResults:
    # recorded with the tuple-word searches: 1134 searches, 347 certificates
    DIGEST = "268def1052968238b8a710ecbd4425ff2dc7699e4b7e182b101cfc1a13277235"
    # why each search stopped and how many nodes it visited
    REPORT_DIGEST = "8dda97d8f6063552e8510ebb0a630d9a96b97163c23d1461cb8b4e165eb22f7b"

    def test_size_four_results_are_unchanged(self):
        """Both loop searches, with the SWEEP_BUDGET loop bounds and the
        emitting bounds SWEEP_BUDGET had while prove ran that search, on every
        non-trivial two-letter system up to size 4 as is, strictified, and
        with S alone made strict.  DIGEST was made by this snippet, and
        REPORT_DIGEST by hashing `[report.stop, report.nodes]` of each search
        the same way:

            b = SWEEP_BUDGET
            h = hashlib.sha256()
            for system in enumerate_systems(EnumerationConfig(2, 4)):
                if trivial_verdict(system) is not None:
                    continue
                s_only = RelSRS(system.letters, tuple(
                    Rule(r.lhs, r.rhs, True) for r in system.relative_rules))
                for form in (system, strictify(system), s_only):
                    mixed = search_mixed_loop(
                        form, b.loop_max_word_len, b.loop_max_steps,
                        max_start_len=b.loop_max_start_len,
                        node_budget=b.loop_node_budget)
                    emitting = search_emitting_loop(
                        form, 8, 8, max_start_len=4, node_budget=2_000)
                    for cert in (mixed, emitting):
                        data = None if cert is None else serialize_certificate(cert, form)
                        h.update(json.dumps(data, sort_keys=True).encode() + b"\n")
            h.hexdigest()
        """
        b = SWEEP_BUDGET
        h, reports = hashlib.sha256(), hashlib.sha256()
        searches = found = 0
        for system in enumerate_systems(EnumerationConfig(2, 4)):
            if trivial_verdict(system) is not None:
                continue
            s_only = RelSRS(
                system.letters,
                tuple(Rule(r.lhs, r.rhs, True) for r in system.relative_rules),
            )
            for form in (system, strictify(system), s_only):
                mixed_report, emitting_report = SearchReport(), SearchReport()
                mixed = search_mixed_loop(
                    form,
                    b.loop_max_word_len,
                    b.loop_max_steps,
                    max_start_len=b.loop_max_start_len,
                    node_budget=b.loop_node_budget,
                    report=mixed_report,
                )
                emitting = search_emitting_loop(
                    form, 8, 8, max_start_len=4, node_budget=2_000, report=emitting_report
                )
                for cert, report in ((mixed, mixed_report), (emitting, emitting_report)):
                    data = None if cert is None else serialize_certificate(cert, form)
                    h.update(json.dumps(data, sort_keys=True).encode() + b"\n")
                    reports.update(json.dumps([report.stop, report.nodes]).encode() + b"\n")
                    searches += 1
                    found += cert is not None
        assert (searches, found) == (1134, 347)
        assert h.hexdigest() == self.DIGEST
        assert reports.hexdigest() == self.REPORT_DIGEST

    def test_size_four_results_without_memo(self, monkeypatch):
        # a full memo: every word's successors are computed afresh
        monkeypatch.setattr(nonterm, "_MEMO_ROWS", 0)
        self.test_size_four_results_are_unchanged()
