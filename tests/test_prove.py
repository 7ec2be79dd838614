"""End-to-end prove() behavior on the strictification fixture set."""

import functools
import hashlib
import inspect
import itertools
import json
import random
import time

import pytest

from relsrs import (
    SWEEP_BUDGET,
    ArcticMatrixCertificate,
    ComposeCertificate,
    EmptyRCertificate,
    LoopCertificate,
    NaturalMatrixCertificate,
    EnumerationConfig,
    ProveBudget,
    RelSRS,
    SearchReport,
    Step,
    WeightCertificate,
    check_loop_certificate,
    enumerate_systems,
    find_looping_forward_closure,
    parse_certificate,
    parse_system,
    prove,
    reverse_system,
    search_emitting_loop,
    search_matrix,
    search_mixed_loop,
    search_weights,
    serialize_certificate,
    strictify,
    trivial_verdict,
    verify_certificate,
)
from relsrs import nonterm
from relsrs.core import s_as_strict

from oracles import arc_product, derive, nat_product, rename, weakenings


def is_loop(cert):
    return isinstance(cert, LoopCertificate)


def is_weight(cert):
    return isinstance(cert, WeightCertificate)


def is_empty_r(cert):
    return isinstance(cert, EmptyRCertificate)


def compose_roles(*roles):
    def check(cert):
        return isinstance(cert, ComposeCertificate) and [r for r, _ in cert.parts] == list(roles)

    return check


def is_mixed_loop(cert):
    return is_loop(cert) and cert.kind == "mixed"


def s_proven_first(outcome):
    """The loop of R union S is a mixed loop of R/S only because SN(S) was
    proven before it was searched for."""
    return ("s-weights", "found") in [(a.method, a.outcome) for a in outcome.attempts]


FIXTURES = [
    ("(RULES a b -> a, b ->= )", "YES", compose_roles("strictified-termination")),
    ("(RULES a b -> a, c ->= b c)", "NO", is_loop),
    ("(RULES a -> a b, b ->= )", "NO", is_mixed_loop),
    ("(RULES b a b -> a, c ->= c b, d ->= b d)", "NO", is_loop),
    ("(RULES a ->= b)", "YES", is_empty_r),
    ("(RULES a -> a, b ->= c)", "NO", is_loop),
    ("(RULES  -> a, a ->= )", "NO", is_loop),
    ("(RULES a a -> a, a ->= a a)", "NO", is_loop),
    ("(RULES a -> , b ->= b)", "YES", is_weight),
    ("(RULES a b -> b a)", "YES", compose_roles("strictified-termination")),
    ("(RULES a -> a b)", "NO", is_mixed_loop),
]

IDS = [
    "shrink-vs-eraser",
    "pump-right-of-strict",
    "grow-vs-eraser",
    "three-letter-pump",
    "no-strict-rules",
    "strict-identity",
    "insertion",
    "square-vs-double",
    "plain-weights",
    "swap",
    "grow-with-empty-s",
]


class TestFixtureSet:
    @pytest.mark.parametrize("text,verdict,shape", FIXTURES, ids=IDS)
    def test_verdict_and_certificate(self, text, verdict, shape):
        system = parse_system(text)
        outcome = prove(system)
        assert outcome.verdict == verdict
        assert shape(outcome.certificate)
        assert verify_certificate(outcome.certificate, system)
        if outcome.reason == "loop of R union S while S terminates":
            assert s_proven_first(outcome)

    @pytest.mark.parametrize("text,verdict,shape", FIXTURES, ids=IDS)
    def test_certificates_survive_serialization(self, text, verdict, shape):
        system = parse_system(text)
        outcome = prove(system)
        data = serialize_certificate(outcome.certificate, system)
        back = parse_certificate(data, system)
        assert verify_certificate(back, system)
        assert serialize_certificate(back, system) == data

    def test_composite_parts_recheck_individually(self):
        # prove returns the loop as it is; the NO composite built from it
        # and the proof of SN(S) still checks, part by part
        system = parse_system("(RULES a -> a b, b ->= )")
        outcome = prove(system)
        assert is_mixed_loop(outcome.certificate) and s_proven_first(outcome)
        s_cert = search_weights(s_as_strict(system))
        parts = (("s-termination", s_cert), ("strictified-loop", outcome.certificate))
        assert verify_certificate(ComposeCertificate("NO", parts), system)
        # the loop lives in the strictified system and in the system itself,
        # the weights in S alone
        assert check_loop_certificate(outcome.certificate, strictify(system))
        assert check_loop_certificate(outcome.certificate, system)
        assert isinstance(s_cert, WeightCertificate)

    def test_swap_rule_needs_a_matrix(self):
        outcome = prove(parse_system("(RULES a b -> b a)"))
        roles = dict(outcome.certificate.parts)
        part = roles["strictified-termination"]
        assert isinstance(part, NaturalMatrixCertificate) and part.dimension == 2


class TestOutcomeShape:
    def test_trivial_attempts_are_logged(self):
        outcome = prove(parse_system("(RULES a -> a, b ->= c)"))
        assert outcome.attempts[0].method == "trivial"
        assert outcome.attempts[0].outcome == "NO"

    def test_attempt_log_tells_the_story(self):
        outcome = prove(parse_system("(RULES a b -> a, c ->= b c)"))
        methods = [a.method for a in outcome.attempts]
        # S loops on its own, so strictification never applies
        assert "s-loop" in methods and "strictified-loop" not in methods
        assert methods[-1] == "mixed-loop"
        assert outcome.reason == "mixed loop"

    def test_strictified_weights_come_before_the_loop_search(self):
        # weights settle S and the strictified system, so no loop search runs
        outcome = prove(parse_system("(RULES a b -> a, b ->= )"))
        assert [(a.method, a.outcome) for a in outcome.attempts] == [
            ("s-weights", "found"),
            ("strictified-weights", "found"),
        ]

    def test_s_loop_runs_when_s_weights_fail(self):
        # S = {c -> b c} has no weights and loops on its own
        outcome = prove(parse_system("(RULES a b -> a, c ->= b c)"))
        assert [(a.method, a.outcome) for a in outcome.attempts][:2] == [
            ("s-weights", "none"),
            ("s-loop", "found"),
        ]

    def test_s_matrices_run_after_the_s_loop_search(self):
        # S = {a b -> b a} needs a matrix: weights, then the loop search fail
        outcome = prove(parse_system("(RULES a -> , a b ->= b a)"))
        methods = [a.method for a in outcome.attempts]
        assert methods[:3] == ["s-weights", "s-loop", "s-matrix-natural"]

    def test_strictified_loop_runs_when_weights_fail(self):
        outcome = prove(parse_system("(RULES a -> a b, b ->= )"))
        assert [(a.method, a.outcome) for a in outcome.attempts][-2:] == [
            ("strictified-weights", "none"),
            ("strictified-loop", "found"),
        ]

    def test_empty_s_runs_the_s_phase(self):
        # S is empty, so the empty weight vector proves SN(S) at once
        system = parse_system("(RULES a -> a b)")
        outcome = prove(system)
        assert [(a.method, a.outcome) for a in outcome.attempts] == [
            ("s-weights", "found"),
            ("strictified-weights", "none"),
            ("strictified-loop", "found"),
        ]
        assert is_mixed_loop(outcome.certificate)
        assert outcome.reason == "loop of R union S while S terminates"
        s_cert = search_weights(s_as_strict(system))
        assert s_cert == WeightCertificate({})
        # the empty weight vector survives serialization as a composite part
        parts = (("s-termination", s_cert), ("strictified-loop", outcome.certificate))
        cert = ComposeCertificate("NO", parts)
        data = json.loads(json.dumps(serialize_certificate(cert, system)))
        assert data["parts"][0]["certificate"] == {"type": "weights", "weights": {}}
        assert parse_certificate(data, system) == cert
        assert verify_certificate(cert, system)

    def test_prove_is_deterministic(self):
        text = "(RULES b a b -> a, c ->= c b, d ->= b d)"
        assert prove(parse_system(text)) == prove(parse_system(text))


class TestBudgets:
    UNSOLVED = "(RULES a c -> c c a, c ->= b a a b, b a a b ->= c)"

    def test_open_problem_is_a_maybe(self):
        outcome = prove(parse_system(self.UNSOLVED), SWEEP_BUDGET)
        assert outcome.verdict == "MAYBE"
        assert outcome.certificate is None
        assert outcome.reason == "no method conclusive within budget"
        assert any(a.method.startswith("matrix") for a in outcome.attempts)

    def test_expired_deadline_reports_timeout(self):
        system = parse_system("(RULES a b -> a, c ->= b c)")
        outcome = prove(system, SWEEP_BUDGET, deadline=time.monotonic())
        assert outcome.verdict == "MAYBE"
        assert outcome.reason == "timeout"
        # the first search looks at the deadline at its first node
        assert [(a.method, a.outcome) for a in outcome.attempts] == [
            ("s-weights", "deadline"),
            ("timeout", "hit"),
        ]

    # every letter x_i moves the first rule's total, so it has weight 0..16
    # before z meets its conflict, and the weight search's tree has 17^7
    # leaves; ->= z then z -> is a loop
    W6 = "(RULES x0 x1 x2 x3 x4 x5 ->= , z -> , ->= z)"

    def test_weight_search_stops_at_the_deadline(self):
        # the cap is lifted so that only the deadline can stop it
        start = time.monotonic()
        budget = ProveBudget(matrix_assignment_cap=10**9)
        outcome = prove(parse_system(self.W6), budget, deadline=start + 0.5)
        assert time.monotonic() - start < 3.0
        assert outcome.reason == "timeout"
        assert [(a.method, a.outcome) for a in outcome.attempts][-2:] == [
            ("weights", "deadline"),
            ("timeout", "hit"),
        ]

    def test_weight_search_stops_at_the_cap(self):
        outcome = prove(parse_system(self.W6))
        assert outcome.verdict == "NO" and is_loop(outcome.certificate)
        assert [(a.method, a.outcome) for a in outcome.attempts][-2:] == [
            ("weights", "cap"),
            ("mixed-loop", "found"),
        ]

    def test_letters_that_move_no_total_only_try_weight_zero(self):
        # x0..x5 occur as often on both sides of every rule, so only z
        # branches: the search ends in space exhausted, not at the cap
        system = parse_system("(RULES x0 x1 x2 x3 x4 x5 ->= x0 x1 x2 x3 x4 x5, z -> , ->= z)")
        report = SearchReport()
        start = time.monotonic()
        assert search_weights(system, report=report) is None
        assert report.stop == "none" and time.monotonic() - start < 1.0
        assert [(a.method, a.outcome) for a in prove(system).attempts][-2:] == [
            ("weights", "none"),
            ("mixed-loop", "found"),
        ]

    @pytest.mark.parametrize("short, verdict, logged", [
        (1, "MAYBE", ("mixed-loop", "cap")),
        (0, "NO", ("mixed-loop", "found")),
    ], ids=["one-node-short", "enough"])
    def test_loop_cut_by_node_budget_is_logged_cap(self, short, verdict, logged):
        # the budget the uncapped mixed-loop search needs, or one node less
        system = parse_system("(RULES b a b -> a, c ->= c b, d ->= b d)")
        b, uncapped = ProveBudget(), SearchReport()
        assert search_mixed_loop(
            system, b.loop_max_word_len, b.loop_max_steps,
            max_start_len=b.loop_max_start_len, report=uncapped,
        ) is not None
        outcome = prove(system, ProveBudget(loop_node_budget=uncapped.nodes - short))
        assert outcome.verdict == verdict
        assert logged in [(a.method, a.outcome) for a in outcome.attempts]

    def test_matrix_search_cut_by_assignment_cap_is_logged_cap(self):
        outcome = prove(parse_system("(RULES a b -> b a)"), ProveBudget(matrix_assignment_cap=3))
        assert outcome.verdict == "MAYBE"
        assert ("strictified-matrix-natural", "cap") in [
            (a.method, a.outcome) for a in outcome.attempts
        ]

    def test_budget_fields_shape_the_search(self):
        # a weights-only budget cannot settle the swap rule
        tiny = ProveBudget(matrix_max_dim=1)
        outcome = prove(parse_system("(RULES a b -> b a)"), tiny)
        assert outcome.verdict == "MAYBE"

    def test_deadline_stops_matrix_search(self):
        # exhaustive dimension-3 natural search on this size-6 MAYBE runs for
        # tens of seconds; the deadline has to cut it short.  Under the
        # default assignment cap it stops within a second, so it is lifted
        system = parse_system("(RULES a b -> b b a, b ->= )")
        budget = ProveBudget(matrix_max_dim=3, matrix_assignment_cap=10**9)
        start = time.monotonic()
        outcome = prove(system, budget, deadline=start + 1.0)
        assert time.monotonic() - start < 5.0
        assert outcome.verdict == "MAYBE" and outcome.reason == "timeout"
        assert outcome.attempts[-1].method == "timeout"
        # the cut search is not reported as having exhausted its space
        cut = outcome.attempts[-2]
        assert cut.method == "strictified-matrix-natural" and cut.outcome == "deadline"
        assert ("strictified-matrix-natural", "none") not in [
            (a.method, a.outcome) for a in outcome.attempts
        ]

    def test_sweep_budget_still_settles_the_fixtures(self):
        for text, verdict, _ in FIXTURES:
            outcome = prove(parse_system(text), SWEEP_BUDGET)
            assert outcome.verdict == verdict, text

    @pytest.mark.parametrize("search", [
        search_weights,
        search_matrix,
        search_mixed_loop,
        search_emitting_loop,
        find_looping_forward_closure,
    ], ids=lambda f: f.__name__)
    def test_every_search_takes_a_deadline_and_a_report(self, search):
        # prove and the CLI read why a search stopped from its report alone
        params = inspect.signature(search).parameters
        for name in ("deadline", "report"):
            assert params[name].kind is inspect.Parameter.KEYWORD_ONLY, name


class TestDirectLoopSearchAfterSN:
    """Once SN(S) is proven, prove runs no direct mixed-loop search: the
    strictified one has answered it (the lemma in the relsrs.term
    docstring).  Over every system whose S made strict has a weight or
    natural matrix certificate, the direct search finds nothing or the
    strictified search's certificate, finds nothing when that one does, and
    counts at least as many nodes, under every node budget, or ends at once
    when the rules a loop can use hold no strict rule."""

    @staticmethod
    def systems(config):
        for system in enumerate_systems(config):
            s = s_as_strict(system)
            if trivial_verdict(system) is None and (
                search_weights(s) is not None or search_matrix(s, "natural") is not None
            ):
                yield system

    @pytest.mark.parametrize("config, count", [
        (EnumerationConfig(2, 5), 455),
        (EnumerationConfig(3, 4), 88),
    ], ids=["2x5", "3x4"])
    def test_the_strictified_search_answers_the_direct_one(self, config, count):
        b = ProveBudget()
        systems = list(self.systems(config))
        assert len(systems) == count
        for node_budget in (100_000, 300, 40):
            bounds = dict(max_start_len=b.loop_max_start_len, node_budget=node_budget)
            for system in systems:
                direct, strictified = SearchReport(), SearchReport()
                cert = search_mixed_loop(
                    system, b.loop_max_word_len, b.loop_max_steps, **bounds, report=direct
                )
                expected = search_mixed_loop(
                    strictify(system), b.loop_max_word_len, b.loop_max_steps,
                    **bounds, report=strictified,
                )
                assert cert in (None, expected), system
                assert expected is not None or cert is None, system
                loop_rules = nonterm._loop_rules(nonterm._encoded_rules(enumerate(system.rules)))
                assert direct.nodes >= strictified.nodes or (
                    direct.nodes == 0 and not any(rule[5] for rule in loop_rules)
                ), system

    @pytest.mark.parametrize("text", [
        "(RULES a b -> b a a , b ->= )",
        "(RULES a b -> b b a , a ->= )",
        "(RULES a b -> b a a , a ->= )",
        "(RULES a b -> b b a , b ->= )",
    ])
    def test_size_6_maybes_search_for_loops_once(self, text):
        outcome = prove(parse_system(text))
        methods = [a.method for a in outcome.attempts]
        assert outcome.verdict == "MAYBE"
        assert "strictified-loop" in methods and "mixed-loop" not in methods


class TestSharedBudgetGap:
    """ROADMAP item 1: all start words share one node budget, and the
    empty word, tried first, spends it on the insertions of S.  The search
    from the empty word prunes nothing: every counter of the empty word is
    0, and no word falls below that."""

    SYSTEM = parse_system("(RULES a -> a b , ->= b , ->= c)")

    def test_one_step_loop_rechecks(self):
        system = self.SYSTEM
        loop = LoopCertificate("mixed", system.word("a"), (Step(0, 0),), (), system.word("b"))
        assert check_loop_certificate(loop, system)

    @pytest.mark.xfail(strict=True, reason="mixed-loop search caps out from the empty word")
    def test_prove_finds_the_loop(self):
        assert prove(self.SYSTEM).verdict == "NO"


class TestLastingCounterLoop:
    """The loop search drops a rule that lowers a letter no rule gives
    back, so a start that can only lose its letter no longer spends the
    node budget that a later start needs."""

    def test_prove_finds_the_loop_after_a_start_that_loses_its_letter(self):
        # a -> b lowers a, which no rule raises, so the search drops it and
        # the start b loops by b -> b b.  Searching every rule, the start a
        # alone spends the whole node budget and prove answers MAYBE
        system = parse_system("(RULES a -> b , b -> b b , ->= c)")
        result = prove(system)
        assert result.verdict == "NO"
        assert result.certificate == LoopCertificate(
            "mixed", system.word("b"), (Step(1, 0),), (), system.word("b")
        )
        assert verify_certificate(result.certificate, system)
        assert [(a.method, a.outcome) for a in result.attempts][-1] == ("mixed-loop", "found")


class TestInvariance:
    def test_letter_swap_and_reversal_keep_the_verdict(self):
        # every canonical two-letter system up to size 5
        systems = list(enumerate_systems(EnumerationConfig(2, 5)))
        assert len(systems) == 5821
        for system in systems:
            swapped = rename(system, (1, 0))
            verdict = prove(system).verdict
            assert prove(swapped).verdict == verdict, str(system)
            assert prove(reverse_system(system)).verdict == verdict, str(system)

    def test_every_letter_renaming_and_reversal_keep_the_verdict(self):
        # every canonical three-letter system up to size 4, under all six
        # letter permutations and the reversal
        systems = list(enumerate_systems(EnumerationConfig(3, 4)))
        assert len(systems) == 959
        renamings = list(itertools.permutations(range(3)))[1:]
        for system in systems:
            verdict = prove(system).verdict
            for name in renamings:
                assert prove(rename(system, name)).verdict == verdict, (str(system), name)
            assert prove(reverse_system(system)).verdict == verdict, str(system)

    def test_reversal_keeps_the_verdict_at_three_letters(self):
        # in some letter orders the arctic certificate lies beyond the
        # assignment cap unless the matrix search prunes prefixes on bounds
        for text in ("(RULES a b -> a, ->= c b)", "(RULES a b -> , ->= a c b)"):
            system = parse_system(text)
            for name in itertools.permutations(range(3)):
                renamed = rename(system, name)
                assert prove(renamed).verdict == "YES", (text, name)
                assert prove(reverse_system(renamed)).verdict == "YES", (text, name)


class TestWeakeningAudit:
    """SN(R/S) survives dropping a rule or making a strict rule relative, so
    a NO weakening of a YES system is a soundness bug, and one of a MAYBE
    system a search gap."""

    # the number of distinct weakenings of the YES and MAYBE systems
    @pytest.mark.parametrize("letters,max_size,proofs", [(2, 6, 2673), (3, 4, 136)])
    def test_no_yes_or_maybe_system_has_a_no_weakening(self, letters, max_size, proofs):
        verdicts: dict[RelSRS, str] = {}
        for system in enumerate_systems(EnumerationConfig(letters, max_size)):
            verdict = prove(system).verdict
            if verdict == "NO":
                continue
            for weaker in weakenings(system):
                if weaker not in verdicts:
                    verdicts[weaker] = prove(weaker).verdict
                assert verdicts[weaker] != "NO", f"{verdict} {system} has NO {weaker}"
        assert len(verdicts) == proofs


class TestDerivationBounds:
    """ROADMAP item 19's soundness oracle.  A YES certificate bounds the
    strict steps of every derivation from a word u: weights by w(u)/delta,
    delta the least strict decrease; natural matrices by [u](1,d); arctic
    ones by [u](1,1); empty R by 0.  A `strictified-termination` part bounds
    every step, delta taken over all rules.  The derivations are plain
    string rewriting (`oracles.derive`) and the bounds use the oracles'
    products, not relsrs.check.  Every system with a positive bound also has a derivation
    past half of it, so a certificate whose bound were halved would show a
    violation: the oracle is not vacuous."""

    # the YES systems up to size 5 that SWEEP_BUDGET proves with matrices,
    # and one with empty R
    OTHERS = [
        "(RULES a -> , a b ->= b a)",
        "(RULES a -> , b a ->= a b)",
        "(RULES a b -> b a , a ->= )",
        "(RULES a b -> b a , b ->= )",
        "(RULES a a -> , ->= b a b)",
        "(RULES a ->= b)",
    ]

    @staticmethod
    def bound(cert, system: RelSRS):
        """bound(u) for a word u, and whether it counts every step."""
        every = isinstance(cert, ComposeCertificate)
        if every:
            ((role, cert),) = cert.parts
            assert role == "strictified-termination"
        if isinstance(cert, EmptyRCertificate):
            return (lambda word: 0), every
        if isinstance(cert, WeightCertificate):
            weight = [cert.weights.get(name, 0) for name in system.letters]

            def value(word):
                return sum(weight[c] for c in word)

            delta = min(value(r.lhs) - value(r.rhs) for r in system.rules if every or r.strict)
            return (lambda word: value(word) / delta), every
        d = cert.dimension
        if isinstance(cert, NaturalMatrixCertificate):
            product, corner = nat_product, d - 1
            one = [[int(i == j) for j in range(d)] for i in range(d)]
        else:
            product, corner = arc_product, 0
            one = [[0 if i == j else float("-inf") for j in range(d)] for i in range(d)]
        mats = [cert.interp[name] for name in system.letters]
        return (lambda word: functools.reduce(product, (mats[c] for c in word), one)[0][corner]), every

    def check(self, system: RelSRS, outcome, max_len: int) -> tuple[tuple, int, bool]:
        """Runs the derivations from every word up to max_len letters and
        asserts the bound of the YES `outcome`; returns the certificate's
        (tag, kind), the number of derivations and whether one passed half
        its bound."""
        assert outcome.verdict == "YES", system
        bound, every = self.bound(outcome.certificate, system)
        rules = [("".join(map(chr, r.lhs)), "".join(map(chr, r.rhs)), r.strict) for r in system.rules]
        picks = (lambda rs: rs[0], lambda rs: rs[-1], random.Random(0).choice)
        runs, past_half = 0, False
        for n in range(1, max_len + 1):
            for word in itertools.product(range(len(system.letters)), repeat=n):
                most = bound(word)
                for pick in picks:
                    count = derive(rules, "".join(map(chr, word)), pick, most + 2, every)
                    assert count <= most, (system, word, count, most)
                    runs += 1
                    past_half |= 2 * count > most
        kind = type(outcome.certificate.parts[0][1] if every else outcome.certificate)
        return (("strictified-" if every else ""), kind), runs, past_half

    @pytest.mark.parametrize("config, max_len, systems, runs", [
        (EnumerationConfig(2, 4), 4, 121, 10_890),
        (EnumerationConfig(3, 4), 3, 162, 18_954),
    ], ids=["2x4", "3x4"])
    def test_yes_certificates_bound_every_derivation(self, config, max_len, systems, runs):
        outcomes = [(system, prove(system, SWEEP_BUDGET)) for system in enumerate_systems(config)]
        results = [self.check(*pair, max_len) for pair in outcomes if pair[1].verdict == "YES"]
        assert len(results) == systems and sum(r for _, r, _ in results) == runs
        assert all(past_half for _, _, past_half in results)

    def test_matrix_and_empty_r_certificates_bound_every_derivation(self):
        systems = map(parse_system, self.OTHERS)
        results = [self.check(system, prove(system, SWEEP_BUDGET), 4) for system in systems]
        kinds = [kind for kind, _, _ in results]
        assert kinds == [("strictified-", NaturalMatrixCertificate)] * 4 + [
            ("", ArcticMatrixCertificate), ("", EmptyRCertificate)
        ]
        assert [past_half for _, _, past_half in results] == [True] * 5 + [False]


@functools.lru_cache(maxsize=None)
def _sweep_digests(budget: ProveBudget) -> tuple[int, str, str]:
    """One prove sweep of every two-letter system up to size 5: the number
    of systems, the TestFrozenVerdicts digest and the TestFrozenAttemptLog
    digest.  The default-budget sweep serves both classes.  On the way it
    checks that every NO certificate is a plain mixed loop of the system."""
    verdicts, log = hashlib.sha256(), hashlib.sha256()
    count = 0
    for system in enumerate_systems(EnumerationConfig(2, 5)):
        outcome = prove(system, budget)
        if outcome.verdict == "NO":
            assert is_mixed_loop(outcome.certificate), system
            assert check_loop_certificate(outcome.certificate, system), system
        cert = outcome.certificate and serialize_certificate(outcome.certificate, system)
        verdicts.update(json.dumps([outcome.verdict, cert], sort_keys=True).encode() + b"\n")
        attempts = [[a.method, a.outcome, a.detail] for a in outcome.attempts]
        line = [outcome.verdict, cert, outcome.reason, attempts]
        log.update(json.dumps(line, sort_keys=True).encode() + b"\n")
        count += 1
    return count, verdicts.hexdigest(), log.hexdigest()


class TestFrozenVerdicts:
    """Verdicts and certificates of every two-letter system up to size 5.

    The digest was recorded when prove stopped wrapping a strictified loop
    in a NO composite (52 certificates became that plain loop), with this
    snippet:

        digest = hashlib.sha256()
        for system in enumerate_systems(EnumerationConfig(2, 5)):
            outcome = prove(system)
            cert = outcome.certificate and serialize_certificate(outcome.certificate, system)
            digest.update(json.dumps([outcome.verdict, cert], sort_keys=True).encode() + b"\\n")
        digest.hexdigest()
    """

    DIGEST = "40628a0b92114f0b0c31ddf928472c5f75f059614e8e746f1575212c06bd75ce"

    def test_default_budget_digest(self):
        count, digest, _ = _sweep_digests(ProveBudget())
        assert count == 5821
        assert digest == self.DIGEST


class TestFrozenAttemptLog:
    """Verdict, certificate, reason and every attempt line of every
    two-letter system up to size 5, under the default budget and under
    SWEEP_BUDGET.

    The digests were recorded when prove stopped wrapping a strictified
    loop in a NO composite (52 certificates per budget became that plain
    loop, every verdict, reason and attempt line stayed), with this snippet:

        digest = hashlib.sha256()
        for system in enumerate_systems(EnumerationConfig(2, 5)):
            outcome = prove(system, budget)
            cert = outcome.certificate and serialize_certificate(outcome.certificate, system)
            attempts = [[a.method, a.outcome, a.detail] for a in outcome.attempts]
            line = [outcome.verdict, cert, outcome.reason, attempts]
            digest.update(json.dumps(line, sort_keys=True).encode() + b"\\n")
        digest.hexdigest()
    """

    @pytest.mark.parametrize("budget, expected", [
        (ProveBudget(), "bde8630aafbcb6d51060ddb9e31917c0bc50b4795fb1a16e878428db0c420bcc"),
        (SWEEP_BUDGET, "d0213ec1810254d4e9789f2dedd14f21667baa587c88f262c4354f03bda1cae0"),
    ], ids=["default", "sweep"])
    def test_attempt_log_digest(self, budget, expected):
        count, _, digest = _sweep_digests(budget)
        assert count == 5821
        assert digest == expected


class TestTraceHooks:
    """perfbench's tracer wraps searches by their names in relsrs.term and
    relsrs.cli and matches one search span to each prove attempt, so prove
    and the CLI must call their searches through those module names."""

    @staticmethod
    def tracer():
        import importlib.util
        from pathlib import Path

        import relsrs

        path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("_relsrs_bench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        tracer = spans.Tracer()
        tracer.install(relsrs)
        return tracer

    def test_every_attempt_has_its_search_span(self):
        import relsrs.cli

        tracer = self.tracer()
        try:
            # S of the first extra system is open: every phase runs all four
            # methods.  S of the second terminates and its strictified phase
            # fails, so its direct phase has no loop attempt.
            extra = ["(RULES a -> , a b ->= b a a)", "(RULES a b -> b a a , b ->= )"]
            outcomes = [
                relsrs.cli.prove(parse_system(text))
                for text in [t for t, _, _ in FIXTURES] + extra
            ]
        finally:
            tracer.uninstall()
        assert relsrs.cli.prove is prove
        roles = [s.role for s in tracer.spans if s.role is not None]
        methods = [
            a.method for o in outcomes for a in o.attempts
            if a.method not in ("trivial", "timeout")
        ]
        assert roles == methods and "s-matrix-arctic" in methods
        assert "mixed-loop" not in [a.method for a in outcomes[-1].attempts]

    def test_loop_command_runs_both_searches(self, tmp_path, capsys):
        import relsrs.cli

        # no loop within word length 6, so both searches run
        path = tmp_path / "input.srs"
        path.write_text("(RULES a b -> a, b ->= )\n")
        tracer = self.tracer()
        try:
            code = tracer.cli_call(
                "loop", relsrs.cli.main, ["loop", str(path), "--max-word-len", "6"]
            )
        finally:
            tracer.uninstall()
        assert code == 1 and capsys.readouterr().out.splitlines()[0] == "MAYBE"
        searches = [(s.name, s.role) for s in tracer.spans if s.role is not None]
        assert searches == [
            ("nonterm.search_mixed_loop", "cli-loop"),
            ("nonterm.search_emitting_loop", "cli-loop"),
        ]
