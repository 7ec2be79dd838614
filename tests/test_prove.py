"""End-to-end prove() behavior on the strictification fixture set."""

import hashlib
import json
import time

import pytest

from relsrs import (
    SWEEP_BUDGET,
    ComposeCertificate,
    EmptyRCertificate,
    LoopCertificate,
    NaturalMatrixCertificate,
    EnumerationConfig,
    ProveBudget,
    RelSRS,
    Rule,
    WeightCertificate,
    enumerate_systems,
    parse_certificate,
    parse_system,
    prove,
    reverse_system,
    serialize_certificate,
    verify_certificate,
)


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


FIXTURES = [
    ("(RULES a b -> a, b ->= )", "YES", compose_roles("strictified-termination")),
    ("(RULES a b -> a, c ->= b c)", "NO", is_loop),
    ("(RULES a -> a b, b ->= )", "NO", compose_roles("s-termination", "strictified-loop")),
    ("(RULES b a b -> a, c ->= c b, d ->= b d)", "NO", is_loop),
    ("(RULES a ->= b)", "YES", is_empty_r),
    ("(RULES a -> a, b ->= c)", "NO", is_loop),
    ("(RULES  -> a, a ->= )", "NO", is_loop),
    ("(RULES a a -> a, a ->= a a)", "NO", is_loop),
    ("(RULES a -> , b ->= b)", "YES", is_weight),
    ("(RULES a b -> b a)", "YES", compose_roles("strictified-termination")),
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
]


class TestFixtureSet:
    @pytest.mark.parametrize("text,verdict,shape", FIXTURES, ids=IDS)
    def test_verdict_and_certificate(self, text, verdict, shape):
        system = parse_system(text)
        outcome = prove(system)
        assert outcome.verdict == verdict
        assert shape(outcome.certificate)
        assert verify_certificate(outcome.certificate, system)

    @pytest.mark.parametrize("text,verdict,shape", FIXTURES, ids=IDS)
    def test_certificates_survive_serialization(self, text, verdict, shape):
        system = parse_system(text)
        outcome = prove(system)
        data = serialize_certificate(outcome.certificate, system)
        back = parse_certificate(data, system)
        assert verify_certificate(back, system)
        assert serialize_certificate(back, system) == data

    def test_composite_parts_recheck_individually(self):
        system = parse_system("(RULES a -> a b, b ->= )")
        outcome = prove(system)
        roles = dict(outcome.certificate.parts)
        # the loop lives in the strictified system, the weights in S alone
        assert isinstance(roles["strictified-loop"], LoopCertificate)
        assert isinstance(roles["s-termination"], WeightCertificate)

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
        assert outcome.attempts[-1].method == "timeout"
        # S has no weights; the S loop search looks at the deadline before
        # its first word
        assert outcome.attempts[0].method == "s-weights"
        assert outcome.attempts[1].method == "s-loop"
        assert outcome.attempts[1].outcome == "deadline"

    @pytest.mark.parametrize("budget, verdict, logged", [
        (1719, "MAYBE", ("mixed-loop", "cap")),
        (1720, "NO", ("mixed-loop", "found")),
    ])
    def test_loop_cut_by_node_budget_is_logged_cap(self, budget, verdict, logged):
        system = parse_system("(RULES b a b -> a, c ->= c b, d ->= b d)")
        outcome = prove(system, ProveBudget(loop_node_budget=budget))
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
        # tens of seconds; the deadline has to cut it short
        system = parse_system("(RULES a b -> b b a, b ->= )")
        start = time.monotonic()
        outcome = prove(system, ProveBudget(matrix_max_dim=3), deadline=start + 1.0)
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


class TestInvariance:
    def test_letter_swap_and_reversal_keep_the_verdict(self):
        # every canonical two-letter system up to size 4
        systems = list(enumerate_systems(EnumerationConfig(2, 4)))
        assert len(systems) == 987
        for system in systems:
            swapped = RelSRS(system.letters, tuple(
                Rule(tuple(1 - c for c in r.lhs), tuple(1 - c for c in r.rhs), r.strict)
                for r in system.rules
            ))
            verdict = prove(system).verdict
            assert prove(swapped).verdict == verdict, str(system)
            assert prove(reverse_system(system)).verdict == verdict, str(system)


class TestFrozenVerdicts:
    """Verdicts and certificates of every two-letter system up to size 5.

    The digest was recorded before the strictified weights were moved ahead
    of the strictified loop search, with this snippet:

        digest = hashlib.sha256()
        for system in enumerate_systems(EnumerationConfig(2, 5)):
            outcome = prove(system)
            cert = outcome.certificate and serialize_certificate(outcome.certificate, system)
            digest.update(json.dumps([outcome.verdict, cert], sort_keys=True).encode() + b"\\n")
        digest.hexdigest()
    """

    DIGEST = "68f49a38a83c55c5632edc0cf8196feb4f1fafeb785acd4d9d6745d079d191da"

    def test_default_budget_digest(self):
        digest = hashlib.sha256()
        count = 0
        for system in enumerate_systems(EnumerationConfig(2, 5)):
            outcome = prove(system)
            cert = outcome.certificate and serialize_certificate(outcome.certificate, system)
            digest.update(json.dumps([outcome.verdict, cert], sort_keys=True).encode() + b"\n")
            count += 1
        assert count == 5821
        assert digest.hexdigest() == self.DIGEST


class TestTraceHooks:
    """perfbench's tracer wraps searches by their names in relsrs.term and
    relsrs.cli and matches one search span to each prove attempt, so prove
    must call its searches through those module names."""

    def test_every_attempt_has_its_search_span(self):
        import importlib.util
        from pathlib import Path

        import relsrs
        import relsrs.cli

        path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("_relsrs_bench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        tracer = spans.Tracer()
        tracer.install(relsrs)
        try:
            # S of the last system is open: every phase runs all four methods
            outcomes = [
                relsrs.cli.prove(parse_system(text))
                for text in [t for t, _, _ in FIXTURES] + ["(RULES a -> , a b ->= b a a)"]
            ]
        finally:
            tracer.uninstall()
        assert relsrs.cli.prove is prove
        roles = [s.role for s in tracer.spans if s.role is not None]
        methods = [
            a.method for o in outcomes for a in o.attempts
            if a.method not in ("trivial", "s-termination", "timeout")
        ]
        assert roles == methods and "s-matrix-arctic" in methods
