"""Weight and matrix certificate checkers, bounded search, composite verify."""

import ast
import gc
import hashlib
import json
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import product
from operator import mul
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import relsrs
from relsrs import (
    ArcticMatrixCertificate,
    Attempt,
    ComposeCertificate,
    EmptyRCertificate,
    EnumerationConfig,
    LoopCertificate,
    NaturalMatrixCertificate,
    ProveBudget,
    RelSRS,
    Rule,
    SearchReport,
    Step,
    WeightCertificate,
    check_loop_certificate,
    check_matrix,
    check_weights,
    enumerate_systems,
    find_looping_forward_closure,
    parse_certificate,
    parse_system,
    prove,
    search_emitting_loop,
    search_matrix,
    search_mixed_loop,
    search_weights,
    serialize_certificate,
    strictify,
    trivial_verdict,
    verify_certificate,
)
from relsrs.certificates import ARCTIC, NATURAL, NEG_INF, SEMIRINGS
from relsrs.check import CheckResult, _rule_fault
from relsrs.core import Derivation, replay, s_as_strict, strict_step_count, used_letters
from relsrs.nonterm import give_up, search_growth_witness
from relsrs.term import (
    _WITNESS_NODES, _FlatKernel, _Level, _last_candidates, _matrix_search, _SearchStop,
)

FIXTURES = Path(__file__).parent / "fixtures"
FRONTIER = Path(__file__).parent.parent / "perfbench" / "data" / "frontier"


def load_pair(stem):
    system = parse_system((FIXTURES / f"{stem}.srs").read_text())
    cert = parse_certificate(json.loads((FIXTURES / f"{stem}.cert").read_text()), system)
    return system, cert


def bump(cert, letter, i, j, value):
    """Return a copy of a matrix certificate with one entry replaced."""
    rows = [list(row) for row in cert.interp[letter]]
    rows[i][j] = value
    interp = dict(cert.interp)
    interp[letter] = tuple(tuple(row) for row in rows)
    return type(cert)(cert.dimension, interp)


AB_A = parse_system("(RULES a b -> a, b ->= )")


class TestWeightChecker:
    def test_valid(self):
        assert check_weights(WeightCertificate({"a": 0, "b": 1}), AB_A)

    def test_fractions_and_strings_are_normalized(self):
        sys = parse_system("(RULES b -> a)")
        assert check_weights(WeightCertificate({"a": "1/3", "b": 1}), sys)

    def test_strict_rule_must_decrease(self):
        res = check_weights(WeightCertificate({"a": 0, "b": 0}), AB_A)
        assert not res and "does not decrease" in res.reason

    def test_relative_rule_must_not_increase(self):
        sys = parse_system("(RULES a b -> a, a ->= b)")
        res = check_weights(WeightCertificate({"a": 0, "b": 1}), sys)
        assert not res and "increases" in res.reason

    def test_negative_weight_rejected(self):
        res = check_weights(WeightCertificate({"a": 0, "b": -1}), AB_A)
        assert not res and "negative weight" in res.reason

    def test_bool_weight_rejected(self):
        # True/False would pass as 1/0 through Fraction
        sys = parse_system("(RULES a -> b)")
        res = check_weights(WeightCertificate({"a": True, "b": False}), sys)
        assert not res and res.reason == "weight for letter 'a' must be a number"

    def test_missing_letter_reported(self):
        res = check_weights(WeightCertificate({"a": 0}), AB_A)
        assert not res and res.reason == "no weight for letter 'b'"

    def test_extra_letters_ignored(self):
        assert check_weights(WeightCertificate({"a": 0, "b": 1, "z": 7}), AB_A)


class TestCheckerWording:
    """The exact reason a failing certificate gets, for weights (integer
    and fractional) and for composites."""

    @pytest.mark.parametrize(
        "text, weights, reason",
        [
            ("(RULES a b -> a, b ->= )", {"a": 0, "b": 0},
             "strict rule a b -> a does not decrease (0 <= 0)"),
            ("(RULES a b -> a, a ->= b)", {"a": 0, "b": 1},
             "relative rule a ->= b increases (0 < 1)"),
            ("(RULES a -> b b)", {"a": "1/2", "b": "1/3"},
             "strict rule a -> b b does not decrease (1/2 <= 2/3)"),
            ("(RULES a -> , b ->= a a a)", {"a": "2/3", "b": "1/2"},
             "relative rule b ->= a a a increases (1/2 < 2)"),
            ("(RULES a a -> b)", {"a": "1/2", "b": 1},
             "strict rule a a -> b does not decrease (1 <= 1)"),
            ("(RULES b -> a a a, a ->= )", {"a": "1/6", "b": "1/4"},
             "strict rule b -> a a a does not decrease (1/4 <= 1/2)"),
            ("(RULES b -> a, a b ->= b b)", {"a": "2/3", "b": "3/4"},
             "relative rule a b ->= b b increases (17/12 < 3/2)"),
            ("(RULES -> a)", {"a": 0}, "strict rule -> a does not decrease (0 <= 0)"),
            ("(RULES a -> b, c ->= )", {"a": 2, "b": 1},
             "no weight for letter 'c'"),
            ("(RULES a -> b, b ->= c)", {"a": 2, "b": 3},
             "strict rule a -> b does not decrease (2 <= 3)"),
            ("(RULES a -> b, b c ->= c)", {"a": 2, "b": 1},
             "no weight for letter 'c'"),
            ("(RULES a -> b)", {"a": 1, "b": -1}, "negative weight for letter 'b'"),
            ("(RULES a -> b)", {"a": "1/2", "b": "-1/3"}, "negative weight for letter 'b'"),
        ],
    )
    def test_weights(self, text, weights, reason):
        system = parse_system(text)
        for cert in (
            WeightCertificate(weights),
            WeightCertificate({k: Fraction(v) for k, v in weights.items()}),
        ):
            res = check_weights(cert, system)
            assert (res.ok, res.reason) == (False, reason)
            assert verify_certificate(cert, system) == res

    def test_parsed_fractional_weights(self):
        system = parse_system("(RULES a -> b b, b ->= c c c)")
        data = {"type": "weights", "weights": {"a": "2/3", "b": "1/3", "c": "1/9"}}
        res = verify_certificate(parse_certificate(data, system), system)
        assert (res.ok, res.reason) == (False, "strict rule a -> b b does not decrease (2/3 <= 2/3)")
        data["weights"]["a"] = 1
        assert verify_certificate(parse_certificate(data, system), system)

    @pytest.mark.parametrize(
        "verdict, parts, reason",
        [
            ("YES", [("frobnicate", EmptyRCertificate())], "unknown composite role 'frobnicate'"),
            ("YES", [("s-termination", EmptyRCertificate()), ("frobnicate", EmptyRCertificate())],
             "part 's-termination': S is not empty"),
            ("NO", [("frobnicate", EmptyRCertificate()),
                    ("s-termination", WeightCertificate({}))],
             "unknown composite role 'frobnicate'"),
            ("YES", [("strictified-loop", WeightCertificate({"a": 1, "b": 0}))],
             "part 'strictified-loop': strictified-loop part must be a mixed loop"),
            ("YES", [("s-termination", WeightCertificate({"b": 1}))],
             "YES composite needs a strictified-termination part"),
            ("YES", [("s-termination", WeightCertificate({"b": 0}))],
             "part 's-termination': strict rule b -> does not decrease (0 <= 0)"),
            ("YES", [("strictified-termination", WeightCertificate({"a": 1, "b": 0}))],
             "part 'strictified-termination': strict rule a b -> a does not decrease (1 <= 1)"),
            ("NO", [("s-termination", WeightCertificate({"b": 1}))],
             "NO composite needs s-termination and strictified-loop parts"),
            ("NO", [("strictified-loop", LoopCertificate("mixed", (0, 1), (Step(0, 0),), (), ()))],
             "part 'strictified-loop': final word a does not match the claimed split "
             "u.v.w = (empty) . a b . (empty)"),
            ("NO", [("strictified-loop", LoopCertificate("mixed", (0,), (Step(0, 0),), (), ()))],
             "part 'strictified-loop': replay failed: step 0: "
             "position 0 out of range for |word|=1, |lhs|=2"),
            ("MAYBE", [("s-termination", WeightCertificate({"b": 1}))],
             "composite verdict must be YES or NO, got 'MAYBE'"),
        ],
    )
    def test_compose(self, verdict, parts, reason):
        res = verify_certificate(ComposeCertificate(verdict, tuple(parts)), AB_A)
        assert (res.ok, res.reason) == (False, reason)


class TestWeightSearch:
    def test_finds_and_verifies(self):
        cert = search_weights(AB_A)
        assert cert is not None
        assert check_weights(cert, AB_A)
        assert Fraction(cert.weights["b"]) >= 1

    def test_zero_delta_strict_rule_is_hopeless(self):
        # ab -> ba keeps every letter count, no weight assignment can work
        assert search_weights(parse_system("(RULES a b -> b a)")) is None

    def test_contradictory_rules(self):
        assert search_weights(parse_system("(RULES a -> b, b ->= a)")) is None

    def test_respects_max_weight(self):
        assert search_weights(AB_A, max_weight=0) is None

    def test_only_used_letters_appear(self):
        sys = type(AB_A)(("a", "b", "z"), AB_A.rules)
        cert = search_weights(sys)
        assert cert is not None and set(cert.weights) == {"a", "b"}

    def test_assignment_cap_is_reported(self):
        report = SearchReport()
        assert search_weights(AB_A, assignment_cap=0, report=report) is None
        assert report.stop == "cap"

    def test_expired_deadline_gives_up(self):
        report = SearchReport()
        assert search_weights(AB_A, deadline=time.monotonic() - 1, report=report) is None
        assert report.stop == "deadline"

    def test_exhausted_search_is_not_capped(self):
        report = SearchReport()
        assert search_weights(parse_system("(RULES a b -> b a)"), report=report) is None
        assert report.stop == "none"


def first_fit_weights(system, max_weight):
    """Brute-force oracle: the first vector in itertools.product order over
    the letters used in rules that every rule accepts.

    One early exit: non-negative weights never orient a strict rule whose
    letter-count differences are all <= 0, since its lhs weight minus its
    rhs weight is then a sum of terms <= 0 and cannot reach 1."""
    used = sorted({c for rule in system.rules for c in rule.lhs + rule.rhs})
    # a rule holds when lhs weight - rhs weight reaches 1 (strict) or 0
    rules = [
        ([r.lhs.count(c) - r.rhs.count(c) for c in used], 1 if r.strict else 0)
        for r in system.rules
    ]
    if any(need and all(d <= 0 for d in delta) for delta, need in rules):
        return None
    for vec in product(range(max_weight + 1), repeat=len(used)):
        if all(sum(map(mul, vec, delta)) >= need for delta, need in rules):
            return WeightCertificate({system.letters[c]: Fraction(w) for c, w in zip(used, vec)})
    return None


def dfs_weights(
    system: RelSRS,
    max_weight: int = ProveBudget.max_weight,
    *,
    assignment_cap: int = ProveBudget.matrix_assignment_cap,
    deadline=None,
    report=None,
):
    """Reference: the weight search that tries every weight of a letter
    and lets each child test its own reach bound.  Every partial vector is
    a node that checks the cap and the deadline, then its reach bound."""
    used = used_letters(system)
    n = len(used)
    deltas = [[rule.lhs.count(c) - rule.rhs.count(c) for c in used] for rule in system.rules]
    need = [1 if rule.strict else 0 for rule in system.rules]
    moves = [any(delta[k] for delta in deltas) for k in range(n)]
    # reach[k][j]: the most the letters used[k:] can add to rule j's total
    reach = [
        [max_weight * sum(max(0, x) for x in delta[k:]) for delta in deltas]
        for k in range(n + 1)
    ]

    nodes = 0

    def first(k: int, totals: list[int]):
        nonlocal nodes
        nodes += 1
        if nodes > assignment_cap or (deadline is not None and time.monotonic() >= deadline):
            raise _SearchStop()
        if any(t + r < m for t, r, m in zip(totals, reach[k], need)):
            return None
        if k == n:
            return []
        for w in range(max_weight + 1 if moves[k] else 1):
            rest = first(k + 1, [t + w * delta[k] for t, delta in zip(totals, deltas)])
            if rest is not None:
                return [w] + rest
        return None

    try:
        vec = first(0, [0] * len(deltas))
    except _SearchStop:
        vec = give_up(report, "cap" if nodes > assignment_cap else "deadline")
    finally:
        del first  # it refers to itself: free it now, not at the next collection
    if report is not None:
        report.nodes += nodes
    if vec is None:
        return None
    return WeightCertificate({system.letters[c]: Fraction(w) for c, w in zip(used, vec)})


def variants(system):
    """The system as is, with every rule strict, and its relative rules
    alone made strict: the three systems prove hands to search_weights."""
    return system, strictify(system), s_as_strict(system)


class TestWeightSearchOracle:
    @pytest.mark.parametrize("alphabet", [2, 3])
    def test_pruned_search_equals_first_fit(self, alphabet):
        seen = set()
        for system in enumerate_systems(EnumerationConfig(alphabet, 4)):
            for case in variants(system):
                for max_weight in (0, 1, 2, 8, 16):
                    if (case, max_weight) in seen:
                        continue
                    seen.add((case, max_weight))
                    expected = first_fit_weights(case, max_weight)
                    assert search_weights(case, max_weight) == expected, (str(case), max_weight)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 3), max_size=4),
                st.lists(st.integers(0, 3), max_size=4),
                st.booleans(),
            ),
            min_size=1,
            max_size=5,
        ),
        st.integers(0, 6),
        st.none() | st.integers(0, 400),
    )
    # b -> a caps a's weight below max_weight, and a ->= b then fails below it
    @example([([1], [0], True), ([0], [1], False)], 3, None)
    # a -> b b needs a >= 1; a cap of 1 is crossed by the skipped weight 0
    @example([([0], [1, 1], True)], 2, 1)
    # ... and b ->= a a a then caps it at 1: both ends of the interval bite
    @example([([0], [1, 1], True), ([1], [0, 0, 0], False)], 4, None)
    # a b -> b a keeps every count: hopeless for every weight
    @example([([0, 1], [1, 0], True), ([0], [], False)], 2, None)
    # c has delta 0 in every rule, so it only takes weight 0
    @example([([2, 0], [2], True), ([2, 0, 0], [2, 1], False)], 4, None)
    def test_random_rule_sets_equal_first_fit(self, rules, max_weight, cap):
        system = RelSRS(
            ("a", "b", "c", "d"),
            tuple(Rule(tuple(lhs), tuple(rhs), strict) for lhs, rhs, strict in rules),
        )
        cert = search_weights(system, max_weight)
        assert cert == first_fit_weights(system, max_weight)
        if cert is not None:
            assert check_weights(cert, system)
        caps = {} if cap is None else {"assignment_cap": cap}
        got, want = SearchReport(), SearchReport()
        found = search_weights(system, max_weight, **caps, report=got)
        expected = dfs_weights(system, max_weight, **caps, report=want)
        assert (found, got.stop, got.nodes) == (expected, want.stop, want.nodes)


class TestFrozenWeightResults:
    # 11,952 searches, 5,444 certificates, 57 capped (all at the cap of 40)
    DIGEST = "f06c1bb28771d3e540d22ddd31aa0401c0b5fcb60083ecb367bf07153dce6649"

    def test_small_system_results_are_unchanged(self):
        """The weight search at (max_weight, assignment_cap) = (16, 500,000),
        (8, 20,000) and (16, 40) on every non-trivial system of
        `EnumerationConfig(2, 5)` and `(3, 4)` as is, strictified, and with
        S alone made strict; the last cap falls inside many searches.
        DIGEST was made by this snippet:

            h = hashlib.sha256()
            for config in (EnumerationConfig(2, 5), EnumerationConfig(3, 4)):
                for system in enumerate_systems(config):
                    if trivial_verdict(system) is not None:
                        continue
                    s_only = RelSRS(system.letters, tuple(
                        Rule(r.lhs, r.rhs, True) for r in system.relative_rules))
                    for form in (system, strictify(system), s_only):
                        for max_weight, cap in ((16, 500_000), (8, 20_000), (16, 40)):
                            report = SearchReport()
                            cert = search_weights(form, max_weight,
                                                  assignment_cap=cap, report=report)
                            data = None if cert is None else serialize_certificate(cert, form)
                            h.update(json.dumps([data, report.stop, report.nodes],
                                                sort_keys=True).encode() + b"\n")
            h.hexdigest()
        """
        h = hashlib.sha256()
        searches = found = capped = 0
        for config in (EnumerationConfig(2, 5), EnumerationConfig(3, 4)):
            for form in TestFrozenMatrixResults.forms(config):
                for max_weight, cap in ((16, 500_000), (8, 20_000), (16, 40)):
                    report = SearchReport()
                    cert = search_weights(form, max_weight, assignment_cap=cap, report=report)
                    data = None if cert is None else serialize_certificate(cert, form)
                    h.update(TestFrozenMatrixResults.report_line(data, report))
                    searches += 1
                    found += cert is not None
                    capped += report.stop == "cap"
        assert (searches, found, capped) == (11_952, 5_444, 57)
        assert h.hexdigest() == self.DIGEST


class TestNaturalChecker:
    def test_fixture_certificate_verifies(self):
        system, cert = load_pair("rel12")
        assert cert.dimension == 5
        assert check_matrix(cert, system)

    def test_fixture_mutation_rejected(self):
        system, cert = load_pair("rel12")
        res = check_matrix(bump(cert, "b", 1, 2, 0), system)
        assert not res
        assert res.reason == "rule b p b -> a b a p b a: entry (1,3) 0 < 3"

    def test_certificate_against_wrong_system(self):
        other, _ = load_pair("rel11")
        _, cert = load_pair("rel12")
        res = check_matrix(cert, other)
        assert not res
        assert res.reason == "rule b p b -> b a p b: entry (1,2) 2 < 3"

    def test_first_corner_condition(self):
        sys = parse_system("(RULES a a -> a)")
        cert = NaturalMatrixCertificate(2, {"a": ((0, 1), (0, 1))})
        res = check_matrix(cert, sys)
        assert not res and res.reason == "matrix for 'a' has entry (1,1) = 0 < 1"

    def test_second_corner_condition_blocks_unsound_certificate(self):
        # Without the (d,d) >= 1 requirement this interpretation would pass
        # every inequality, yet the system loops: b c ->= a c -> b c.
        sys = parse_system("(RULES a -> b, b c ->= a c)")
        cert = NaturalMatrixCertificate(
            2,
            {
                "a": ((1, 2), (0, 1)),
                "b": ((1, 1), (0, 1)),
                "c": ((1, 0), (0, 0)),
            },
        )
        res = check_matrix(cert, sys)
        assert not res and res.reason == "matrix for 'c' has entry (2,2) = 0 < 1"
        loop = LoopCertificate("mixed", sys.word("b c"), (Step(1, 0), Step(0, 0)), (), ())
        assert check_loop_certificate(loop, sys)

    def test_strict_corner_must_be_strict(self):
        sys = parse_system("(RULES a -> b)")
        cert = NaturalMatrixCertificate(1, {"a": ((1,),), "b": ((1,),)})
        res = check_matrix(cert, sys)
        assert not res and res.reason == "strict rule a -> b: corner (1,1) 1 <= 1"

    def test_dimension_one(self):
        sys = parse_system("(RULES a a -> a)")
        assert check_matrix(NaturalMatrixCertificate(1, {"a": ((2,),)}), sys)

    def test_empty_word_maps_to_identity(self):
        # a ->= empty asks for [a] >= I, which [[1]] satisfies
        sys = parse_system("(RULES b -> , a ->= )")
        cert = NaturalMatrixCertificate(1, {"a": ((1,),), "b": ((2,),)})
        assert check_matrix(cert, sys)

    def test_empty_lhs_strict_rule_never_passes(self):
        sys = parse_system("(RULES  -> a)")
        res = check_matrix(NaturalMatrixCertificate(1, {"a": ((1,),)}), sys)
        assert not res and "corner" in res.reason

    def test_shape_and_entry_validation(self):
        sys = parse_system("(RULES a a -> a)")
        bad_shape = NaturalMatrixCertificate(2, {"a": ((1, 0),)})
        assert "not 2x2" in check_matrix(bad_shape, sys).reason
        bad_bool = NaturalMatrixCertificate(1, {"a": ((True,),)})
        assert "bad entry True" in check_matrix(bad_bool, sys).reason
        negative = NaturalMatrixCertificate(1, {"a": ((-1,),)})
        assert "bad entry -1" in check_matrix(negative, sys).reason
        zero_dim = NaturalMatrixCertificate(0, {})
        assert "dimension" in check_matrix(zero_dim, sys).reason

    def test_missing_matrix_reported(self):
        res = check_matrix(NaturalMatrixCertificate(1, {"a": ((1,),)}), AB_A)
        assert not res and res.reason == "no matrix for letter 'b'"

    def test_renaming_letters_preserves_validity(self):
        system, cert = load_pair("rel12")
        renamed = type(system)(("x", "y", "z"), system.rules)
        names = dict(zip(system.letters, renamed.letters))
        moved = NaturalMatrixCertificate(
            cert.dimension, {names[k]: m for k, m in cert.interp.items()}
        )
        assert check_matrix(moved, renamed)


N = NEG_INF


class TestArcticChecker:
    def test_fixture_certificate_verifies(self):
        system, cert = load_pair("rel11")
        assert cert.dimension == 4
        assert check_matrix(cert, system)

    def test_fixture_mutation_rejected(self):
        system, cert = load_pair("rel11")
        res = check_matrix(bump(cert, "p", 1, 2, 0), system)
        assert not res
        assert res.reason == "rule b p b -> b a p b: entry (1,1) violates >> (0 vs 0)"

    def test_letter_needs_finite_first_corner(self):
        sys = parse_system("(RULES a a -> a)")
        for corner in (N, -1):
            cert = ArcticMatrixCertificate(1, {"a": ((corner,),)})
            res = check_matrix(cert, sys)
            assert not res and "finite entry (1,1) >= 0" in res.reason

    def test_weak_violation(self):
        sys = parse_system("(RULES b -> a, a ->= b)")
        cert = ArcticMatrixCertificate(1, {"a": ((0,),), "b": ((1,),)})
        res = check_matrix(cert, sys)
        assert not res
        assert res.reason == "rule a ->= b: entry (1,1) violates >= (0 vs 1)"

    def test_strict_needs_real_increase(self):
        sys = parse_system("(RULES a -> b)")
        cert = ArcticMatrixCertificate(1, {"a": ((0,),), "b": ((0,),)})
        res = check_matrix(cert, sys)
        assert not res
        assert res.reason == "rule a -> b: entry (1,1) violates >> (0 vs 0)"

    def test_minus_infinity_dominates_minus_infinity(self):
        # entries that are -inf on both sides satisfy the strict comparison
        sys = parse_system("(RULES a b -> b)")
        cert = ArcticMatrixCertificate(
            2, {"a": ((1, N), (N, N)), "b": ((0, N), (N, N))}
        )
        assert check_matrix(cert, sys)

    def test_shape_and_entry_validation(self):
        sys = parse_system("(RULES a a -> a)")
        bad_bool = ArcticMatrixCertificate(1, {"a": ((True,),)})
        assert "bad entry True" in check_matrix(bad_bool, sys).reason
        bad_shape = ArcticMatrixCertificate(2, {"a": ((0, N),)})
        assert "not 2x2" in check_matrix(bad_shape, sys).reason
        res = check_matrix(ArcticMatrixCertificate(1, {"a": ((0,),)}), AB_A)
        assert res.reason == "no matrix for letter 'b'"


class TestClaimedDimension:
    """A certificate with no letter matrix claims a dimension it never
    shows; the checker must not build an identity of that size."""

    @pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
    @pytest.mark.parametrize(
        "text, reason",
        [
            ("(RULES ->= )", ""),
            ("(RULES -> )", "rule ->: "),
            ("(RULES ->= , a -> b)", "no matrix for letter 'a'"),
        ],
    )
    def test_huge_dimension_returns_at_once(self, semiring, text, reason):
        system = parse_system(text)

        def check(d):
            data = {"type": semiring.tag, "dimension": d, "matrices": {}}
            return verify_certificate(parse_certificate(data, system), system)

        t0 = time.perf_counter()
        res = check(10**9)
        assert time.perf_counter() - t0 < 1.0
        assert bool(res) == (not reason) and reason in res.reason
        # the verdict of a small dimension, where the identity can be built
        assert bool(res) == bool(check(3))


class TestDimensionOneOracle:
    def test_natural_d1_agrees_with_products(self):
        # at dimension 1 the conditions collapse to integer products, which
        # we can recompute directly
        sys = parse_system("(RULES a a -> a, b ->= a)")
        for va in range(4):
            for vb in range(4):
                cert = NaturalMatrixCertificate(1, {"a": ((va,),), "b": ((vb,),)})
                expected = (
                    va >= 1
                    and vb >= 1
                    and va * va >= va
                    and va * va > va
                    and vb >= va
                )
                assert bool(check_matrix(cert, sys)) == expected, (va, vb)

    def test_arctic_d1_agrees_with_sums(self):
        # at dimension 1 max-plus is integer addition: letters need a finite
        # value >= 0 and every rule compares the sums of its sides
        sys = parse_system("(RULES a a -> a, b ->= a)")
        values = (None, NEG_INF, -1, 0, 1, 2)
        for va in values:
            for vb in values:
                cert = ArcticMatrixCertificate(1, {"a": ((va,),), "b": ((vb,),)})
                expected = (
                    va is not None
                    and vb is not None
                    and va >= 0
                    and vb >= 0
                    and va + va > va
                    and vb >= va
                )
                assert bool(check_matrix(cert, sys)) == expected, (va, vb)


class TestMatrixSearch:
    def test_natural_finds_swap_rule(self):
        sys = parse_system("(RULES a b -> b a)")
        cert = search_matrix(sys, "natural")
        assert cert is not None and cert.dimension == 2
        assert check_matrix(cert, sys)

    def test_search_is_deterministic(self):
        sys = parse_system("(RULES a b -> b a)")
        assert search_matrix(sys, "natural") == search_matrix(sys, "natural")

    def test_arctic_dimension_one(self):
        sys = parse_system("(RULES a b -> b)")
        cert = search_matrix(sys, "arctic")
        assert isinstance(cert, ArcticMatrixCertificate) and cert.dimension == 1
        assert check_matrix(cert, sys)

    def test_dimension_cap(self):
        # scalar products commute, so the swap rule has no d=1 certificate
        sys = parse_system("(RULES a b -> b a)")
        assert search_matrix(sys, "natural", max_dim=1) is None

    def test_assignment_cap_gives_up(self):
        sys = parse_system("(RULES a b -> b a)")
        assert search_matrix(sys, "natural", assignment_cap=0) is None

    def test_assignment_cap_is_reported(self):
        sys = parse_system("(RULES a b -> b a)")
        report = SearchReport()
        assert search_matrix(sys, "natural", assignment_cap=0, report=report) is None
        assert report.stop == "cap"
        # a search that runs out of space without reaching the cap is not capped
        report = SearchReport()
        assert search_matrix(sys, "natural", max_dim=1, report=report) is None
        assert report.stop == "none"

    def test_entry_bound_can_make_search_fail(self):
        # natural letters need a positive corner, max_entry=0 leaves nothing
        sys = parse_system("(RULES a a -> a)")
        assert search_matrix(sys, "natural", max_entry=0) is None

    def test_unknown_semiring(self):
        with pytest.raises(ValueError):
            search_matrix(AB_A, "tropical")

    def test_arctic_certificates_hold_ints_and_minus_infinity(self):
        # every entry of a found arctic matrix is an int or NEG_INF, the
        # checker's own encoding: over the two-letter systems up to size 4,
        # all settled at d = 1, and a size-5 system that needs d = 2
        systems = [
            s for s in enumerate_systems(EnumerationConfig(2, 4)) if trivial_verdict(s) is None
        ]
        systems.append(parse_system("(RULES a a -> , b ->= a a)"))
        entries = []
        for system in systems:
            cert = search_matrix(system, "arctic", 2, 1, assignment_cap=3000)
            if cert is not None:
                entries += [x for m in cert.interp.values() for row in m for x in row]
        assert all(type(x) is int or x == NEG_INF for x in entries)
        assert NEG_INF in entries

    def test_higher_dimension_returns_the_dimension_two_certificate(self):
        sys = parse_system("(RULES a b -> b a)")
        two = search_matrix(sys, "natural", max_dim=2)
        assert two is not None and two.dimension == 2
        assert search_matrix(sys, "natural", max_dim=3) == two


class TestFrozenMatrixResults:
    # recorded with the nested-tuple search: 3402 searches, 1598
    # certificates, 664 capped.  Since a strict rule with an empty lhs ends
    # the search before its first assignment, 430 of those capped searches,
    # each on a form with such a rule and each without a certificate, end
    # `none`: 234 capped.  Since the search prunes a prefix on its rules'
    # bounds, 91 more end `none` and one finds a certificate, the natural
    # d = 3 one of {a a -> , b -> a}: 142 capped.  Every certificate found
    # before came back unchanged.
    DIGEST = "8d398c9cdc2c8f80e8316ca0f47a10d00427a5ff611c99d8b6ee89353b157277"
    # each search's certificate, why it stopped and how many assignments it
    # visited, recorded once the search pruned prefixes on their bounds
    REPORT_DIGEST = "65b6d890442b94657dffa464f3546a5c6eb830e692fc19877003d5b95dda414b"
    # recorded alike: 27 of the 32 searches capped before end `none`
    THREE_LETTER_DIGEST = "8a85a578f448bdbc6e9f10816a057be82501c1033bf06d9650d3e5ba0fcd9f12"

    def test_size_four_results_are_unchanged(self):
        """Both semirings at (max_dim, max_entry) = (2, 1) and (2, 2) under
        an assignment cap of 3,000, and at (3, 1) under a cap of 500, on
        every non-trivial two-letter system up to size 4 as is, strictified,
        and with S alone made strict.  DIGEST was made by this snippet, and
        REPORT_DIGEST by hashing `[data, report.stop, report.nodes]` instead:

            h = hashlib.sha256()
            for system in enumerate_systems(EnumerationConfig(2, 4)):
                if trivial_verdict(system) is not None:
                    continue
                s_only = RelSRS(system.letters, tuple(
                    Rule(r.lhs, r.rhs, True) for r in system.relative_rules))
                for form in (system, strictify(system), s_only):
                    for semiring in ("natural", "arctic"):
                        for max_dim, max_entry, cap in ((2, 1, 3000), (2, 2, 3000), (3, 1, 500)):
                            report = SearchReport()
                            cert = _matrix_search(form, semiring, max_dim, max_entry,
                                                  assignment_cap=cap, report=report)
                            data = None if cert is None else serialize_certificate(cert, form)
                            h.update(json.dumps([data, report.stop == "cap"], sort_keys=True)
                                     .encode()
                                     + b"\n")
            h.hexdigest()
        """
        h, reports = hashlib.sha256(), hashlib.sha256()
        searches = found = capped = 0
        for form in self.forms(EnumerationConfig(2, 4)):
            for semiring in ("natural", "arctic"):
                for max_dim, max_entry, cap in ((2, 1, 3000), (2, 2, 3000), (3, 1, 500)):
                    report = SearchReport()
                    cert = _matrix_search(
                        form, semiring, max_dim, max_entry, assignment_cap=cap, report=report
                    )
                    data = None if cert is None else serialize_certificate(cert, form)
                    is_capped = report.stop == "cap"
                    h.update(json.dumps([data, is_capped], sort_keys=True).encode() + b"\n")
                    reports.update(self.report_line(data, report))
                    searches += 1
                    found += cert is not None
                    capped += is_capped
        assert (searches, found, capped) == (3402, 1599, 142)
        assert h.hexdigest() == self.DIGEST
        assert reports.hexdigest() == self.REPORT_DIGEST

    def test_three_letter_size_four_reports_are_unchanged(self):
        """Both semirings at (max_dim, max_entry) = (2, 1) under a cap of
        5,000 on the same forms of every non-trivial three-letter system up
        to size 4, whose rules can hold runs of two earlier letters."""
        h = hashlib.sha256()
        searches = found = capped = 0
        for form in self.forms(EnumerationConfig(3, 4)):
            for semiring in ("natural", "arctic"):
                report = SearchReport()
                cert = _matrix_search(form, semiring, 2, 1, assignment_cap=5000, report=report)
                data = None if cert is None else serialize_certificate(cert, form)
                h.update(self.report_line(data, report))
                searches += 1
                found += cert is not None
                capped += report.stop == "cap"
        assert (searches, found, capped) == (1152, 642, 5)
        assert h.hexdigest() == self.THREE_LETTER_DIGEST

    @staticmethod
    def forms(config):
        """Each non-trivial system as is, strictified, and with S alone made strict."""
        for system in enumerate_systems(config):
            if trivial_verdict(system) is not None:
                continue
            yield from (system, strictify(system), s_as_strict(system))

    @staticmethod
    def report_line(data, report):
        return json.dumps([data, report.stop, report.nodes], sort_keys=True).encode() + b"\n"


def entry_pool(semiring, max_entry):
    """The search's entries up to max_entry, in search order."""
    if semiring is NATURAL:
        return list(range(max_entry + 1))
    return [NEG_INF, *range(-1, max_entry + 1)]


def pool_matrices(semiring, d, count):
    """`count` d x d matrices over the semiring's search pool for entries
    up to 3, minus infinity included for arctic."""
    entry = st.sampled_from(entry_pool(semiring, 3))
    row = st.tuples(*[entry] * d)
    return st.lists(st.tuples(*[row] * d), min_size=count, max_size=count)


def flatten(m):
    return tuple(x for row in m for x in row)


def rows_of(flat, d):
    return tuple(flat[i : i + d] for i in range(0, d * d, d))


class TestCandidates:
    @pytest.mark.parametrize("d,max_entry", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)])
    @pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
    def test_rows_filtered_equal_matrices_filtered(self, semiring, d, max_entry):
        # the checker's letter condition on whole matrices is the reference
        rows = list(product(entry_pool(semiring, max_entry), repeat=d))
        expected = [
            m for m in product(rows, repeat=d) if semiring.letter_fault(m, d) is None
        ]
        made = list(_FlatKernel(semiring, d, max_entry).candidates)
        assert [rows_of(flat, d) for flat in made] == expected
        assert made == [flatten(m) for m in expected]


def staged_test(semiring, d, flats, letter):
    """holds(rule): the matrix search's test of a rule at the level of
    `letter`, every other letter in `flats` being assigned earlier."""
    kernel = _FlatKernel(semiring, d, 3)
    # the prefix does not hold the current letter
    prefix = [None if c == letter else flat for c, flat in enumerate(flats)]

    def holds(rule):
        level = _Level(kernel, letter, [rule])
        entry = level.entry(flats[letter])
        return entry is not None and level.enter(prefix)(entry)

    return holds


class TestFlatKernel:
    """The matrix search's own arithmetic against the checker's."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_rule_test_agrees_with_the_checker(self, data):
        semiring = data.draw(st.sampled_from(SEMIRINGS))
        d = data.draw(st.integers(1, 4))
        mats = data.draw(pool_matrices(semiring, d, 3))
        word = st.lists(st.integers(0, 2), max_size=4).map(tuple)
        rule = Rule(data.draw(word), data.draw(word), data.draw(st.booleans()))
        letter = data.draw(st.sampled_from(sorted(set(rule.lhs + rule.rhs)) or [0]))
        holds = staged_test(semiring, d, [flatten(m) for m in mats], letter)
        fault = _rule_fault(rule, dict(enumerate(mats)), semiring, d, semiring.identity(d))
        assert holds(rule) == (fault is None)

    # letters 0, 1, 2 with 1 current: runs of earlier letters before, after
    # and between runs of the current letter, one-letter rules, empty sides
    @pytest.mark.parametrize(
        "lhs, rhs",
        [
            ((0, 1), (1, 1, 0)),
            ((2, 0, 0, 1, 1, 2, 0), (0, 1, 2)),
            ((1, 2, 1), (1, 1, 1, 0)),
            ((1, 1), ()),
            ((), (1,)),
            ((0, 2), (1,)),
            ((), (0, 1, 0)),
        ],
    )
    @pytest.mark.parametrize("strict", [False, True])
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_rule_shapes_agree_with_the_checker(self, lhs, rhs, strict, data):
        semiring = data.draw(st.sampled_from(SEMIRINGS))
        d = data.draw(st.integers(1, 4))
        mats = data.draw(pool_matrices(semiring, d, 3))
        rule = Rule(lhs, rhs, strict)
        holds = staged_test(semiring, d, [flatten(m) for m in mats], 1)
        fault = _rule_fault(rule, dict(enumerate(mats)), semiring, d, semiring.identity(d))
        assert holds(rule) == (fault is None)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_flat_product_equals_the_semiring_product(self, data):
        semiring = data.draw(st.sampled_from(SEMIRINGS))
        d = data.draw(st.integers(1, 4))
        a, b = data.draw(pool_matrices(semiring, d, 2))
        kernel = _FlatKernel(semiring, d, 3)
        flat = kernel.mul(flatten(a), flatten(b))
        # finite entries stay exact ints
        assert all(type(x) is int or x == NEG_INF for x in flat)
        assert rows_of(flat, d) == semiring.mul(a, b, d)

    def test_letterless_rules_use_the_identity(self):
        # a weak empty rule always holds, a strict one never does
        for semiring in SEMIRINGS:
            for d in (1, 2, 3, 4):
                holds = staged_test(semiring, d, [semiring.identity(d)], 0)
                assert holds(Rule((), (), False)) and not holds(Rule((), (), True))

    def test_wrong_product_raises_instead_of_returning(self, monkeypatch):
        # with a * b read as a, a b -> b a only needs a > b at d = 1, which
        # takes the generic product
        monkeypatch.setattr("relsrs.term._nat_mul_any", lambda d, a, b: a)
        with pytest.raises(RuntimeError, match="unsound certificate"):
            search_matrix(parse_system("(RULES a b -> b a)"), "natural", max_dim=1)


def arctic_letter_matrices(d, max_entry):
    """Every d x d matrix over {-inf, -1, ..., max_entry} with a finite
    (1,1) entry >= 0, in row-major lexicographic order."""
    rows = list(product([NEG_INF, *range(-1, max_entry + 1)], repeat=d))
    return [m for m in product(rows, repeat=d) if m[0][0] >= 0]


def first_fit(system, semiring, max_dim, max_entry):
    """Brute-force oracle: for d = 1 .. max_dim in turn, the first
    assignment of the letters used in rules, in itertools.product order
    over the full candidate lists, that check_matrix accepts."""
    used = sorted({c for rule in system.rules for c in rule.lhs + rule.rhs})
    for d in range(1, max_dim + 1):
        rows = list(product(entry_pool(semiring, max_entry), repeat=d))
        letters = [m for m in product(rows, repeat=d) if semiring.letter_fault(m, d) is None]
        for mats in product(letters, repeat=len(used)):
            cert = semiring.certificate(d, {system.letters[c]: m for c, m in zip(used, mats)})
            if check_matrix(cert, system):
                return cert
    return None


def is_canonical(mats, top):
    """The canonical rule for arctic 2 x 2 matrices in search order: let e
    be the first finite off-diagonal entry, row-major within each matrix.  At a (1,2) entry some matrix must have (1,2) = -1 or
    (2,1) = top, at a (2,1) entry (1,2) = top or (2,1) = -1; with no finite
    off-diagonal entry the assignment is canonical."""
    for m in mats:
        for i, j in ((0, 1), (1, 0)):
            if m[i][j] != NEG_INF:
                return any(x[i][j] == -1 or x[j][i] == top for x in mats)
    return True


def conjugate(mats, p):
    """D M D^-1 for D = diag(0, p) in max-plus: (1,2) entries lose p, (2,1)
    entries gain it."""
    return [((m[0][0], m[0][1] - p), (m[1][0] + p, m[1][1])) for m in mats]


def canonical_conjugate(mats, top):
    """Lower the first finite off-diagonal entry by conjugation until the
    assignment is canonical."""
    for _ in range(2 * top + 4):
        if is_canonical(mats, top):
            return mats
        first = next(m for m in mats if m[0][1] != NEG_INF or m[1][0] != NEG_INF)
        mats = conjugate(mats, 1 if first[0][1] != NEG_INF else -1)
    raise AssertionError("no canonical conjugate")


two_letter_rules = st.lists(
    st.tuples(
        st.lists(st.integers(0, 1), max_size=3),
        st.lists(st.integers(0, 1), max_size=3),
        st.booleans(),
    ),
    min_size=1,
    max_size=3,
).map(lambda rules: RelSRS(("a", "b"), tuple(Rule(tuple(x), tuple(y), s) for x, y, s in rules)))


class TestArcticConjugates:
    """At d = 2 the arctic search completes only canonical assignments."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_canonical_conjugate_stays_in_the_pool_and_checks_alike(self, data):
        top = data.draw(st.integers(0, 2))
        letters = arctic_letter_matrices(2, top)
        mats = data.draw(st.lists(st.sampled_from(letters), min_size=2, max_size=2))
        system = data.draw(two_letter_rules)
        canon = canonical_conjugate(mats, top)
        assert all(m in letters for m in canon)
        assert is_canonical(canon, top)
        assert [flatten(m) for m in canon] <= [flatten(m) for m in mats]
        # every rule holds or fails alike under the conjugate
        for rule in system.rules:
            one = RelSRS(system.letters, (rule,))
            before = check_matrix(ArcticMatrixCertificate(2, dict(zip("ab", mats))), one)
            after = check_matrix(ArcticMatrixCertificate(2, dict(zip("ab", canon))), one)
            assert bool(before) == bool(after), str(one)

    @pytest.mark.parametrize("top", [0, 1, 2])
    def test_last_letter_gets_exactly_the_canonical_completions(self, top):
        kernel = _FlatKernel(ARCTIC, 2, top)
        cands = list(kernel.candidates)
        last = _last_candidates(kernel, cands)
        prefixes = [[]] + [[m] for m in cands] + [[a, b] for a in cands[::29] for b in cands[::31]]
        for prefix in prefixes:
            expected = [
                m for m in cands if is_canonical([rows_of(x, 2) for x in prefix + [m]], top)
            ]
            assert list(last(prefix)) == expected, prefix

    def test_other_searches_keep_every_candidate(self):
        for semiring, d in ((NATURAL, 2), (ARCTIC, 1), (ARCTIC, 3)):
            kernel = _FlatKernel(semiring, d, 1)
            cands = kernel.candidates
            assert _last_candidates(kernel, cands)([]) is cands

    # random systems seldom need d = 2; these do
    @example(parse_system("(RULES a b b -> a , ->= a b a)"))
    @example(parse_system("(RULES b b -> b a b)"))
    @example(parse_system("(RULES a b b -> , b ->= b a b)"))
    @example(parse_system("(RULES a b b -> , a ->= a b a)"))
    @example(parse_system("(RULES a a -> , b ->= a a)"))
    @settings(max_examples=20, deadline=None)
    @given(two_letter_rules)
    def test_search_equals_first_fit(self, system):
        assert search_matrix(system, "arctic", 2, 1) == first_fit(system, ARCTIC, 2, 1)


three_letter_rules = st.lists(
    st.tuples(
        st.lists(st.integers(0, 2), max_size=3),
        st.lists(st.integers(0, 2), max_size=3),
        st.booleans(),
    ),
    min_size=1,
    max_size=3,
).map(
    lambda rules: RelSRS(("a", "b", "c"), tuple(Rule(tuple(x), tuple(y), s) for x, y, s in rules))
)


class TestNaturalSearchOracle:
    """The natural search, which evaluates each rule in stages, returns the
    first assignment over the full candidate product that the checker
    accepts."""

    @example(parse_system("(RULES a b b -> b b a , a ->= a a)"))
    @settings(max_examples=50, deadline=None)
    @given(two_letter_rules | three_letter_rules)
    def test_search_equals_first_fit(self, system):
        assert search_matrix(system, "natural", 2, 1) == first_fit(system, NATURAL, 2, 1)

    # entries <= 1 seldom give a natural certificate at d = 2; these need
    # one with entries <= 2: repeated letters, and three letters with runs
    # of two earlier letters
    @pytest.mark.parametrize(
        "text",
        [
            "(RULES a b -> b a)",
            "(RULES a a b -> b a a , b ->= )",
            "(RULES b b a -> a b b)",
            "(RULES a b c -> c b a)",
            "(RULES a c -> c b a , b c ->= c b)",
        ],
    )
    def test_search_equals_first_fit_at_entry_two(self, text):
        system = parse_system(text)
        cert = search_matrix(system, "natural", 2, 2)
        assert cert == first_fit(system, NATURAL, 2, 2)
        assert cert is not None and cert.dimension == 2


class TestBoundPruning:
    """Before a rule's last letter is assigned, the search tests the rule on
    bounds: each unassigned letter stands for the pool's entry-wise greatest
    matrix on the left side and its least on the right.  Both semirings are
    monotone in every entry, so a prefix whose bounds fail the rule has no
    completion that holds, and the search does not complete it."""

    @pytest.mark.parametrize(
        "text, semiring, max_entry",
        [
            ("(RULES a a -> , ->= b a b)", "natural", 1),
            ("(RULES a a -> , ->= b a b)", "arctic", 1),
            ("(RULES b b -> b a b)", "natural", 1),
            ("(RULES b b -> b a b)", "arctic", 1),
            ("(RULES a b b -> , a ->= a b a)", "natural", 1),
            ("(RULES a b b -> , a ->= a b a)", "arctic", 1),
            ("(RULES a b -> a, ->= c b)", "natural", 1),
            ("(RULES a c -> c b a , b c ->= c b)", "natural", 1),
            # the brute force would try 2.1 million arctic assignments of
            # three letters at entries <= 1, and tries 19,683 at entries <= 0
            ("(RULES a b -> a, ->= c b)", "arctic", 0),
        ],
    )
    def test_uncapped_search_equals_first_fit(self, text, semiring, max_entry):
        system = parse_system(text)
        sr = NATURAL if semiring == "natural" else ARCTIC
        for form in (system, strictify(system), s_as_strict(system)):
            cert = _matrix_search(form, semiring, 2, max_entry, assignment_cap=10**9)
            assert cert == first_fit(form, sr, 2, max_entry), str(form)

    @staticmethod
    def kept(semiring, max_entry, text, a):
        """Whether the search completes letter a = `a` (flat) on the rules of
        `text`, with b unassigned, and whether some b completes it."""
        system, d = parse_system(text), int(len(a) ** 0.5)
        kernel = _FlatKernel(semiring, d, max_entry)
        level = _Level(kernel, 0, list(system.rules), frozenset({1}))
        entry = level.entry(a)
        kept = entry is not None and level.enter([a, None])(entry)
        completes = any(
            check_matrix(semiring.certificate(d, {"a": rows_of(a, d), "b": rows_of(b, d)}), system)
            for b in kernel.candidates
        )
        # the search only drops what no completion holds
        assert kept or not completes
        return kept, completes

    def test_an_entry_bound_below_the_other_side_prunes(self):
        # a ->= b a a at arctic d = 1: the right side is at least 0 + 2a
        assert self.kept(ARCTIC, 1, "(RULES a ->= b a a)", (1,)) == (False, False)
        assert self.kept(ARCTIC, 1, "(RULES a ->= b a a)", (0,)) == (True, True)

    def test_a_strict_natural_rule_prunes_at_the_corner(self):
        # a -> a b with a the identity: the right side is at least the
        # identity, so the corner cannot drop; the weak rule holds with b = I
        identity = (1, 0, 0, 1)
        assert self.kept(NATURAL, 1, "(RULES a -> a b)", identity) == (False, False)
        assert self.kept(NATURAL, 1, "(RULES a ->= a b)", identity) == (True, True)

    def test_a_strict_arctic_rule_prunes_at_a_finite_entry(self):
        # the right side's (1,1) entry is at least a's own, 0
        a = (0, NEG_INF, NEG_INF, NEG_INF)
        assert self.kept(ARCTIC, 1, "(RULES a -> a b)", a) == (False, False)
        assert self.kept(ARCTIC, 1, "(RULES a ->= a b)", a) == (True, True)

    def test_a_strict_arctic_rule_keeps_a_minus_infinity_bound(self):
        # a -> b: the least b has -inf wherever a has, and -inf >> -inf
        a = (1, NEG_INF, NEG_INF, NEG_INF)
        assert self.kept(ARCTIC, 1, "(RULES a -> b)", a) == (True, True)

    def test_no_candidate_means_no_bounds(self):
        # natural letters need a (1,1) entry >= 1, which entries <= 0 rule out
        assert _FlatKernel(NATURAL, 2, 0).low is None
        report = SearchReport()
        system = parse_system("(RULES a b -> b a)")
        assert _matrix_search(system, "natural", 2, 0, report=report) is None
        assert (report.stop, report.nodes) == ("none", 0)


class TestSearchNodes:
    @pytest.mark.parametrize(
        "stem, unfiltered", [("ab_bba", 16_518), ("abb_aba", 16_518), ("a_ab_baa", 2_180)]
    )
    def test_arctic_search_visits_fewer_assignments(self, stem, unfiltered):
        """search_matrix(s, "arctic", 2, 1) finds nothing on these frontier
        systems.  Completing every assignment at the last letter visits
        16,518, 16,518 and 2,180 assignments over d = 1 and 2; completing
        canonical ones only visits 11,398, 11,398 and 1,540."""
        system = parse_system((FRONTIER / f"{stem}.srs").read_text())
        report = SearchReport()
        assert _matrix_search(system, "arctic", 2, 1, report=report) is None
        assert report.stop == "none"
        assert report.nodes < unfiltered

    @pytest.mark.parametrize("semiring", ["natural", "arctic"])
    def test_strict_empty_lhs_visits_no_assignment(self, semiring):
        # the identity never beats a product under a strict rule, so the
        # search gives up before its first assignment (it used to visit
        # 1,338 natural and 83,637 arctic ones)
        report = SearchReport()
        system = parse_system("(RULES -> a b a)")
        assert search_matrix(system, semiring, 2, 2, report=report) is None
        assert (report.stop, report.nodes) == ("none", 0)

    def test_assignment_cap_bounds_each_dimension(self):
        # the cap holds per dimension, so its boundary is the d = 2 count
        system = parse_system((FRONTIER / "a_ab_baa.srs").read_text())
        one, both = SearchReport(), SearchReport()
        _matrix_search(system, "arctic", 1, 1, report=one)
        _matrix_search(system, "arctic", 2, 1, report=both)
        at_two = both.nodes - one.nodes
        at, below = SearchReport(), SearchReport()
        assert _matrix_search(system, "arctic", 2, 1, assignment_cap=at_two, report=at) is None
        assert _matrix_search(
            system, "arctic", 2, 1, assignment_cap=at_two - 1, report=below
        ) is None
        assert (at.stop, below.stop) == ("none", "cap")
        # the assignment that crosses the cap is counted
        assert at.nodes == below.nodes == both.nodes

    def test_matrix_nodes_sum_over_dimensions(self):
        sys_ = parse_system("(RULES a b -> b a)")
        one, both = SearchReport(), SearchReport()
        assert search_matrix(sys_, "natural", 1, report=one) is None
        assert search_matrix(sys_, "natural", 2, report=both) is not None
        assert 0 < one.nodes < both.nodes

    @pytest.mark.parametrize("text", ["(RULES a b -> a, b ->= )", "(RULES a b -> b a)"])
    def test_weight_search_cap_boundary(self, text):
        system = parse_system(text)
        report = SearchReport()
        cert = search_weights(system, report=report)
        at, below = SearchReport(), SearchReport()
        assert search_weights(system, assignment_cap=report.nodes, report=at) == cert
        assert search_weights(system, assignment_cap=report.nodes - 1, report=below) is None
        assert (at.stop, below.stop) == ("none", "cap")
        assert at.nodes == below.nodes == report.nodes

    @pytest.mark.parametrize(
        "search",
        [
            lambda system, report: search_weights(system, report=report),
            lambda system, report: search_matrix(system, "arctic", 2, 1, report=report),
            lambda system, report: search_mixed_loop(system, 8, 10, report=report),
            lambda system, report: search_emitting_loop(system, 8, 10, report=report),
            lambda system, report: find_looping_forward_closure(system, 8, report=report),
        ],
        ids=["weights", "matrix", "mixed-loop", "emitting-loop", "closures"],
    )
    def test_a_shared_report_sums_the_nodes(self, search):
        # every search adds to report.nodes, as `relsrs loop` hands one
        # report to both loop searches
        system = parse_system("(RULES a b -> b b a , b ->= , a ->= b a)")
        once, twice = SearchReport(), SearchReport()
        search(system, once)
        search(system, twice)
        search(system, twice)
        assert once.nodes > 0
        assert twice.nodes == 2 * once.nodes


class TestGrowthWitness:
    """An arctic search first looks for a growth witness: a derivation from
    some word w with more than |w| * max_entry strict steps.  Under any
    arctic interpretation the checker accepts, with entries up to
    max_entry, 0 <= [w](1,1) <= |w| * max_entry, a strict step lowers
    [w](1,1) by at least 1 and a relative step never raises it, so there is
    none, in any dimension."""

    AB_BBA = parse_system("(RULES a b -> b b a , b ->= )")

    @staticmethod
    def witness(system, max_entry, budget=_WITNESS_NODES, report=None):
        return search_growth_witness(system, max_entry, budget, report=report)

    # systems with a witness at each entry bound
    @example(parse_system("(RULES a b -> b b a , b ->= )"), 2)
    @example(parse_system("(RULES a b -> b a a)"), 1)
    @example(parse_system("(RULES a b -> b a , a ->= a a)"), 0)
    @example(parse_system("(RULES a c -> c b a , b ->= c)"), 2)
    @settings(max_examples=40, deadline=None)
    @given(two_letter_rules | three_letter_rules, st.integers(0, 2))
    def test_a_witness_leaves_no_arctic_certificate(self, system, max_entry):
        witness = self.witness(system, max_entry)
        if witness is None:
            return
        replay(witness, system)
        assert strict_step_count(witness, system) > len(witness.start) * max_entry
        # the capped searches keep the test short; a witness makes most of
        # them run out of assignments long before their cap
        assert _matrix_search(system, "arctic", 2, max_entry, assignment_cap=100_000) is None
        assert _matrix_search(system, "arctic", 3, max_entry, assignment_cap=1_000) is None

    def test_witness_ends_the_search_refuted(self):
        report, alone = SearchReport(), SearchReport()
        assert search_matrix(self.AB_BBA, "arctic", 2, 2, report=report) is None
        assert report.stop == "refuted"
        assert report.witness == self.witness(self.AB_BBA, 2, report=alone)
        assert report.nodes == alone.nodes > 0
        assert self.AB_BBA.word_str(report.witness.start) == "a a a a b"
        assert strict_step_count(report.witness, self.AB_BBA) == 11

    def test_prove_logs_the_witness(self):
        attempts = prove(self.AB_BBA).attempts
        assert Attempt("matrix-arctic", "refuted", "a a a a b: 11 strict steps > 5*2") in attempts
        assert (
            Attempt("strictified-matrix-arctic", "refuted", "a a b: 7 strict steps > 3*2")
            in attempts
        )

    def test_no_witness_runs_the_exhaustive_search(self):
        # the witness search spends its whole budget before the certificate
        system = parse_system("(RULES a a -> , ->= b a b)")
        report, exhaustive = SearchReport(), SearchReport()
        cert = search_matrix(system, "arctic", 2, 2, report=report)
        assert cert is not None
        assert cert == _matrix_search(system, "arctic", 2, 2, report=exhaustive)
        assert report.witness is None
        assert report.nodes == _WITNESS_NODES + 1 + exhaustive.nodes

    def test_step_budget_boundary(self, monkeypatch):
        found = SearchReport()
        witness = self.witness(self.AB_BBA, 1, 10**6, found)
        at, below = SearchReport(), SearchReport()
        assert self.witness(self.AB_BBA, 1, found.nodes, at) == witness is not None
        assert self.witness(self.AB_BBA, 1, found.nodes - 1, below) is None
        assert (at.stop, below.stop) == ("none", "cap")
        # the node that crosses the budget is counted
        assert at.nodes == below.nodes == found.nodes
        # a crossed budget hands over to the exhaustive search
        monkeypatch.setattr("relsrs.term._WITNESS_NODES", found.nodes - 1)
        report, exhaustive = SearchReport(), SearchReport()
        assert search_matrix(self.AB_BBA, "arctic", 2, 1, report=report) is None
        assert _matrix_search(self.AB_BBA, "arctic", 2, 1, report=exhaustive) is None
        assert (report.stop, report.witness) == ("none", None)
        assert report.nodes == found.nodes + exhaustive.nodes

    def test_expired_deadline_gives_up(self):
        report = SearchReport()
        assert search_matrix(
            self.AB_BBA, "arctic", 2, 2, deadline=time.monotonic() - 1, report=report
        ) is None
        assert (report.stop, report.nodes) == ("deadline", 0)

    def test_relative_cycle_ends_its_run(self):
        # the run from b rewrites b to b forever; the witness starts at a a
        system = parse_system("(RULES b ->= b , a a -> a a a)")
        witness = self.witness(system, 2, 20)
        assert witness is not None and system.word_str(witness.start) == "a a"

    @pytest.mark.parametrize(
        "witness, match",
        [
            (Derivation((0, 1), (Step(0, 1),)), "does not replay"),
            # a a b -> a b b a -> b b a b a -> b b b b a a: 3 strict steps, not > 3*1
            (Derivation((0, 0, 1), (Step(0, 1), Step(0, 0), Step(0, 2))), "not more than 3[*]1"),
        ],
    )
    def test_unsound_witness_raises(self, monkeypatch, witness, match):
        monkeypatch.setattr("relsrs.term.search_growth_witness", lambda *a, **k: witness)
        with pytest.raises(RuntimeError, match=match):
            search_matrix(self.AB_BBA, "arctic", 2, 1)


class TestFrozenWitnessResults:
    # 3,072 searches, 444 witnesses; 1,948 of the searches without one stop
    # at the node budget ("cap", 2,001 nodes), the other 1,124 with "none"
    DIGEST = "2c92834867442f9f7aa57cbe42f825ab14fcc617dfee641f670f71e71b5f2c4d"

    def test_small_system_witnesses_are_unchanged(self):
        """The growth-witness search at E = 1 and 2 under _WITNESS_NODES on
        every system of `EnumerationConfig(2, 4)` and `(3, 4)` as is,
        strictified, and with S alone made strict, unless it has a strict
        rule with an empty lhs.  DIGEST was made by this snippet:

            from relsrs.nonterm import search_growth_witness
            from relsrs.term import _WITNESS_NODES
            h = hashlib.sha256()
            for config in (EnumerationConfig(2, 4), EnumerationConfig(3, 4)):
                for system in enumerate_systems(config):
                    for form in (system, strictify(system), s_as_strict(system)):
                        if any(r.strict and not r.lhs for r in form.rules):
                            continue
                        for e in (1, 2):
                            report = SearchReport()
                            w = search_growth_witness(form, e, _WITNESS_NODES,
                                                      report=report)
                            data = None if w is None else [
                                list(w.start),
                                [[s.rule_index, s.position] for s in w.steps]]
                            h.update(json.dumps([data, report.stop, report.nodes]
                                                ).encode() + b"\n")
            h.hexdigest()
        """
        h = hashlib.sha256()
        searches = found = 0
        for config in (EnumerationConfig(2, 4), EnumerationConfig(3, 4)):
            for system in enumerate_systems(config):
                for form in variants(system):
                    if any(r.strict and not r.lhs for r in form.rules):
                        continue
                    for e in (1, 2):
                        report = SearchReport()
                        w = search_growth_witness(form, e, _WITNESS_NODES, report=report)
                        data = None if w is None else [
                            list(w.start), [[s.rule_index, s.position] for s in w.steps]
                        ]
                        h.update(json.dumps([data, report.stop, report.nodes]).encode() + b"\n")
                        searches += 1
                        found += w is not None
        assert (searches, found) == (3_072, 444)
        assert h.hexdigest() == self.DIGEST


class TestSearchLeavesNoCycle:
    """A search's nested recursive function refers to itself through its
    closure cell; the search breaks that cycle when it ends, so what the
    function holds is freed on return, not at the next cyclic collection."""

    @pytest.mark.parametrize("cap", [ProveBudget.matrix_assignment_cap, 3])
    def test_weight_search(self, cap):
        gc.disable()
        try:
            gc.collect()
            search_weights(parse_system("(RULES a b -> b b a , b ->= )"), assignment_cap=cap)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_matrix_search(self):
        # a level whose letter runs are all of length 1 maps every power to
        # the candidate itself; that map must not hold the level
        gc.disable()
        try:
            gc.collect()
            system = parse_system("(RULES a b -> b b a , b ->= )")
            search_matrix(system, "arctic", 2, 1, assignment_cap=2000)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_matrix_search_frees_its_candidates(self):
        # the candidates and their entry tables came to 1.9 MiB here while
        # the cycle lasted, and come to about 0.35 MiB of caches without it
        gc.disable()
        tracemalloc.start()
        try:
            system = parse_system("(RULES a b -> b b a , b ->= )")
            search_matrix(system, "arctic", 3, 1, assignment_cap=10_000)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert held < 2**20


def traced_peak(f):
    """f()'s result and the peak of the memory it allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        result = f()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestTablesAreMadeAsRead:
    """The matrix search makes its tables (the candidates, each level's
    entries and the last letter's tables under the conjugation filter) as it
    first reads them, so a search that stops early builds little of them."""

    def test_first_candidate(self):
        # listing the rows of every slot first would take 24.2 MiB (3 x 226,981 rows)
        first, peak = traced_peak(lambda: next(iter(_FlatKernel(NATURAL, 3, 60).candidates)))
        assert first == (1, 0, 0, 0, 0, 0, 0, 0, 1)
        assert peak < 2**20

    def test_first_canonical_completion(self):
        # making all 255,507 candidates first would take 37.7 MiB
        def first_completion():
            kernel = _FlatKernel(ARCTIC, 2, 20)
            return next(iter(_last_candidates(kernel, kernel.candidates)([])))

        first, peak = traced_peak(first_completion)
        assert first == (0, NEG_INF, NEG_INF, NEG_INF)
        assert peak < 2**20

    def test_early_certificate(self):
        # the certificate comes after 2,645 visited assignments (3,065 before
        # the search pruned prefixes on their bounds) of the 255,507
        # candidates; making every candidate and its entry first would take
        # 39.4 MiB
        report = SearchReport()
        system = parse_system("(RULES a a -> , ->= b a b)")
        cert, peak = traced_peak(lambda: search_matrix(system, "arctic", 2, 20, report=report))
        assert cert is not None and report.nodes == 2_645
        assert peak < 2**20


class TestVerifyDispatch:
    def test_weight_certificate(self):
        assert verify_certificate(WeightCertificate({"a": 0, "b": 1}), AB_A)

    def test_empty_r_requires_no_strict_rules(self):
        res = verify_certificate(EmptyRCertificate(), AB_A)
        assert not res and "not empty" in res.reason
        assert verify_certificate(EmptyRCertificate(), parse_system("(RULES a ->= a a)"))

    def test_unknown_object(self):
        res = verify_certificate("bogus", AB_A)
        assert not res and "unknown certificate" in res.reason

    @pytest.mark.parametrize("check, reason", [
        (check_weights, "not a weight certificate"),
        (check_matrix, "not a matrix certificate"),
    ])
    def test_checker_rejects_another_certificate(self, check, reason):
        assert check(EmptyRCertificate(), AB_A).reason == reason


class TestComposeVerification:
    def yes_compose(self):
        outcome = prove(AB_A)
        assert outcome.verdict == "YES" and isinstance(outcome.certificate, ComposeCertificate)
        return outcome.certificate

    def no_compose(self):
        # prove settles this NO with a plain mixed loop; stored NO composites
        # pair that loop with the weights that prove SN(S)
        sys = parse_system("(RULES a -> a b, b ->= )")
        outcome = prove(sys)
        assert outcome.verdict == "NO" and isinstance(outcome.certificate, LoopCertificate)
        parts = (("s-termination", search_weights(s_as_strict(sys))),
                 ("strictified-loop", outcome.certificate))
        return sys, ComposeCertificate("NO", parts)

    def test_yes_composite_roundtrips(self):
        assert verify_certificate(self.yes_compose(), AB_A)

    def test_yes_composite_needs_termination_part(self):
        cert = ComposeCertificate("YES", (("s-termination", EmptyRCertificate()),))
        res = verify_certificate(cert, parse_system("(RULES a -> b)"))
        assert not res and "needs a strictified-termination part" in res.reason

    def test_no_composite_roundtrips(self):
        sys, cert = self.no_compose()
        assert verify_certificate(cert, sys)
        roles = dict(cert.parts)
        assert set(roles) == {"s-termination", "strictified-loop"}
        # the loop part is a loop of strictify(sys), not of sys itself
        assert check_loop_certificate(roles["strictified-loop"], strictify(sys))

    def test_no_composite_needs_both_parts(self):
        sys, cert = self.no_compose()
        for keep in range(len(cert.parts)):
            partial = ComposeCertificate("NO", (cert.parts[keep],))
            res = verify_certificate(partial, sys)
            assert not res and "needs s-termination and strictified-loop" in res.reason

    def test_part_failure_is_attributed(self):
        sys, cert = self.no_compose()
        roles = dict(cert.parts)
        broken = ComposeCertificate(
            "NO",
            (
                ("s-termination", WeightCertificate({"a": 0, "b": 0})),
                ("strictified-loop", roles["strictified-loop"]),
            ),
        )
        res = verify_certificate(broken, sys)
        assert not res and res.reason.startswith("part 's-termination':")

    def test_s_termination_checked_against_relatives_as_strict(self):
        # weights for the S part must strictly decrease the relative rules
        sys, cert = self.no_compose()
        roles = dict(cert.parts)
        part = roles["s-termination"]
        assert isinstance(part, WeightCertificate)
        # the part only weighs letters of S, it is no certificate for sys
        assert not check_weights(part, sys)

    def test_empty_r_part_requires_empty_s(self):
        sys, cert = self.no_compose()
        roles = dict(cert.parts)
        swapped = ComposeCertificate(
            "NO",
            (
                ("s-termination", EmptyRCertificate()),
                ("strictified-loop", roles["strictified-loop"]),
            ),
        )
        res = verify_certificate(swapped, sys)
        assert not res and res.reason == "part 's-termination': S is not empty"

    def test_loop_role_rejects_emitting_kind(self):
        sys, cert = self.no_compose()
        roles = dict(cert.parts)
        loop = roles["strictified-loop"]
        emitting = LoopCertificate("emitting", loop.start, loop.steps, loop.left, loop.right)
        res = verify_certificate(
            ComposeCertificate("NO", (("s-termination", roles["s-termination"]),
                                      ("strictified-loop", emitting))),
            sys,
        )
        assert not res and "must be a mixed loop" in res.reason

    def test_termination_role_rejects_a_loop(self):
        # the mixed loop a -> a b replays on strictify(sys), but refutes
        # the termination the YES composite claims; prove settles sys NO
        sys = parse_system("(RULES a -> a b, b ->= )")
        loop = LoopCertificate("mixed", (0,), (Step(0, 0),), (), (1,))
        assert check_loop_certificate(loop, strictify(sys))
        forged = ComposeCertificate("YES", (("strictified-termination", loop),))
        res = verify_certificate(forged, sys)
        assert not res and res.reason == (
            "part 'strictified-termination': a termination part must be a YES certificate"
        )

    def test_s_termination_role_rejects_an_s_loop(self):
        # b -> b is a loop of S made strict and of strictify(sys); a NO
        # composite built on it would refute a system prove settles YES
        sys = parse_system("(RULES a -> , b ->= b)")
        s_loop = LoopCertificate("mixed", (1,), (Step(0, 0),), (), ())
        strictified_loop = LoopCertificate("mixed", (1,), (Step(1, 0),), (), ())
        assert check_loop_certificate(strictified_loop, strictify(sys))
        forged = ComposeCertificate(
            "NO", (("s-termination", s_loop), ("strictified-loop", strictified_loop))
        )
        res = verify_certificate(forged, sys)
        assert not res and res.reason.startswith("part 's-termination': a termination part")
        assert prove(sys).verdict == "YES"

    def test_composite_part_rejected(self):
        role = "strictified-termination"
        leaf = ComposeCertificate("YES", ((role, WeightCertificate({"a": 1})),))
        nested = ComposeCertificate("YES", ((role, leaf),))
        res = verify_certificate(nested, parse_system("(RULES a -> )"))
        assert res.reason == (
            "part 'strictified-termination': a composite part must be a leaf, not a composite"
        )

    def test_deep_nesting_is_checked_without_recursion(self):
        cert = WeightCertificate({"a": 1})
        for _ in range(600):
            cert = ComposeCertificate("YES", (("strictified-termination", cert),))
        res = verify_certificate(cert, parse_system("(RULES a -> )"))
        assert isinstance(res, CheckResult) and not res

    def test_unknown_role(self):
        cert = ComposeCertificate("YES", (("frobnicate", EmptyRCertificate()),))
        res = verify_certificate(cert, parse_system("(RULES a ->= a)"))
        assert not res and "unknown composite role" in res.reason

    def test_verdict_must_be_yes_or_no(self):
        sys, cert = self.no_compose()
        maybe = ComposeCertificate("MAYBE", cert.parts)
        res = verify_certificate(maybe, sys)
        assert not res and "must be YES or NO" in res.reason


SOURCES = Path(relsrs.__file__).parent
MODULES = sorted(path.stem for path in SOURCES.glob("*.py"))
STDLIB = set(sys.stdlib_module_names) | {"__future__"}


def _tree(module: str):
    source = (SOURCES / f"{module}.py").read_text()
    return ast.parse(source), source.splitlines()


def _imports(module: str) -> tuple[set, set]:
    """The modules src/relsrs/<module>.py imports: the package modules it
    imports relatively (`from .core import ...`, `from . import core`) by
    name, and the top-level names of the others (`relsrs` for an absolute
    import of the package)."""
    package, other = set(), set()
    for node in ast.walk(_tree(module)[0]):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is None:
                package.update(a.name for a in node.names)
            else:
                package.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            other.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            other.update(a.name.split(".")[0] for a in node.names)
    return package, other


# Each module's package imports, exactly.  `core`, `certificates` and
# `check` are the trust base: every YES/NO rests on them, so they import
# nothing from the searches, and the searches' own records (SearchReport,
# Attempt, ProofOutcome) live beside the searches.
LAYERS = {
    "core": set(),
    "tpdb": {"core"},
    "grid": {"core"},
    "certificates": {"core"},
    "check": {"core", "certificates"},
    "nonterm": {"core", "certificates"},
    "term": {"core", "certificates", "check", "nonterm"},
    "enumeration": {"core", "term"},
    "cli": {"core", "tpdb", "certificates", "check", "nonterm", "term", "enumeration"},
}


def test_each_module_imports_its_layers():
    """Every module other than `__init__` imports exactly its row of LAYERS
    from the package, by relative import, and the standard library."""
    assert set(MODULES) == set(LAYERS) | {"__init__"}
    found = {module: _imports(module) for module in LAYERS}
    assert {module: package for module, (package, _) in found.items()} == LAYERS
    for module, (_, other) in found.items():
        assert other <= STDLIB, module


def test_no_module_imports_a_private_name_of_another():
    """A `_`-prefixed name stays inside its module: no module of the package
    imports one from another."""
    private = []
    for module in MODULES:
        for node in ast.walk(_tree(module)[0]):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private += [f"{module}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert private == []


def test_checker_imports_no_search_module():
    """The trust base stays apart from the searches: relsrs.check imports
    .core, .certificates and the standard library, nothing else."""
    package, other = _imports("check")
    assert package == {"core", "certificates"}
    assert other <= STDLIB


def test_package_is_stdlib_only():
    """Every relsrs module imports only the standard library and relsrs's
    own modules, by relative import."""
    own = set(MODULES) - {"__init__"}
    assert len(MODULES) >= 10
    for module in MODULES:
        package, other = _imports(module)
        assert package <= own, module
        assert other <= STDLIB, module


def test_every_import_is_read():
    """Every name a module other than `__init__` imports is read in it,
    except on lines marked `# noqa: F401` (names bound for perfbench's
    tracer to wrap)."""
    unused = []
    for module in LAYERS:
        tree, lines = _tree(module)
        names = [n for n in ast.walk(tree) if isinstance(n, ast.Name)]
        read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        for node in imports:
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{module}.py:{alias.lineno} {name}")
    assert unused == []
