"""Weight and matrix certificate checkers, bounded search, composite verify."""

import json
from fractions import Fraction
from itertools import product
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relsrs import (
    ArcticMatrixCertificate,
    ComposeCertificate,
    EmptyRCertificate,
    EnumerationConfig,
    LoopCertificate,
    NaturalMatrixCertificate,
    RelSRS,
    Rule,
    SearchReport,
    Step,
    WeightCertificate,
    check_loop_certificate,
    check_matrix_arctic,
    check_matrix_natural,
    check_weights,
    enumerate_systems,
    parse_certificate,
    parse_system,
    prove,
    search_matrix,
    search_weights,
    strictify,
    verify_certificate,
)

FIXTURES = Path(__file__).parent / "fixtures"


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
        assert not res and res.reason == "unknown letter 'b'"

    def test_extra_letters_ignored(self):
        assert check_weights(WeightCertificate({"a": 0, "b": 1, "z": 7}), AB_A)


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


def first_fit_weights(system, max_weight):
    """Brute-force oracle: the first vector in itertools.product order over
    the letters used in rules that every rule accepts."""
    used = sorted({c for rule in system.rules for c in rule.lhs + rule.rhs})
    # a rule holds when lhs weight - rhs weight reaches 1 (strict) or 0
    rules = [
        ([r.lhs.count(c) - r.rhs.count(c) for c in used], 1 if r.strict else 0)
        for r in system.rules
    ]
    for vec in product(range(max_weight + 1), repeat=len(used)):
        if all(sum(map(mul, vec, delta)) >= need for delta, need in rules):
            return WeightCertificate({system.letters[c]: Fraction(w) for c, w in zip(used, vec)})
    return None


def variants(system):
    """The system as is, with every rule strict, and its relative rules
    alone made strict: the three systems prove hands to search_weights."""
    s_alone = tuple(Rule(r.lhs, r.rhs, True) for r in system.rules if not r.strict)
    return system, strictify(system), RelSRS(system.letters, s_alone)


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
    )
    def test_random_rule_sets_equal_first_fit(self, rules, max_weight):
        system = RelSRS(
            ("a", "b", "c", "d"),
            tuple(Rule(tuple(lhs), tuple(rhs), strict) for lhs, rhs, strict in rules),
        )
        cert = search_weights(system, max_weight)
        assert cert == first_fit_weights(system, max_weight)
        if cert is not None:
            assert check_weights(cert, system)


class TestNaturalChecker:
    def test_fixture_certificate_verifies(self):
        system, cert = load_pair("rel12")
        assert cert.dimension == 5
        assert check_matrix_natural(cert, system)

    def test_fixture_mutation_rejected(self):
        system, cert = load_pair("rel12")
        res = check_matrix_natural(bump(cert, "b", 1, 2, 0), system)
        assert not res
        assert res.reason == "rule b p b -> a b a p b a: entry (1,3) 0 < 3"

    def test_certificate_against_wrong_system(self):
        other, _ = load_pair("rel11")
        _, cert = load_pair("rel12")
        res = check_matrix_natural(cert, other)
        assert not res
        assert res.reason == "rule b p b -> b a p b: entry (1,2) 2 < 3"

    def test_first_corner_condition(self):
        sys = parse_system("(RULES a a -> a)")
        cert = NaturalMatrixCertificate(2, {"a": ((0, 1), (0, 1))})
        res = check_matrix_natural(cert, sys)
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
        res = check_matrix_natural(cert, sys)
        assert not res and res.reason == "matrix for 'c' has entry (2,2) = 0 < 1"
        loop = LoopCertificate("mixed", sys.word("b c"), (Step(1, 0), Step(0, 0)), (), ())
        assert check_loop_certificate(loop, sys)

    def test_strict_corner_must_be_strict(self):
        sys = parse_system("(RULES a -> b)")
        cert = NaturalMatrixCertificate(1, {"a": ((1,),), "b": ((1,),)})
        res = check_matrix_natural(cert, sys)
        assert not res and res.reason == "strict rule a -> b: corner (1,1) 1 <= 1"

    def test_dimension_one(self):
        sys = parse_system("(RULES a a -> a)")
        assert check_matrix_natural(NaturalMatrixCertificate(1, {"a": ((2,),)}), sys)

    def test_empty_word_maps_to_identity(self):
        # a ->= empty asks for [a] >= I, which [[1]] satisfies
        sys = parse_system("(RULES b -> , a ->= )")
        cert = NaturalMatrixCertificate(1, {"a": ((1,),), "b": ((2,),)})
        assert check_matrix_natural(cert, sys)

    def test_empty_lhs_strict_rule_never_passes(self):
        sys = parse_system("(RULES  -> a)")
        res = check_matrix_natural(NaturalMatrixCertificate(1, {"a": ((1,),)}), sys)
        assert not res and "corner" in res.reason

    def test_shape_and_entry_validation(self):
        sys = parse_system("(RULES a a -> a)")
        bad_shape = NaturalMatrixCertificate(2, {"a": ((1, 0),)})
        assert "not 2x2" in check_matrix_natural(bad_shape, sys).reason
        bad_bool = NaturalMatrixCertificate(1, {"a": ((True,),)})
        assert "bad entry True" in check_matrix_natural(bad_bool, sys).reason
        negative = NaturalMatrixCertificate(1, {"a": ((-1,),)})
        assert "bad entry -1" in check_matrix_natural(negative, sys).reason
        zero_dim = NaturalMatrixCertificate(0, {})
        assert "dimension" in check_matrix_natural(zero_dim, sys).reason

    def test_missing_matrix_reported(self):
        res = check_matrix_natural(NaturalMatrixCertificate(1, {"a": ((1,),)}), AB_A)
        assert not res and res.reason == "no matrix for letter 'b'"

    def test_renaming_letters_preserves_validity(self):
        system, cert = load_pair("rel12")
        renamed = type(system)(("x", "y", "z"), system.rules)
        names = dict(zip(system.letters, renamed.letters))
        moved = NaturalMatrixCertificate(
            cert.dimension, {names[k]: m for k, m in cert.interp.items()}
        )
        assert check_matrix_natural(moved, renamed)


N = None


class TestArcticChecker:
    def test_fixture_certificate_verifies(self):
        system, cert = load_pair("rel11")
        assert cert.dimension == 4
        assert check_matrix_arctic(cert, system)

    def test_fixture_mutation_rejected(self):
        system, cert = load_pair("rel11")
        res = check_matrix_arctic(bump(cert, "p", 1, 2, 0), system)
        assert not res
        assert res.reason == "rule b p b -> b a p b: entry (1,1) violates >> (0 vs 0)"

    def test_letter_needs_finite_first_corner(self):
        sys = parse_system("(RULES a a -> a)")
        for corner in (N, -1):
            cert = ArcticMatrixCertificate(1, {"a": ((corner,),)})
            res = check_matrix_arctic(cert, sys)
            assert not res and "finite entry (1,1) >= 0" in res.reason

    def test_weak_violation(self):
        sys = parse_system("(RULES b -> a, a ->= b)")
        cert = ArcticMatrixCertificate(1, {"a": ((0,),), "b": ((1,),)})
        res = check_matrix_arctic(cert, sys)
        assert not res
        assert res.reason == "rule a ->= b: entry (1,1) violates >= (0 vs 1)"

    def test_strict_needs_real_increase(self):
        sys = parse_system("(RULES a -> b)")
        cert = ArcticMatrixCertificate(1, {"a": ((0,),), "b": ((0,),)})
        res = check_matrix_arctic(cert, sys)
        assert not res
        assert res.reason == "rule a -> b: entry (1,1) violates >> (0 vs 0)"

    def test_minus_infinity_dominates_minus_infinity(self):
        # entries that are -inf on both sides satisfy the strict comparison
        sys = parse_system("(RULES a b -> b)")
        cert = ArcticMatrixCertificate(
            2, {"a": ((1, N), (N, N)), "b": ((0, N), (N, N))}
        )
        assert check_matrix_arctic(cert, sys)

    def test_shape_and_entry_validation(self):
        sys = parse_system("(RULES a a -> a)")
        bad_bool = ArcticMatrixCertificate(1, {"a": ((True,),)})
        assert "bad entry True" in check_matrix_arctic(bad_bool, sys).reason
        bad_shape = ArcticMatrixCertificate(2, {"a": ((0, N),)})
        assert "not 2x2" in check_matrix_arctic(bad_shape, sys).reason
        res = check_matrix_arctic(ArcticMatrixCertificate(1, {"a": ((0,),)}), AB_A)
        assert res.reason == "no matrix for letter 'b'"


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
                assert bool(check_matrix_natural(cert, sys)) == expected, (va, vb)

    def test_arctic_d1_agrees_with_sums(self):
        # at dimension 1 max-plus is integer addition: letters need a finite
        # value >= 0 and every rule compares the sums of its sides
        sys = parse_system("(RULES a a -> a, b ->= a)")
        values = (None, -1, 0, 1, 2)
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
                assert bool(check_matrix_arctic(cert, sys)) == expected, (va, vb)


class TestMatrixSearch:
    def test_natural_finds_swap_rule(self):
        sys = parse_system("(RULES a b -> b a)")
        cert = search_matrix(sys, "natural")
        assert cert is not None and cert.dimension == 2
        assert check_matrix_natural(cert, sys)

    def test_search_is_deterministic(self):
        sys = parse_system("(RULES a b -> b a)")
        assert search_matrix(sys, "natural") == search_matrix(sys, "natural")

    def test_arctic_dimension_one(self):
        sys = parse_system("(RULES a b -> b)")
        cert = search_matrix(sys, "arctic")
        assert isinstance(cert, ArcticMatrixCertificate) and cert.dimension == 1
        assert check_matrix_arctic(cert, sys)

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
        assert report.capped
        # a search that runs out of space without reaching the cap is not capped
        report = SearchReport()
        assert search_matrix(sys, "natural", max_dim=1, report=report) is None
        assert not report.capped

    def test_entry_bound_can_make_search_fail(self):
        # natural letters need a positive corner, max_entry=0 leaves nothing
        sys = parse_system("(RULES a a -> a)")
        assert search_matrix(sys, "natural", max_entry=0) is None

    def test_unknown_semiring(self):
        with pytest.raises(ValueError):
            search_matrix(AB_A, "tropical")

    def test_higher_dimension_returns_the_dimension_two_certificate(self):
        sys = parse_system("(RULES a b -> b a)")
        two = search_matrix(sys, "natural", max_dim=2)
        assert two is not None and two.dimension == 2
        assert search_matrix(sys, "natural", max_dim=3) == two


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


class TestComposeVerification:
    def yes_compose(self):
        outcome = prove(AB_A)
        assert outcome.verdict == "YES" and isinstance(outcome.certificate, ComposeCertificate)
        return outcome.certificate

    def no_compose(self):
        sys = parse_system("(RULES a -> a b, b ->= )")
        outcome = prove(sys)
        assert outcome.verdict == "NO" and isinstance(outcome.certificate, ComposeCertificate)
        return sys, outcome.certificate

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

    def test_unknown_role(self):
        cert = ComposeCertificate("YES", (("frobnicate", EmptyRCertificate()),))
        res = verify_certificate(cert, parse_system("(RULES a ->= a)"))
        assert not res and "unknown composite role" in res.reason

    def test_verdict_must_be_yes_or_no(self):
        sys, cert = self.no_compose()
        maybe = ComposeCertificate("MAYBE", cert.parts)
        res = verify_certificate(maybe, sys)
        assert not res and "must be YES or NO" in res.reason


def test_checker_imports_no_search_module():
    """The trust base stays apart from the searches: relsrs.check imports
    .core, .certificates and the standard library, nothing else."""
    import ast
    import sys

    import relsrs.check

    tree = ast.parse(Path(relsrs.check.__file__).read_text())
    package, other = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            package.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            other.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            other.update(a.name.split(".")[0] for a in node.names)
    assert package == {"core", "certificates"}
    assert other <= set(sys.stdlib_module_names) | {"__future__"}
