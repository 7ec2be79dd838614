"""Enumeration stream checked against a naive string-based oracle."""

import hashlib
from dataclasses import asdict

import pytest

from relsrs import (
    EnumerationConfig,
    RelSRS,
    Rule,
    canonical_form,
    enumerate_block,
    enumerate_systems,
    enumeration_manifest,
    parse_system,
    reverse_system,
    stream_contains,
    system_size,
    words_up_to,
)

from oracles import oracle_canon, oracle_classes, rename, to_strings


class TestWordsUpTo:
    def test_length_lex_order(self):
        got = list(words_up_to(2, 2))
        assert got == [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]

    def test_single_letter(self):
        assert list(words_up_to(1, 3)) == [(), (0,), (0, 0), (0, 0, 0)]


class TestConfigValidation:
    def test_alphabet_bounds(self):
        with pytest.raises(ValueError):
            EnumerationConfig(0, 3)
        with pytest.raises(ValueError):
            EnumerationConfig(5, 3)

    def test_negative_size(self):
        with pytest.raises(ValueError):
            EnumerationConfig(2, -1)

    @pytest.mark.parametrize("alphabet, size", [(2, 5.0), (2.0, 5), (True, 3), (2, False), (2, "5")])
    def test_sizes_must_be_ints(self, alphabet, size):
        with pytest.raises(ValueError):
            EnumerationConfig(alphabet, size)


class TestCanonicalForm:
    def test_emitted_systems_are_fixed_points(self):
        for system in enumerate_systems(EnumerationConfig(2, 3)):
            assert canonical_form(system) == system

    def test_letter_swap_lands_on_the_same_form(self):
        for system in enumerate_systems(EnumerationConfig(2, 3)):
            assert canonical_form(rename(system, (1, 0))) == system

    def test_rules_are_ordered_strict_first(self):
        sys = RelSRS(("a", "b"), (Rule((0,), (1,), False), Rule((1,), (), True)))
        canon = canonical_form(sys)
        assert canon.rules[0].strict and not canon.rules[1].strict

    def test_reversal_identification(self):
        cfg = EnumerationConfig(2, 3)
        seen_difference = False
        for system in enumerate_systems(cfg):
            rev = reverse_system(system)
            assert canonical_form(rev, identify_reversal=True) == canonical_form(
                system, identify_reversal=True
            )
            if canonical_form(rev) != system:
                seen_difference = True
        # without the flag, reversal is a genuinely different system sometimes
        assert seen_difference

    def test_strict_twin_dominates(self):
        canon = canonical_form(parse_system("(RULES a -> b , a ->= b)"))
        assert canon.rules == (Rule((0,), (1,), True),)

    def test_too_many_letters(self):
        letters = tuple(f"x{i}" for i in range(10))
        sys = RelSRS(letters, (Rule(tuple(range(10)), (), True),))
        with pytest.raises(ValueError):
            canonical_form(sys)


class TestCatalogAlphabetOne:
    def test_exactly_nine_systems(self):
        got = {to_strings(s) for s in enumerate_systems(EnumerationConfig(1, 2))}
        e = ""
        expected = {
            (("", e, True), (e, "a", False)),
            ((e, e, True), ("a", e, False)),
            ((e, e, True), (e, "aa", False)),
            ((e, e, True), ("aa", e, False)),
            ((e, "a", True), ("a", e, False)),
            (("a", e, True), (e, "a", False)),
            ((e, e, True), (e, "a", True), ("a", e, False)),
            ((e, e, True), ("a", e, True), (e, "a", False)),
            ((e, e, True), (e, "a", False), ("a", e, False)),
        }
        assert got == expected


class TestOracleAgreement:
    def test_alphabet_two_size_four_matches_naive_quotient(self):
        emitted = list(enumerate_systems(EnumerationConfig(2, 4)))
        assert len(emitted) == 987
        got: dict[int, set] = {}
        for system in emitted:
            got.setdefault(system_size(system), set()).add(
                oracle_canon(to_strings(system))
            )
        assert {s: len(v) for s, v in got.items()} == {2: 14, 3: 122, 4: 851}
        assert got == oracle_classes(4)
        # one representative per class, no repeats
        assert sum(len(v) for v in got.values()) == len(emitted)

    def test_alphabet_two_size_six_matches_naive_quotient(self):
        # sizes 5 and 6 are where the generator's size budget prunes most
        emitted = list(enumerate_systems(EnumerationConfig(2, 6)))
        assert len(emitted) == 30_951
        got: dict[int, set] = {}
        for system in emitted:
            got.setdefault(system_size(system), set()).add(
                oracle_canon(to_strings(system))
            )
        assert {s: len(v) for s, v in got.items()} == {
            2: 14, 3: 122, 4: 851, 5: 4834, 6: 25_130
        }
        assert got == oracle_classes(6)
        assert sum(len(v) for v in got.values()) == len(emitted)

    def test_no_system_carries_a_shadowed_relative_rule(self):
        for system in enumerate_systems(EnumerationConfig(2, 4)):
            pairs = {(r.lhs, r.rhs) for r in system.strict_rules}
            assert not any((r.lhs, r.rhs) in pairs for r in system.relative_rules)


class TestFrozenStream:
    """The stream, in order, and its final stats for configs that exercise
    every filter.  The digests were recorded with the heapq-merge generator
    that tried every rule of size at most what was left, by this snippet:

        stream = enumerate_systems(EnumerationConfig(**kwargs))
        h = hashlib.sha256()
        for system in stream:
            h.update((str(system) + "\\n").encode())
        h.hexdigest(), asdict(stream.stats)
    """

    # name: (config, digest, EnumerationStats fields in declaration order)
    CASES = {
        "2-5": (
            dict(alphabet_size=2, max_size=5),
            "03520bb6d6f2962457c0e6ef32d34b5621c35832d2cbfa325cce5b55fee71551",
            (635, 7, 5821, {2: 14, 3: 122, 4: 851, 5: 4834}, 5809, 644, 0),
        ),
        "2-6": (
            dict(alphabet_size=2, max_size=6),
            "5a5f87aa472434da2a9c1e703e5b7d2585d37d7a5e49f46ed5ffe5b6510bc8f0",
            (1523, 15, 30951, {2: 14, 3: 122, 4: 851, 5: 4834, 6: 25130}, 30869, 1694, 0),
        ),
        "3-5": (
            dict(alphabet_size=3, max_size=5),
            "4364b73dd3a8daf7c8941f4b1e291f531e56818d663018031b319d3f781ba7e3",
            (3997, 13, 10745, {3: 62, 4: 897, 5: 9786}, 52569, 35856, 0),
        ),
        "2-6-reversal": (
            dict(alphabet_size=2, max_size=6, identify_reversal=True),
            "f6a57b86ed72b8ce800b11845e01f39786fc0597d72420d5cd0d0c6c7bc3ed0b",
            (1523, 15, 20905, {2: 14, 3: 98, 4: 659, 5: 3392, 6: 16742}, 40915, 1694, 0),
        ),
        "2-6-no-filters": (
            dict(
                alphabet_size=2,
                max_size=6,
                require_all_letters_used=False,
                require_nonempty_r=False,
                require_nonempty_s=False,
            ),
            "c9a0a4f934dfd2bac0d0fcd7b227cfdd9df5e69f280976626d455119620baa04",
            (
                1523, 15, 42331,
                {0: 1, 1: 8, 2: 50, 3: 272, 4: 1448, 5: 7048, 6: 33504},
                42140, 0, 0,
            ),
        ),
        "2-6-prune-trivial": (
            dict(alphabet_size=2, max_size=6, prune_trivial=True),
            "4ce622d8197bd4b8d9745a10421a402eedc2f5fff33c280a5770e2750c5a8bff",
            (1523, 15, 6057, {2: 2, 3: 22, 4: 165, 5: 947, 6: 4921}, 30869, 1694, 24894),
        ),
        "3-4-reversal-unused-letters": (
            dict(
                alphabet_size=3,
                max_size=4,
                identify_reversal=True,
                require_all_letters_used=False,
            ),
            "ac4aed26944215589e11bd6263b3d93ce2a26176fe12305104dd871550e3e2d8",
            (1081, 13, 1618, {1: 2, 2: 21, 3: 188, 4: 1407}, 10156, 0, 0),
        ),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_stream_and_stats_are_unchanged(self, name):
        kwargs, digest, stats = self.CASES[name]
        stream = enumerate_systems(EnumerationConfig(**kwargs))
        h = hashlib.sha256()
        for system in stream:
            h.update((str(system) + "\n").encode())
        assert tuple(asdict(stream.stats).values()) == stats
        assert h.hexdigest() == digest


class TestBlocks:
    def test_blocks_partition_the_stream(self):
        cfg = EnumerationConfig(2, 3)
        whole = set(enumerate_systems(cfg))
        pieces = set()
        for size in range(cfg.max_size + 1):
            for rule_count in range(1, size + 3):
                block = set(enumerate_block(cfg, size, rule_count))
                assert all(system_size(s) == size for s in block)
                assert all(len(s.rules) == rule_count for s in block)
                assert not block & pieces
                pieces |= block
        assert pieces == whole


class TestStreamContains:
    CFG = EnumerationConfig(2, 3)

    def test_every_emitted_system_is_contained(self):
        for system in enumerate_systems(self.CFG):
            assert stream_contains(self.CFG, system)

    def test_membership_is_up_to_symmetry(self):
        for system in enumerate_systems(self.CFG):
            assert stream_contains(self.CFG, rename(system, (1, 0)))

    def test_filters_apply(self):
        strict_only = RelSRS(("a", "b"), (Rule((0,), (1,), True),))
        assert not stream_contains(self.CFG, strict_only)
        relative_only = RelSRS(("a", "b"), (Rule((0,), (1,), False),))
        assert not stream_contains(self.CFG, relative_only)
        one_letter = RelSRS(("a",), (Rule((0,), (), True), Rule((), (0,), False)))
        assert not stream_contains(self.CFG, one_letter)

    def test_size_and_alphabet_bounds(self):
        big = RelSRS(
            ("a", "b"), (Rule((0, 0, 0), (1,), True), Rule((1,), (0,), False))
        )
        assert system_size(big) == 6 and not stream_contains(self.CFG, big)
        wide = RelSRS(
            ("a", "b", "c"), (Rule((2,), (0,), True), Rule((0,), (1,), False))
        )
        assert not stream_contains(self.CFG, wide)

    def test_shadowed_twin_and_identity(self):
        twins = RelSRS(
            ("a", "b"),
            (Rule((0,), (1,), True), Rule((0,), (1,), False)),
        )
        assert not stream_contains(self.CFG, twins)
        identity_rel = RelSRS(
            ("a", "b"), (Rule((0,), (1,), True), Rule((1,), (1,), False))
        )
        assert not stream_contains(self.CFG, identity_rel)
        # repeated and twin rules are judged as given, not deduplicated first
        strict_and_twin = RelSRS(
            ("a", "b"), (Rule((0,), (1,), True), Rule((0,), (1,), False))
        )
        allow_empty_s = EnumerationConfig(2, 5, require_nonempty_s=False)
        assert not stream_contains(allow_empty_s, strict_and_twin)
        repeated = RelSRS(
            ("a", "b"),
            (Rule((0,), (1,), True), Rule((0,), (1,), True), Rule((1,), (0,), False)),
        )
        assert not stream_contains(EnumerationConfig(2, 6), repeated)

    def test_trivial_pruning_changes_membership(self):
        sys = RelSRS(("a", "b"), (Rule((0,), (0,), True), Rule((1,), (), False)))
        assert stream_contains(self.CFG, sys)
        pruned = EnumerationConfig(2, 3, prune_trivial=True)
        assert not stream_contains(pruned, sys)


class TestTrivialPruning:
    def test_pruned_stream_counts_what_it_drops(self):
        plain = list(enumerate_systems(EnumerationConfig(2, 3)))
        cfg = EnumerationConfig(2, 3, prune_trivial=True)
        stream = enumerate_systems(cfg)
        kept = list(stream)
        assert len(kept) < len(plain)
        assert stream.stats.pruned_trivial == len(plain) - len(kept)


class TestManifest:
    def test_exact_text(self):
        cfg = EnumerationConfig(2, 4)
        text = enumeration_manifest(enumerate_systems(cfg))
        assert text == (
            "relative SRS enumeration manifest\n"
            "config: alphabet=2 max-size=4 require-all-letters=on nonempty-R=on"
            " nonempty-S=on identify-reversal=off prune-trivial=off\n"
            "universe: 251 rules (relative identity rules excluded: 7)\n"
            "size 1: 0\n"
            "size 2: 14\n"
            "size 3: 122\n"
            "size 4: 851\n"
            "total: 987\n"
            "noncanonical skipped: 975\n"
            "rejected (letters unused): 244\n"
            "pruned trivial: 0\n"
        )

    def test_drained_stream_reports_like_a_fresh_one(self):
        cfg = EnumerationConfig(2, 4)
        drained = enumerate_systems(cfg)
        assert len(list(drained)) == 987
        fresh = enumeration_manifest(enumerate_systems(cfg))
        assert enumeration_manifest(drained) == fresh


class TestReversalStream:
    def test_identification_only_merges_classes(self):
        plain = {
            canonical_form(s, identify_reversal=True)
            for s in enumerate_systems(EnumerationConfig(2, 3))
        }
        merged = set(enumerate_systems(EnumerationConfig(2, 3, identify_reversal=True)))
        assert merged == plain
        assert len(merged) < 14 + 122
