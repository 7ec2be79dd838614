"""Size-ordered enumeration of relative SRSs modulo letter renaming.

Systems are finite sets of rules drawn from the universe of rules of size
up to the bound over a k-letter alphabet (k capped at 4).  Rules carry a
total order: strict before relative, then length-lexicographic lhs, then
rhs.  A system is canonical when no letter permutation (optionally
composed with word reversal) produces a smaller sorted rule list; the
stream emits exactly the canonical systems, ordered by total size, then
rule count, then rule-list key.  A block of one size and rule count is
built slot by slot in ascending rule id, and each slot takes only rules
whose size leaves at least one unit for every later slot (the last takes
exactly what is left), so no branch is walked whose sizes cannot add up.

Universe conventions: a relative rule with lhs = rhs is excluded (it never
affects termination; the exclusion is counted and reported).  A system
never contains the same lhs/rhs pair both strict and relative; the strict
copy dominates.  Strict identity rules stay in the universe: they make the
system trivially non-terminating, which is a verdict, not a redundancy.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations, product
from typing import Iterable, Iterator, Optional

from .core import RelSRS, Rule, Word, used_letters
from .term import trivial_verdict

LETTER_NAMES = ("a", "b", "c", "d")
MAX_ALPHABET = 4


def words_up_to(alphabet_size: int, max_len: int) -> Iterator[Word]:
    """All words of length 0..max_len in length-lexicographic order."""
    for length in range(max_len + 1):
        yield from product(range(alphabet_size), repeat=length)


def _lenlex(word: Word) -> tuple[int, Word]:
    return (len(word), word)


def _rule_key(rule: Rule):
    return (0 if rule.strict else 1, _lenlex(rule.lhs), _lenlex(rule.rhs))


def _dedupe(rules: Iterable[Rule]) -> list[Rule]:
    pairs = {(r.lhs, r.rhs) for r in rules if r.strict}
    out = []
    seen = set()
    for r in rules:
        if not r.strict and (r.lhs, r.rhs) in pairs:
            continue  # the strict copy dominates
        if r not in seen:
            seen.add(r)
            out.append(r)
    return out


def _image(rule: Rule, name, mirror: bool) -> Rule:
    """The rule with each letter c renamed name[c], both sides reversed
    when `mirror` is set."""
    step = -1 if mirror else 1
    lhs, rhs = (tuple(name[c] for c in side[::step]) for side in (rule.lhs, rule.rhs))
    return Rule(lhs, rhs, rule.strict)


def canonical_form(system: RelSRS, identify_reversal: bool = False) -> RelSRS:
    """Minimal representative of the system under letter renaming.

    Rules are deduplicated, sorted, and the letters occurring in them are
    reassigned (an injection into the alphabet's index range) so that the
    sorted rule list is smallest; word reversal joins the symmetry group
    only when identify_reversal is set.  Idempotent; the alphabet itself
    is left untouched.
    """
    rules = _dedupe(system.rules)
    used = used_letters(system)
    k = len(system.letters)
    m = len(used)
    if math.perm(k, m) > 500_000:
        raise ValueError(f"alphabet too large to canonicalize ({m} letters used of {k})")
    mirrors = (False, True) if identify_reversal else (False,)
    images = (
        sorted((_image(r, dict(zip(used, target)), mirror) for r in rules), key=_rule_key)
        for target in permutations(range(k), m)
        for mirror in mirrors
    )
    # never empty: RelSRS keeps every letter inside the alphabet, so m <= k
    best = min(images, key=lambda mapped: [_rule_key(r) for r in mapped])
    return RelSRS(system.letters, tuple(best))


@dataclass(frozen=True)
class EnumerationConfig:
    alphabet_size: int
    max_size: int
    require_all_letters_used: bool = True
    require_nonempty_r: bool = True
    require_nonempty_s: bool = True
    identify_reversal: bool = False
    prune_trivial: bool = False

    def __post_init__(self):
        for name in ("alphabet_size", "max_size"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name.replace('_', ' ')} must be an int, not {value!r}")
        if not 1 <= self.alphabet_size <= MAX_ALPHABET:
            raise ValueError(f"alphabet size must be 1..{MAX_ALPHABET}")
        if self.max_size < 0:
            raise ValueError("max size must be non-negative")


@dataclass
class EnumerationStats:
    universe_rules: int = 0
    excluded_identity_rules: int = 0
    emitted: int = 0
    by_size: dict[int, int] = field(default_factory=dict)
    noncanonical_skipped: int = 0
    rejected_letters_unused: int = 0
    pruned_trivial: int = 0


class _Context:
    def __init__(self, config: EnumerationConfig):
        self.config = config
        k = config.alphabet_size
        self.letters = LETTER_NAMES[:k]
        rules = []
        excluded = 0
        for lhs in words_up_to(k, config.max_size):
            for rhs in words_up_to(k, config.max_size - len(lhs)):
                rules.append(Rule(lhs, rhs, True))
                if lhs == rhs:
                    excluded += 1
                else:
                    rules.append(Rule(lhs, rhs, False))
        rules.sort(key=_rule_key)
        self.rules: list[Rule] = rules
        self.excluded_identity = excluded
        self.id_of = {r: i for i, r in enumerate(rules)}
        self.sizes = [r.size for r in rules]
        self.n_strict = sum(1 for r in rules if r.strict)
        full = (1 << k) - 1
        self.full_mask = full
        self.masks = []
        for r in rules:
            m = 0
            for c in r.lhs + r.rhs:
                m |= 1 << c
            self.masks.append(m)
        # relative rule id -> id of the strict rule with the same sides
        self.twin = {
            i: self.id_of[Rule(r.lhs, r.rhs, True)]
            for i, r in enumerate(rules)
            if not r.strict
        }
        # ascending ids of rules of size exactly s, and of size at most s
        self.ids_of_size: dict[int, list[int]] = {}
        for i, s in enumerate(self.sizes):
            self.ids_of_size.setdefault(s, []).append(i)
        self.ids_up_to_size = [
            [i for i, s in enumerate(self.sizes) if s <= bound]
            for bound in range(config.max_size + 1)
        ]
        # image tables: transformed-rule id per rule id, one table per
        # non-trivial symmetry (non-identity permutations, and every
        # permutation composed with reversal when that is identified)
        self.tables: list[list[int]] = []
        perms = list(permutations(range(k)))
        variants = [(p, False) for p in perms[1:]]
        if config.identify_reversal:
            variants += [(p, True) for p in perms]
        for perm, mirror in variants:
            self.tables.append([self.id_of[_image(r, perm, mirror)] for r in rules])

    def is_canonical(self, ids: list[int]) -> bool:
        for table in self.tables:
            if sorted(table[i] for i in ids) < ids:
                return False
        return True

    def build(self, ids: list[int]) -> RelSRS:
        return RelSRS(self.letters, tuple(self.rules[i] for i in ids))

    def admit(
        self, ids: list[int], stats: Optional[EnumerationStats] = None
    ) -> Optional[RelSRS]:
        """The system of the ascending rule ids if the config admits it: R
        and S nonempty, every letter used, canonical, not settled by
        trivial_verdict, each as the config asks and checked in this order,
        which the stats rejection counters follow; else None."""
        cfg = self.config
        if cfg.require_nonempty_r and ids[0] >= self.n_strict:
            return None
        if cfg.require_nonempty_s and ids[-1] < self.n_strict:
            return None
        mask = 0
        for i in ids:
            mask |= self.masks[i]
        if cfg.require_all_letters_used and mask != self.full_mask:
            if stats:
                stats.rejected_letters_unused += 1
            return None
        if not self.is_canonical(ids):
            if stats:
                stats.noncanonical_skipped += 1
            return None
        system = self.build(ids)
        if cfg.prune_trivial and trivial_verdict(system) is not None:
            if stats:
                stats.pruned_trivial += 1
            return None
        return system


@lru_cache(maxsize=1)
def _context(config: EnumerationConfig) -> _Context:
    """The context of the config last asked for, built once for all callers."""
    return _Context(config)


def _candidates(ctx: _Context, lo: int, hi: int, remaining: int, slots: int) -> list[int]:
    """Ids in lo..hi-1, ascending, whose size leaves the block completable.

    The last slot takes rules of size exactly remaining.  An earlier slot
    leaves at least 1 for each later one: later picks have larger ids, and
    id 0 (the strict empty rule) is the only rule of size 0.
    """
    if slots == 1:
        ids = ctx.ids_of_size.get(remaining, [])
    else:
        bound = min(remaining - (slots - 1), ctx.config.max_size)
        if bound < 0:
            return []
        ids = ctx.ids_up_to_size[bound]
    return ids[bisect_left(ids, lo) : bisect_left(ids, hi)]


def _gen_block(
    ctx: _Context, size: int, rule_count: int, stats: Optional[EnumerationStats]
) -> Iterator[RelSRS]:
    cfg = ctx.config
    n_strict = ctx.n_strict
    twin = ctx.twin
    chosen: list[int] = []
    chosen_set: set[int] = set()

    def rec(min_id: int, remaining: int, slots: int) -> Iterator[RelSRS]:
        last = slots == 1
        lo, hi = min_id, len(ctx.rules)
        if cfg.require_nonempty_r and not chosen:
            hi = n_strict  # strict ids come first, so R is now or never
        if cfg.require_nonempty_s and last and (not chosen or chosen[-1] < n_strict):
            lo = max(lo, n_strict)  # S is still empty: the last rule is relative
        for i in _candidates(ctx, lo, hi, remaining, slots):
            if twin.get(i) in chosen_set:
                continue  # strict copy of the same pair is already in
            chosen.append(i)
            if last:
                system = ctx.admit(chosen, stats)
                if system is not None:
                    yield system
            else:
                chosen_set.add(i)
                yield from rec(i + 1, remaining - ctx.sizes[i], slots - 1)
                chosen_set.discard(i)
            chosen.pop()

    if rule_count >= 1:
        yield from rec(0, size, rule_count)


def enumerate_block(config: EnumerationConfig, size: int, rule_count: int) -> Iterator[RelSRS]:
    """Canonical systems of exactly this total size and rule count, in key order."""
    return _gen_block(_context(config), size, rule_count, None)


class EnumerationStream:
    """Iterator over all canonical systems for a config, with running stats.

    Order: total size ascending, then rule count, then rule-list key.
    """

    def __init__(self, config: EnumerationConfig):
        self.config = config
        ctx = _context(config)
        self.stats = EnumerationStats(
            universe_rules=len(ctx.rules),
            excluded_identity_rules=ctx.excluded_identity,
        )
        self._gen = self._run(ctx)

    def _run(self, ctx: _Context) -> Iterator[RelSRS]:
        for size in range(self.config.max_size + 1):
            # at most one rule of size zero exists, so rule counts beyond
            # size + 1 are unreachable
            for rule_count in range(1, size + 2):
                for system in _gen_block(ctx, size, rule_count, self.stats):
                    self.stats.emitted += 1
                    self.stats.by_size[size] = self.stats.by_size.get(size, 0) + 1
                    yield system

    def __iter__(self) -> Iterator[RelSRS]:
        return self._gen


def enumerate_systems(config: EnumerationConfig) -> EnumerationStream:
    return EnumerationStream(config)


def stream_contains(config: EnumerationConfig, system: RelSRS) -> bool:
    """Exact membership test for the enumeration stream.

    Maps the system's own rules into the generator's universe, without
    dropping repeats or twins (the stream emits neither), takes the smallest
    image under the symmetry tables and asks the generator's filters, so a
    True answer names a system the stream provably emits without scanning
    up to it.
    """
    ctx = _context(config)
    try:
        ids = [ctx.id_of[r] for r in system.rules]
    except KeyError:
        return False  # a letter beyond the alphabet, or a rule outside the universe
    if (
        not ids
        or len(set(ids)) != len(ids)
        or any(ctx.twin.get(i) in ids for i in ids)
        or sum(ctx.sizes[i] for i in ids) > config.max_size
    ):
        return False
    ids = min([sorted(ids)] + [sorted(table[i] for i in ids) for table in ctx.tables])
    return ctx.admit(ids) is not None


def _flag(value: bool) -> str:
    return "on" if value else "off"


def enumeration_manifest(stream: EnumerationStream) -> str:
    """Drain what is left of the stream and render a stable text report.

    The config and every count are read from the stream, so a stream
    already consumed, in part or whole, reports the same as a fresh one.
    """
    for _ in stream:
        pass
    config, stats = stream.config, stream.stats
    lines = [
        "relative SRS enumeration manifest",
        (
            f"config: alphabet={config.alphabet_size} max-size={config.max_size}"
            f" require-all-letters={_flag(config.require_all_letters_used)}"
            f" nonempty-R={_flag(config.require_nonempty_r)}"
            f" nonempty-S={_flag(config.require_nonempty_s)}"
            f" identify-reversal={_flag(config.identify_reversal)}"
            f" prune-trivial={_flag(config.prune_trivial)}"
        ),
        f"universe: {stats.universe_rules} rules"
        f" (relative identity rules excluded: {stats.excluded_identity_rules})",
    ]
    if stats.by_size.get(0):
        lines.append(f"size 0: {stats.by_size[0]}")
    for s in range(1, config.max_size + 1):
        lines.append(f"size {s}: {stats.by_size.get(s, 0)}")
    lines += [
        f"total: {stats.emitted}",
        f"noncanonical skipped: {stats.noncanonical_skipped}",
        f"rejected (letters unused): {stats.rejected_letters_unused}",
        f"pruned trivial: {stats.pruned_trivial}",
    ]
    return "\n".join(lines) + "\n"
