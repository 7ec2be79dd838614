"""Proving relative termination: the weight and matrix searches and prove().

Matrix search is exhaustive for every dimension up to the bound, under an
assignment cap and the prove deadline.  The matrix conventions, and the
checkers that re-verify every certificate, are in `relsrs.check`.

The search reads its semiring in one place, a `_FlatKernel` per dimension
that holds its own arithmetic, entry pool and candidates.  Each candidate
is a flat row-major tuple, entry (i, j) at index i*d + j, with closed-form
products for d = 2 and a generic product otherwise, over the checker's
entries, ints and NEG_INF, exact for the reasons given in `relsrs.check`.
A found assignment is cut back into rows and re-checked by check_matrix.

The search gives the letters their matrices in turn, and checks each rule
at the level of each of its letters, in stages.  Each side is split into
runs of other letters and runs of the level's letter.  Once per search,
each candidate gets an entry that holds the powers those runs need (b b in
a b -> b b a), or None when a rule in the level's letter alone fails
(b ->=); once per prefix, each run of other letters is multiplied; a visit
to a candidate only multiplies what mixes it with the prefix.  Its tables
(candidates, entries, the last letter's below) are made as the search
first reaches them: none ahead of the cap or deadline.

At the level of its last letter a rule is checked exactly.  Before it, the
rule is checked on bounds: each letter not yet assigned stands for `high`,
the pool's entry-wise greatest matrix, on the left side and for `low`, its
least, on the right.  Both semirings are monotone in every entry: the
entries of a natural product are sums of products of entries >= 0, those
of an arctic product maxima of sums, and each grows when any factor's
entry grows.  So whatever the later letters are, the left side is at most
its bound and the right side at least its bound, entry by entry, and the
rule fails, for every completion, when its bounds fail the rule test:
- some entry has left bound < right bound (any rule);
- the (1,d) corner has left bound <= right bound (a strict natural rule);
- some entry has left bound <= right bound while the right bound is not
  -inf (a strict arctic rule).
The candidate is then counted and not completed.  Only subtrees that hold
no certificate are cut, so the search returns the full search's first
certificate and, uncapped, the full search's answer; the assignment cap
counts visited assignments only.

At d = 2 the arctic search skips conjugates: D M D^-1 with D = diag(0, p)
keeps every rule's verdict and adds -p to (1,2) entries and p to (2,1)
ones.  An assignment is canonical unless the shift p = 1 or -1 that lowers
its first finite off-diagonal entry in search order stays in the pool
{-inf, -1, ..., max_entry}.  The first assignment that holds is canonical,
or that shift of it would hold and come first, so the last letter only
completes canonical assignments: the search finds the full search's first
certificate and visits fewer assignments.  No earlier letter can be pruned
this way: every prefix has a canonical completion, such as a last letter
with (1,2) = (2,1) = -1.

Before an arctic search runs, the greedy search
`relsrs.nonterm.search_growth_witness` looks for a growth witness, a
derivation from some word w with more than |w| * E strict steps, E the
largest entry, and one that replays ends the search `refuted`.  No arctic
interpretation the search could return, in any dimension, survives it.
The checker needs every letter's (1,1) entry finite and >= 0, so for every
word 0 <= [w](1,1): the (1,1) entry of a product is at least the sum of
the factors' (1,1) entries, and the empty word's is 0.  Every entry of
[w] is a maximum of sums of |w| letter entries, so [w](1,1) <= |w| * E.
A strict step u l v -> u r v has [l] >> [r]: take the i, j at which
[u r v](1,1) = [u](1,i) + [r](i,j) + [v](j,1), all finite as that sum is
>= 0; then [l](i,j) >= [r](i,j) + 1 over the integers, so [u l v](1,1)
is at least [u r v](1,1) + 1.  A relative step has [l] >= [r] at every
entry and never raises it.  So k strict steps from w need |w| * E >= k.
The bounds read only the (1,1) entries and the largest entry: entries of
-1 and -inf, and the dimension, do not enter them.

The weight search is the same depth-first search over the letters, with
a closed form per letter: each rule bounds the next weight linearly, so
the weights that pass the reach bound are one interval.  The search
descends into that interval only and counts the cut weights on either
side without visiting them, so its nodes are those of trying every weight.

prove() returns a `ProofOutcome`, its verdict with the `Attempt` log.  It
runs a fixed method order, so outcomes are deterministic for a given
budget: `trivial_verdict`, which settles some systems with no search, then
the strictification strategy, which rests on SN(R union S) => SN(R/S) and
on a loop of R union S refuting SN(R/S) once SN(S) holds.  Its methods are
one table, built per call from the budget and the deadline, with a row per
method in order (weights, the mixed-loop search, natural and arctic
matrices): the attempt name, its detail, the reason a direct-phase
certificate gives, and the search.  The rows look their searches up in
this module when they are called, so a wrapper put on `search_weights`,
`search_mixed_loop` or `search_matrix` here (perfbench's tracer, the
tests) sees every attempt: each attempt but `trivial` and `timeout` is
exactly one search call, made in the order of the log.  prove runs the
table in three phases:

- `s-`: S alone made strict, also when S is empty (the empty weight
  vector proves that at once).  A proof gives SN(S); a loop ends the
  phase and skips the next one.
- `strictified-`, only once SN(S) is proven: the strictified system
  R union S.  A proof settles YES, as a composite; a loop settles NO, as it
  stands.  Under SN(S) every loop of R union S uses a rule of R (a loop of
  S alone would refute SN(S)), so it is a mixed loop of R/S with the same
  rule indices, since `strictify` keeps rule order.
- no tag: the system itself.  A proof settles YES, a mixed loop NO.

Most small systems are strictly terminating and settled by weights, and
a system with weights has no loop, so putting the loop search after them
only saves time.  Once SN(S) is proven, the direct phase skips its
mixed-loop row (no call, no attempt), as the strictified loop search has
answered it.  Both searches have the same loop rules (`relsrs.nonterm`
reads no strict flag to find them) in the same order, so the same
successors, and the same start words: by its contract,
`relsrs.nonterm._starts` reads no strict flag, only the used letters and
the searched lhss, and strictify keeps both.  When the loop rules hold no
strict rule of R/S, the direct search ends at once, and under SN(S) a
loop among S rules alone is a loop of S, so the strictified search finds
none there either.  Otherwise the direct breadth-first search keeps
(word, a strict step used) pairs; its words first appear in the
strictified search's order, through the same parents, and a word's other
pair comes later.  A redex is one node whatever the flag, so at every
point the direct search has counted at least as many nodes.  Under SN(S)
a successor that holds the start word is not reached by S steps alone
(that is a loop of S), so the direct search meets the strictified one's
first loop at the same place, with the same certificate.  When the
strictified search finds no loop, neither does the direct one; a
`deadline` ends prove.

A certificate that settles the system is returned as its verdict.  Every
search checks the deadline itself and records in its SearchReport why it
stopped; the attempt is logged `found` or with that record: `cap` for a
search cut by its node budget or assignment cap, `deadline` for one cut by
the deadline, `none` for one that found nothing within its bounds,
`refuted` for an arctic search ended by a growth witness, with the
witness's start word and count as the detail.  prove reads no clock: it
returns `timeout` after the first attempt logged `deadline`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import compress, groupby, product, repeat
from operator import ge, itemgetter
from typing import NamedTuple, Optional

from .certificates import (
    NEG_INF,
    SEMIRINGS,
    ArcticMatrixCertificate,
    Certificate,
    ComposeCertificate,
    EmptyRCertificate,
    LoopCertificate,
    NaturalMatrixCertificate,
    Semiring,
    WeightCertificate,
)
from .check import check_matrix
from .core import (
    Derivation, RelSRS, ReplayError, Rule, Step, replay, s_as_strict, strict_step_count, strictify,
    used_letters,
)
from .nonterm import (
    DEFAULT_MAX_STEPS, DEFAULT_MAX_WORD_LEN, DEFAULT_NODE_BUDGET, SearchReport, give_up,
    search_growth_witness, search_mixed_loop,
)

# unused here, but perfbench/spans.py wraps these names in this module
from .check import check_loop_certificate, verify_certificate  # noqa: F401
from .nonterm import search_emitting_loop  # noqa: F401


# ----------------------------------------------------------------- budget


@dataclass(frozen=True)
class ProveBudget:
    """The bounds of prove's searches; the loop bounds hold in every phase.
    matrix_assignment_cap also caps the nodes of the weight search.  The
    searches below take their defaults from here."""

    max_weight: int = 16
    # exhaustive matrix search for every dimension up to matrix_max_dim
    matrix_max_dim: int = 2
    matrix_max_entry: int = 2
    matrix_assignment_cap: int = 500_000
    loop_max_word_len: int = DEFAULT_MAX_WORD_LEN
    loop_max_steps: int = DEFAULT_MAX_STEPS
    loop_max_start_len: int = 6
    loop_node_budget: int = DEFAULT_NODE_BUDGET


_DEFAULT_BUDGET = ProveBudget()  # prove's when given none: frozen, so safe to share

SWEEP_BUDGET = ProveBudget(
    max_weight=8,
    matrix_max_dim=2,
    matrix_max_entry=2,
    matrix_assignment_cap=20_000,
    loop_max_word_len=8,
    loop_max_steps=10,
    loop_max_start_len=4,
    loop_node_budget=4_000,
)


class _SearchStop(Exception):
    """Unwinds a depth-first search cut by its cap or the deadline."""


# ---------------------------------------------------------------- weights


def search_weights(
    system: RelSRS,
    max_weight: int = ProveBudget.max_weight,
    *,
    assignment_cap: int = ProveBudget.matrix_assignment_cap,
    deadline: Optional[float] = None,
    report: Optional[SearchReport] = None,
) -> Optional[WeightCertificate]:
    """The lexicographically first vector of integer weights 0..max_weight
    over the letters used in rules (in letter order) that proves the system,
    or None when there is none.

    A depth-first search gives the letters their weights in turn, each
    smallest first.  A rule j only sees its per-letter count differences
    delta = |lhs| - |rhs|.  The letters from k on can add at most
    reach_k = max_weight * (the sum of their max(0, delta)) to its total t,
    and a partial vector with t + reach_k < need (1 strict, 0 relative) is
    cut.  So a node at letter k that is not cut keeps the weights w with
    w * delta_jk >= need_j - t_j - reach_(k+1) for every j: one interval
    [lo, hi], bounded below by a ceiling where delta > 0 and above by a
    floor where delta < 0 (delta = 0 holds for every w, as the node itself
    was not cut).  The search descends only into that interval, and at the
    last letter lo is the answer.  A letter whose delta is 0 in every rule
    only takes weight 0, which keeps the first vector the same.  Each
    partial vector is a node, the cut ones below lo and above hi included,
    counted in the order of trying every weight, so the nodes, the vector
    and where assignment_cap falls are those of that search.  It gives up
    after assignment_cap nodes (counting assignment_cap + 1) or at the
    monotonic-clock deadline, checked at each node it descends into, as
    search_matrix does.
    """
    used = used_letters(system)
    n = len(used)
    cols = [[rule.lhs.count(c) - rule.rhs.count(c) for rule in system.rules] for c in used]
    tops = [max_weight if any(col) else 0 for col in cols]
    # floors[k][j] = need_j - reach_k: what rule j's total must reach before used[k:]
    floors = [[1 if rule.strict else 0 for rule in system.rules]]
    for col in reversed(cols):
        floors.insert(0, [m - max_weight * d if d > 0 else m for m, d in zip(floors[0], col)])
    nodes = 1  # the empty vector

    def first(k: int, totals: list[int]) -> Optional[list[int]]:
        nonlocal nodes
        if deadline is not None and time.monotonic() >= deadline:
            raise _SearchStop()
        lo, hi = 0, tops[k]
        for t, d, m in zip(totals, cols[k], floors[k + 1]):
            if d > 0:
                w = (m - t + d - 1) // d
                if w > lo:
                    lo = w
            elif d < 0:
                w = (m - t) // d
                if w < hi:
                    hi = w
        lo = min(lo, hi + 1)
        nodes += lo
        for w in range(lo, hi + 1):
            nodes += 1
            if nodes > assignment_cap:
                raise _SearchStop()
            if k + 1 == n:
                return [w]
            rest = first(k + 1, [t + w * d for t, d in zip(totals, cols[k])])
            if rest is not None:
                return [w] + rest
        nodes += tops[k] - hi
        if nodes > assignment_cap:
            raise _SearchStop()
        return None

    try:
        if nodes > assignment_cap or (deadline is not None and time.monotonic() >= deadline):
            raise _SearchStop()
        if any(m > 0 for m in floors[0]):
            vec = None
        else:
            vec = first(0, [0] * len(floors[0])) if n else []
    except _SearchStop:
        vec = give_up(report, "cap" if nodes > assignment_cap else "deadline")
    finally:
        del first  # it refers to itself: free it now, not at the next collection
    if report is not None:
        report.nodes += min(nodes, max(assignment_cap, 0) + 1)
    if vec is None:
        return None
    return WeightCertificate({system.letters[c]: Fraction(w) for c, w in zip(used, vec)})


# ----------------------------------------------------------- matrix search


def _nat_mul_2(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 + a1 * b2, a0 * b1 + a1 * b3, a2 * b0 + a3 * b2, a2 * b1 + a3 * b3)


def _nat_mul_any(d, a, b):
    return tuple(
        sum(a[i + k] * b[k * d + j] for k in range(d)) for i in range(0, d * d, d) for j in range(d)
    )


def _arc_mul_2(a, b):
    # conditional expressions, as a call to max() per entry costs twice as much
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    x, y = a0 + b0, a1 + b2
    c0 = x if x > y else y
    x, y = a0 + b1, a1 + b3
    c1 = x if x > y else y
    x, y = a2 + b0, a3 + b2
    c2 = x if x > y else y
    x, y = a2 + b1, a3 + b3
    return (c0, c1, c2, x if x > y else y)


def _arc_mul_any(d, a, b):
    return tuple(
        max(a[i + k] + b[k * d + j] for k in range(d)) for i in range(0, d * d, d) for j in range(d)
    )


_END = object()


class _Made:
    """A sequence made as iteration first reaches it and kept for the next
    pass."""

    def __init__(self, source):
        self._source = iter(source)
        self._made: list = []

    def __iter__(self):
        made = self._made
        i = 0
        while True:
            if i == len(made):
                item = next(self._source, _END)  # an item may be None
                if item is _END:
                    return
                made.append(item)
            yield made[i]
            i += 1


class _FlatKernel:
    """What the matrix search knows about a semiring at one dimension: the
    product of flat matrices, the identity, the rule test, and the letter
    matrices allowed, the product of one pool per entry in row-major order,
    made as the search first reaches them and kept (at d = 3 the arctic pool
    gives over a million).  The letter condition (`Semiring.letter_fault`)
    filters the first and last pools, which keeps the product's order.
    `low` and `high` are the entry-wise least and greatest candidates, read
    off the pools, or None when a pool is empty and there is no candidate.
    `conjugation_top` is the top entry of the d = 2 arctic filter, or None."""

    def __init__(self, semiring: Semiring, d: int, max_entry: int):
        if semiring.name == "natural":
            mul_2, mul_any = _nat_mul_2, _nat_mul_any
            pool = list(range(max_entry + 1))
            self.conjugation_top = None
            first, last = 1, 1  # the least (1,1) and (d,d) entries
        else:
            mul_2, mul_any = _arc_mul_2, _arc_mul_any
            pool = [NEG_INF, *range(-1, max_entry + 1)]
            self.conjugation_top = max_entry if d == 2 else None
            first, last = 0, NEG_INF  # a finite (1,1) entry >= 0, any (d,d) entry
        self.mul = mul_2 if d == 2 else partial(mul_any, d)
        self.corner = d - 1 if semiring.corner_only else None
        self.identity = tuple(x for row in semiring.identity(d) for x in row)
        pools = [pool] * (d * d)
        pools[0] = [x for x in pool if x >= first]
        pools[-1] = [x for x in pools[-1] if x >= last]
        self.candidates = _Made(product(*pools))
        self.low = self.high = None
        if all(pools):
            self.low, self.high = tuple(map(min, pools)), tuple(map(max, pools))

    def decreases(self, left: tuple, right: tuple, strict: bool) -> bool:
        """The test of a rule whose sides map to `left` and `right`: >=
        entry-wise, and for a strict rule > at the (1,d) corner (natural) or
        >> at every entry (arctic)."""
        corner = self.corner
        if not strict:
            return all(map(ge, left, right))
        if corner is None:
            # x >> y, i.e. x > y or y = -inf, at every entry; a loop is
            # about twice as fast as all() over a generator
            for x, y in zip(left, right):
                if x <= y and y != NEG_INF:
                    return False
            return True
        return left[corner] > right[corner] and all(map(ge, left, right))


def _runs(word: tuple, letter: int) -> list:
    """The runs of a word, in order: a run of `letter` as its length, a run
    of other letters as a tuple of them."""
    return [len(list(run)) if mine else tuple(run) for mine, run in groupby(word, letter.__eq__)]


def _side(kernel: _FlatKernel, factors: list):
    """A side's value as a function of a candidate's entry: `factors` holds
    products of earlier letters, and functions that take a power of the
    candidate from its entry, in word order."""
    mul = kernel.mul
    if not factors:
        return lambda entry, one=kernel.identity: one
    first, *rest = factors
    side = first if callable(first) else lambda entry: first
    for f in rest:
        if callable(f):
            side = lambda entry, g=side, power=f: mul(g(entry), power(entry))
        else:
            side = lambda entry, g=side, b=f: mul(g(entry), b)
    return side


class _Level:
    """The rules the search checks at one level: those in which `letter`
    occurs.  Their other letters are assigned at earlier levels, or are in
    `later`, assigned after this level.

    A rule in `letter` alone is decided once per candidate, by `entry`.
    Each side of any other rule is split into runs of other letters and
    runs of `letter`: `enter` multiplies the former once per prefix, and
    `entry` gives each candidate the powers the latter need, so a visit
    only multiplies what mixes the candidate with the prefix.  A letter in
    `later` stands for the kernel's `high` on a left side and its `low` on
    a right side, so a rule that still has one is tested on its bounds."""

    def __init__(
        self, kernel: _FlatKernel, letter: int, rules: list[Rule], later: frozenset = frozenset()
    ):
        self.kernel = kernel
        self.later = later
        self.alone = []  # (|lhs|, |rhs|, strict)
        self.mixed = []  # (runs of lhs, runs of rhs, strict)
        for rule in rules:
            if set(rule.lhs + rule.rhs) <= {letter}:
                self.alone.append((len(rule.lhs), len(rule.rhs), rule.strict))
            else:
                self.mixed.append((_runs(rule.lhs, letter), _runs(rule.rhs, letter), rule.strict))
        # the longest run of `letter`: an entry holds the powers up to it
        self.reach = max([1] + [k for lhs, rhs, _ in self.mixed for k in lhs + rhs if type(k) is int])
        self.top = max([self.reach] + [n for lhs, rhs, _ in self.alone for n in (lhs, rhs)])
        # the entries keep each distinct power above the first once
        self.shared: dict = {}
        # flat(entry) is the candidate, power(k)(entry) its k-th power
        if self.reach == 1:
            # no closure over self, so the level is freed without the cyclic collector
            self.flat = flat = lambda entry: entry
            self.power = lambda k: flat
        else:
            self.flat = itemgetter(0)
            self.power = lambda k: itemgetter(k - 1)

    def entry(self, flat: tuple):
        """A candidate's entry: None when a rule in `letter` alone fails,
        else the candidate itself when `reach` is 1, and its powers 1, ...,
        `reach` otherwise."""
        kernel = self.kernel
        power = [kernel.identity, flat]
        while len(power) <= self.top:
            power.append(kernel.mul(power[-1], flat))
        for lhs, rhs, strict in self.alone:
            if not kernel.decreases(power[lhs], power[rhs], strict):
                return None
        if self.reach == 1:
            return flat
        return (flat, *(self.shared.setdefault(m, m) for m in power[2 : self.reach + 1]))

    def enter(self, flats: list):
        """The test of the other rules for the prefix in `flats`: whether
        they hold with a candidate, given its entry, or for a rule with a
        letter in `later`, whether its bounds do."""
        kernel = self.kernel
        decreases, mul = kernel.decreases, kernel.mul
        upper, lower = list(flats), list(flats)
        for c in self.later:
            upper[c], lower[c] = kernel.high, kernel.low

        def side(runs: list, matrices: list):
            get = matrices.__getitem__
            return _side(
                kernel, [self.power(k) if type(k) is int else reduce(mul, map(get, k)) for k in runs]
            )

        plans = [(side(lhs, upper), side(rhs, lower), strict) for lhs, rhs, strict in self.mixed]

        def holds(entry) -> bool:
            for lhs, rhs, strict in plans:
                if not decreases(lhs(entry), rhs(entry), strict):
                    return False
            return True

        return holds


def _last_candidates(kernel: _FlatKernel, items):
    """last(prefix): the `items` made for the kernel's candidates, in the
    same order; under the arctic d = 2 conjugation filter only those of the
    canonical completions, from a table per shift made as it is read."""
    top = kernel.conjugation_top
    if top is None:
        return lambda prefix: items

    def blocks(m: tuple, p: int) -> bool:  # the shift p takes m out of the pool
        return m[1] == -1 or m[2] == top if p > 0 else m[1] == top or m[2] == -1

    def shift(prefix: list) -> int:  # p lowers the first finite off-diagonal entry; 0, none
        return next((1 if m[1] != NEG_INF else -1 for m in prefix if max(m[1:3]) != NEG_INF), 0)

    def fits(m: tuple, p: int) -> bool:  # m completes a prefix of shift p canonically
        p = p or shift([m])  # after a prefix of shift 0, m's own shift
        return p == 0 or blocks(m, p)

    def last(prefix: list):
        p = shift(prefix)
        return items if any(blocks(m, p) for m in prefix) else tables[p]

    tables = {p: _Made(compress(items, map(fits, kernel.candidates, repeat(p)))) for p in (1, -1, 0)}
    return last


def _exhaustive_matrix_search(
    system: RelSRS,
    semiring: Semiring,
    d: int,
    max_entry: int,
    cap: int,
    deadline: Optional[float],
    report: Optional[SearchReport],
) -> Optional[dict]:
    # a strict rule with an empty lhs never holds: the identity cannot beat
    # a product at the natural (1,d) corner or at the arctic (1,1) entry
    if any(rule.strict and not rule.lhs for rule in system.rules):
        return None
    used = used_letters(system)
    kernel = _FlatKernel(semiring, d, max_entry)
    if kernel.low is None:  # no candidate
        return None
    flats: list = [None] * len(system.letters)
    # a rule is checked at the level of each of its letters: on its bounds
    # before its last letter, exactly at it.  A weak rule with no letters
    # always holds.
    ready: dict[int, list[Rule]] = {c: [] for c in used}
    for rule in system.rules:
        for c in set(rule.lhs + rule.rhs):
            ready[c].append(rule)
    levels = [_Level(kernel, c, ready[c], frozenset(used[i + 1 :])) for i, c in enumerate(used)]
    # each level's entry for each candidate, made once per search
    entries = [_Made(map(level.entry, kernel.candidates)) for level in levels]
    last = _last_candidates(kernel, entries[-1]) if used else None
    visited = 0

    def rec(level: int) -> bool:
        nonlocal visited
        if level == len(used):
            return True
        letter, flat, holds = used[level], levels[level].flat, levels[level].enter(flats)
        pool = entries[level] if level < len(used) - 1 else last([flats[c] for c in used[:level]])
        for entry in pool:
            visited += 1
            if visited > cap or (deadline is not None and time.monotonic() >= deadline):
                raise _SearchStop()
            if entry is not None and holds(entry):
                flats[letter] = flat(entry)
                if rec(level + 1):
                    return True
        return False

    try:
        found = rec(0)
    except _SearchStop:
        found = give_up(report, "cap" if visited > cap else "deadline")
    finally:
        del rec  # it refers to itself: free its tables now, not at the next collection
    if report is not None:
        report.nodes += visited
    if not found:
        return None
    # the letters keep the matrices they had when the last level held
    return {c: tuple(flats[c][i : i + d] for i in range(0, d * d, d)) for c in used}


def _matrix_search(
    system: RelSRS,
    semiring: str,
    max_dim: int = ProveBudget.matrix_max_dim,
    max_entry: int = ProveBudget.matrix_max_entry,
    *,
    assignment_cap: int = ProveBudget.matrix_assignment_cap,
    deadline: Optional[float] = None,
    report: Optional[SearchReport] = None,
) -> Optional[NaturalMatrixCertificate | ArcticMatrixCertificate]:
    """The exhaustive part of search_matrix: every dimension 1..max_dim in
    turn, with no growth witness first."""
    sr = next((s for s in SEMIRINGS if s.name == semiring), None)
    if sr is None:
        raise ValueError(f"semiring must be natural or arctic, got {semiring!r}")
    for d in range(1, max_dim + 1):
        mats = _exhaustive_matrix_search(
            system, sr, d, max_entry, assignment_cap, deadline, report
        )
        if mats is not None:
            cert = sr.certificate(d, {system.letters[c]: m for c, m in mats.items()})
            checked = check_matrix(cert, system)
            if not checked:
                raise RuntimeError(f"matrix search found an unsound certificate: {checked.reason}")
            return cert
    return None


def search_matrix(
    system: RelSRS,
    semiring: str,
    max_dim: int = ProveBudget.matrix_max_dim,
    max_entry: int = ProveBudget.matrix_max_entry,
    *,
    assignment_cap: int = ProveBudget.matrix_assignment_cap,
    deadline: Optional[float] = None,
    report: Optional[SearchReport] = None,
) -> Optional[NaturalMatrixCertificate | ArcticMatrixCertificate]:
    """Certificate search for each dimension 1..max_dim in turn.

    An arctic search first looks for a growth witness
    (`relsrs.nonterm.search_growth_witness`, under its own node budget
    `_WITNESS_NODES`).  A witness rules out every arctic interpretation with
    entries up to max_entry, in every dimension, so the search returns None
    with report.stop = "refuted" and the witness in report.witness.
    Otherwise the search is exhaustive (with pruning), each dimension giving
    up after assignment_cap letter assignments or at the monotonic-clock
    deadline, which sets report.stop to "cap" or "deadline"; that None is
    not a proof of absence.  The deadline also stops the witness search,
    whose nodes, found or not, go to report.nodes.  A certificate found is
    re-checked by check_matrix, a witness by replaying it and counting its
    strict steps, and either one that fails its check raises
    RuntimeError."""
    # a strict rule with an empty lhs ends the exhaustive search at once
    if semiring == "arctic" and all(rule.lhs or not rule.strict for rule in system.rules):
        # its own report, read even when the caller hands in none
        own = SearchReport()
        witness = search_growth_witness(
            system, max_entry, _WITNESS_NODES, deadline=deadline, report=own
        )
        if report is not None:
            report.nodes += own.nodes
        if own.stop == "deadline":
            return give_up(report, "deadline")
        if witness is not None:
            _check_growth(witness, system, max_entry)
            if report is not None:
                report.witness = witness
            return give_up(report, "refuted")
    return _matrix_search(
        system, semiring, max_dim, max_entry,
        assignment_cap=assignment_cap, deadline=deadline, report=report,
    )


# ---------------------------------------------------------- growth witness

# the growth-witness search's node budget, a node per word it looks at
_WITNESS_NODES = 2_000


def _check_growth(witness: Derivation, system: RelSRS, max_entry: int) -> None:
    """Replay a growth witness and count its strict steps; RuntimeError
    unless it applies and has more than |start| * max_entry of them."""
    try:
        replay(witness, system)
    except ReplayError as e:
        raise RuntimeError(f"growth witness does not replay: {e}") from None
    k, n = strict_step_count(witness, system), len(witness.start)
    if k <= n * max_entry:
        raise RuntimeError(f"growth witness has {k} strict steps, not more than {n}*{max_entry}")


# ------------------------------------------------------------------ prove


class Attempt(NamedTuple):
    method: str
    outcome: str
    detail: str = ""


class ProofOutcome(NamedTuple):
    verdict: str  # "YES", "NO", or "MAYBE"
    certificate: Optional[Certificate] = None
    reason: str = ""
    attempts: tuple[Attempt, ...] = ()


def trivial_verdict(system: RelSRS) -> Optional[ProofOutcome]:
    """prove's whole outcome, `trivial` attempt included, when it needs no search.

    A strict rule with lhs = rhs loops in place; a strict rule with empty
    lhs re-applies inside its own output forever.  Either way the lhs is a
    prefix of the rhs, so one step from the lhs is the loop, with the rest
    of the rhs as its right flank.  Empty R terminates relative to anything.
    """
    for i, rule in enumerate(system.rules):
        same = rule.lhs == rule.rhs
        if rule.strict and (same or not rule.lhs):
            cert = LoopCertificate("mixed", rule.lhs, (Step(i, 0),), (), rule.rhs[len(rule.lhs) :])
            reason = "strict rule with lhs = rhs" if same else "strict rule with empty lhs"
            return ProofOutcome("NO", cert, reason, (Attempt("trivial", "NO", reason),))
    if not system.strict_rules:
        reason = "R is empty"
        return ProofOutcome("YES", EmptyRCertificate(), reason, (Attempt("trivial", "YES", reason),))
    return None


def _methods(b: ProveBudget, deadline: Optional[float]) -> tuple:
    """prove's methods in order, one row each: the attempt name in the
    direct phase (the other phases put their tag in front of it, and the
    loop drops `mixed-`), its detail, the reason a certificate found in the
    direct phase gives, and search(system, report)."""
    cap = {"assignment_cap": b.matrix_assignment_cap, "deadline": deadline}
    dims = f"dim <= {b.matrix_max_dim}, entries <= {b.matrix_max_entry}"

    def matrix(semiring: str):
        return lambda system, report: search_matrix(
            system, semiring, b.matrix_max_dim, b.matrix_max_entry, **cap, report=report
        )

    def weights(system: RelSRS, report: SearchReport):
        return search_weights(system, b.max_weight, **cap, report=report)

    def loop(system: RelSRS, report: SearchReport):
        return search_mixed_loop(
            system, b.loop_max_word_len, b.loop_max_steps, max_start_len=b.loop_max_start_len,
            node_budget=b.loop_node_budget, deadline=deadline, report=report,
        )

    return (
        ("weights", f"max {b.max_weight}", "weight certificate", weights),
        ("mixed-loop", "", "mixed loop", loop),
        ("matrix-natural", dims, "natural matrix certificate", matrix("natural")),
        ("matrix-arctic", dims, "arctic matrix certificate", matrix("arctic")),
    )


def prove(
    system: RelSRS,
    budget: Optional[ProveBudget] = None,
    *,
    deadline: Optional[float] = None,
) -> ProofOutcome:
    if (trivial := trivial_verdict(system)) is not None:
        return trivial
    attempts: list[Attempt] = []
    budget = budget or _DEFAULT_BUDGET
    methods = _methods(budget, deadline)
    s_proven = False  # SN(S), which the strictified phase builds on
    for tag, form in (("s-", s_as_strict), ("strictified-", strictify), ("", None)):
        if tag == "strictified-" and not s_proven:
            continue
        phase_system = form(system) if form else system
        for name, detail, reason, search in methods:
            if not tag and name == "mixed-loop" and s_proven:
                continue  # the strictified loop search has answered it
            report = SearchReport()
            cert = search(phase_system, report)
            loop = isinstance(cert, LoopCertificate)
            if tag == "s-" and loop:
                detail = "S alone does not terminate"
            if report.witness is not None:
                w, e = report.witness, budget.matrix_max_entry
                k = strict_step_count(w, phase_system)
                detail = f"{phase_system.word_str(w.start)}: {k} strict steps > {len(w.start)}*{e}"
            name = tag + name.removeprefix("mixed-") if tag else name
            attempt = Attempt(name, "found" if cert is not None else report.stop, detail)
            attempts.append(attempt)
            if attempt.outcome == "deadline":
                attempts.append(Attempt("timeout", "hit", "wall clock budget exhausted"))
                return ProofOutcome("MAYBE", None, "timeout", tuple(attempts))
            if cert is None:
                continue
            if tag == "s-":
                s_proven = not loop
                break
            if tag and loop:  # a mixed loop of R/S as it stands, since SN(S)
                reason = "loop of R union S while S terminates"
            elif tag:
                cert = ComposeCertificate("YES", (("strictified-termination", cert),))
                reason = "R union S terminates"
            return ProofOutcome("NO" if loop else "YES", cert, reason, tuple(attempts))
    return ProofOutcome("MAYBE", None, "no method conclusive within budget", tuple(attempts))
