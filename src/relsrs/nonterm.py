"""Disproving relative termination.

A mixed loop is a derivation v ->+ u.v.w using at least one strict step.
An emitting loop is an S-only derivation v ->+ u.v.w where u or w carries
an occurrence of some strict rule's lhs; pumping the loop then fires that
redex arbitrarily often.  Forward closures give a third route: a closure
(u, v) with at least one strict step whose source u reappears as a factor
of v replays into a mixed loop.  prove runs the mixed-loop search in its
phases (the direct one only while SN(S) is unproven); the emitting-loop
search and the closures serve `relsrs loop` and `relsrs closures`.

The three derivation searches of the package live here: the loop search,
forward-closure saturation, and the growth-witness search `relsrs.term`
runs before an arctic matrix search.  All are bounded and deterministic:
start words come from one generator, `_words`, shorter first then
lexicographic; successors are ordered by rule index then position.
Absence within the bounds is a value, not a proof.  Every search in the
package records why it came back empty in a `SearchReport`, defined here,
through `give_up`.

Both loop searches run one breadth-first kernel, `_search_loop`, and
differ only in their rules and in the witness test on a successor that
contains the start word.  Mixed: the loop rules of R and S, a strict step
used, split at the leftmost occurrence.  Emitting: the loop rules of S,
every occurrence scanned for a strict lhs inside a flank, left flank first.
The kernel counts a successor, then runs the witness test only if it is
new for its "strict step used" flag.  That is exact: the test reads start,
word and flag alone, and each word was tested when first reached.  The
start counts as reached unless it is its own witness, true of every start
or of none (an empty strict lhs), so the kernel asks the empty word.
Closure saturation makes its seen sets on first lookup.

The loop rules, found by `_loop_rules`, are the rules a loop can use, by
the counting argument of Geser and Zantema for non-looping (RAIRO ITA
1999).  A lasting counter of a rule set is a letter c whose count no rule
raises, or the length when no rule lengthens a word; `_lasting` finds
those some rule lowers.  It never rises, and a loop v ->+ x.v.y ends with
at least its first count, so no loop step lowers it: the rules that do
are dropped, again on the rules left until no counter falls.  Take c the
counter of the first round that dropped a rule a derivation uses: all its
rules keep or lower c, so it ends with fewer c than it began, and a
closure (u, v) built through it has #c(u) > #c(v), as a right extension
by x adds #c(x) to u and at most #c(x) to v.  Without dropped rules every
counter stays level.  So nothing reached through a dropped rule is a word
or row reached without one, and those come in the same order through the
same parents, with the same first witness; only node counts fall, and a
search the unfiltered one would cap may end "none" or find a loop past
that cap.  A search whose loop rules hold no strict rule (emitting: no
rule) ends at once, "none" with 0 nodes, even past its deadline.

Here, and nowhere else, a word is a str with one character per letter,
chr(letter), which serves any alphabet size: redex matching, the loop
test, the redex-in-context test and the closure factor test are then
str.find, startswith and `in`, which run in C.  Words are decoded back to
tuples only for what is returned: the certificate, the ForwardClosure
records, the growth witness.  The loop search and saturation keep what
they reach as rows that end (parent row, step), and `_trace` reads a
derivation back through them: a loop row per word kept, a saturation row
(source, target, strict steps, parent row, step) per closure.

`_redexes` lists a word's one-step rewrites by rule, then position; a rule
whose successors would pass the length bound gives only its number of
matches and builds no string.  Closure saturation counts kept closures, not
successors, so it asks for no such counts and those rules go unsearched.
The loop BFS keeps one dict word -> those redexes for all its start
words, which meet the same words again and again, and closure saturation
keeps one keyed by target.  A memo takes no new entry once it holds
_MEMO_ROWS (DEFAULT_NODE_BUDGET) redexes, about 17 MiB on 64-bit CPython
3.11; words past that are expanded afresh each time they come up.
The memo changes what is computed, not what is counted: the kernels walk
the redexes in the order the rewriting generates them, count a redex as
one node and a too-long rule as its number of matches, and check the cap after
each, so a cap that falls inside a run of too-long matches still stops at
cap + 1 nodes.  The deadline is checked before each expansion.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from itertools import product
from typing import Optional

from .certificates import EmittingRedex, LoopCertificate
from .core import Derivation, RelSRS, Step, Word, apply_rule_at, replay, used_letters

DEFAULT_MAX_WORD_LEN = 12
DEFAULT_MAX_STEPS = 40
DEFAULT_MAX_CLOSURE_SIZE = 20
DEFAULT_NODE_BUDGET = 100_000  # nodes of a prove loop search; closures kept by a closure search
# a search call stops memoising successors once its memo holds this many rows
_MEMO_ROWS = DEFAULT_NODE_BUDGET


@dataclass
class SearchReport:
    """Handed to a search to learn why it came back empty.  The search sets
    `stop` where it gives up: "cap" when its node budget or assignment cap
    cut it short (the weight search counts its nodes against the matrix
    assignment cap), "deadline" when the monotonic-clock deadline did.  It
    stays "none" when the search ran to the end of its space.  Every search
    adds what it counted against its cap to `nodes`, so a report handed to
    several searches, or to the matrix search's several dimensions, holds
    their sum.  An arctic matrix search sets `stop` to "refuted" when a
    growth witness rules out every interpretation it could find, and puts
    that derivation in `witness`."""

    stop: str = "none"
    nodes: int = 0
    witness: Optional[Derivation] = None


def give_up(report: Optional[SearchReport], stop: str) -> None:
    """Record in the report, if any, why a search stops; None, its result."""
    if report is not None:
        report.stop = stop


def _encode(word: Word) -> str:
    return "".join(map(chr, word))


def _decode(text: str) -> Word:
    return tuple(map(ord, text))


def _words(system: RelSRS, max_len: int):
    """Encoded words over the letters occurring in rules, shorter first then
    lexicographic: the start words of every search here."""
    letters = _encode(used_letters(system))
    for n in range(max_len + 1):
        yield from map("".join, product(letters, repeat=n))


def _encoded_rules(rules) -> list[tuple[int, str, str, int, int, bool]]:
    """(index, lhs, rhs, |lhs|, |rhs| - |lhs|, strict) per (index, rule)."""
    return [
        (i, _encode(r.lhs), _encode(r.rhs), len(r.lhs), len(r.rhs) - len(r.lhs), r.strict)
        for i, r in rules
    ]


def _lasting(rules) -> tuple[str, bool]:
    """The lasting counters of the encoded `rules` that some rule lowers:
    the letters whose count no rule raises and some rule lowers, and
    whether no rule lengthens a word and some rule shortens one.  A counter
    that no rule changes lasts too, but it drops no rule, so it is left out."""
    falls, rises, signs = set(), set(), set()
    for _, lhs, rhs, _, grow, _ in rules:
        signs.add((grow > 0) - (grow < 0))  # of the length change
        for c in set(lhs + rhs):
            move = rhs.count(c) - lhs.count(c)
            if move:
                (rises if move > 0 else falls).add(c)
    return "".join(sorted(falls - rises)), -1 in signs and 1 not in signs


def _loop_rules(rules) -> list:
    """The encoded `rules` a loop can use: drop each rule that lowers a
    lasting counter (holds more lasting letters in all on its lhs than on
    its rhs, as none raises one), again on the rules left until none does."""
    while True:
        letters, shrinking = _lasting(rules)
        if not letters and not shrinking:
            return rules
        rules = [
            rule for rule in rules
            if not (shrinking and rule[4] < 0)
            and sum(map(rule[1].count, letters)) == sum(map(rule[2].count, letters))
        ]


def _redexes(word: str, rules, bound: int, counts: bool = True) -> tuple:
    """The one-step rewrites of `word` by the encoded `rules`, by rule, then
    position: (rule index, position, successor, strict) per match, and for
    a rule whose successors would be longer than `bound` just the number
    of its matches, overlapping ones included, with no successor built.
    With `counts` false such a rule is skipped without looking for it.
    An empty lhs matches at every position 0..len(word)."""
    out: list = []
    room = bound - len(word)
    for i, lhs, rhs, k, grow, strict in rules:
        if not counts and grow > room:
            continue
        p = word.find(lhs)
        if p < 0:
            continue
        if grow > room:
            count = 0 if k > 1 else word.count(lhs)  # matches of |lhs| < 2 never overlap
            while k > 1 and p >= 0:
                count += 1
                p = word.find(lhs, p + 1)
            out.append(count)
            continue
        if not k:  # an empty lhs fits at every position
            for q in range(len(word) + 1):
                out.append((i, q, word[:q] + rhs + word[q:], strict))
            continue
        out.append((i, p, word.replace(lhs, rhs, 1), strict))  # the match at p
        p = word.find(lhs, p + 1)
        while p >= 0:
            out.append((i, p, word[:p] + rhs + word[p + k :], strict))
            p = word.find(lhs, p + 1)
    return tuple(out)


def _trace(row: Optional[tuple]) -> tuple[Step, ...]:
    """The steps from the start to `row`.  A row ends (parent row, step):
    the parent None at the start, the step beginning (rule, position)."""
    steps = []
    while row is not None:
        step = row[-1]
        steps.append(Step(step[0], step[1]))
        row = row[-2]
    return tuple(reversed(steps))


def _search_loop(
    system: RelSRS,
    rules,
    witness,
    max_word_len: int,
    max_steps: int,
    max_start_len: Optional[int],
    cap: int,
    deadline: Optional[float],
    report: Optional[SearchReport],
) -> Optional[LoopCertificate]:
    """Breadth-first loop search over the encoded `rules`.

    A successor new for its flag "a strict step was used" that contains the
    start word goes to witness(start, successor, flag), exact by the module
    docstring: None, or (split position, redex) for a mixed certificate when
    the redex is None, else an emitting one.  The rest is as in search_mixed_loop.
    """
    lhss = [lhs for _, lhs, _, _, _, _ in rules]
    start_bound = max_word_len if max_start_len is None else min(max_start_len, max_word_len)
    nodes = 0
    own = witness("", "", False)  # every start is its own witness, or none is
    # one redex tuple per word for the whole call, shared by all start words
    memo: dict[str, tuple] = {}
    memo_rows = 0
    try:
        for start in (w for w in _words(system, start_bound) if any(map(w.__contains__, lhss))):
            # the words reached with no strict step used, and with one
            lax, tight = (set() if own else {start}, set())
            # (word, a strict step used, the row that reached it: (parent row,
            # redex), None for start)
            level = [(start, False, None)]
            for _ in range(max_steps):
                following = []
                for word, used, reached in level:
                    if deadline is not None and time.monotonic() >= deadline:
                        return give_up(report, "deadline")
                    redexes = memo.get(word)
                    if redexes is None:
                        redexes = _redexes(word, rules, max_word_len)
                        if memo_rows < _MEMO_ROWS:
                            memo[word] = redexes
                            memo_rows += len(redexes)
                    for row in redexes:
                        if row.__class__ is int:
                            # too long to keep, but every match counts as a node
                            nodes += row
                            if nodes > cap:
                                nodes = cap + 1
                                return give_up(report, "cap")
                            continue
                        nodes += 1
                        if nodes > cap:
                            return give_up(report, "cap")
                        _, _, nxt, strict = row
                        nused = used or strict
                        table = tight if nused else lax
                        if nxt not in table:
                            table.add(nxt)
                            if start in nxt:
                                found = witness(start, nxt, nused)
                                if found is not None:
                                    q, redex = found
                                    return LoopCertificate(
                                        kind="mixed" if redex is None else "emitting",
                                        start=_decode(start),
                                        steps=_trace((reached, row)),
                                        left=_decode(nxt[:q]),
                                        right=_decode(nxt[q + len(start) :]),
                                        redex=redex,
                                    )
                            following.append((nxt, nused, (reached, row)))
                if not following:
                    break
                level = following
        return None
    finally:
        if report is not None:
            report.nodes += nodes


def _mixed_witness(start: str, word: str, used: bool):
    """A strict step was used; split at the leftmost occurrence of start."""
    return (word.find(start), None) if used else None


def search_mixed_loop(
    system: RelSRS,
    max_word_len: int = DEFAULT_MAX_WORD_LEN,
    max_steps: int = DEFAULT_MAX_STEPS,
    *,
    max_start_len: Optional[int] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
    deadline: Optional[float] = None,
    report: Optional[SearchReport] = None,
) -> Optional[LoopCertificate]:
    """Bounded breadth-first search for a mixed loop; None when exhausted.

    max_start_len tightens the start-word length separately from the word
    bound (it defaults to max_word_len, the complete choice up to the bound).
    node_budget (DEFAULT_NODE_BUDGET unless given) caps total generated
    search nodes across all start words; successors longer than
    max_word_len count too.  deadline (monotonic
    clock) is checked before each word is expanded.  A search cut short
    sets report.stop to "cap" or "deadline".
    """
    rules = _loop_rules(_encoded_rules(enumerate(system.rules)))
    if not any(rule[5] for rule in rules):
        return None
    return _search_loop(
        system, rules, _mixed_witness,
        max_word_len, max_steps, max_start_len, node_budget, deadline, report,
    )


def search_emitting_loop(
    system: RelSRS,
    max_word_len: int = DEFAULT_MAX_WORD_LEN,
    max_steps: int = DEFAULT_MAX_STEPS,
    *,
    max_start_len: Optional[int] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
    deadline: Optional[float] = None,
    report: Optional[SearchReport] = None,
) -> Optional[LoopCertificate]:
    """Search S-only derivations v ->+ u.v.w with a strict lhs inside u or w.

    The bounds, node_budget, deadline and report work as in
    search_mixed_loop.
    """
    rel_rules = _loop_rules(
        _encoded_rules((i, r) for i, r in enumerate(system.rules) if not r.strict)
    )
    strict_lhss = [(i, _encode(r.lhs)) for i, r in enumerate(system.rules) if r.strict]
    if not rel_rules or not strict_lhss:
        return None

    def witness(start: str, word: str, used: bool):
        # scan every occurrence of the start: the redex must sit strictly
        # inside one flank, so the split matters
        q = word.find(start)
        while q >= 0:
            for side, flank in (("left", word[:q]), ("right", word[q + len(start) :])):
                for j, lhs in strict_lhss:
                    off = flank.find(lhs)
                    if off >= 0:
                        return q, EmittingRedex(j, side, off)
            q = word.find(start, q + 1)
        return None

    return _search_loop(
        system, rel_rules, witness,
        max_word_len, max_steps, max_start_len, node_budget, deadline, report,
    )


_WITNESS_WORD_LEN = 50


def search_growth_witness(
    system: RelSRS,
    max_entry: int,
    node_budget: int,
    *,
    deadline: Optional[float] = None,
    report: Optional[SearchReport] = None,
) -> Optional[Derivation]:
    """A derivation from some word w with more than |w| * max_entry strict
    steps, or None when a greedy search finds none within node_budget nodes.

    From each start word, up to three fixed rule orders rewrite greedily:
    the first rule in the order that matches, at its leftmost redex.  Each
    order takes the strict rules before the relative ones, and within each
    kind, rule order, reverse rule order, or the rules that lengthen a word
    most first (ties in rule order); an order equal to an earlier one is
    skipped.  A run ends at a witness, at a word with no redex, before a
    word longer than _WITNESS_WORD_LEN, or when a word comes back since its
    last strict step: the rewriting depends on the word alone, so it would
    cycle through relative steps forever.  Each word it looks for a redex
    in is a node.  The search gives up after node_budget nodes (counting
    node_budget + 1) with report.stop "cap", and at the monotonic-clock
    deadline, checked as each run starts, with report.stop "deadline".  A
    run only counts its strict steps; the one that passes |w| * max_entry is
    run again, uncounted, to record its steps."""
    rules = _encoded_rules(enumerate(system.rules))
    orders: list = []
    for order in (rules, rules[::-1], sorted(rules, key=lambda r: -r[4])):
        order = [r for r in order if r[5]] + [r for r in order if not r[5]]
        if order not in orders:
            orders.append(order)
    nodes = 0
    try:
        for start in _words(system, _WITNESS_WORD_LEN):
            need = len(start) * max_entry
            for order in orders:
                if deadline is not None and time.monotonic() >= deadline:
                    return give_up(report, "deadline")
                word, strict_steps, seen = start, 0, set()
                while word not in seen:
                    seen.add(word)
                    nodes += 1
                    if nodes > node_budget:
                        return give_up(report, "cap")
                    for _, lhs, rhs, _, grow, strict in order:
                        if lhs in word:
                            break
                    else:
                        break
                    if len(word) + grow > _WITNESS_WORD_LEN:
                        break
                    word = word.replace(lhs, rhs, 1)  # at the leftmost redex
                    if strict:
                        strict_steps += 1
                        if strict_steps > need:  # run it again to record its steps
                            word, steps = start, []
                            while strict_steps:
                                i, lhs, rhs, _, _, strict = next(r for r in order if r[1] in word)
                                steps.append(Step(i, word.find(lhs)))
                                word = word.replace(lhs, rhs, 1)
                                strict_steps -= strict
                            return Derivation(_decode(start), tuple(steps))
                        seen.clear()
        return None
    finally:
        if report is not None:
            report.nodes += nodes


def reverse_loop_certificate(cert: LoopCertificate, system: RelSRS) -> LoopCertificate:
    """Transport a loop certificate to the reversed system.

    Reversing every word sends a step at position p in a word of length n
    using a rule with |lhs| = k to position n - p - k; the flanks swap.
    A step whose lhs does not occur at its position raises RewriteError.
    """
    steps = []
    word = cert.start
    for step in cert.steps:
        rule = system.rules[step.rule_index]
        steps.append(Step(step.rule_index, len(word) - step.position - len(rule.lhs)))
        word = apply_rule_at(word, rule, step.position)
    redex = None
    if cert.redex is not None:
        r = cert.redex
        side = cert.left if r.side == "left" else cert.right
        k = len(system.rules[r.rule_index].lhs)
        redex = EmittingRedex(
            r.rule_index,
            "right" if r.side == "left" else "left",
            len(side) - r.offset - k,
        )
    return LoopCertificate(
        kind=cert.kind,
        start=cert.start[::-1],
        steps=tuple(steps),
        left=cert.right[::-1],
        right=cert.left[::-1],
        redex=redex,
    )


@dataclass(frozen=True)
class ForwardClosure:
    source: Word
    target: Word
    strict_steps: int
    # replayable audit trail: source ->+ target via exactly these steps
    trace: tuple[Step, ...]


def _saturate_closures(
    system: RelSRS,
    max_closure_size: int,
    stop_at_looping: bool,
    deadline: Optional[float] = None,
    report: Optional[SearchReport] = None,
):
    """Breadth-first saturation, each kept closure one row of a list.

    A row is (source, target, strict steps, parent, step): source ->+
    target (encoded words), extending row `parent` (None for a seed, one
    per rule) by the step (rule, position).  Rows are expanded in the order
    they are kept: target rewrites by (rule, position), then
    right-extensions across the target's end by (rule, split position).
    A successor with the endpoints of a kept row and the same answer to
    "any strict step used" is dropped.

    With stop_at_looping it saturates the loop rules alone, and none at all
    when they hold no strict rule.  Returns (rows, the first looping row,
    or None when stop_at_looping is false or there is none); None when the
    deadline cut the search short (report.stop "deadline"), and when
    stop_at_looping and more than DEFAULT_NODE_BUDGET rows are kept before
    an expansion ("cap").
    """
    size = max_closure_size
    rules = _encoded_rules(enumerate(system.rules))
    if stop_at_looping:
        rules = _loop_rules(rules)
        if not any(rule[5] for rule in rules):
            return [], None
    # a rule extends a target only across a nonempty proper prefix of its lhs
    extending = [rule for rule in rules if rule[3] >= 2]
    rows: list[tuple] = []
    # seen[(source, any strict step used)] = targets of the kept rows
    seen: defaultdict[tuple[str, bool], set[str]] = defaultdict(set)
    # memo[target] = its redexes, for the whole call
    memo: dict[str, tuple] = {}
    memo_rows = 0
    try:
        for i, lhs, rhs, k, _, strict in rules:
            if k <= size and len(rhs) <= size and rhs not in seen[lhs, strict]:
                seen[lhs, strict].add(rhs)
                rows.append((lhs, rhs, int(strict), None, (i, 0)))
                if stop_at_looping and strict and lhs in rhs:
                    return rows, rows[-1]
        head = 0
        while head < len(rows):
            u, v, s, _, _ = row = rows[head]
            head += 1
            if deadline is not None and time.monotonic() >= deadline:
                return give_up(report, "deadline")
            if stop_at_looping and len(rows) > DEFAULT_NODE_BUDGET:
                return give_up(report, "cap")
            n, used = len(v), s > 0
            redexes = memo.get(v)
            if redexes is None:
                redexes = _redexes(v, rules, size, False)
                if memo_rows < _MEMO_ROWS:
                    memo[v] = redexes
                    memo_rows += len(redexes)
            # the targets kept for (u, used or strict), by strict
            loose, tight = seen[u, used], seen[u, True]
            for i, p, nv, strict in redexes:
                known = tight if strict else loose
                if nv not in known:
                    known.add(nv)
                    rows.append((u, nv, s + strict, row, (i, p)))
                    if stop_at_looping and (used or strict) and u in nv:
                        return rows, rows[-1]
            for i, lhs, rhs, k, grow, strict in extending:
                # v[split:] is a nonempty proper prefix of lhs.  The old steps
                # replay unchanged on the extended source; the new step fires the
                # rule across the old target's end.  Source and target both grow
                # with split, so the size bound caps it.
                stop = min(n, size - k - grow + 1, size - len(u) - k + n + 1)
                for split in range(max(0, n - k + 1), stop):
                    if not lhs.startswith(v[split:]):
                        continue
                    nu = u + lhs[n - split :]
                    nv = v[:split] + rhs
                    known = seen[nu, used or strict]
                    if nv not in known:
                        known.add(nv)
                        rows.append((nu, nv, s + strict, row, (i, split)))
                        if stop_at_looping and (used or strict) and nu in nv:
                            return rows, rows[-1]
        return rows, None
    finally:
        if report is not None:
            report.nodes += len(rows)


def _closure(row: tuple) -> ForwardClosure:
    """The closure of a saturation row."""
    u, v, s, _, _ = row
    return ForwardClosure(_decode(u), _decode(v), s, _trace(row))


def forward_closures(
    system: RelSRS, max_closure_size: int = DEFAULT_MAX_CLOSURE_SIZE
) -> list[ForwardClosure]:
    """Saturate the forward-closure calculus up to the size bound.

    Seeds are the rules themselves; the set is closed under rewriting the
    target anywhere and under right-extension across the target's end.
    Closures whose source or target exceeds the bound are discarded.
    """
    rows, _ = _saturate_closures(system, max_closure_size, stop_at_looping=False)
    return [_closure(row) for row in rows]


def find_looping_forward_closure(
    system: RelSRS,
    max_closure_size: int = DEFAULT_MAX_CLOSURE_SIZE,
    *,
    deadline: Optional[float] = None,
    report: Optional[SearchReport] = None,
) -> Optional[ForwardClosure]:
    """First closure (u, v) with a strict step and u a factor of v, or None;
    also None once the monotonic-clock deadline passes or once more than
    DEFAULT_NODE_BUDGET closures are kept, which report.stop records."""
    result = _saturate_closures(system, max_closure_size, True, deadline, report)
    if result is None or result[1] is None:
        return None
    return _closure(result[1])


def replay_closure(closure: ForwardClosure, system: RelSRS) -> Word:
    """Run the closure's audit trail from its source; raises on a bad trace."""
    return replay(Derivation(closure.source, closure.trace), system)


def closure_to_loop_certificate(
    closure: ForwardClosure, system: RelSRS
) -> LoopCertificate:
    """Convert a looping closure into a mixed loop certificate.

    The trace is a derivation source ->+ target; when the source occurs in
    the target the leftmost occurrence gives the split.
    """
    final = replay_closure(closure, system)
    if final != closure.target:
        raise ValueError("closure trace does not replay to its target")
    n = len(closure.source)
    pos = _encode(final).find(_encode(closure.source))
    if pos < 0:
        raise ValueError("closure source is not a factor of its target")
    return LoopCertificate(
        kind="mixed",
        start=closure.source,
        steps=closure.trace,
        left=final[:pos],
        right=final[pos + n :],
    )
