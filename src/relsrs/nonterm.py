"""Disproving relative termination.

A mixed loop is a derivation v ->+ u.v.w using at least one strict step.
An emitting loop is an S-only derivation v ->+ u.v.w where u or w carries
an occurrence of some strict rule's lhs; pumping the loop then fires that
redex arbitrarily often.  Forward closures give a third route: a closure
(u, v) with at least one strict step whose source u reappears as a factor
of v replays into a mixed loop.  prove runs the mixed-loop search in each
of its phases; the emitting-loop search and the closures serve `relsrs
loop` and `relsrs closures`.

All searches are bounded and deterministic: start words shorter-first then
lexicographic, breadth-first on step count, successors ordered by rule
index then position.  Absence within the bounds is a value, not a proof.

Both loop searches run one breadth-first kernel, `_search_loop`, and
differ only in their rules and in the witness test on a successor that
contains the start word.  Mixed: all rules, a strict step used, split at
the leftmost occurrence.  Emitting: S alone, every occurrence scanned for a
strict lhs inside a flank, left flank first.

Inside the two loop searches and forward-closure saturation a word is a
str with one character per letter, chr(letter), which serves any alphabet
size: redex matching, the loop test, the redex-in-context test and the
closure factor test are then str.find, startswith and `in`, which run in
C.  Words are decoded back to tuples only for what is returned: the
certificate, or the ForwardClosure records.  Certificates and their
checker, `relsrs.check.check_loop_certificate`, stay on tuple words.
Saturation keeps each closure as one record (source, target, strict steps,
parent row, step); a closure's trace is its parent's trace and its step.

Each search call expands a word once.  `_redexes` lists a word's one-step
rewrites by rule, then position; a rule whose successors would pass the
length bound gives only its number of matches and builds no string.
Closure saturation counts kept closures, not successors, so it asks for no
such counts and those rules go unsearched.  The loop BFS keeps one dict
word -> those rows for all its start words, which meet the same words
again and again, and closure saturation keeps one keyed by target.  A
memo takes no new entry once it holds _MEMO_ROWS (DEFAULT_NODE_BUDGET)
rows, about 17 MiB on 64-bit CPython 3.11; words past that are expanded
afresh each time they come up.
The memo changes what is computed, not what is counted: the kernels walk
the rows in the order the rewriting generates them, count a row as one
node and a too-long rule as its number of matches, and check the cap after
each, so a cap that falls inside a run of too-long matches still stops at
cap + 1 nodes.  The deadline is checked before each expansion, as before.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from itertools import product
from typing import Optional

from .certificates import EmittingRedex, LoopCertificate, SearchReport, give_up
from .core import Derivation, RelSRS, Step, Word, replay, used_letters

DEFAULT_MAX_WORD_LEN = 12
DEFAULT_MAX_STEPS = 40
DEFAULT_MAX_CLOSURE_SIZE = 20
DEFAULT_NODE_BUDGET = 100_000  # nodes of a prove loop search; closures kept by a closure search
# a search call stops memoising successors once its memo holds this many rows
_MEMO_ROWS = DEFAULT_NODE_BUDGET


def _encode(word: Word) -> str:
    return "".join(map(chr, word))


def _decode(text: str) -> Word:
    return tuple(map(ord, text))


def _start_words(system: RelSRS, max_len: int, lhss: list[str]):
    """Encoded words over the letters occurring in rules, shorter first then
    lexicographic, filtered to those containing some (encoded) lhs."""
    letters = [chr(c) for c in used_letters(system)]
    for length in range(max_len + 1):
        for tup in product(letters, repeat=length):
            word = "".join(tup)
            if any(lhs in word for lhs in lhss):
                yield word


def _encoded_rules(rules) -> list[tuple[int, str, str, int, int, bool]]:
    """(index, lhs, rhs, |lhs|, |rhs| - |lhs|, strict) per (index, rule)."""
    return [
        (i, _encode(r.lhs), _encode(r.rhs), len(r.lhs), len(r.rhs) - len(r.lhs), r.strict)
        for i, r in rules
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
            count = 0
            while p >= 0:
                count += 1
                p = word.find(lhs, p + 1)
            out.append(count)
            continue
        out.append((i, p, word.replace(lhs, rhs, 1), strict))  # the match at p
        p = word.find(lhs, p + 1)
        while p >= 0:
            out.append((i, p, word[:p] + rhs + word[p + k :], strict))
            p = word.find(lhs, p + 1)
    return tuple(out)


def _steps(seen: tuple[dict, ...], word: str, used: bool, last: Step) -> tuple[Step, ...]:
    """The step list from the start word to `last`, read back through the
    parent tables: seen[flag][word] = (rule, position, parent word, parent
    flag), None for the start word."""
    steps = [last]
    entry = seen[used][word]
    while entry is not None:
        i, p, word, used = entry
        steps.append(Step(i, p))
        entry = seen[used][word]
    steps.reverse()
    return tuple(steps)


def _search_loop(
    system: RelSRS,
    rules,
    kind: str,
    witness,
    max_word_len: int,
    max_steps: int,
    max_start_len: Optional[int],
    node_budget: Optional[int],
    deadline: Optional[float],
    report: Optional[SearchReport],
) -> Optional[LoopCertificate]:
    """Breadth-first loop search over the (index, rule) pairs `rules`.

    A successor containing the start word goes to witness(start, successor,
    a strict step was used), which gives None or (split position, redex)
    for a `kind` certificate.  The bounds, node_budget, deadline and report
    work as in search_mixed_loop.
    """
    rules = _encoded_rules(rules)
    lhss = [lhs for _, lhs, _, _, _, _ in rules]
    start_bound = max_word_len if max_start_len is None else min(max_start_len, max_word_len)
    cap = sys.maxsize if node_budget is None else node_budget
    nodes = 0
    # one redex tuple per word for the whole call, shared by all start words
    memo: dict[str, tuple] = {}
    memo_rows = 0
    try:
        for start in _start_words(system, start_bound, lhss):
            # one parent table per flag "a strict step was used"
            seen: tuple[dict, dict] = ({start: None}, {})
            level = [(start, False)]
            for _ in range(max_steps):
                following = []
                for word, used in level:
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
                        i, p, nxt, strict = row
                        nused = used or strict
                        if start in nxt:
                            found = witness(start, nxt, nused)
                            if found is not None:
                                q, redex = found
                                return LoopCertificate(
                                    kind=kind,
                                    start=_decode(start),
                                    steps=_steps(seen, word, used, Step(i, p)),
                                    left=_decode(nxt[:q]),
                                    right=_decode(nxt[q + len(start) :]),
                                    redex=redex,
                                )
                        table = seen[nused]
                        if nxt not in table:
                            table[nxt] = (i, p, word, used)
                            following.append((nxt, nused))
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
    node_budget: Optional[int] = None,
    deadline: Optional[float] = None,
    report: Optional[SearchReport] = None,
) -> Optional[LoopCertificate]:
    """Bounded breadth-first search for a mixed loop; None when exhausted.

    max_start_len tightens the start-word length separately from the word
    bound (it defaults to max_word_len, the complete choice up to the bound).
    node_budget caps total generated search nodes across all start words;
    successors longer than max_word_len count too.  deadline (monotonic
    clock) is checked before each word is expanded.  A search cut short
    sets report.stop to "cap" or "deadline".
    """
    if not any(r.strict for r in system.rules):
        return None
    return _search_loop(
        system, enumerate(system.rules), "mixed", _mixed_witness,
        max_word_len, max_steps, max_start_len, node_budget, deadline, report,
    )


def search_emitting_loop(
    system: RelSRS,
    max_word_len: int = DEFAULT_MAX_WORD_LEN,
    max_steps: int = DEFAULT_MAX_STEPS,
    *,
    max_start_len: Optional[int] = None,
    node_budget: Optional[int] = None,
    deadline: Optional[float] = None,
    report: Optional[SearchReport] = None,
) -> Optional[LoopCertificate]:
    """Search S-only derivations v ->+ u.v.w with a strict lhs inside u or w.

    The bounds, node_budget, deadline and report work as in
    search_mixed_loop.
    """
    rel_rules = [(i, r) for i, r in enumerate(system.rules) if not r.strict]
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
        system, rel_rules, "emitting", witness,
        max_word_len, max_steps, max_start_len, node_budget, deadline, report,
    )


def reverse_loop_certificate(cert: LoopCertificate, system: RelSRS) -> LoopCertificate:
    """Transport a loop certificate to the reversed system.

    Reversing every word sends a step at position p in a word of length n
    using a rule with |lhs| = k to position n - p - k; the flanks swap.
    """
    steps = []
    word = cert.start
    for step in cert.steps:
        rule = system.rules[step.rule_index]
        steps.append(Step(step.rule_index, len(word) - step.position - len(rule.lhs)))
        word = word[: step.position] + rule.rhs + word[step.position + len(rule.lhs) :]
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
    target (encoded words), extending row `parent` (-1 for a seed, one per
    rule) by the step (rule, position).  Rows are expanded in the order
    they are kept: target rewrites by (rule, position), then
    right-extensions across the target's end by (rule, split position).
    A successor with the endpoints of a kept row and the same answer to
    "any strict step used" is dropped.

    Returns (rows, index of the first looping row, or None when
    stop_at_looping is false or there is none); None when the deadline cut
    the search short (report.stop "deadline"), and when stop_at_looping and
    more than DEFAULT_NODE_BUDGET rows are kept before an expansion
    (report.stop "cap").
    """
    size = max_closure_size
    rules = _encoded_rules(enumerate(system.rules))
    # a rule extends a target only across a nonempty proper prefix of its lhs
    extending = [rule for rule in rules if rule[3] >= 2]
    rows: list[tuple[str, str, int, int, tuple[int, int]]] = []
    # seen[(source, any strict step used)] = targets of the kept rows
    seen: dict[tuple[str, bool], set[str]] = {}
    # memo[target] = its redexes, for the whole call
    memo: dict[str, tuple] = {}
    memo_rows = 0

    def keep(u: str, v: str, s: int, parent: int, step: tuple[int, int]) -> bool:
        """Add a row; True when the search stops at it as a looping closure."""
        rows.append((u, v, s, parent, step))
        return stop_at_looping and s > 0 and u in v

    try:
        for i, lhs, rhs, k, _, strict in rules:
            if k <= size and len(rhs) <= size:
                known = seen.setdefault((lhs, strict), set())
                if rhs not in known:
                    known.add(rhs)
                    if keep(lhs, rhs, int(strict), -1, (i, 0)):
                        return rows, len(rows) - 1
        head = 0
        while head < len(rows):
            if deadline is not None and time.monotonic() >= deadline:
                return give_up(report, "deadline")
            if stop_at_looping and len(rows) > DEFAULT_NODE_BUDGET:
                return give_up(report, "cap")
            u, v, s, _, _ = rows[head]
            n, used = len(v), s > 0
            redexes = memo.get(v)
            if redexes is None:
                redexes = _redexes(v, rules, size, False)
                if memo_rows < _MEMO_ROWS:
                    memo[v] = redexes
                    memo_rows += len(redexes)
            # the targets kept for (u, used or strict), indexed by strict
            same_source = (seen.setdefault((u, used), set()), seen.setdefault((u, True), set()))
            for i, p, nv, strict in redexes:
                known = same_source[strict]
                if nv not in known:
                    known.add(nv)
                    if keep(u, nv, s + strict, head, (i, p)):
                        return rows, len(rows) - 1
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
                    known = seen.setdefault((nu, used or strict), set())
                    if nv not in known:
                        known.add(nv)
                        if keep(nu, nv, s + strict, head, (i, split)):
                            return rows, len(rows) - 1
            head += 1
        return rows, None
    finally:
        if report is not None:
            report.nodes += len(rows)


def forward_closures(
    system: RelSRS, max_closure_size: int = DEFAULT_MAX_CLOSURE_SIZE
) -> list[ForwardClosure]:
    """Saturate the forward-closure calculus up to the size bound.

    Seeds are the rules themselves; the set is closed under rewriting the
    target anywhere and under right-extension across the target's end.
    Closures whose source or target exceeds the bound are discarded.
    """
    rows, _ = _saturate_closures(system, max_closure_size, stop_at_looping=False)
    out: list[ForwardClosure] = []
    for u, v, s, parent, step in rows:
        trace = (out[parent].trace if parent >= 0 else ()) + (Step(*step),)
        out.append(ForwardClosure(_decode(u), _decode(v), s, trace))
    return out


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
    rows, j = result
    u, v, s, _, _ = rows[j]
    trace = []
    while j >= 0:  # from the looping row back to its seed
        _, _, _, j, step = rows[j]
        trace.append(Step(*step))
    return ForwardClosure(_decode(u), _decode(v), s, tuple(reversed(trace)))


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
    pos = next(
        (q for q in range(len(final) - n + 1) if final[q : q + n] == closure.source), None
    )
    if pos is None:
        raise ValueError("closure source is not a factor of its target")
    return LoopCertificate(
        kind="mixed",
        start=closure.source,
        steps=closure.trace,
        left=final[:pos],
        right=final[pos + n :],
    )
