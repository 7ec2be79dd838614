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

Inside the two loop searches and forward-closure saturation a word is a
str with one character per letter, chr(letter), which serves any alphabet
size: redex matching, the loop test, the redex-in-context test and the
closure factor test are then str.find, startswith and `in`, which run in
C.  Words are decoded back to tuples only for what is returned: the
certificate, or the ForwardClosure records.  Certificates and their
checker, `relsrs.check.check_loop_certificate`, stay on tuple words.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from itertools import product
from typing import Optional

from .certificates import EmittingRedex, LoopCertificate, SearchReport
from .core import Derivation, RelSRS, Step, Word, replay, used_letters

DEFAULT_MAX_WORD_LEN = 12
DEFAULT_MAX_STEPS = 40
DEFAULT_MAX_CLOSURE_SIZE = 20


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


def _capped(report: Optional[SearchReport]) -> None:
    """The node budget ran out: mark the report, if any, and give None."""
    if report is not None:
        report.capped = True


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
    clock) is checked before each word is expanded.  A search cut by
    node_budget sets report.capped.
    """
    if not any(r.strict for r in system.rules):
        return None
    rules = _encoded_rules(enumerate(system.rules))
    lhss = [lhs for _, lhs, _, _, _, _ in rules]
    start_bound = max_word_len if max_start_len is None else min(max_start_len, max_word_len)
    cap = sys.maxsize if node_budget is None else node_budget
    nodes = 0
    for start in _start_words(system, start_bound, lhss):
        # one parent table per flag "a strict step was used"
        seen: tuple[dict, dict] = ({start: None}, {})
        level = [(start, False)]
        for _ in range(max_steps):
            following = []
            for word, used in level:
                if deadline is not None and time.monotonic() >= deadline:
                    return None
                room = max_word_len - len(word)
                for i, lhs, rhs, k, grow, strict in rules:
                    p = word.find(lhs)
                    if p < 0:
                        continue
                    if grow > room:
                        # too long to keep, but every match counts as a node
                        while p >= 0:
                            nodes += 1
                            if nodes > cap:
                                return _capped(report)
                            p = word.find(lhs, p + 1)
                        continue
                    nused = used or strict
                    table = seen[nused]
                    nxt = word.replace(lhs, rhs, 1)  # the match at p
                    while True:
                        nodes += 1
                        if nodes > cap:
                            return _capped(report)
                        if nused and start in nxt:
                            q = nxt.find(start)
                            return LoopCertificate(
                                kind="mixed",
                                start=_decode(start),
                                steps=_steps(seen, word, used, Step(i, p)),
                                left=_decode(nxt[:q]),
                                right=_decode(nxt[q + len(start) :]),
                            )
                        if nxt not in table:
                            table[nxt] = (i, p, word, used)
                            following.append((nxt, nused))
                        p = word.find(lhs, p + 1)
                        if p < 0:
                            break
                        nxt = word[:p] + rhs + word[p + k :]
            if not following:
                break
            level = following
    return None


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
    rel_rules = _encoded_rules((i, r) for i, r in enumerate(system.rules) if not r.strict)
    strict_lhss = [(i, _encode(r.lhs)) for i, r in enumerate(system.rules) if r.strict]
    if not rel_rules or not strict_lhss:
        return None
    lhss = [lhs for _, lhs, _, _, _, _ in rel_rules]
    start_bound = max_word_len if max_start_len is None else min(max_start_len, max_word_len)
    cap = sys.maxsize if node_budget is None else node_budget
    nodes = 0
    for start in _start_words(system, start_bound, lhss):
        vlen = len(start)
        seen = ({start: None},)
        table = seen[0]
        level = [start]
        for _ in range(max_steps):
            following = []
            for word in level:
                if deadline is not None and time.monotonic() >= deadline:
                    return None
                room = max_word_len - len(word)
                for i, lhs, rhs, k, grow, _ in rel_rules:
                    p = word.find(lhs)
                    if p < 0:
                        continue
                    if grow > room:
                        while p >= 0:
                            nodes += 1
                            if nodes > cap:
                                return _capped(report)
                            p = word.find(lhs, p + 1)
                        continue
                    nxt = word.replace(lhs, rhs, 1)
                    while True:
                        nodes += 1
                        if nodes > cap:
                            return _capped(report)
                        # scan every occurrence of the start: the redex must
                        # sit strictly inside one flank, so the split matters
                        q = nxt.find(start)
                        while q >= 0:
                            for side, flank in (("left", nxt[:q]), ("right", nxt[q + vlen :])):
                                for j, strict_lhs in strict_lhss:
                                    off = flank.find(strict_lhs)
                                    if off >= 0:
                                        return LoopCertificate(
                                            kind="emitting",
                                            start=_decode(start),
                                            steps=_steps(seen, word, False, Step(i, p)),
                                            left=_decode(nxt[:q]),
                                            right=_decode(nxt[q + vlen :]),
                                            redex=EmittingRedex(j, side, off),
                                        )
                            q = nxt.find(start, q + 1)
                        if nxt not in table:
                            table[nxt] = (i, p, word, False)
                            following.append(nxt)
                        p = word.find(lhs, p + 1)
                        if p < 0:
                            break
                        nxt = word[:p] + rhs + word[p + k :]
            if not following:
                break
            level = following
    return None


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
):
    """Breadth-first saturation, kept closures as flat rows.

    Row j is sources[j] ->+ targets[j] (encoded words) with stricts[j]
    strict steps, extending row parents[j] (-1 for a seed, one per rule) by
    the step steps[j] = (rule, position).  Rows are expanded in the order
    they are kept: target rewrites by (rule, position), then
    right-extensions across the target's end by (rule, split position).
    A successor with the endpoints of a kept row and the same answer to
    "any strict step used" is dropped.

    Returns (rows, index of the first looping row, or None when
    stop_at_looping is false or there is none); None when the deadline cut
    the search short.
    """
    size = max_closure_size
    rules = _encoded_rules(enumerate(system.rules))
    # a rule extends a target only across a nonempty proper prefix of its lhs
    extending = [rule for rule in rules if rule[3] >= 2]
    sources: list[str] = []
    targets: list[str] = []
    stricts: list[int] = []
    parents: list[int] = []
    steps: list[tuple[int, int]] = []
    rows = (sources, targets, stricts, parents, steps)
    # seen[(source, any strict step used)] = targets of the kept rows
    seen: dict[tuple[str, bool], set[str]] = {}

    def keep(u: str, v: str, s: int, parent: int, step: tuple[int, int]) -> bool:
        """Add a row; True when the search stops at it as a looping closure."""
        sources.append(u)
        targets.append(v)
        stricts.append(s)
        parents.append(parent)
        steps.append(step)
        return stop_at_looping and s > 0 and u in v

    for i, lhs, rhs, k, _, strict in rules:
        if k <= size and len(rhs) <= size:
            known = seen.setdefault((lhs, strict), set())
            if rhs not in known:
                known.add(rhs)
                if keep(lhs, rhs, int(strict), -1, (i, 0)):
                    return rows, len(sources) - 1
    head = 0
    while head < len(sources):
        if deadline is not None and time.monotonic() >= deadline:
            return None
        u, v, s = sources[head], targets[head], stricts[head]
        n, used = len(v), s > 0
        for i, lhs, rhs, k, grow, strict in rules:
            if grow > size - n:
                continue
            p = v.find(lhs)
            if p < 0:
                continue
            known = seen.setdefault((u, used or strict), set())
            nv = v.replace(lhs, rhs, 1)  # the match at p
            while True:
                if nv not in known:
                    known.add(nv)
                    if keep(u, nv, s + strict, head, (i, p)):
                        return rows, len(sources) - 1
                p = v.find(lhs, p + 1)
                if p < 0:
                    break
                nv = v[:p] + rhs + v[p + k :]
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
                        return rows, len(sources) - 1
        head += 1
    return rows, None


def forward_closures(
    system: RelSRS, max_closure_size: int = DEFAULT_MAX_CLOSURE_SIZE
) -> list[ForwardClosure]:
    """Saturate the forward-closure calculus up to the size bound.

    Seeds are the rules themselves; the set is closed under rewriting the
    target anywhere and under right-extension across the target's end.
    Closures whose source or target exceeds the bound are discarded.
    """
    (sources, targets, stricts, parents, steps), _ = _saturate_closures(
        system, max_closure_size, stop_at_looping=False
    )
    out: list[ForwardClosure] = []
    for j, parent in enumerate(parents):
        trace = (out[parent].trace if parent >= 0 else ()) + (Step(*steps[j]),)
        out.append(ForwardClosure(_decode(sources[j]), _decode(targets[j]), stricts[j], trace))
    return out


def find_looping_forward_closure(
    system: RelSRS,
    max_closure_size: int = DEFAULT_MAX_CLOSURE_SIZE,
    *,
    deadline: Optional[float] = None,
) -> Optional[ForwardClosure]:
    """First closure (u, v) with a strict step and u a factor of v, or None;
    also None once the monotonic-clock deadline passes."""
    result = _saturate_closures(system, max_closure_size, True, deadline)
    if result is None or result[1] is None:
        return None
    (sources, targets, stricts, parents, steps), j = result
    trace = []
    row = j
    while row >= 0:
        trace.append(Step(*steps[row]))
        row = parents[row]
    trace.reverse()
    return ForwardClosure(_decode(sources[j]), _decode(targets[j]), stricts[j], tuple(trace))


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
