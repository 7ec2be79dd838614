"""Disproving relative termination.

A mixed loop is a derivation v ->+ u.v.w using at least one strict step.
An emitting loop is an S-only derivation v ->+ u.v.w where u or w carries
an occurrence of some strict rule's lhs; pumping the loop then fires that
redex arbitrarily often.  Forward closures give a third route: a closure
(u, v) with at least one strict step whose source u reappears as a factor
of v replays into a mixed loop.

All searches are bounded and deterministic: start words shorter-first then
lexicographic, breadth-first on step count, successors ordered by rule
index then position.  Absence within the bounds is a value, not a proof.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Optional

from .certificates import CheckResult, EmittingRedex, LoopCertificate
from .core import Derivation, RelSRS, ReplayError, Step, Word, replay, used_letters

DEFAULT_MAX_WORD_LEN = 12
DEFAULT_MAX_STEPS = 40
DEFAULT_MAX_CLOSURE_SIZE = 20


def _is_factor(needle: Word, hay: Word) -> bool:
    n = len(needle)
    if n == 0:
        return True
    return any(hay[i : i + n] == needle for i in range(len(hay) - n + 1))


def _start_words(system: RelSRS, max_len: int, lhss: list[Word]):
    """Words over the letters occurring in rules, shorter first then
    lexicographic, filtered to those containing some lhs occurrence."""
    letters = used_letters(system)
    for length in range(max_len + 1):
        for tup in product(letters, repeat=length):
            if any(_is_factor(lhs, tup) for lhs in lhss):
                yield tup


def _successor_steps(word: Word, rules: list[tuple[int, Word, Word]]):
    n = len(word)
    for i, lhs, rhs in rules:
        k = len(lhs)
        for p in range(n - k + 1):
            if word[p : p + k] == lhs:
                yield Step(i, p), word[:p] + rhs + word[p + k :]


def search_mixed_loop(
    system: RelSRS,
    max_word_len: int = DEFAULT_MAX_WORD_LEN,
    max_steps: int = DEFAULT_MAX_STEPS,
    *,
    max_start_len: Optional[int] = None,
    node_budget: Optional[int] = None,
) -> Optional[LoopCertificate]:
    """Bounded breadth-first search for a mixed loop; None when exhausted.

    max_start_len tightens the start-word length separately from the word
    bound (it defaults to max_word_len, the complete choice up to the bound).
    node_budget caps total generated search nodes across all start words.
    """
    if not system.rules:
        return None
    rules = [(i, r.lhs, r.rhs) for i, r in enumerate(system.rules)]
    strict = [r.strict for r in system.rules]
    if not any(strict):
        return None
    lhss = [r.lhs for r in system.rules]
    start_bound = max_word_len if max_start_len is None else min(max_start_len, max_word_len)
    nodes = 0
    for start in _start_words(system, start_bound, lhss):
        # states are (word, strict step seen yet); parents give the step list
        seen = {(start, False)}
        queue = deque([(start, False, 0, None)])
        parents: dict[tuple[Word, bool], tuple] = {}
        while queue:
            word, used, depth, key = queue.popleft()
            if depth >= max_steps:
                continue
            for step, nxt in _successor_steps(word, rules):
                if node_budget is not None:
                    nodes += 1
                    if nodes > node_budget:
                        return None
                if len(nxt) > max_word_len:
                    continue
                nused = used or strict[step.rule_index]
                if nused and _is_factor(start, nxt):
                    steps = [step]
                    k = key
                    while k is not None:
                        pstep, k = parents[k]
                        steps.append(pstep)
                    steps.reverse()
                    pos = next(
                        q for q in range(len(nxt) - len(start) + 1)
                        if nxt[q : q + len(start)] == start
                    )
                    return LoopCertificate(
                        kind="mixed",
                        start=start,
                        steps=tuple(steps),
                        left=nxt[:pos],
                        right=nxt[pos + len(start) :],
                    )
                state = (nxt, nused)
                if state not in seen:
                    seen.add(state)
                    parents[state] = (step, key)
                    queue.append((nxt, nused, depth + 1, state))
    return None


def _find_redex(
    strict_rules: list[tuple[int, Word]], left: Word, right: Word
) -> Optional[EmittingRedex]:
    for side_name, side in (("left", left), ("right", right)):
        for i, lhs in strict_rules:
            k = len(lhs)
            for off in range(len(side) - k + 1):
                if side[off : off + k] == lhs:
                    return EmittingRedex(i, side_name, off)
    return None


def search_emitting_loop(
    system: RelSRS,
    max_word_len: int = DEFAULT_MAX_WORD_LEN,
    max_steps: int = DEFAULT_MAX_STEPS,
    *,
    max_start_len: Optional[int] = None,
    node_budget: Optional[int] = None,
) -> Optional[LoopCertificate]:
    """Search S-only derivations v ->+ u.v.w with a strict lhs inside u or w."""
    rel_rules = [(i, r.lhs, r.rhs) for i, r in enumerate(system.rules) if not r.strict]
    strict_rules = [(i, r.lhs) for i, r in enumerate(system.rules) if r.strict]
    if not rel_rules or not strict_rules:
        return None
    lhss = [lhs for _, lhs, _ in rel_rules]
    start_bound = max_word_len if max_start_len is None else min(max_start_len, max_word_len)
    nodes = 0
    for start in _start_words(system, start_bound, lhss):
        vlen = len(start)
        seen = {start}
        queue = deque([(start, 0, None)])
        parents: dict[Word, tuple] = {}
        while queue:
            word, depth, key = queue.popleft()
            if depth >= max_steps:
                continue
            for step, nxt in _successor_steps(word, rel_rules):
                if node_budget is not None:
                    nodes += 1
                    if nodes > node_budget:
                        return None
                if len(nxt) > max_word_len:
                    continue
                # scan every occurrence of the start: the redex must sit
                # strictly inside one flank, so the split matters
                found = None
                for q in range(len(nxt) - vlen + 1):
                    if nxt[q : q + vlen] != start:
                        continue
                    redex = _find_redex(strict_rules, nxt[:q], nxt[q + vlen :])
                    if redex is not None:
                        found = (q, redex)
                        break
                if found is not None:
                    q, redex = found
                    steps = [step]
                    k = key
                    while k is not None:
                        pstep, k = parents[k]
                        steps.append(pstep)
                    steps.reverse()
                    return LoopCertificate(
                        kind="emitting",
                        start=start,
                        steps=tuple(steps),
                        left=nxt[:q],
                        right=nxt[q + vlen :],
                        redex=redex,
                    )
                if nxt not in seen:
                    seen.add(nxt)
                    parents[nxt] = (step, key)
                    queue.append((nxt, depth + 1, nxt))
    return None


def check_loop_certificate(cert: LoopCertificate, system: RelSRS) -> CheckResult:
    """Re-verify a loop certificate by replay; never raises on bad input."""
    if not isinstance(cert, LoopCertificate):
        return CheckResult(False, "not a loop certificate")
    if cert.kind not in ("mixed", "emitting"):
        return CheckResult(False, f"unknown loop kind {cert.kind!r}")
    if not cert.steps:
        return CheckResult(False, "loop must have at least one step")
    try:
        final = replay(Derivation(cert.start, cert.steps), system)
    except ReplayError as e:
        return CheckResult(False, f"replay failed: {e}")
    if final != cert.left + cert.start + cert.right:
        return CheckResult(
            False,
            f"final word {system.word_str(final)} does not match the claimed "
            f"split u.v.w = {system.word_str(cert.left)} . "
            f"{system.word_str(cert.start)} . {system.word_str(cert.right)}",
        )
    strict_count = sum(1 for s in cert.steps if system.rules[s.rule_index].strict)
    if cert.kind == "mixed":
        if strict_count < 1:
            return CheckResult(False, "mixed loop has no strict step")
        return CheckResult(True)
    # emitting
    if strict_count != 0:
        return CheckResult(False, "emitting loop must use relative steps only")
    if cert.redex is None:
        return CheckResult(False, "emitting loop needs a redex witness")
    r = cert.redex
    if not 0 <= r.rule_index < len(system.rules):
        return CheckResult(False, f"redex rule index {r.rule_index} out of range")
    rule = system.rules[r.rule_index]
    if not rule.strict:
        return CheckResult(False, "redex witness must name a strict rule")
    if r.side == "left":
        side = cert.left
    elif r.side == "right":
        side = cert.right
    else:
        return CheckResult(False, f"redex side must be left or right, got {r.side!r}")
    k = len(rule.lhs)
    if r.offset < 0 or r.offset + k > len(side):
        return CheckResult(False, "redex offset out of range")
    if side[r.offset : r.offset + k] != rule.lhs:
        return CheckResult(False, "strict lhs does not occur at the claimed offset")
    return CheckResult(True)


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


def _closure_successors(system: RelSRS, closure: ForwardClosure, max_size: int):
    """Deterministic expansion: target rewrites by (rule, position), then
    right-extensions by (rule, split position)."""
    u, v = closure.source, closure.target
    for i, rule in enumerate(system.rules):
        k = len(rule.lhs)
        for p in range(len(v) - k + 1):
            if v[p : p + k] == rule.lhs:
                nv = v[:p] + rule.rhs + v[p + k :]
                if len(nv) <= max_size:
                    yield ForwardClosure(
                        u, nv, closure.strict_steps + rule.strict, closure.trace + (Step(i, p),)
                    )
    for i, rule in enumerate(system.rules):
        lhs = rule.lhs
        for split in range(len(v)):
            v2 = v[split:]
            if 0 < len(v2) < len(lhs) and lhs[: len(v2)] == v2:
                ext = lhs[len(v2) :]
                ns, nt = u + ext, v[:split] + rule.rhs
                if len(ns) <= max_size and len(nt) <= max_size:
                    # the old steps replay unchanged on the extended source;
                    # the boundary step fires the rule across the old target end
                    yield ForwardClosure(
                        ns,
                        nt,
                        closure.strict_steps + rule.strict,
                        closure.trace + (Step(i, split),),
                    )


def _saturate_closures(system: RelSRS, max_closure_size: int, stop_at_looping: bool):
    seeds = []
    for i, rule in enumerate(system.rules):
        if len(rule.lhs) <= max_closure_size and len(rule.rhs) <= max_closure_size:
            seeds.append(
                ForwardClosure(rule.lhs, rule.rhs, int(rule.strict), (Step(i, 0),))
            )
    out: list[ForwardClosure] = []
    # two closures with the same endpoints only differ usefully in whether
    # any strict step was used
    seen: set[tuple[Word, Word, bool]] = set()
    queue = deque()
    for c in seeds:
        key = (c.source, c.target, c.strict_steps > 0)
        if key in seen:
            continue
        seen.add(key)
        out.append(c)
        if stop_at_looping and c.strict_steps >= 1 and _is_factor(c.source, c.target):
            return out, c
        queue.append(c)
    while queue:
        closure = queue.popleft()
        for c in _closure_successors(system, closure, max_closure_size):
            key = (c.source, c.target, c.strict_steps > 0)
            if key in seen:
                continue
            seen.add(key)
            out.append(c)
            if stop_at_looping and c.strict_steps >= 1 and _is_factor(c.source, c.target):
                return out, c
            queue.append(c)
    return out, None


def forward_closures(
    system: RelSRS, max_closure_size: int = DEFAULT_MAX_CLOSURE_SIZE
) -> list[ForwardClosure]:
    """Saturate the forward-closure calculus up to the size bound.

    Seeds are the rules themselves; the set is closed under rewriting the
    target anywhere and under right-extension across the target's end.
    Closures whose source or target exceeds the bound are discarded.
    """
    out, _ = _saturate_closures(system, max_closure_size, stop_at_looping=False)
    return out


def find_looping_forward_closure(
    system: RelSRS, max_closure_size: int = DEFAULT_MAX_CLOSURE_SIZE
) -> Optional[ForwardClosure]:
    """First closure (u, v) with a strict step and u a factor of v, or None."""
    _, looping = _saturate_closures(system, max_closure_size, stop_at_looping=True)
    return looping


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
