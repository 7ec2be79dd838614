"""The references the tests compare the package against, one definition each.

Each reference is small and written from the definition it checks, on
plain strings or tuples, so that a test can ask whether an answer is right
and not only whether it moved.  None of them reads a search order of the
package except where its docstring names the one function it shares (the
loop reference iterates `relsrs.nonterm._starts` and the witness reference
`relsrs.nonterm._words`, so that a change of start order moves the search
and its reference alike).

- Systems: `rename`, `forms`, `to_strings`.
- Matrix products, `nat_product` and `arc_product`, independent of
  `relsrs.check`: criterion 1 recomputes matrix certificates with them and
  `TestDerivationBounds` the bounds of YES certificates.
- Enumeration: `oracle_canon` and `oracle_classes`, a naive quotient of
  every two-letter rule set by the letter swap.
- Loops: `reference_loop_search`, a plain loop BFS with no memo, and
  `simulate_mixed_loop`, criterion 7's bounded DFS that replays each loop
  it finds three more times.
- Forward closures: `closure_saturation`, a set fixpoint of the calculus.
- Growth witnesses: `growth_witness`, the greedy runs recorded step by step.
- Weights: `first_fit_weights`, the first vector that holds every rule in
  product order, and `dfs_weights`, the search that tries every weight.
- Matrices: `first_fit`, the first assignment in product order that holds
  every rule, over `entry_pool`; `arctic_letter_matrices`.
- prove: `derive`, one greedy derivation, and `weakenings`.
"""

import time
from fractions import Fraction
from itertools import product
from operator import mul

from relsrs import (
    EmittingRedex,
    LoopCertificate,
    ProveBudget,
    RelSRS,
    Rule,
    Step,
    WeightCertificate,
    check_matrix,
    enumerate_systems,
    strictify,
    trivial_verdict,
)
from relsrs import nonterm
from relsrs.certificates import NATURAL, NEG_INF
from relsrs.check import _rule_fault
from relsrs.core import Derivation, s_as_strict, used_letters
from relsrs.nonterm import give_up
from relsrs.term import _SearchStop

# ---------------------------------------------------------------- systems


def rename(system: RelSRS, name) -> RelSRS:
    """The system with each letter c written name[c]."""
    return RelSRS(system.letters, tuple(
        Rule(tuple(name[c] for c in r.lhs), tuple(name[c] for c in r.rhs), r.strict)
        for r in system.rules
    ))


def forms(config, *, trivial=False):
    """Each system of the enumeration `config` as is, strictified, and with
    S alone made strict: the three systems prove hands to a search.  The
    systems `trivial_verdict` settles are skipped unless `trivial`."""
    for system in enumerate_systems(config):
        if trivial or trivial_verdict(system) is None:
            yield from (system, strictify(system), s_as_strict(system))


def to_strings(system):
    """String triples (lhs, rhs, strict), each letter written by its name."""
    return tuple(
        (
            "".join(system.letters[c] for c in rule.lhs),
            "".join(system.letters[c] for c in rule.rhs),
            rule.strict,
        )
        for rule in system.rules
    )


# ------------------------------------------------------- matrix products
# Plain products over lists of rows, the arctic zero read as float("-inf").


def nat_product(x, y):
    d = len(x)
    return [[sum(x[i][k] * y[k][j] for k in range(d)) for j in range(d)] for i in range(d)]


def arc_product(x, y):
    d = len(x)
    return [[max(x[i][k] + y[k][j] for k in range(d)) for j in range(d)] for i in range(d)]


# ------------------------------------------------------------ enumeration

SWAP = str.maketrans("ab", "ba")


def oracle_canon(rules):
    """Orbit representative under the a/b swap, built from strings only."""

    def key(rule):
        lhs, rhs, strict = rule
        return (not strict, (len(lhs), lhs), (len(rhs), rhs))

    plain = tuple(sorted(rules, key=key))
    swapped = tuple(
        sorted(((l.translate(SWAP), r.translate(SWAP), s) for l, r, s in rules), key=key)
    )
    return min(plain, swapped)


def oracle_classes(max_size):
    """Brute force every rule set over {a, b} and quotient by the swap.

    Independent of the package: plain strings, no shared code with the
    generator.  Returns {total size: set of canonical representatives}.
    """
    words = [""]
    for n in range(1, max_size + 1):
        words.extend("".join(t) for t in product("ab", repeat=n))
    rules = []
    for lhs, rhs in product(words, repeat=2):
        if len(lhs) + len(rhs) > max_size:
            continue
        rules.append((lhs, rhs, True))
        if lhs != rhs:
            rules.append((lhs, rhs, False))
    rules.sort(key=lambda r: (len(r[0]) + len(r[1]), r))
    classes: dict[int, set] = {}

    def emit(chosen):
        stricts = [r for r in chosen if r[2]]
        if not stricts or len(stricts) == len(chosen):
            return
        if set("".join(l + r for l, r, _ in chosen)) != {"a", "b"}:
            return
        bag = set(chosen)
        if any(s and (l, r, False) in bag for l, r, s in chosen):
            return
        size = sum(len(l) + len(r) for l, r, _ in chosen)
        classes.setdefault(size, set()).add(oracle_canon(chosen))

    def rec(start, chosen, remaining):
        if chosen:
            emit(chosen)
        for i in range(start, len(rules)):
            sz = len(rules[i][0]) + len(rules[i][1])
            if sz > remaining:
                break
            chosen.append(rules[i])
            rec(i + 1, chosen, remaining - sz)
            chosen.pop()

    rec(0, [], max_size)
    return classes


# ------------------------------------------------------------------ loops


def reference_loop_search(
    system, emitting, max_word_len, max_steps, max_start_len, cap, loop_rules
):
    """(certificate, stop, nodes) of a plain loop BFS that tests a successor
    containing the start for a witness before it looks the successor up
    among the words already reached, and keeps no memo.  With `loop_rules`
    it searches the rules `nonterm._loop_rules` keeps, else all of them.
    Its start words come from `nonterm._starts`, as the kernel's do, so a
    change of start order moves both alike."""
    strict_lhss = [(i, nonterm._encode(r.lhs)) for i, r in enumerate(system.rules) if r.strict]
    rules = nonterm._encoded_rules(
        (i, r) for i, r in enumerate(system.rules) if not (emitting and r.strict)
    )
    if loop_rules:
        rules = nonterm._loop_rules(rules)
    if not (strict_lhss and rules if emitting else any(rule[5] for rule in rules)):
        return None, "none", 0

    def witness(start, word, used):
        if not emitting:
            return (word.find(start), None) if used else None
        for q in range(len(word) - len(start) + 1):
            if not word.startswith(start, q):
                continue
            for side, flank in (("left", word[:q]), ("right", word[q + len(start) :])):
                for j, lhs in strict_lhss:
                    if lhs in flank:
                        return q, EmittingRedex(j, side, flank.find(lhs))
        return None

    start_bound = max_word_len if max_start_len is None else min(max_start_len, max_word_len)
    nodes = 0
    for start in nonterm._starts(system, rules, start_bound):
        seen = ({start}, set())
        level = [(start, False, ())]
        for _ in range(max_steps):
            following = []
            for word, used, steps in level:
                for row in nonterm._redexes(word, rules, max_word_len):
                    if isinstance(row, int):
                        nodes += row
                        if nodes > cap:
                            return None, "cap", cap + 1
                        continue
                    nodes += 1
                    if nodes > cap:
                        return None, "cap", nodes
                    i, p, nxt, strict = row
                    nused = used or strict
                    path = steps + (Step(i, p),)
                    found = witness(start, nxt, nused) if start in nxt else None
                    if found is not None:
                        q, redex = found
                        cert = LoopCertificate(
                            kind="mixed" if redex is None else "emitting",
                            start=nonterm._decode(start),
                            steps=path,
                            left=nonterm._decode(nxt[:q]),
                            right=nonterm._decode(nxt[q + len(start) :]),
                            redex=redex,
                        )
                        return cert, "none", nodes
                    if nxt not in seen[nused]:
                        seen[nused].add(nxt)
                        following.append((nxt, nused, path))
            if not following:
                break
            level = following
    return None, "none", nodes


SIM_WORD_CAP = 10
SIM_STEP_CAP = 10_000
SIM_UNROLLINGS = 3


def _occurrences(word, lhs):
    if not lhs:
        return range(len(word) + 1)
    out = []
    p = word.find(lhs)
    while p >= 0:
        out.append(p)
        p = word.find(lhs, p + 1)
    return out


def _apply_steps(word, steps, offset):
    """Replay recorded (lhs, rhs, strict, pos) steps shifted by offset."""
    for lhs, rhs, _, pos in steps:
        p = pos + offset
        if word[p : p + len(lhs)] != lhs:
            return None
        word = word[:p] + rhs + word[p + len(lhs):]
    return word


def _verified_unroll(v, steps):
    """Replay v ->+ u.v.w and re-run the cycle SIM_UNROLLINGS times.

    Each round shifts every recorded position by the accumulated prefix
    length and re-checks the lhs match, so a bogus candidate cannot pass.
    """
    w = _apply_steps(v, steps, 0)
    if w is None:
        return False
    idx = w.find(v)
    if idx < 0:
        return False
    word, offset = w, idx
    for _ in range(SIM_UNROLLINGS):
        word = _apply_steps(word, steps, offset)
        if word is None or word[offset + idx : offset + idx + len(v)] != v:
            return False
        offset += idx
    return True


def simulate_mixed_loop(rules, alphabet):
    """Bounded DFS over plain Python strings for a verified mixed loop.

    Independent of the library's search: words are str, rules are
    (lhs, rhs, strict) triples, and every candidate loop must survive
    _verified_unroll before it counts.
    """
    budget = SIM_STEP_CAP
    words, steps, stricts = [], [], [0]

    def dfs():
        nonlocal budget
        current = words[-1]
        for lhs, rhs, strict in rules:
            for pos in _occurrences(current, lhs):
                if budget <= 0:
                    return None
                budget -= 1
                child = current[:pos] + rhs + current[pos + len(lhs):]
                if len(child) > SIM_WORD_CAP:
                    continue
                ns = stricts[-1] + (1 if strict else 0)
                step = (lhs, rhs, strict, pos)
                for i, anc in enumerate(words):
                    if ns - stricts[i] >= 1 and anc in child:
                        cand = steps[i:] + [step]
                        if _verified_unroll(anc, cand):
                            return anc, tuple(cand)
                if any(child == a and ns == stricts[i] for i, a in enumerate(words)):
                    continue  # no strict progress since this word appeared
                if len(words) > 40:
                    continue
                words.append(child)
                steps.append(step)
                stricts.append(ns)
                found = dfs()
                words.pop()
                steps.pop()
                stricts.pop()
                if found:
                    return found
        return None

    for n in range(4):
        for seed in product(sorted(alphabet), repeat=n):
            if budget <= 0:
                return None
            words[:] = ["".join(seed)]
            steps[:] = []
            stricts[:] = [0]
            found = dfs()
            if found:
                return found
    return None


# -------------------------------------------------------- forward closures


def closure_saturation(system, bound):
    """Every (source, target, any strict step) of the forward closures of
    `system` whose words have at most `bound` letters, as a set fixpoint
    over tuple words.  Seeds are the rules.  A closure (u, v) gives
    (u, v') for each rewrite v -> v' at any position, and (u.x, v'.r) for
    each rule l -> r and each way of writing v = v'.p and l = p.x with p
    nonempty and x nonempty: the rule fires across the end of v."""
    rules = [(r.lhs, r.rhs, r.strict) for r in system.rules]
    found = {(l, r, s) for l, r, s in rules if len(l) <= bound and len(r) <= bound}
    todo = list(found)
    while todo:
        u, v, used = todo.pop()
        n = len(v)
        new = []
        for lhs, rhs, strict in rules:
            k = len(lhs)
            new += [
                (u, v[:p] + rhs + v[p + k :], used or strict)
                for p in range(n - k + 1)
                if v[p : p + k] == lhs
            ]
            new += [
                (u + lhs[j:], v[: n - j] + rhs, used or strict)
                for j in range(1, min(k, n + 1))
                if v[n - j :] == lhs[:j]
            ]
        for closure in new:
            if closure not in found and len(closure[0]) <= bound and len(closure[1]) <= bound:
                found.add(closure)
                todo.append(closure)
    return found


def is_factor(needle, hay) -> bool:
    """Whether the tuple word `needle` occurs in `hay`."""
    return any(hay[i : i + len(needle)] == needle for i in range(len(hay) - len(needle) + 1))


# -------------------------------------------------------- growth witness


def growth_witness(system, max_entry, node_budget):
    """(derivation, stop, nodes) of the growth-witness search as the
    `search_growth_witness` docstring states it, on str words that record
    every step as the run makes it.  From each start word w of
    `nonterm._words`, up to three rule orders (strict rules first; in rule
    order, reverse rule order, or most lengthening first) rewrite greedily:
    the first rule of the order that fits, at its leftmost redex.  A run
    ends at its (|w| * max_entry + 1)-th strict step, which is the witness;
    at a word with no redex; before a word longer than the search's word
    bound; or at a word seen since its last strict step.  Each word looked
    at is a node; the search stops "cap" on node node_budget + 1."""
    bound = nonterm._WITNESS_WORD_LEN
    rules = [
        (i, "".join(map(chr, r.lhs)), "".join(map(chr, r.rhs)), r.strict)
        for i, r in enumerate(system.rules)
    ]
    orders = []
    for order in (rules, rules[::-1], sorted(rules, key=lambda r: len(r[1]) - len(r[2]))):
        order = [r for r in order if r[3]] + [r for r in order if not r[3]]
        if order not in orders:
            orders.append(order)
    nodes = 0
    for start in nonterm._words(system, bound):
        for order in orders:
            word, steps, strict_steps, seen = start, [], 0, set()
            while word not in seen:
                seen.add(word)
                nodes += 1
                if nodes > node_budget:
                    return None, "cap", nodes
                fitting = [rule for rule in order if rule[1] in word]
                if not fitting:
                    break
                i, lhs, rhs, strict = fitting[0]
                if len(word) - len(lhs) + len(rhs) > bound:
                    break
                p = word.find(lhs)
                word = word[:p] + rhs + word[p + len(lhs) :]
                steps.append(Step(i, p))
                if strict:
                    strict_steps += 1
                    if strict_steps > len(start) * max_entry:
                        return Derivation(tuple(map(ord, start)), tuple(steps)), "none", nodes
                    seen = set()
    return None, "none", nodes


# ---------------------------------------------------------------- weights


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


# --------------------------------------------------------------- matrices


def entry_pool(semiring, max_entry):
    """The search's entries up to max_entry, in search order."""
    if semiring is NATURAL:
        return list(range(max_entry + 1))
    return [NEG_INF, *range(-1, max_entry + 1)]


def arctic_letter_matrices(d, max_entry):
    """Every d x d matrix over {-inf, -1, ..., max_entry} with a finite
    (1,1) entry >= 0, in row-major lexicographic order."""
    rows = list(product([NEG_INF, *range(-1, max_entry + 1)], repeat=d))
    return [m for m in product(rows, repeat=d) if m[0][0] >= 0]


def first_fit(system, semiring, max_dim, max_entry):
    """Brute-force oracle: for d = 1 .. max_dim in turn, the first
    assignment of the letters used in rules, in itertools.product order
    over the full candidate lists, that holds every rule.  It assigns the
    letters depth first in that order and tests each rule, with the
    checker's products, as soon as its letters are assigned: a prefix that
    fails a rule has no completion that holds.  The candidates of a letter
    that hold the rules it completes depend only on the earlier letters
    those rules read, so they are listed once per such choice.
    check_matrix accepts what it returns."""
    used = sorted({c for rule in system.rules for c in rule.lhs + rule.rhs})
    # due[k]: the rules the k-th letter completes; letterless ones come first
    letterless, due = [], [[] for _ in used]
    for rule in system.rules:
        letters = rule.lhs + rule.rhs
        (due[max(map(used.index, letters))] if letters else letterless).append(rule)
    reads = [
        sorted({c for rule in rules for c in rule.lhs + rule.rhs} - {used[k]})
        for k, rules in enumerate(due)
    ]
    for d in range(1, max_dim + 1):
        rows = list(product(entry_pool(semiring, max_entry), repeat=d))
        letters = [m for m in product(rows, repeat=d) if semiring.letter_fault(m, d) is None]
        # with no letter to interpret the checker reads letterless rules at d = 1
        dim = d if used else 1
        one, mats, fitting = semiring.identity(dim), {}, {}

        def holds(rules):
            return all(_rule_fault(rule, mats, semiring, dim, one) is None for rule in rules)

        def fits(k):
            if k == len(used):
                return True
            key = (k, *(mats[c] for c in reads[k]))
            if key not in fitting:
                fitting[key] = []
                for m in letters:
                    mats[used[k]] = m
                    if holds(due[k]):
                        fitting[key].append(m)
            for m in fitting[key]:
                mats[used[k]] = m
                if fits(k + 1):
                    return True
            return False

        if holds(letterless) and fits(0):
            cert = semiring.certificate(d, {system.letters[c]: mats[c] for c in used})
            assert check_matrix(cert, system)
            return cert
    return None


# ------------------------------------------------------------------ prove


def derive(rules, word: str, pick, stop: int, every: bool) -> int:
    """The strict steps (with `every`, all steps) of a derivation from
    `word` that rewrites the redex `pick` takes from the list of them in
    rule, then position order.  It ends after `stop` of those steps, at a
    normal form, or after 200 steps or past 40 letters, as S alone need
    not terminate."""
    count = steps = 0
    while count < stop and steps < 200 and len(word) <= 40:
        redexes = [
            (lhs, rhs, strict, p)
            for lhs, rhs, strict in rules
            for p in range(len(word) - len(lhs) + 1)
            if word.startswith(lhs, p)
        ]
        if not redexes:
            break
        lhs, rhs, strict, p = pick(redexes)
        word = word[:p] + rhs + word[p + len(lhs):]
        steps += 1
        count += every or strict
    return count


def weakenings(system: RelSRS):
    """Each one-rule weakening with R non-empty: one rule dropped, or one
    strict rule made relative."""
    rules = system.rules
    for i, rule in enumerate(rules):
        weaker = [rules[:i] + rules[i + 1 :]]
        if rule.strict:
            weaker.append(rules[:i] + (Rule(rule.lhs, rule.rhs, False),) + rules[i + 1 :])
        for changed in weaker:
            if any(r.strict for r in changed):
                yield RelSRS(system.letters, changed)
