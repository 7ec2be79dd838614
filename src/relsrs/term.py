"""Proving relative termination: the weight and matrix searches and prove().

Matrix search is exhaustive for every dimension up to the bound, under an
assignment cap and the prove deadline.  The matrix conventions, and the
checkers that re-verify every certificate, are in `relsrs.check`.

The search has its own arithmetic: each candidate letter matrix is a flat
row-major tuple, entry (i, j) at index i*d + j, with closed-form products
for d = 2 and a generic product otherwise.  Its entries are the checker's,
ints and NEG_INF, exact for the reasons given in `relsrs.check`.  A found
assignment is cut back into rows and re-checked by check_matrix.

The search gives the letters their matrices in turn, and checks each rule
at the level of its last letter, in stages.  Each side is split into runs
of letters assigned earlier and runs of the level's letter.  Once per
search, each candidate gets an entry that holds the powers those runs need
(b b in a b -> b b a), or None when a rule in the level's letter alone
fails (b ->=); once per prefix, each run of earlier letters is multiplied;
a visit to a candidate only multiplies what mixes it with the prefix.
Every candidate visited counts as a node, so the order of the search, its
node counts and its certificates are those of multiplying out every rule
afresh.

At d = 2 the arctic search skips conjugates: D M D^-1 with D = diag(0, p)
keeps every rule's verdict and adds -p to (1,2) entries and p to (2,1)
ones.  An assignment is canonical unless the shift p = 1 or -1 that lowers
its first finite off-diagonal entry in search order stays in the pool
{-inf, -1, ..., max_entry}.  The first assignment that holds is canonical,
or that shift of it would hold and come first, so the last letter only
completes canonical assignments.  No earlier letter can be pruned this way:
every prefix has a canonical completion, such as a last letter with (1,2)
= (2,1) = -1.

prove() runs a fixed method order, so outcomes are deterministic for a
given budget: trivial verdicts, then the strictification strategy, which
rests on SN(R union S) => SN(R/S) and on a loop of R union S refuting
SN(R/S) once SN(S) holds.  Its methods are one table, built per call from
the budget and the deadline, with a row per method in order (weights, the
mixed-loop search, natural and arctic matrices): the attempt name, its
detail, the reason a direct-phase certificate gives, and the search.  The
rows look their searches up in this module when they are called, so a
wrapper put on `search_weights`, `search_mixed_loop` or `search_matrix`
here (perfbench's tracer, the tests) sees every attempt.  prove runs the
table in three phases:

- `s-`: S alone made strict, also when S is empty (the empty weight
  vector proves that at once).  A proof gives SN(S); a loop ends the
  phase and skips the next one.
- `strictified-`, only once SN(S) is proven: the strictified system
  R union S.  A proof settles YES, a loop NO.
- no tag: the system itself.  A proof settles YES, a mixed loop NO.

Most small systems are strictly terminating and settled by weights, and a
system with weights has no loop, so putting the loop search after them
only saves time.  A certificate that settles the system is returned as its
verdict.  Every search checks the deadline itself and records in its
SearchReport why it stopped; the attempt is logged `found` or with that
record: `cap` for a search cut by its node budget or assignment cap,
`deadline` for one cut by the deadline, `none` for one that found nothing
within its bounds.  prove reads no clock: it returns `timeout` after the
first attempt logged `deadline`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import groupby, product
from operator import ge, itemgetter
from typing import Optional

from .certificates import (
    NEG_INF,
    SEMIRINGS,
    ArcticMatrixCertificate,
    Attempt,
    Certificate,
    ComposeCertificate,
    LoopCertificate,
    NaturalMatrixCertificate,
    ProofOutcome,
    SearchReport,
    Semiring,
    WeightCertificate,
    give_up,
    trivial_verdict,
)
from .check import _s_as_strict, check_matrix
from .core import RelSRS, Rule, strictify, used_letters
from .nonterm import (
    DEFAULT_MAX_STEPS, DEFAULT_MAX_WORD_LEN, DEFAULT_NODE_BUDGET, search_mixed_loop,
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
    smallest first.  A rule only sees its per-letter count differences
    delta = |lhs| - |rhs|, and the letters still to come can add at most
    max_weight * max(0, delta) each to its total; a branch whose total
    cannot reach 0 (1 for a strict rule) even so is cut.  A letter whose
    delta is 0 in every rule moves no total and only tries weight 0,
    which keeps the first vector the same.  Each partial vector is a node;
    the search gives up after assignment_cap nodes or at the
    monotonic-clock deadline, as search_matrix does.
    """
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

    def first(k: int, totals: list[int]) -> Optional[list[int]]:
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


# the closed-form products by semiring name and dimension; any other
# dimension takes the generic product of the last entry
_FLAT_MUL = {
    "natural": {2: _nat_mul_2, None: _nat_mul_any},
    "arctic": {2: _arc_mul_2, None: _arc_mul_any},
}


class _FlatKernel:
    """The search's arithmetic for one semiring at one dimension."""

    def __init__(self, semiring: Semiring, d: int):
        muls = _FLAT_MUL[semiring.name]
        self.mul = muls[d] if d in muls else partial(muls[None], d)
        self.corner = d - 1 if semiring.corner_only else None
        self.identity = tuple(x for row in semiring.identity(d) for x in row)

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
    """The rules the search checks at one level: those whose last letter in
    search order is `letter`, their other letters being assigned at earlier
    levels.

    A rule in `letter` alone is decided once per candidate, by `entry`.
    Each side of any other rule is split into runs of earlier letters and
    runs of `letter`: `enter` multiplies the former once per prefix, and
    `entry` gives each candidate the powers the latter need, so a visit
    only multiplies what mixes the candidate with the prefix."""

    def __init__(self, kernel: _FlatKernel, letter: int, rules: list[Rule]):
        self.kernel = kernel
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
            self.flat = lambda entry: entry
            self.power = lambda k: self.flat
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
        they hold with a candidate, given its entry."""
        kernel = self.kernel
        decreases, mul, get = kernel.decreases, kernel.mul, flats.__getitem__

        def side(runs: list):
            return _side(
                kernel, [self.power(k) if type(k) is int else reduce(mul, map(get, k)) for k in runs]
            )

        plans = [(side(lhs), side(rhs), strict) for lhs, rhs, strict in self.mixed]

        def holds(entry) -> bool:
            for lhs, rhs, strict in plans:
                if not decreases(lhs(entry), rhs(entry), strict):
                    return False
            return True

        return holds


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


# the search's entries up to a bound, in search order
_POOL = {
    "natural": lambda max_entry: list(range(max_entry + 1)),
    "arctic": lambda max_entry: [NEG_INF, *range(-1, max_entry + 1)],
}


class _Candidates(_Made):
    """The matrices allowed for a letter as flat tuples, in row-major
    lexicographic order over the semiring's entry pool.  They are made as
    the search first reaches them and kept for the next pass: at d = 3 the
    arctic pool gives over a million, more than a capped or timed search
    visits.

    The letter condition (`Semiring.letter_fault`) is put on the rows it
    reads, and filtering the factors of a product keeps its order."""

    def __init__(self, semiring: Semiring, d: int, max_entry: int):
        rows = list(product(_POOL[semiring.name](max_entry), repeat=d))
        slots = [rows] * d
        if semiring.name == "natural":  # entries (1,1) and (d,d) at least 1
            slots[0] = [r for r in rows if r[0] >= 1]
            slots[-1] = [r for r in slots[-1] if r[-1] >= 1]
        else:  # a finite entry (1,1) >= 0
            slots[0] = [r for r in rows if r[0] >= 0]
        super().__init__(sum(m, ()) for m in product(*slots))


def _last_candidates(semiring: Semiring, d: int, cands, top: int, items):
    """last(prefix): the `items` made for the last letter's candidates
    `cands`, in the same order; in arctic at d = 2 only those of the
    canonical completions."""
    if semiring.name != "arctic" or d != 2:
        return lambda prefix: items

    def blocks(m: tuple, p: int) -> bool:  # the shift p takes m out of the pool
        return m[1] == -1 or m[2] == top if p > 0 else m[1] == top or m[2] == -1

    def shift(prefix: list) -> int:  # p lowers the first finite off-diagonal entry; 0, none
        return next((1 if m[1] != NEG_INF else -1 for m in prefix if max(m[1:3]) != NEG_INF), 0)

    def last(prefix: list) -> list:
        p = shift(prefix)
        return items if any(blocks(m, p) for m in prefix) else lists[p]

    pairs = list(zip(cands, items))
    items = [x for _, x in pairs]
    lists = {p: [x for m, x in pairs if blocks(m, p)] for p in (1, -1)}
    # canonical alone: no finite off-diagonal entry, or m blocks its own shift
    lists[0] = [x for m, x in pairs if max(m[1:3]) == NEG_INF or blocks(m, shift([m]))]
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
    kernel = _FlatKernel(semiring, d)
    flats: list = [None] * len(system.letters)
    candidates = _Candidates(semiring, d, max_entry)
    # a rule becomes checkable once all its letters are assigned; checking
    # at the earliest such depth prunes the assignment tree hard.  A weak
    # rule with no letters always holds.
    position = {c: i for i, c in enumerate(used)}
    ready: list[list[Rule]] = [[] for _ in used]
    for rule in system.rules:
        letters = set(rule.lhs) | set(rule.rhs)
        if letters:
            ready[max(position[c] for c in letters)].append(rule)
    levels = [_Level(kernel, c, rules) for c, rules in zip(used, ready)]
    # each level's entry for each candidate, made once per search
    entries = [_Made(map(level.entry, candidates)) for level in levels]
    last = _last_candidates(semiring, d, candidates, max_entry, entries[-1]) if used else None
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
    """Exhaustive certificate search (with pruning) for each dimension
    1..max_dim in turn, each giving up after assignment_cap letter
    assignments or at the monotonic-clock deadline, which sets report.stop
    to "cap" or "deadline".  None is not a proof of absence.  A certificate
    found is re-checked by check_matrix, and a rejected one raises
    RuntimeError."""
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


# ------------------------------------------------------------------ prove


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


def _settled(cert: Certificate, s_cert: Certificate) -> tuple:
    """Verdict, certificate and reason for a certificate of the strictified
    system, given the proof of SN(S)."""
    if isinstance(cert, LoopCertificate):
        parts = (("s-termination", s_cert), ("strictified-loop", cert))
        return "NO", ComposeCertificate("NO", parts), "loop of R union S while S terminates"
    parts = (("strictified-termination", cert),)
    return "YES", ComposeCertificate("YES", parts), "R union S terminates"


def prove(
    system: RelSRS,
    budget: Optional[ProveBudget] = None,
    *,
    deadline: Optional[float] = None,
) -> ProofOutcome:
    attempts: list[Attempt] = []
    tv = trivial_verdict(system)
    if tv is not None:
        attempts.append(Attempt("trivial", tv.verdict, tv.reason))
        return ProofOutcome(tv.verdict, tv.certificate, tv.reason, tuple(attempts))

    methods = _methods(budget or ProveBudget(), deadline)
    # SN(S), when proven: the certificate the strictified phase builds on
    s_cert: Optional[Certificate] = None
    phases = (("s-", _s_as_strict(system)), ("strictified-", strictify(system)), ("", system))
    for tag, phase_system in phases:
        if tag == "strictified-" and s_cert is None:
            continue
        for name, detail, reason, search in methods:
            report = SearchReport()
            cert = search(phase_system, report)
            loop = isinstance(cert, LoopCertificate)
            if tag == "s-" and loop:
                detail = "S alone does not terminate"
            name = tag + name.removeprefix("mixed-") if tag else name
            attempt = Attempt(name, "found" if cert is not None else report.stop, detail)
            attempts.append(attempt)
            if attempt.outcome == "deadline":
                attempts.append(Attempt("timeout", "hit", "wall clock budget exhausted"))
                return ProofOutcome("MAYBE", None, "timeout", tuple(attempts))
            if cert is None:
                continue
            if tag == "strictified-":
                return ProofOutcome(*_settled(cert, s_cert), tuple(attempts))
            if not tag:
                return ProofOutcome("NO" if loop else "YES", cert, reason, tuple(attempts))
            if not loop:
                s_cert = cert
            break
    return ProofOutcome(
        "MAYBE", None, "no method conclusive within budget", tuple(attempts)
    )
