"""In-memory spans around the calls into each relsrs layer.

The spans are recorded from the benchmark's side only: `install` replaces a
public function in the namespace of the module that calls it (for example
`relsrs.term.search_mixed_loop`, which `prove` looks up at call time) by a
wrapper that opens a span, and `uninstall` puts the original back.  Nothing
inside `src/` is modified.

A span keeps its name, start, end, parent and the top-level operation it
belongs to.  Search spans also get a role: inside `prove` it is the
`Attempt.method` that `prove` recorded for that call (searches run in the
order their attempts are appended), and a search called directly by the CLI
gets `cli-<command>`.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from pathlib import Path

# searches report found_ratio, checkers report rejected
SEARCHES = {
    "nonterm.search_mixed_loop": ("s-loop", "strictified-loop", "mixed-loop", "cli-loop"),
    "nonterm.search_emitting_loop": ("emitting-loop", "cli-loop"),
    "nonterm.find_looping_forward_closure": ("cli-closures",),
    "term.search_weights": ("s-weights", "strictified-weights", "weights"),
    "term.search_matrix": (
        "s-matrix-natural", "s-matrix-arctic",
        "strictified-matrix-natural", "strictified-matrix-arctic",
        "matrix-natural", "matrix-arctic",
    ),
    "certificates.trivial_verdict": (None,),
}
CHECKERS = ("term.verify_certificate", "nonterm.check_loop_certificate")
PLAIN = (
    "enumeration.enumerate_systems", "term.prove", "core.replay",
    "tpdb.parse_system", "tpdb.parse_srs",
    "certificates.parse_certificate", "certificates.serialize_certificate",
    "io.json_decode", "io.json_encode",
    "cli.main.prove", "cli.main.loop", "cli.main.closures",
)
# per-layer metric names, in the order BENCHMARK.json lists them
LAYER_METRICS: dict[str, str] = {}
for _name, _roles in SEARCHES.items():
    for _role in _roles:
        _key = _name if _role is None else f"{_name}.{_role}"
        LAYER_METRICS[f"{_key}.calls"] = "count"
        LAYER_METRICS[f"{_key}.self_s"] = "s"
        LAYER_METRICS[f"{_key}.found_ratio"] = "ratio"
for _name in CHECKERS:
    LAYER_METRICS[f"{_name}.calls"] = "count"
    LAYER_METRICS[f"{_name}.self_s"] = "s"
    LAYER_METRICS[f"{_name}.rejected"] = "count"
for _name in PLAIN:
    LAYER_METRICS[f"{_name}.calls"] = "count"
    LAYER_METRICS[f"{_name}.self_s"] = "s"
LAYER_METRICS["trace.overhead_ratio"] = "ratio"
LAYER_METRICS["trace.attributed_share"] = "ratio"

# Attempt.method -> the search whose call produced it
_METHOD_SEARCH = {
    "s-loop": "nonterm.search_mixed_loop",
    "strictified-loop": "nonterm.search_mixed_loop",
    "mixed-loop": "nonterm.search_mixed_loop",
    "emitting-loop": "nonterm.search_emitting_loop",
}
_NO_SEARCH_METHODS = ("trivial", "s-termination", "timeout")


class TraceError(Exception):
    """The recorded spans do not match the attempts `prove` reported."""


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "role", "outcome")

    def __init__(self, name: str, start: float, parent: int, op: int):
        self.name = name
        self.start = start
        self.end = 0.0
        self.parent = parent
        self.op = op
        self.role = None
        # True when a search found something or a checker rejected
        self.outcome = False


def found(result) -> bool:
    """Outcome of a search: it returned a witness or certificate."""
    return result is not None


def rejected(result) -> bool:
    """Outcome of a checker: it returned a failing CheckResult."""
    return not result


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # per `<name>[.<role>]`: [calls, self seconds, outcomes], over all traced passes
        self.totals: dict[str, list] = {}
        self.top_level_s = 0.0  # time inside top-level spans, over all traced passes
        self.kept = 0  # spans[:kept] are the first traced pass, written out at the end

    # ------------------------------------------------------------ recording

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        op = self.spans[self._stack[0]].op if self._stack else index
        self.spans.append(Span(name, time.perf_counter(), parent, op))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, outcome=None):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if outcome is not None:
                self.spans[index].outcome = outcome(result)
            if name == "term.prove":
                self._assign_prove_roles(index, result)
            return result

        return traced

    def _assign_prove_roles(self, index: int, outcome) -> None:
        searches = [
            s for s in self._children(index)
            if s.name in SEARCHES and s.name != "certificates.trivial_verdict"
        ]
        methods = [a for a in outcome.attempts if a.method not in _NO_SEARCH_METHODS]
        if len(searches) != len(methods):
            raise TraceError(f"{len(searches)} search spans for {len(methods)} attempts")
        for span, attempt in zip(searches, methods):
            method = attempt.method
            expected = _METHOD_SEARCH.get(method) or (
                "term.search_weights" if method.endswith("weights") else "term.search_matrix"
            )
            if span.name != expected or span.outcome != (attempt.outcome == "found"):
                raise TraceError(f"attempt {method}: {attempt.outcome} does not match {span.name}")
            span.role = method

    def _children(self, index: int):
        # children start after their parent and are appended in call order
        return [s for s in self.spans[index + 1:] if s.parent == index]

    def cli_call(self, command: str, fn, argv):
        """Run one CLI command inside a `cli.main.<command>` span."""
        index = self.begin(f"cli.main.{command}")
        try:
            return fn(argv)
        finally:
            self.end(index)
            for span in self._children(index):
                if span.name in SEARCHES:
                    span.role = f"cli-{command}"

    # ------------------------------------------------------------ patching

    def install(self, relsrs) -> None:
        """Wrap the public functions as the calling modules bind them."""
        cli, nonterm, term = relsrs.cli, relsrs.nonterm, relsrs.term
        patches = [
            (term, "search_mixed_loop", "nonterm.search_mixed_loop", found),
            (term, "search_emitting_loop", "nonterm.search_emitting_loop", found),
            (term, "search_weights", "term.search_weights", found),
            (term, "search_matrix", "term.search_matrix", found),
            (term, "trivial_verdict", "certificates.trivial_verdict", found),
            (term, "check_loop_certificate", "nonterm.check_loop_certificate", rejected),
            (term, "verify_certificate", "term.verify_certificate", rejected),
            (nonterm, "replay", "core.replay", None),
            (cli, "prove", "term.prove", None),
            (cli, "verify_certificate", "term.verify_certificate", rejected),
            (cli, "search_mixed_loop", "nonterm.search_mixed_loop", found),
            (cli, "search_emitting_loop", "nonterm.search_emitting_loop", found),
            (cli, "find_looping_forward_closure", "nonterm.find_looping_forward_closure", found),
            (cli, "parse_srs", "tpdb.parse_srs", None),
            (cli, "serialize_certificate", "certificates.serialize_certificate", None),
        ]
        for module, attr, name, outcome in patches:
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, outcome))
        json_module = cli.json
        self._restore.append((cli, "json", json_module))
        cli.json = _JsonProxy(json_module, self)

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    # ------------------------------------------------------------ analysis

    def end_pass(self, first: int) -> None:
        """Add the spans of the pass that began at spans[first] to the totals.

        Self time is a span's duration minus that of its children.  Only the
        first traced pass's spans stay in memory.
        """
        child_time = defaultdict(float)
        for span in self.spans[first:]:
            if span.parent >= first:
                child_time[span.parent] += span.end - span.start
            else:
                self.top_level_s += span.end - span.start
        for index in range(first, len(self.spans)):
            span = self.spans[index]
            key = span.name if span.role is None else f"{span.name}.{span.role}"
            entry = self.totals.setdefault(key, [0, 0.0, 0])
            entry[0] += 1
            entry[1] += span.end - span.start - child_time[index]
            entry[2] += span.outcome
        if first == 0:
            self.kept = len(self.spans)
        else:
            del self.spans[first:]

    def write(self, path: Path) -> None:
        """Write the first traced pass's spans as gzipped JSON lines."""
        spans = self.spans[: self.kept]
        if not spans:
            return
        t0 = spans[0].start
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for i, s in enumerate(spans):
                out.write(json.dumps({
                    "id": i, "name": s.name, "role": s.role, "parent": s.parent, "op": s.op,
                    "start": round(s.start - t0, 9), "end": round(s.end - t0, 9),
                    "outcome": s.outcome,
                }) + "\n")


class _JsonProxy:
    """Stands in for the `json` module inside `relsrs.cli`."""

    def __init__(self, json_module, tracer: Tracer):
        self.JSONDecodeError = json_module.JSONDecodeError
        self.dumps = tracer.wrap("io.json_encode", json_module.dumps)
        self.loads = tracer.wrap("io.json_decode", json_module.loads)


def layer_metrics(totals: dict[str, list], passes: int) -> dict[str, float]:
    """Per-pass averages of the totals, under the names in LAYER_METRICS."""
    out: dict[str, float] = {}
    for metric in LAYER_METRICS:
        key, stat = metric.rsplit(".", 1)
        if key == "trace":
            continue
        calls, self_s, outcomes = totals.get(key, (0, 0.0, 0))
        if stat == "calls":
            out[metric] = calls / passes
        elif stat == "self_s":
            out[metric] = self_s / passes
        elif stat == "found_ratio":
            out[metric] = outcomes / calls if calls else 0.0
        else:  # rejected
            out[metric] = outcomes / passes
    return out


def self_time_by_function(totals: dict[str, list], passes: int) -> dict[str, float]:
    """Self seconds per pass of each function, all roles together, largest first."""
    out: dict[str, float] = {}
    for key, (_, self_s, _) in totals.items():
        function = next((name for name in SEARCHES if key.startswith(name + ".")), key)
        out[function] = out.get(function, 0.0) + self_s / passes
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
