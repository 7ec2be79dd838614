"""Benchmark for relsrs: three closed-loop, single-process workloads.

Run from the repository root:

    python3 perfbench/run.py --workload survey5 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Workloads (each issues its next call only after the previous one returns):

- survey5: enumerate every two-letter system up to size 5, `prove` each with
  the default budget, verify each certificate, and verify it again after a
  serialize -> JSON -> parse round trip.  One operation is one `prove` call.
- frontier: seven `relsrs` CLI commands on hard small systems, run in
  process with stdout captured.  One operation is one command.
- recheck: re-check a frozen corpus of 30,945 decided size <= 6 systems plus
  mutated certificates that must be rejected.  One operation is one record:
  JSON decode, parse the system, parse the certificate, verify.

Paired timing.  The host's speed swings by up to 2x within a second, so an
absolute time says more about the host than about the program.  Every timed
operation therefore runs twice, back to back and in alternating order: once
in `relsrs` from src/ and once in `relsrs_reference` (reference/), a frozen
copy of the package that never changes.  Both runs see the same host speed,
so their ratio does not depend on it.  An operation's time at reference speed
is the median of its ratios over the run's passes times the reference's
stored time for that operation (data/reference_times.json.gz, written by
gen_reference.py); every time metric is computed from these.

A run makes a fixed number of whole passes (NOMINAL_PASS_S), at least one,
whatever the program's speed.  --seed 0 runs the inputs as listed; other
seeds apply a seeded letter swap and/or reversal to each survey5 system,
shuffle the recheck records, and shuffle the frontier items.

With --trace 0 the last output line reports the end-to-end metrics; with
--trace 1 it reports per-layer metrics from spans recorded around the calls
into each relsrs module (see spans.py), measured on traced passes that
alternate with untraced ones (the reference does not run), and writes the
spans of the first traced pass to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from spans import LAYER_METRICS, Tracer, layer_metrics, rejected, self_time_by_function

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"
REFERENCE = HERE / "reference" / "relsrs_reference"
OUT = ROOT / ".bench_out"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p99": "ms",
    "op_ms.geomean": "ms",
    "decided_share": "ratio",
    "peak_rss_mb": "MiB",
}
SETUP_REPEATS = 7
# a program-only pass's length on the reference host (2 vCPUs, Python 3.11);
# a paired pass takes twice as long.  A run makes seconds // (2 * NOMINAL_PASS_S)
# paired passes, or seconds // NOMINAL_PASS_S untraced and traced passes when
# traced, at least one.
NOMINAL_PASS_S = {"survey5": 12, "frontier": 3.75, "recheck": 3.5}


class BenchError(Exception):
    """The benchmark cannot run: missing program or damaged inputs."""


def import_relsrs():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import relsrs
        import relsrs.cli
    except ImportError as e:
        raise BenchError(f"cannot import relsrs from {src}: {e}") from None
    if Path(relsrs.__file__).resolve().parent != src / "relsrs":
        raise BenchError(f"imported relsrs from {relsrs.__file__}, not from {src}")
    return relsrs


def reference_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(REFERENCE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def import_reference():
    sys.path.insert(0, str(REFERENCE.parent))
    try:
        import relsrs_reference
        import relsrs_reference.cli
    except ImportError as e:
        raise BenchError(f"cannot import the reference package from {REFERENCE}: {e}") from None
    return relsrs_reference


def load_reference_times() -> dict:
    """Stored per-operation times of the reference package, checked against its sources."""
    table = json.loads(gzip.decompress((DATA / "reference_times.json.gz").read_bytes()))
    if table["reference_sha256"] != reference_digest():
        raise BenchError("reference/ does not match the package data/reference_times.json.gz was measured on")
    return table


def certificate_verdict(relsrs, cert) -> str:
    if isinstance(cert, relsrs.LoopCertificate):
        return "NO"
    if isinstance(cert, relsrs.ComposeCertificate):
        return cert.verdict
    return "YES"


class Api:
    """The calls a workload makes into one package, each in a span when traced."""

    def __init__(self, relsrs, tracer: Tracer | None = None):
        def wrap(name, fn, outcome=None):
            return fn if tracer is None else tracer.wrap(name, fn, outcome)

        self.relsrs = relsrs
        self.rejections = (relsrs.CertificateFormatError, relsrs.CertificateMismatchError)
        self.enumerate = wrap(
            "enumeration.enumerate_systems", lambda config: list(relsrs.enumerate_systems(config))
        )
        self.prove = wrap("term.prove", relsrs.prove)
        self.verify = wrap("term.verify_certificate", relsrs.verify_certificate, rejected)
        self.serialize = wrap("certificates.serialize_certificate", relsrs.serialize_certificate)
        self.parse_certificate = wrap("certificates.parse_certificate", relsrs.parse_certificate)
        self.parse_system = wrap("tpdb.parse_system", relsrs.parse_system)
        self.json_encode = wrap("io.json_encode", json.dumps)
        self.json_decode = wrap("io.json_decode", json.loads)
        if tracer is None:
            self.cli = lambda argv: relsrs.cli.main(argv)
        else:
            self.cli = lambda argv: tracer.cli_call(argv[0], relsrs.cli.main, argv)

    def certified(self, cert, system, verdict: str) -> bool:
        """The certificate checks, also after a JSON round trip, and backs the verdict."""
        if cert is None or certificate_verdict(self.relsrs, cert) != verdict:
            return False
        if not self.verify(cert, system):
            return False
        text = self.json_encode(self.serialize(cert, system))
        again = self.parse_certificate(self.json_decode(text), system)
        return bool(self.verify(again, system))


class PassResult:
    def __init__(self, flip: int = 0):
        self.op_times: dict = {}  # program seconds per operation, keyed by the operation
        self.ref_times: dict = {}  # reference seconds per operation, on paired passes
        self.flip = flip  # passes alternate which of the pair runs first
        self.attempted = 0
        self.failures: list[str] = []
        self.decided = 0
        self.decidable = 0
        self.verdicts: dict[str, int] = {}

    def timed(self, key, call, ref_call=None):
        """Run one operation in the program and, on a paired pass, in the reference
        right before or after it; return both results (None for an unpaired one)."""
        ref_first = ref_call is not None and (len(self.op_times) + self.flip) % 2 == 1
        ref_out = self._reference(key, ref_call) if ref_first else None
        t0 = time.perf_counter()
        out = call()
        self.op_times[key] = time.perf_counter() - t0
        if ref_call is not None and not ref_first:
            ref_out = self._reference(key, ref_call)
        return out, ref_out

    def _reference(self, key, ref_call):
        try:
            t0 = time.perf_counter()
            out = ref_call()
            self.ref_times[key] = time.perf_counter() - t0
        except Exception as e:
            raise BenchError(f"reference package failed on {key!r}: {type(e).__name__}: {e}") from e
        return out

    def judge(self, label: str, verdict: str, expected: str, certified: bool) -> None:
        """A YES/NO must be certified and agree with a definite expectation;
        a MAYBE where a verdict was expected is a lost verdict, not a failure."""
        self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1
        self.decidable += 1
        if verdict not in ("YES", "NO"):
            return
        if not certified:
            self.failures.append(f"{label}: {verdict} certificate not certified")
        elif expected in ("YES", "NO") and verdict != expected:
            self.failures.append(f"{label}: {verdict} contradicts expected {expected}")
        else:
            self.decided += 1


def reference_agrees(ref_out, expected, key) -> None:
    if ref_out is not None and ref_out != expected:
        raise BenchError(f"reference package gave {ref_out!r} on {key!r}, its data say {expected!r}")


# ------------------------------------------------------------------ survey5


class Survey5:
    """`relsrs enumerate --alphabet 2 --max-size 5 --prove`, in process."""

    def __init__(self, seed: int, tiny: bool):
        expected = json.loads((DATA / "survey5_expected.json").read_text())
        self.max_size = 3 if tiny else 5
        self.count = sum(n for size, n in expected["by_size"].items() if int(size) <= self.max_size)
        self.digest = expected["digest"] if not tiny else None
        self.expected = {"Y": "YES", "N": "NO", "M": "MAYBE"}
        self.verdicts = expected["verdicts"][: self.count]
        rng = random.Random(seed)
        self.symmetry = [
            None if seed == 0 else rng.choice(("swap", "reverse", "both")) for _ in self.verdicts
        ]

    def reference_time(self, table: dict, key) -> float:
        times = table["survey5"]
        return times["enumerate"] if key == "enumerate" else times[self.symmetry[key] or "none"][key]

    @staticmethod
    def transform(relsrs, system, symmetry):
        if symmetry in ("swap", "both"):
            swap = {0: 1, 1: 0}
            system = relsrs.RelSRS(system.letters, tuple(
                relsrs.Rule(tuple(swap[c] for c in r.lhs), tuple(swap[c] for c in r.rhs), r.strict)
                for r in system.rules
            ))
        if symmetry in ("reverse", "both"):
            system = relsrs.reverse_system(system)
        return system

    def run_pass(self, api: Api, ref: Api | None = None, flip: int = 0) -> PassResult:
        result = PassResult(flip)
        result.attempted += 1
        config = api.relsrs.EnumerationConfig(2, self.max_size)
        budget = api.relsrs.ProveBudget()
        if ref is not None:
            ref_config = ref.relsrs.EnumerationConfig(2, self.max_size)
            ref_budget = ref.relsrs.ProveBudget()
        systems, ref_systems = result.timed(
            "enumerate", lambda: api.enumerate(config), ref and (lambda: ref.enumerate(ref_config))
        )
        texts = [str(s) for s in systems]
        digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
        if len(systems) != self.count or self.digest not in (None, digest):
            result.failures.append(f"enumeration: {len(systems)} systems, digest {digest[:12]}")
            return result
        for i, (base, symmetry, letter) in enumerate(zip(systems, self.symmetry, self.verdicts)):
            system = self.transform(api.relsrs, base, symmetry)
            if ref is not None:
                ref_system = self.transform(ref.relsrs, ref_systems[i], symmetry)
            label = f"system {i} {texts[i]} ({symmetry or 'as enumerated'})"
            result.attempted += 1
            try:
                outcome, ref_outcome = result.timed(
                    i, lambda: api.prove(system, budget),
                    ref and (lambda: ref.prove(ref_system, ref_budget)),
                )
                verdict = outcome.verdict
                certified = verdict in ("YES", "NO") and api.certified(
                    outcome.certificate, system, verdict
                )
            except BenchError:
                raise
            except Exception as e:  # an operation that raises is a failed operation
                result.failures.append(f"{label}: {type(e).__name__}: {e}")
                continue
            if ref_outcome is not None:
                reference_agrees(ref_outcome.verdict, self.expected[letter], label)
            result.judge(label, verdict, self.expected[letter], certified)
        return result


# ----------------------------------------------------------------- frontier


class Frontier:
    """Single CLI runs on hard small systems; one pass runs every item once."""

    def __init__(self, seed: int, tiny: bool):
        items = json.loads((DATA / "frontier.json").read_text())["items"]
        if tiny:
            items = [item for item in items if item["name"] == "prove-a_bb_bab"]
        if seed != 0:
            random.Random(seed).shuffle(items)
        self.items = []
        for item in items:
            path = DATA / "frontier" / item["argv"][1]
            argv = [item["argv"][0], str(path)] + item["argv"][2:]
            self.items.append((item, argv, path.read_text()))

    def reference_time(self, table: dict, key) -> float:
        return table["frontier"][key]

    @staticmethod
    def command(api: Api, argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = api.cli(argv)
        return code, out.getvalue()

    def run_pass(self, api: Api, ref: Api | None = None, flip: int = 0) -> PassResult:
        result = PassResult(flip)
        for item, argv, text in self.items:
            label = item["name"]
            command = argv[0]
            result.attempted += 1
            try:
                (code, printed), ref_out = result.timed(
                    label, lambda: self.command(api, argv), ref and (lambda: self.command(ref, argv))
                )
                if ref_out is not None:
                    reference_agrees(ref_out[1].split("\n", 1)[0], item["first_line"], label)
                lines = printed.splitlines()
                first = lines[0] if lines else ""
                if code != (0 if first in ("YES", "NO") else 1):
                    result.failures.append(f"{label}: exit code {code} after {first!r}")
                    continue
                if command != "prove":
                    # the system terminates, so any loop the search reports is unsound
                    if (first, code) != (item["first_line"], item["exit"]):
                        result.failures.append(f"{label}: printed {first!r}, exit {code}")
                    continue
                certified = False
                if first in ("YES", "NO"):
                    system = api.relsrs.parse_system(text)
                    end = next(i for i, line in enumerate(lines) if line.startswith("reason:"))
                    data = api.json_decode("\n".join(lines[1:end]))
                    cert = api.parse_certificate(data, system)
                    certified = api.certified(cert, system, first)
            except BenchError:
                raise
            except Exception as e:  # an operation that raises is a failed operation
                result.failures.append(f"{label}: {type(e).__name__}: {e}")
                continue
            result.judge(label, first, item["first_line"], certified)
        return result


# ------------------------------------------------------------------ recheck


class Recheck:
    """Re-check stored certificates without running any search."""

    def __init__(self, seed: int, tiny: bool, inject_bad: bool = False):
        manifest = json.loads((DATA / "recheck_manifest.json").read_text())
        blob = (DATA / "recheck.jsonl.gz").read_bytes()
        if hashlib.sha256(blob).hexdigest() != manifest["sha256"]:
            raise BenchError("recheck.jsonl.gz does not match recheck_manifest.json")
        lines = gzip.decompress(blob).decode().splitlines()
        records = manifest["records"]
        if len(lines) - records != manifest["mutants"]:
            raise BenchError(f"corpus has {len(lines) - records} mutants, manifest says {manifest['mutants']}")
        numbers = [n for n in range(len(lines)) if n >= records or not tiny or n < 100]
        # (corpus line number, line, expected status)
        work = [(n, lines[n], "CERTIFIED" if n < records else "REJECTED") for n in numbers]
        if inject_bad:
            # a mutant presented as a good record: the pass must count it as failed
            work.append((records, lines[records], "CERTIFIED"))
        if seed != 0:
            random.Random(seed).shuffle(work)
        self.work = work
        self.records = records

    def reference_time(self, table: dict, key) -> float:
        return table["recheck"][self.work[key][0]]

    @staticmethod
    def check(api: Api, line: str) -> bool:
        try:
            record = api.json_decode(line)
            system = api.parse_system(record["system"])
            cert = api.parse_certificate(record["certificate"], system)
            ok = bool(api.verify(cert, system))
            return ok and certificate_verdict(api.relsrs, cert) == record["verdict"]
        except api.rejections:
            return False

    def run_pass(self, api: Api, ref: Api | None = None, flip: int = 0) -> PassResult:
        result = PassResult(flip)
        for i, (number, line, expect) in enumerate(self.work):
            result.attempted += 1
            try:
                ok, ref_ok = result.timed(
                    i, lambda: self.check(api, line), ref and (lambda: self.check(ref, line))
                )
            except BenchError:
                raise
            except Exception as e:  # an operation that raises is a failed operation
                result.failures.append(f"record {i}: {type(e).__name__}: {e}")
                continue
            reference_agrees(ref_ok, number < self.records, f"corpus line {number}")
            status = "CERTIFIED" if ok else "REJECTED"
            result.verdicts[status] = result.verdicts.get(status, 0) + 1
            if status != expect:
                result.failures.append(f"record {i}: {status}, expected {expect}")
            if expect == "CERTIFIED":
                result.decidable += 1
                result.decided += ok
        return result


WORKLOADS = {"survey5": Survey5, "frontier": Frontier, "recheck": Recheck}


def make_workload(args, inject_bad: bool = False):
    if args.workload == "recheck":
        return Recheck(args.seed, args.tiny, inject_bad)
    return WORKLOADS[args.workload](args.seed, args.tiny)


# -------------------------------------------------------------- measurement


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def measure_setup(args, reference_setup_s: float) -> float:
    """Set-up time at reference speed: the median over SETUP_REPEATS pairs of
    fresh interpreters, one importing relsrs and one the reference package,
    each loading the inputs, of their ratio, times the reference's stored time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])

    def once(reference: bool) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run(cmd + (["--reference"] if reference else []), cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()}")
        return elapsed

    # the first run of each writes its bytecode cache
    once(False)
    once(True)
    ratios = []
    for k in range(SETUP_REPEATS):
        if k % 2:
            ref_s = once(True)
            ratios.append(once(False) / ref_s)
        else:
            program_s = once(False)
            ratios.append(program_s / once(True))
    return statistics.median(ratios) * reference_setup_s


def run(args, log=print, inject_bad: bool = False) -> dict:
    if args.setup_only:
        if args.reference:
            import_reference()
        else:
            import_relsrs()
        make_workload(args, inject_bad)
        return {}
    relsrs = import_relsrs()
    workload = make_workload(args, inject_bad)
    tracer = Tracer() if args.trace else None
    plain = Api(relsrs)
    if tracer is None:
        table = load_reference_times()
        reference = Api(import_reference())
        setup_s = measure_setup(args, table["setup"][args.workload])
        modes = (False,)
        rounds = max(1, int(args.seconds // (2 * NOMINAL_PASS_S[args.workload])))
    else:
        traced = Api(relsrs, tracer)
        modes = (False, True)
        rounds = max(1, int(args.seconds // NOMINAL_PASS_S[args.workload]) // 2)

    passes: list[tuple[bool, float, PassResult]] = []  # (traced, wall, result)
    # a fixed number of passes, so that a faster program does not get more of them;
    # traced runs alternate untraced and traced passes
    for k in range(rounds):
        for is_traced in modes:
            first = len(tracer.spans) if tracer else 0
            if is_traced:
                tracer.install(relsrs)
            try:
                t0 = time.perf_counter()
                if is_traced:
                    result = workload.run_pass(traced)
                else:
                    result = workload.run_pass(plain, None if tracer else reference, k % 2)
                passes.append((is_traced, time.perf_counter() - t0, result))
            finally:
                if is_traced:
                    tracer.uninstall()
            if is_traced:
                tracer.end_pass(first)

    attempted = sum(r.attempted for _, _, r in passes)
    failures = [f for _, _, r in passes for f in r.failures]
    untraced = [r for is_traced, _, r in passes if not is_traced]
    walls = {mode: [w for is_traced, w, _ in passes if is_traced == mode] for mode in modes}
    last = untraced[-1]
    log(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced"
        f"{' paired' if tracer is None else ''} and {len(passes) - len(untraced)} traced passes")
    for mode in modes:
        log(f"{'traced' if mode else 'untraced'} pass walls: {' '.join(f'{w:.3f}' for w in walls[mode])} s")
    log(f"verdicts per pass: {dict(sorted(last.verdicts.items()))}")
    log(f"failed_share: {len(failures) / attempted:.6f} ({len(failures)} of {attempted})")
    for failure in failures[:20]:
        log(f"FAILED {failure}")

    if tracer is None:
        # each operation's program/reference ratio, median over the passes, times
        # the reference's stored time: the operation's time at reference speed
        ratios = defaultdict(list)
        for r in untraced:
            for key, seconds in r.op_times.items():
                if key in r.ref_times:
                    ratios[key].append(seconds / r.ref_times[key])
        at_ref = {key: statistics.median(v) * workload.reference_time(table, key)
                  for key, v in ratios.items()}
        ops = sorted(seconds for key, seconds in at_ref.items() if key != "enumerate")
        if not ops:
            raise BenchError("no operation completed: " + "; ".join(failures[:5]))
        program_s = sum(sum(r.op_times.values()) for r in untraced)
        ref_s = sum(sum(r.ref_times.values()) for r in untraced)
        log(f"{len(ops)} operations timed; program/reference time over the run: "
            f"{program_s:.3f} / {ref_s:.3f} s = {program_s / ref_s:.4f}")
        if args.workload == "frontier":
            for key, seconds in at_ref.items():
                log(f"item {key}: {seconds:.4f} s at reference speed, ratios "
                    + " ".join(f"{r:.3f}" for r in ratios[key]))
        metrics = {
            "setup_s": setup_s,
            "wall_s": sum(at_ref.values()),
            "op_ms.p50": 1000 * percentile(ops, 0.50),
            "op_ms.p99": 1000 * percentile(ops, 0.99),
            "op_ms.geomean": 1000 * math.exp(statistics.fmean(math.log(t) for t in ops)),
            "decided_share": last.decided / last.decidable if last.decidable else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        traced_passes = len(walls[True])
        metrics = layer_metrics(tracer.totals, traced_passes)
        metrics["trace.overhead_ratio"] = min(walls[True]) / min(walls[False])
        metrics["trace.attributed_share"] = tracer.top_level_s / sum(walls[True])
        units = LAYER_METRICS
        for function, self_s in list(self_time_by_function(tracer.totals, traced_passes).items())[:5]:
            log(f"self time per pass, all roles: {function} {self_s:.4f} s")
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(path)
        log(f"spans of the first traced pass: {path.relative_to(ROOT)}")
    for name, value in metrics.items():
        log(f"{name} = {value:.6g} {units[name]}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


# ---------------------------------------------------------------- self-test


def self_test() -> int:
    """Tiny inputs: every metric is printed with its unit, and a bad record fails."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, table in (("end_to_end", END_TO_END), ("per_layer", LAYER_METRICS)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != table:
            problems.append(f"BENCHMARK.json {key} differs from the metrics run.py prints")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    quiet = lambda *_: None  # noqa: E731
    for name in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=1, seconds=0, trace=trace,
                                      tiny=True, setup_only=False, reference=False)
            out = run(args, log=quiet)
            expected = END_TO_END if trace == 0 else LAYER_METRICS
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != expected or not out["correct"] or out["failed"]:
                problems.append(f"{name} trace {trace}: correct={out['correct']}, "
                                f"failed={out['failed']}, metrics match={got == expected}")
            print(f"self-test {name} trace {trace}: {out['attempted']} attempted, "
                  f"{out['failed']} failed")
    args = argparse.Namespace(workload="recheck", seed=2, seconds=0, trace=0,
                              tiny=True, setup_only=False, reference=False)
    out = run(args, log=quiet, inject_bad=True)
    if out["failed"] != 1 or out["correct"]:
        problems.append(f"injected bad record: failed={out['failed']}, correct={out['correct']}")
    print(f"self-test injected bad record: {out['failed']} failed")
    for problem in problems:
        print(f"self-test FAILED: {problem}")
    print("self-test: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="run on tiny inputs and check the output")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    if not args.setup_only:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
