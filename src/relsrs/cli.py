"""Command-line front end.

Every invocation prints a machine-parsable result line first, human detail
after.  First lines: prove, loop, and closures print YES, NO, or MAYBE;
check-cert prints CERTIFIED or REJECTED: <reason>; parse and enumerate
print OK; any failure prints ERROR: <message>.  Exit codes: 0 for a
definite result, 1 for MAYBE / REJECTED / nothing found, 2 for errors.
A reader that closes stdout early (`relsrs prove f.srs | head -1`) ends
the run with exit 2 and nothing on stderr.

Certificates travel as JSON.  The envelope is {"type": ..., ...} with
type one of loop-mixed, loop-emitting, weights, matrix-natural,
matrix-arctic, empty-R, strictify-compose; words are letter-token lists,
steps are {"rule": i, "position": p} pairs, matrices are row-major with
"-inf" for arctic minus infinity, weights are integers or "p/q" strings.

Runs without --timeout are deterministic: identical invocations print
byte-identical result lines and certificates.  --timeout (prove, loop,
closures, enumerate --prove) trades that for a wall-clock cap, checked
inside every search, which records why it stopped; the commands print
that record instead of reading the clock again.  A prove search the
deadline cuts short is listed with outcome `deadline` and the result is
MAYBE with reason timeout; loop and closures print MAYBE and
`timeout before the search finished (bound N)`.  A prove search cut by
its node budget or assignment cap is listed with outcome `cap`, and
a closures run cut by its node budget prints MAYBE and
`node budget reached before the search finished (bound N)`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext
from dataclasses import fields
from pathlib import Path
from typing import Optional

from .certificates import (
    Certificate,
    CertificateFormatError,
    CertificateMismatchError,
    parse_certificate,
    serialize_certificate,
)
from .check import certificate_verdict, verify_certificate
from .core import RelSRS, system_size
from .enumeration import EnumerationConfig, enumerate_systems, enumeration_manifest
from .nonterm import (
    DEFAULT_MAX_CLOSURE_SIZE,
    DEFAULT_MAX_STEPS,
    DEFAULT_MAX_WORD_LEN,
    SearchReport,
    closure_to_loop_certificate,
    find_looping_forward_closure,
    search_emitting_loop,
    search_mixed_loop,
)
from .term import ProveBudget, prove
from .tpdb import SrsParseError, parse_srs, parse_system, print_srs, print_system


def _read_system(path: str) -> RelSRS:
    return parse_system(Path(path).read_text())


def _budget_from_args(args: argparse.Namespace) -> ProveBudget:
    given = {f.name: getattr(args, f.name, None) for f in fields(ProveBudget)}
    return ProveBudget(**{name: value for name, value in given.items() if value is not None})


def _deadline(args: argparse.Namespace) -> Optional[float]:
    if args.timeout is None:
        return None
    return time.monotonic() + args.timeout


def _print_certificate(cert: Certificate, system: RelSRS) -> None:
    print(json.dumps(serialize_certificate(cert, system), indent=2, sort_keys=True))


def _read_certificate_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"certificate file is not valid JSON: {e}") from None
    except RecursionError:
        raise ValueError("certificate file is nested too deeply to read") from None


def cmd_prove(args: argparse.Namespace) -> int:
    system = _read_system(args.file)
    if args.check_cert is not None:
        cert = parse_certificate(_read_certificate_json(args.check_cert), system)
        result = verify_certificate(cert, system)
        if not result:
            print(f"ERROR: supplied certificate rejected: {result.reason}")
            return 2
        print(certificate_verdict(cert))
        _print_certificate(cert, system)
        return 0
    outcome = prove(system, _budget_from_args(args), deadline=_deadline(args))
    print(outcome.verdict)
    if outcome.certificate is not None:
        _print_certificate(outcome.certificate, system)
    if outcome.reason:
        print(f"reason: {outcome.reason}")
    for a in outcome.attempts:
        detail = f" ({a.detail})" if a.detail else ""
        print(f"attempt {a.method}: {a.outcome}{detail}")
    return 0 if outcome.verdict in ("YES", "NO") else 1


# why a search found nothing, by SearchReport.stop
_NONE_FOUND = {
    "none": "none found",
    "cap": "node budget reached before the search finished",
    "deadline": "timeout before the search finished",
}


def _print_none_found(report: SearchReport, bound: int) -> None:
    print("MAYBE")
    print(f"{_NONE_FOUND[report.stop]} (bound {bound})")


def cmd_loop(args: argparse.Namespace) -> int:
    system = _read_system(args.file)
    deadline = _deadline(args)
    report = SearchReport()
    search_args = (system, args.max_word_len, args.max_steps)
    cert = search_mixed_loop(*search_args, deadline=deadline, report=report)
    if cert is None:
        cert = search_emitting_loop(*search_args, deadline=deadline, report=report)
    if cert is None:
        _print_none_found(report, args.max_word_len)
        return 1
    print("NO")
    _print_certificate(cert, system)
    return 0


def cmd_closures(args: argparse.Namespace) -> int:
    system = _read_system(args.file)
    report = SearchReport()
    closure = find_looping_forward_closure(
        system, args.max_closure_size, deadline=_deadline(args), report=report
    )
    if closure is None:
        _print_none_found(report, args.max_closure_size)
        return 1
    cert = closure_to_loop_certificate(closure, system)
    print("NO")
    _print_certificate(cert, system)
    src = system.word_str(closure.source)
    tgt = system.word_str(closure.target)
    print(f"looping closure: {src} -> {tgt} ({closure.strict_steps} strict steps)")
    return 0


def cmd_check_cert(args: argparse.Namespace) -> int:
    system = _read_system(args.srs)
    data = _read_certificate_json(args.cert)
    try:
        cert = parse_certificate(data, system)
    except CertificateMismatchError as e:
        print(f"REJECTED: {e}")
        return 1
    result = verify_certificate(cert, system)
    if result:
        print("CERTIFIED")
        return 0
    print(f"REJECTED: {result.reason}")
    return 1


def cmd_parse(args: argparse.Namespace) -> int:
    doc = parse_srs(Path(args.file).read_text())
    print("OK")
    sys.stdout.write(print_srs(doc))
    return 0


def _prove_verdict(payload) -> tuple[int, str]:
    system, budget, timeout = payload
    deadline = time.monotonic() + timeout if timeout is not None else None
    return system_size(system), prove(system, budget, deadline=deadline).verdict


def cmd_enumerate(args: argparse.Namespace) -> int:
    config = EnumerationConfig(**{f.name: getattr(args, f.name) for f in fields(EnumerationConfig)})
    out_dir: Optional[Path] = Path(args.out) if args.out is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        if any(out_dir.iterdir()):  # its old files would sit beside the new manifest
            raise ValueError(f"--out directory {out_dir} is not empty")
    stream = enumerate_systems(config)

    def written():
        """The stream, writing each system's file as it goes by."""
        seq_by_size: dict[int, int] = {}
        for system in stream:
            if out_dir is not None:
                size = system_size(system)
                seq_by_size[size] = seq = seq_by_size.get(size, 0) + 1
                # eight digits keep a sorted listing in stream order up to
                # two letters at size 11, about 5.5e7 systems by extrapolation
                (out_dir / f"s{size:02d}_{seq:08d}.srs").write_text(print_system(system))
            yield system

    systems = written()
    counts: dict[int, dict[str, int]] = {}
    if args.prove:
        budget = _budget_from_args(args)
        payloads = ((s, budget, args.timeout) for s in systems)
        if args.jobs > 1:
            from multiprocessing import Pool  # only a parallel run pays its import
        with Pool(args.jobs) if args.jobs > 1 else nullcontext() as pool:
            if pool is None:
                results = map(_prove_verdict, payloads)
            else:
                results = pool.imap(_prove_verdict, payloads, chunksize=16)
            for size, verdict in results:
                per = counts.setdefault(size, {"YES": 0, "NO": 0, "MAYBE": 0})
                per[verdict] += 1
    for _ in systems:
        pass  # without --prove, the files are written here
    manifest = enumeration_manifest(stream)
    if out_dir is not None:
        (out_dir / "manifest.txt").write_text(manifest)

    print(f"OK {stream.stats.emitted} systems")
    if out_dir is None:
        sys.stdout.write(manifest)

    if args.prove:
        lines = [
            f"size {s}: YES {c['YES']} NO {c['NO']} MAYBE {c['MAYBE']}"
            for s, c in sorted(counts.items())
        ]
        totals = {v: sum(c[v] for c in counts.values()) for v in ("YES", "NO", "MAYBE")}
        lines.append(
            f"total: YES {totals['YES']} NO {totals['NO']} MAYBE {totals['MAYBE']}"
        )
        summary = "\n".join(lines) + "\n"
        sys.stdout.write(summary)
        if out_dir is not None:
            (out_dir / "verdicts.txt").write_text(summary)
    return 0


def _at_least(minimum: int, convert=int):
    """argparse type: `convert(text)`, rejected (exit 2) below `minimum`, so
    no search reports "none up to a bound" it never searched."""

    def parse(text: str):
        value = convert(text)
        if not value >= minimum:  # also rejects nan
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value" names it
    return parse


_COUNT = _at_least(0)
_SECONDS = _at_least(0, float)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relsrs",
        description="Relative termination of string rewriting systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def budget_flags(p: argparse.ArgumentParser) -> None:
        # each flag is stored under the ProveBudget field it sets
        p.add_argument("--max-word-len", type=_COUNT, dest="loop_max_word_len", metavar="N")
        p.add_argument("--max-steps", type=_COUNT, dest="loop_max_steps", metavar="N")
        p.add_argument("--max-dim", type=_at_least(1), dest="matrix_max_dim", metavar="N")
        p.add_argument("--max-entry", type=_COUNT, dest="matrix_max_entry", metavar="N")
        p.add_argument("--timeout", type=_SECONDS, default=None, metavar="SECONDS")

    p = sub.add_parser("prove", help="decide relative termination of an SRS file")
    p.add_argument("file")
    p.add_argument("--check-cert", default=None, metavar="FILE",
                   help="verify this certificate instead of searching")
    budget_flags(p)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("enumerate", help="enumerate canonical relative SRSs")
    # --alphabet to --prune-trivial are stored under the EnumerationConfig fields they set
    p.add_argument("--alphabet", type=int, required=True, dest="alphabet_size", metavar="N")
    p.add_argument("--max-size", type=int, required=True, metavar="N")
    p.add_argument("--allow-unused-letters", action="store_false", dest="require_all_letters_used")
    p.add_argument("--allow-empty-r", action="store_false", dest="require_nonempty_r")
    p.add_argument("--allow-empty-s", action="store_false", dest="require_nonempty_s")
    p.add_argument("--identify-reversal", action="store_true")
    p.add_argument("--prune-trivial", action="store_true")
    p.add_argument("--out", default=None, metavar="DIR")
    p.add_argument("--prove", action="store_true", help="run the prover on each system")
    p.add_argument("--jobs", type=_at_least(1), default=1, metavar="N")
    budget_flags(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("loop", help="search for a loop witnessing non-termination")
    p.add_argument("file")
    p.add_argument("--max-word-len", type=_COUNT, default=DEFAULT_MAX_WORD_LEN, metavar="N")
    p.add_argument("--max-steps", type=_COUNT, default=DEFAULT_MAX_STEPS, metavar="N")
    p.add_argument("--timeout", type=_SECONDS, default=None, metavar="SECONDS")
    p.set_defaults(func=cmd_loop)

    p = sub.add_parser("closures", help="search forward closures for a loop")
    p.add_argument("file")
    p.add_argument(
        "--max-closure-size", type=_COUNT, default=DEFAULT_MAX_CLOSURE_SIZE, metavar="N"
    )
    p.add_argument("--timeout", type=_SECONDS, default=None, metavar="SECONDS")
    p.set_defaults(func=cmd_closures)

    p = sub.add_parser("check-cert", help="check a certificate against an SRS file")
    p.add_argument("srs")
    p.add_argument("cert")
    p.set_defaults(func=cmd_check_cert)

    p = sub.add_parser("parse", help="parse and reprint an SRS file")
    p.add_argument("file")
    p.set_defaults(func=cmd_parse)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout early: nothing more can be printed, and
        # what is still buffered goes to devnull so exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (
        SrsParseError, CertificateFormatError, CertificateMismatchError, OSError, ValueError
    ) as e:
        print(f"ERROR: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
