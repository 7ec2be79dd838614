"""Command-line front end.

Every invocation prints a machine-parsable result line first, human detail
after.  First lines: prove, loop, and closures print YES, NO, or MAYBE;
check-cert prints CERTIFIED or REJECTED: <reason>; parse and enumerate
print OK; any failure prints ERROR: <message>.  Exit codes: 0 for a
definite result, 1 for MAYBE / REJECTED / nothing found, 2 for errors.

Certificates travel as JSON.  The envelope is {"type": ..., ...} with
type one of loop-mixed, loop-emitting, weights, matrix-natural,
matrix-arctic, empty-R, strictify-compose; words are letter-token lists,
steps are {"rule": i, "position": p} pairs, matrices are row-major with
"-inf" for arctic minus infinity, weights are integers or "p/q" strings.

Runs without --timeout are deterministic: identical invocations print
byte-identical result lines and certificates.  --timeout (prove, loop,
closures, enumerate --prove) trades that for a wall-clock cap, checked
inside the searches and between prove's methods.  A prove search it cuts
short is listed with outcome `deadline` and the result is MAYBE with
reason timeout; loop and closures print MAYBE and
`timeout before the search finished (bound N)`.  A prove search cut by
its node budget or assignment cap is listed with outcome `cap`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from multiprocessing import Pool
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
    closure_to_loop_certificate,
    find_looping_forward_closure,
    search_emitting_loop,
    search_mixed_loop,
)
from .term import ProveBudget, prove
from .tpdb import SrsParseError, document_to_system, parse_srs, print_srs, print_system


def _read_system(path: str) -> RelSRS:
    return document_to_system(parse_srs(Path(path).read_text()))


def _budget_from_args(args: argparse.Namespace) -> ProveBudget:
    updates = {}
    if getattr(args, "max_word_len", None) is not None:
        updates["loop_max_word_len"] = args.max_word_len
    if getattr(args, "max_steps", None) is not None:
        updates["loop_max_steps"] = args.max_steps
    if getattr(args, "max_dim", None) is not None:
        updates["matrix_max_dim"] = args.max_dim
    if getattr(args, "max_entry", None) is not None:
        updates["matrix_max_entry"] = args.max_entry
    return ProveBudget(**updates)


def _deadline(args: argparse.Namespace) -> Optional[float]:
    if getattr(args, "timeout", None) is None:
        return None
    return time.monotonic() + args.timeout


def _print_certificate(cert: Certificate, system: RelSRS) -> None:
    print(json.dumps(serialize_certificate(cert, system), indent=2, sort_keys=True))


def cmd_prove(args: argparse.Namespace) -> int:
    system = _read_system(args.file)
    if args.check_cert is not None:
        try:
            data = json.loads(Path(args.check_cert).read_text())
        except json.JSONDecodeError as e:
            print(f"ERROR: certificate file is not valid JSON: {e}")
            return 2
        cert = parse_certificate(data, system)
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


def _print_none_found(deadline: Optional[float], bound: int) -> None:
    print("MAYBE")
    if deadline is not None and time.monotonic() >= deadline:
        print(f"timeout before the search finished (bound {bound})")
    else:
        print(f"none found (bound {bound})")


def cmd_loop(args: argparse.Namespace) -> int:
    system = _read_system(args.file)
    max_word_len = args.max_word_len if args.max_word_len is not None else DEFAULT_MAX_WORD_LEN
    max_steps = args.max_steps if args.max_steps is not None else DEFAULT_MAX_STEPS
    deadline = _deadline(args)
    cert = search_mixed_loop(system, max_word_len, max_steps, deadline=deadline)
    if cert is None:
        cert = search_emitting_loop(system, max_word_len, max_steps, deadline=deadline)
    if cert is None:
        _print_none_found(deadline, max_word_len)
        return 1
    print("NO")
    _print_certificate(cert, system)
    return 0


def cmd_closures(args: argparse.Namespace) -> int:
    system = _read_system(args.file)
    bound = (
        args.max_closure_size
        if args.max_closure_size is not None
        else DEFAULT_MAX_CLOSURE_SIZE
    )
    deadline = _deadline(args)
    closure = find_looping_forward_closure(system, bound, deadline=deadline)
    if closure is None:
        _print_none_found(deadline, bound)
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
    try:
        data = json.loads(Path(args.cert).read_text())
    except json.JSONDecodeError as e:
        print(f"ERROR: certificate file is not valid JSON: {e}")
        return 2
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


def _prove_verdict(payload) -> str:
    system, budget, timeout = payload
    deadline = time.monotonic() + timeout if timeout is not None else None
    return prove(system, budget, deadline=deadline).verdict


class _Tee:
    """Pass-through over an enumeration stream that also feeds a sink."""

    def __init__(self, stream, sink):
        self._stream = stream
        self._sink = sink

    def __iter__(self):
        for system in self._stream:
            self._sink(system)
            yield system

    @property
    def stats(self):
        return getattr(self._stream, "stats", None)


def cmd_enumerate(args: argparse.Namespace) -> int:
    config = EnumerationConfig(
        alphabet_size=args.alphabet,
        max_size=args.max_size,
        require_all_letters_used=not args.allow_unused_letters,
        require_nonempty_r=not args.allow_empty_r,
        require_nonempty_s=not args.allow_empty_s,
        identify_reversal=args.identify_reversal,
        prune_trivial=args.prune_trivial,
    )
    out_dir: Optional[Path] = Path(args.out) if args.out is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    systems: list[RelSRS] = []
    seq_by_size: dict[int, int] = {}

    def sink(system: RelSRS) -> None:
        systems.append(system)
        if out_dir is not None:
            size = system_size(system)
            seq = seq_by_size.get(size, 0) + 1
            seq_by_size[size] = seq
            name = f"s{size:02d}_{seq:05d}.srs"
            (out_dir / name).write_text(print_system(system))

    stream = enumerate_systems(config)
    manifest = enumeration_manifest(config, _Tee(stream, sink))
    if out_dir is not None:
        (out_dir / "manifest.txt").write_text(manifest)

    print(f"OK {len(systems)} systems")
    if out_dir is None:
        sys.stdout.write(manifest)

    if args.prove:
        budget = _budget_from_args(args)
        payloads = [(s, budget, args.timeout) for s in systems]
        if args.jobs > 1:
            with Pool(args.jobs) as pool:
                verdicts = pool.map(_prove_verdict, payloads, chunksize=16)
        else:
            verdicts = [_prove_verdict(p) for p in payloads]
        counts: dict[int, dict[str, int]] = {}
        for system, verdict in zip(systems, verdicts):
            per = counts.setdefault(system_size(system), {"YES": 0, "NO": 0, "MAYBE": 0})
            per[verdict] += 1
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
        p.add_argument("--max-word-len", type=_COUNT, default=None, metavar="N")
        p.add_argument("--max-steps", type=_COUNT, default=None, metavar="N")
        p.add_argument("--max-dim", type=_at_least(1), default=None, metavar="N")
        p.add_argument("--max-entry", type=_COUNT, default=None, metavar="N")
        p.add_argument("--timeout", type=_SECONDS, default=None, metavar="SECONDS")

    p = sub.add_parser("prove", help="decide relative termination of an SRS file")
    p.add_argument("file")
    p.add_argument("--check-cert", default=None, metavar="FILE",
                   help="verify this certificate instead of searching")
    budget_flags(p)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("enumerate", help="enumerate canonical relative SRSs")
    p.add_argument("--alphabet", type=int, required=True, metavar="N")
    p.add_argument("--max-size", type=int, required=True, metavar="N")
    p.add_argument("--allow-unused-letters", action="store_true")
    p.add_argument("--allow-empty-r", action="store_true")
    p.add_argument("--allow-empty-s", action="store_true")
    p.add_argument("--identify-reversal", action="store_true")
    p.add_argument("--prune-trivial", action="store_true")
    p.add_argument("--out", default=None, metavar="DIR")
    p.add_argument("--prove", action="store_true", help="run the prover on each system")
    p.add_argument("--jobs", type=_at_least(1), default=1, metavar="N")
    budget_flags(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("loop", help="search for a loop witnessing non-termination")
    p.add_argument("file")
    p.add_argument("--max-word-len", type=_COUNT, default=None, metavar="N")
    p.add_argument("--max-steps", type=_COUNT, default=None, metavar="N")
    p.add_argument("--timeout", type=_SECONDS, default=None, metavar="SECONDS")
    p.set_defaults(func=cmd_loop)

    p = sub.add_parser("closures", help="search forward closures for a loop")
    p.add_argument("file")
    p.add_argument("--max-closure-size", type=_COUNT, default=None, metavar="N")
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
        return args.func(args)
    except SrsParseError as e:
        print(f"ERROR: {e}")
        return 2
    except CertificateFormatError as e:
        print(f"ERROR: {e}")
        return 2
    except CertificateMismatchError as e:
        print(f"ERROR: {e}")
        return 2
    except (OSError, ValueError) as e:
        print(f"ERROR: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
