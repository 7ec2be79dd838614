"""Generate the frozen inputs of the benchmark.

Run once, from the repository root, at the commit whose verdicts the
benchmark should hold the program to:

    python3 perfbench/gen_data.py

It enumerates every two-letter relative SRS up to size 6, proves each with
SWEEP_BUDGET, and writes:

- data/recheck.jsonl.gz: one record per decided system (system text,
  verdict, serialized certificate, expected check result), followed by a few
  mutated certificates that the checker must reject;
- data/recheck_manifest.json: the commit, the counts per verdict and per
  certificate type, and the SHA-256 of the corpus file;
- data/survey5_expected.json: the verdict of every size <= 5 system in
  enumeration order, and a digest of that enumeration.

The benchmark never regenerates these files; it only reads them.
"""

from __future__ import annotations

import copy
import gzip
import hashlib
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
sys.path.insert(0, str(ROOT / "src"))

from relsrs import (  # noqa: E402
    SWEEP_BUDGET,
    EnumerationConfig,
    enumerate_systems,
    parse_certificate,
    parse_system,
    print_system,
    prove,
    serialize_certificate,
    system_size,
    verify_certificate,
)


def enumeration_digest(systems) -> str:
    return hashlib.sha256("\n".join(str(s) for s in systems).encode()).hexdigest()


def _zero_weights(cert: dict) -> None:
    for name in cert["weights"]:
        cert["weights"][name] = 0


def _identity_matrices(cert: dict) -> None:
    d = cert["dimension"]
    ident = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for name in cert["matrices"]:
        cert["matrices"][name] = copy.deepcopy(ident)


def _drop_last_step(cert: dict) -> None:
    cert["steps"] = cert["steps"][:-1]


def _shift_first_step(cert: dict) -> None:
    cert["steps"][0]["position"] += 1


def _arctic_identity(cert: dict) -> None:
    d = cert["dimension"]
    ident = [[0 if i == j else "-inf" for j in range(d)] for i in range(d)]
    for name in cert["matrices"]:
        cert["matrices"][name] = copy.deepcopy(ident)


def _drop_s_part(cert: dict) -> None:
    cert["parts"] = [p for p in cert["parts"] if p["role"] != "s-termination"]


def _zero_inner_weights(cert: dict) -> None:
    _zero_weights(cert["parts"][0]["certificate"])


# (description, record selector, mutation); each mutant must be rejected
MUTATIONS = [
    ("weights all zero", lambda c: c["type"] == "weights", _zero_weights),
    ("natural matrices set to identity", lambda c: c["type"] == "matrix-natural",
     _identity_matrices),
    ("mixed loop missing its last step", lambda c: c["type"] == "loop-mixed"
     and len(c["steps"]) > 1, _drop_last_step),
    ("mixed loop first step at the wrong position", lambda c: c["type"] == "loop-mixed",
     _shift_first_step),
    ("arctic matrices set to identity", lambda c: c["type"] == "matrix-arctic",
     _arctic_identity),
    ("NO composite without its s-termination part", lambda c: c["type"] == "strictify-compose"
     and c["verdict"] == "NO", _drop_s_part),
    ("YES composite with zero weights", lambda c: c["type"] == "strictify-compose"
     and c["verdict"] == "YES" and c["parts"][0]["certificate"]["type"] == "weights",
     _zero_inner_weights),
    ("YES composite with identity natural matrices", lambda c: c["type"] == "strictify-compose"
     and c["verdict"] == "YES" and c["parts"][0]["certificate"]["type"] == "matrix-natural",
     lambda c: _identity_matrices(c["parts"][0]["certificate"])),
]


def make_mutants(records: list[dict]) -> list[dict]:
    mutants = []
    for description, select, mutate in MUTATIONS:
        # skip the first few matches so mutants do not all come from the smallest systems
        matches = [r for r in records if select(r["certificate"])]
        base = matches[min(7, len(matches) - 1)]
        mutant = copy.deepcopy(base)
        mutate(mutant["certificate"])
        mutant["expect"] = "REJECTED"
        mutant["mutation"] = description
        system = parse_system(mutant["system"])
        if verify_certificate(parse_certificate(mutant["certificate"], system), system):
            raise SystemExit(f"mutant {description!r} is accepted by the checker")
        mutants.append(mutant)
    return mutants


def current_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    systems = list(enumerate_systems(EnumerationConfig(2, 6)))
    records = []
    verdicts = []
    for system in systems:
        outcome = prove(system, SWEEP_BUDGET)
        verdicts.append(outcome.verdict)
        if outcome.verdict == "MAYBE":
            continue
        if not verify_certificate(outcome.certificate, system):
            raise SystemExit(f"prover certificate rejected for {system}")
        records.append({
            "system": print_system(system),
            "verdict": outcome.verdict,
            "certificate": serialize_certificate(outcome.certificate, system),
            "expect": "CERTIFIED",
        })
    mutants = make_mutants(records)

    lines = [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records + mutants]
    blob = gzip.compress(("\n".join(lines) + "\n").encode(), mtime=0)
    DATA.mkdir(parents=True, exist_ok=True)
    (DATA / "recheck.jsonl.gz").write_bytes(blob)

    def cert_type(c: dict) -> str:
        return c["type"] + (f"/{c['verdict']}" if c["type"] == "strictify-compose" else "")

    manifest = {
        "commit": current_commit(),
        "budget": "SWEEP_BUDGET",
        "enumeration": "alphabet 2, max size 6",
        "systems": len(systems),
        "verdicts": dict(sorted(Counter(verdicts).items())),
        "records": len(records),
        "mutants": len(mutants),
        "certificate_types": dict(sorted(Counter(cert_type(r["certificate"]) for r in records).items())),
        "jsonl_bytes": sum(len(line) + 1 for line in lines),
        "sha256": hashlib.sha256(blob).hexdigest(),
    }
    (DATA / "recheck_manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")

    small = list(enumerate_systems(EnumerationConfig(2, 5)))
    if [str(s) for s in small] != [str(s) for s in systems[: len(small)]]:
        raise SystemExit("size <= 5 enumeration is not a prefix of the size <= 6 one")
    expected = {
        "commit": manifest["commit"],
        "enumeration": "alphabet 2, max size 5",
        "systems": len(small),
        "digest": enumeration_digest(small),
        "by_size": {str(k): v for k, v in sorted(Counter(map(system_size, small)).items())},
        "counts": dict(sorted(Counter(verdicts[: len(small)]).items())),
        # one letter per system in enumeration order: Y(ES), N(O) or M(AYBE)
        "verdicts": "".join(v[0] for v in verdicts[: len(small)]),
    }
    (DATA / "survey5_expected.json").write_text(json.dumps(expected, indent=2) + "\n")
    print(json.dumps(manifest, indent=2))
    print("survey5:", expected["counts"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
