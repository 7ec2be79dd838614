"""Relative termination of string rewriting systems.

A relative SRS splits its rules into strict ones (l -> r, the ones that
must stop applying) and relative ones (l ->= r, free to keep running).
This package parses and prints the TPDB relative-SRS format, enumerates
small systems modulo letter renaming, searches for loops and forward
closures that refute relative termination, proves it via weight and
matrix interpretations with a strictification strategy, and re-checks
every verdict from a replayable certificate.
"""

from .certificates import (
    ArcticMatrixCertificate,
    Attempt,
    Certificate,
    CertificateFormatError,
    CertificateMismatchError,
    CheckResult,
    ComposeCertificate,
    EmittingRedex,
    EmptyRCertificate,
    LoopCertificate,
    NaturalMatrixCertificate,
    ProofOutcome,
    SearchReport,
    WeightCertificate,
    parse_certificate,
    serialize_certificate,
    trivial_verdict,
)
from .check import (
    check_loop_certificate,
    check_matrix,
    check_weights,
    verify_certificate,
)
from .core import (
    EPSILON,
    Derivation,
    RelSRS,
    ReplayError,
    RewriteError,
    Rule,
    Step,
    Word,
    apply_rule_at,
    replay,
    reverse_system,
    strict_step_count,
    strictify,
    successors,
    system_size,
)
from .enumeration import (
    EnumerationConfig,
    EnumerationStats,
    canonical_form,
    enumerate_block,
    enumerate_systems,
    enumeration_manifest,
    stream_contains,
    words_up_to,
)
from .grid import FIXTURES, GridAlgebra, GridReport, check_grid_algebra
from .nonterm import (
    ForwardClosure,
    closure_to_loop_certificate,
    find_looping_forward_closure,
    forward_closures,
    replay_closure,
    reverse_loop_certificate,
    search_emitting_loop,
    search_mixed_loop,
)
from .term import (
    ProveBudget,
    SWEEP_BUDGET,
    prove,
    search_matrix,
    search_weights,
)
from .tpdb import (
    SrsDocument,
    SrsParseError,
    parse_srs,
    parse_system,
    print_srs,
    print_system,
)

__version__ = "0.1.0"
