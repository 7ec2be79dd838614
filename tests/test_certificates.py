"""Certificate values and the JSON schema round-trip, plus the certificates
of prove's trivial verdicts (`relsrs.term.trivial_verdict`)."""

import ast
import gzip
import hashlib
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import relsrs
from relsrs import (
    ArcticMatrixCertificate,
    CertificateFormatError,
    CertificateMismatchError,
    ComposeCertificate,
    EmittingRedex,
    EmptyRCertificate,
    LoopCertificate,
    NaturalMatrixCertificate,
    Step,
    WeightCertificate,
    parse_certificate,
    parse_system,
    replay,
    serialize_certificate,
    trivial_verdict,
)
from relsrs.certificates import ARCTIC, NEG_INF
from relsrs.check import certificate_verdict
from relsrs.core import Derivation

SYS = parse_system("(RULES a b -> a, c ->= b c)")


def round_trip(cert, system=SYS):
    return parse_certificate(serialize_certificate(cert, system), system)


class TestTrivialVerdict:
    def test_strict_identity_rule_is_no(self):
        sys_ = parse_system("(RULES a -> a, b ->= c)")
        out = trivial_verdict(sys_)
        assert out.verdict == "NO"
        d = Derivation(out.certificate.start, out.certificate.steps)
        assert replay(d, sys_) == out.certificate.start

    def test_strict_empty_lhs_is_no(self):
        sys_ = parse_system("(RULES -> a, a ->= )")
        out = trivial_verdict(sys_)
        assert out.verdict == "NO"
        cert = out.certificate
        final = replay(Derivation(cert.start, cert.steps), sys_)
        assert final == cert.left + cert.start + cert.right

    def test_empty_r_is_yes(self):
        out = trivial_verdict(parse_system("(RULES a ->= b)"))
        assert out.verdict == "YES"
        assert isinstance(out.certificate, EmptyRCertificate)

    def test_relative_identity_is_not_trivial(self):
        # S may loop freely; that alone decides nothing about SN(R/S)
        assert trivial_verdict(parse_system("(RULES a -> b, c ->= c)")) is None

    def test_ordinary_system_is_not_trivial(self):
        assert trivial_verdict(SYS) is None

    @pytest.mark.parametrize(
        "text, reason, right",
        [
            ("(RULES a b -> a b)", "strict rule with lhs = rhs", ()),
            ("(RULES -> a b)", "strict rule with empty lhs", (0, 1)),
            ("(RULES -> , a ->= b)", "strict rule with lhs = rhs", ()),
        ],
    )
    def test_one_step_from_the_lhs_loops(self, text, reason, right):
        sys_ = parse_system(text)
        out = trivial_verdict(sys_)
        lhs = sys_.rules[0].lhs
        assert (out.verdict, out.reason) == ("NO", reason)
        assert out.certificate == LoopCertificate("mixed", lhs, (Step(0, 0),), (), right)


class TestLoopSchema:
    CERT = LoopCertificate(
        kind="mixed",
        start=(0, 2),
        steps=(Step(1, 1), Step(0, 0)),
        left=(),
        right=(),
    )

    def test_round_trip(self):
        assert round_trip(self.CERT) == self.CERT

    def test_serialized_words_are_token_lists(self):
        data = serialize_certificate(self.CERT, SYS)
        assert data["type"] == "loop-mixed"
        assert data["start"] == ["a", "c"]
        assert data["steps"][0] == {"rule": 1, "position": 1}

    def test_emitting_redex_survives(self):
        sys_ = parse_system("(RULES a -> b, c ->= a c)")
        cert = LoopCertificate(
            kind="emitting",
            start=sys_.word("c"),
            steps=(Step(1, 0),),
            left=sys_.word("a"),
            right=(),
            redex=EmittingRedex(0, "left", 0),
        )
        again = round_trip(cert, sys_)
        assert again == cert
        assert serialize_certificate(cert, sys_)["type"] == "loop-emitting"

    def test_unknown_letter_is_mismatch(self):
        data = serialize_certificate(self.CERT, SYS)
        data["start"] = ["z"]
        with pytest.raises(CertificateMismatchError):
            parse_certificate(data, SYS)

    def test_malformed_steps_is_format_error(self):
        data = serialize_certificate(self.CERT, SYS)
        data["steps"] = [{"rule": "one", "position": 0}]
        with pytest.raises(CertificateFormatError):
            parse_certificate(data, SYS)

    def test_mixed_loop_with_a_redex_is_format_error(self):
        # the redex is an emitting loop's witness; on a mixed loop nothing
        # would check it, and serializing would write it back out
        data = {
            "type": "loop-mixed", "start": ["a"], "steps": [{"rule": 0, "position": 0}],
            "left": [], "right": [], "redex": {"rule": 0, "side": "left", "offset": 5},
        }
        message = "^a loop-mixed certificate carries no redex$"
        with pytest.raises(CertificateFormatError, match=message):
            parse_certificate(data, parse_system("(RULES a -> a)"))


LOOP = {
    "type": "loop-mixed",
    "start": ["a", "c"],
    "steps": [{"rule": 1, "position": 1}, {"rule": 0, "position": 0}],
    "left": [],
    "right": [],
}
WORD_FORMAT = (CertificateFormatError, "word must be a list of letter tokens")
STEP_FORMAT = (CertificateFormatError, 'each step must be {"rule": int, "position": int}')
STEPS_FORMAT = (CertificateFormatError, "steps must be a list")
REDEX_FORMAT = (CertificateFormatError, "redex must have rule, side (left/right), offset")


def unknown(letter):
    return CertificateMismatchError, f"letter {letter!r} not in system alphabet"


class TestLoopReadErrors:
    """Which error a malformed loop certificate raises, and its wording.
    Within a word a format error wins over an unknown letter; across
    fields the redex is read first, then start, steps, left and right."""

    @pytest.mark.parametrize(
        "fields, error",
        [
            ({"start": "a c"}, WORD_FORMAT),
            ({"start": ("a", "c")}, WORD_FORMAT),
            ({"start": None}, WORD_FORMAT),
            ({"start": {"a": 0}}, WORD_FORMAT),
            ({"start": [1, "z"]}, WORD_FORMAT),
            ({"start": ["z", 1]}, WORD_FORMAT),
            ({"start": ["a", 0]}, WORD_FORMAT),
            ({"start": [["a"]]}, WORD_FORMAT),
            ({"start": ["z", {"a": 0}]}, WORD_FORMAT),
            ({"start": ["a", None]}, WORD_FORMAT),
            ({"left": [True]}, WORD_FORMAT),
            ({"start": ["z"]}, unknown("z")),
            ({"start": ["a", "z", "y"]}, unknown("z")),
            ({"right": ["a", "A"]}, unknown("A")),
            ({"steps": [{"rule": True, "position": 0}]}, STEP_FORMAT),
            ({"steps": [{"rule": 0, "position": True}]}, STEP_FORMAT),
            ({"steps": [{"rule": 0, "position": False}, [0, 0]]}, STEP_FORMAT),
            ({"steps": [[0, 0]]}, STEP_FORMAT),
            ({"steps": ["rule"]}, STEP_FORMAT),
            ({"steps": [None]}, STEP_FORMAT),
            ({"steps": [{"rule": 0}]}, STEP_FORMAT),
            ({"steps": [{"rule": 0.0, "position": 0}]}, STEP_FORMAT),
            ({"steps": [{"rule": "0", "position": 0}]}, STEP_FORMAT),
            ({"steps": "rule"}, STEPS_FORMAT),
            ({"steps": {"rule": 0, "position": 0}}, STEPS_FORMAT),
            ({"steps": None}, STEPS_FORMAT),
            # the fields are read in order: redex, start, steps, left, right
            ({"start": ["z"], "steps": [[0, 0]]}, unknown("z")),
            ({"steps": [[0, 0]], "left": ["z"]}, STEP_FORMAT),
            ({"left": ["z"], "right": [1]}, unknown("z")),
            ({"left": [1], "right": ["z"]}, WORD_FORMAT),
            ({"start": [1], "redex": {"rule": True, "side": "left", "offset": 0}}, REDEX_FORMAT),
        ],
    )
    def test_error_and_message(self, fields, error):
        data = {**LOOP, **fields}
        with pytest.raises(Exception) as e:
            parse_certificate(data, SYS)
        assert (type(e.value), str(e.value)) == error

    @pytest.mark.parametrize(
        "fields",
        [
            {"steps": [{"rule": 1, "position": 1, "note": "x"}, {"position": 0, "rule": 0}]},
            {"steps": []},
            {"start": [], "left": ["b", "b"]},
        ],
    )
    def test_well_formed_variants_parse(self, fields):
        data = {**LOOP, **fields}
        cert = parse_certificate(data, SYS)
        assert cert.steps == tuple(Step(s["rule"], s["position"]) for s in data["steps"])
        assert cert.start == SYS.word(data["start"])
        assert cert.left == SYS.word(data["left"])

class TestWeightSchema:
    def test_integer_and_fraction_weights(self):
        cert = WeightCertificate({"a": Fraction(2), "b": Fraction(1, 3), "c": Fraction(0)})
        data = serialize_certificate(cert, SYS)
        assert data["weights"] == {"a": 2, "b": "1/3", "c": 0}
        assert round_trip(cert) == cert

    def test_negative_weight_rejected(self):
        with pytest.raises(CertificateFormatError):
            parse_certificate({"type": "weights", "weights": {"a": -1}}, SYS)

    def test_bool_weight_rejected(self):
        with pytest.raises(CertificateFormatError):
            parse_certificate({"type": "weights", "weights": {"a": True}}, SYS)

    def test_garbage_fraction_rejected(self):
        with pytest.raises(CertificateFormatError):
            parse_certificate({"type": "weights", "weights": {"a": "x/y"}}, SYS)

    def test_weights_not_an_object_rejected(self):
        with pytest.raises(CertificateFormatError) as e:
            parse_certificate({"type": "weights", "weights": [1, 2, 3]}, SYS)
        assert str(e.value) == "weights must be an object mapping letters to values"

    def test_float_weight_rejected(self):
        with pytest.raises(CertificateFormatError) as e:
            parse_certificate({"type": "weights", "weights": {"a": 0.5}}, SYS)
        assert str(e.value) == "weight for 'a' must be int or p/q string"


class TestMatrixSchema:
    def test_natural_round_trip(self):
        cert = NaturalMatrixCertificate(
            2, {"a": ((2, 0), (0, 1)), "b": ((1, 1), (0, 1)), "c": ((1, 0), (0, 1))}
        )
        assert round_trip(cert) == cert

    def test_arctic_minus_infinity_spelled_out(self):
        cert = ArcticMatrixCertificate(2, {"a": ((0, NEG_INF), (NEG_INF, 0))})
        data = serialize_certificate(cert, SYS)
        assert data["matrices"]["a"][0][1] == "-inf"
        assert round_trip(cert) == cert

    def test_arctic_entries_are_ints_and_minus_infinity(self):
        data = {"type": "matrix-arctic", "dimension": 2,
                "matrices": {"a": [[0, "-inf"], ["-inf", -1]]}}
        parsed = parse_certificate(data, SYS).interp["a"]
        assert parsed == ((0, NEG_INF), (NEG_INF, -1))
        for m in (parsed, ARCTIC.identity(3)):
            assert all(type(x) is int or x == NEG_INF for row in m for x in row)

    @pytest.mark.parametrize("literal", ["-Infinity", "Infinity", "NaN", "null", "0.0"])
    def test_arctic_entry_that_json_reads_as_no_int_rejected(self, literal):
        # json.loads reads the bare literal -Infinity as float("-inf") itself
        text = '{"type": "matrix-arctic", "dimension": 1, "matrices": {"a": [[%s]]}}'
        with pytest.raises(CertificateFormatError):
            parse_certificate(json.loads(text % literal), SYS)

    def test_wrong_row_count_rejected(self):
        data = {"type": "matrix-natural", "dimension": 2, "matrices": {"a": [[1, 0]]}}
        with pytest.raises(CertificateFormatError):
            parse_certificate(data, SYS)

    def test_short_row_rejected(self):
        data = {"type": "matrix-natural", "dimension": 2, "matrices": {"a": [[1, 0], [1]]}}
        with pytest.raises(CertificateFormatError) as e:
            parse_certificate(data, SYS)
        assert str(e.value) == "matrix row must have 2 entries"

    def test_matrices_not_an_object_rejected(self):
        data = {"type": "matrix-arctic", "dimension": 1, "matrices": [[[0]]]}
        with pytest.raises(CertificateFormatError) as e:
            parse_certificate(data, SYS)
        assert str(e.value) == "matrices must be an object keyed by letter"

    def test_negative_natural_entry_rejected(self):
        data = {
            "type": "matrix-natural",
            "dimension": 1,
            "matrices": {"a": [[-1]]},
        }
        with pytest.raises(CertificateFormatError):
            parse_certificate(data, SYS)

    def test_bool_entry_rejected(self):
        data = {"type": "matrix-natural", "dimension": 1, "matrices": {"a": [[True]]}}
        with pytest.raises(CertificateFormatError):
            parse_certificate(data, SYS)

    def test_bad_dimension_rejected(self):
        data = {"type": "matrix-natural", "dimension": 0, "matrices": {}}
        with pytest.raises(CertificateFormatError):
            parse_certificate(data, SYS)


@pytest.mark.parametrize("field", ["dimension", "step rule", "step position",
                                   "redex rule", "redex offset"])
@pytest.mark.parametrize("flag", [True, False])
def test_bool_rejected_where_an_integer_is_due(field, flag):
    matrix = {"type": "matrix-natural", "dimension": 1, "matrices": {"a": [[2]]}}
    loop = {
        "type": "loop-emitting",
        "start": ["a"],
        "steps": [{"rule": 0, "position": 0}],
        "left": [],
        "right": ["a", "b"],
        "redex": {"rule": 0, "side": "right", "offset": 0},
    }
    data = matrix if field == "dimension" else loop
    parse_certificate(data, SYS)  # well-formed as given
    if field == "dimension":
        matrix["dimension"] = flag
    else:
        part, key = field.split()
        target = loop["steps"][0] if part == "step" else loop["redex"]
        target[key] = flag
    with pytest.raises(CertificateFormatError):
        parse_certificate(data, SYS)


class TestComposeSchema:
    def test_nested_round_trip(self):
        inner = WeightCertificate({"a": Fraction(1)})
        loop = LoopCertificate("mixed", (0, 1), (Step(0, 0),), (), ())
        cert = ComposeCertificate(
            "NO", (("s-termination", inner), ("strictified-loop", loop))
        )
        assert round_trip(cert) == cert

    def test_empty_r_round_trip(self):
        cert = ComposeCertificate("YES", (("s-termination", EmptyRCertificate()),))
        assert round_trip(cert) == cert

    def test_bad_verdict_rejected(self):
        data = {"type": "strictify-compose", "verdict": "MAYBE", "parts": []}
        with pytest.raises(CertificateFormatError):
            parse_certificate(data, SYS)

    def test_empty_parts_rejected(self):
        data = {"type": "strictify-compose", "verdict": "YES", "parts": []}
        with pytest.raises(CertificateFormatError):
            parse_certificate(data, SYS)

    def test_part_without_a_role_rejected(self):
        data = {"type": "strictify-compose", "verdict": "YES",
                "parts": [{"certificate": {"type": "empty-R"}}]}
        with pytest.raises(CertificateFormatError) as e:
            parse_certificate(data, SYS)
        assert str(e.value) == 'each part must be {"role": ..., "certificate": ...}'

    def test_composite_part_rejected(self):
        data = {"type": "weights", "weights": {"a": 1}}
        for _ in range(2):
            data = {"type": "strictify-compose", "verdict": "YES",
                    "parts": [{"role": "strictified-termination", "certificate": data}]}
        with pytest.raises(CertificateFormatError) as e:
            parse_certificate(data, SYS)
        assert str(e.value) == "a compose part must be a leaf, not a composite"


class TestEnvelope:
    def test_unknown_type_rejected(self):
        with pytest.raises(CertificateFormatError):
            parse_certificate({"type": "magic"}, SYS)

    def test_non_object_rejected(self):
        with pytest.raises(CertificateFormatError):
            parse_certificate([1, 2], SYS)

    def test_unknown_object_not_serialized(self):
        with pytest.raises(TypeError):
            serialize_certificate(object(), SYS)


RECHECK_DATA = Path(__file__).parent.parent / "perfbench" / "data"


def test_recheck_corpus_rechecks():
    """Every stored certificate of the frozen size <= 6 corpus re-checks
    with its stored verdict through the public read path, and every
    mutant appended to it is rejected."""
    manifest = json.loads((RECHECK_DATA / "recheck_manifest.json").read_text())
    blob = (RECHECK_DATA / "recheck.jsonl.gz").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == manifest["sha256"]
    lines = gzip.decompress(blob).decode().splitlines()
    assert len(lines) == manifest["records"] + manifest["mutants"]
    types, rejected = Counter(), []
    for n, line in enumerate(lines):
        record = json.loads(line)
        system = parse_system(record["system"])
        try:
            cert = parse_certificate(record["certificate"], system)
            certified = bool(relsrs.verify_certificate(cert, system)) and (
                certificate_verdict(cert) == record["verdict"]
            )
        except (CertificateFormatError, CertificateMismatchError):
            certified = False
        if n < manifest["records"]:
            assert certified, f"corpus line {n}"
            kind = record["certificate"]["type"]
            types[kind + ("/" + cert.verdict if kind == "strictify-compose" else "")] += 1
        else:
            rejected.append(not certified)
    assert types == manifest["certificate_types"]
    assert rejected == [True] * manifest["mutants"]


def _package_imports(module: str) -> set[str]:
    """The relsrs modules that src/relsrs/<module>.py imports relatively."""
    tree = ast.parse((Path(relsrs.__file__).parent / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found.update([a.name for a in node.names] if node.module is None else [node.module])
    return found


@pytest.mark.parametrize(
    "module, allowed", [("check", {"certificates", "core"}), ("certificates", {"core"})]
)
def test_trust_base_imports_no_search_code(module, allowed):
    """The checker and the certificate records are the trust base: they
    import nothing from the package but each other and `core`."""
    found = _package_imports(module)
    assert "core" in found  # the parse sees the imports at all
    assert found <= allowed
