"""Certificate values, trivial verdicts, and the JSON schema round-trip."""

import ast
import json
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


class TestEnvelope:
    def test_unknown_type_rejected(self):
        with pytest.raises(CertificateFormatError):
            parse_certificate({"type": "magic"}, SYS)

    def test_non_object_rejected(self):
        with pytest.raises(CertificateFormatError):
            parse_certificate([1, 2], SYS)


def _package_imports(module: str) -> set[str]:
    """The relsrs modules that src/relsrs/<module>.py imports from."""
    tree = ast.parse((Path(relsrs.__file__).parent / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative to the package
                base = f"relsrs.{base}".rstrip(".")
            # `from . import x` and `from relsrs import x` name the module x
            names = [f"{base}.{a.name}" for a in node.names] if base == "relsrs" else [base]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "relsrs":
                found.add(parts[1] if len(parts) > 1 else name)
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
