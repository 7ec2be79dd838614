"""The references of tests/oracles.py on hand-worked systems, so that a fault
in a reference shows without any search of the package."""

import ast
from pathlib import Path

from relsrs import (
    NaturalMatrixCertificate,
    SearchReport,
    WeightCertificate,
    parse_system,
    replay,
    strict_step_count,
)
from relsrs.certificates import NATURAL

from oracles import closure_saturation, dfs_weights, first_fit, growth_witness

TESTS = Path(__file__).parent


def test_saturation_of_aba_is_its_two_families():
    # a b -> a closes under extension into a b^n -> a, with a strict step;
    # c ->= b c closes under rewriting into c -> b^n c, with none
    system = parse_system("(RULES a b -> a, c ->= b c)")
    a, b, c = (system.word(x) for x in "abc")
    assert closure_saturation(system, 12) == {
        (a + b * n, a, True) for n in range(1, 12)
    } | {(c, b * n + c, False) for n in range(1, 12)}


def test_witness_reference_on_ab_bba():
    # from a a a a b the greedy run rewrites a b -> b b a at the leftmost
    # redex until no a precedes a b: 11 strict steps > |w| * E = 5 * 2
    system = parse_system("(RULES a b -> b b a , b ->= )")
    witness, stop, nodes = growth_witness(system, 2, 10**6)
    assert system.word_str(witness.start) == "a a a a b"
    replay(witness, system)
    assert strict_step_count(witness, system) == len(witness.steps) == 11
    assert stop == "none" and nodes > 11


def test_dfs_weights_on_ab_a():
    # a moves no total, so it only takes 0.  Nodes: the empty vector, a = 0,
    # then b = 0, cut as a b -> a cannot reach 1, and b = 1, which holds
    system = parse_system("(RULES a b -> a, b ->= )")
    report = SearchReport()
    assert dfs_weights(system, 2, report=report) == WeightCertificate({"a": 0, "b": 1})
    assert (report.stop, report.nodes) == ("none", 4)
    capped = SearchReport()
    assert dfs_weights(system, 2, assignment_cap=3, report=capped) is None
    assert (capped.stop, capped.nodes) == ("cap", 4)


def test_first_fit_on_ab_b():
    # at d = 1 a letter is a number x >= 1, and a b -> b needs x(a) x(b) >
    # x(b): the first fit in product order over (a, b) is (2, 1)
    system = parse_system("(RULES a b -> b)")
    assert first_fit(system, NATURAL, 1, 2) == NaturalMatrixCertificate(
        1, {"a": ((2,),), "b": ((1,),)}
    )
    assert first_fit(system, NATURAL, 1, 1) is None


def test_no_test_module_imports_another():
    """The references the tests share live in oracles.py: no test module
    imports another, so that each runs, and moves, on its own."""
    stems = {path.stem for path in TESTS.glob("test_*.py")}
    imported = {}
    for path in sorted(TESTS.glob("test_*.py")):
        names = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names += [node.module] if node.module else [a.name for a in node.names]
        imported[path.name] = {part for name in names for part in name.split(".")}
    assert "oracles" in imported["test_oracles.py"]  # the parse sees the imports
    assert {name: parts & stems for name, parts in imported.items() if parts & stems} == {}
