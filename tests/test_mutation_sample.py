"""scripts/mutation_sample.py, loaded by path: its sites, its mutants and
the unparsed text it writes before it samples.  No subprocess starts."""

import ast
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "mutation_sample.py"

spec = importlib.util.spec_from_file_location("mutation_sample", SCRIPT)
ms = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ms)

SOURCE = """\
def f(a, b):
    total = a + 2
    total *= b
    if 0 < a <= b:
        return total
    return -1 if a == b else total // 3
"""


def test_sites_finds_each_op_cmp_and_int_site():
    tree = ast.parse(SOURCE)
    nodes = list(ast.walk(tree))
    got = [(kind, slot, nodes[i]) for i, kind, slot in ms.sites(tree)]
    ops = [type(n.op).__name__ for kind, _, n in got if kind == "op"]
    cmps = [type(n.ops[slot]).__name__ for kind, slot, n in got if kind == "cmp"]
    ints = [n.value for kind, _, n in got if kind == "int"]
    # a + 2, total *= b and total // 3; -1 is USub on 1, not a BinOp
    assert sorted(ops) == ["Add", "FloorDiv", "Mult"]
    assert cmps == ["Lt", "LtE", "Eq"]
    assert sorted(ints) == [0, 1, 2, 3]
    assert len(got) == 10


def differences(a: ast.AST, b: ast.AST) -> int:
    """How many nodes of two trees of one shape differ in type or constant value."""
    pairs = list(zip(ast.walk(a), ast.walk(b)))
    assert len(pairs) == len(list(ast.walk(a))) == len(list(ast.walk(b)))
    return sum(
        type(x) is not type(y) or isinstance(x, ast.Constant) and x.value != y.value
        for x, y in pairs
    )


@pytest.mark.parametrize("index", range(len(ms.sites(ast.parse(SOURCE)))))
def test_mutate_changes_exactly_one_site(index):
    site = ms.sites(ast.parse(SOURCE))[index]
    text, line, change = ms.mutate(SOURCE, site)
    assert differences(ast.parse(SOURCE), ast.parse(text)) == 1
    # SOURCE unparses to itself, so the one changed line is the reported one
    assert ast.unparse(ast.parse(SOURCE)) == SOURCE.rstrip("\n")
    lines = zip(SOURCE.splitlines(), text.splitlines())
    assert [i for i, (x, y) in enumerate(lines, 1) if x != y] == [line]
    old, new = change.split(" -> ")
    assert old != new


def test_mutate_reports_the_change():
    sites = ms.sites(ast.parse(SOURCE))
    changes = {ms.mutate(SOURCE, site)[1:] for site in sites}
    assert (2, "Add -> Sub") in changes
    assert (2, "2 -> 3") in changes
    assert (3, "Mult -> FloorDiv") in changes
    assert (4, "Lt -> LtE") in changes
    assert (4, "LtE -> Lt") in changes
    assert (6, "Eq -> NotEq") in changes


@pytest.mark.parametrize("module", sorted(ms.TESTS))
def test_unparsed_modules_compile(module):
    # the script writes this text into its copy of the tree before it samples
    source = (ROOT / ms.PACKAGE / f"{module}.py").read_text()
    compile(ast.unparse(ast.parse(source)), f"{module}.py", "exec")
    assert (ROOT / ms.TESTS[module]).is_file()
