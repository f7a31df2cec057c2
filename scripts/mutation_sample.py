"""Mutation sample: how many small faults a module's own tests catch.

Each mutant changes one thing in one module of ``src/binomial_moments``:
a binary, augmented-assignment or comparison operator is swapped for a
near one (+ and -, * and //, < and <=, == and !=, ...), or an int
constant is moved up by one.  A fixed seed draws the sample from all such
sites of the module, so a run repeats exactly.  Every mutant is written,
through ``ast.unparse``, into a copy of ``src`` and ``tests`` in a
temporary directory, and the module's test file from ``TESTS`` runs
against it with ``pytest -x``; hypothesis runs derandomized and does
not shrink.  A mutant the
tests pass survives and is printed as ``file:line: change``; a run that
fails or times out kills it.  Before sampling, the unmutated module,
written the same way, must pass its tests.

Usage:
    python scripts/mutation_sample.py [MODULE ...]

It samples ``MUTANTS`` sites of each module; with no module every module
in ``TESTS`` is sampled.  It prints one ``killed K of N`` line per module
and exits 0 whatever survives: deciding whether a survivor is equivalent
is left to the reader.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "binomial_moments"
SEED = 2025
MUTANTS = 40

# Each module and the test file that is its own; verify and cli share the
# CLI tests, which run the verify checks through ``moments verify``.
TESTS = {
    "exact": "tests/test_exact.py",
    "series": "tests/test_series.py",
    "sigma": "tests/test_sigma.py",
    "moments": "tests/test_moments.py",
    "conjecture": "tests/test_conjecture.py",
    "verify": "tests/test_cli.py",
    "cli": "tests/test_cli.py",
}

SWAPS = {
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
    ast.Mult: ast.FloorDiv,
    ast.FloorDiv: ast.Mult,
    ast.Div: ast.Mult,
    ast.Mod: ast.FloorDiv,
    ast.Pow: ast.Mult,
    ast.LShift: ast.RShift,
    ast.RShift: ast.LShift,
    ast.BitAnd: ast.BitOr,
    ast.BitOr: ast.BitAnd,
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
}


# Hypothesis draws the same examples in every run and does not shrink a
# failure: the first failing example already kills the mutant.
CONFTEST = """\
from hypothesis import Phase, settings

settings.register_profile(
    "mutation", derandomize=True, phases=[Phase.explicit, Phase.reuse, Phase.generate]
)
settings.load_profile("mutation")
"""


def sites(tree: ast.AST) -> list[tuple[int, str, int]]:
    """Every mutation site as (node index in ``ast.walk`` order, kind, slot):
    kind "op" (slot 0) for a BinOp or AugAssign operator, "cmp" (slot i)
    for the i-th operator of a Compare, "int" (slot 0) for an int constant."""
    out = []
    for i, node in enumerate(ast.walk(tree)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            out.append((i, "op", 0))
        elif isinstance(node, ast.Compare):
            out += [(i, "cmp", j) for j, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            out.append((i, "int", 0))
    return out


def mutate(source: str, site: tuple[int, str, int]) -> tuple[str, int, str]:
    """The module source with one site changed: (new source, line, change)."""
    tree = ast.parse(source)
    index, kind, slot = site
    node = next(n for i, n in enumerate(ast.walk(tree)) if i == index)
    if kind == "int":
        change = f"{node.value} -> {node.value + 1}"
        node.value += 1
    else:
        old = type(node.op) if kind == "op" else type(node.ops[slot])
        change = f"{old.__name__} -> {SWAPS[old].__name__}"
        if kind == "op":
            node.op = SWAPS[old]()
        else:
            node.ops[slot] = SWAPS[old]()
    return ast.unparse(tree), node.lineno, change


def run_tests(work: Path, test_file: str, timeout: float) -> bool:
    """True when the test file passes against the package under ``work``."""
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", test_file,
    ]
    try:
        done = subprocess.run(
            cmd, cwd=work, env=env, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def sample_module(module: str, work: Path) -> None:
    """Run ``MUTANTS`` sampled mutants of one module and print the survivors."""
    rel = PACKAGE / f"{module}.py"
    target = work / rel
    source = (ROOT / rel).read_text()
    plain = ast.unparse(ast.parse(source))
    target.write_text(plain)
    start = time.perf_counter()
    if not run_tests(work, TESTS[module], timeout=600):
        sys.exit(f"{module}: the unmutated module fails {TESTS[module]}; nothing sampled")
    timeout = max(60.0, 5 * (time.perf_counter() - start))

    candidates = sites(ast.parse(source))
    chosen = random.Random(f"{SEED}:{module}").sample(candidates, min(MUTANTS, len(candidates)))
    mutants = sorted((mutate(source, site) for site in chosen), key=lambda m: m[1])
    killed = 0
    for text, line, change in mutants:
        target.write_text(text)
        if run_tests(work, TESTS[module], timeout):
            print(f"{rel}:{line}: survived: {change}", flush=True)
        else:
            killed += 1
    target.write_text(source)
    print(f"{module}: killed {killed} of {len(mutants)} against {TESTS[module]}", flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", metavar="MODULE", help=", ".join(TESTS))
    args = parser.parse_args(argv)
    unknown = [m for m in args.modules if m not in TESTS]
    if unknown:
        parser.error(f"unknown modules {unknown}; choose from {', '.join(TESTS)}")
    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__")
        shutil.copytree(ROOT / "src", work / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", work)
        (work / "conftest.py").write_text(CONFTEST)
        for module in args.modules or list(TESTS):
            sample_module(module, work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
