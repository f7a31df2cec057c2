"""The four benchmark workloads: seeded inputs, timed job, exact output gate.

Each workload is a closed loop with one caller: the next item starts when
the previous one returns.  ``inputs`` is a pure function of the seed (the
library only ever sees the generated inputs), ``job`` is the timed part
and starts from cold library caches, and ``gate`` checks the outputs
exactly, outside the timed region.

Documented refusals (a route that has no answer for an input and says so
with its documented exception) are tallied per route and type, not
counted as failures.  Anything else that raises, any wrong or inexact
value, and any refusal inside the domain where a route is documented to
answer counts as a failed item.
"""

from __future__ import annotations

import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import binomial_moments as bm
from binomial_moments import cli, conjecture, errors

from tracer import call_timer, item_timer

REFUSALS = tuple(
    getattr(errors, name)
    for name in ("NoClosedFormKnown", "PreconditionViolated", "GuardViolated", "NotTabulated")
    if hasattr(errors, name)
)
METHODS = ("oracle", "theorem", "corollary")


@dataclass(frozen=True)
class Refused:
    """A documented refusal, kept as its exception type name."""

    kind: str


@dataclass(frozen=True)
class Raised:
    """An undocumented exception: always a failed item."""

    text: str


@dataclass
class Gate:
    attempted: int
    failed: int
    refusals: Counter


def _call(fn, *args):
    """Run one route; an exception becomes a Refused or Raised outcome."""
    try:
        return fn(*args)
    except REFUSALS as exc:
        return Refused(type(exc).__name__)
    except Exception as exc:  # a benchmark must record, not die on, a broken route
        return Raised(f"{type(exc).__name__}: {exc}")


def _exact(v) -> bool:
    return type(v) in (Fraction, int)


def _theorem_refusal(family: str, m: int, n: int):
    """The refusal ``closed_form`` documents for (family, m, n), or None.

    Even D has no closed form; even-power forms need m >= 2; odd C needs
    n > t + 1 where m = 2t + 1.
    """
    if m % 2 == 0:
        if family == "D":
            return "NoClosedFormKnown"
        return "PreconditionViolated" if m == 0 else None
    if family == "C" and n <= (m - 1) // 2 + 1:
        return "PreconditionViolated"
    return None


# The printed-formula table at this commit: (family, m) -> the least n its
# guard admits.  The corollary route may refuse only outside it, with
# NotTabulated for a missing entry and GuardViolated below min_n; a refusal
# anywhere else means its coverage shrank.  An answer where the table has
# no entry is new coverage and is checked against the oracle like any other.
COROLLARY_MIN_N = {
    **{("A", m): 1 for m in range(11)},
    **{("B", m): 1 for m in (0, 1, 2, 3, 5, 7, 9)},
    **{("B", m): m // 2 + 1 for m in range(4, 17, 2)},
    **{("C", m): 1 if m % 2 == 0 else (m + 3) // 2 for m in range(11)},
    **{("D", m): 1 for m in range(1, 10, 2)},
}


def _corollary_refusal(family: str, m: int, n: int):
    """The refusal ``corollary_value`` may give for (family, m, n), or None."""
    min_n = COROLLARY_MIN_N.get((family, m))
    if min_n is None:
        return "NotTabulated"
    return "GuardViolated" if n < min_n else None


def _tally(refusals: Counter, route: str, out) -> None:
    if isinstance(out, Refused):
        refusals[f"{route}.{out.kind}"] += 1


# ---------------------------------------------------------------------------
# sweep: the `moments table` traffic, every cell new.
# ---------------------------------------------------------------------------


class Sweep:
    M_MAX, N_MAX, BAND = 16, 60, 6

    def inputs(self, seed: int, tiny: bool = False):
        """A third of the grid A-D x m <= M_MAX x n <= N_MAX, in seeded order.

        For each family and m, every band of BAND consecutive n contributes
        one mirrored pair lo + o, lo + BAND - 1 - o with a seeded offset o.
        A cell's cost grows steeply with n, so drawing pairs whose mean n is
        the band's centre keeps every seed's sample about equally costly.
        """
        rng = random.Random(seed)
        m_max, n_max = (3, 12) if tiny else (self.M_MAX, self.N_MAX)
        cells = []
        for family in "ABCD":
            for m in range(m_max + 1):
                for lo in range(1, n_max + 1, self.BAND):
                    o = rng.randrange(self.BAND // 2)
                    cells += [(family, m, lo + o), (family, m, lo + self.BAND - 1 - o)]
        rng.shuffle(cells)
        return cells

    def job(self, cells, probe, items, clock):
        probe.assert_cold()
        evaluate, MomentQuery = bm.evaluate, bm.MomentQuery
        out = []
        for family, m, n in cells:
            t0 = clock()
            q = MomentQuery(family, m, n)
            out.append(tuple(_call(evaluate, q, meth) for meth in METHODS))
            items.append(clock() - t0)
        return out

    def canon(self, cells, out):
        return out

    def gate(self, cells, out) -> Gate:
        failed, refusals = 0, Counter()
        for (family, m, n), outs in zip(cells, out):
            answered = []
            for meth, o in zip(METHODS, outs):
                _tally(refusals, meth, o)
                if not isinstance(o, (Refused, Raised)):
                    answered.append(o.method == meth and _exact(o.value))
            oracle_r, theorem_r, corollary_r = outs
            expected_refusal = _theorem_refusal(family, m, n)
            ok = (
                all(answered)
                and not isinstance(oracle_r, (Refused, Raised))
                and not isinstance(corollary_r, Raised)
                and (
                    not isinstance(corollary_r, Refused)
                    or corollary_r == Refused(_corollary_refusal(family, m, n))
                )
                and all(
                    o.value == oracle_r.value
                    for o in (theorem_r, corollary_r)
                    if not isinstance(o, (Refused, Raised))
                )
                and (
                    theorem_r == Refused(expected_refusal)
                    if expected_refusal
                    else not isinstance(theorem_r, (Refused, Raised))
                )
            )
            failed += not ok
        return Gate(len(cells), failed, refusals)


# ---------------------------------------------------------------------------
# deep: few queries at large n, each paying a cold cache like one CLI call.
# ---------------------------------------------------------------------------


def reference_sum(family: str, m: int, n: int) -> Fraction:
    """The defining sum through integer math.comb only.

    For 0 <= K <= N the half-integer bracket is [N, K] = C(2N, 2K) / C(N, K).
    """
    total = Fraction(0)
    for k in range(1, n + 1):
        if family in "AB":
            w = Fraction(math.comb(2 * n, n - k))
        else:
            w = Fraction(math.comb(4 * n, 2 * (n - k)), math.comb(2 * n, n - k))
        term = w * k**m
        total += -term if family in "BC" and k % 2 == 0 else term
    return total


class Deep:
    # (family, exponents to draw from, n range); C and D cost ~n^2 in the
    # cold bracket fill, so their n band is narrow to keep seeds comparable.
    PLAN = (
        ("A", range(2, 13), range(645, 656)),
        ("B", range(1, 12, 2), range(645, 656)),
        ("C", range(1, 9), range(200, 211)),
        ("D", range(1, 10, 2), range(200, 211)),
        ("D", range(2, 11, 2), range(200, 211)),
    )

    def inputs(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        queries = []
        for family, ms, ns in self.PLAN:
            n = rng.choice(ns)
            queries.append((family, rng.choice(ms), n // 20 if tiny else n))
        rng.shuffle(queries)
        return queries

    def job(self, queries, probe, items, clock):
        """Items are the calls ``moments`` makes into the exact, series and
        sigma layers (about 1960 per job, none over ~5 ms)."""
        probe.assert_cold()
        oracle, closed_form, MomentQuery = bm.oracle, bm.closed_form, bm.MomentQuery
        out = []
        with call_timer("moments", items):
            for family, m, n in queries:
                probe.cold()
                q = MomentQuery(family, m, n)
                out.append((_call(oracle, q), _call(lambda q: closed_form(q).value, q)))
        return out

    def canon(self, queries, out):
        return out

    def gate(self, queries, out) -> Gate:
        failed, refusals = 0, Counter()
        for (family, m, n), (oracle_v, theorem_v) in zip(queries, out):
            _tally(refusals, "oracle", oracle_v)
            _tally(refusals, "theorem", theorem_v)
            expected_refusal = _theorem_refusal(family, m, n)
            ok = _exact(oracle_v) and oracle_v == reference_sum(family, m, n)
            if expected_refusal:
                ok = ok and theorem_v == Refused(expected_refusal)
            else:
                ok = ok and _exact(theorem_v) and theorem_v == oracle_v
            failed += not ok
        return Gate(len(queries), failed, refusals)


# ---------------------------------------------------------------------------
# verify: the flagship suite through the CLI entry point, in process.
# ---------------------------------------------------------------------------


class Verify:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.reps = 0

    def inputs(self, seed: int, tiny: bool = False):
        m_max, n_max = (2, 5) if tiny else (8, 30)
        return ["verify", "--m-max", str(m_max), "--n-max", str(n_max), "--seed", str(seed)]

    def job(self, argv, probe, items, clock):
        """Items are the calls the checks make into the other layers (about
        18500 per job, ~90% of its time), not the 17 checks themselves:
        a check takes up to ~0.9 s, too long for its floor to be steady."""
        probe.assert_cold()
        self.reps += 1
        path = os.path.join(self.workdir, f"verify-{os.getpid()}-{self.reps}.json")
        with call_timer("verify", items):
            rc = _call(cli.main, argv + ["--out", path])
        return rc, path

    def canon(self, argv, out):
        """(exit code, parsed report) per rep; the report file is removed."""
        rc, path = out
        try:
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            report = None
        finally:
            if os.path.exists(path):
                os.remove(path)
        checks = report["checks"] if report else []
        return [("exit", rc, report is not None and report.get("all_pass"))] + checks

    def gate(self, argv, out) -> Gate:
        (_, rc, all_pass), checks = out[0], out[1:]
        failed = sum(c.get("status") != "pass" for c in checks)
        if rc != 0 or all_pass is not True or not checks:
            failed = max(failed, 1)
        return Gate(max(len(checks), 1), failed, Counter())


# ---------------------------------------------------------------------------
# discover: the exact ansatz fitter, oracle cache reused across shapes.
# ---------------------------------------------------------------------------


class Discover:
    # One half exponent from each group, in seeded order: the search costs
    # a little more for larger exponents, so every seed gets one of each.
    GROUPS = ((0, 1), (2, 3))

    def inputs(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        ms = [rng.choice(group) for group in self.GROUPS]
        rng.shuffle(ms)
        if tiny:
            return ms[:1], conjecture.SearchConfig(max_degree=2, max_roots=1)
        return ms, conjecture.SearchConfig(max_degree=6, max_roots=3)

    def job(self, inp, probe, items, clock):
        probe.assert_cold()
        ms, config = inp
        with item_timer("conjecture", ["fit"], items):
            found = [_call(conjecture.explore_D_even, m, config) for m in ms]
            report = _call(conjecture.rediscover_all)
        return found, report

    def canon(self, inp, out):
        """(half exponent, candidate) pairs, then (None, rediscovery entry)."""
        found, report = out
        recs = []
        for m, cands in zip(inp[0], found):
            recs += [(m, cands)] if isinstance(cands, Raised) else [(m, c) for c in cands]
        entries = [report] if isinstance(report, Raised) else report.entries
        return recs + [(None, e) for e in entries]

    def gate(self, inp, out) -> Gate:
        ms, config = inp
        shapes = len(conjecture.search_catalogue(config))
        printed = len(conjecture.printed_forms())
        failed, refusals = 0, Counter()
        for m in ms:
            cands = [c for key, c in out if key == m]
            if any(isinstance(c, Raised) for c in cands):
                failed += shapes
                continue
            # At this commit explore_D_even skips no shape as singular, for
            # every half exponent 0..3 at both search configs used here, so
            # each skipped shape is tallied and also counted as failed.
            refusals["fit.skipped_singular"] += shapes - len(cands)
            failed += shapes - len(cands)
            failed += sum(not _candidate_honest(c, 2 * m) for c in cands)
        entries = [e for key, e in out if key is None]
        if any(isinstance(e, Raised) for e in entries):
            failed += printed
        else:
            failed += sum(not e.ok for e in entries) + abs(printed - len(entries))
        return Gate(shapes * len(ms) + printed, failed, refusals)


def _candidate_honest(c, power: int) -> bool:
    """Re-check a candidate's status against the oracle on its own points."""
    def matches(n):
        return c.value_at(n) == bm.oracle(bm.MomentQuery("D", power, n))

    if c.family != "D" or c.power != power or not all(matches(n) for n in c.fitted_on):
        return False
    if c.status == "underdetermined":
        return not c.verified_on
    if c.status == "verified":
        return bool(c.verified_on) and all(matches(n) for n in c.verified_on)
    if c.status == "refuted":
        before = [n for n in c.verified_on if n < c.first_mismatch]
        return (
            c.first_mismatch in c.verified_on
            and not matches(c.first_mismatch)
            and all(matches(n) for n in before)
        )
    return False


def make(name: str, workdir: str):
    if name == "verify":
        return Verify(workdir)
    return {"sweep": Sweep, "deep": Deep, "discover": Discover}[name]()
