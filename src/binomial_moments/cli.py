"""Command line surface: evaluate, verify, discover, tabulate.

A thin layer over the library: ``moments`` says what the formulas are
(including the printed-formula table and its LaTeX), ``conjecture`` fits
them, ``verify`` checks them; this module parses arguments, validates
them and renders the results.  ``table``'s value grid and printed-formula
table go through one renderer, ``_render``: each table states only its
json records and, per text format, a header and a line to fill from one
row; the renderer adds the markdown separator and the latex frame, one
tabular per family.

Exit codes are stable: 0 success, 1 verification mismatch, 2 usage
error (including an unwritable ``--out`` or a stdout closed by its
reader), 3 no closed form known.
Results go to stdout (or ``--out``), diagnostics to stderr.  Every
number printed is an exact rational string ``p/q`` (``q`` omitted when
1).  Output is always sorted by (family, m, n) and identical for
identical config and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from typing import Optional, Sequence

from .conjecture import RediscoveryEntry, SearchConfig, _explore, fit
from .errors import MomentsError, NoClosedFormKnown
from .moments import (
    COROLLARIES,
    FAMILIES,
    METHODS,
    EvalResult,
    MomentQuery,
    evaluate,
    family_ansatz,
)
from .verify import VerifyConfig, run_verification

FORMATS = ("json", "csv", "latex", "markdown")


def _parse_subset(what: str, names: list[str], universe: tuple[str, ...]) -> tuple[str, ...]:
    """The members of ``universe`` that ``names`` lists, in ``universe``'s order."""
    unknown = set(names) - set(universe)
    if unknown:
        raise MomentsError(f"unknown {what}: {sorted(unknown)}")
    subset = tuple(u for u in universe if u in names)
    if not subset:
        raise MomentsError(f"{what} must be a nonempty subset of {universe}")
    return subset


def _parse_families(text: str) -> tuple[str, ...]:
    """``--families`` is one letter per family; commas and blanks by them are ignored."""
    letters = [f for chunk in text.upper().split(",") for f in chunk.strip()]
    return _parse_subset("families", letters, FAMILIES)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
        except OSError as exc:
            raise MomentsError(f"cannot write {out}: {exc.strerror or exc}") from None
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # The reader has gone (``moments table | head``).  What is still
            # buffered would fail again in the interpreter's last flush, so
            # the broken descriptor, and only it, is pointed at devnull: the
            # signal module's note on SIGPIPE.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise MomentsError("stdout was closed before the output was written") from None


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    q = MomentQuery(args.family.upper(), args.m, args.n)
    res: EvalResult = evaluate(q, args.method)
    print(f"method={res.method}", file=sys.stderr)
    if res.validity_note:
        print(f"note={res.validity_note}", file=sys.stderr)
    _emit(str(res.value), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    config = VerifyConfig(_parse_families(args.families), args.m_max, args.n_max, args.seed)
    report = run_verification(config)
    _emit(json.dumps(report.to_dict(), indent=2), args.out)
    if not report.all_pass:
        first = report.first_failure()
        print(f"FAIL {first.name}: {first.witness}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# discover
# ---------------------------------------------------------------------------


def cmd_discover(args: argparse.Namespace) -> int:
    family = args.family.upper()
    parity = args.parity.lower()
    if family not in FAMILIES or parity not in ("even", "odd") or args.m < 0:
        raise MomentsError("discover needs FAMILY in A-D, PARITY even|odd, M >= 0")
    t = args.m
    power = 2 * t if parity == "even" else 2 * t + 1
    # The search flags are in args only when given (argparse.SUPPRESS).
    bounds = {k: v for k, v in vars(args).items() if k in ("max_degree", "max_roots")}

    if family == "D" and parity == "even":
        config = SearchConfig(**bounds)
        attempted, candidates = _explore(t, config)
        verified = [c for c in candidates if c.status == "verified"]
        payload = {
            "family": family,
            "power": power,
            "mode": "open-case-search",
            "attempted": attempted,
            "skipped_singular": attempted - len(candidates),
            "verified_count": len(verified),
            "candidates": [c.to_dict() for c in candidates],
        }
        _emit(json.dumps(payload, indent=2), args.out)
        return 0

    if bounds:
        raise MomentsError("--max-degree and --max-roots bound only discover D even")
    printed = COROLLARIES.get((family, power))
    ansatz = printed.ansatz if printed else family_ansatz(family, parity, t)
    candidate = fit(family, power, ansatz)
    payload = {
        "family": family,
        "power": power,
        "mode": "closed-form-fit",
        "candidate": candidate.to_dict(),
        "expected": [str(c) for c in printed.expected] if printed else None,
        "matches_printed": RediscoveryEntry(printed, candidate).ok if printed else None,
        "note": printed.region_note if printed else None,
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def _value_records(
    families: tuple[str, ...], methods: tuple[str, ...], m_max: int, n_max: int
) -> list[dict]:
    """One record per requested method for each cell where every requested
    method is defined; the exact values necessarily agree."""
    records = []
    for family in families:
        for m in range(0, m_max + 1):
            for n in range(1, n_max + 1):
                q = MomentQuery(family, m, n)
                try:
                    results = [evaluate(q, method) for method in methods]
                except MomentsError:
                    continue
                if len({r.value for r in results}) != 1:  # only if an evaluator is broken
                    raise MomentsError(f"methods disagree at {family} m={m} n={n}")
                records += [
                    {
                        "family": family,
                        "m": m,
                        "n": n,
                        "method": r.method,
                        "value": str(r.value),
                        "note": r.validity_note,
                    }
                    for r in results
                ]
    return records


# Each table's text layout: per format, a header and a line filled from one
# row; latex's header comes after the tabular's column spec.
_VALUE_LAYOUT = {
    "csv": ("family,m,n,value", "{family},{m},{n},{value}"),
    "markdown": ("| family | m | n | value |", "| {family} | {m} | {n} | {value} |"),
    "latex": ("rrr", "$m$ & $n$ & value", "{m} & {n} & ${value}$"),
}
_FORMULA_LAYOUT = {
    "csv": ("family,m,min_n,formula", '{family},{m},{min_n},"{formula}"'),
    "markdown": ("| family | m | min n | formula |", "| {family} | {m} | {min_n} | `{formula}` |"),
    "latex": ("rrl", "$m$ & guard & formula", "{m} & {guard} & ${formula}$"),
}


def _render(
    fmt: str, families: tuple[str, ...], records: list[dict], rows: list[dict], layout: dict
) -> str:
    """json dumps ``records``; csv, markdown and latex fill ``layout[fmt]``
    from each of ``rows``, latex with one tabular per family that has rows."""
    if fmt == "json":
        return json.dumps(records, indent=2)
    *head, line = layout[fmt]
    if fmt != "latex":
        if fmt == "markdown":
            head.append("|" + " --- |" * (head[0].count("|") - 1))
        return "\n".join(head + [line.format(**r) for r in rows])
    spec, header = head
    blocks = []
    for family in families:
        body = [line.format(**r) + r" \\" for r in rows if r["family"] == family]
        if body:
            frame = [f"% family {family}", rf"\begin{{tabular}}{{{spec}}}", header + r" \\ \hline"]
            blocks.append("\n".join(frame + body + [r"\end{tabular}"]))
    return "\n\n".join(blocks)


def cmd_table(args: argparse.Namespace) -> int:
    families = _parse_families(args.families)
    listed = [p.strip() for p in args.methods.split(",") if p.strip()]
    methods = _parse_subset("methods", listed, METHODS)
    if args.m_max < 0 or args.n_max < 1:
        raise MomentsError(f"require m_max >= 0 and n_max >= 1, got {args.m_max}, {args.n_max}")
    if args.corollaries:
        records = [
            {"family": family, "m": m, "min_n": e.min_n, "formula": e.latex()}
            for (family, m), e in sorted(COROLLARIES.items())
            if family in families and m <= args.m_max
        ]
        rows = [
            dict(r, guard=f"$n \\ge {r['min_n']}$" if r["min_n"] > 1 else "--")
            for r in records
        ]
        layout = _FORMULA_LAYOUT
    else:
        records = _value_records(families, methods, args.m_max, args.n_max)
        rows = [r for r in records if r["method"] == methods[0]]
        layout = _VALUE_LAYOUT
    _emit(_render(args.format, families, records, rows, layout), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moments",
        description="Exact evaluation and verification of binomial moment sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one moment exactly")
    p_eval.add_argument("family", help="A, B, C or D")
    p_eval.add_argument("m", type=int, help="full power exponent, >= 0")
    p_eval.add_argument("n", type=int, help="size parameter, >= 1")
    p_eval.add_argument(
        "method", nargs="?", default="oracle", choices=METHODS, help="evaluation route"
    )
    p_eval.add_argument("--out", help="write the value to this file instead of stdout")
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run the exact invariant suite")
    p_verify.add_argument("--families", default=",".join(VerifyConfig.families))
    p_verify.add_argument("--m-max", type=int, default=VerifyConfig.m_max)
    p_verify.add_argument("--n-max", type=int, default=VerifyConfig.n_max)
    p_verify.add_argument("--seed", type=int, default=VerifyConfig.seed)
    p_verify.add_argument("--out", help="write the JSON report to this file")
    p_verify.set_defaults(func=cmd_verify)

    p_disc = sub.add_parser("discover", help="fit closed-form candidates from oracle data")
    p_disc.add_argument("family", help="A, B, C or D")
    p_disc.add_argument("parity", help="even or odd")
    p_disc.add_argument("m", type=int, help="half exponent: power is 2m (even) or 2m+1 (odd)")
    for flag in ("--max-degree", "--max-roots"):
        p_disc.add_argument(flag, type=int, default=argparse.SUPPRESS, help="D even only")
    p_disc.add_argument("--out", help="write the JSON report to this file")
    p_disc.set_defaults(func=cmd_discover)

    p_table = sub.add_parser("table", help="value grids or the printed-formula table")
    p_table.add_argument("--families", default=",".join(FAMILIES))
    p_table.add_argument("--m-max", type=int, default=8)
    p_table.add_argument("--n-max", type=int, default=30)
    p_table.add_argument("--methods", default=",".join(METHODS))
    p_table.add_argument("--format", default="csv", choices=FORMATS)
    p_table.add_argument(
        "--corollaries", action="store_true", help="emit the printed-formula table"
    )
    p_table.add_argument("--out", help="write the table to this file")
    p_table.set_defaults(func=cmd_table)

    return parser


@contextmanager
def _full_int_printing():
    """Lift the interpreter's limit on int -> str digits (4300 by default
    since Python 3.11 and 3.10.7) for one command, so that an exact value
    prints in full however large n is, and restore it afterwards."""
    old = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old is None:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with _full_int_printing():
            return args.func(args)
    except NoClosedFormKnown as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MomentsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
