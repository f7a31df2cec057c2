"""Run every workload untraced and traced, and report both levels.

    python3 perfbench/report.py --seed 1

For each workload this runs ``run.py --trace 0`` and ``run.py --trace 1``
one after the other, each for the ``run_seconds`` of ``BENCHMARK.json``,
prints every end-to-end metric by name and unit (plus ``fail_frac`` from
the result's ``failed``/``attempted``), and writes ``perfbench/results/report.md``: per-layer self time and call
counts, each layer's share of the traced ``wall_s``, and the tracing
overhead (traced minus untraced ``wall_s``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, RESULTS, ROOT, WORKLOADS, load_spec
from tracer import LAYERS


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result object of one run, plus its refusal tally line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["refusals"] = next(ln for ln in lines if ln.startswith("refusals per rep:"))
    return result


def workload_section(workload: str, seed: int, plain: dict, traced: dict) -> list[str]:
    with open(RESULTS / f"{workload}-seed{seed}.trace.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    wall = plain["metrics"]["wall_s"]["value"]
    traced_wall = summary["traced_wall_s"]
    # Self times are medians over the traced jobs, so shares are taken of
    # the median traced job, not of the wall_s estimate.
    median_job = summary["traced_median_rep_s"]
    lines = [
        f"## {workload}",
        "",
        "| end-to-end metric | value | unit |",
        "| --- | ---: | --- |",
    ]
    for name, m in plain["metrics"].items():
        lines.append(f"| {name} | {m['value']:.6g} | {m['unit']} |")
    lines.append(f"| fail_frac | {plain['failed'] / plain['attempted']:.6g} | ratio |")
    lines += [
        "",
        f"Documented {plain['refusals']}",
        "",
        f"Tracing overhead: traced wall_s {traced_wall:.4g} s - untraced {wall:.4g} s "
        f"= {traced_wall - wall:+.4g} s ({traced_wall / wall - 1:+.1%}); "
        f"{summary['spans']} spans over {summary['reps']} traced repetitions.",
        "",
        "| layer | self_s | share of the median traced job | calls |",
        "| --- | ---: | ---: | ---: |",
    ]
    funcs = summary["functions"]
    covered = 0.0
    for layer in LAYERS:
        rows = [f for name, f in funcs.items() if name.startswith(layer + ".")]
        self_s = sum(f["self_s"] for f in rows)
        covered += self_s
        calls = sum(f["calls"] for f in rows)
        lines.append(f"| {layer} | {self_s:.4g} | {self_s / median_job:.1%} | {calls:.0f} |")
    # Per-function medians need not add up to the median job, so the rest
    # can come out slightly negative when the benchmark loop is negligible.
    rest = median_job - covered
    lines.append(f"| (rest: benchmark loop, outside any span) | {rest:.4g} | {rest / median_job:.1%} | |")
    lines += ["", "| function | calls | self_s | share |", "| --- | ---: | ---: | ---: |"]
    top = sorted(funcs.items(), key=lambda kv: -kv[1]["self_s"])[:8]
    for name, f in top:
        lines.append(
            f"| {name} | {f['calls']:.0f} | {f['self_s']:.4g} | {f['self_s'] / median_job:.1%} |"
        )
    caches = {k: v for k, v in traced["metrics"].items() if k.endswith(("hit_ratio", "cache_size"))}
    lines += ["", "Caches: " + ", ".join(f"{k} = {v['value']:.4g}" for k, v in caches.items()), ""]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = load_spec()["run_seconds"]
    lines = [f"# Benchmark report (seed {args.seed}, {seconds} s per run)", ""]
    for workload in WORKLOADS:
        plain = run_once(workload, args.seed, seconds, 0)
        traced = run_once(workload, args.seed, seconds, 1)
        for name, m in plain["metrics"].items():
            print(f"{workload:<9} {name:<12} {m['value']:>12.6g} {m['unit']}")
        print(f"{workload:<9} {'fail_frac':<12} {plain['failed'] / plain['attempted']:>12.6g} ratio")
        lines += workload_section(workload, args.seed, plain, traced)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "report.md").write_text("\n".join(lines), encoding="utf-8")
    print(f"per-layer report: {RESULTS / 'report.md'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
