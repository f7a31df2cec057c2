"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` there, never from an installed copy, and the command fails
(exit 2, no result) when that source is missing.  The metric names and
units come from ``BENCHMARK.json`` at the same root.

``--trace 0`` measures the end-to-end metrics.  Set-up is timed in fresh
interpreters; then the workload's job runs in this process, one
repetition after another from cold library caches, for about
``--seconds`` (at least once).  Timings are per-item floors over the
repetitions, scaled to a reference machine speed by interleaved
calibrations (see ``ItemFloors`` and ``speed_scale``).  ``--trace 1``
runs the same repetitions with every public library function wrapped in
a span and reports the per-layer metrics instead; the spans and a
summary go to ``perfbench/results/``.  Outputs are checked exactly in
both modes, outside the timed region.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("sweep", "deep", "verify", "discover")
SETUP_SAMPLES = 21
CALIBRATION_UNITS = 50
# Sum of the unit floors of one calibration on the reference box at full
# speed (a 2-core shared KVM guest, Python 3.11.7): reported times are
# seconds at that speed.
CALIBRATION_REFERENCE_S = 0.050

# Timed inside a fresh interpreter: importing the package and the
# submodules the CLI needs, which builds the printed-formula tables.
SETUP_CODE = """
import sys, time
src = sys.argv[1]
sys.path.insert(0, src)
t0 = time.perf_counter()
import binomial_moments, binomial_moments.verify, binomial_moments.conjecture, binomial_moments.cli
elapsed = time.perf_counter() - t0
if not binomial_moments.__file__.startswith(src):
    sys.exit("imported a copy outside " + src)
print(repr(elapsed))
"""


def calibration_unit() -> float:
    """Seconds for a fixed bit of stdlib ``Fraction`` arithmetic (~1 ms).

    The unit never touches the library, so its time tracks only how fast
    the box runs this kind of code at that moment.
    """
    t0 = time.perf_counter()
    term = Fraction(1)
    for k in range(1, 80):
        term *= Fraction(2 * k - 1, 2 * k)
    total = Fraction(0)
    for k in range(1, 400):
        total += Fraction(k % 7 - 3, k % 11 + 1)
    return time.perf_counter() - t0


def calibrate() -> list[float]:
    """One calibration: the times of CALIBRATION_UNITS units in a row."""
    return [calibration_unit() for _ in range(CALIBRATION_UNITS)]


def speed_scale(calibrations, stat) -> float:
    """CALIBRATION_REFERENCE_S over the calibrations' estimated time.

    Unit j of every calibration is one more sample of the same work, taken
    at another moment, exactly like item j of every job; ``stat`` (the same
    statistic the measurement uses across repetitions) reduces each unit's
    samples, and the results are summed.  Dividing by this estimate cancels
    a slowdown that held for a whole run.
    """
    return CALIBRATION_REFERENCE_S / sum(stat(unit) for unit in zip(*calibrations))


def measure_setup(samples: int) -> float:
    """Median import time over fresh interpreters, at reference speed."""

    def import_time() -> float:
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        return float(proc.stdout.strip().splitlines()[-1])

    import_time()  # writes the bytecode, so every timed import reads it
    times, calibrations = [], []
    for _ in range(samples):
        calibrations.append(calibrate())
        times.append(import_time())
    return statistics.median(times) * speed_scale(calibrations, statistics.median)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


class ItemFloors:
    """Each item's least time over the repetitions, and the least time of
    the rest of the job (its time outside items).

    Every repetition runs the same deterministic items in the same order,
    so an item's times differ only by noise.  On a shared box that noise
    only adds time: the box flips between full speed and about 1.85x
    slower, in spells from milliseconds to seconds that cover 20% to over
    95% of the time.
    An item's least time over the repetitions is its cost at full speed,
    provided one repetition ran it in a fast spell.  Job-level medians, by
    contrast, move with whatever share of slow spells a run happens to hit.
    Repetitions are folded in one at a time into flat arrays, so the
    harness's own memory in ``peak_rss_mb`` does not grow with their number.
    """

    def __init__(self):
        self.items = None
        self.rest = math.inf

    def add(self, wall: float, rep_items) -> None:
        if self.items is None:
            self.items = array("d", rep_items)
        else:
            self.items = array("d", map(min, self.items, rep_items))
        self.rest = min(self.rest, wall - sum(rep_items))


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) of at least one value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        setup_samples: int = SETUP_SAMPLES) -> dict:
    """Measure one workload; returns the result object plus report details."""
    # Set-up first: its warm-up import writes the library's bytecode, so this
    # process never compiles it and compiling never shows in peak_rss_mb.
    setup_s = None if trace else measure_setup(setup_samples)
    import tracer as tr
    import workloads

    spec = load_spec()
    RESULTS.mkdir(exist_ok=True)
    wl = workloads.make(workload, str(RESULTS))
    inputs = wl.inputs(seed, tiny)

    probe = tr.CacheProbe()
    tracer = tr.Tracer() if trace else None
    clock = time.perf_counter
    walls, floors, caches, calibrations = [], ItemFloors(), [], [calibrate()]
    first, mismatched = None, 0
    deadline = clock() + seconds
    with tracer.install() if tracer else nullcontext():
        while True:
            probe.begin_job()
            # Every job starts from the same heap and collector counters, so
            # collections land on the same items in every job and stay in
            # the per-item floors.
            gc.collect()
            rep_items = array("d")
            with tracer.rep() if tracer else nullcontext():
                t0 = clock()
                out = wl.job(inputs, probe, rep_items, clock)
                walls.append(clock() - t0)
            calibrations.append(calibrate())
            floors.add(walls[-1], rep_items)
            caches.append(probe.snapshot())
            canon = wl.canon(inputs, out)
            if first is None:
                first = canon
            else:
                mismatched += sum(a != b for a, b in zip(first, canon))
                mismatched += abs(len(first) - len(canon))
            del out, canon
            if clock() + walls[-1] > deadline:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gate = wl.gate(inputs, first)
    reps = len(walls)
    attempted = gate.attempted * reps
    failed = gate.failed * reps + mismatched

    scale = speed_scale(calibrations, min)
    item_s = [t * scale for t in floors.items]
    wall_s = sum(item_s) + floors.rest * scale
    if trace:
        per_rep = [tracer.aggregate(lo, hi) for lo, hi in tracer.rep_bounds]
        values, absent = layer_metrics(spec["per_layer"], per_rep, caches)
        write_trace(workload, seed, tracer, per_rep, wall_s, walls, values, absent)
    else:
        values, absent = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "item_p50_ms": percentile(item_s, 50) * 1e3,
            "item_p99_ms": percentile(item_s, 99) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }, []
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
        if values.get(m["name"]) is not None
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "details": {
            "workload": workload,
            "seed": seed,
            "trace": trace,
            "reps": reps,
            "items": len(item_s),
            "walls": walls,
            "scale": scale,
            "refusals": dict(sorted(gate.refusals.items())),
            "absent": absent,
        },
    }


def layer_metrics(declared, per_rep, caches):
    """Median over repetitions of every declared per-layer metric."""
    import tracer as tr

    values, absent = {}, []
    for m in declared:
        got = [tr.layer_metric(m["name"], stats, snap) for stats, snap in zip(per_rep, caches)]
        if any(v is None for v in got):
            absent.append(m["name"])
        else:
            values[m["name"]] = statistics.median(got)
    return values, absent


def write_trace(workload, seed, tracer, per_rep, wall_s, walls, values, absent) -> None:
    """Spans plus a JSON summary (per function and per layer) in RESULTS."""
    stem = RESULTS / f"{workload}-seed{seed}"
    tracer.write(f"{stem}.spans.tsv.gz")
    functions = {}
    for name in sorted({k for stats in per_rep for k in stats}):
        rows = [stats.get(name) for stats in per_rep]
        functions[name] = {
            stat: statistics.median(r[stat] if r else 0 for r in rows)
            for stat in ("calls", "self_s", "wall_s", "singular")
        }
    summary = {
        "workload": workload,
        "seed": seed,
        "traced_wall_s": wall_s,
        "traced_median_rep_s": statistics.median(walls),
        "reps": len(walls),
        "spans": len(tracer.start),
        "functions": functions,
        "metrics": values,
        "absent": absent,
    }
    with open(f"{stem}.trace.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)


def print_result(result: dict) -> None:
    d = result["details"]
    print(
        f"# workload={d['workload']} seed={d['seed']} trace={int(d['trace'])} "
        f"reps={d['reps']} items_per_rep={d['items']}"
    )
    for name, m in result["metrics"].items():
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']}")
    for name in d["absent"]:
        print(f"{name:<44} {'absent':>14}")
    frac = result["failed"] / result["attempted"]
    print(f"{'fail_frac':<44} {frac:>14.6g} ratio ({result['failed']} of {result['attempted']})")
    print("rep wall times (s): " + " ".join(f"{w:.4f}" for w in d["walls"]))
    print(f"speed scale to reference: {d['scale']:.4f}")
    refusals = " ".join(f"{k}={v}" for k, v in d["refusals"].items()) or "none"
    print(f"refusals per rep: {refusals}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "binomial_moments" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
