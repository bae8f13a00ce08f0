"""orbikit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; orbikit is imported from src/.
Workloads: kummer_repeated, pquot_distinct, files_cli (see NOTES.md).
The run sets up SETUP_REPEATS times, then runs the ROADMAP ladder, the
workload's fixed cases and whole rounds of seeded cases until S seconds
have passed.  Human-readable lines go to stdout; the last line is one JSON
object with the keys correct, attempted, failed and metrics: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from recorder import LAYERS, REFERENCE_CALIBRATION_NS, STAGE, STAGES, Recorder, calibration_slice  # noqa: E402

SETUP_REPEATS = 7
WORK_ROOT = workloads.ROOT / ".bench_work"

END_TO_END = [
    ("setup_s", "s"),
    ("case_ms.p50", "ms"),
    ("case_ms.p90", "ms"),
    ("sectors_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("cli_ms.p50", "ms"),
    ("cli_ms.p90", "ms"),
]

# Spans reported per layer: median, total and number of calls of self time.
TIMED = list(STAGE)
COUNTS = [
    "quotient.sectors",
    "quotient.distinct_sectors",
    "diamond.entries",
    "diamond.level",
    "diamond.grade_axis",
    "cli.dense_render_skipped",
    "formats.bytes_read",
    "formats.bytes_written",
    "formats.sectors_expanded",
]


def per_layer_names() -> list[tuple[str, str]]:
    names = []
    for span in TIMED + [f"stage.{s}" for s in STAGES]:
        base = f"{span}_ms"
        names += [(f"{base}.p50", "ms"), (f"{base}.total", "ms"), (f"{base}.calls", "count")]
    names += [(c, "count") for c in COUNTS]
    names += [(f"{layer}.failed", "count") for layer in LAYERS]
    names += [
        ("failed_ratio", "ratio"),
        ("known_defects", "count"),
        ("case_ms.samples", "count"),
        ("cli_ms.samples", "count"),
        ("trace.overhead_pct", "%"),
        ("bench.calibration_ms", "ms"),
    ]
    return names


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks; 0 for no values."""
    if not values:
        return 0.0
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def import_orbikit():
    """A fresh import of orbikit and its CLI (earlier imports are dropped)."""
    for name in [m for m in sys.modules if m == "orbikit" or m.startswith("orbikit.")]:
        del sys.modules[name]
    ok = importlib.import_module("orbikit")
    importlib.import_module("orbikit.cli")
    return ok


def setup(workload: str, seed: int):
    """Import orbikit, generate the inputs and write the files, SETUP_REPEATS times.

    Returns the last set-up and the median set-up time in seconds, each
    scaled by the calibration slices taken just before and after it.
    """
    times, slices, dirs = [], [calibration_slice()], []
    for _ in range(SETUP_REPEATS):
        workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
        dirs.append(workdir)
        start = time.perf_counter_ns()
        ok = import_orbikit()
        state = workloads.WORKLOADS[workload](ok, seed, workdir)
        times.append(time.perf_counter_ns() - start)
        slices.append(calibration_slice())
    for workdir in dirs[:-1]:
        shutil.rmtree(workdir)
    scaled = [t * 2 * REFERENCE_CALIBRATION_NS / (a + b) for t, a, b in zip(times, slices, slices[1:])]
    return ok, state, dirs[-1], statistics.median(scaled) / 1e9


def per_round(rec: Recorder) -> list[list[tuple[float, int]]]:
    """(reference-speed ns, sectors) of the cases of each round.

    The cases run once per run (the ladder, hostile inputs) are left out:
    they are reported as rows and in the per-layer metrics.
    """
    cases = rec.case_times()
    bounds = rec.round_starts + [len(cases)]
    return [cases[a:b] for a, b in zip(bounds, bounds[1:])]


def end_to_end(rec: Recorder, setup_s: float) -> dict:
    # Every round has the same mix of sizes, so percentiles taken per round,
    # then their median, and the rate over whole rounds do not depend on how
    # many rounds fit into the run.
    rounds = per_round(rec)
    values = {
        "setup_s": setup_s,
        "case_ms.p50": statistics.median(percentile([t for t, _ in r], 0.5) for r in rounds) / 1e6,
        "case_ms.p90": statistics.median(percentile([t for t, _ in r], 0.9) for r in rounds) / 1e6,
        "sectors_per_s": sum(s for r in rounds for _, s in r) / sum(t for r in rounds for t, _ in r) * 1e9,
        "peak_rss_mb": peak_rss_mb(),
        "cli_ms.p50": percentile(rec.cli_ns, 0.5) / 1e6,
        "cli_ms.p90": percentile(rec.cli_ns, 0.9) / 1e6,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(rec: Recorder) -> dict:
    by_name: dict[str, list[float]] = {}
    by_stage: dict[tuple[str, int], float] = {}
    main_ns: dict[int, float] = {}
    steps_ns: dict[int, float] = {}
    replay_spans = {i for i, s in enumerate(rec.spans) if s[0] == "replay"}
    for i, (name, self_ns, case) in enumerate(rec.self_times()):
        by_name.setdefault(name, []).append(self_ns)
        stage = STAGE.get(name)
        if stage in STAGES:
            by_stage[(stage, case)] = by_stage.get((stage, case), 0) + self_ns
        if name == "cli.main":
            main_ns[case] = main_ns.get(case, 0) + self_ns
        if rec.spans[i][3] in replay_spans:
            steps_ns[case] = steps_ns.get(case, 0) + self_ns
    by_name["cli.dispatch"] = [ns - steps_ns.get(case, 0) for case, ns in main_ns.items()]
    # Subprocess calls are timed whole, in both kinds of run; the pass
    # calls are the reference and stay unscaled.
    by_name["cli.subprocess"] = rec.cli_ns
    by_name["python_startup"] = rec.pass_ns
    for (stage, _), ns in by_stage.items():
        by_name.setdefault(f"stage.{stage}", []).append(ns)

    values = {}
    for span in TIMED + [f"stage.{s}" for s in STAGES]:
        base = f"{span}_ms"
        ns = by_name.get(span, [])
        values[f"{base}.p50"] = percentile(ns, 0.5) / 1e6
        values[f"{base}.total"] = sum(ns) / 1e6
        values[f"{base}.calls"] = len(ns)
    for c in COUNTS:
        values[c] = rec.counts[c]
    for layer in LAYERS:
        values[f"{layer}.failed"] = sum(1 for _, l, _ in rec.failures if l == layer)
    plain = sum(p for p, _ in rec.paired)
    values["failed_ratio"] = len(rec.failures) / rec.attempted
    values["known_defects"] = len(rec.known_defects)
    values["case_ms.samples"] = len(rec.cases)
    values["cli_ms.samples"] = len(rec.cli_ns)
    values["trace.overhead_pct"] = 100 * (sum(t for _, t in rec.paired) - plain) / plain
    values["bench.calibration_ms"] = statistics.median(rec.calib_ns) / 1e6
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}


def print_report(rec: Recorder, metrics: dict, ladder_rss_mb: float) -> None:
    print(f"cases: {rec.attempted} attempted, {len(rec.cases)} timed in-process in "
          f"{len(rec.round_starts)} rounds, {len(rec.cli_ns)} CLI subprocess calls")
    print(f"peak RSS: {ladder_rss_mb:.1f} MB after the ladder, {peak_rss_mb():.1f} MB at the end")
    print(f"raw medians: calibration slice {statistics.median(rec.calib_ns) / 1e6:.3f} ms, "
          f"python -c pass {statistics.median(rec.pass_ns) / 1e6:.1f} ms")
    print("ladder (ROADMAP baseline rows, reference-speed ms):")
    spans = rec.self_times()
    case_ms = {case: ns * rec.factor(case) / 1e6 for case, ns, _ in rec.cases}
    for label, row in rec.ladder.items():
        parts = [f"{label:>12}"]
        if "sectors" in row:
            mine = [(name, ns) for name, ns, case in spans if case == row["case_id"]]
            parts.append(f"sectors {row['sectors']} ({row['distinct']}), case {case_ms.get(row['case_id'], 0):.1f} ms")
            if rec.traced:
                build = sum(ns for name, ns in mine if STAGE.get(name) in ("read", "build"))
                assemble = sum(ns for name, ns in mine if name == "inertia.assemble_diamond")
                parts.append(f"build {build / 1e6:.1f} ms, assemble {assemble / 1e6:.1f} ms")
        if "cli_ns" in row:
            parts.append(f"end-to-end CLI {row['cli_ns'] / 1e6:.1f} ms")
        print("  " + ", ".join(parts))
    if rec.traced:
        print("per-layer self time [stage]:")
        for span in TIMED:
            base = f"{span}_ms"
            calls = metrics[f"{base}.calls"]["value"]
            if calls:
                print(f"  {base:<40} [{STAGE[span]:>10}] p50 {metrics[base + '.p50']['value']:10.3f} ms"
                      f"  total {metrics[base + '.total']['value']:10.1f} ms  calls {calls}")
        print(f"tracing overhead {metrics['trace.overhead_pct']['value']:.1f}% over {len(rec.paired)} paired cases")
    for case, layer, message in rec.known_defects:
        print(f"known defect: {case} [{layer}] {message}")
    for case in rec.fixed_defects:
        print(f"known defect no longer shows: {case}")
    for case, layer, message in rec.failures:
        print(f"FAILED: {case} [{layer}] {message}")
    print(f"case_ms over {len(rec.cases)} samples, cli_ms over {len(rec.cli_ns)} samples")


def run(args) -> dict:
    ok, state, workdir, setup_s = setup(args.workload, args.seed)
    try:
        state.prepare()
        ladder = workloads.Ladder()
        rec = Recorder(traced=bool(args.trace))
        deadline = time.perf_counter() + args.seconds
        ladder.run(rec, ok, workdir)
        ladder_rss_mb = peak_rss_mb()
        state.fixed(rec, ok, workdir)
        k = 0
        while True:
            rec.start_round()
            state.round(rec, ok, k)
            k += 1
            if time.perf_counter() >= deadline:
                break
        rec.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # not empty: another run is using it
            pass
    metrics = per_layer(rec) if args.trace else end_to_end(rec, setup_s)
    print_report(rec, metrics, ladder_rss_mb)
    return {
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (workloads.SRC / "orbikit" / "__init__.py").is_file() or not workloads.GOLDEN.is_dir():
        print(f"error: no orbikit sources under {workloads.SRC} or no {workloads.GOLDEN}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    os.environ.pop("ORBIKIT_CATALOG_DIR", None)
    WORK_ROOT.mkdir(exist_ok=True)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
