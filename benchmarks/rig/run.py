#!/usr/bin/env python3
"""The repo benchmark: five workloads, end-to-end metrics, a traced run.

Two ways in, one implementation:

* ``python3 benchmarks/rig/run.py`` — run all five workloads one after
  another, print every metric by name with its unit, check every output,
  then do the traced run for the per-layer numbers and write the span
  files (``--repeat K --check-agreement`` runs the set K times and fails
  when two sets disagree by more than a metric's own bound);
* ``… --workload NAME --seed N --seconds S --trace 0|1`` — one workload,
  one JSON object on the last line of stdout (the contract of
  ``BENCHMARK.json``): the end-to-end metrics with ``--trace 0``, the
  per-layer metrics with ``--trace 1``.

Every measurement happens in a fresh subprocess of this same file
(``--worker``) with ``PYTHONHASHSEED=0``; subprocesses never overlap.
An untraced run is :data:`rigmetrics.SEGMENTS` such subprocesses back to
back, each setting up from scratch and timing its share of ``--seconds``,
so ``setup_s`` is a median of several real set-ups.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

RIG_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(RIG_DIR))
SRC = os.path.join(ROOT, "src")
if RIG_DIR not in sys.path:
    sys.path.insert(0, RIG_DIR)

import rigmetrics  # noqa: E402
import rigstats  # noqa: E402

WORKER_TIMEOUT = 170.0  # the contract allows 180 s per run

# ---------------------------------------------------------------------------
# Worker: one fresh interpreter, one workload
# ---------------------------------------------------------------------------


def _checked_iteration(workload, spans, reference, profile=None):
    """One iteration: timed program calls, then the rig's checks.

    ``gc.collect()`` runs before the timer starts and GC stays enabled
    inside it.  ``profile`` (a ``cProfile.Profile``) is enabled for the
    timed calls only, so the rig's own checking is in neither the time
    nor the layer split.  Returns ``(seconds, outcome, failed_ops,
    messages)``.
    """

    import gc

    gc.collect()
    if profile is not None:
        profile.enable()
    start = time.perf_counter()
    try:
        with spans.span("iteration"):  # parent of the spans iterate() records
            raw = workload.iterate(spans)
    finally:
        elapsed = time.perf_counter() - start
        if profile is not None:
            profile.disable()
    outcome = workload.check(raw)
    del raw
    messages = list(outcome.failures)
    failed = min(outcome.attempted, len(messages))
    if reference is not None:
        difference = rigstats.first_difference(reference, outcome.identity())
        if difference is not None:
            messages.append(f"differs from the first iteration: {difference}")
            failed = outcome.attempted
    return elapsed, outcome, failed, messages


def _peak_rss_mib() -> float:
    """Larger of this process and its waited children (Linux: KiB units)."""

    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scale = 1024 * 1024 if sys.platform == "darwin" else 1024
    return max(own, children) / scale


def _timed_phase(workload, reference, seconds: float, smoke: bool) -> dict:
    from riglayers import NoSpans

    spans = NoSpans()
    samples, attempted, failed, messages = [], 0, 0, []
    began = time.perf_counter()
    while True:
        elapsed, outcome, bad, notes = _checked_iteration(workload, spans, reference)
        samples.append(elapsed)
        attempted += outcome.attempted
        failed += bad
        messages.extend(notes)
        if smoke or time.perf_counter() - began >= seconds:
            break
    return {
        "iter_s": samples,
        "attempted": attempted,
        "failed": failed,
        "failures": messages,
    }


def _buckets(profile) -> dict:
    import pstats

    from riglayers import bucket_profile

    return bucket_profile(pstats.Stats(profile).stats)


def _traced_phase(workload, reference, smoke: bool, out_dir: str) -> dict:
    """Untraced reference iterations, then profiled ones with driver spans."""

    import cProfile

    from riglayers import LAYERS, NoSpans, SpanRecorder
    from rigprobes import PROBES, memory_pass

    plain = [
        _checked_iteration(workload, NoSpans(), reference)[0]
        for _ in range(1 if smoke else 3)
    ]
    spans = SpanRecorder()
    attempted = failed = 0
    messages: list[str] = []
    walls, profiles = [], []
    outcome = None
    for index in range(1 if smoke else 2):
        spans.iteration = index
        profile = cProfile.Profile()
        elapsed, outcome, bad, notes = _checked_iteration(
            workload, spans, reference, profile
        )
        walls.append(elapsed)
        profiles.append({"wall_s": elapsed, "buckets": _buckets(profile)})
        attempted += outcome.attempted
        failed += bad
        messages.extend(notes)

    spans.iteration = len(profiles)
    finish_notes = workload.finish(spans)
    messages.extend(finish_notes)
    if finish_notes:
        failed = attempted

    metrics: dict[str, float] = {}
    views = workload.views_per_iter
    layer_runs = [p["buckets"] for p in profiles]
    if workload.run_cells_in_process is not None:
        # The sweep's iterations profile the parent only (orchestration);
        # the cells run in pool workers the profiler cannot see.  A serial
        # in-process pass of the same grid is the cell-compute layer split.
        profile = cProfile.Profile()
        profile.enable()
        try:
            workload.run_cells_in_process()
        finally:
            profile.disable()
        layer_runs = [_buckets(profile)]
        profiles.append({"wall_s": None, "buckets": layer_runs[0], "what": "serial cells"})
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_view"] = (
            sum(run[layer]["self_s"] for run in layer_runs) / len(layer_runs) / views * 1e3
        )
        metrics[f"{layer}.calls_per_view"] = (
            sum(run[layer]["calls"] for run in layer_runs) / len(layer_runs) / views
        )
    metrics["rig.trace_overhead_ratio"] = statistics.median(walls) / statistics.median(plain)
    metrics["rig.trace_coverage"] = statistics.median([
        sum(bucket["self_s"] for bucket in p["buckets"].values()) / p["wall_s"]
        for p in profiles if p["wall_s"]
    ])
    for name in sorted({span["name"] for span in spans.spans} - {"iteration"}):
        metrics[f"span.{name}_ms"] = statistics.median(spans.durations_ms(name))
    if "span.harness.serial_ms" in metrics:
        metrics["harness.parallel_efficiency"] = metrics["span.harness.serial_ms"] / (
            workload.workers * metrics["span.harness.run_sweep_ms"]
        )
    metrics.update(outcome.counts)
    metrics.update(outcome.sim_stats)
    metrics.update(PROBES[workload.name](workload))
    if workload.name == rigmetrics.LONG:
        metrics.update(memory_pass(workload))

    calls = [
        {layer: p["buckets"][layer]["calls"] for layer in LAYERS}
        for p in profiles if p["wall_s"]
    ]
    os.makedirs(out_dir, exist_ok=True)
    origin = spans.spans[0]["start"] if spans.spans else 0.0
    trace_path = os.path.join(out_dir, f"trace-{workload.name}.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": workload.name,
                "seed": workload.seed,
                "clock": "seconds since the first span started",
                "spans": [
                    {**span, "start": span["start"] - origin, "end": span["end"] - origin}
                    for span in spans.spans
                ],
                "profiles": profiles,
            },
            fh,
            indent=1,
        )
    return {
        "iter_s": plain,
        "traced_iter_s": walls,
        "attempted": attempted,
        "failed": failed,
        "failures": messages,
        "metrics": metrics,
        "calls_repeat": all(entry == calls[0] for entry in calls),
        "trace_file": trace_path,
    }


def worker_main(args) -> int:
    from riglayers import NoSpans
    from rigworkloads import WORKLOADS

    workdir = os.path.join(args.out, f"tmp-{os.getpid()}")
    workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    try:
        workload.setup()
        _, warm, bad, notes = _checked_iteration(workload, NoSpans(), None)
        reference = warm.identity()
        setup_s = time.time() - args.spawned_at
        if args.trace:
            report = _traced_phase(workload, reference, args.smoke, args.out)
        else:
            report = _timed_phase(workload, reference, args.seconds, args.smoke)
            finish_notes = workload.finish(NoSpans())
            if finish_notes:
                report["failed"] = report["attempted"]
                report["failures"].extend(finish_notes)
        if bad:
            report["failed"] = report["attempted"]
            report["failures"] = notes + report["failures"]
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    report.update(
        workload=args.workload,
        seed=args.seed,
        setup_s=setup_s,
        peak_rss_mib=_peak_rss_mib(),
        views_per_iter=workload.views_per_iter,
        identity=reference,
    )
    report["failures"] = report["failures"][:5]
    print(json.dumps(report))
    return 0


# ---------------------------------------------------------------------------
# Parent: spawn workers one at a time, pool their reports
# ---------------------------------------------------------------------------


def _spawn_worker(workload: str, seed: int, seconds: float, trace: bool,
                  smoke: bool, out_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, os.path.abspath(__file__), "--worker",
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", "1" if trace else "0", "--out", out_dir,
        "--spawned-at", repr(time.time()),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT,
        text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _expected(workload: str, seed: int, smoke: bool) -> dict | None:
    """The recorded identity of the default-seed run, if this is one."""

    if seed != 0 or smoke:
        return None
    with open(os.path.join(RIG_DIR, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def _verify_identity(reports: list[dict], workload: str, seed: int, smoke: bool) -> list[str]:
    """Cross-report and recorded-expectation checks; returns failure notes."""

    from_first = reports[0]["identity"]
    notes = []
    for report in reports[1:]:
        if report["identity"] != from_first:
            notes.append("two subprocesses of one run disagree on the outputs")
    expected = _expected(workload, seed, smoke)
    if expected is not None:
        difference = rigstats.first_difference(expected, from_first)
        if difference is not None:
            notes.append(f"expected.json mismatch at {difference}")
    return notes


def measure(workload: str, seed: int, seconds: float, smoke: bool, out_dir: str) -> dict:
    """The untraced run: end-to-end metrics of one workload."""

    segments = 1 if smoke else rigmetrics.SEGMENTS
    reports = [
        _spawn_worker(workload, seed, seconds / segments, False, smoke, out_dir)
        for _ in range(segments)
    ]
    iter_s = [sample for report in reports for sample in report["iter_s"]]
    attempted = sum(report["attempted"] for report in reports)
    failed = sum(report["failed"] for report in reports)
    failures = [note for report in reports for note in report["failures"]]
    notes = _verify_identity(reports, workload, seed, smoke)
    if notes:
        failed, failures = attempted, notes + failures
    views = reports[0]["views_per_iter"]
    return {
        "workload": workload,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:5],
        "metrics": {
            "views_per_s": views / statistics.median(iter_s),
            "peak_rss_mib": statistics.median([r["peak_rss_mib"] for r in reports]),
            "setup_s": statistics.median([r["setup_s"] for r in reports]),
        },
        "iter_ms": rigstats.summarize([sample * 1e3 for sample in iter_s]),
        "setup_samples_s": [report["setup_s"] for report in reports],
        "identity": reports[0]["identity"],
    }


def trace(workload: str, seed: int, smoke: bool, out_dir: str) -> dict:
    """The traced run: per-layer metrics of one workload."""

    report = _spawn_worker(workload, seed, 0.0, True, smoke, out_dir)
    notes = _verify_identity([report], workload, seed, smoke)
    if notes:
        report["failed"] = report["attempted"]
        report["failures"] = notes + report["failures"]
    missing = [
        metric.name for metric in rigmetrics.PER_LAYER
        if workload in metric.defined_on and metric.name not in report["metrics"]
    ]
    if missing:
        raise RuntimeError(f"{workload}: traced run did not measure {missing}")
    return report


def driver_main(args) -> int:
    """One workload, one JSON line: the ``BENCHMARK.json`` contract."""

    if args.trace:
        report = trace(args.workload, args.seed, args.smoke, args.out)
        # Every declared per-layer name is printed on every workload; a
        # metric not defined on this one reads 0 (see README, "Reading 0").
        values = {
            metric.name: report["metrics"].get(metric.name, 0.0)
            for metric in rigmetrics.PER_LAYER
        }
    else:
        report = measure(args.workload, args.seed, args.seconds, args.smoke, args.out)
        values = report["metrics"]
    for note in report["failures"]:
        print(f"FAILED {args.workload}: {note}", file=sys.stderr)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": rigmetrics.UNITS[name]} for name, value in values.items()
        },
    }))
    return 0


# ---------------------------------------------------------------------------
# Full mode: all workloads, hygiene, agreement
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _hygiene(seed: int) -> dict:
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
        "load_1m_start": load,
        "noisy": load > nproc,
    }


def run_set(args, index: int) -> dict:
    """All five workloads once: untraced, then traced, never concurrently."""

    results = {}
    for name in rigmetrics.ALL:
        print(f"[set {index}] {name}: untraced …", file=sys.stderr, flush=True)
        measured = measure(name, args.seed, args.seconds, args.smoke, args.out)
        print(f"[set {index}] {name}: traced …", file=sys.stderr, flush=True)
        traced = trace(name, args.seed, args.smoke, args.out)
        results[name] = {"end_to_end": measured, "per_layer": traced}
    return results


def print_set(results: dict) -> None:
    for name, result in results.items():
        measured, traced = result["end_to_end"], result["per_layer"]
        print(f"\n== {name}  (operations attempted {measured['attempted']}, "
              f"failed {measured['failed'] + traced['failed']})")
        for metric, value in measured["metrics"].items():
            print(f"  {metric:<40} {value:>14.4f} {rigmetrics.UNITS[metric]}")
        summary = measured["iter_ms"]
        tail = (f", p{summary['tail_percentile']} {summary['tail_value']:.2f}"
                if "tail_percentile" in summary else "")
        print(f"  iter_ms: median {summary['median']:.2f}, quartiles "
              f"{summary['q1']:.2f}..{summary['q3']:.2f}, n={summary['count']}{tail}")
        print(f"  per iteration: {measured['identity']}")
        for metric, value in traced["metrics"].items():
            print(f"  {metric:<40} {value:>14.4f} {rigmetrics.UNITS[metric]}")
        print(f"  spans: {traced['trace_file']}")
        if not traced["calls_repeat"]:
            print("  note: call counts differed between the two traced iterations")
        for note in measured["failures"] + traced["failures"]:
            print(f"  FAILED: {note}")


def check_agreement(sets: list[dict]) -> bool:
    """One row per (metric, workload); False if any pair of sets disagrees.

    End-to-end metrics must agree within their own bound.  Outputs
    (digests, constants, simulated statistics) and, on the in-process
    workloads, every ``*.calls_per_view`` must be identical.
    """

    agreed = True
    print("\n== agreement between sets")
    for name in sets[0]:
        for metric in rigmetrics.END_TO_END:
            values = [s[name]["end_to_end"]["metrics"][metric.name] for s in sets]
            gap = rigstats.relative_gap(min(values), max(values))
            within = rigstats.within_bound(values, metric.bound)
            verdict = "ok" if within else "DISAGREE"
            agreed &= within
            shown = "  ".join(f"{value:.4f}" for value in values)
            print(f"  {metric.name:<28} {name:<16} {shown}  gap {gap:.2%} "
                  f"(bound {metric.bound:.0%}) {verdict}")
        exact = {"outputs": [s[name]["end_to_end"]["identity"] for s in sets]}
        if name != rigmetrics.SWEEP:
            exact["calls_per_view"] = [
                {k: v for k, v in s[name]["per_layer"]["metrics"].items()
                 if k.endswith(".calls_per_view")}
                for s in sets
            ]
        for label, values in exact.items():
            same = all(value == values[0] for value in values)
            agreed &= same
            print(f"  {label:<28} {name:<16} {'identical' if same else 'DIFFER'}")
    return agreed


def full_main(args) -> int:
    hygiene = _hygiene(args.seed)
    if hygiene["noisy"]:
        print(f"warning: load {hygiene['load_1m_start']:.2f} exceeds nproc "
              f"{hygiene['nproc']}; this run is flagged noisy", file=sys.stderr)
    sets = [run_set(args, index) for index in range(args.repeat)]
    hygiene["load_1m_end"] = os.getloadavg()[0]
    for results in sets:
        print_set(results)
    print(f"\nrun: {json.dumps(hygiene)}")
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"run": hygiene, "sets": sets}, fh, indent=1)
    failed = sum(
        result[part]["failed"]
        for results in sets for result in results.values()
        for part in ("end_to_end", "per_layer")
    )
    status = 0
    if failed:
        print(f"\n{failed} operations failed", file=sys.stderr)
        status = 1
    if args.check_agreement and not check_agreement(sets):
        status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=rigmetrics.ALL,
                        help="run one workload and print one JSON line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(rigmetrics.RUN_SECONDS),
                        help="timed seconds per untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 = end-to-end metrics, 1 = per-layer")
    parser.add_argument("--out", default=os.path.join(ROOT, ".rig_out"),
                        help="directory for span files, result.json and temp stores")
    parser.add_argument("--smoke", action="store_true",
                        help="one iteration at shrunken sizes (tests only)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the whole set this many times back to back")
    parser.add_argument("--check-agreement", action="store_true",
                        help="exit non-zero when two sets disagree beyond a bound")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.out = os.path.abspath(args.out)
    if args.worker:
        return worker_main(args)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: {SRC}/repro not found; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    if args.workload:
        return driver_main(args)
    return full_main(args)


if __name__ == "__main__":
    sys.exit(main())
