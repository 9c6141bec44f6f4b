"""Tests of the benchmark rig itself (collected by the tier-1 command).

Arithmetic and bucketing are tested on synthetic inputs; the last two
tests drive ``run.py --smoke`` end to end and require every declared
metric on every workload where it is defined.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

RIG_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(RIG_DIR))
if RIG_DIR not in sys.path:
    sys.path.insert(0, RIG_DIR)

import riglayers  # noqa: E402
import rigmetrics  # noqa: E402
import rigstats  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- statistics and bounds ---------------------------------------------------


def test_quartiles_match_the_contract_definition():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q2, q3 = rigstats.quartiles(values)
    assert (q1, q2, q3) == (11.75, 14.5, 17.25)
    assert rigstats.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert rigstats.tail_percentile(list(range(19))) is None
    assert rigstats.tail_percentile(list(range(20))) == (50, 9)
    percentile, value = rigstats.tail_percentile(list(range(100)))
    assert (percentile, value) == (90, 89)
    assert sum(1 for sample in range(100) if sample > value) == 10
    summary = rigstats.summarize([float(v) for v in range(40)])
    assert summary["count"] == 40 and summary["tail_percentile"] == 75


def test_bound_arithmetic():
    assert rigstats.relative_gap(100.0, 92.0) == pytest.approx(0.08)
    assert rigstats.relative_gap(92.0, 100.0) == pytest.approx(0.08)
    assert rigstats.within_bound([100.0, 104.0, 98.0], 0.08)
    assert not rigstats.within_bound([100.0, 110.0], 0.05)
    # exact metrics: a bound of 0 demands identical readings
    assert rigstats.within_bound([6.5, 6.5], 0.0)
    assert not rigstats.within_bound([6.5, 6.5000001], 0.0)


# -- layer bucketing ---------------------------------------------------------


def _src(*parts: str) -> str:
    return os.path.join(os.sep, "checkout", "src", "repro", *parts)


def test_layer_of_follows_the_package_map():
    assert riglayers.layer_of(_src("net", "network.py")) == "net"
    assert riglayers.layer_of(_src("faults.py")) == "faults"
    assert riglayers.layer_of(_src("trace.py")) == "tracebus"
    assert riglayers.layer_of(_src("fleet", "lease.py")) is None
    assert riglayers.layer_of("~") is None
    assert riglayers.layer_of("/usr/lib/python3.11/json/encoder.py") is None


def test_builtin_time_is_charged_to_the_calling_layer():
    log = (_src("chain", "log.py"), 100, "append_block")
    deliver = (_src("net", "network.py"), 200, "_deliver")
    record = (_src("harness", "sweep.py"), 300, "canonical_record")
    sha = ("~", 0, "<built-in method _hashlib.openssl_sha256>")
    dumps = ("/usr/lib/python3.11/json/__init__.py", 183, "dumps")
    encode = ("~", 0, "<built-in method _json.encode_basestring>")
    ping = ("/usr/lib/python3.11/a.py", 1, "ping")
    pong = ("/usr/lib/python3.11/b.py", 1, "pong")
    root = ("/rig/run.py", 1, "main")
    stats = {
        # (cc, nc, tt, ct, callers)
        root: (1, 1, 1.0, 20.0, {}),
        log: (10, 10, 2.0, 5.0, {root: (10, 10, 2.0, 5.0)}),
        deliver: (20, 20, 4.0, 5.0, {root: (20, 20, 4.0, 5.0)}),
        record: (5, 5, 0.5, 4.0, {root: (5, 5, 0.5, 4.0)}),
        # sha256: 3 s called from chain, 1 s from net
        sha: (40, 40, 4.0, 4.0, {log: (30, 30, 3.0, 3.0), deliver: (10, 10, 1.0, 1.0)}),
        # json.dumps is stdlib Python called by harness; the C encoder sits below it
        dumps: (5, 5, 0.5, 3.5, {record: (5, 5, 0.5, 3.5)}),
        encode: (50, 50, 3.0, 3.0, {dumps: (50, 50, 3.0, 3.0)}),
        # a cycle among foreign functions must terminate and land in "other"
        ping: (2, 2, 1.0, 2.0, {pong: (2, 2, 1.0, 2.0)}),
        pong: (2, 2, 1.0, 2.0, {ping: (2, 2, 1.0, 2.0)}),
    }
    buckets = riglayers.bucket_profile(stats)
    assert buckets["chain"]["self_s"] == pytest.approx(2.0 + 3.0)
    assert buckets["net"]["self_s"] == pytest.approx(4.0 + 1.0)
    assert buckets["harness"]["self_s"] == pytest.approx(0.5 + 0.5 + 3.0)
    assert buckets["other"]["self_s"] == pytest.approx(1.0 + 1.0 + 1.0)
    # only functions in a layer's own files count as that layer's calls
    assert buckets["chain"]["calls"] == 10
    assert buckets["harness"]["calls"] == 5
    total = sum(bucket["self_s"] for bucket in buckets.values())
    assert total == pytest.approx(sum(entry[2] for entry in stats.values()))


def test_spans_carry_parent_and_iteration():
    recorder = riglayers.SpanRecorder()
    recorder.iteration = 4
    with recorder.span("iteration"):
        with recorder.span("sim.advance"):
            pass
    outer, inner = recorder.spans
    assert outer["parent"] is None and inner["parent"] == 0
    assert outer["iteration"] == inner["iteration"] == 4
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert recorder.durations_ms("sim.advance") == [(inner["end"] - inner["start"]) * 1e3]


# -- BENCHMARK.json ----------------------------------------------------------


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_is_well_formed():
    declared = _benchmark()
    assert declared == rigmetrics.benchmark_json()
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in declared[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in declared["end_to_end"])
    assert declared["paths"] == ["benchmarks/rig"]
    assert all(not part.startswith("/") and ".." not in part for part in declared["command"])


def test_every_per_layer_metric_names_what_it_should_move():
    end_to_end = {metric.name for metric in rigmetrics.END_TO_END}
    workloads = set(rigmetrics.ALL)
    for metric in rigmetrics.PER_LAYER:
        assert metric.moves in end_to_end, metric.name
        assert metric.defined_on and set(metric.defined_on) <= workloads, metric.name
        assert set(metric.on) <= workloads, metric.name
    # the separation the workloads were chosen for is written down, not implied
    moved = {m.name: m for m in rigmetrics.PER_LAYER}
    assert "sim-wide-n64" not in moved["chain.self_ms_per_view"].on
    assert "sim-wide-n64" not in moved["faults.self_ms_per_view"].on
    assert moved["node.self_ms_per_view"].on == ("node-mem-n4",)
    assert moved["snapshot.self_ms_per_view"].on == ()


# -- the rig end to end, at smoke size ---------------------------------------


def _run(*arguments: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, os.path.join(RIG_DIR, "run.py"), *arguments],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_smoke_pass_emits_every_declared_metric(tmp_path):
    done = _run("--smoke", "--seed", "3", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr[-2000:]
    with open(tmp_path / "result.json", encoding="utf-8") as fh:
        result = json.load(fh)
    assert {"nproc", "python", "platform", "git_commit", "seed", "load_1m_start",
            "load_1m_end", "noisy"} <= set(result["run"])
    (workloads,) = result["sets"]
    assert tuple(workloads) == rigmetrics.ALL
    for name, outcome in workloads.items():
        measured, traced = outcome["end_to_end"], outcome["per_layer"]
        assert measured["failed"] == 0 and traced["failed"] == 0, (name, outcome)
        assert measured["attempted"] >= 1
        assert set(measured["metrics"]) == {m.name for m in rigmetrics.END_TO_END}
        assert all(value > 0 for value in measured["metrics"].values())
        wanted = {m.name for m in rigmetrics.PER_LAYER if name in m.defined_on}
        assert set(traced["metrics"]) == wanted, (
            name, wanted ^ set(traced["metrics"])
        )
        with open(tmp_path / f"trace-{name}.json", encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        assert spans and {"name", "start", "end", "parent", "iteration"} <= set(spans[0])
    assert not [entry for entry in os.listdir(tmp_path) if entry.startswith("tmp-")]
    for unit in ("1/s", "MiB", "ms/view"):
        assert f" {unit}\n" in done.stdout


def test_driver_mode_prints_the_contract_line(tmp_path):
    done = _run("--workload", "node-mem-n4", "--seed", "5", "--seconds", "1",
                "--trace", "1", "--smoke", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m.name for m in rigmetrics.PER_LAYER}
    assert line["metrics"]["crypto.sign_verify_us"]["value"] > 0
    assert line["metrics"]["span.node.cluster_ms"]["unit"] == "ms"
    # a metric that is not defined on this workload reads 0
    assert line["metrics"]["chain.live_kib"]["value"] == 0
