"""The sweep determinism contract, end to end.

* serial and 2-worker parallel runs of one spec produce identical JSONL
  payloads and byte-identical aggregate output;
* resuming over a partial (killed) store executes only the missing cells
  and converges on the same payloads;
* the new scenario families run safely inside the grid;
* the CLI wires it all together.
"""

from __future__ import annotations

import re

import pytest

from repro import cli
from repro.analysis.aggregation import aggregate_sweep, render_sweep_csv
from repro.harness.scenarios import bursty_churn_scenario, late_join_scenario
from repro.harness.sweep import (
    ExperimentSpec,
    ResultStore,
    canonical_record,
    run_sweep,
)

SPEC = ExperimentSpec(
    name="it-sweep",
    protocols=("tobsvd", "mr"),
    ns=(6, 8),
    fs=(0, 2),
    deltas=(2,),
    participations=("stable", "late-join", "bursty"),
    seeds=2,
    num_views=6,
    txs_per_cell=4,
)


def payload_lines(records: list[dict]) -> list[str]:
    return sorted(canonical_record(record) for record in records)


@pytest.fixture(scope="module")
def serial_records(tmp_path_factory):
    store = ResultStore(str(tmp_path_factory.mktemp("sweep") / "serial.jsonl"))
    outcome = run_sweep(SPEC, store=store, workers=1)
    assert outcome.executed == outcome.total_cells >= 24
    return outcome.sorted_records()


class TestSweepDeterminism:
    def test_all_cells_ran_safely(self, serial_records):
        assert all(record["status"] == "ok" for record in serial_records)
        assert all(record["metrics"]["safe"] for record in serial_records)

    def test_parallel_matches_serial_byte_for_byte(self, serial_records, tmp_path):
        store = ResultStore(str(tmp_path / "parallel.jsonl"))
        outcome = run_sweep(SPEC, store=store, workers=2)
        assert outcome.executed == outcome.total_cells
        assert payload_lines(store.load()) == payload_lines(serial_records)
        assert render_sweep_csv(
            aggregate_sweep(outcome.sorted_records())
        ) == render_sweep_csv(aggregate_sweep(serial_records))

    def test_resume_after_kill_skips_completed_cells(self, serial_records, tmp_path):
        path = tmp_path / "resume.jsonl"
        keep = len(serial_records) // 2
        with open(path, "w", encoding="utf-8") as fh:
            for record in serial_records[:keep]:
                fh.write(canonical_record(record) + "\n")
            fh.write('{"cell_id": "killed-mid-wri')  # simulated SIGKILL tail
        store = ResultStore(str(path))
        outcome = run_sweep(SPEC, store=store, workers=1)
        assert outcome.skipped == keep
        assert outcome.executed == outcome.total_cells - keep
        assert payload_lines(outcome.sorted_records()) == payload_lines(serial_records)

    def test_rerun_over_complete_store_executes_nothing(self, serial_records, tmp_path):
        path = tmp_path / "complete.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for record in serial_records:
                fh.write(canonical_record(record) + "\n")
        outcome = run_sweep(SPEC, store=ResultStore(str(path)), workers=4)
        assert outcome.executed == 0
        assert outcome.skipped == outcome.total_cells


class TestWarmExecutor:
    """One warm pool serving several sweeps: the persistent fast path."""

    @pytest.fixture(scope="class")
    def executor(self):
        from repro.harness.executor import SweepExecutor

        with SweepExecutor(workers=2) as executor:
            executor.warmup()
            yield executor

    def test_reused_executor_matches_serial_byte_for_byte(
        self, serial_records, executor, tmp_path
    ):
        for attempt in ("first", "second"):  # second sweep runs on a warm pool
            store = ResultStore(str(tmp_path / f"{attempt}.jsonl"))
            outcome = run_sweep(SPEC, store=store, executor=executor)
            assert outcome.executed == outcome.total_cells
            assert payload_lines(store.load()) == payload_lines(serial_records)

    def test_resume_after_kill_with_warm_executor(
        self, serial_records, executor, tmp_path
    ):
        path = tmp_path / "killed.jsonl"
        keep = len(serial_records) // 3
        with open(path, "w", encoding="utf-8") as fh:
            for record in serial_records[:keep]:
                fh.write(canonical_record(record) + "\n")
            fh.write('{"cell_id": "torn-mid-chu')  # killed mid-chunk
        outcome = run_sweep(SPEC, store=ResultStore(str(path)), executor=executor)
        assert outcome.skipped == keep
        assert outcome.executed == outcome.total_cells - keep
        assert payload_lines(outcome.sorted_records()) == payload_lines(serial_records)

    def test_distinct_specs_share_one_pool(self, executor, tmp_path):
        other = ExperimentSpec(
            name="it-sweep-b", ns=(6,), seeds=2, num_views=6, txs_per_cell=2
        )
        store = ResultStore(str(tmp_path / "other.jsonl"))
        outcome = run_sweep(other, store=store, executor=executor)
        assert outcome.executed == outcome.total_cells == 2
        serial = run_sweep(other)
        assert payload_lines(store.load()) == payload_lines(serial.records)


class TestNewScenarioFamilies:
    def test_late_join_scenario_runs_and_decides(self):
        result = late_join_scenario(n=8, num_views=6, delta=2, seed=0).run()
        assert result.all_decisions_compatible()
        assert len(result.trace.decisions) > 0
        # The joiners (top quarter) eventually decide too.
        assert any(e.validator == 7 for e in result.trace.decisions)

    def test_bursty_scenario_runs_and_decides(self):
        result = bursty_churn_scenario(n=8, num_views=8, delta=2, seed=0).run()
        assert result.all_decisions_compatible()
        assert len(result.trace.decisions) > 0

    def test_bursty_sleepers_actually_sleep_together(self):
        protocol = bursty_churn_scenario(n=8, num_views=8, delta=2, seed=0)
        schedule = protocol.schedule
        view_ticks = protocol.config.time.view_ticks
        nap_time = 2 * view_ticks + 1  # inside the first nap window
        asleep = {vid for vid in range(8) if not schedule.awake(vid, nap_time)}
        assert asleep == {6, 7}

    def test_compliance_violations_are_rejected(self):
        # With everyone honest Condition (1) is vacuous, so the guard only
        # bites alongside corruption: 4 of 6 honest validators napping
        # while 2 are Byzantine hands the adversary an active majority.
        from repro.core.tobsvd import TobSvdConfig
        from repro.harness.scenarios import bursty_schedule, check_schedule_compliance
        from repro.sleepy.corruption import CorruptionPlan

        config = TobSvdConfig(n=8, num_views=8, delta=2, seed=0)
        view_ticks = config.time.view_ticks
        schedule = bursty_schedule(
            8, (2, 3, 4, 5), horizon=config.horizon,
            first_nap=2 * view_ticks, nap_ticks=2 * view_ticks,
            awake_ticks=3 * view_ticks,
        )
        with pytest.raises(ValueError, match="sleepy-model"):
            check_schedule_compliance(
                config, schedule, CorruptionPlan.static(frozenset({6, 7})), "bursty"
            )


class TestCli:
    def test_sweep_cli_writes_store_and_csv(self, tmp_path, capsys):
        out = tmp_path / "cli.jsonl"
        csv = tmp_path / "cli.csv"
        code = cli.main([
            "sweep", "--name", "cli-it", "--protocols", "tobsvd",
            "--n", "6", "--f", "0", "--participation", "stable",
            "--seeds", "2", "--views", "6", "--workers", "1",
            "--out", str(out), "--csv", str(csv), "--quiet",
        ])
        assert code == 0
        assert len(ResultStore(str(out)).load()) == 2
        body = csv.read_text(encoding="utf-8")
        assert body.splitlines()[0].startswith("protocol,n,f,")
        assert "tobsvd,6,0," in body
        # Second invocation resumes: nothing executes, exit stays 0.
        assert cli.main([
            "sweep", "--name", "cli-it", "--protocols", "tobsvd",
            "--n", "6", "--f", "0", "--participation", "stable",
            "--seeds", "2", "--views", "6", "--out", str(out), "--quiet",
        ]) == 0
        assert "2 resumed-skip" in capsys.readouterr().out

    def test_sweep_cli_list_cells(self, tmp_path, capsys):
        code = cli.main([
            "sweep", "--name", "cli-ls", "--n", "6", "--seeds", "2",
            "--views", "6", "--out", str(tmp_path / "x.jsonl"), "--list-cells",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert all("cli-ls|tobsvd|n=6" in line for line in lines)

    def test_scenario_cli(self, capsys):
        assert cli.main(["run", "late-join", "--n", "6", "--views", "6",
                         "--delta", "2"]) == 0
        out = capsys.readouterr().out
        assert "safety holds:          True" in out

    def test_run_cli_prints_live_reducer_stats(self, capsys):
        assert cli.main(["run", "stable", "--n", "6", "--views", "8",
                         "--delta", "2", "--stats-every", "8"]) == 0
        out = capsys.readouterr().out
        assert "decisions/sec" in out
        assert "mean latency" in out
        assert "safety holds:          True" in out
        assert ", 0 retained" in out  # bounded retention is the default

    def test_run_cli_reports_message_faults_only_when_some_fired(self, capsys):
        run = ["run", "stable", "--n", "6", "--views", "6", "--delta", "2"]
        faults = '{"drop_rate": 0.1, "duplicate_rate": 0.1, "delay_spike_rate": 0.1}'
        assert cli.main(run + ["--faults", faults]) == 0
        line = re.search(
            r"message faults: +(\d+) dropped, (\d+) duplicated, (\d+) spiked",
            capsys.readouterr().out,
        )
        assert line and all(int(count) > 0 for count in line.groups())
        assert cli.main(run) == 0
        assert "message faults" not in capsys.readouterr().out

    def test_run_cli_full_retention_keeps_events(self, capsys):
        assert cli.main(["run", "stable", "--n", "6", "--views", "6",
                         "--trace", "full"]) == 0
        out = capsys.readouterr().out
        assert ", 0 retained" not in out

    def test_run_cli_trace_off_reports_network_totals_only(self, capsys):
        assert cli.main(["run", "stable", "--n", "6", "--views", "6",
                         "--trace", "off"]) == 0
        out = capsys.readouterr().out
        assert "tracing off" in out
        assert "decisions/sec" not in out

    def test_sweep_cli_warm_and_chunksize_flags(self, tmp_path, capsys):
        out = tmp_path / "warm.jsonl"
        code = cli.main([
            "sweep", "--name", "cli-warm", "--n", "6", "--seeds", "4",
            "--views", "6", "--workers", "2", "--warm", "--chunksize", "2",
            "--out", str(out), "--quiet",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "warmed 2 workers in" in printed
        assert len(ResultStore(str(out)).load()) == 4
        # Same spec serially: identical payloads regardless of warm/chunked.
        serial = tmp_path / "serial.jsonl"
        assert cli.main([
            "sweep", "--name", "cli-warm", "--n", "6", "--seeds", "4",
            "--views", "6", "--out", str(serial), "--quiet",
        ]) == 0
        assert payload_lines(ResultStore(str(out)).load()) == payload_lines(
            ResultStore(str(serial)).load()
        )

    def test_sweep_cli_records_identical_across_trace_modes(self, tmp_path):
        bodies = {}
        for mode in ("full", "bounded"):
            out = tmp_path / f"{mode}.jsonl"
            assert cli.main([
                "sweep", "--name", "cli-tr", "--n", "6", "--seeds", "1",
                "--views", "6", "--out", str(out), "--quiet", "--trace", mode,
            ]) == 0
            bodies[mode] = out.read_text(encoding="utf-8")
        assert bodies["full"] == bodies["bounded"]

    def test_spec_file_roundtrip(self, tmp_path):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC.to_dict()))
        code = cli.main([
            "sweep", "--spec", str(spec_path),
            "--out", str(tmp_path / "spec.jsonl"), "--list-cells",
        ])
        assert code == 0
