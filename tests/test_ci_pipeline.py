"""The CI pipeline is data: validate the workflow, Makefile, and smoke gate.

actionlint is not vendored, so this is the repo's own schema check: the
workflow must parse, expose the four pipeline stages as distinct jobs
(lint → test matrix → bench-smoke), run the same make targets
contributors run, and upload the benchmark report artifact. A drifted
Makefile or a renamed target fails here, not on the first broken push.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from check_smoke_report import check as check_smoke_report
from check_trend import check as check_trend

REPO = Path(__file__).resolve().parent.parent
WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"
MAKEFILE = REPO / "Makefile"


@pytest.fixture(scope="module")
def workflow():
    data = yaml.safe_load(WORKFLOW.read_text())
    assert isinstance(data, dict)
    return data


@pytest.fixture(scope="module")
def make_targets():
    targets = set()
    for line in MAKEFILE.read_text().splitlines():
        match = re.match(r"^([A-Za-z][\w-]*):", line)
        if match:
            targets.add(match.group(1))
    return targets


class TestWorkflowSchema:
    def test_triggers_on_push_and_pull_request(self, workflow):
        # YAML 1.1 parses the bare key `on` as boolean True.
        triggers = workflow.get("on", workflow.get(True))
        assert triggers is not None, "workflow has no `on:` block"
        assert "push" in triggers
        assert "pull_request" in triggers

    def test_has_the_five_distinct_jobs(self, workflow):
        jobs = workflow["jobs"]
        assert set(jobs) == {
            "lint",
            "collect",
            "test",
            "lock-order",
            "bench-smoke",
        }
        collect_lines = [
            step.get("run", "") for step in jobs["collect"]["steps"]
        ]
        assert any("make collect" in line for line in collect_lines)
        test_lines = [step.get("run", "") for step in jobs["test"]["steps"]]
        assert any("make test" in line for line in test_lines)

    def test_every_job_is_runnable(self, workflow):
        for name, job in workflow["jobs"].items():
            assert "runs-on" in job, f"job {name} has no runner"
            steps = job.get("steps")
            assert steps, f"job {name} has no steps"
            for step in steps:
                assert "uses" in step or "run" in step, (
                    f"job {name} has a step with neither uses nor run"
                )

    def test_pipeline_ordering(self, workflow):
        jobs = workflow["jobs"]
        assert jobs["collect"]["needs"] == "lint"
        assert jobs["test"]["needs"] == "collect"
        # The instrumented leg branches off collect in parallel with the
        # matrix — it re-runs hammer tests, not the whole suite.
        assert jobs["lock-order"]["needs"] == "collect"
        assert jobs["bench-smoke"]["needs"] == "test"

    def test_python_version_matrix(self, workflow):
        matrix = workflow["jobs"]["test"]["strategy"]["matrix"]
        versions = [str(v) for v in matrix["python-version"]]
        assert versions == ["3.10", "3.11", "3.12"]

    def test_lint_job_runs_make_lint(self, workflow):
        run_lines = [
            step.get("run", "")
            for step in workflow["jobs"]["lint"]["steps"]
        ]
        assert any("make lint" in line for line in run_lines)
        assert any("ruff" in line for line in run_lines)

    def test_bench_smoke_uploads_report_artifacts(self, workflow):
        steps = workflow["jobs"]["bench-smoke"]["steps"]
        assert any(
            "make bench-smoke" in step.get("run", "") for step in steps
        )
        uploads = [
            step
            for step in steps
            if "upload-artifact" in step.get("uses", "")
        ]
        # Two artifacts: the smoke report and the perf trajectory.
        assert len(uploads) == 2
        paths = {step["with"]["path"] for step in uploads}
        assert paths == {".bench/smoke.json", ".bench/trajectory.json"}
        names = {step["with"]["name"] for step in uploads}
        assert names == {"bench-smoke-report", "bench-trajectory"}

    def test_bench_smoke_job_runs_the_warm_start_gate(self, workflow):
        # The warm-start benchmark is a hard gate: a restarted server
        # that rebuilds instead of decoding snapshots fails CI.
        run_lines = [
            step.get("run", "")
            for step in workflow["jobs"]["bench-smoke"]["steps"]
        ]
        assert any("make bench-warm" in line for line in run_lines)

    def test_bench_smoke_job_runs_the_streaming_gate(self, workflow):
        # Top-k cursor serving is a hard gate too: if limit=k cursors
        # stop beating full materialization >= 5x, CI fails.
        run_lines = [
            step.get("run", "")
            for step in workflow["jobs"]["bench-smoke"]["steps"]
        ]
        assert any("make bench-stream" in line for line in run_lines)

    def test_bench_smoke_job_runs_the_shared_scan_gate(self, workflow):
        # Shared-scan batching is a hard gate: if open_batch stops
        # beating request-at-a-time cursors >= 3x on the prefix-sharing
        # workload, CI fails.
        run_lines = [
            step.get("run", "")
            for step in workflow["jobs"]["bench-smoke"]["steps"]
        ]
        assert any("make bench-batch" in line for line in run_lines)

    def test_bench_smoke_job_runs_the_resharding_gate(self, workflow):
        # The elastic-split benchmark is a hard gate: if splitting one
        # hot shard stops beating a full reshard, CI fails.
        run_lines = [
            step.get("run", "")
            for step in workflow["jobs"]["bench-smoke"]["steps"]
        ]
        assert any("make bench-reshard" in line for line in run_lines)

    def test_bench_smoke_job_runs_the_adaptive_tuning_gate(self, workflow):
        # The closed-loop gate: if the AdaptiveTuner stops beating the
        # static τ it started from on the skew-shifting stream, CI fails.
        run_lines = [
            step.get("run", "")
            for step in workflow["jobs"]["bench-smoke"]["steps"]
        ]
        assert any("make bench-adapt" in line for line in run_lines)

    def test_bench_smoke_job_runs_the_columnar_kernel_gate(self, workflow):
        # The columnar-kernel benchmark is a hard gate: if the compiled
        # layout path stops beating tuple-at-a-time enumeration >= 3x on
        # the mixed serving workload, CI fails.
        run_lines = [
            step.get("run", "")
            for step in workflow["jobs"]["bench-smoke"]["steps"]
        ]
        assert any("make bench-kernel" in line for line in run_lines)

    def test_test_matrix_has_a_pure_kernel_leg(self, workflow):
        # One matrix leg must run the whole suite with the kernel's
        # numpy backend disabled, proving the optional extra really is
        # optional (parity tests included).
        job = workflow["jobs"]["test"]
        matrix = job["strategy"]["matrix"]
        assert matrix.get("kernel") == ["numpy"]
        includes = matrix.get("include", [])
        assert any(
            entry.get("kernel") == "pure" for entry in includes
        ), "no pure-kernel matrix leg"
        test_steps = [
            step for step in job["steps"] if "make test" in step.get("run", "")
        ]
        assert test_steps, "test job never runs make test"
        env = test_steps[0].get("env", {})
        assert "REPRO_KERNEL_NO_NUMPY" in env, (
            "make test step does not thread REPRO_KERNEL_NO_NUMPY"
        )

    def test_lint_job_runs_the_docs_link_check(self, workflow):
        # Broken relative links in README/docs fail the cheapest job,
        # before any test matrix spins up.
        run_lines = [
            step.get("run", "")
            for step in workflow["jobs"]["lint"]["steps"]
        ]
        assert any("make docs-check" in line for line in run_lines)

    def test_lint_job_runs_the_deep_static_analysis(self, workflow):
        # The repo-specific rules (lock discipline, restart stability,
        # exception hygiene, shared aliasing, parity surface) gate the
        # same cheap job as ruff.
        run_lines = [
            step.get("run", "")
            for step in workflow["jobs"]["lint"]["steps"]
        ]
        assert any("make lint-deep" in line for line in run_lines)

    def test_lock_order_job_runs_the_instrumented_leg(self, workflow):
        # The dynamic deadlock detector: hammer tests re-run with every
        # engine lock wrapped, failing on acquisition-graph cycles.
        run_lines = [
            step.get("run", "")
            for step in workflow["jobs"]["lock-order"]["steps"]
        ]
        assert any("make test-lock-order" in line for line in run_lines)

    def test_bench_smoke_job_runs_the_dynamic_serving_gate(self, workflow):
        # The dynamic-serving benchmark is a hard gate: if delta-aware
        # serving stops beating rebuild-per-update >= 2x on the mixed
        # update+query stream, CI fails.
        run_lines = [
            step.get("run", "")
            for step in workflow["jobs"]["bench-smoke"]["steps"]
        ]
        assert any("make bench-dynamic" in line for line in run_lines)

    def test_bench_smoke_job_runs_the_repository_benchmark(self, workflow):
        # Every perfbench workload runs briefly in CI; a wrong answer or
        # a failed operation exits non-zero and fails the job.
        run_lines = [
            step.get("run", "")
            for step in workflow["jobs"]["bench-smoke"]["steps"]
        ]
        assert any("make perfbench-smoke" in line for line in run_lines)

    def test_bench_smoke_job_runs_the_trajectory_gate(self, workflow):
        # The trajectory gate runs after every speedup gate recorded its
        # measurement, folding them into the uploaded artifact.
        run_lines = [
            step.get("run", "")
            for step in workflow["jobs"]["bench-smoke"]["steps"]
        ]
        trend = [
            i for i, line in enumerate(run_lines) if "make bench-trend" in line
        ]
        assert trend, "bench-smoke job never runs make bench-trend"
        gates = [
            i
            for i, line in enumerate(run_lines)
            if re.search(
                r"make bench-(smoke|warm|stream|batch|reshard|adapt|kernel"
                r"|dynamic)\b",
                line,
            )
        ]
        assert gates and max(gates) < trend[0], (
            "bench-trend must run after every recording gate"
        )

    def test_workflow_cancels_superseded_runs(self, workflow):
        # A push to the same ref must cancel the stale run instead of
        # queueing behind it.
        concurrency = workflow.get("concurrency")
        assert isinstance(concurrency, dict), "no top-level concurrency block"
        group = str(concurrency.get("group", ""))
        assert "github.ref" in group
        # Main pushes group by run id so every main commit keeps its
        # verdict (and its trajectory artifact) instead of being
        # cancelled by the next merge.
        assert "github.run_id" in group
        assert concurrency.get("cancel-in-progress") is True

    def test_every_job_has_a_timeout(self, workflow):
        # A hung benchmark or a wedged pip must not hold a runner for the
        # default six hours.
        for name, job in workflow["jobs"].items():
            minutes = job.get("timeout-minutes")
            assert isinstance(minutes, int) and 0 < minutes <= 60, (
                f"job {name} has no sane timeout-minutes"
            )

    def test_every_setup_python_step_caches_pip(self, workflow):
        for name, job in workflow["jobs"].items():
            setups = [
                step
                for step in job["steps"]
                if "setup-python" in step.get("uses", "")
            ]
            assert setups, f"job {name} never sets up python"
            for step in setups:
                config = step.get("with", {})
                assert config.get("cache") == "pip", (
                    f"job {name}: setup-python step without pip caching"
                )
                assert config.get("cache-dependency-path") == (
                    "requirements-dev.txt"
                ), f"job {name}: pip cache not keyed on requirements-dev.txt"


class TestMakefileContract:
    def test_targets_the_workflow_relies_on_exist(self, make_targets):
        assert {
            "lint",
            "collect",
            "test",
            "bench-smoke",
            "bench-warm",
            "bench-stream",
        } <= make_targets

    def test_bench_smoke_writes_and_checks_the_report(self):
        text = MAKEFILE.read_text()
        assert "--benchmark-json" in text
        assert "check_smoke_report.py" in text

    def test_bench_warm_runs_the_snapshot_benchmark(self):
        # `make bench-warm` and the CI step must keep pointing at the
        # benchmark whose assertions actually gate warm-start behavior.
        text = MAKEFILE.read_text()
        target = text[text.index("bench-warm:"):]
        target = target[: target.index("\n\n")]
        assert "bench_snapshot_warmstart.py" in target
        assert "REPRO_BENCH_SMOKE=1" in target

    def test_bench_stream_runs_the_streaming_benchmark(self):
        # `make bench-stream` and the CI step must keep pointing at the
        # benchmark whose assertions gate top-k cursor serving.
        text = MAKEFILE.read_text()
        target = text[text.index("bench-stream:"):]
        target = target[: target.index("\n\n")]
        assert "bench_streaming_topk.py" in target
        assert "REPRO_BENCH_SMOKE=1" in target

    def test_targets_the_new_gates_rely_on_exist(self, make_targets):
        assert {
            "bench-batch",
            "bench-reshard",
            "bench-trend",
            "bench-adapt",
            "bench-kernel",
            "bench-dynamic",
            "docs-check",
            "lint-deep",
            "test-lock-order",
        } <= make_targets

    def test_bench_batch_runs_the_shared_scan_benchmark(self):
        text = MAKEFILE.read_text()
        target = text[text.index("bench-batch:"):]
        target = target[: target.index("\n\n")]
        assert "bench_shared_scan.py" in target
        assert "REPRO_BENCH_SMOKE=1" in target

    def test_bench_reshard_runs_the_resharding_benchmark(self):
        text = MAKEFILE.read_text()
        target = text[text.index("bench-reshard:"):]
        target = target[: target.index("\n\n")]
        assert "bench_resharding.py" in target
        assert "REPRO_BENCH_SMOKE=1" in target

    def test_bench_trend_runs_the_trajectory_checker(self):
        # The trend target must keep pointing at the checker and demand
        # all nine gates' records, or a silently skipped gate passes CI.
        text = MAKEFILE.read_text()
        target = text[text.index("bench-trend:"):]
        target = target[: target.index("\n\n")]
        assert "check_trend.py" in target
        assert re.search(r"GATE_COUNT\s*\?=\s*9\b", text)

    def test_bench_adapt_runs_the_adaptive_tuning_benchmark(self):
        text = MAKEFILE.read_text()
        target = text[text.index("bench-adapt:"):]
        target = target[: target.index("\n\n")]
        assert "bench_adaptive_tuning.py" in target
        assert "REPRO_BENCH_SMOKE=1" in target

    def test_bench_kernel_runs_the_columnar_kernel_benchmark(self):
        text = MAKEFILE.read_text()
        target = text[text.index("bench-kernel:"):]
        target = target[: target.index("\n\n")]
        assert "bench_columnar_kernel.py" in target
        assert "REPRO_BENCH_SMOKE=1" in target

    def test_bench_dynamic_runs_the_dynamic_serving_benchmark(self):
        text = MAKEFILE.read_text()
        target = text[text.index("bench-dynamic:"):]
        target = target[: target.index("\n\n")]
        assert "bench_dynamic_serving.py" in target
        assert "REPRO_BENCH_SMOKE=1" in target

    def test_perfbench_smoke_runs_every_declared_workload(self, make_targets):
        assert "perfbench-smoke" in make_targets
        text = MAKEFILE.read_text()
        target = text[text.index("perfbench-smoke:"):]
        target = target[: target.index("\n\n")]
        assert "perfbench/run.py" in target
        assert "--seconds 1" in target and "--trace 0" in target
        assert "|| exit 1" in target
        # The workload list is read from BENCHMARK.json, not copied.
        assert "BENCHMARK.json" in target

    def test_docs_check_runs_the_link_checker(self):
        text = MAKEFILE.read_text()
        target = text[text.index("docs-check:"):]
        target = target[: target.index("\n\n")]
        assert "check_docs_links.py" in target

    def test_docs_check_runs_the_metric_inventory_checker(self):
        # Metric-name drift between code and docs/OPERATIONS.md fails
        # the same gate as broken links.
        text = MAKEFILE.read_text()
        target = text[text.index("docs-check:"):]
        target = target[: target.index("\n\n")]
        assert "check_metric_docs.py" in target

    def test_lint_deep_runs_the_analysis_module(self):
        text = MAKEFILE.read_text()
        target = text[text.index("lint-deep:"):]
        target = target[: target.index("\n\n")]
        assert "-m repro.analysis" in target
        assert "src/repro" in target

    def test_lock_order_target_gates_on_the_env_flag(self):
        # REPRO_LOCK_ORDER=1 is what arms the conftest fixture; the
        # target must set it and include the concurrency hammer files
        # plus the detector's own suite.
        text = MAKEFILE.read_text()
        target = text[text.index("test-lock-order:"):]
        target = target[: target.index("\n\n")]
        assert "REPRO_LOCK_ORDER=1" in target
        for hammer in (
            "test_engine.py",
            "test_async_engine.py",
            "test_sharding.py",
            "test_elastic.py",
            "test_parallel_builds.py",
            "test_telemetry.py",
            "test_lock_order.py",
        ):
            assert hammer in target

    def test_ruff_is_configured(self):
        pyproject = (REPO / "pyproject.toml").read_text()
        assert "[tool.ruff]" in pyproject
        assert "[tool.ruff.format]" in pyproject


class TestSmokeReportGate:
    def test_accepts_a_healthy_report(self, tmp_path):
        report = tmp_path / "smoke.json"
        report.write_text(
            json.dumps(
                {
                    "benchmarks": [
                        {"name": "test_a", "stats": {"mean": 0.1}},
                        {"name": "test_b", "stats": {"mean": 0.2}},
                    ]
                }
            )
        )
        assert check_smoke_report(str(report), 2) == 0

    def test_rejects_missing_empty_and_errored_reports(self, tmp_path):
        assert check_smoke_report(str(tmp_path / "absent.json")) == 1
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"benchmarks": []}))
        assert check_smoke_report(str(empty)) == 1
        errored = tmp_path / "errored.json"
        errored.write_text(
            json.dumps({"benchmarks": [{"name": "test_a", "stats": {}}]})
        )
        assert check_smoke_report(str(errored)) == 1

    def test_gate_runs_as_a_script(self, tmp_path):
        report = tmp_path / "smoke.json"
        report.write_text(
            json.dumps({"benchmarks": [{"name": "t", "stats": {"mean": 1}}]})
        )
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO / "benchmarks" / "check_smoke_report.py"),
                str(report),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


def _write_gate(bench_dir, gate, speedup, threshold, **extra):
    bench_dir.mkdir(parents=True, exist_ok=True)
    payload = {"gate": gate, "speedup": speedup, "threshold": threshold}
    payload.update(extra)
    (bench_dir / f"gate-{gate}.json").write_text(json.dumps(payload))


class TestTrajectoryGate:
    """The perf-trajectory artifact: schema pinned, floors enforced."""

    GATES = (
        ("engine-cache", 12.0, 5.0),
        ("async-sharded", 3.1, 0.0),
        ("warm-start", 18.0, 5.0),
        ("streaming-topk", 40.0, 5.0),
        ("shared-scan-batch", 4.0, 3.0),
        ("resharding", 1.9, 1.3),
        ("adaptive-tuning", 1.9, 1.2),
        ("columnar-kernel", 4.0, 3.0),
        ("dynamic-serving", 8.0, 2.0),
    )

    def _write_all(self, bench_dir):
        for gate, speedup, threshold in self.GATES:
            _write_gate(bench_dir, gate, speedup, threshold, requests=7)

    def test_accepts_gates_above_their_floors_and_pins_the_schema(
        self, tmp_path
    ):
        bench = tmp_path / "bench"
        out = tmp_path / "trajectory.json"
        self._write_all(bench)
        assert check_trend(str(bench), str(out), 9) == 0
        trajectory = json.loads(out.read_text())
        # The schema CI consumers (and future PRs' diffs) rely on.
        assert set(trajectory) == {"schema", "commit", "gates"}
        assert trajectory["schema"] == 1
        assert isinstance(trajectory["commit"], str) and trajectory["commit"]
        gates = trajectory["gates"]
        assert [g["gate"] for g in gates] == sorted(
            name for name, _, _ in self.GATES
        )
        for record in gates:
            assert {"gate", "speedup", "threshold", "floor"} <= set(record)
            assert isinstance(record["speedup"], (int, float))
            assert isinstance(record["threshold"], (int, float))
            assert isinstance(record["floor"], (int, float))
        # Extra per-gate facts ride along untouched.
        assert all(record.get("requests") == 7 for record in gates)

    def test_fails_when_a_gate_drops_below_its_floor(self, tmp_path):
        bench = tmp_path / "bench"
        out = tmp_path / "trajectory.json"
        self._write_all(bench)
        _write_gate(bench, "shared-scan-batch", 2.4, 3.0)
        assert check_trend(str(bench), str(out), 9) == 1
        # The artifact is still written — it IS the diagnosis.
        assert json.loads(out.read_text())["gates"]

    def test_fails_when_a_gate_is_missing_or_malformed(self, tmp_path):
        bench = tmp_path / "bench"
        out = tmp_path / "trajectory.json"
        self._write_all(bench)
        (bench / "gate-warm-start.json").unlink()
        assert check_trend(str(bench), str(out), 9) == 1
        self._write_all(bench)
        (bench / "gate-warm-start.json").write_text('{"speedup": 1.0}')
        assert check_trend(str(bench), str(out), 9) == 1
        (bench / "gate-warm-start.json").write_text("not json")
        assert check_trend(str(bench), str(out), 9) == 1

    def test_fresh_checkout_seeds_floors_then_enforces_them(self, tmp_path):
        # First run, no prior trajectory: floors seed from the current
        # gate set (floor == static threshold) and the run still passes —
        # never a vacuous pass, never a missing-baseline failure.
        bench = tmp_path / "bench"
        out = tmp_path / "trajectory.json"
        self._write_all(bench)
        assert not out.exists()
        assert check_trend(str(bench), str(out), 9) == 0
        seeded = json.loads(out.read_text())["gates"]
        assert all(g["floor"] == g["threshold"] for g in seeded)
        # Second run against the seeded baseline: the same records still
        # pass, and the floors persist unchanged.
        assert check_trend(str(bench), str(out), 9) == 0
        again = json.loads(out.read_text())["gates"]
        assert [g["floor"] for g in again] == [g["floor"] for g in seeded]

    def test_floors_ratchet_and_catch_a_quiet_regression(self, tmp_path):
        # A prior trajectory that established a higher floor wins over
        # the record's static threshold: a gate that once cleared 3.5x
        # cannot quietly regress to its 3.0x threshold.
        bench = tmp_path / "bench"
        out = tmp_path / "trajectory.json"
        self._write_all(bench)
        prior = {
            "schema": 1,
            "commit": "deadbeef",
            "gates": [
                {"gate": "shared-scan-batch", "speedup": 3.6,
                 "threshold": 3.0, "floor": 3.5},
            ],
        }
        out.write_text(json.dumps(prior))
        _write_gate(bench, "shared-scan-batch", 3.2, 3.0)
        assert check_trend(str(bench), str(out), 9) == 1
        record = next(
            g
            for g in json.loads(out.read_text())["gates"]
            if g["gate"] == "shared-scan-batch"
        )
        assert record["floor"] == 3.5
        # Clearing the ratcheted floor passes again.
        _write_gate(bench, "shared-scan-batch", 3.7, 3.0)
        assert check_trend(str(bench), str(out), 9) == 0

    def test_malformed_baseline_reseeds_instead_of_crashing(self, tmp_path):
        bench = tmp_path / "bench"
        out = tmp_path / "trajectory.json"
        self._write_all(bench)
        for garbage in ("not json", "[]", '{"gates": [{"floor": "x"}]}'):
            out.write_text(garbage)
            assert check_trend(str(bench), str(out), 9) == 0
            assert json.loads(out.read_text())["gates"]

    def test_gate_records_are_written_by_the_bench_helper(
        self, tmp_path, monkeypatch
    ):
        import bench_reporting

        monkeypatch.setattr(bench_reporting, "BENCH_DIR", tmp_path / "b")
        path = bench_reporting.bench_record_gate(
            "engine-cache", 11.5, 5.0, requests=30
        )
        record = json.loads(path.read_text())
        assert record == {
            "gate": "engine-cache",
            "speedup": 11.5,
            "threshold": 5.0,
            "requests": 30,
        }

    def test_trend_checker_runs_as_a_script(self, tmp_path):
        bench = tmp_path / "bench"
        out = tmp_path / "trajectory.json"
        self._write_all(bench)
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO / "benchmarks" / "check_trend.py"),
                str(bench),
                str(out),
                "9",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert out.exists()
