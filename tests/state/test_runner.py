"""Unit tests: grid specs, the write-ahead journal, and the sweep runner.

These tests use cheap registered point runners (no simulation) so the
journal/watchdog/quarantine mechanics are exercised in milliseconds;
the chaos-grid integration lives in ``test_kill_resume.py`` and the
``state.wal_resume`` audit check.
"""

import json
import time

import pytest

from repro.faults.resilience import RetryPolicy
from repro.state import (
    StateIntegrityError,
    StateJournalError,
    StateSchemaError,
    StateValueError,
)
from repro.state.points import point_runner
from repro.state.runner import (
    GridPoint,
    SweepRunner,
    SweepSpec,
    read_journal,
)

_CALLS = []


@point_runner("test_echo")
def _echo(params, context):
    _CALLS.append(params["tag"])
    return {"tag": params["tag"], "value": params.get("value", 0)}


@point_runner("test_fail_times")
def _fail_times(params, context):
    """Fail the first ``fails`` attempts, then succeed."""
    _CALLS.append(params["tag"])
    if _CALLS.count(params["tag"]) <= params["fails"]:
        raise RuntimeError("transient")
    return {"tag": params["tag"]}


@point_runner("test_sleep")
def _sleepy(params, context):
    time.sleep(params["sleep_s"])
    return {"tag": params["tag"]}


def _grid(*tags, runner="test_echo", **spec_kwargs):
    points = tuple(
        GridPoint(index, tag, runner, {"tag": tag}) for index, tag
        in enumerate(tags))
    return SweepSpec(points=points, **spec_kwargs)


@pytest.fixture(autouse=True)
def _reset_calls():
    del _CALLS[:]


class TestSpecValidation:
    def test_indices_must_be_contiguous(self):
        with pytest.raises(StateSchemaError, match="contiguous"):
            SweepSpec(points=(GridPoint(1, "a", "test_echo"),))

    def test_keys_must_be_unique(self):
        with pytest.raises(StateSchemaError, match="unique"):
            SweepSpec(points=(GridPoint(0, "a", "test_echo"),
                              GridPoint(1, "a", "test_echo")))

    def test_empty_grid_refused(self):
        with pytest.raises(StateSchemaError, match="at least one"):
            SweepSpec(points=())

    def test_nan_params_refused_early(self):
        point = GridPoint(0, "a", "test_echo", {"x": float("nan")})
        with pytest.raises(StateValueError, match=r"\$\.points"):
            SweepSpec(points=(point,))

    def test_bad_supervision_knobs_refused(self):
        with pytest.raises(StateValueError):
            _grid("a", checkpoint_every_s=-1.0)
        with pytest.raises(StateValueError):
            _grid("a", point_timeout_s=0.0)
        with pytest.raises(StateValueError):
            _grid("a", max_attempts=0)

    def test_spec_roundtrips_through_state(self):
        spec = _grid("a", "b", prune_field="done", checkpoint_every_s=2.0,
                     point_timeout_s=5.0, max_attempts=2, retry_seed=9)
        assert SweepSpec.from_state(
            json.loads(json.dumps(spec.to_state()))) == spec


class TestJournal:
    def test_torn_final_line_is_recoverable(self, tmp_path):
        wal = tmp_path / "results.jsonl"
        wal.write_text('{"index": 0}\n{"index": 1}\n{"index": 2, "ke')
        assert [r["index"] for r in read_journal(wal)] == [0, 1]

    def test_mid_file_corruption_raises(self, tmp_path):
        wal = tmp_path / "results.jsonl"
        wal.write_text('{"index": 0}\nnot json at all\n{"index": 2}\n')
        with pytest.raises(StateJournalError, match="line 2"):
            read_journal(wal)

    def test_non_object_line_raises(self, tmp_path):
        wal = tmp_path / "results.jsonl"
        wal.write_text('[1, 2]\n{"index": 1}\n')
        with pytest.raises(StateJournalError, match="not a JSON object"):
            read_journal(wal)

    def test_missing_journal_is_empty(self, tmp_path):
        assert read_journal(tmp_path / "absent.jsonl") == []

    def test_duplicate_and_unknown_rows_refused(self, tmp_path):
        runner = SweepRunner.create(tmp_path / "run", _grid("a"))
        runner.results_path.write_text(
            '{"index": 0, "key": "a", "row": {}}\n'
            '{"index": 0, "key": "a", "row": {}}\n')
        with pytest.raises(StateJournalError, match="duplicate"):
            runner.completed()
        runner.results_path.write_text(
            '{"index": 5, "key": "ghost", "row": {}}\n')
        with pytest.raises(StateJournalError, match="unknown point"):
            runner.completed()


class TestRunner:
    def test_run_journals_every_row_then_resumes_nothing(self, tmp_path):
        runner = SweepRunner.create(tmp_path / "run", _grid("a", "b", "c"))
        rows = runner.run()
        assert [rows[i]["tag"] for i in sorted(rows)] == ["a", "b", "c"]
        assert _CALLS == ["a", "b", "c"]
        reopened = SweepRunner.open(tmp_path / "run")
        assert reopened.spec == runner.spec
        assert reopened.pending() == []
        reopened.run()
        assert _CALLS == ["a", "b", "c"], "resume re-ran completed points"

    def test_max_points_interrupt_then_resume(self, tmp_path):
        runner = SweepRunner.create(tmp_path / "run", _grid("a", "b"))
        first = runner.run(max_points=1)
        assert sorted(first) == [0]
        merged = SweepRunner.open(tmp_path / "run").run()
        assert sorted(merged) == [0, 1]

    def test_on_row_streams_in_execution_order(self, tmp_path):
        seen = []
        runner = SweepRunner.create(tmp_path / "run", _grid("a", "b"))
        runner.run(on_row=lambda point, row: seen.append(point.key))
        assert seen == ["a", "b"]

    def test_create_refuses_mismatched_spec(self, tmp_path):
        SweepRunner.create(tmp_path / "run", _grid("a", "b"))
        with pytest.raises(StateIntegrityError, match="different sweep"):
            SweepRunner.create(tmp_path / "run", _grid("a", "z"))

    def test_open_refuses_non_run_directory(self, tmp_path):
        with pytest.raises(StateSchemaError, match="not a sweep run"):
            SweepRunner.open(tmp_path / "nowhere")

    def test_transient_failure_retries_with_seeded_backoff(self, tmp_path):
        spec = SweepSpec(points=(
            GridPoint(0, "flaky", "test_fail_times",
                      {"tag": "flaky", "fails": 1}),), max_attempts=3,
            retry_seed=4)
        sleeps = []
        rows = SweepRunner.create(tmp_path / "run", spec).run(
            sleep=sleeps.append)
        assert rows[0] == {"tag": "flaky"}
        assert sleeps == [RetryPolicy(timeout_s=1.0, max_attempts=3,
                                      seed=4).backoff_s(0, 1)]

    def test_exhausted_point_quarantined_not_fatal(self, tmp_path):
        spec = SweepSpec(points=(
            GridPoint(0, "doomed", "test_fail_times",
                      {"tag": "doomed", "fails": 99}),
            GridPoint(1, "fine", "test_echo", {"tag": "fine"}),
        ), max_attempts=2)
        runner = SweepRunner.create(tmp_path / "run", spec)
        rows = runner.run(sleep=lambda s: None)
        assert sorted(rows) == [1]
        entry = runner.quarantined()[0]
        assert entry["attempts"] == 2 and "RuntimeError" in entry["error"]
        # Quarantine is durable: a resumed run does not retry the point.
        del _CALLS[:]
        SweepRunner.open(tmp_path / "run").run(sleep=lambda s: None)
        assert _CALLS == []

    def test_in_memory_run_touches_no_disk(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rows = SweepRunner(None, _grid("a", "b")).run()
        assert list(rows) == [0, 1]
        assert [row["tag"] for row in rows.values()] == ["a", "b"]
        assert list(tmp_path.iterdir()) == []

    def test_in_memory_failure_raises_not_quarantines(self):
        spec = SweepSpec(points=(
            GridPoint(0, "flaky", "test_fail_times",
                      {"tag": "flaky", "fails": 1}),), max_attempts=3)
        sleeps = []
        with pytest.raises(RuntimeError, match="transient"):
            SweepRunner(None, spec).run(sleep=sleeps.append)
        assert sleeps == []

    @pytest.mark.parametrize("knob", [{"checkpoint_every_s": 1.0},
                                      {"point_timeout_s": 5.0}])
    def test_in_memory_refuses_run_dir_knobs(self, knob):
        with pytest.raises(StateValueError, match="run directory"):
            SweepRunner(None, _grid("a", **knob))

    def test_unknown_runner_name_fails_with_roster(self, tmp_path):
        spec = SweepSpec(points=(GridPoint(0, "a", "no_such_runner"),),
                         max_attempts=1)
        runner = SweepRunner.create(tmp_path / "run", spec)
        runner.run(sleep=lambda s: None)
        assert "no_such_runner" in runner.quarantined()[0]["error"]

    def test_group_pruning_skips_later_points_across_resume(self, tmp_path):
        points = tuple(
            GridPoint(index, f"p{index}", "test_echo",
                      {"tag": f"p{index}", "value": int(index >= 1)},
                      group="g")
            for index in range(3))
        spec = SweepSpec(points=points, prune_field="value")
        runner = SweepRunner.create(tmp_path / "run", spec)
        rows = runner.run()
        # p0 does not satisfy the prune field, p1 does -> p2 skipped.
        assert sorted(rows) == [0, 1]
        assert SweepRunner.open(tmp_path / "run").pending() == []

    def test_watchdog_times_out_hung_point(self, tmp_path):
        spec = SweepSpec(points=(
            GridPoint(0, "hang", "test_sleep",
                      {"tag": "hang", "sleep_s": 30.0}),),
            point_timeout_s=0.2, max_attempts=1)
        runner = SweepRunner.create(tmp_path / "run", spec)
        started = time.perf_counter()
        rows = runner.run(sleep=lambda s: None)
        assert time.perf_counter() - started < 10.0
        assert rows == {}
        assert "TimeoutError" in runner.quarantined()[0]["error"]

    def test_watchdog_passes_healthy_rows_through(self, tmp_path):
        spec = SweepSpec(points=(
            GridPoint(0, "quick", "test_sleep",
                      {"tag": "quick", "sleep_s": 0.0}),),
            point_timeout_s=30.0, max_attempts=1)
        rows = SweepRunner.create(tmp_path / "run", spec).run()
        assert rows[0] == {"tag": "quick"}
