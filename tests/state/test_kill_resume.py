"""Kill-and-resume integration: a SIGKILLed sweep finishes identically.

Two tiers: the tier-1 test forks a child that completes one point of a
cheap grid and SIGKILLs itself, then resumes in-process and compares
journal bytes against an uninterrupted twin.  The ``slow``-marked test
is the full acceptance path — a real ``scripts/chaos.py sweep --resume``
subprocess is SIGKILLed mid-grid and ``scripts/resume.py`` finishes it;
the merged rows must equal an uninterrupted sweep's and reproduce the
committed ``golden.chaos_mtbf`` series exactly.
"""

import json
import os
import signal
import subprocess
import sys
import time
from multiprocessing import get_context
from pathlib import Path

import pytest

from repro.state.points import chaos_grid, point_runner
from repro.state.runner import GridPoint, RESULTS_FILE, SweepRunner, SweepSpec

REPO = Path(__file__).resolve().parents[2]
SCRIPTS = REPO / "scripts"


@point_runner("test_kill_echo")
def _kill_echo(params, context):
    return {"tag": params["tag"], "square": params["n"] * params["n"]}


def _cheap_spec() -> SweepSpec:
    return SweepSpec(points=tuple(
        GridPoint(index, f"p{index}", "test_kill_echo",
                  {"tag": f"p{index}", "n": index})
        for index in range(3)))


def test_sigkilled_run_resumes_byte_identically(tmp_path):
    """Fork, journal one point, SIGKILL; resume matches an unkilled twin."""
    interrupted = tmp_path / "interrupted"
    SweepRunner.create(interrupted, _cheap_spec())

    def victim() -> None:
        SweepRunner.open(interrupted).run(max_points=1)
        os.kill(os.getpid(), signal.SIGKILL)

    child = get_context("fork").Process(target=victim)
    child.start()
    child.join(30)
    assert child.exitcode == -signal.SIGKILL

    runner = SweepRunner.open(interrupted)
    assert sorted(runner.completed()) == [0], "kill lost the journaled point"
    assert sorted(runner.run()) == [0, 1, 2]

    twin = tmp_path / "twin"
    SweepRunner.create(twin, _cheap_spec()).run()
    assert (interrupted / RESULTS_FILE).read_bytes() \
        == (twin / RESULTS_FILE).read_bytes()


def _golden_series(rows: list[dict]) -> dict[str, float]:
    """Rows -> the ``golden.chaos_mtbf`` series keys (same flattening)."""
    series: dict[str, float] = {}
    for row in rows:
        label = "inf" if row["mtbf_s"] is None else f"{row['mtbf_s']:g}s"
        prefix = f"{row['kind']}/mtbf_{label}"
        series[f"{prefix}/slo_attainment"] = row["slo_attainment"]
        if row["usd_per_mtok"] is not None:
            series[f"{prefix}/usd_per_mtok"] = row["usd_per_mtok"]
        series[f"{prefix}/retries"] = float(row["retries"])
        series[f"{prefix}/wasted_tokens"] = float(row["wasted_tokens"])
        series[f"{prefix}/shed"] = float(row["shed"])
    return series


@pytest.mark.slow
def test_sigkilled_chaos_sweep_resumes_to_golden(tmp_path):
    """Acceptance: SIGKILL a chaos sweep subprocess mid-grid, resume via
    scripts/resume.py, and reproduce the golden chaos_mtbf grid exactly."""
    run_dir = tmp_path / "run"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    sweep = subprocess.Popen(
        [sys.executable, str(SCRIPTS / "chaos.py"), "sweep",
         "--resume", str(run_dir)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    # Kill as soon as the first point lands in the WAL: with ~5 of the 6
    # default grid points still to run, the SIGKILL lands mid-grid.
    wal = run_dir / RESULTS_FILE
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline and sweep.poll() is None:
        if wal.exists() and wal.read_bytes().count(b"\n") >= 1:
            break
        time.sleep(0.002)
    journaled_at_kill = (wal.read_bytes().count(b"\n")
                         if wal.exists() else 0)
    sweep.kill()
    sweep.wait(30)
    assert sweep.returncode == -signal.SIGKILL, \
        "sweep finished before the kill landed; grid too fast to interrupt"
    assert 1 <= journaled_at_kill < 6, journaled_at_kill

    merged_path = tmp_path / "merged.json"
    resume = subprocess.run(
        [sys.executable, str(SCRIPTS / "resume.py"), str(run_dir),
         "--json", str(merged_path)],
        env=env, capture_output=True, text=True, timeout=240)
    assert resume.returncode == 0, resume.stderr
    merged = json.loads(merged_path.read_text())

    unjournaled = SweepRunner(None, chaos_grid()).run().values()
    expected = json.loads(json.dumps(list(unjournaled)))
    assert merged == expected, "resumed rows diverged from a clean sweep"

    golden = json.loads(
        (REPO / "src/repro/validate/golden_data/chaos_mtbf.json")
        .read_text())
    assert _golden_series(merged) == golden["series"]
