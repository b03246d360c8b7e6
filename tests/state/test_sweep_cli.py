"""One sweep path: the registered grids and the CLIs that run them.

Every sweep command prints the same output with or without a run
directory — fresh, and again on a fully journaled rerun — apart from
the run-dir status line.  The flags that only make sense with a run
directory are refused without one, and a run directory without a
sweep to journal is refused too.  Every sweep flag reaches the
simulation, and run directories journaled before a grid param existed
still finish.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from repro.state import SweepRunner, SweepSpec, capacity_grid, chaos_grid

REPO = Path(__file__).resolve().parents[2]


def _load_cli(name: str):
    spec = importlib.util.spec_from_file_location(
        f"{name}_cli", REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CLIS = {name: _load_cli(name) for name in ("fleet", "chaos")}


def _run(capsys, cli: str, argv: list[str]) -> str:
    assert CLIS[cli].main(argv) == 0
    return capsys.readouterr().out


def _without_status(output: str) -> tuple[str, list[str]]:
    lines = output.splitlines(keepends=True)
    status = [line for line in lines if line.startswith("run dir ")]
    rest = "".join(line for line in lines if not line.startswith("run dir "))
    return rest, status


@pytest.mark.parametrize("cli, argv", [
    ("fleet", ["sweep"]),
    ("fleet", ["sweep", "--arrivals", "poisson"]),
    ("fleet", ["sweep", "--percentile", "50"]),
    ("fleet", ["sweep", "--phased-boot"]),
    ("fleet", ["sweep", "--admission-lookahead", "4",
               "--router", "round-robin"]),
    ("chaos", ["sweep", "--mtbf", "12,6,3", "--max-attempts", "2"]),
    ("fleet", ["boot", "--tax"]),
], ids=lambda value: value if isinstance(value, str) else " ".join(value))
def test_resume_output_equals_plain_output(capsys, tmp_path, cli, argv):
    plain = _run(capsys, cli, argv)
    run_dir = ["--resume", str(tmp_path / "run")]
    fresh, fresh_status = _without_status(_run(capsys, cli, argv + run_dir))
    rerun, rerun_status = _without_status(_run(capsys, cli, argv + run_dir))
    assert fresh == plain
    assert rerun == plain, "a fully journaled rerun printed other rows"
    assert len(fresh_status) == len(rerun_status) == 1
    assert " 0 to go" in rerun_status[0]


@pytest.mark.parametrize("cli, argv", [
    ("fleet", ["sweep", "--point-timeout", "5"]),
    ("fleet", ["boot", "--tax", "--point-timeout", "5"]),
    ("chaos", ["sweep", "--point-timeout", "5"]),
    ("chaos", ["sweep", "--checkpoint-every", "2"]),
    ("fleet", ["boot", "--resume", "unused-run-dir"]),
])
def test_run_dir_flags_refused_out_of_place(capsys, cli, argv):
    with pytest.raises(SystemExit) as exit_info:
        CLIS[cli].main(argv)
    assert exit_info.value.code == 2
    assert "--resume" in capsys.readouterr().err


def _rows(spec) -> list[dict]:
    return list(SweepRunner(None, spec).run().values())


def test_max_attempts_reaches_the_chaos_fleet():
    def shed(max_attempts: int) -> int:
        spec = chaos_grid(kinds=("tdx",), mtbf_grid_s=(6.0,),
                          max_attempts=max_attempts)
        return _rows(spec)[0]["shed"]

    assert shed(4) == 0
    assert shed(1) > 0


def test_repeated_grid_values_run_once():
    assert len(chaos_grid(kinds=("tdx", "tdx"),
                          mtbf_grid_s=(None, 6.0, 6.0)).points) == 2
    assert len(capacity_grid(kinds=("tdx", "tdx"),
                             max_replicas=2).points) == 2


def test_router_reaches_the_capacity_fleet():
    def tails(router: str) -> list[float]:
        spec = capacity_grid(kinds=("tdx",), max_replicas=2, router=router)
        return [row["p99_ttft_s"] for row in _rows(spec)]

    assert tails("round-robin") != tails("least-outstanding")


@pytest.mark.parametrize("grid, new_params", [
    (chaos_grid(kinds=("tdx",), mtbf_grid_s=(None, 6.0), num_requests=8),
     {"max_attempts"}),
    (capacity_grid(kinds=("tdx",), max_replicas=2),
     {"percentile", "phased_boot", "admission_lookahead", "router"}),
], ids=["chaos_mtbf", "fleet_capacity"])
def test_run_dir_without_new_params_finishes(tmp_path, grid, new_params):
    """A run dir journaled before the new grid params existed resumes
    with each absent param read as its old implied value."""
    older = SweepSpec(points=tuple(
        replace(point, params={key: value for key, value
                               in point.params.items()
                               if key not in new_params})
        for point in grid.points))
    SweepRunner.create(tmp_path / "run", older).run(max_points=1)
    rows = SweepRunner.open(tmp_path / "run").run()
    assert list(rows.values()) == _rows(grid)
