"""Tests of the benchmark itself.  Run: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import run  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_declared_workloads_are_the_implemented_ones():
    assert {w["name"]: w["why"] for w in DECLARED["workloads"]} == {
        name: wl.why for name, wl in run.WORKLOADS.items()
    }
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += [w["name"] for w in DECLARED["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 for w in DECLARED["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench(
        "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = DECLARED["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in section
    }
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    printed = {line.split(" = ")[0] for line in lines if " = " in line}
    if trace:
        assert values["setup.scipy_imported"] == 1
        calls = {"mc_snr_sweep": 36, "mc_point_m8": 1}.get(workload, 0)
        assert values["montecarlo.simulate_asr.calls"] == calls
    else:
        assert all(v > 0 for v in values.values())
        assert "failed_frac = 0.0 ratio" in lines
        assert ("mc_trials_per_s" in printed) == (workload != "closed_form_grid")


def test_same_seed_same_inputs_and_digest():
    digests = []
    for _ in range(2):
        proc = _bench("--workload", "mc_point_m8", "--seed", "3", "--seconds", "0", "--trace", "0",
                      "--smoke")
        assert proc.returncode == 0, proc.stderr
        digests.append(next(l for l in proc.stdout.splitlines() if l.startswith("csv_sha256")))
    assert digests[0] == digests[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns(".work", "__pycache__")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=ignore)
    proc = _bench("--workload", "mc_snr_sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_hook_is_reported_as_missing_not_zero():
    hooks = (
        ("kernels.pair_rate_chunk", "json", "no_such_function", None),
        ("montecarlo.simulate_asr", "mwrnoma_no_such_module", "simulate_asr", None),
    )
    missing = child.install_hooks(child.Tracer(), hooks)
    assert missing == {"kernels.pair_rate_chunk", "montecarlo.simulate_asr"}
    metrics = child.layer_metrics([], {}, missing, run_s=1.0)
    for name, value in metrics.items():
        if name.startswith(("kernels.", "montecarlo.")):
            assert value == child.MISSING, name
        else:
            assert value == 0, name
    assert run._median([child.MISSING, 1.0]) == child.MISSING


def test_self_time_excludes_children_across_threads():
    spans = [
        ("montecarlo.simulate_asr", 0.0, 10.0, 1, None, 18.0),
        ("kernels.pair_rate_chunk", 1.0, 4.0, 2, 0, 3.0),
        ("kernels.pair_rate_chunk", 2.0, 6.0, 3, 0, 4.0),
    ]
    totals = child.span_totals(spans)
    assert totals["montecarlo.simulate_asr"]["self"] == pytest.approx(5.0)
    assert totals["kernels.pair_rate_chunk"] == {"calls": 2, "wall": 7.0, "self": 7.0, "cpu": 7.0}


def test_import_times_attribute_nested_numpy_to_scipy():
    text = "\n".join(
        "import time: %s | %s | %s" % row
        for row in [
            ("self [us]", "cumulative", "imported package"),
            ("10", "100", "        numpy.core"),
            ("5", "105", "      numpy"),
            ("1", "106", "    mwrnoma._kernels"),
            ("20", "20", "          numpy.f2py"),
            ("30", "50", "        scipy.special"),
            ("40", "90", "      scipy"),
            ("2", "92", "    mwrnoma.channel"),
            ("3", "201", "  mwrnoma"),
            ("4", "205", " mwrnoma.cli"),
        ]
    )
    assert run._import_tree_times(text) == pytest.approx(
        {"numpy": 105e-6, "scipy": 90e-6, "mwrnoma": 205e-6}
    )


def test_corrupted_csv_counts_as_failed(tmp_path, monkeypatch, capsys):
    """The first run writes a surface with a non-finite rate, the second a good one."""
    monkeypatch.setattr(run, "WORK", tmp_path)
    spawned = []

    def fake_spawn(cmd, env, log_path):
        log_path.write_text("")
        if "-c" in cmd:  # the warm-up import
            return run.Spawned(0, 0.0, 0.5, 50.0)
        value = "nan" if not spawned else "5.32074653"
        spawned.append(cmd)
        for name, rate in (("closed_form_grid", value), ("closed_form_grid_oma", "1.5")):
            rows = [f"{x},{y},{rate}" for x in range(9) for y in range(9)]
            (tmp_path / "closed_form_grid" / f"{name}.csv").write_text(
                "\n".join([",".join(run.PLACEMENT_HEADER), *rows]) + "\n"
            )
        Path(cmd[2]).write_text(json.dumps({
            "rc": 0, "scipy_imported": 1, "versions": {},
            "marks": {"setup_end": 1.0, "main_end": 2.0},
        }))
        return run.Spawned(0, 0.0, 2.5, 100.0)

    monkeypatch.setattr(run, "spawn", fake_spawn)
    argv = ["--workload", "closed_form_grid", "--seed", "1", "--seconds", "0", "--trace", "0"]
    rc = run.main([*argv, "--smoke"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert rc == 1 and len(spawned) == 2
    assert result["correct"] is False
    assert result["attempted"] == 2 and result["failed"] == 1
    assert "failed_frac = 0.5 ratio" in lines
    assert any(line.startswith("check failed:") and "not finite" in line for line in lines)
