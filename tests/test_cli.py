"""CLI: config ingestion, CSV contracts, determinism, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mwrnoma
from mwrnoma import _kernels
from mwrnoma.cli import (
    KAPPA_HEADER,
    MOMENTS_HEADER,
    PLACEMENT_HEADER,
    SNR_HEADER,
    load_spec,
    main,
    run,
)
from mwrnoma.errors import ConfigurationError


def tiny_snr_config(tmp_path, **extra):
    config = {
        "network": {"n_users": 3, "a": [0.5, 0.3, 0.2], "power_ratio_n": 1.0},
        "fading": {"alpha": 2, "beta": 3.0, "nu": 3.0, "distances": [1.0, 1.0, 1.0]},
        "impairments": {"kappa_ut": 0.0, "kappa_ur": 0.0, "kappa_rt": 0.0, "kappa_rr": 0.0},
        "trials": {"trials": 2000, "seed": 77, "workers": 1},
        "experiment": {
            "kind": "snr-sweep",
            "snr_db": [0.0, 15.0, 30.0],
            "schemes": ["noma", "oma"],
            "engine": "both",
            "output": str(tmp_path / "sweep.csv"),
        },
    }
    for key, value in extra.items():
        config[key].update(value)
    return config


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSpecLoading:
    def test_preset_alone(self):
        spec = load_spec(preset_name="fig3")
        assert spec.kind == "kappa-sweep"
        assert spec.network.n_users == 4
        assert spec.kappa_grid == tuple(pytest.approx(v) for v in
                                        (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3))

    def test_config_overrides_preset(self, tmp_path):
        path = write_config(
            tmp_path,
            {"network": {"n_users": 5, "a": [0.5, 0.2, 0.15, 0.1, 0.05]},
             "fading": {"distances": [1.0] * 5}},
        )
        spec = load_spec(config_path=path, preset_name="fig3")
        assert spec.network.n_users == 5

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError, match="unknown preset"):
            load_spec(preset_name="fig9")

    def test_missing_key_named(self, tmp_path):
        config = tiny_snr_config(tmp_path)
        del config["experiment"]["snr_db"]
        with pytest.raises(ConfigurationError, match="experiment.snr_db"):
            load_spec(config_path=write_config(tmp_path, config))

    def test_neither_config_nor_preset(self):
        with pytest.raises(ConfigurationError):
            load_spec()

    def test_one_sweep_dimension_enforced(self, tmp_path):
        config = tiny_snr_config(tmp_path)
        config["experiment"]["kind"] = "kappa-sweep"
        config["experiment"]["kappa"] = {"start": 0.0, "stop": 0.2, "step": 0.1}
        # snr_db stays a list -> ambiguous sweep
        with pytest.raises(ConfigurationError):
            load_spec(config_path=write_config(tmp_path, config))

    def test_workers_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MWRNOMA_WORKERS", "6")
        spec = load_spec(config_path=write_config(tmp_path, tiny_snr_config(tmp_path)))
        assert spec.trials.workers == 6

    def test_power_ratio_maps_to_c(self, tmp_path):
        config = tiny_snr_config(tmp_path, network={"power_ratio_n": 2.0})
        spec = load_spec(config_path=write_config(tmp_path, config))
        assert spec.network.c == pytest.approx(0.5)

    @pytest.mark.parametrize("key", ["sigma_r2", "sigma_t2"])
    def test_noise_variances_must_be_positive(self, tmp_path, capsys, key):
        # they fix c = sigma_r2 / (power_ratio_n * sigma_t2)
        config = tiny_snr_config(tmp_path, network={key: 0.0})
        assert main(["run", "--config", str(write_config(tmp_path, config))]) == 2
        err = capsys.readouterr().err
        assert err == f"error: config: network.{key}: must be finite and > 0, got 0.0\n"


class TestSnrSweep:
    def test_csv_contract(self, tmp_path):
        spec = load_spec(config_path=write_config(tmp_path, tiny_snr_config(tmp_path)))
        result = run(spec)
        rows = read_rows(spec.output)
        assert list(rows[0].keys()) == SNR_HEADER
        assert len(rows) == 3 * 2  # grid points x schemes
        # 9-significant-digit round trip: re-formatting parsed values is lossless
        for row in rows:
            for col in ("asr_analytical", "asr_mc", "mc_stderr"):
                assert f"{float(row[col]):.9g}" == row[col]
        # re-summing the file reproduces the reported totals exactly
        totals = {}
        for row in rows:
            key = f"{row['scheme']}/{row['condition']}"
            totals[key] = totals.get(key, 0.0) + float(row["asr_analytical"])
        assert totals == result.reported_totals

    def test_analytical_engine_leaves_mc_blank(self, tmp_path):
        config = tiny_snr_config(tmp_path)
        config["experiment"]["engine"] = "analytical"
        spec = load_spec(config_path=write_config(tmp_path, config))
        run(spec)
        for row in read_rows(spec.output):
            assert row["asr_mc"] == "" and row["mc_stderr"] == ""

    def test_byte_identical_across_worker_counts(self, tmp_path):
        blobs = []
        for workers in (1, 4, 8):
            config = tiny_snr_config(tmp_path, trials={"workers": workers})
            config["experiment"]["output"] = str(tmp_path / f"w{workers}.csv")
            run(load_spec(config_path=write_config(tmp_path, config, f"c{workers}.json")))
            blobs.append((tmp_path / f"w{workers}.csv").read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_variant_conditions_labelled(self, tmp_path):
        config = tiny_snr_config(tmp_path)
        config["impairments"] = {
            "variants": {
                "ideal": {},
                "transceiver-rhi": {"kappa_ut": 0.2, "kappa_ur": 0.2,
                                    "kappa_rt": 0.2, "kappa_rr": 0.2},
            }
        }
        config["experiment"]["schemes"] = ["noma"]
        config["experiment"]["engine"] = "analytical"
        spec = load_spec(config_path=write_config(tmp_path, config))
        run(spec)
        rows = read_rows(spec.output)
        assert {r["condition"] for r in rows} == {"ideal", "transceiver-rhi"}
        by_cond = {}
        for r in rows:
            by_cond.setdefault(r["condition"], []).append(float(r["asr_analytical"]))
        assert all(i > t for i, t in zip(by_cond["ideal"], by_cond["transceiver-rhi"]))


class TestKappaSweep:
    def test_monotone_columns(self, tmp_path):
        config = {
            "network": {"n_users": 3, "a": [0.5, 0.3, 0.2]},
            "fading": {"alpha": 2, "beta": 3.0, "nu": 3.0, "distances": [1.0] * 3},
            "experiment": {
                "kind": "kappa-sweep",
                "snr_db": 30.0,
                "kappa": {"start": 0.0, "stop": 0.2, "step": 0.05},
                "schemes": ["noma", "oma"],
                "engine": "analytical",
                "output": str(tmp_path / "kappa.csv"),
            },
        }
        spec = load_spec(config_path=write_config(tmp_path, config))
        run(spec)
        rows = read_rows(spec.output)
        assert list(rows[0].keys()) == KAPPA_HEADER
        for scheme in ("noma", "oma"):
            values = [float(r["asr_analytical"]) for r in rows if r["scheme"] == scheme]
            assert all(x > y for x, y in zip(values, values[1:]))


class TestPlacementSweep:
    def test_one_file_per_scheme(self, tmp_path):
        config = {
            "network": {"n_users": 4, "a": [0.5, 0.3, 0.15, 0.05]},
            "fading": {"alpha": 2, "beta": 3.0, "nu": 3.0},
            "geometry": {"users": [[5, 5], [5, -5], [-5, 5], [-5, -5]], "height": 10.0},
            "experiment": {
                "kind": "placement-sweep",
                "snr_db": 30.0,
                "grid": {"x_min": -4.0, "x_max": 4.0, "y_min": -4.0, "y_max": 4.0, "step": 2.0},
                "schemes": ["noma", "oma"],
                "engine": "analytical",
                "output": str(tmp_path / "surface.csv"),
            },
        }
        spec = load_spec(config_path=write_config(tmp_path, config))
        result = run(spec)
        assert len(result.csv_paths) == 2
        noma_rows = read_rows(result.csv_paths[0])
        oma_rows = read_rows(result.csv_paths[1])
        assert list(noma_rows[0].keys()) == PLACEMENT_HEADER
        assert len(noma_rows) == 25
        assert result.csv_paths[1].name == "surface_oma.csv"
        paired = zip(noma_rows, oma_rows)
        assert all(float(n["asr"]) > float(o["asr"]) for n, o in paired)
        # round trip on reported totals
        assert result.reported_totals["noma"] == pytest.approx(
            math.fsum(float(r["asr"]) for r in noma_rows), abs=0.0
        )

    def test_both_engine_rejected(self, tmp_path):
        config = {
            "network": {"n_users": 4, "a": [0.5, 0.3, 0.15, 0.05]},
            "fading": {"alpha": 2, "beta": 3.0, "nu": 3.0},
            "geometry": {"users": [[5, 5], [5, -5], [-5, 5], [-5, -5]], "height": 10.0},
            "experiment": {
                "kind": "placement-sweep",
                "snr_db": 30.0,
                "grid": {"step": 2.0},
                "engine": "both",
                "output": str(tmp_path / "x.csv"),
            },
        }
        with pytest.raises(ConfigurationError, match="single engine"):
            load_spec(config_path=write_config(tmp_path, config))


class TestMomentsCheck:
    def test_table_and_tolerances(self, tmp_path):
        config = {
            "network": {"n_users": 3, "a": [0.5, 0.3, 0.2]},
            "fading": {"alpha": 2, "beta": 3.0, "nu": 3.0, "distances": [1.0] * 3},
            "trials": {"trials": 1, "seed": 5},
            "experiment": {
                "kind": "moments-check",
                "mc_samples": 50_000,
                "output": str(tmp_path / "moments.csv"),
            },
        }
        spec = load_spec(config_path=write_config(tmp_path, config))
        run(spec)
        rows = read_rows(spec.output)
        assert list(rows[0].keys()) == MOMENTS_HEADER
        assert len(rows) == 3
        for row in rows:
            closed, quad = float(row["psi_closed"]), float(row["psi_quadrature"])
            assert abs(closed - quad) / quad < 1e-3
            mc, se = float(row["psi_mc"]), float(row["psi_mc_stderr"])
            assert abs(mc - closed) < 4 * se


class TestMain:
    def test_preset_run_exit_zero(self, tmp_path, capsys):
        code = main([
            "run", "--preset", "fig3", "--trials", "500",
            "--engine", "analytical", "--output", str(tmp_path / "fig3.csv"),
        ])
        assert code == 0
        assert (tmp_path / "fig3.csv").exists()
        assert "kappa-sweep" in capsys.readouterr().out

    def test_invalid_json_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad)]) == 2
        assert "error: config:" in capsys.readouterr().err

    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
        assert "error: config:" in capsys.readouterr().err

    def test_validation_error_exit_two(self, tmp_path, capsys):
        config = tiny_snr_config(tmp_path, network={"a": [0.6, 0.3, 0.2]})
        assert main(["run", "--config", str(write_config(tmp_path, config))]) == 2
        err = capsys.readouterr().err
        assert "error: config:" in err and "network" in err

    def test_unrepresentable_snr_point_exit_two(self, tmp_path, capsys):
        config = tiny_snr_config(tmp_path)
        config["experiment"]["snr_db"] = [0.0, 3100.0]
        assert main(["run", "--config", str(write_config(tmp_path, config))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: experiment.snr_db")
        assert err.count("\n") == 1

    def test_extreme_snr_writes_finite_rows(self, tmp_path):
        path = write_config(tmp_path, {"experiment": {"snr_db": [1560.0]}})
        out = tmp_path / "fig2b.csv"
        argv = ["run", "--preset", "fig2b", "--config", str(path), "--trials", "2048"]
        assert main(argv + ["--output", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 4
        for row in rows:
            for col in ("asr_analytical", "asr_mc", "mc_stderr"):
                assert math.isfinite(float(row[col]))

    def test_seed_override_changes_mc(self, tmp_path):
        config = tiny_snr_config(tmp_path)
        config["experiment"]["snr_db"] = [30.0]
        config["experiment"]["schemes"] = ["noma"]
        path = write_config(tmp_path, config)
        out1, out2, out3 = (str(tmp_path / f"s{i}.csv") for i in (1, 2, 3))
        main(["run", "--config", str(path), "--seed", "1", "--output", out1])
        main(["run", "--config", str(path), "--seed", "2", "--output", out2])
        main(["run", "--config", str(path), "--seed", "1", "--output", out3])
        r1, r2, r3 = (read_rows(o) for o in (out1, out2, out3))
        assert r1[0]["asr_mc"] != r2[0]["asr_mc"]
        assert r1[0]["asr_mc"] == r3[0]["asr_mc"]

    def test_nonfinite_mc_rate_exit_three(self, tmp_path, capsys, monkeypatch):
        original = _kernels.pair_rate_chunk

        def nan_at_15db(rho, a, inv_r1, *args, **kwargs):
            out = original(rho, a, inv_r1, *args, **kwargs)
            if rho.shape[0] > 1 and 0.01 < inv_r1 < 0.1:
                out[5, 0] = np.nan
            return out

        monkeypatch.setattr(_kernels, "pair_rate_chunk", nan_at_15db)
        path = write_config(tmp_path, tiny_snr_config(tmp_path))
        assert main(["run", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err == "error: numeric: snr_db=15 noma/ideal: non-finite rate in trial 5\n"

    @pytest.mark.parametrize(
        "preset, fading, message",
        [
            (
                "fig4a",
                {"nu": 400.0},
                "error: numeric: grid point (x=-20, y=-20): moment overflow for alpha=2, "
                "M=4, i=1, p=1: path loss (1 + d^nu)^1 overflows at d=36.7423, nu=400\n",
            ),
            (
                "fig2a",
                {"nu": 400.0, "distances": [1, 1, 1, 20]},
                "error: numeric: moment overflow for alpha=2, M=4, i=4, p=1: "
                "path loss (1 + d^nu)^1 overflows at d=20, nu=400\n",
            ),
        ],
    )
    def test_path_loss_overflow_exit_three(self, tmp_path, capsys, preset, fading, message):
        path = write_config(tmp_path, {"fading": fading})
        out = tmp_path / "out.csv"
        argv = ["run", "--preset", preset, "--config", str(path), "--output", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_monte_carlo_path_loss_overflow_exit_three(self, tmp_path, capsys):
        # Monte Carlo needs only 1 + d^nu; its overflow must not become a
        # factor of 0, which writes a surface of zeros with exit 0
        path = write_config(tmp_path, {"fading": {"nu": 400.0}})
        out = tmp_path / "out.csv"
        argv = ["run", "--preset", "fig4a", "--engine", "mc", "--trials", "1000",
                "--config", str(path), "--output", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 3
        assert caught == []
        assert capsys.readouterr().err == (
            "error: numeric: grid point (x=-20, y=-20): "
            "path loss 1 + d^nu overflows at i=1, d=36.7423, nu=400\n"
        )
        assert not out.exists()


def test_cli_import_leaves_scipy_unloaded():
    # scipy serves only the quadrature oracle; importing it costs most of
    # the CLI start-up time
    src = str(Path(mwrnoma.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, mwrnoma.cli; sys.exit(int('scipy' in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert proc.returncode == 0
