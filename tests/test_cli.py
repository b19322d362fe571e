"""CLI: config ingestion, CSV contracts, determinism, exit codes."""

import contextlib
import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mwrnoma
from mwrnoma import _kernels, cli, placement
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
from mwrnoma.presets import PRESETS, preset


def tiny_snr_config(tmp_path, **extra):
    config = {
        "network": {"n_users": 3, "a": [0.5, 0.3, 0.2], "power_ratio_n": 1.0},
        "fading": {"alpha": 2, "beta": 3.0, "nu": 3.0, "distances": [1.0, 1.0, 1.0]},
        "impairments": {"kappa_ut": 0.0, "kappa_ur": 0.0, "kappa_rt": 0.0, "kappa_rr": 0.0},
        "trials": {"trials": 2000, "seed": 77},
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

    def test_worker_settings_ignored(self, tmp_path, monkeypatch):
        # runs are single-threaded; the worker count that earlier versions
        # read from trials.workers and MWRNOMA_WORKERS is still accepted,
        # whatever its value, and changes nothing
        monkeypatch.delenv("MWRNOMA_WORKERS", raising=False)
        plain = tiny_snr_config(tmp_path)
        plain["experiment"]["output"] = str(tmp_path / "plain.csv")
        assert main(["run", "--config", str(write_config(tmp_path, plain, "plain.json"))]) == 0
        config = write_config(tmp_path, tiny_snr_config(tmp_path, trials={"workers": 4}))
        for env in ("2", "abc"):
            monkeypatch.setenv("MWRNOMA_WORKERS", env)
            assert main(["run", "--config", str(config)]) == 0
            assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
            (tmp_path / "sweep.csv").unlink()

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

    @pytest.mark.parametrize(
        "preset, config, message",
        [
            ("fig4a", {"geometry": {"users": [[0]]}},
             "geometry.users: expected a list of [x, y] pairs, got [[0]]"),
            ("fig4a", {"geometry": {"users": "ab"}},
             "geometry.users: expected a list of [x, y] pairs, got 'ab'"),
            ("fig2b", {"impairments": {"variants": []}},
             "impairments.variants: expected a non-empty mapping, got []"),
            ("fig2b", {"impairments": {"variants": {"rhi": 0.2}}},
             "impairments.variants.rhi: expected a mapping, got 0.2"),
            ("fig2a", {"impairments": 0.2}, "impairments: expected a mapping, got 0.2"),
            ("fig2a", {"network": {"n_users": 2.5}},
             "network.n_users: expected an integer, got 2.5"),
            ("fig2a", {"network": {"a": "xy"}},
             "network.a: expected a list of numbers, got 'xy'"),
            ("fig2a", {"network": {"c": [1]}}, "network.c: expected a single number, got [1]"),
            ("fig2a", {"network": 3}, "network: expected a mapping, got 3"),
            ("fig2a", {"trials": 5}, "trials: expected a mapping, got 5"),
            ("fig2a", {"network": {"power_ratio_n": "x"}},
             "network.power_ratio_n: expected a single number, got 'x'"),
            ("fig4a", {"geometry": {"height": [1]}},
             "geometry.height: expected a single number, got [1]"),
            ("fig2a", {"trials": {"trials": 2.5}}, "trials.trials: expected an integer, got 2.5"),
            ("fig2a", {"trials": {"seed": 1.5}}, "trials.seed: expected an integer, got 1.5"),
            ("fig2a", {"network": {"sigma_t2": "x"}},
             "network.sigma_t2: expected a single number, got 'x'"),
            ("fig2a", {"impairments": {"kappa_rr": [0.1]}},
             "impairments.kappa_rr: expected a single number, got [0.1]"),
            ("fig2a", {"experiment": {"snr_db": {"start": 0, "stop": "x", "step": 5}}},
             "experiment.snr_db.stop: expected a single number, got 'x'"),
            ("fig4a", {"experiment": {"grid": {"step": "x"}}},
             "experiment.grid.step: expected a single number, got 'x'"),
            ("fig4a", {"experiment": {"grid": 3}}, "experiment.grid: expected a mapping, got 3"),
            ("fig4a", {"geometry": 3}, "geometry: expected a mapping, got 3"),
            ("fig2a", {"fading": 3}, "fading: expected a mapping, got 3"),
            # one trial has no ddof=1 variance, so no standard error to write
            ("fig2b", {"trials": {"trials": 1}}, "trials: trials must be an integer >= 2, got 1"),
            # every scheme names one placement CSV or one set of sweep rows
            ("fig2a", {"experiment": {"schemes": []}},
             "experiment.schemes: need at least one scheme"),
            ("fig3", {"experiment": {"schemes": []}},
             "experiment.schemes: need at least one scheme"),
            ("fig4b", {"experiment": {"schemes": []}},
             "experiment.schemes: need at least one scheme"),
            ("fig2a", {"experiment": {"schemes": ["noma", "noma"]}},
             "experiment.schemes: each scheme may appear once, got ['noma', 'noma']"),
            ("fig4b", {"experiment": {"schemes": ["noma", "noma"]}},
             "experiment.schemes: each scheme may appear once, got ['noma', 'noma']"),
            ("fig4b", {"experiment": {"schemes": "noma"}},
             "experiment.schemes: expected a list of scheme names, got 'noma'"),
            ("fig2a", {"experiment": {"schemes": 5}},
             "experiment.schemes: expected a list of scheme names, got 5"),
            # the CSV path; "" would resolve to the working directory
            ("fig2a", {"experiment": {"output": 5}},
             "experiment.output: expected a non-empty path string, got 5"),
            ("fig4a", {"experiment": {"output": ""}},
             "experiment.output: expected a non-empty path string, got ''"),
            # an axis must have a finite site count, in a placement grid or a sweep
            ("fig4a", {"experiment": {"grid": {"x_min": -1e308, "x_max": 1e308}}},
             "experiment.grid: grid x axis length (x_max - x_min) / step overflows: "
             "(1e+308 - -1e+308) / 1.0"),
            ("fig4a", {"experiment": {"grid": {"x_max": math.inf}}},
             "experiment.grid: grid bounds must be finite, got x_max=inf"),
            ("fig4a", {"experiment": {"grid": {"y_min": math.nan}}},
             "experiment.grid: grid bounds must be finite, got y_min=nan"),
            ("fig2a", {"experiment": {"snr_db": {"start": 0, "stop": math.inf, "step": 5}}},
             "experiment.snr_db: start, stop and step must be finite"),
            ("fig2a", {"experiment": {"snr_db": {"start": math.nan, "stop": 10, "step": 5}}},
             "experiment.snr_db: start, stop and step must be finite"),
            ("fig2a", {"experiment": {"snr_db": {"start": -1e308, "stop": 1e308, "step": 5}}},
             "experiment.snr_db: (stop - start) / step overflows"),
            # a misspelled key is refused before any value is read, the
            # first in config order, depth first
            ("fig2a", {"impairments": {"kapa_ut": 0.3}}, "impairments.kapa_ut: unknown key"),
            ("fig4a", {"experiment": {"shemes": ["oma"], "engin": "mc"}, "fadng": {"nu": 9}},
             "experiment.shemes: unknown key"),
            ("fig2a", {"network": {"n_users": 2.5}, "fadng": {}}, "fadng: unknown key"),
            ("fig2b", {"impairments": {"variants": {"rhi": {"kappa_u": 0.2}}}},
             "impairments.variants.rhi.kappa_u: unknown key"),
            ("fig4a", {"experiment": {"grid": {"stp": 0.5}}}, "experiment.grid.stp: unknown key"),
            ("fig3", {"experiment": {"kappa": {"start": 0, "stop": 0.2, "stp": 0.1}}},
             "experiment.kappa.stp: unknown key"),
            ("fig2a", {"trials": {"seeds": 1}}, "trials.seeds: unknown key"),
            ("fig4a", {"geometry": {"hieght": 5}}, "geometry.hieght: unknown key"),
            ("fig2a", {"network": {"users": 4}}, "network.users: unknown key"),
            # sizes whose run would not finish
            ("fig4a", {"experiment": {"grid": {"step": 1e-5}}},
             "experiment.grid: grid of 4e+06 x 4e+06 sites exceeds the limit of 10000000 sites"),
            ("fig4a", {"experiment": {"grid": {"x_max": 1e308}}},
             "experiment.grid: grid of 1e+308 x 41 sites exceeds the limit of 10000000 sites"),
            ("fig2a", {"fading": {"alpha": 401}},
             "fading: fading shape alpha must be at most 400, got 401"),
            # a single-profile level beside variants would be dropped
            ("fig2b", {"impairments": {"kappa_ut": 0.3}},
             "impairments.kappa_ut: not used when impairments.variants is set"),
            ("fig2a", {"impairments": {"kappa_rr": 0.1, "variants": {"rhi": {"kappa_ut": 0.2}}}},
             "impairments.kappa_rr: not used when impairments.variants is set"),
            # the rates take 1 / r2: a relay SNR c * r1 that underflows to 0
            # is refused, at any sweep point, whatever the run kind
            ("fig2a", {"network": {"c": 1e-300}, "experiment": {"snr_db": [0, -3000]}},
             "experiment.snr_db: relay SNR c * r1 underflows to 0 at -3000.0 dB, c=1e-300"),
            ("fig3", {"network": {"c": 1e-300}, "experiment": {"snr_db": -3000}},
             "experiment.snr_db: relay SNR c * r1 underflows to 0 at -3000.0 dB, c=1e-300"),
            ("fig4a", {"network": {"c": 1e-300}, "experiment": {"snr_db": -3000}},
             "experiment.snr_db: relay SNR c * r1 underflows to 0 at -3000.0 dB, c=1e-300"),
            # NaN passes the sum, sign and order checks of a power split; it
            # is refused at load on either engine
            ("fig2a", {"network": {"a": [math.nan] * 4}},
             "network: power allocation must be finite and sum to 1, got sum nan"),
            ("fig4a", {"network": {"a": [math.nan] * 4}, "trials": {"trials": 2048},
                       "experiment": {"engine": "mc"}},
             "network: power allocation must be finite and sum to 1, got sum nan"),
            # each level of a distortion sweep is checked at load
            ("fig3", {"experiment": {"kappa": [1.5]}},
             "experiment.kappa: kappa_ut must be in [0, 1), got 1.5"),
            ("fig3", {"experiment": {"kappa": {"start": 0.5, "stop": 1.0, "step": 0.25}}},
             "experiment.kappa: kappa_ut must be in [0, 1), got 1.0"),
            ("fig2a", {"experiment": {"output": "o\u0000.csv"}},
             "experiment.output: a path may not contain a NUL byte, got 'o\\x00.csv'"),
            # the kind picks the leaves that are read, so it is checked first
            ("fig2a", {"experiment": {"kind": "bogus"}}, "experiment.kind: unknown kind 'bogus'"),
            ("fig4a", {"experiment": {"kind": ["snr-sweep"]}},
             "experiment.kind: unknown kind ['snr-sweep']"),
            # the SNR in dB as given, though the type sees only the linear SNR
            ("fig2a", {"network": {"c": 1e-300}, "experiment": {"snr_db": [0, -2987.6]}},
             "experiment.snr_db: relay SNR c * r1 underflows to 0 at -2987.6 dB, c=1e-300"),
            # a run size that would not finish in any useful time
            ("fig2a", {"trials": {"trials": 10**18}, "experiment": {"engine": "mc"}},
             "trials.trials: at most 1000000000 trials, got 1000000000000000000"),
        ],
    )
    def test_config_value_named(self, tmp_path, capsys, preset, config, message):
        path = write_config(tmp_path, config)
        out = tmp_path / "out.csv"
        argv = ["run", "--preset", preset, "--config", str(path)]
        if "output" not in config.get("experiment", {}):
            # --output would override the config value under test
            argv += ["--output", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: config: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("alpha, limit", [(1, 160), (2, 113), (316, 9), (400, 8)])
    def test_users_bounded_by_fading_shape(self, tmp_path, capsys, alpha, limit):
        # alpha * n_users^2 <= MAX_MOMENT_TABLE: the largest such M loads,
        # one more user is refused before any moment is built
        def users(n):
            a = [2 * w / (n * (n + 1)) for w in range(n, 0, -1)]
            config = {"network": {"n_users": n, "a": a},
                      "fading": {"alpha": alpha, "distances": [1.0] * n}}
            return write_config(tmp_path, config, name=f"users{n}.json")

        spec = load_spec(config_path=users(limit), preset_name="fig2a")
        assert spec.network.n_users == limit and spec.fading.alpha == alpha
        out = tmp_path / "out.csv"
        argv = ["run", "--preset", "fig2a", "--config", str(users(limit + 1)),
                "--output", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: config: network.n_users: at most {limit} at fading.alpha {alpha} "
            f"(alpha * n_users^2 <= 25600), got {limit + 1}\n"
        )
        assert not out.exists()

    def test_sweep_point_limit(self):
        # counted before the points are built
        limit = cli.MAX_SWEEP_POINTS
        assert len(cli._as_grid({"start": 0, "stop": limit - 1, "step": 1}, "x")) == limit
        with pytest.raises(ConfigurationError, match="^x: 100001 points exceed the limit"):
            cli._as_grid({"start": 0, "stop": limit, "step": 1}, "x")

    @pytest.mark.parametrize(
        "text, message",
        [
            # the JSON decoder recurses once per nesting level
            ('{"network": {"a": ' + "[" * 100_000 + "]" * 100_000 + "}}",
             "is not valid JSON: maximum recursion depth exceeded"),
            (b"\xff\xfe{}", "cannot read config"),
        ],
        ids=["deep", "not-utf8"],
    )
    def test_unreadable_config_named(self, tmp_path, capsys, text, message):
        path = tmp_path / "c.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(["run", "--preset", "fig2a", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and message in err and err.count("\n") == 1

    def test_empty_output_flag_named(self, capsys):
        # the flag goes through the same reader as the config key
        assert main(["run", "--preset", "fig4a", "--output", ""]) == 2
        assert capsys.readouterr().err == (
            "error: config: experiment.output: expected a non-empty path string, got ''\n"
        )

    @pytest.mark.parametrize("key, value", [("beta", [1]), ("nu", "x")])
    def test_fading_scalar_named(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, {"fading": {key: value}})
        out = tmp_path / "out.csv"
        argv = ["run", "--preset", "fig2a", "--config", str(path), "--output", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: config: fading.{key}: expected a single number, got {value!r}\n"
        )
        assert not out.exists()


    def test_variants_replace_a_preset_profile(self, tmp_path):
        # fig2a's single profile sits under the file's variants and is not
        # used; only levels that the file itself sets are refused
        variants = {"rhi": {"kappa_ut": 0.2}, "ideal": {}}
        path = write_config(tmp_path, {"impairments": {"variants": variants}})
        spec = load_spec(config_path=path, preset_name="fig2a")
        assert [label for label, _ in spec.variants] == ["rhi", "ideal"]
        assert spec.variants[0][1].kappa_ut == 0.2


class TestSnrSweep:
    def test_overflowing_sinr_stays_finite(self, tmp_path, capsys):
        # at 3080 dB and fading scale 30 decoder M's SINR exceeds the float
        # range; its rate is 1/2 (log2 P - log2 D), and the run warns of
        # nothing
        path = write_config(tmp_path, {"experiment": {"snr_db": [3080]}, "fading": {"beta": 30}})
        out = tmp_path / "out.csv"
        argv = ["run", "--preset", "fig2a", "--config", str(path), "--trials", "20000"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--output", str(out)]) == 0
        assert "sum(asr_analytical) noma/ideal: 514.621322\n" in capsys.readouterr().out
        rows = read_rows(out)
        assert len(rows) == 2
        for row in rows:
            for key in ("asr_analytical", "asr_mc", "mc_stderr"):
                assert math.isfinite(float(row[key]))

    @pytest.mark.parametrize("engine", ["analytical", "mc"])
    def test_vanishing_snr_rates_are_zero(self, tmp_path, engine):
        # at -2000 dB the noise term overflows to +inf: every rate is its
        # limit 0, and the run warns of nothing
        path = write_config(tmp_path, {"experiment": {"snr_db": [-2000]}})
        out = tmp_path / "out.csv"
        argv = ["run", "--preset", "fig2b", "--engine", engine, "--trials", "2000",
                "--config", str(path), "--output", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        rows = read_rows(out)
        assert len(rows) == 4
        for row in rows:
            assert row["asr_analytical"] == "0"
            assert row["asr_mc"] == ("0" if engine == "mc" else "")

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

    @pytest.mark.parametrize("engine", ["analytical", "mc"])
    def test_relay_snr_underflow_refused(self, tmp_path, capsys, engine):
        # 1 / r2 would divide by zero; a relay SNR that overflows to inf
        # has its limit 1 / r2 = 0 and runs
        path = write_config(
            tmp_path, {"network": {"c": 1e-300}, "experiment": {"snr_db": [0, -3000]}}
        )
        out = tmp_path / "out.csv"
        argv = ["run", "--preset", "fig2a", "--engine", engine, "--trials", "2000",
                "--output", str(out)]
        assert main(argv + ["--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: config: experiment.snr_db: relay SNR c * r1 underflows to 0 "
            "at -3000.0 dB, c=1e-300\n"
        )
        assert not out.exists()
        path = write_config(tmp_path, {"network": {"c": 1e300}, "experiment": {"snr_db": [100]}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--config", str(path)]) == 0
        for row in read_rows(out):
            assert math.isfinite(float(row["asr_analytical"]))

    def test_analytical_engine_leaves_mc_blank(self, tmp_path):
        config = tiny_snr_config(tmp_path)
        config["experiment"]["engine"] = "analytical"
        spec = load_spec(config_path=write_config(tmp_path, config))
        run(spec)
        for row in read_rows(spec.output):
            assert row["asr_mc"] == "" and row["mc_stderr"] == ""

    def test_tx_and_rx_distortion_rows_equal(self, tmp_path):
        # the paper's result 2 in the shipped fig2b: transmitter-only and
        # receiver-only distortion give the same strings in every column
        out = tmp_path / "fig2b.csv"
        argv = ["run", "--preset", "fig2b", "--trials", "20000", "--engine", "both"]
        assert main(argv + ["--output", str(out)]) == 0
        by_condition = {}
        for row in read_rows(out):
            cells = (row["snr_db"], row["asr_analytical"], row["asr_mc"], row["mc_stderr"])
            by_condition.setdefault(row["condition"], []).append(cells)
        assert len(by_condition["tx-rhi"]) == 9
        assert all(mc and se for _, _, mc, se in by_condition["tx-rhi"])
        assert by_condition["tx-rhi"] == by_condition["rx-rhi"]
        assert by_condition["tx-rhi"] != by_condition["transceiver-rhi"]

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

    def test_condition_label_quoted(self, tmp_path):
        # a condition is a user's string: the sweep CSVs keep csv.writer,
        # which quotes a label holding the delimiter or the quote character
        label = 'tx, "quoted"'
        path = write_config(
            tmp_path, {"impairments": {"variants": {label: {"kappa_ut": 0.2}}}}
        )
        out = tmp_path / "fig2b.csv"
        argv = ["run", "--preset", "fig2b", "--engine", "analytical",
                "--config", str(path), "--output", str(out)]
        assert main(argv) == 0
        assert ',"tx, ""quoted""",' in out.read_text()
        rows = read_rows(out)
        assert list(rows[0].keys()) == SNR_HEADER
        quoted = [r for r in rows if r["condition"] == label]
        assert len(quoted) == 9
        assert all(r["scheme"] == "noma" and math.isfinite(float(r["asr_analytical"]))
                   for r in quoted)


@pytest.mark.parametrize("preset, points, rows", [("fig2a", 9, 18), ("fig3", 7, 14)])
def test_schemes_share_one_evaluation_per_point(tmp_path, monkeypatch, preset, points, rows):
    # the schemes differ only in their time share: each (sweep value,
    # condition) is one Monte Carlo point and one closed-form row, which
    # every scheme's row scales
    seen = {}

    def spy(name):
        original = getattr(cli, name)

        def counted(rows_or_points, *args, **kwargs):
            seen[name] = len(rows_or_points)
            return original(rows_or_points, *args, **kwargs)

        monkeypatch.setattr(cli, name, counted)

    spy("simulate_sweep")
    spy("asr_rows")
    out = tmp_path / "out.csv"
    argv = ["run", "--preset", preset, "--engine", "both", "--trials", "2000"]
    assert main(argv + ["--output", str(out)]) == 0
    assert seen == {"simulate_sweep": points, "asr_rows": points}
    assert len(read_rows(out)) == rows


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

    def test_multi_block_round_trip(self, tmp_path):
        # 41 x 41 sites at a 0.25 m step: several analytical blocks, and
        # axis labels that are not integers
        config = {
            "network": {"n_users": 4, "a": [0.5, 0.3, 0.15, 0.05]},
            "fading": {"alpha": 2, "beta": 3.0, "nu": 3.0},
            "geometry": {"users": [[5, 5], [5, -5], [-5, 5], [-5, -5]], "height": 10.0},
            "experiment": {
                "kind": "placement-sweep",
                "snr_db": 30.0,
                "grid": {"x_min": -5.0, "x_max": 5.0, "y_min": -5.0, "y_max": 5.0,
                         "step": 0.25},
                "schemes": ["noma", "oma"],
                "engine": "analytical",
                "output": str(tmp_path / "surface.csv"),
            },
        }
        spec = load_spec(config_path=write_config(tmp_path, config))
        result = run(spec)
        labels = [f"{-5.0 + 0.25 * i:.9g}" for i in range(41)]
        for scheme, path in zip(spec.schemes, result.csv_paths):
            rows = read_rows(path)
            assert len(rows) == 41 * 41 > placement.BLOCK_SITES
            assert [r["x_m"] for r in rows[:41]] == labels
            assert [r["y_m"] for r in rows[::41]] == labels
            assert result.reported_totals[scheme] == math.fsum(float(r["asr"]) for r in rows)

    def test_writer_matches_csv_writer(self, tmp_path):
        # the surface writer gives the bytes of csv.writer with every cell
        # formatted to 9 significant digits
        asr = np.array(
            [[-0.0, 5e-324, 1e-300], [1 / 3, 123456789012.0, 1.7976931348623157e308]]
        )
        surface = placement.PlacementSurface(
            xs=np.array([-19.75, 1e-16, 2.5]),
            ys=np.array([-19.75, 1e-16]),
            asr=asr,
            argmax_xy=(1e-16, 1e-16),
        )
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(PLACEMENT_HEADER)
            for y, row in zip(surface.ys.tolist(), asr.tolist()):
                for x, rate in zip(surface.xs.tolist(), row):
                    writer.writerow([f"{x:.9g}", f"{y:.9g}", f"{rate:.9g}"])
        written = tmp_path / "sub" / "surface.csv"
        total = cli._write_surface(written, surface)
        assert written.read_bytes() == reference.read_bytes()
        assert total == math.fsum(float(r["asr"]) for r in read_rows(written))

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


def moments_config(tmp_path, name="moments.csv"):
    return {
        "network": {"n_users": 3, "a": [0.5, 0.3, 0.2]},
        "fading": {"alpha": 2, "beta": 3.0, "nu": 3.0, "distances": [1.0] * 3},
        "trials": {"trials": 50_000, "seed": 5},
        "experiment": {"kind": "moments-check", "output": str(tmp_path / name)},
    }


class TestMomentsCheck:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_table_and_tolerances(self, tmp_path, monkeypatch, workers):
        monkeypatch.delenv("MWRNOMA_WORKERS", raising=False)
        reference = moments_config(tmp_path, "reference.csv")
        run(load_spec(config_path=write_config(tmp_path, reference, "reference.json")))
        # the worker count that earlier versions read is ignored
        monkeypatch.setenv("MWRNOMA_WORKERS", str(workers))
        config = moments_config(tmp_path)
        config["trials"]["workers"] = workers
        spec = load_spec(config_path=write_config(tmp_path, config))
        run(spec)
        # the samples are the engine's seeded chunks, merged in chunk order
        assert spec.output.read_bytes() == (tmp_path / "reference.csv").read_bytes()
        rows = read_rows(spec.output)
        assert list(rows[0].keys()) == MOMENTS_HEADER
        assert len(rows) == 3
        for row in rows:
            closed, quad = float(row["psi_closed"]), float(row["psi_quadrature"])
            assert abs(closed - quad) / quad < 1e-3
            mc, se = float(row["psi_mc"]), float(row["psi_mc_stderr"])
            assert abs(mc - closed) < 4 * se

    @pytest.mark.parametrize("beta", [0.01, 1e5, 1e77])
    def test_any_fading_scale(self, tmp_path, capsys, beta):
        # the quadrature holds at any fading scale; where the sampled M2
        # of the squared gains overflows, the run ends with one error line
        # and no warning.  20000 trials are two full chunks and a short one
        config = moments_config(tmp_path)
        config["fading"]["beta"] = beta
        config["trials"]["trials"] = 20_000
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(write_config(tmp_path, config))])
        assert caught == []
        err = capsys.readouterr().err
        if beta > 1e76:
            assert code == 3
            assert err == "error: numeric: sampled gain moments are not finite in chunk 0\n"
            assert not (tmp_path / "moments.csv").exists()
            return
        assert (code, err) == (0, "")
        for row in read_rows(tmp_path / "moments.csv"):
            for p in ("psi", "omega"):
                closed, quad = float(row[f"{p}_closed"]), float(row[f"{p}_quadrature"])
                assert abs(closed - quad) / quad < 1e-8
                mc, se = float(row[f"{p}_mc"]), float(row[f"{p}_mc_stderr"])
                assert abs(mc - closed) < 4 * se

    def test_largest_fading_shape(self, tmp_path, capsys):
        # alpha = 400 with M = 8, the largest accepted shape at the most
        # users it allows: the density's mass sits near x = 400, in a
        # narrow peak far from 0, and the oracle must still find it
        a = [0.35, 0.22, 0.15, 0.1, 0.07, 0.05, 0.04, 0.02]
        config = moments_config(tmp_path)
        config["network"] = {"n_users": 8, "a": a}
        config["fading"].update(alpha=400, distances=[1.0] * 8)
        config["trials"]["trials"] = 2000
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(write_config(tmp_path, config))])
        assert caught == []
        assert (code, capsys.readouterr().err) == (0, "")
        rows = read_rows(tmp_path / "moments.csv")
        assert len(rows) == 8
        for row in rows:
            assert all(math.isfinite(float(v)) for v in row.values())
            for p in ("psi", "omega"):
                closed, quad = float(row[f"{p}_closed"]), float(row[f"{p}_quadrature"])
                assert abs(closed - quad) / quad < 1e-8

    def test_sample_count_comes_from_trials(self, tmp_path, capsys):
        config = moments_config(tmp_path)
        config["experiment"]["mc_samples"] = 50_000
        assert main(["run", "--config", str(write_config(tmp_path, config))]) == 2
        assert capsys.readouterr().err == "error: config: experiment.mc_samples: unknown key\n"
        del config["experiment"]["mc_samples"], config["trials"]
        assert main(["run", "--config", str(write_config(tmp_path, config))]) == 2
        assert capsys.readouterr().err == (
            "error: config: trials: required by the mc engine and by moments-check\n"
        )
        assert not (tmp_path / "moments.csv").exists()


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
        original = _kernels.decoder_totals

        def nan_at_15db(rho, a, inv_r1, *args, out, **kwargs):
            # a Monte Carlo chunk: many rows at one SNR (the closed form
            # passes one SNR per row)
            total = original(rho, a, inv_r1, *args, out=out, **kwargs)
            monte_carlo = rho.shape[0] > 1 and np.ndim(inv_r1) == 0
            if not (monte_carlo and 0.01 < inv_r1 < 0.1):
                return total
            out[5] = np.nan
            return np.add.reduce(out)

        monkeypatch.setattr(_kernels, "decoder_totals", nan_at_15db)
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
            # 1 + d^nu is finite at every site, its square overflows
            (
                "fig4a",
                {"nu": 180.0},
                "error: numeric: grid point (x=-20, y=-20): moment overflow for alpha=2, "
                "M=4, i=1, p=2: path loss (1 + d^nu)^2 overflows at d=36.7423, nu=180\n",
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

    def test_moment_overflow_exit_three(self, tmp_path, capsys):
        # the closed-form second moment overflows; one error line, no warning
        path = write_config(tmp_path, {"fading": {"beta": 1.3e154}})
        out = tmp_path / "out.csv"
        argv = ["run", "--preset", "fig2a", "--engine", "analytical",
                "--config", str(path), "--output", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "error: numeric: moment overflow for alpha=2, M=4, i=2, p=2\n"
        )
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

    @pytest.mark.parametrize(
        "x_min, nu, engine_args, message",
        [
            (1e160, 3, [], "grid point (x=1e+160, y=0): user distance overflows"),
            (1e160, 3, ["--engine", "mc"], "grid point (x=1e+160, y=0): user distance overflows"),
            # a path loss that overflows at an earlier site is named first
            (
                1e150,
                3,
                ["--engine", "mc"],
                "grid point (x=1e+150, y=0): path loss 1 + d^nu overflows at i=1, "
                "d=1e+150, nu=3",
            ),
            (
                1e150,
                3,
                [],
                "grid point (x=1e+150, y=0): moment overflow for alpha=2, M=4, i=1, "
                "p=1: path loss (1 + d^nu)^1 overflows at d=1e+150, nu=3",
            ),
            # 1 + inf^0 = 2: a far site is refused without a path loss that
            # overflows, after a site that is fine
            (0, 0, [], "grid point (x=1e+159, y=0): user distance overflows"),
            (0, 0, ["--engine", "mc"], "grid point (x=1e+159, y=0): user distance overflows"),
        ],
        ids=[
            "analytical",
            "mc",
            "mc-earlier-path-loss",
            "analytical-earlier-moment",
            "analytical-nu0",
            "mc-nu0",
        ],
    )
    def test_distance_overflow_exit_three(
        self, tmp_path, capsys, x_min, nu, engine_args, message
    ):
        # a site's distance overflows to inf: one error line, no warning
        grid = {"x_min": x_min, "x_max": 1e160, "y_min": 0, "y_max": 0, "step": 1e159}
        path = write_config(tmp_path, {"fading": {"nu": nu}, "experiment": {"grid": grid}})
        out = tmp_path / "out.csv"
        argv = ["run", "--preset", "fig4a", "--trials", "1000", *engine_args,
                "--config", str(path), "--output", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 3
        assert caught == []
        assert capsys.readouterr().err == f"error: numeric: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize(
    "preset, key", [("fig2a", "snr_db"), ("fig3", "kappa")]
)
def test_oversized_sweep_refused_under_memory_limit(tmp_path, preset, key):
    # 2e307 points: run in a process capped at 2 GB of address space, so
    # that building them fails with a MemoryError rather than filling memory
    src = str(Path(mwrnoma.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    path = write_config(
        tmp_path, {"experiment": {key: {"start": 0, "stop": 1e308, "step": 5}}}
    )
    limit = 2 << 30

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    argv = ["run", "--preset", preset, "--config", str(path),
            "--output", str(tmp_path / "out.csv")]
    proc = subprocess.run(
        [sys.executable, "-m", "mwrnoma.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120, preexec_fn=cap,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (
        f"error: config: experiment.{key}: 2e+307 points exceed the limit of 100000\n"
    )


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only reference; importing it would cost most of the
    # CLI start-up time
    src = str(Path(mwrnoma.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, mwrnoma.cli; sys.exit(int('scipy' in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert proc.returncode == 0


COARSE_FIG4A = ["--preset", "fig4a", "--config", "coarse.json"]


@pytest.mark.parametrize(
    "run_args, extra_env, loaded",
    [
        # the closed form draws no random numbers
        (COARSE_FIG4A, {}, []),
        # one chunk, drawn on the calling thread
        ([*COARSE_FIG4A, "--engine", "mc", "--trials", "2000"], {}, ["numpy.random"]),
        # three chunks, drawn one after another on the calling thread; the
        # worker count that earlier versions read starts no pool
        ([*COARSE_FIG4A, "--engine", "mc", "--trials", "20000"], {"MWRNOMA_WORKERS": "2"},
         ["numpy.random"]),
        # the quadrature oracle needs numpy's Gauss-Legendre nodes, not scipy
        (["--config", "moments.json", "--trials", "2000"], {},
         ["numpy.random", "numpy.polynomial"]),
        # nor does a closed-form sweep need the oracle's nodes
        (["--preset", "fig2a", "--engine", "analytical"], {}, []),
    ],
    ids=["analytical", "mc-one-chunk", "mc-three-chunks", "moments-check", "sweep"],
)
def test_cli_run_loads_only_its_engine(tmp_path, run_args, extra_env, loaded):
    src = str(Path(mwrnoma.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, **extra_env}
    write_config(tmp_path, {"experiment": {"grid": {"step": 10.0}}}, "coarse.json")
    write_config(tmp_path, moments_config(tmp_path), "moments.json")
    argv = ["run", *run_args, "--output", str(tmp_path / "out.csv")]
    code = (
        "import json, sys, mwrnoma.cli\n"
        "rc = mwrnoma.cli.main(sys.argv[1:])\n"
        "names = ('numpy.random', 'concurrent.futures', 'scipy', 'numpy.polynomial')\n"
        "print(json.dumps([m for m in names if m in sys.modules]))\n"
        "sys.exit(rc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
        timeout=120, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == loaded
    assert (tmp_path / "out.csv").exists()


def test_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: with scipy unimportable, the
    # sweep on both engines, a Monte Carlo surface and the moments check
    # with its quadrature oracle all run
    src = str(Path(mwrnoma.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    write_config(tmp_path, {"experiment": {"grid": {"step": 10.0}}}, "coarse.json")
    write_config(tmp_path, moments_config(tmp_path), "moments.json")
    runs = [
        ["--preset", "fig2a", "--engine", "both", "--trials", "2000"],
        ["--preset", "fig4a", "--config", "coarse.json", "--engine", "mc", "--trials", "2000"],
        ["--config", "moments.json", "--trials", "2000"],
    ]
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "import mwrnoma.cli\n"
        "runs = json.loads(sys.argv[1])\n"
        "rcs = [mwrnoma.cli.main(['run', *argv, '--output', f'out{n}.csv'])\n"
        "       for n, argv in enumerate(runs)]\n"
        "print(json.dumps(rcs))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs)], env=env, capture_output=True,
        text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, 0, 0], proc.stderr
    assert all((tmp_path / f"out{n}.csv").exists() for n in range(3))


def test_readme_config_loads(tmp_path):
    # the README's "Config file shape" block is a config the CLI accepts
    readme = (Path(mwrnoma.__file__).resolve().parents[2] / "README.md").read_text()
    block = readme.split("Config file shape (JSON):\n\n```json\n", 1)[1].split("```", 1)[0]
    spec = load_spec(config_path=write_config(tmp_path, json.loads(block)))
    assert (spec.kind, spec.engine, spec.schemes) == ("snr-sweep", "both", ("noma", "oma"))
    assert spec.network.n_users == spec.fading.n_users == 3
    assert len(spec.snr_db_grid) == len(spec.sweep) == 9
    assert [label for label, _ in spec.variants] == ["nonideal"]


# every leaf of the schema that names no label
SCHEMA_LEAVES = [tuple(key.split(".")) for key in cli.CONFIG_SCHEMA if "*" not in key]
MUTATIONS = ("wrong type", "list-scalar", "empty", "huge", "-huge", "bool", "nan", "misspelled")
MISSING = object()


def preset_leaves(config, path=()):
    """The key paths of a config's leaves: each value that is not a
    mapping, and each mapping that the schema reads as one leaf."""
    for key, value in config.items():
        here = path + (key,)
        if isinstance(value, dict):
            yield from preset_leaves(value, here)
        if not isinstance(value, dict) or ".".join(here) in cli.CONFIG_SCHEMA:
            yield here


def mutated(value, mutation):
    if mutation == "wrong type":
        return 5 if isinstance(value, str) else "x"
    if mutation == "list-scalar":
        if isinstance(value, list):
            return value[0] if value else 1.0
        return [None if value is MISSING else value]
    if mutation == "empty":
        return {list: [], dict: {}}.get(type(value), "")
    return {"huge": 1e308, "-huge": -1e308, "bool": True, "nan": math.nan}[mutation]


@settings(max_examples=500, derandomize=True, deadline=None)
@given(name=st.sampled_from(sorted(PRESETS)), data=st.data())
def test_any_one_leaf_mutation_exits_cleanly(tmp_path_factory, name, data):
    # one leaf of a preset, present or not, gets a malformed or extreme
    # value or a misspelled key; every such run ends with a documented
    # exit code, and a refused one with exactly one error line
    config = preset(name)
    leaves = sorted(set(preset_leaves(config)) | set(SCHEMA_LEAVES))
    *parents, key = data.draw(st.sampled_from(leaves), label="leaf")
    mutation = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    section = config
    for parent in parents:
        section = section.setdefault(parent, {})
    value = section.pop(key, MISSING)
    if mutation == "misspelled":
        section[key + "_"] = 1.0 if value is MISSING else value
    else:
        section[key] = mutated(value, mutation)
    work = tmp_path_factory.mktemp("mutation")
    path = write_config(work, config)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)  # the preset's CSV name is relative
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            # a small run, unless the mutated leaf is the run size itself
            size = [] if (*parents, key) == ("trials", "trials") else ["--trials", "2048"]
            code = main(["run", "--config", str(path), *size])
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3, 4)
    if code:
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")
