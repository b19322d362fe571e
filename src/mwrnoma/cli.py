"""Experiment runner: config ingestion, sweep orchestration, CSV emission.

One experiment = one sweep dimension (SNR grid, distortion grid, or relay
position grid) plus fixed network/fading/impairment sections.  SNR values
are given in dB in configs and converted to linear once at ingestion.
Identical spec and seed produce byte-identical CSV output at any worker
count.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .baseline import scheme_prefactor
from .channel import FadingParams, gamma_variates, moment_oracle, order_stat_moments
from .errors import ConfigurationError, NumericError, SweepPointError
from .montecarlo import SweepPoint, TrialConfig, derive_trial_stream, simulate_sweep
from .placement import Geometry, GridSpec, distances, sweep_grid
from .presets import DEFAULT_SEED, PRESETS, preset
from .rate import asr
from .signal import ImpairmentProfile, NetworkConfig

__all__ = ["ExperimentSpec", "RunResult", "load_spec", "run", "main"]

log = logging.getLogger(__name__)

KINDS = ("snr-sweep", "kappa-sweep", "placement-sweep", "moments-check")
ENGINES = ("analytical", "mc", "both")
WORKERS_ENV = "MWRNOMA_WORKERS"

SNR_HEADER = ["snr_db", "scheme", "condition", "asr_analytical", "asr_mc", "mc_stderr"]
KAPPA_HEADER = ["kappa", "scheme", "condition", "asr_analytical", "asr_mc", "mc_stderr"]
PLACEMENT_HEADER = ["x_m", "y_m", "asr"]
MOMENTS_HEADER = [
    "i",
    "psi_closed",
    "psi_quadrature",
    "psi_mc",
    "psi_mc_stderr",
    "omega_closed",
    "omega_quadrature",
    "omega_mc",
    "omega_mc_stderr",
]


def _fmt(x: float) -> str:
    """Decimal output with 9 significant digits."""
    return f"{x:.9g}"


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated, fully-resolved experiment description."""

    kind: str
    network: NetworkConfig
    fading: FadingParams
    variants: tuple[tuple[str, ImpairmentProfile], ...]
    schemes: tuple[str, ...]
    engine: str
    output: Path
    trials: TrialConfig | None = None
    snr_db_grid: tuple[float, ...] | None = None
    kappa_grid: tuple[float, ...] | None = None
    geometry: Geometry | None = None
    grid: GridSpec | None = None
    mc_samples: int = 1_000_000

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"experiment.kind: unknown kind {self.kind!r}")
        if self.engine not in ENGINES:
            raise ConfigurationError(f"experiment.engine: must be one of {ENGINES}")
        if any(s not in ("noma", "oma") for s in self.schemes):
            raise ConfigurationError("experiment.schemes: entries must be 'noma' or 'oma'")
        sweeps = sum(
            x is not None for x in (self.snr_db_grid, self.kappa_grid, self.grid)
        )
        if self.kind == "moments-check":
            if sweeps:
                raise ConfigurationError("moments-check takes no sweep dimension")
        elif sweeps != 1:
            raise ConfigurationError(
                f"exactly one sweep dimension per experiment, got {sweeps}"
            )
        if self.kind == "snr-sweep" and self.snr_db_grid is None:
            raise ConfigurationError("experiment.snr_db: snr-sweep needs an SNR grid")
        if self.kind == "kappa-sweep" and self.kappa_grid is None:
            raise ConfigurationError("experiment.kappa: kappa-sweep needs a kappa grid")
        if self.kind == "placement-sweep":
            if self.grid is None or self.geometry is None:
                raise ConfigurationError(
                    "placement-sweep needs geometry and experiment.grid"
                )
            if self.engine == "both":
                raise ConfigurationError(
                    "experiment.engine: placement-sweep uses a single engine"
                )
        if self.engine in ("mc", "both") and self.kind != "moments-check" and self.trials is None:
            raise ConfigurationError("trials: required when the mc engine is requested")


@dataclass(frozen=True)
class RunResult:
    """Artifacts of one run: written files, their rows, and rounded totals."""

    kind: str
    csv_paths: tuple[Path, ...]
    rows: dict[Path, list[dict]]
    reported_totals: dict[str, float]
    summary: str


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _need(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigurationError(f"{where}.{key}: missing required key")
    return section[key]


def _as_scalar(value, where: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ConfigurationError(f"{where}: expected a single number, got {value!r}")


def _as_grid(value, where: str) -> tuple[float, ...]:
    if isinstance(value, dict):
        start = float(_need(value, "start", where))
        stop = float(_need(value, "stop", where))
        step = float(_need(value, "step", where))
        if step <= 0 or stop < start:
            raise ConfigurationError(f"{where}: need step > 0 and stop >= start")
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        return tuple(start + step * i for i in range(n))
    if isinstance(value, (list, tuple)) and value:
        return tuple(float(v) for v in value)
    raise ConfigurationError(f"{where}: expected a list or start/stop/step mapping")


def _snr_linear(db: float) -> float:
    """Linear SNR of a dB value; one that overflows or underflows is a config error."""
    try:
        r1 = 10.0 ** (db / 10.0)
    except OverflowError:
        r1 = math.inf
    if not (0.0 < r1 < math.inf):
        raise ConfigurationError(
            f"experiment.snr_db: {db!r} dB has no finite positive linear SNR"
        )
    return r1


def _parse_impairments(raw: dict | None) -> tuple[tuple[str, ImpairmentProfile], ...]:
    if raw is None:
        return (("ideal", ImpairmentProfile.ideal()),)
    if "variants" in raw:
        variants = []
        for label, section in raw["variants"].items():
            variants.append((str(label), _profile_from(section, f"impairments.variants.{label}")))
        if not variants:
            raise ConfigurationError("impairments.variants: must not be empty")
        return tuple(variants)
    profile = _profile_from(raw, "impairments")
    return ((("ideal" if profile.is_ideal else "nonideal"), profile),)


def _profile_from(section: dict, where: str) -> ImpairmentProfile:
    try:
        return ImpairmentProfile(
            kappa_ut=float(section.get("kappa_ut", 0.0)),
            kappa_ur=float(section.get("kappa_ur", 0.0)),
            kappa_rt=float(section.get("kappa_rt", 0.0)),
            kappa_rr=float(section.get("kappa_rr", 0.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


def _spec_from_config(config: dict) -> ExperimentSpec:
    exp = _need(config, "experiment", "config")
    kind = str(_need(exp, "kind", "experiment"))
    if kind not in KINDS:
        raise ConfigurationError(f"experiment.kind: unknown kind {kind!r}")

    net = _need(config, "network", "config")
    n_users = _need(net, "n_users", "network")
    a = tuple(float(x) for x in _need(net, "a", "network"))
    # noise variances at the relay and at the users; they only fix c
    sigma_r2 = float(net.get("sigma_r2", 1.0))
    sigma_t2 = float(net.get("sigma_t2", 1.0))
    for key, value in (("sigma_r2", sigma_r2), ("sigma_t2", sigma_t2)):
        if not (value > 0 and math.isfinite(value)):
            raise ConfigurationError(f"network.{key}: must be finite and > 0, got {value}")
    if "c" in net:
        c = float(net["c"])
    else:
        # equal-power default: user power = n * relay power
        ratio_n = float(net.get("power_ratio_n", 1.0))
        if ratio_n <= 0:
            raise ConfigurationError(f"network.power_ratio_n: must be > 0, got {ratio_n}")
        c = sigma_r2 / (ratio_n * sigma_t2)

    snr_grid = None
    kappa_grid = None
    grid = None
    geometry = None

    if kind == "snr-sweep":
        snr_grid = _as_grid(_need(exp, "snr_db", "experiment"), "experiment.snr_db")
        r1_grid = [_snr_linear(db) for db in snr_grid]
        r1_first = r1_grid[0]
    elif kind == "kappa-sweep":
        kappa_grid = _as_grid(_need(exp, "kappa", "experiment"), "experiment.kappa")
        r1_first = _snr_linear(_as_scalar(_need(exp, "snr_db", "experiment"), "experiment.snr_db"))
    elif kind == "placement-sweep":
        r1_first = _snr_linear(_as_scalar(_need(exp, "snr_db", "experiment"), "experiment.snr_db"))
    else:  # moments-check
        r1_first = _snr_linear(_as_scalar(exp.get("snr_db", 0.0), "experiment.snr_db"))

    try:
        network = NetworkConfig(n_users=int(n_users), a=a, r1=r1_first, c=c)
    except ConfigurationError as exc:
        raise ConfigurationError(f"network: {exc}") from exc

    fad = _need(config, "fading", "config")
    if kind == "placement-sweep":
        geo = _need(config, "geometry", "config")
        users = tuple(
            (float(p[0]), float(p[1])) for p in _need(geo, "users", "geometry")
        )
        try:
            geometry = Geometry(
                user_positions=users, uav_xy=(0.0, 0.0), uav_height=float(geo.get("height", 10.0))
            )
        except ConfigurationError as exc:
            raise ConfigurationError(f"geometry: {exc}") from exc
        grid_section = _need(exp, "grid", "experiment")
        try:
            grid = GridSpec(
                x_min=float(grid_section.get("x_min", -20.0)),
                x_max=float(grid_section.get("x_max", 20.0)),
                y_min=float(grid_section.get("y_min", -20.0)),
                y_max=float(grid_section.get("y_max", 20.0)),
                step=float(grid_section.get("step", 1.0)),
            )
        except ConfigurationError as exc:
            raise ConfigurationError(f"experiment.grid: {exc}") from exc
        dist = tuple(sorted(distances(geometry).tolist(), reverse=True))
    else:
        dist = tuple(float(x) for x in _need(fad, "distances", "fading"))

    try:
        fading = FadingParams(
            alpha=_need(fad, "alpha", "fading"),
            beta=float(_need(fad, "beta", "fading")),
            nu=float(_need(fad, "nu", "fading")),
            distances=dist,
        )
    except ConfigurationError as exc:
        raise ConfigurationError(f"fading: {exc}") from exc
    if fading.n_users != network.n_users:
        raise ConfigurationError(
            f"fading.distances: length {fading.n_users} != network.n_users {network.n_users}"
        )

    variants = _parse_impairments(config.get("impairments"))
    if kind == "kappa-sweep" and len(variants) > 1:
        raise ConfigurationError(
            "impairments.variants: not allowed in a kappa-sweep (one sweep dimension)"
        )

    trials = None
    if "trials" in config:
        tr = config["trials"]
        workers_env = os.environ.get(WORKERS_ENV)
        if workers_env is not None:
            try:
                workers = int(workers_env)
            except ValueError as exc:
                raise ConfigurationError(
                    f"{WORKERS_ENV}: must be an integer, got {workers_env!r}"
                ) from exc
        else:
            workers = int(tr.get("workers", 1))
        try:
            trials = TrialConfig(
                trials=int(_need(tr, "trials", "trials")),
                seed=int(tr.get("seed", DEFAULT_SEED)),
                workers=workers,
            )
        except ConfigurationError as exc:
            raise ConfigurationError(f"trials: {exc}") from exc

    engine = str(exp.get("engine", "analytical"))
    schemes = tuple(str(s) for s in exp.get("schemes", ["noma"]))
    output = Path(exp.get("output", f"{kind}.csv"))
    return ExperimentSpec(
        kind=kind,
        network=network,
        fading=fading,
        variants=variants,
        schemes=schemes,
        engine=engine,
        output=output,
        trials=trials,
        snr_db_grid=snr_grid,
        kappa_grid=kappa_grid,
        geometry=geometry,
        grid=grid,
        mc_samples=int(exp.get("mc_samples", 1_000_000)),
    )


def load_spec(
    config_path: str | Path | None = None,
    preset_name: str | None = None,
    overrides: dict | None = None,
) -> ExperimentSpec:
    """Build a spec from a preset, a JSON config file, or both (file wins)."""
    if config_path is None and preset_name is None:
        raise ConfigurationError("need a config file, a preset name, or both")
    merged: dict = {}
    if preset_name is not None:
        if preset_name not in PRESETS:
            raise ConfigurationError(
                f"unknown preset {preset_name!r}; available: {', '.join(sorted(PRESETS))}"
            )
        merged = preset(preset_name)
    if config_path is not None:
        try:
            text = Path(config_path).read_text()
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {config_path}: {exc}") from exc
        try:
            user = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigurationError("config root must be a JSON object")
        merged = _deep_merge(merged, user)
    if overrides:
        merged = _deep_merge(merged, overrides)
    return _spec_from_config(merged)


def _mc_wanted(spec: ExperimentSpec) -> bool:
    return spec.engine in ("mc", "both") and spec.trials is not None


def _run_grid_sweep(spec: ExperimentSpec) -> RunResult:
    """Shared body of the snr- and kappa-sweeps (one scalar sweep column)."""
    if spec.kind == "snr-sweep":
        header, key = SNR_HEADER, "snr_db"
        points = [(v, _snr_linear(v), None) for v in spec.snr_db_grid]
    else:
        header, key = KAPPA_HEADER, "kappa"
        points = [(v, spec.network.r1, ImpairmentProfile.uniform(v)) for v in spec.kappa_grid]

    moments = order_stat_moments(spec.fading, spec.network.n_users)
    rows: list[dict] = []
    mc_points: list[SweepPoint] = []
    for value, r1, sweep_profile in points:
        cfg = replace(spec.network, r1=r1)
        for scheme in spec.schemes:
            share = scheme_prefactor(scheme, cfg.n_users)
            for label, base_profile in spec.variants:
                profile = sweep_profile if sweep_profile is not None else base_profile
                if sweep_profile is None:
                    condition = label
                else:
                    condition = "ideal" if profile.is_ideal else "nonideal"
                row = {
                    key: _fmt(value),
                    "scheme": scheme,
                    "condition": condition,
                    "asr_analytical": _fmt(asr(moments, cfg, profile, prefactor=share).total),
                    "asr_mc": "",
                    "mc_stderr": "",
                }
                rows.append(row)
                mc_points.append(SweepPoint(cfg, spec.fading, profile, share))

    if _mc_wanted(spec):
        try:
            results = simulate_sweep(mc_points, spec.trials)
        except SweepPointError as exc:
            row = rows[exc.point]
            raise NumericError(
                f"{key}={row[key]} {row['scheme']}/{row['condition']}: {exc}"
            ) from exc
        for row, result in zip(rows, results):
            row["asr_mc"] = _fmt(result.total)
            row["mc_stderr"] = _fmt(result.stderr)
            gap = abs(float(row["asr_analytical"]) - result.total)
            log.info(
                "%s=%s %s/%s: analytic-vs-mc gap %.3g",
                key, row[key], row["scheme"], row["condition"], gap,
            )

    _write_csv(spec.output, header, rows)
    totals: dict[str, float] = {}
    for row in rows:
        group = f"{row['scheme']}/{row['condition']}"
        totals[group] = totals.get(group, 0.0) + float(row["asr_analytical"])
    lines = [f"{spec.kind}: {len(rows)} rows -> {spec.output}"]
    for group in sorted(totals):
        lines.append(f"  sum(asr_analytical) {group}: {_fmt(totals[group])}")
    return RunResult(
        kind=spec.kind,
        csv_paths=(spec.output,),
        rows={spec.output: rows},
        reported_totals=totals,
        summary="\n".join(lines),
    )


def _run_placement(spec: ExperimentSpec) -> RunResult:
    engine = "monte-carlo" if spec.engine == "mc" else "analytical"
    _, profile = spec.variants[0]
    paths: list[Path] = []
    rows_by_path: dict[Path, list[dict]] = {}
    totals: dict[str, float] = {}
    lines: list[str] = []
    for scheme in spec.schemes:
        surface = sweep_grid(
            spec.geometry,
            spec.grid,
            spec.network,
            spec.fading,
            profile,
            engine=engine,
            scheme=scheme,
            tc=spec.trials,
        )
        path = spec.output
        if scheme != spec.schemes[0]:
            path = spec.output.with_name(
                spec.output.stem + f"_{scheme}" + spec.output.suffix
            )
        rows = []
        for j, y in enumerate(surface.ys):
            for i, x in enumerate(surface.xs):
                rows.append(
                    {"x_m": _fmt(x), "y_m": _fmt(y), "asr": _fmt(surface.asr[j, i])}
                )
        _write_csv(path, PLACEMENT_HEADER, rows)
        paths.append(path)
        rows_by_path[path] = rows
        totals[scheme] = math.fsum(float(r["asr"]) for r in rows)
        lines.append(
            f"placement {scheme}: {len(rows)} points -> {path}; "
            f"argmax at ({_fmt(surface.argmax_xy[0])}, {_fmt(surface.argmax_xy[1])}); "
            f"sum(asr) {_fmt(totals[scheme])}"
        )
    return RunResult(
        kind=spec.kind,
        csv_paths=tuple(paths),
        rows=rows_by_path,
        reported_totals=totals,
        summary="\n".join(lines),
    )


def _run_moments_check(spec: ExperimentSpec) -> RunResult:
    fading, M = spec.fading, spec.network.n_users
    seed = spec.trials.seed if spec.trials is not None else DEFAULT_SEED
    samples = spec.mc_samples
    gen = derive_trial_stream(seed, 0)
    sums = np.zeros(M)
    sq_sums = np.zeros(M)
    quad_sums = np.zeros(M)
    done = 0
    while done < samples:
        count = min(100_000, samples - done)
        h = gamma_variates(fading.alpha, fading.beta, (count, M), gen)
        h.sort(axis=1)
        rho = h * fading.path_loss_factors()
        sums += rho.sum(axis=0)
        sq_sums += (rho**2).sum(axis=0)
        quad_sums += (rho**4).sum(axis=0)
        done += count
    mc_psi = sums / samples
    mc_omega = sq_sums / samples
    psi_se = np.sqrt((mc_omega - mc_psi**2) / samples)
    omega_se = np.sqrt((quad_sums / samples - mc_omega**2) / samples)

    moments = order_stat_moments(fading, M)
    rows = []
    worst = 0.0
    for i in range(1, M + 1):
        psi_q = moment_oracle(fading, M, i, 1)
        omega_q = moment_oracle(fading, M, i, 2)
        worst = max(
            worst,
            abs(moments.psi[i - 1] - psi_q) / psi_q,
            abs(moments.omega[i - 1] - omega_q) / omega_q,
        )
        rows.append(
            {
                "i": str(i),
                "psi_closed": _fmt(moments.psi[i - 1]),
                "psi_quadrature": _fmt(psi_q),
                "psi_mc": _fmt(mc_psi[i - 1]),
                "psi_mc_stderr": _fmt(psi_se[i - 1]),
                "omega_closed": _fmt(moments.omega[i - 1]),
                "omega_quadrature": _fmt(omega_q),
                "omega_mc": _fmt(mc_omega[i - 1]),
                "omega_mc_stderr": _fmt(omega_se[i - 1]),
            }
        )
    _write_csv(spec.output, MOMENTS_HEADER, rows)
    totals = {"psi_closed": math.fsum(float(r["psi_closed"]) for r in rows)}
    summary = (
        f"moments-check: {M} positions -> {spec.output}; "
        f"max closed-vs-quadrature rel err {worst:.3g}; "
        f"sum(psi_closed) {_fmt(totals['psi_closed'])}"
    )
    return RunResult(
        kind=spec.kind,
        csv_paths=(spec.output,),
        rows={spec.output: rows},
        reported_totals=totals,
        summary=summary,
    )


def _write_csv(path: Path, header: list[str], rows: list[dict]) -> None:
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def run(spec: ExperimentSpec) -> RunResult:
    """Execute one experiment and write its CSV artifact(s)."""
    if spec.kind in ("snr-sweep", "kappa-sweep"):
        return _run_grid_sweep(spec)
    if spec.kind == "placement-sweep":
        return _run_placement(spec)
    return _run_moments_check(spec)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mwrnoma",
        description="Multi-way relay sum-rate experiments (closed form + Monte Carlo).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment and write CSV")
    runp.add_argument("--config", type=Path, default=None, help="JSON config file")
    runp.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        default=None,
        help="named experiment preset (config file values override it)",
    )
    runp.add_argument("--output", type=Path, default=None, help="CSV output path")
    runp.add_argument("--seed", type=int, default=None, help="64-bit seed override")
    runp.add_argument("--trials", type=int, default=None, help="Monte Carlo trials override")
    runp.add_argument("--engine", choices=ENGINES, default=None, help="engine override")
    args = parser.parse_args(argv)

    overrides: dict = {}
    if args.seed is not None:
        overrides.setdefault("trials", {})["seed"] = args.seed
    if args.trials is not None:
        overrides.setdefault("trials", {})["trials"] = args.trials
    if args.engine is not None:
        overrides.setdefault("experiment", {})["engine"] = args.engine
    if args.output is not None:
        overrides.setdefault("experiment", {})["output"] = str(args.output)

    try:
        spec = load_spec(args.config, args.preset, overrides)
        result = run(spec)
    except ConfigurationError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 4
    print(result.summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
