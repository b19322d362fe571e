"""Experiment runner: config ingestion, sweep orchestration, CSV emission.

One experiment = one sweep dimension (SNR grid, distortion grid, or relay
position grid) plus fixed network/fading/impairment sections.  SNR values
are given in dB in configs and converted to linear once at ingestion.
Identical spec and seed produce byte-identical CSV output.  A Monte Carlo
run draws its chunks one after another on one thread.

The SNR and kappa sweeps and the moments check write through
``csv.writer`` (``_csv_writer``), which quotes a cell where CSV needs it:
an SNR sweep's condition labels are user strings.  A placement surface
holds numbers only, and ``_write_surface`` writes it as plain text, one
block per grid row, in the bytes ``csv.writer`` would give.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from itertools import chain, product
from pathlib import Path

import numpy as np

from ._kernels import kernel_args
from .baseline import scheme_prefactor
from .channel import MAX_MOMENT_TABLE, FadingParams, moment_oracle, order_stat_moments
from .errors import ConfigurationError, NumericError, SweepPointError
from .montecarlo import SweepPoint, TrialConfig, sample_moments, simulate_sweep
from .placement import Geometry, GridSpec, PlacementSurface, distances, sweep_surfaces
from .presets import DEFAULT_SEED, PRESETS, preset
from .rate import asr_rows
from .signal import ImpairmentProfile, NetworkConfig

__all__ = ["ExperimentSpec", "RunResult", "load_spec", "run", "main"]

log = logging.getLogger(__name__)

KINDS = ("snr-sweep", "kappa-sweep", "placement-sweep", "moments-check")
ENGINES = ("analytical", "mc", "both")

# most points a start/stop/step mapping may expand to, checked before the
# points are built
MAX_SWEEP_POINTS = 100_000


def _keys(*names, **sections) -> dict:
    """A config section's accepted keys: leaves, and subsections with keys of their own."""
    return {**dict.fromkeys(names), **sections}


_STEPS = _keys("start", "stop", "step")
_LEVELS = _keys(*(f.name for f in fields(ImpairmentProfile)))
# the keys each config section accepts; "*" stands for any label.  A
# subsection's keys are checked where the config gives it as a mapping.
CONFIG_KEYS = _keys(
    network=_keys("n_users", "a", "c", "power_ratio_n", "sigma_r2", "sigma_t2"),
    fading=_keys("alpha", "beta", "nu", "distances"),
    impairments=_keys(*_LEVELS, variants={"*": _LEVELS}),
    geometry=_keys("users", "height"),
    # workers: runs are single-threaded and ignore it; still accepted
    # because the benchmark's mc_point_m8 config (perfbench/run.py) writes it
    trials=_keys("trials", "seed", "workers"),
    experiment=_keys(
        "kind",
        "engine",
        "schemes",
        "output",
        snr_db=_STEPS,
        kappa=_STEPS,
        grid=_keys(*(f.name for f in fields(GridSpec))),
    ),
)

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


# decimal output with 9 significant digits, for the cells of both CSV
# writers (``_csv_writer``, ``_write_surface``) and the summaries' totals;
# a bound method, so that ``map(_fmt, ...)`` makes no Python-level call
# per value.  ``_write_surface`` formats a grid row's rates with "%.9g",
# which gives the same text, in one call per row.
_fmt = "{:.9g}".format


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

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"experiment.kind: unknown kind {self.kind!r}")
        if self.engine not in ENGINES:
            raise ConfigurationError(f"experiment.engine: must be one of {ENGINES}")
        if any(s not in ("noma", "oma") for s in self.schemes):
            raise ConfigurationError("experiment.schemes: entries must be 'noma' or 'oma'")
        # every scheme names one CSV (placement) or one set of rows (sweeps)
        if not self.schemes:
            raise ConfigurationError("experiment.schemes: need at least one scheme")
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigurationError(
                f"experiment.schemes: each scheme may appear once, got {list(self.schemes)!r}"
            )
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
        if (self.engine != "analytical" or self.kind == "moments-check") and self.trials is None:
            raise ConfigurationError("trials: required by the mc engine and by moments-check")


@dataclass(frozen=True)
class RunResult:
    """Artifacts of one run: written files and rounded totals."""

    kind: str
    csv_paths: tuple[Path, ...]
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


def _check_keys(section: dict, accepted: dict, where: str = "") -> None:
    """Refuse the first key, depth first in config order, that ``accepted``
    does not list."""
    for key, value in section.items():
        path = f"{where}.{key}" if where else key
        if "*" in accepted:
            sub = accepted["*"]
        elif key in accepted:
            sub = accepted[key]
        else:
            raise ConfigurationError(f"{path}: unknown key")
        if sub is not None and isinstance(value, dict):
            _check_keys(value, sub, path)


def _need(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigurationError(f"{where}.{key}: missing required key")
    return section[key]


def _section(value, where: str) -> dict:
    if isinstance(value, dict):
        return value
    raise ConfigurationError(f"{where}: expected a mapping, got {value!r}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_scalar(value, where: str) -> float:
    if _is_number(value):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ConfigurationError(f"{where}: expected a single number, got {value!r}")


def _as_count(value, where: str) -> int:
    """An integral number, kept exact (a 64-bit seed does not pass through float)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if not _as_scalar(value, where).is_integer():
        raise ConfigurationError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def _as_numbers(value, where: str) -> tuple[float, ...]:
    if isinstance(value, list) and all(map(_is_number, value)):
        return tuple(_as_scalar(v, where) for v in value)
    raise ConfigurationError(f"{where}: expected a list of numbers, got {value!r}")


def _as_path(value, where: str) -> Path:
    if isinstance(value, str) and value:
        return Path(value)
    raise ConfigurationError(f"{where}: expected a non-empty path string, got {value!r}")


def _as_grid(value, where: str) -> tuple[float, ...]:
    if isinstance(value, dict):
        start, stop, step = (
            _as_scalar(_need(value, key, where), f"{where}.{key}")
            for key in ("start", "stop", "step")
        )
        if not all(map(math.isfinite, (start, stop, step))):
            raise ConfigurationError(f"{where}: start, stop and step must be finite")
        if step <= 0 or stop < start:
            raise ConfigurationError(f"{where}: need step > 0 and stop >= start")
        if not math.isfinite((stop - start) / step):
            raise ConfigurationError(f"{where}: (stop - start) / step overflows")
        n = math.floor((stop - start) / step + 1e-9) + 1
        if n > MAX_SWEEP_POINTS:
            raise ConfigurationError(
                f"{where}: {n:g} points exceed the limit of {MAX_SWEEP_POINTS}"
            )
        return tuple(start + step * i for i in range(n))
    if isinstance(value, list) and value:
        return _as_numbers(value, where)
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
    if isinstance(raw, dict) and "variants" in raw:
        variants = raw["variants"]
        if not isinstance(variants, dict) or not variants:
            raise ConfigurationError(
                f"impairments.variants: expected a non-empty mapping, got {variants!r}"
            )
        return tuple(
            (str(label), _profile_from(section, f"impairments.variants.{label}"))
            for label, section in variants.items()
        )
    profile = _profile_from(raw, "impairments")
    return ((("ideal" if profile.is_ideal else "nonideal"), profile),)


def _profile_from(section, where: str) -> ImpairmentProfile:
    section = _section(section, where)
    levels = {
        key: _as_scalar(section.get(key, 0.0), f"{where}.{key}")
        for key in ("kappa_ut", "kappa_ur", "kappa_rt", "kappa_rr")
    }
    try:
        return ImpairmentProfile(**levels)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


def _spec_from_config(config: dict) -> ExperimentSpec:
    _check_keys(config, CONFIG_KEYS)
    exp = _section(_need(config, "experiment", "config"), "experiment")
    kind = str(_need(exp, "kind", "experiment"))
    if kind not in KINDS:
        raise ConfigurationError(f"experiment.kind: unknown kind {kind!r}")

    net = _section(_need(config, "network", "config"), "network")
    n_users = _as_count(_need(net, "n_users", "network"), "network.n_users")
    a = _as_numbers(_need(net, "a", "network"), "network.a")
    # noise variances at the relay and at the users; they only fix c
    sigma_r2 = _as_scalar(net.get("sigma_r2", 1.0), "network.sigma_r2")
    sigma_t2 = _as_scalar(net.get("sigma_t2", 1.0), "network.sigma_t2")
    for key, value in (("sigma_r2", sigma_r2), ("sigma_t2", sigma_t2)):
        if not (value > 0 and math.isfinite(value)):
            raise ConfigurationError(f"network.{key}: must be finite and > 0, got {value}")
    if "c" in net:
        c = _as_scalar(net["c"], "network.c")
    else:
        # equal-power default: user power = n * relay power
        ratio_n = _as_scalar(net.get("power_ratio_n", 1.0), "network.power_ratio_n")
        if ratio_n <= 0:
            raise ConfigurationError(f"network.power_ratio_n: must be > 0, got {ratio_n}")
        c = sigma_r2 / (ratio_n * sigma_t2)

    snr_grid = None
    kappa_grid = None
    grid = None
    geometry = None

    if kind == "snr-sweep":
        snr_dbs = snr_grid = _as_grid(_need(exp, "snr_db", "experiment"), "experiment.snr_db")
    else:
        if kind == "kappa-sweep":
            kappa_grid = _as_grid(_need(exp, "kappa", "experiment"), "experiment.kappa")
        # one operating point; the moments check draws no rates from it
        if kind == "moments-check":
            snr_db = exp.get("snr_db", 0.0)
        else:
            snr_db = _need(exp, "snr_db", "experiment")
        snr_dbs = (_as_scalar(snr_db, "experiment.snr_db"),)
    r1_grid = [_snr_linear(db) for db in snr_dbs]

    try:
        network = NetworkConfig(n_users=n_users, a=a, r1=r1_grid[0], c=c)
    except ConfigurationError as exc:
        raise ConfigurationError(f"network: {exc}") from exc
    # the rates take 1 / r2: a relay SNR that overflows has its limit, 0 has none
    for db, r1 in zip(snr_dbs, r1_grid):
        if c * r1 == 0.0:
            raise ConfigurationError(
                f"experiment.snr_db: relay SNR c * r1 underflows to 0 at {db!r} dB, c={c!r}"
            )

    fad = _section(_need(config, "fading", "config"), "fading")
    if kind == "placement-sweep":
        geo = _section(_need(config, "geometry", "config"), "geometry")
        users = _need(geo, "users", "geometry")
        if not isinstance(users, list) or not all(
            isinstance(p, list) and len(p) == 2 for p in users
        ):
            raise ConfigurationError(
                f"geometry.users: expected a list of [x, y] pairs, got {users!r}"
            )
        users = tuple(_as_numbers(p, "geometry.users") for p in users)
        height = _as_scalar(geo.get("height", 10.0), "geometry.height")
        try:
            geometry = Geometry(user_positions=users, uav_xy=(0.0, 0.0), uav_height=height)
        except ConfigurationError as exc:
            raise ConfigurationError(f"geometry: {exc}") from exc
        grid_section = _section(_need(exp, "grid", "experiment"), "experiment.grid")
        # keys not given take GridSpec's defaults
        bounds = {
            key: _as_scalar(value, f"experiment.grid.{key}")
            for key, value in grid_section.items()
        }
        try:
            grid = GridSpec(**bounds)
        except ConfigurationError as exc:
            raise ConfigurationError(f"experiment.grid: {exc}") from exc
        dist = tuple(sorted(distances(geometry).tolist(), reverse=True))
    else:
        dist = _as_numbers(_need(fad, "distances", "fading"), "fading.distances")

    beta = _as_scalar(_need(fad, "beta", "fading"), "fading.beta")
    nu = _as_scalar(_need(fad, "nu", "fading"), "fading.nu")
    try:
        fading = FadingParams(
            alpha=_need(fad, "alpha", "fading"), beta=beta, nu=nu, distances=dist
        )
    except ConfigurationError as exc:
        raise ConfigurationError(f"fading: {exc}") from exc
    if fading.n_users != network.n_users:
        raise ConfigurationError(
            f"fading.distances: length {fading.n_users} != network.n_users {network.n_users}"
        )
    if fading.alpha * network.n_users**2 > MAX_MOMENT_TABLE:
        raise ConfigurationError(
            f"network.n_users: at most {math.isqrt(MAX_MOMENT_TABLE // fading.alpha)} "
            f"at fading.alpha {fading.alpha} (alpha * n_users^2 <= {MAX_MOMENT_TABLE}), "
            f"got {network.n_users}"
        )

    variants = _parse_impairments(config.get("impairments"))
    if kind == "kappa-sweep" and len(variants) > 1:
        raise ConfigurationError(
            "impairments.variants: not allowed in a kappa-sweep (one sweep dimension)"
        )

    trials = None
    if "trials" in config:
        tr = _section(config["trials"], "trials")
        count = _as_count(_need(tr, "trials", "trials"), "trials.trials")
        seed = _as_count(tr.get("seed", DEFAULT_SEED), "trials.seed")
        try:
            trials = TrialConfig(trials=count, seed=seed)
        except ConfigurationError as exc:
            raise ConfigurationError(f"trials: {exc}") from exc

    engine = str(exp.get("engine", "analytical"))
    schemes = exp.get("schemes", ["noma"])
    if not (isinstance(schemes, list) and all(isinstance(s, str) for s in schemes)):
        raise ConfigurationError(
            f"experiment.schemes: expected a list of scheme names, got {schemes!r}"
        )
    output = _as_path(exp.get("output", f"{kind}.csv"), "experiment.output")
    return ExperimentSpec(
        kind=kind,
        network=network,
        fading=fading,
        variants=variants,
        schemes=tuple(schemes),
        engine=engine,
        output=output,
        trials=trials,
        snr_db_grid=snr_grid,
        kappa_grid=kappa_grid,
        geometry=geometry,
        grid=grid,
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
    user: dict = {}
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
    _check_shadowed_levels(user.get("impairments"), merged.get("impairments"))
    return _spec_from_config(merged)


def _check_shadowed_levels(given, merged) -> None:
    """Refuse a distortion level that the config file sets beside
    ``impairments.variants``, which would drop it; a preset's single
    profile under the file's variants is replaced, not refused."""
    if not (isinstance(given, dict) and isinstance(merged, dict) and "variants" in merged):
        return
    for key in given:
        if key in _LEVELS:
            raise ConfigurationError(
                f"impairments.{key}: not used when impairments.variants is set"
            )


def _run_grid_sweep(spec: ExperimentSpec) -> RunResult:
    """Shared body of the snr- and kappa-sweeps (one scalar sweep column).

    Each (sweep value, condition) is one point, evaluated once by each
    engine at unit share; each scheme's rows are those numbers times its
    share."""
    if spec.kind == "snr-sweep":
        header, key = SNR_HEADER, "snr_db"
        values = [(v, _snr_linear(v), None) for v in spec.snr_db_grid]
    else:
        header, key = KAPPA_HEADER, "kappa"
        values = [(v, spec.network.r1, ImpairmentProfile.uniform(v)) for v in spec.kappa_grid]

    # (sweep value, condition), formatted, and the point of each
    labels: list[tuple[str, str]] = []
    points: list[SweepPoint] = []
    for value, r1, sweep_profile in values:
        cfg = replace(spec.network, r1=r1)
        for label, base_profile in spec.variants:
            profile = sweep_profile or base_profile
            if sweep_profile is not None:
                label = "ideal" if profile.is_ideal else "nonideal"
            labels.append((_fmt(value), label))
            points.append(SweepPoint(cfg, spec.fading, profile))

    # every point's closed form in one kernel call; a fault names the first
    moments = order_stat_moments(spec.fading, spec.network.n_users)
    psi = np.broadcast_to(moments.psi, (len(points), moments.n_users))
    args = [kernel_args(p.cfg, p.imp) for p in points]
    totals, fault = asr_rows(psi, spec.network.a, args)
    if fault is not None:
        raise fault[1]
    results = None
    if spec.engine != "analytical":
        try:
            results = simulate_sweep(points, spec.trials)
        except SweepPointError as exc:
            value, condition = labels[exc.point]
            raise NumericError(f"{key}={value} {spec.schemes[0]}/{condition}: {exc}") from exc

    # (sweep value, scheme, condition, asr_analytical, asr_mc, mc_stderr),
    # formatted: each scheme's rows of a sweep value at its share
    rows = []
    n = len(spec.variants)
    for first, scheme, k in product(range(0, len(points), n), spec.schemes, range(n)):
        i, share = first + k, scheme_prefactor(scheme, spec.network.n_users)
        value, condition = labels[i]
        row = [value, scheme, condition, _fmt(float(totals[i]) * share), "", ""]
        if results is not None:
            mc, stderr = results[i].total * share, results[i].stderr * share
            row[4:] = _fmt(mc), _fmt(stderr)
            log.info(
                "%s=%s %s/%s: analytic-vs-mc gap %.3g",
                key, value, scheme, condition, abs(float(row[3]) - mc),
            )
        rows.append(row)

    with _csv_writer(spec.output, header) as writer:
        writer.writerows(rows)
    totals: dict[str, float] = {}
    for _, scheme, condition, analytic, *_ in rows:
        group = f"{scheme}/{condition}"
        totals[group] = totals.get(group, 0.0) + float(analytic)
    lines = [f"{spec.kind}: {len(rows)} rows -> {spec.output}"]
    for group in sorted(totals):
        lines.append(f"  sum(asr_analytical) {group}: {_fmt(totals[group])}")
    return RunResult(
        kind=spec.kind,
        csv_paths=(spec.output,),
        reported_totals=totals,
        summary="\n".join(lines),
    )


def _run_placement(spec: ExperimentSpec) -> RunResult:
    engine = "monte-carlo" if spec.engine == "mc" else "analytical"
    _, profile = spec.variants[0]
    surfaces = sweep_surfaces(
        spec.geometry,
        spec.grid,
        spec.network,
        spec.fading,
        profile,
        engine=engine,
        schemes=spec.schemes,
        tc=spec.trials,
    )
    paths: list[Path] = []
    totals: dict[str, float] = {}
    lines: list[str] = []
    for scheme, surface in zip(spec.schemes, surfaces):
        path = spec.output
        if scheme != spec.schemes[0]:
            path = spec.output.with_name(
                spec.output.stem + f"_{scheme}" + spec.output.suffix
            )
        totals[scheme] = _write_surface(path, surface)
        paths.append(path)
        lines.append(
            f"placement {scheme}: {surface.asr.size} points -> {path}; "
            f"argmax at ({_fmt(surface.argmax_xy[0])}, {_fmt(surface.argmax_xy[1])}); "
            f"sum(asr) {_fmt(totals[scheme])}"
        )
    return RunResult(
        kind=spec.kind,
        csv_paths=tuple(paths),
        reported_totals=totals,
        summary="\n".join(lines),
    )


def _write_surface(path: Path, surface: PlacementSurface) -> float:
    """Write a surface's CSV, one text block per grid row (y fixed, x
    inner), and return the ``math.fsum`` of its rates as written (each
    parsed back from its cell).  Every cell is a number, which needs no
    quoting, so the bytes are ``csv.writer``'s."""
    n = surface.xs.size
    # a grid row's lines as one list of pieces: "x,", "y,", rate, "\n" per
    # site.  The x labels and line ends are set once, the rest per row, so
    # the file is built one grid row at a time.
    pieces = [None] * (4 * n)
    pieces[0::4] = [x + "," for x in map(_fmt, surface.xs.tolist())]
    pieces[3::4] = ["\n"] * n
    # the split leaves an empty cell after the last comma
    row_format = "%.9g," * n

    def written_rates(fh):
        for y, asr_row in zip(map(_fmt, surface.ys.tolist()), surface.asr):
            rates = (row_format % tuple(asr_row.tolist())).split(",")
            del rates[n]
            pieces[1::4] = [y + ","] * n
            pieces[2::4] = rates
            fh.write("".join(pieces))
            yield map(float, rates)

    with _new_file(path) as fh:
        fh.write(",".join(PLACEMENT_HEADER) + "\n")
        return math.fsum(chain.from_iterable(written_rates(fh)))


def _run_moments_check(spec: ExperimentSpec) -> RunResult:
    fading, M = spec.fading, spec.network.n_users
    (mc_psi, mc_omega), (psi_se, omega_se) = sample_moments(fading, spec.trials)

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
            (
                str(i),
                _fmt(moments.psi[i - 1]),
                _fmt(psi_q),
                _fmt(mc_psi[i - 1]),
                _fmt(psi_se[i - 1]),
                _fmt(moments.omega[i - 1]),
                _fmt(omega_q),
                _fmt(mc_omega[i - 1]),
                _fmt(omega_se[i - 1]),
            )
        )
    with _csv_writer(spec.output, MOMENTS_HEADER) as writer:
        writer.writerows(rows)
    totals = {"psi_closed": math.fsum(float(r[1]) for r in rows)}
    summary = (
        f"moments-check: {M} positions -> {spec.output}; "
        f"max closed-vs-quadrature rel err {worst:.3g}; "
        f"sum(psi_closed) {_fmt(totals['psi_closed'])}"
    )
    return RunResult(
        kind=spec.kind,
        csv_paths=(spec.output,),
        reported_totals=totals,
        summary=summary,
    )


def _new_file(path: Path):
    """A new text file at path, its directory made if missing."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", newline="")


@contextmanager
def _csv_writer(path: Path, header: list[str]):
    """A ``csv.writer`` on a new file at path, the header already written;
    rows are tuples of cells in header order.  The sweep and moments-check
    CSVs use it, so that a cell that needs quoting, such as a user's
    condition label, gets it; a placement surface is written by
    ``_write_surface``."""
    with _new_file(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        yield writer


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
    runp.add_argument("--output", default=None, help="CSV output path")
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
        overrides.setdefault("experiment", {})["output"] = args.output

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
