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
from dataclasses import dataclass, fields
from functools import reduce
from itertools import chain, product
from pathlib import Path

import numpy as np

from ._kernels import kernel_args
from .baseline import scheme_prefactor
from .channel import FadingParams, moment_oracle, order_stat_moments
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
    """Validated, fully-resolved experiment description.

    ``sweep`` holds each sweep value's network (each SNR converted once)
    and its conditions: the labelled profiles ``variants``, or in a kappa
    sweep the value's own.
    """

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
    sweep: tuple[tuple[NetworkConfig, tuple], ...] | None = None

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ConfigurationError(f"must be one of {ENGINES}", field="engine")
        if any(s not in ("noma", "oma") for s in self.schemes):
            raise ConfigurationError("entries must be 'noma' or 'oma'", field="schemes")
        # every scheme names one CSV (placement) or one set of rows (sweeps)
        if not self.schemes:
            raise ConfigurationError("need at least one scheme", field="schemes")
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigurationError(
                f"each scheme may appear once, got {list(self.schemes)!r}", field="schemes"
            )
        # each sweep kind has its own sweep dimension and no other
        dims = {"snr-sweep": self.snr_db_grid, "kappa-sweep": self.kappa_grid}
        dims["placement-sweep"] = self.geometry and self.grid
        if [k for k, v in dims.items() if v is not None] != [k for k in dims if k == self.kind]:
            raise ConfigurationError(f"{self.kind} needs its own sweep dimension and no other")
        if self.kind == "placement-sweep" and self.engine == "both":
            raise ConfigurationError("placement-sweep uses a single engine", field="engine")
        if (self.engine != "analytical" or self.kind == "moments-check") and self.trials is None:
            raise ConfigurationError(
                "required by the mc engine and by moments-check", field="trials"
            )


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


# Readers: each returns a config value in the form a type takes, or refuses
# it naming its dotted key; the type checks the value's bounds.


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_scalar(value, where: str) -> float:
    if _is_number(value):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ConfigurationError(f"{where}: expected a single number, got {value!r}")


def _as_positive(value, where: str) -> float:
    """A finite number > 0: a noise variance or power ratio, which only fix c."""
    x = _as_scalar(value, where)
    if not (x > 0 and math.isfinite(x)):
        raise ConfigurationError(f"{where}: must be finite and > 0, got {x}")
    return x


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


def _as_points(value, where: str) -> tuple[tuple[float, ...], ...]:
    if isinstance(value, list) and all(isinstance(p, list) and len(p) == 2 for p in value):
        return tuple(_as_numbers(p, where) for p in value)
    raise ConfigurationError(f"{where}: expected a list of [x, y] pairs, got {value!r}")


def _as_names(value, where: str) -> tuple[str, ...]:
    if isinstance(value, list) and all(isinstance(s, str) for s in value):
        return tuple(value)
    raise ConfigurationError(f"{where}: expected a list of scheme names, got {value!r}")


def _as_path(value, where: str) -> Path:
    if not (isinstance(value, str) and value):
        raise ConfigurationError(f"{where}: expected a non-empty path string, got {value!r}")
    if "\0" in value:
        raise ConfigurationError(f"{where}: a path may not contain a NUL byte, got {value!r}")
    return Path(value)


def _as_grid(value, where: str) -> tuple[float, ...]:
    if isinstance(value, dict):
        steps = _Section(value, _STEPS, where)
        start, stop, step = (steps[key] for key in _STEPS)
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


_REQUIRED = object()
_STEPS = dict.fromkeys(("start", "stop", "step"), (_as_scalar, _REQUIRED))
_LEVELS = tuple(f.name for f in fields(ImpairmentProfile))

# Every config leaf by its dotted key ("*" stands for any label), as
# (reader, default): ``reader(value, key)`` reads a given value (None: as
# given); a leaf without a default is _REQUIRED, and a default of None is
# supplied by ``_spec_from_config``.  An ``_as_grid`` leaf may be a mapping
# of the leaves ``_STEPS``.  A key that is not here is refused before any
# value is read; a leaf is read only by the run kinds that use it.
CONFIG_SCHEMA = {
    "network.n_users": (_as_count, _REQUIRED),
    "network.a": (_as_numbers, _REQUIRED),
    "network.c": (_as_scalar, None),
    "network.power_ratio_n": (_as_positive, 1.0),
    "network.sigma_r2": (_as_positive, 1.0),
    "network.sigma_t2": (_as_positive, 1.0),
    # FadingParams refuses a shape that is not a positive integer
    "fading.alpha": (None, _REQUIRED),
    "fading.beta": (_as_scalar, _REQUIRED),
    "fading.nu": (_as_scalar, _REQUIRED),
    "fading.distances": (_as_numbers, _REQUIRED),
    **{f"impairments.{key}": (_as_scalar, 0.0) for key in _LEVELS},
    **{f"impairments.variants.*.{key}": (_as_scalar, 0.0) for key in _LEVELS},
    "geometry.users": (_as_points, _REQUIRED),
    "geometry.height": (_as_scalar, 10.0),
    "trials.trials": (_as_count, _REQUIRED),
    "trials.seed": (_as_count, DEFAULT_SEED),
    # runs are single-threaded and never read it; still accepted because
    # the benchmark's mc_point_m8 config (perfbench/run.py) writes it
    "trials.workers": (None, None),
    # _spec_from_config refuses an unknown kind, ExperimentSpec an unknown
    # engine or scheme
    "experiment.kind": (None, _REQUIRED),
    "experiment.engine": (None, "analytical"),
    "experiment.schemes": (_as_names, ("noma",)),
    "experiment.output": (_as_path, None),
    # a sweep's values; a kind that runs at one SNR reads snr_db as one number
    "experiment.snr_db": (_as_grid, _REQUIRED),
    "experiment.kappa": (_as_grid, _REQUIRED),
    **{f"experiment.grid.{f.name}": (_as_scalar, f.default) for f in fields(GridSpec)},
}


def _schema_tree(leaves: dict) -> dict:
    """The schema as nested mappings, one per section."""
    tree: dict = {}
    for path, leaf in leaves.items():
        *sections, key = path.split(".")
        reduce(lambda node, name: node.setdefault(name, {}), sections, tree)[key] = leaf
    return tree


_SCHEMA = _schema_tree(CONFIG_SCHEMA)


class _Section:
    """A config mapping at the dotted key ``where``, read through its part
    of the schema: ``section[key]`` is a subsection, or a leaf's value by
    its reader, or its default where the mapping omits it."""

    def __init__(self, values: dict, schema: dict, where: str = ""):
        self.values, self.schema, self.where = values, schema, where

    def path(self, key: str) -> str:
        return f"{self.where}.{key}" if self.where else key

    def check(self) -> _Section:
        """Refuse the first key, depth first in config order, that the
        schema does not list; returns the section."""
        for key, value in self.values.items():
            entry = self.schema.get(key, self.schema.get("*"))
            if entry is None:
                raise ConfigurationError(f"{self.path(key)}: unknown key")
            if isinstance(entry, tuple):
                entry = _STEPS if entry[0] is _as_grid else None
            if entry is not None and isinstance(value, dict):
                _Section(value, entry, self.path(key)).check()
        return self

    def __getitem__(self, key: str):
        entry = self.schema.get(key, self.schema.get("*"))
        if not isinstance(entry, dict):
            return self.read(key, *entry)
        value = self.read(key, None, _REQUIRED)
        # a mapping of labels needs one label at least
        need = "a non-empty mapping" if "*" in entry else "a mapping"
        if not isinstance(value, dict) or ("*" in entry and not value):
            raise ConfigurationError(f"{self.path(key)}: expected {need}, got {value!r}")
        return _Section(value, entry, self.path(key))

    def read(self, key: str, reader, default):
        """A leaf by ``reader`` and ``default``, not its schema entry's."""
        if key not in self.values:
            if default is _REQUIRED:
                raise ConfigurationError(f"{self.where or 'config'}.{key}: missing required key")
            return default
        value = self.values[key]
        return value if reader is None else reader(value, self.path(key))


def _build(key: str, make, /, *args, keys: dict | None = None, **kwargs):
    """``make(*args, **kwargs)``, the value of the config key ``key``: a
    refusal gets that key in front, or the key that ``keys`` gives the
    argument it is about (``ConfigurationError.field``)."""
    try:
        return make(*args, **kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{(keys or {}).get(exc.field, key)}: {exc}") from exc


def _snr_linear(db: float) -> float:
    """Linear SNR of a dB value, inf where it overflows (NetworkConfig
    refuses an SNR that is not finite and > 0)."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def _variants(imp: _Section) -> tuple[tuple[str, ImpairmentProfile], ...]:
    """The labelled distortion profiles of an ``impairments`` section: its
    ``variants``, beside which a level would be dropped, or its levels."""
    if "variants" not in imp.values:
        return (_labelled(_profile(imp)),)
    shadowed = [key for key in imp.values if key in _LEVELS]
    if shadowed:
        raise ConfigurationError(
            f"{imp.path(shadowed[0])}: not used when {imp.path('variants')} is set"
        )
    variants = imp["variants"]
    return tuple((str(label), _profile(variants[label])) for label in variants.values)


def _profile(section: _Section) -> ImpairmentProfile:
    return _build(section.where, ImpairmentProfile, **{key: section[key] for key in _LEVELS})


def _labelled(profile: ImpairmentProfile) -> tuple[str, ImpairmentProfile]:
    """An unlabelled profile with its condition label in the sweep CSVs."""
    return ("ideal" if profile.is_ideal else "nonideal"), profile


def _spec_from_config(config: dict) -> ExperimentSpec:
    """Read a merged config through the schema, wiring each run kind's
    leaves into the types that check them."""
    root = _Section(config, _SCHEMA).check()
    exp = root["experiment"]
    kind = exp["kind"]
    if kind not in KINDS:
        raise ConfigurationError(f"{exp.path('kind')}: unknown kind {kind!r}")

    net = root["network"]
    n_users, a, c = net["n_users"], net["a"], net["c"]
    if c is None:
        # equal-power default: user power = n * relay power.  A denominator
        # that underflows to 0 gives c = inf, which NetworkConfig refuses.
        scale = net["power_ratio_n"] * net["sigma_t2"]
        c = net["sigma_r2"] / scale if scale else math.inf

    imp = root["impairments"] if "impairments" in config else _Section({}, _SCHEMA["impairments"])
    variants = _variants(imp)
    snr_grid = kappa_grid = geometry = grid = None
    if kind == "snr-sweep":
        snr_dbs = snr_grid = exp["snr_db"]
    else:
        # one operating point; the moments check draws no rates from it
        default = 0.0 if kind == "moments-check" else _REQUIRED
        snr_dbs = (exp.read("snr_db", _as_scalar, default),)
    sweep = [
        (_build(net.where, NetworkConfig, n_users=n_users, a=a, c=c, r1=_snr_linear(db),
                keys={"r1": exp.path("snr_db")}), variants)
        for db in snr_dbs
    ]
    if kind == "kappa-sweep":
        if len(variants) > 1:
            raise ConfigurationError(
                f"{imp.path('variants')}: not allowed in a kappa-sweep (one sweep dimension)"
            )
        kappa_grid = exp["kappa"]
        sweep = [
            (sweep[0][0], (_labelled(_build(exp.path("kappa"), ImpairmentProfile.uniform, v)),))
            for v in kappa_grid
        ]

    fad = root["fading"]
    if kind == "placement-sweep":
        geo = root["geometry"]
        geometry = _build(
            geo.where, Geometry, user_positions=geo["users"], uav_height=geo["height"]
        )
        bounds = exp["grid"]
        grid = _build(bounds.where, GridSpec, **{key: bounds[key] for key in bounds.schema})
        dist = tuple(sorted(distances(geometry).tolist(), reverse=True))
    else:
        dist = fad["distances"]
    if len(dist) != n_users:
        raise ConfigurationError(
            f"{fad.path('distances')}: length {len(dist)} != {net.path('n_users')} {n_users}"
        )
    fading = _build(
        fad.where, FadingParams, alpha=fad["alpha"], beta=fad["beta"], nu=fad["nu"],
        distances=dist, keys={"n_users": net.path("n_users")},
    )

    tr = root["trials"] if "trials" in config else None
    return _build(
        exp.where, ExperimentSpec,
        kind=kind,
        network=sweep[0][0],
        fading=fading,
        variants=variants,
        schemes=exp["schemes"],
        engine=exp["engine"],
        output=exp["output"] or Path(f"{kind}.csv"),
        trials=tr and _build(
            tr.where, TrialConfig, trials=tr["trials"], seed=tr["seed"],
            keys={"trials": tr.path("trials")},
        ),
        snr_db_grid=snr_grid,
        kappa_grid=kappa_grid,
        geometry=geometry,
        grid=grid,
        sweep=tuple(sweep),
        keys={"engine": exp.path("engine"), "schemes": exp.path("schemes"), "trials": "trials"},
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
            user = json.loads(Path(config_path).read_text())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {config_path}: {exc}") from exc
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep to decode
            raise ConfigurationError(f"config {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigurationError("config root must be a JSON object")
        if isinstance(user.get("impairments"), dict) and "variants" in user["impairments"]:
            # the file's variants replace a preset's single profile
            merged["impairments"] = {"variants": merged.get("impairments", {}).get("variants", {})}
        merged = _deep_merge(merged, user)
    if overrides:
        merged = _deep_merge(merged, overrides)
    return _spec_from_config(merged)


def _run_grid_sweep(spec: ExperimentSpec) -> RunResult:
    """Shared body of the snr- and kappa-sweeps (one scalar sweep column).

    Each (sweep value, condition) is one point, evaluated once by each
    engine at unit share; each scheme's rows are those numbers times its
    share."""
    if spec.kind == "snr-sweep":
        header, key, values = SNR_HEADER, "snr_db", spec.snr_db_grid
    else:
        header, key, values = KAPPA_HEADER, "kappa", spec.kappa_grid

    # (sweep value, condition), formatted, and the point of each
    labels: list[tuple[str, str]] = []
    points: list[SweepPoint] = []
    for value, (cfg, conditions) in zip(values, spec.sweep):
        for label, profile in conditions:
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
