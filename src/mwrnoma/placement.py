"""Relay-placement geometry and the sum-rate surface over a horizontal grid.

Ground users sit at fixed 2-D coordinates; the relay hovers at a fixed
altitude and its horizontal position is swept over a rectangular grid.
Each grid point maps to a fresh set of user distances, which re-scale the
fading moments; longer links mean weaker mean gains, so distances sorted
descending are assigned to ascending order positions (position 1 holds
the weakest user).

The analytical surface runs in blocks of whole grid rows, about
``BLOCK_SITES`` sites each: per block, the site distances form a
(sites, M) array, the closed-form moments are scaled for all its rows at
once (``channel.order_stat_moment_rows``) and one kernel call adds every
decoder rate into the sites' totals (``rate.asr_rows``), so a surface
holds one block's intermediates and its totals, whatever the grid's size.
The Monte Carlo surface is one sweep with a point per site
(``montecarlo.simulate_sweep``).  The NOMA and OMA surfaces differ only in
the time share of each pair rate, so ``sweep_surfaces`` evaluates one
surface of unit-share totals, which both engines return, and each
scheme's surface is those totals times its share.  Both engines use the
one path-loss formula 1 + d^nu, computed per entry, a row-local kernel and
one left-to-right sum of a site's decoder rates, so each site gets the same
bits as a one-site evaluation, in any block.  A failure, a path loss or a
site distance that overflows included (whatever nu), names the first
failing site in row-major order (y outer, x inner).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._kernels import kernel_args
from .baseline import scheme_prefactor
from .channel import FadingParams, order_stat_moment_rows
from .errors import ConfigurationError, NumericError, SweepPointError
from .montecarlo import SweepPoint, TrialConfig, _sweep_plan, simulate_sweep
from .rate import asr_rows
from .signal import ImpairmentProfile, NetworkConfig

__all__ = [
    "Geometry",
    "GridSpec",
    "PlacementSurface",
    "link_distance",
    "distances",
    "sweep_grid",
    "sweep_surfaces",
]

# sites per block of an analytical surface, rounded down to whole grid rows
# (at least one): a block's distances, moments and kernel columns are all the
# surface holds at a time besides its totals
BLOCK_SITES = 1024

# most sites a grid may have; a 0.05 m step over the default 40 m square
# has 641,601
MAX_GRID_SITES = 10_000_000


@dataclass(frozen=True)
class Geometry:
    """Ground-user coordinates and relay position (meters)."""

    user_positions: tuple[tuple[float, float], ...]
    uav_xy: tuple[float, float] = (0.0, 0.0)
    uav_height: float = 10.0

    def __post_init__(self):
        pos = tuple((float(x), float(y)) for x, y in self.user_positions)
        object.__setattr__(self, "user_positions", pos)
        object.__setattr__(self, "uav_xy", (float(self.uav_xy[0]), float(self.uav_xy[1])))
        if not pos:
            raise ConfigurationError("need at least one user position")
        flat = [c for p in pos for c in p] + list(self.uav_xy)
        if not all(math.isfinite(c) for c in flat):
            raise ConfigurationError("positions must be finite")
        if not (self.uav_height > 0 and math.isfinite(self.uav_height)):
            raise ConfigurationError(f"uav_height must be > 0, got {self.uav_height}")

    @property
    def n_users(self) -> int:
        return len(self.user_positions)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sweep grid for the relay's horizontal position."""

    x_min: float = -20.0
    x_max: float = 20.0
    y_min: float = -20.0
    y_max: float = 20.0
    step: float = 1.0

    def __post_init__(self):
        if not (self.step > 0 and math.isfinite(self.step)):
            raise ConfigurationError(f"grid step must be > 0, got {self.step}")
        for name in ("x_min", "x_max", "y_min", "y_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"grid bounds must be finite, got {name}={value}")
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ConfigurationError("grid bounds must be ordered")
        for axis, lo, hi in (("x", self.x_min, self.x_max), ("y", self.y_min, self.y_max)):
            # the site count of an axis; a span beyond the float range has none
            if not math.isfinite((hi - lo) / self.step):
                raise ConfigurationError(
                    f"grid {axis} axis length ({axis}_max - {axis}_min) / step "
                    f"overflows: ({hi!r} - {lo!r}) / {self.step!r}"
                )
        nx, ny = self._size(self.x_min, self.x_max), self._size(self.y_min, self.y_max)
        if nx * ny > MAX_GRID_SITES:
            raise ConfigurationError(
                f"grid of {nx:g} x {ny:g} sites exceeds the limit of {MAX_GRID_SITES} sites"
            )

    def _size(self, lo: float, hi: float) -> int:
        return math.floor((hi - lo) / self.step + 1e-9) + 1

    def axis(self, lo: float, hi: float) -> np.ndarray:
        return lo + self.step * np.arange(self._size(lo, hi))

    @property
    def xs(self) -> np.ndarray:
        return self.axis(self.x_min, self.x_max)

    @property
    def ys(self) -> np.ndarray:
        return self.axis(self.y_min, self.y_max)


@dataclass(frozen=True, eq=False)
class PlacementSurface:
    """Sum rate over the grid: asr[j, i] belongs to (xs[i], ys[j])."""

    xs: np.ndarray
    ys: np.ndarray
    asr: np.ndarray
    argmax_xy: tuple[float, float]


def link_distance(user_xy, uav_xy, height: float) -> float:
    """Euclidean user-to-relay distance for a relay at the given altitude."""
    dx = user_xy[0] - uav_xy[0]
    dy = user_xy[1] - uav_xy[1]
    return math.sqrt(dx * dx + dy * dy + height * height)


def distances(geom: Geometry) -> np.ndarray:
    """Per-user link distances; all at least the relay altitude."""
    return np.array(
        [link_distance(p, geom.uav_xy, geom.uav_height) for p in geom.user_positions]
    )


def _site_distances(geom: Geometry, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """User distances for the relay at every grid site, shape (sites, M).

    Sites are in row-major order (y outer, x inner).  Each row is sorted
    descending, so the weakest mean gain sits at order position 1; the
    arithmetic is ``link_distance``'s, entry by entry.
    """
    users = np.array(geom.user_positions)
    # a distance too large for a float is inf, without a warning
    with np.errstate(over="ignore"):
        dx = users[:, 0] - xs[:, None]
        dy = users[:, 1] - ys[:, None]
        sq = (dx * dx)[None, :, :] + (dy * dy)[:, None, :] + geom.uav_height * geom.uav_height
    d = np.sqrt(sq).reshape(-1, geom.n_users)
    return -np.sort(-d, axis=1)


def sweep_grid(
    geom_template: Geometry,
    grid: GridSpec,
    cfg: NetworkConfig,
    fading_template: FadingParams,
    imp: ImpairmentProfile = ImpairmentProfile(),
    engine: str = "analytical",
    scheme: str = "noma",
    tc: TrialConfig | None = None,
) -> PlacementSurface:
    """Sum-rate surface over relay positions, plus the argmax location.

    The one-scheme case of ``sweep_surfaces``.
    """
    return sweep_surfaces(
        geom_template, grid, cfg, fading_template, imp, engine, (scheme,), tc
    )[0]


def sweep_surfaces(
    geom_template: Geometry,
    grid: GridSpec,
    cfg: NetworkConfig,
    fading_template: FadingParams,
    imp: ImpairmentProfile = ImpairmentProfile(),
    engine: str = "analytical",
    schemes: tuple[str, ...] = ("noma",),
    tc: TrialConfig | None = None,
) -> list[PlacementSurface]:
    """Sum-rate surface of every scheme over relay positions, in order.

    The template's relay position and distances are replaced by each
    site's; ``imp`` defaults to the distortion-free profile.  The schemes
    differ only in the time share, so one evaluation of the unit-share
    totals serves them all (analytical engine: in blocks of whole grid
    rows; Monte Carlo engine: one sweep with a point per site), and each
    scheme's surface is those totals at its share.  A failure names the
    first failing site in row-major order.
    """
    if engine not in ("analytical", "monte-carlo"):
        raise ValueError(f"engine must be 'analytical' or 'monte-carlo', got {engine!r}")
    if not schemes:
        raise ValueError("need at least one scheme")
    shares = [scheme_prefactor(scheme, cfg.n_users) for scheme in schemes]
    if engine == "monte-carlo" and tc is None:
        raise ValueError("monte-carlo engine requires a TrialConfig")
    if geom_template.n_users != cfg.n_users:
        raise ConfigurationError(
            f"geometry has {geom_template.n_users} users, config expects {cfg.n_users}"
        )
    xs, ys = grid.xs, grid.ys

    def site(row: int) -> str:
        return f"grid point (x={xs[row % xs.size]:g}, y={ys[row // xs.size]:g})"

    if engine == "analytical":
        args = kernel_args(cfg, imp)
        surfaces = [np.empty(ys.size * xs.size) for _ in shares]
        block = max(1, BLOCK_SITES // xs.size)
        for j in range(0, ys.size, block):
            dist = _site_distances(geom_template, xs, ys[j : j + block])
            # a site's largest distance is in its first column
            over = np.isinf(dist[:, 0])
            end = int(over.argmax()) if over.any() else over.size
            psi, _, moment_fault = order_stat_moment_rows(fading_template, dist[:end])
            totals, rate_fault = asr_rows(psi, cfg.a, args)
            start = j * xs.size
            # each step covers only the rows before the previous step's
            # fault, so the first fault found is the earliest site
            far = (end, NumericError("user distance overflows")) if end < over.size else None
            fault = rate_fault or moment_fault or far
            if fault is not None:
                row, exc = fault
                raise type(exc)(f"{site(start + row)}: {exc}") from exc
            for share, surface in zip(shares, surfaces):
                surface[start : start + totals.size] = share * totals
    else:
        dist = _site_distances(geom_template, xs, ys)
        # FadingParams refuses an infinite distance, so the points stop before it
        over = np.isinf(dist[:, 0])
        end = int(over.argmax()) if over.any() else over.size
        points = [
            SweepPoint(cfg, replace(fading_template, distances=tuple(d)), imp)
            for d in dist[:end].tolist()
        ]
        try:
            if end < over.size:
                # an input fault, named before any trial is drawn; the plan
                # names a path loss that overflows at an earlier site first
                _sweep_plan(points)
                raise NumericError(f"{site(end)}: user distance overflows")
            results = simulate_sweep(points, tc)
        except SweepPointError as exc:
            raise NumericError(f"{site(exc.point)}: {exc}") from exc
        totals = np.array([r.total for r in results])
        surfaces = [share * totals for share in shares]
    return [_surface(xs, ys, totals.reshape(ys.size, xs.size)) for totals in surfaces]


def _surface(xs: np.ndarray, ys: np.ndarray, asr: np.ndarray) -> PlacementSurface:
    j_best, i_best = np.unravel_index(int(np.argmax(asr)), asr.shape)
    return PlacementSurface(
        xs=xs, ys=ys, asr=asr, argmax_xy=(float(xs[i_best]), float(ys[j_best]))
    )
