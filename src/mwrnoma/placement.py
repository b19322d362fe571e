"""Relay-placement geometry and the sum-rate surface over a horizontal grid.

Ground users sit at fixed 2-D coordinates; the relay hovers at a fixed
altitude and its horizontal position is swept over a rectangular grid.
Each grid point maps to a fresh set of user distances, which re-scale the
fading moments; longer links mean weaker mean gains, so distances sorted
descending are assigned to ascending order positions (position 1 holds
the weakest user).

The analytical surface is one batch: the distances of every site form a
(sites, M) array, the closed-form moments are scaled for all rows at once
(``channel.order_stat_moment_rows``) and one kernel call gives every sum
rate (``rate.asr_rows``).  The Monte Carlo surface is one sweep with a
point per site (``montecarlo.simulate_sweep``).  Both engines use the one
path-loss formula 1 + d^nu, computed per entry, and a row-local kernel, so
each site gets the same bits as a one-site evaluation.  A failure, a path
loss that overflows included, names the first failing site in row-major
order (y outer, x inner).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._kernels import kernel_args
from .baseline import scheme_prefactor
from .channel import FadingParams, order_stat_moment_rows
from .errors import ConfigurationError, NumericError, SweepPointError
from .montecarlo import SweepPoint, TrialConfig, simulate_sweep
from .rate import asr_rows
from .signal import ImpairmentProfile, NetworkConfig

__all__ = [
    "Geometry",
    "GridSpec",
    "PlacementSurface",
    "link_distance",
    "distances",
    "sweep_grid",
]


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
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ConfigurationError("grid bounds must be ordered")

    def axis(self, lo: float, hi: float) -> np.ndarray:
        n = int(math.floor((hi - lo) / self.step + 1e-9)) + 1
        return lo + self.step * np.arange(n)

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

    The template's relay position and distances are replaced by each
    site's; ``imp`` defaults to the distortion-free profile.  The
    analytical engine evaluates all sites as one batch; the Monte Carlo
    engine runs one sweep point per site.  A failure names the first
    failing site in row-major order.
    """
    if engine not in ("analytical", "monte-carlo"):
        raise ValueError(f"engine must be 'analytical' or 'monte-carlo', got {engine!r}")
    if scheme not in ("noma", "oma"):
        raise ValueError(f"scheme must be 'noma' or 'oma', got {scheme!r}")
    if engine == "monte-carlo" and tc is None:
        raise ValueError("monte-carlo engine requires a TrialConfig")
    if geom_template.n_users != cfg.n_users:
        raise ConfigurationError(
            f"geometry has {geom_template.n_users} users, config expects {cfg.n_users}"
        )
    xs, ys = grid.xs, grid.ys
    dist = _site_distances(geom_template, xs, ys)
    share = scheme_prefactor(scheme, cfg.n_users)

    def site(row: int) -> str:
        return f"grid point (x={xs[row % xs.size]:g}, y={ys[row // xs.size]:g})"

    if engine == "analytical":
        psi, _, fault = order_stat_moment_rows(fading_template, dist)
        # asr_rows sees only the rows before the first moment fault, so a
        # rate fault it reports is the earlier site
        _, totals, rate_fault = asr_rows(psi, cfg.a, kernel_args(cfg, imp), share)
        if rate_fault is not None:
            fault = rate_fault
        if fault is not None:
            row, exc = fault
            raise type(exc)(f"{site(row)}: {exc}") from exc
    else:
        points = [
            SweepPoint(cfg, replace(fading_template, distances=tuple(d)), imp, share)
            for d in dist.tolist()
        ]
        try:
            results = simulate_sweep(points, tc)
        except SweepPointError as exc:
            raise NumericError(f"{site(exc.point)}: {exc}") from exc
        totals = np.array([r.total for r in results])
    surface = totals.reshape(ys.size, xs.size)
    j_best, i_best = np.unravel_index(int(np.argmax(surface)), surface.shape)
    return PlacementSurface(
        xs=xs, ys=ys, asr=surface, argmax_xy=(float(xs[i_best]), float(ys[j_best]))
    )
