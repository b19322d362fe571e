"""Relay-placement geometry and the sum-rate surface over a horizontal grid.

Ground users sit at fixed 2-D coordinates; the relay hovers at a fixed
altitude and its horizontal position is swept over a rectangular grid.
Each grid point maps to a fresh set of user distances, which re-scale the
fading moments; longer links mean weaker mean gains, so distances sorted
descending are assigned to ascending order positions (position 1 holds
the weakest user).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .baseline import asr_oma, scheme_prefactor
from .channel import FadingParams, order_stat_moments
from .errors import ConfigurationError, MwrnomaError, NumericError, SweepPointError
from .montecarlo import SweepPoint, TrialConfig, simulate_sweep
from .rate import asr
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


def _fading_at(geom_template: Geometry, x, y, fading_template: FadingParams) -> FadingParams:
    """Template fading with distances refreshed for the relay at (x, y).

    Descending distances map to ascending order positions so the weakest
    mean gain sits at position 1.
    """
    geom = replace(geom_template, uav_xy=(float(x), float(y)))
    d = sorted(distances(geom).tolist(), reverse=True)
    return replace(fading_template, distances=tuple(d))


def sweep_grid(
    geom_template: Geometry,
    grid: GridSpec,
    cfg: NetworkConfig,
    fading_template: FadingParams,
    imp: ImpairmentProfile | None = None,
    engine: str = "analytical",
    condition: str = "nonideal",
    scheme: str = "noma",
    tc: TrialConfig | None = None,
) -> PlacementSurface:
    """Sum-rate surface over relay positions, plus the argmax location."""
    if engine not in ("analytical", "monte-carlo"):
        raise ValueError(f"engine must be 'analytical' or 'monte-carlo', got {engine!r}")
    if scheme not in ("noma", "oma"):
        raise ValueError(f"scheme must be 'noma' or 'oma', got {scheme!r}")
    if engine == "monte-carlo" and tc is None:
        raise ValueError("monte-carlo engine requires a TrialConfig")
    if engine == "monte-carlo" and condition == "nonideal" and imp is None:
        raise ValueError("nonideal monte-carlo sweep requires an impairment profile")
    if geom_template.n_users != cfg.n_users:
        raise ConfigurationError(
            f"geometry has {geom_template.n_users} users, config expects {cfg.n_users}"
        )
    xs, ys = grid.xs, grid.ys
    if engine == "analytical":
        surface = np.empty((ys.size, xs.size))
        for j, y in enumerate(ys):
            for i, x in enumerate(xs):
                fading = _fading_at(geom_template, x, y, fading_template)
                try:
                    moments = order_stat_moments(fading, cfg.n_users)
                    if scheme == "noma":
                        result = asr(moments, cfg, imp, condition)
                    else:
                        result = asr_oma(moments, cfg, imp, condition)
                except MwrnomaError as exc:
                    raise type(exc)(f"grid point (x={x:g}, y={y:g}): {exc}") from exc
                surface[j, i] = result.total
    else:
        mc_imp = ImpairmentProfile.ideal() if condition == "ideal" else imp
        share = scheme_prefactor(scheme, cfg.n_users)
        sites = [(x, y) for y in ys for x in xs]
        points = [
            SweepPoint(cfg, _fading_at(geom_template, x, y, fading_template), mc_imp, share)
            for x, y in sites
        ]
        try:
            results = simulate_sweep(points, tc)
        except SweepPointError as exc:
            x, y = sites[exc.point]
            raise NumericError(f"grid point (x={x:g}, y={y:g}): {exc}") from exc
        surface = np.array([r.total for r in results]).reshape(ys.size, xs.size)
    j_best, i_best = np.unravel_index(int(np.argmax(surface)), surface.shape)
    return PlacementSurface(
        xs=xs, ys=ys, asr=surface, argmax_xy=(float(xs[i_best]), float(ys[j_best]))
    )
