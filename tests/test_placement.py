"""Geometry mapping and the relay-position sum-rate surface."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mwrnoma import (
    ConfigurationError,
    FadingParams,
    Geometry,
    GridSpec,
    ImpairmentProfile,
    MwrnomaError,
    NetworkConfig,
    NumericError,
    asr,
    asr_oma,
    distances,
    link_distance,
    order_stat_moments,
    sweep_grid,
)

SQUARE = ((5.0, 5.0), (5.0, -5.0), (-5.0, 5.0), (-5.0, -5.0))
A4 = (0.5, 0.3, 0.15, 0.05)
FADING_T = FadingParams(alpha=2, beta=3.0, nu=3.0, distances=(1.0,) * 4)


def cfg_at(db, n_users=4, a=A4):
    return NetworkConfig(n_users=n_users, a=a, r1=10.0 ** (db / 10.0))


def site_fading(geom, x, y, fading):
    """Template fading with the distances of the relay at (x, y), sorted
    descending, as one site of the surface sees them."""
    d = distances(replace(geom, uav_xy=(float(x), float(y))))
    return replace(fading, distances=tuple(sorted(d.tolist(), reverse=True)))


def per_site_surface(geom, grid, cfg, fading, imp, scheme):
    """Reference surface: one closed-form evaluation per site, row-major."""
    evaluate = asr if scheme == "noma" else asr_oma
    surface = np.empty((grid.ys.size, grid.xs.size))
    for j, y in enumerate(grid.ys):
        for i, x in enumerate(grid.xs):
            moments = order_stat_moments(site_fading(geom, x, y, fading), cfg.n_users)
            surface[j, i] = evaluate(moments, cfg, imp).total
    return surface


# (users, power split) with M = 3 and M = 5, neither centred on the grid
LAYOUTS = {
    "m3": (((4.0, 9.0), (11.0, -2.0), (-3.0, 1.5)), (0.6, 0.3, 0.1)),
    "m5": (
        ((6.0, 6.0), (6.0, -4.0), (-5.0, 5.0), (-4.0, -6.0), (13.0, 1.0)),
        (0.4, 0.25, 0.18, 0.12, 0.05),
    ),
}


class TestDistances:
    def test_vertical_link(self):
        geom = Geometry(user_positions=((0.0, 0.0),), uav_xy=(0.0, 0.0), uav_height=10.0)
        assert distances(geom)[0] == pytest.approx(10.0)

    def test_three_four_five(self):
        # zero altitude is only reachable through the bare helper
        assert link_distance((3.0, 4.0), (0.0, 0.0), 0.0) == pytest.approx(5.0)

    def test_square_corners_equidistant(self):
        geom = Geometry(user_positions=SQUARE, uav_xy=(0.0, 0.0), uav_height=10.0)
        d = distances(geom)
        assert np.allclose(d, math.sqrt(150.0))

    def test_distance_at_least_height(self):
        geom = Geometry(user_positions=SQUARE, uav_xy=(13.0, -2.0), uav_height=10.0)
        assert np.all(distances(geom) >= 10.0)

    def test_geometry_validation(self):
        with pytest.raises(ConfigurationError):
            Geometry(user_positions=SQUARE, uav_height=0.0)
        with pytest.raises(ConfigurationError):
            Geometry(user_positions=(), uav_height=10.0)


class TestSweep:
    def small_grid(self, half=6.0, step=3.0):
        return GridSpec(x_min=-half, x_max=half, y_min=-half, y_max=half, step=step)

    def test_single_point_equals_direct_evaluation(self):
        geom = Geometry(user_positions=SQUARE, uav_xy=(0.0, 0.0), uav_height=10.0)
        grid = GridSpec(x_min=2.0, x_max=2.0, y_min=-1.0, y_max=-1.0, step=1.0)
        cfg = cfg_at(30.0)
        surface = sweep_grid(geom, grid, cfg, FADING_T)
        at_point = Geometry(user_positions=SQUARE, uav_xy=(2.0, -1.0), uav_height=10.0)
        d = tuple(sorted(distances(at_point).tolist(), reverse=True))
        fading = FadingParams(alpha=2, beta=3.0, nu=3.0, distances=d)
        expected = asr(order_stat_moments(fading, 4), cfg).total
        assert surface.asr.shape == (1, 1)
        assert surface.asr[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_argmax_at_centroid_for_symmetric_layout(self):
        geom = Geometry(user_positions=SQUARE, uav_xy=(0.0, 0.0), uav_height=10.0)
        surface = sweep_grid(geom, self.small_grid(), cfg_at(30.0), FADING_T)
        assert surface.argmax_xy == (0.0, 0.0)

    def test_higher_snr_dominates_pointwise(self):
        geom = Geometry(user_positions=SQUARE, uav_xy=(0.0, 0.0), uav_height=10.0)
        grid = self.small_grid()
        s30 = sweep_grid(geom, grid, cfg_at(30.0), FADING_T)
        s35 = sweep_grid(geom, grid, cfg_at(35.0), FADING_T)
        assert np.all(s35.asr >= s30.asr)

    def test_translational_invariance(self):
        offset = (7.0, -3.0)
        users = tuple((x + offset[0], y + offset[1]) for x, y in SQUARE)
        grid0 = GridSpec(x_min=-4.0, x_max=4.0, y_min=-4.0, y_max=4.0, step=2.0)
        grid1 = GridSpec(
            x_min=-4.0 + offset[0],
            x_max=4.0 + offset[0],
            y_min=-4.0 + offset[1],
            y_max=4.0 + offset[1],
            step=2.0,
        )
        geom0 = Geometry(user_positions=SQUARE, uav_height=10.0)
        geom1 = Geometry(user_positions=users, uav_height=10.0)
        cfg = cfg_at(30.0)
        s0 = sweep_grid(geom0, grid0, cfg, FADING_T)
        s1 = sweep_grid(geom1, grid1, cfg, FADING_T)
        assert np.allclose(s0.asr, s1.asr, rtol=1e-12)
        assert s1.argmax_xy == (s0.argmax_xy[0] + offset[0], s0.argmax_xy[1] + offset[1])

    def test_user_relabeling_invariance(self):
        perm = (SQUARE[2], SQUARE[0], SQUARE[3], SQUARE[1])
        grid = self.small_grid()
        cfg = cfg_at(30.0)
        s0 = sweep_grid(Geometry(SQUARE, uav_height=10.0), grid, cfg, FADING_T)
        s1 = sweep_grid(Geometry(perm, uav_height=10.0), grid, cfg, FADING_T)
        assert np.array_equal(s0.asr, s1.asr)

    def test_scheme_surfaces_ordered(self):
        geom = Geometry(user_positions=SQUARE, uav_height=10.0)
        grid = self.small_grid()
        cfg = cfg_at(30.0)
        noma = sweep_grid(geom, grid, cfg, FADING_T, scheme="noma")
        oma = sweep_grid(geom, grid, cfg, FADING_T, scheme="oma")
        assert np.all(noma.asr > oma.asr)

    def test_monte_carlo_engine(self):
        from mwrnoma import TrialConfig

        geom = Geometry(user_positions=SQUARE, uav_height=10.0)
        grid = GridSpec(x_min=0.0, x_max=0.0, y_min=0.0, y_max=0.0, step=1.0)
        cfg = cfg_at(30.0)
        surface = sweep_grid(
            geom, grid, cfg, FADING_T, engine="monte-carlo", tc=TrialConfig(20_000, seed=4),
        )
        analytic = sweep_grid(geom, grid, cfg, FADING_T)
        assert surface.asr[0, 0] == pytest.approx(analytic.asr[0, 0], rel=0.1)

    def test_monte_carlo_error_names_grid_point(self, monkeypatch):
        from mwrnoma import NumericError, TrialConfig, _kernels

        original = _kernels.pair_rate_chunk

        def nan_in_second_chunk(rho, a, *args, **kwargs):
            out = original(rho, a, *args, **kwargs)
            if rho.shape[0] == 10:
                out[4, 0] = np.nan
            return out

        monkeypatch.setattr(_kernels, "pair_rate_chunk", nan_in_second_chunk)
        geom = Geometry(user_positions=SQUARE, uav_height=10.0)
        with pytest.raises(NumericError) as info:
            sweep_grid(
                geom, self.small_grid(), cfg_at(30.0), FADING_T,
                engine="monte-carlo", tc=TrialConfig(8192 + 10, seed=4),
            )
        assert str(info.value) == "grid point (x=-6, y=-6): non-finite rate in trial 8196"

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("scheme", ["noma", "oma"])
    @pytest.mark.parametrize("condition", ["ideal", "nonideal"])
    def test_batch_equals_per_site_evaluation(self, layout, scheme, condition):
        users, a = LAYOUTS[layout]
        geom = Geometry(user_positions=users, uav_height=8.0)
        # off-centre and not square: 11 columns, 6 rows
        grid = GridSpec(x_min=-3.5, x_max=21.5, y_min=-11.0, y_max=1.5, step=2.5)
        cfg = NetworkConfig(n_users=len(users), a=a, r1=10.0 ** 2.7, c=1.5)
        fading = FadingParams(alpha=2, beta=3.0, nu=2.7, distances=(1.0,) * len(users))
        imp = ImpairmentProfile()
        if condition == "nonideal":
            imp = ImpairmentProfile(kappa_ut=0.08, kappa_ur=0.15, kappa_rt=0.05, kappa_rr=0.11)
        surface = sweep_grid(geom, grid, cfg, fading, imp, scheme=scheme)
        expected = per_site_surface(geom, grid, cfg, fading, imp, scheme)
        assert surface.asr.shape == (6, 11)
        assert np.array_equal(surface.asr, expected)

    def test_analytical_error_names_first_grid_point(self):
        # a tiny beta and a steep path loss: the second moment underflows to
        # zero at the sites far from the users, which sit bottom left
        users = ((-9.0, -5.0), (-6.0, -8.0), (-12.0, -9.0))
        geom = Geometry(user_positions=users, uav_height=10.0)
        grid = GridSpec(x_min=-14.0, x_max=16.0, y_min=-8.0, y_max=12.0, step=2.0)
        cfg = NetworkConfig(n_users=3, a=(0.6, 0.3, 0.1), r1=1000.0)
        fading = FadingParams(alpha=2, beta=1e-100, nu=41.0, distances=(1.0,) * 3)
        failing = []
        for y in grid.ys:
            for x in grid.xs:
                try:
                    order_stat_moments(site_fading(geom, x, y, fading), 3)
                except MwrnomaError as exc:
                    failing.append((float(x), float(y), exc))
        # several sites fail, the first in row-major order is neither the
        # first site nor the first in column-major order
        assert len(failing) > 1
        assert failing[0][:2] == (16.0, 4.0)
        assert min(failing, key=lambda f: f[:2])[:2] == (12.0, 12.0)
        with pytest.raises(ConfigurationError) as info:
            sweep_grid(geom, grid, cfg, fading)
        assert str(info.value) == f"grid point (x=16, y=4): {failing[0][2]}"
        assert str(info.value) == "grid point (x=16, y=4): moments must be positive"

    def test_path_loss_overflow_names_grid_point(self):
        users = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))
        geom = Geometry(user_positions=users, uav_height=2.0)
        grid = GridSpec(x_min=0.0, x_max=30.0, y_min=0.0, y_max=5.0, step=5.0)
        # d^300 overflows beyond d = 10.6 and its square beyond d = 3.3; at
        # x = 5 the farthest users are 6.4 m away
        fading = replace(FADING_T, nu=300.0)
        with pytest.raises(NumericError) as info:
            sweep_grid(geom, grid, cfg_at(30.0), fading)
        assert str(info.value) == (
            "grid point (x=5, y=0): moment overflow for alpha=2, M=4, i=1, p=2: "
            "path loss (1 + d^nu)^2 overflows at d=6.40312, nu=300"
        )

    def test_monte_carlo_path_loss_overflow_names_grid_point(self):
        from mwrnoma import TrialConfig

        users = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))
        geom = Geometry(user_positions=users, uav_height=2.0)
        grid = GridSpec(x_min=0.0, x_max=30.0, y_min=0.0, y_max=5.0, step=5.0)
        # d^300 overflows beyond d = 10.6: first at x = 10, y = 0 (the
        # analytical engine already fails at x = 5, where the square does)
        fading = replace(FADING_T, nu=300.0)
        with pytest.raises(NumericError) as info:
            sweep_grid(
                geom, grid, cfg_at(30.0), fading, engine="monte-carlo", tc=TrialConfig(10, seed=1)
            )
        assert str(info.value) == (
            "grid point (x=10, y=0): path loss 1 + d^nu overflows at i=1, d=11.225, nu=300"
        )

    def test_preconditions(self):
        geom = Geometry(user_positions=SQUARE, uav_height=10.0)
        grid = self.small_grid()
        cfg = cfg_at(30.0)
        with pytest.raises(ValueError):
            sweep_grid(geom, grid, cfg, FADING_T, engine="monte-carlo")
        with pytest.raises(ValueError):
            sweep_grid(geom, grid, cfg, FADING_T, engine="quantum")
        with pytest.raises(ValueError):
            sweep_grid(geom, grid, cfg, FADING_T, scheme="tdma")
        geom3 = Geometry(user_positions=SQUARE[:3], uav_height=10.0)
        with pytest.raises(ConfigurationError):
            sweep_grid(geom3, grid, cfg, FADING_T)

    def test_grid_validation(self):
        with pytest.raises(ConfigurationError):
            GridSpec(step=0.0)
        with pytest.raises(ConfigurationError):
            GridSpec(x_min=5.0, x_max=-5.0)
