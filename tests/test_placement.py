"""Geometry mapping and the relay-position sum-rate surface."""

import math

import numpy as np
import pytest

from mwrnoma import (
    ConfigurationError,
    FadingParams,
    Geometry,
    GridSpec,
    ImpairmentProfile,
    NetworkConfig,
    asr,
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
        surface = sweep_grid(geom, grid, cfg, FADING_T, None, condition="ideal")
        at_point = Geometry(user_positions=SQUARE, uav_xy=(2.0, -1.0), uav_height=10.0)
        d = tuple(sorted(distances(at_point).tolist(), reverse=True))
        fading = FadingParams(alpha=2, beta=3.0, nu=3.0, distances=d)
        expected = asr(order_stat_moments(fading, 4), cfg, condition="ideal").total
        assert surface.asr.shape == (1, 1)
        assert surface.asr[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_argmax_at_centroid_for_symmetric_layout(self):
        geom = Geometry(user_positions=SQUARE, uav_xy=(0.0, 0.0), uav_height=10.0)
        surface = sweep_grid(
            geom, self.small_grid(), cfg_at(30.0), FADING_T, None, condition="ideal"
        )
        assert surface.argmax_xy == (0.0, 0.0)

    def test_higher_snr_dominates_pointwise(self):
        geom = Geometry(user_positions=SQUARE, uav_xy=(0.0, 0.0), uav_height=10.0)
        grid = self.small_grid()
        s30 = sweep_grid(geom, grid, cfg_at(30.0), FADING_T, None, condition="ideal")
        s35 = sweep_grid(geom, grid, cfg_at(35.0), FADING_T, None, condition="ideal")
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
        s0 = sweep_grid(geom0, grid0, cfg, FADING_T, None, condition="ideal")
        s1 = sweep_grid(geom1, grid1, cfg, FADING_T, None, condition="ideal")
        assert np.allclose(s0.asr, s1.asr, rtol=1e-12)
        assert s1.argmax_xy == (s0.argmax_xy[0] + offset[0], s0.argmax_xy[1] + offset[1])

    def test_user_relabeling_invariance(self):
        perm = (SQUARE[2], SQUARE[0], SQUARE[3], SQUARE[1])
        grid = self.small_grid()
        cfg = cfg_at(30.0)
        s0 = sweep_grid(Geometry(SQUARE, uav_height=10.0), grid, cfg, FADING_T, None, condition="ideal")
        s1 = sweep_grid(Geometry(perm, uav_height=10.0), grid, cfg, FADING_T, None, condition="ideal")
        assert np.array_equal(s0.asr, s1.asr)

    def test_scheme_surfaces_ordered(self):
        geom = Geometry(user_positions=SQUARE, uav_height=10.0)
        grid = self.small_grid()
        cfg = cfg_at(30.0)
        noma = sweep_grid(geom, grid, cfg, FADING_T, None, condition="ideal", scheme="noma")
        oma = sweep_grid(geom, grid, cfg, FADING_T, None, condition="ideal", scheme="oma")
        assert np.all(noma.asr > oma.asr)

    def test_monte_carlo_engine(self):
        from mwrnoma import TrialConfig

        geom = Geometry(user_positions=SQUARE, uav_height=10.0)
        grid = GridSpec(x_min=0.0, x_max=0.0, y_min=0.0, y_max=0.0, step=1.0)
        cfg = cfg_at(30.0)
        surface = sweep_grid(
            geom, grid, cfg, FADING_T, None,
            engine="monte-carlo", condition="ideal", tc=TrialConfig(20_000, seed=4),
        )
        analytic = sweep_grid(geom, grid, cfg, FADING_T, None, condition="ideal")
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
                geom, self.small_grid(), cfg_at(30.0), FADING_T, None,
                engine="monte-carlo", condition="ideal", tc=TrialConfig(8192 + 10, seed=4),
            )
        assert str(info.value) == "grid point (x=-6, y=-6): non-finite rate in trial 8196"

    def test_preconditions(self):
        geom = Geometry(user_positions=SQUARE, uav_height=10.0)
        grid = self.small_grid()
        cfg = cfg_at(30.0)
        with pytest.raises(ValueError):
            sweep_grid(geom, grid, cfg, FADING_T, None, engine="monte-carlo")
        with pytest.raises(ValueError):
            sweep_grid(geom, grid, cfg, FADING_T, None, engine="quantum")
        with pytest.raises(ValueError):
            sweep_grid(geom, grid, cfg, FADING_T, None, scheme="tdma")
        with pytest.raises(ValueError):
            sweep_grid(geom, grid, cfg, FADING_T, None, engine="monte-carlo",
                       condition="nonideal", tc=None)
        geom3 = Geometry(user_positions=SQUARE[:3], uav_height=10.0)
        with pytest.raises(ConfigurationError):
            sweep_grid(geom3, grid, cfg, FADING_T, None, condition="ideal")

    def test_grid_validation(self):
        with pytest.raises(ConfigurationError):
            GridSpec(step=0.0)
        with pytest.raises(ConfigurationError):
            GridSpec(x_min=5.0, x_max=-5.0)
