"""Geometry mapping and the relay-position sum-rate surface."""

import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

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
    TrialConfig,
    asr,
    asr_oma,
    distances,
    link_distance,
    order_stat_moments,
    sweep_grid,
    sweep_surfaces,
)
from mwrnoma import placement
from mwrnoma._kernels import kernel_args
from mwrnoma.baseline import scheme_prefactor
from mwrnoma.channel import order_stat_moment_rows
from mwrnoma.cli import load_spec, run
from mwrnoma.errors import SweepPointError
from mwrnoma.rate import asr_rows

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

    def test_grid_site_limit(self):
        # a grid is refused by its site count before any axis is built
        grid = GridSpec(x_min=0.0, x_max=9999.0, y_min=0.0, y_max=999.0, step=1.0)
        assert grid.xs.size * grid.ys.size == placement.MAX_GRID_SITES
        with pytest.raises(ConfigurationError, match="grid of 10001 x 1000 sites exceeds"):
            GridSpec(x_min=0.0, x_max=10000.0, y_min=0.0, y_max=999.0, step=1.0)
        with pytest.raises(ConfigurationError, match="grid of 4e\\+06 x 4e\\+06 sites"):
            GridSpec(step=1e-5)


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

        original = _kernels.decoder_totals

        def nan_in_second_chunk(rho, a, *args, out, **kwargs):
            total = original(rho, a, *args, out=out, **kwargs)
            if rho.shape[0] != 10:
                return total
            out[4] = np.nan
            return np.add.reduce(out)

        monkeypatch.setattr(_kernels, "decoder_totals", nan_in_second_chunk)
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


class TestSharedSchemes:
    """Every scheme of a surface from one pass: one evaluation of the
    two-slot totals, in blocks (analytical) or as one Monte Carlo sweep
    with a point per site, scaled to each scheme's time share."""

    SCHEMES = ("noma", "oma")

    def case(self):
        users, a = LAYOUTS["m5"]
        geom = Geometry(user_positions=users, uav_height=8.0)
        cfg = NetworkConfig(n_users=len(users), a=a, r1=10.0 ** 2.7, c=1.5)
        fading = FadingParams(alpha=2, beta=3.0, nu=2.7, distances=(1.0,) * len(users))
        imp = ImpairmentProfile(kappa_ut=0.08, kappa_ur=0.15, kappa_rt=0.05, kappa_rr=0.11)
        return geom, cfg, fading, imp

    def assert_equal_surfaces(self, shared, separate):
        assert len(shared) == len(separate)
        for s, t in zip(shared, separate):
            assert np.array_equal(s.xs, t.xs) and np.array_equal(s.ys, t.ys)
            assert s.asr.tobytes() == t.asr.tobytes()
            assert s.argmax_xy == t.argmax_xy

    def test_analytical_equals_one_sweep_per_scheme(self):
        geom, cfg, fading, imp = self.case()
        grid = GridSpec(x_min=-3.5, x_max=21.5, y_min=-11.0, y_max=1.5, step=2.5)
        shared = sweep_surfaces(geom, grid, cfg, fading, imp, schemes=self.SCHEMES)
        separate = [sweep_grid(geom, grid, cfg, fading, imp, scheme=s) for s in self.SCHEMES]
        self.assert_equal_surfaces(shared, separate)
        # M = 5 has three slots: the schemes really differ
        assert not np.array_equal(shared[0].asr, shared[1].asr)

    # ``runs`` repeats the shared sweep in one process; a later run leaves
    # the surfaces of an earlier one untouched
    @pytest.mark.parametrize("runs", [1, 2])
    def test_monte_carlo_equals_one_sweep_per_scheme(self, runs):
        geom, cfg, fading, imp = self.case()
        grid = GridSpec(x_min=0.0, x_max=6.0, y_min=-3.0, y_max=0.0, step=3.0)
        # two full chunks and a short one
        tc = TrialConfig(2 * 8192 + 37, seed=9)
        repeats = [
            sweep_surfaces(
                geom, grid, cfg, fading, imp, engine="monte-carlo", schemes=self.SCHEMES, tc=tc
            )
            for _ in range(runs)
        ]
        separate = [
            sweep_grid(geom, grid, cfg, fading, imp, engine="monte-carlo", scheme=s, tc=tc)
            for s in self.SCHEMES
        ]
        for shared in repeats:
            self.assert_equal_surfaces(shared, separate)
        reversed_order = sweep_surfaces(
            geom, grid, cfg, fading, imp, engine="monte-carlo", schemes=self.SCHEMES[::-1], tc=tc
        )
        self.assert_equal_surfaces(reversed_order, separate[::-1])

    @pytest.mark.parametrize("engine", ["analytical", "monte-carlo"])
    def test_shared_work_runs_once(self, monkeypatch, engine):
        calls = {}

        def counted(name):
            original = getattr(placement, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(placement, name, wrapper)

        for name in ("_site_distances", "order_stat_moment_rows", "asr_rows", "simulate_sweep"):
            counted(name)
        geom, cfg, fading, imp = self.case()
        grid = GridSpec(x_min=0.0, x_max=4.0, y_min=0.0, y_max=2.0, step=2.0)
        surfaces = sweep_surfaces(
            geom, grid, cfg, fading, imp, engine=engine, schemes=self.SCHEMES,
            tc=TrialConfig(100, seed=3),
        )
        assert len(surfaces) == 2
        if engine == "analytical":
            assert calls == {"_site_distances": 1, "order_stat_moment_rows": 1, "asr_rows": 1}
        else:
            assert calls == {"_site_distances": 1, "simulate_sweep": 1}

    @pytest.mark.parametrize(
        "engine, message",
        [
            ("analytical",
             "grid point (x=-20, y=-20): moment overflow for alpha=2, M=4, i=1, p=1: "
             "path loss (1 + d^nu)^1 overflows at d=36.7423, nu=400"),
            ("monte-carlo",
             "grid point (x=-20, y=-20): path loss 1 + d^nu overflows at i=1, "
             "d=36.7423, nu=400"),
        ],
    )
    def test_path_loss_overflow_names_the_same_grid_point(self, engine, message):
        # fig4b with nu = 400: the message of each one-scheme surface
        spec = load_spec(preset_name="fig4b", overrides={"fading": {"nu": 400.0}})
        assert spec.schemes == self.SCHEMES
        args = (spec.geometry, spec.grid, spec.network, spec.fading, spec.variants[0][1])
        tc = TrialConfig(1000, seed=1)
        with pytest.raises(NumericError) as info:
            sweep_surfaces(*args, engine=engine, schemes=spec.schemes, tc=tc)
        assert str(info.value) == message
        for scheme in spec.schemes:
            with pytest.raises(NumericError) as one:
                sweep_grid(*args, engine=engine, scheme=scheme, tc=tc)
            assert str(one.value) == message

    def test_monte_carlo_error_of_a_later_scheme_names_its_site(self, monkeypatch):
        # the sweep has one point per site, which every scheme shares; a
        # failing point names its own site
        geom, cfg, fading, imp = self.case()
        grid = GridSpec(x_min=0.0, x_max=4.0, y_min=0.0, y_max=2.0, step=2.0)
        sites = grid.xs.size * grid.ys.size

        def fail_second_scheme(points, tc):
            assert len(points) == sites
            raise SweepPointError(4, "non-finite rate in trial 7", 7)

        monkeypatch.setattr(placement, "simulate_sweep", fail_second_scheme)
        with pytest.raises(NumericError) as info:
            sweep_surfaces(
                geom, grid, cfg, fading, imp, engine="monte-carlo", schemes=self.SCHEMES,
                tc=TrialConfig(100, seed=3),
            )
        assert str(info.value) == "grid point (x=2, y=2): non-finite rate in trial 7"

    def test_schemes_must_be_given(self):
        geom, cfg, fading, imp = self.case()
        grid = GridSpec(x_min=0.0, x_max=0.0, y_min=0.0, y_max=0.0, step=1.0)
        with pytest.raises(ValueError):
            sweep_surfaces(geom, grid, cfg, fading, imp, schemes=())
        with pytest.raises(ValueError):
            sweep_surfaces(geom, grid, cfg, fading, imp, schemes=("noma", "tdma"))


class TestBlocks:
    """The analytical surface runs in blocks of whole grid rows: the same
    bits and the same first fault as one batch, in memory that does not
    grow with the grid."""

    SCHEMES = ("noma", "oma")
    # the preset's square moved 20 m south: the sites farthest from the
    # users are the last rows of a surface
    SOUTH = [[5.0, -15.0], [5.0, -25.0], [-5.0, -15.0], [-5.0, -25.0]]

    def case(self):
        return TestSharedSchemes().case()

    def fig4b(self, **overrides):
        spec = load_spec(preset_name="fig4b", overrides=overrides)
        return (spec.geometry, spec.grid, spec.network, spec.fading, spec.variants[0][1])

    def test_fine_surface_contains_every_golden_row(self, tmp_path):
        # every fourth site of the 0.25 m grid is a site of the 1 m one
        experiment = {"grid": {"step": 0.25}, "output": str(tmp_path / "fine.csv")}
        result = run(load_spec(preset_name="fig4b", overrides={"experiment": experiment}))
        golden = Path(__file__).parent / "golden"
        for fine, coarse in zip(result.csv_paths, ("fig4b.csv", "fig4b_oma.csv")):
            lines = set(fine.read_bytes().splitlines())
            assert len(lines) == 161 * 161 + 1
            assert set((golden / coarse).read_bytes().splitlines()) <= lines

    @pytest.mark.parametrize(
        "block_sites, grid",
        [
            # 41 x 30 sites, blocks of 24 rows: 984 and 246 sites
            (None, GridSpec(x_min=-3.5, x_max=16.5, y_min=-11.0, y_max=3.5, step=0.5)),
            # 11 x 7 sites, blocks of 2 rows, the last one of 1
            (25, GridSpec(x_min=-3.5, x_max=21.5, y_min=-11.0, y_max=4.0, step=2.5)),
            # a block smaller than a row holds one row
            (5, GridSpec(x_min=-3.5, x_max=21.5, y_min=-11.0, y_max=4.0, step=2.5)),
        ],
    )
    def test_blocks_equal_one_batch(self, monkeypatch, block_sites, grid):
        if block_sites is not None:
            monkeypatch.setattr(placement, "BLOCK_SITES", block_sites)
        sites = grid.xs.size * grid.ys.size
        assert sites % placement.BLOCK_SITES != 0
        assert sites > max(placement.BLOCK_SITES, grid.xs.size)
        geom, cfg, fading, imp = self.case()
        surfaces = sweep_surfaces(geom, grid, cfg, fading, imp, schemes=self.SCHEMES)
        dist = placement._site_distances(geom, grid.xs, grid.ys)
        psi, _, fault = order_stat_moment_rows(fading, dist)
        assert fault is None
        totals, fault = asr_rows(psi, cfg.a, kernel_args(cfg, imp))
        assert fault is None
        for surface, scheme in zip(surfaces, self.SCHEMES):
            share = scheme_prefactor(scheme, cfg.n_users)
            assert surface.asr.tobytes() == (share * totals).tobytes()

    @pytest.mark.parametrize("schemes", [("noma", "oma"), ("oma", "noma")])
    def test_overflow_in_the_last_block_names_its_first_site(self, schemes):
        # fig4b at 0.5 m with the users south: 81 columns, blocks of 12
        # rows, the last from y = 16; (1 + d^nu)^2 overflows beyond d = 48.8,
        # which only sites of that block reach (49.1 m at y = 16, 48.6 m at
        # y = 15.5)
        geom, grid, cfg, fading, imp = self.fig4b(
            geometry={"users": self.SOUTH},
            experiment={"grid": {"step": 0.5}},
            fading={"nu": 91.3},
        )
        dist = placement._site_distances(geom, grid.xs, grid.ys)
        _, _, (row, exc) = order_stat_moment_rows(fading, dist)
        block = placement.BLOCK_SITES // grid.xs.size * grid.xs.size
        assert row >= (dist.shape[0] - 1) // block * block
        x, y = grid.xs[row % grid.xs.size], grid.ys[row // grid.xs.size]
        with pytest.raises(NumericError) as info:
            sweep_surfaces(geom, grid, cfg, fading, imp, schemes=schemes)
        assert str(info.value) == f"grid point (x={x:g}, y={y:g}): {exc}"
        assert "(1 + d^nu)^2 overflows" in str(info.value)

    def test_rate_fault_before_a_moment_fault_names_its_site(self, monkeypatch):
        from mwrnoma import _kernels

        original = _kernels.decoder_totals
        calls = []

        def nan_in_last_block(rho, a, *args, out, **kwargs):
            calls.append(rho.shape[0])
            total = original(rho, a, *args, out=out, **kwargs)
            if len(calls) != 7:
                return total
            out[100] = np.nan
            return np.add.reduce(out)

        monkeypatch.setattr(_kernels, "decoder_totals", nan_in_last_block)
        # (1 + d^nu)^2 overflows beyond d = 49.7: first at (x=-20, y=17),
        # 49.9 m from the farthest user, row 2 of the last block
        geom, grid, cfg, fading, imp = self.fig4b(
            geometry={"users": self.SOUTH},
            experiment={"grid": {"step": 0.5}},
            fading={"nu": 90.86},
        )
        with pytest.raises(ConfigurationError) as info:
            sweep_surfaces(geom, grid, cfg, fading, imp, schemes=self.SCHEMES)
        # 81 x 81 sites in blocks of 12 rows: the seventh is the last, and
        # its rates stop at the moment fault
        assert calls == [972] * 6 + [2 * 81]
        # site 6 * 972 + 100: row 73, column 19
        assert str(info.value) == (
            "grid point (x=-10.5, y=16.5): analytical rates must be finite, got total nan"
        )
        monkeypatch.setattr(_kernels, "decoder_totals", original)
        with pytest.raises(NumericError) as info:
            sweep_surfaces(geom, grid, cfg, fading, imp, schemes=self.SCHEMES)
        assert str(info.value).startswith("grid point (x=-20, y=17): moment overflow")

    def test_memory_grows_with_the_surfaces_only(self):
        def peak(step):
            args = self.fig4b(experiment={"grid": {"step": step}})
            tracemalloc.start()
            try:
                surfaces = sweep_surfaces(*args, schemes=self.SCHEMES)
                _, top = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return top, sum(s.asr.nbytes for s in surfaces)

        peak(1.0)  # warm the moment tables
        coarse, _ = peak(1.0)
        fine, fine_bytes = peak(0.25)
        assert fine_bytes == 2 * 161 * 161 * 8
        assert fine - coarse <= 2 * fine_bytes
