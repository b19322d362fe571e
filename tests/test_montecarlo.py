"""Monte Carlo engine: determinism, stream derivation, statistical behavior."""

import itertools
import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from mwrnoma import (
    ConfigurationError,
    FadingParams,
    ImpairmentProfile,
    NetworkConfig,
    TrialConfig,
    asr,
    order_stat_moments,
    NumericError,
    SweepPoint,
    sample_moments,
    simulate_asr,
    simulate_sweep,
)
from mwrnoma import _kernels, montecarlo
from mwrnoma.baseline import scheme_prefactor
from mwrnoma.cli import main
from mwrnoma.errors import SweepPointError
from mwrnoma.montecarlo import (
    CHUNK_TRIALS,
    _ChunkBuffers,
    _chunk_stats,
    _chunk_stream,
    _merge_stats,
    _sample_rho_chunk,
)
from mwrnoma.rate import asr_rows

FADING3 = FadingParams(alpha=2, beta=3.0, nu=3.0, distances=(1.0,) * 3)
CFG3 = NetworkConfig(n_users=3, a=(0.5, 0.3, 0.2), r1=1000.0)


class TestStreams:
    def test_same_index_same_stream(self):
        a = _chunk_stream(99, 0).random(16)
        b = _chunk_stream(99, 0).random(16)
        assert np.array_equal(a, b)

    def test_distinct_indices_distinct_streams(self):
        a = _chunk_stream(99, 0).random(8)
        b = _chunk_stream(99, 1).random(8)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize(
        "seed, chunk, firsts",
        [
            (0, 0, [0.5484188289858579, 0.4048309538417795, 0.8894887153539768]),
            (12022, 0, [0.7327364640949278, 0.6462490987852384, 0.08721493421596105]),
            (12022, 121, [0.8864026814504316, 0.1240655807992811, 0.008652048100657006]),
            (2**64 - 1, 5, [0.6995665279473646, 0.38253209072544403, 0.9911938147963514]),
        ],
    )
    def test_stream_known_answers(self, seed, chunk, firsts):
        # chunk c's stream is SFC64 seeded by numpy's c-th spawned child of
        # the seed; the pinned draws fail here, not in the goldens, if numpy
        # ever changes either
        child = np.random.SeedSequence(seed).spawn(chunk + 1)[chunk]
        want = np.random.Generator(np.random.SFC64(child)).random(1000)
        got = _chunk_stream(seed, chunk).random(1000)
        assert np.array_equal(got, want)
        assert got[:3].tolist() == firsts

    def test_first_draw_uniformity(self):
        firsts = np.array([_chunk_stream(5, c).random() for c in range(10_000)])
        counts, _ = np.histogram(firsts, bins=20, range=(0.0, 1.0))
        assert sstats.chisquare(counts).pvalue > 0.01

    def test_chunk_prefix_property(self):
        # shorter chunks reproduce the same leading trials
        full = _sample_rho_chunk(FADING3, 4, 2, _ChunkBuffers(3, FADING3.alpha, 100))
        head = _sample_rho_chunk(FADING3, 4, 2, _ChunkBuffers(3, FADING3.alpha, 10))
        assert np.array_equal(full[:10], head)
        # each sorted position is one contiguous column of the chunk
        assert full.shape == (100, 3) and full.flags.f_contiguous

    @pytest.mark.parametrize("extra", [0, 37], ids=["full", "short-last"])
    @pytest.mark.parametrize("engine", ["sweep", "moments"])
    def test_buffers_allocated_once_per_chunk_size(self, monkeypatch, engine, extra):
        # every chunk shares one set of buffers; a short last chunk takes
        # the leading part of its memory instead of a second set
        made = []

        class Recorded(_ChunkBuffers):
            def __init__(self, n_users, alpha, count):
                super().__init__(n_users, alpha, count)
                made.append(count)

        monkeypatch.setattr(montecarlo, "_ChunkBuffers", Recorded)
        tc = TrialConfig(2 * CHUNK_TRIALS + extra, seed=4)
        if engine == "sweep":
            simulate_sweep([SweepPoint(CFG3, FADING3, ImpairmentProfile.ideal())], tc)
        else:
            sample_moments(FADING3, tc)
        assert made == [CHUNK_TRIALS]


class TestDeterminism:
    def test_same_seed_same_result(self):
        tc = TrialConfig(trials=20_000, seed=123)
        a = simulate_asr(CFG3, FADING3, ImpairmentProfile.uniform(0.1), tc)
        b = simulate_asr(CFG3, FADING3, ImpairmentProfile.uniform(0.1), tc)
        assert a.total == b.total
        assert a.stderr == b.stderr

    def test_different_seed_different_result(self):
        tc1 = TrialConfig(trials=5_000, seed=1)
        tc2 = TrialConfig(trials=5_000, seed=2)
        imp = ImpairmentProfile.ideal()
        assert simulate_asr(CFG3, FADING3, imp, tc1).total != simulate_asr(
            CFG3, FADING3, imp, tc2
        ).total


class TestStatistics:
    def test_matches_analytic_at_operating_point(self):
        moments = order_stat_moments(FADING3, 3)
        analytic = asr(moments, CFG3, ImpairmentProfile.ideal()).total
        sim = simulate_asr(CFG3, FADING3, ImpairmentProfile.ideal(), TrialConfig(100_000, seed=42))
        assert abs(sim.total - analytic) / sim.total < 0.10

    def test_zero_snr_limit(self):
        from dataclasses import replace

        cfg = replace(CFG3, r1=1e-8)
        sim = simulate_asr(cfg, FADING3, ImpairmentProfile.ideal(), TrialConfig(5_000, seed=3))
        assert sim.total < 1e-6

    def test_result_carries_the_total_alone(self):
        # no per-decoder means: a Monte Carlo result is its total's statistics
        sim = simulate_asr(CFG3, FADING3, ImpairmentProfile.uniform(0.2), TrialConfig(2_000, seed=5))
        assert sim.per_decoder is None
        assert sim.total > 0 and sim.stderr > 0 and sim.trials == 2_000

    def test_stderr_scales_with_trials(self):
        imp = ImpairmentProfile.ideal()
        se_small = simulate_asr(CFG3, FADING3, imp, TrialConfig(10_000, seed=8)).stderr
        se_large = simulate_asr(CFG3, FADING3, imp, TrialConfig(40_000, seed=8)).stderr
        assert se_small / se_large == pytest.approx(2.0, rel=0.2)

    def test_jensen_gap_sign_stable_over_snr(self):
        from dataclasses import replace

        moments = order_stat_moments(FADING3, 3)
        imp = ImpairmentProfile.uniform(0.1)
        signs = []
        for db in (10, 20, 30):
            cfg = replace(CFG3, r1=10.0 ** (db / 10.0))
            analytic = asr(moments, cfg, imp).total
            sim = simulate_asr(cfg, FADING3, imp, TrialConfig(50_000, seed=21))
            gap = analytic - sim.total
            assert abs(gap) > 3 * sim.stderr  # the approximation bias is resolvable
            signs.append(math.copysign(1.0, gap))
        assert len(set(signs)) == 1

    def test_monotone_in_distortion_beyond_noise(self):
        tc = TrialConfig(30_000, seed=13)
        lo = simulate_asr(CFG3, FADING3, ImpairmentProfile.uniform(0.1), tc)
        hi = simulate_asr(CFG3, FADING3, ImpairmentProfile.uniform(0.2), tc)
        assert lo.total - hi.total > 3 * math.hypot(lo.stderr, hi.stderr)

    def test_monotone_in_snr_beyond_noise(self):
        from dataclasses import replace

        tc = TrialConfig(30_000, seed=14)
        imp = ImpairmentProfile.uniform(0.1)
        lo = simulate_asr(replace(CFG3, r1=10.0), FADING3, imp, tc)
        hi = simulate_asr(replace(CFG3, r1=100.0), FADING3, imp, tc)
        assert hi.total - lo.total > 3 * math.hypot(lo.stderr, hi.stderr)


class TestInterfaces:
    def test_trialconfig_validation(self):
        with pytest.raises(ConfigurationError):
            TrialConfig(trials=0, seed=1)
        with pytest.raises(ConfigurationError, match="trials must be an integer >= 2, got 1"):
            TrialConfig(trials=1, seed=1)
        with pytest.raises(ConfigurationError):
            TrialConfig(trials=10, seed=-1)
        with pytest.raises(ConfigurationError):
            TrialConfig(trials=10, seed=2**64)
        # a bool is an int, but not a seed; trials=True is refused as 1
        for flag in (True, False):
            with pytest.raises(ConfigurationError, match=f"seed must be .*, got {flag}"):
                TrialConfig(trials=10, seed=flag)
        with pytest.raises(ConfigurationError):
            TrialConfig(trials=True, seed=1)

    def test_mismatched_fading_rejected(self):
        fading4 = FadingParams(alpha=2, beta=3.0, nu=3.0, distances=(1.0,) * 4)
        with pytest.raises(ConfigurationError):
            simulate_asr(CFG3, fading4, ImpairmentProfile.ideal(), TrialConfig(10, seed=1))

    def test_path_loss_overflow_raises(self):
        # a factor that overflowed to 0 would give all-zero rates
        fading = replace(FADING3, nu=400.0, distances=(20.0, 1.0, 1.0))
        with pytest.raises(NumericError) as info:
            simulate_asr(CFG3, fading, ImpairmentProfile.ideal(), TrialConfig(1_000, seed=1))
        assert str(info.value) == "path loss 1 + d^nu overflows at i=1, d=20, nu=400"

    def test_result_provenance(self):
        sim = simulate_asr(CFG3, FADING3, ImpairmentProfile.ideal(), TrialConfig(1_000, seed=1))
        assert sim.provenance == "monte-carlo"
        assert sim.trials == 1_000
        assert sim.stderr is not None and sim.stderr >= 0


CFG4 = NetworkConfig(n_users=4, a=(0.5, 0.3, 0.15, 0.05), r1=100.0)
FADING4 = FadingParams(alpha=2, beta=3.0, nu=3.0, distances=(1.0,) * 4)
FAR4 = replace(FADING4, distances=(3.0, 2.0, 1.5, 1.0))
OMA4 = scheme_prefactor("oma", 4)
IDEAL = ImpairmentProfile.ideal()

# mixed SNR, distortion profile and path loss; SHARES holds the time share
# (1/2 or 1/slot_count) that a sweep driver scales each point's unit-share
# result by.  The first two share a kernel call and chunk statistics and
# differ only in their share, the last three share a path-loss vector
SWEEP = [
    SweepPoint(CFG4, FADING4, IDEAL),
    SweepPoint(CFG4, FADING4, IDEAL),
    SweepPoint(replace(CFG4, r1=1000.0), FADING4, ImpairmentProfile.uniform(0.1)),
    SweepPoint(replace(CFG4, r1=1000.0), FAR4, ImpairmentProfile(0.2, 0.0, 0.2, 0.0)),
    SweepPoint(CFG4, FAR4, IDEAL),
    SweepPoint(replace(CFG4, r1=10.0), FAR4, ImpairmentProfile(0.0, 0.2, 0.0, 0.2)),
]
SHARES = [0.5, OMA4, 0.5, 0.5, OMA4, 0.5]


def whole_array_stats(rates):
    """The oracle of ``_chunk_stats``: the whole-array reduction of one
    (trials, decoders) chunk of rates to its totals' statistics."""
    totals = rates.sum(axis=1)
    t_mean = totals.mean()
    t_m2 = float(((totals - t_mean) ** 2).sum())
    return rates.shape[0], float(t_mean), t_m2


def reference_stats(point, share, tc):
    """The per-point loop: sample, scale, evaluate the whole chunk of rates,
    reduce it as one array and merge chunk by chunk; then scale the
    finished unit-share ``(n, total, stderr)`` by the time share."""
    imp, cfg = point.imp, point.cfg
    stats = None
    for c in range(0, (tc.trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS):
        count = min(CHUNK_TRIALS, tc.trials - c * CHUNK_TRIALS)
        buffers = _ChunkBuffers(4, point.fading.alpha, count)
        rho = _sample_rho_chunk(point.fading, tc.seed, c, buffers)
        rho = rho * point.fading.path_loss_factors()
        rates = _kernels.pair_rate_chunk(
            rho, np.asarray(cfg.a), 1.0 / cfg.r1, 1.0 / cfg.r2,
            *_kernels.distortion_terms(imp),
        )
        part = whole_array_stats(rates)
        stats = part if stats is None else _merge_stats(stats, part)
    n, t_mean, t_m2 = stats
    return n, t_mean * share, math.sqrt(t_m2 / (n * (n - 1))) * share


def counted_reducer(monkeypatch):
    """Wrap ``_chunk_stats``; the returned list gets one entry per call,
    one set of chunk statistics each."""
    calls = []

    def counted(buffers, *args):
        calls.append(buffers.count)
        return _chunk_stats(buffers, *args)

    monkeypatch.setattr(montecarlo, "_chunk_stats", counted)
    return calls


def exact_terms(imp):
    """``_kernels.distortion_terms`` in exact rational arithmetic."""
    kut2, kur2, krt2, krr2 = (
        Fraction(k) ** 2 for k in (imp.kappa_ut, imp.kappa_ur, imp.kappa_rt, imp.kappa_rr)
    )
    mac = 1 + kut2 + krr2
    return mac, (kut2 + krr2) + (krt2 + kur2) * mac, 1 + krt2 + kur2


def near_miss_profiles():
    """A transmitter-only profile and a profile whose distortion terms
    equal its in real arithmetic but differ in floating point.

    The near miss splits the uplink level kappa over kappa_ut = a and
    kappa_rr = b with a^2 + b^2 = kappa^2 exactly: (a, b, kappa) is a
    Pythagorean triple scaled by a power of two, with mantissas long
    enough that the squares round.
    """
    for m in itertools.count(2**20 + 1):
        n = m // 3
        a, b, kappa = (
            math.ldexp(v, -(m * m + n * n).bit_length() - 1)
            for v in (m * m - n * n, 2 * m * n, m * m + n * n)
        )
        tx = ImpairmentProfile(kappa_ut=kappa, kappa_rt=kappa)
        near = ImpairmentProfile(kappa_ut=a, kappa_rt=kappa, kappa_rr=b)
        assert exact_terms(near) == exact_terms(tx)
        if _kernels.distortion_terms(near) != _kernels.distortion_terms(tx):
            return tx, near


def at_share(unit, share):
    """A unit-share Monte Carlo result scaled as a sweep driver scales it:
    its finished total and stderr times the share."""
    return replace(unit, total=unit.total * share, stderr=unit.stderr * share)


def assert_same_result(got, want):
    assert got.total == want.total
    assert got.stderr == want.stderr
    assert got.trials == want.trials


# ``runs`` repeats a run in one process: each run owns its chunk buffers,
# so a later run leaves the results of an earlier one untouched
RUNS = pytest.mark.parametrize("runs", [1, 2])


class TestSweepEngine:
    # not a multiple of the chunk size, so the short last chunk is covered
    TRIALS = 2 * CHUNK_TRIALS + 123

    @RUNS
    def test_matches_one_point_runs(self, runs):
        repeats = [simulate_sweep(SWEEP, TrialConfig(self.TRIALS, seed=31)) for _ in range(runs)]
        for results in repeats:
            assert len(results) == len(SWEEP)
            for point, share, got in zip(SWEEP, SHARES, results):
                alone = simulate_asr(
                    point.cfg, point.fading, point.imp, TrialConfig(self.TRIALS, seed=31),
                    prefactor=share,
                )
                assert_same_result(at_share(got, share), alone)

    def test_matches_per_point_loop(self):
        tc = TrialConfig(self.TRIALS, seed=31)
        for point, share, got in zip(SWEEP, SHARES, simulate_sweep(SWEEP, tc)):
            n, total, stderr = reference_stats(point, share, tc)
            assert n == got.trials == self.TRIALS
            assert got.total * share == total
            assert got.stderr * share == stderr

    @pytest.mark.parametrize("share", [1 / 2, 1 / 3, 1 / 5])
    def test_share_scales_unit_share_results_once(self, share):
        # both engines return unit-share numbers; a scheme's share
        # multiplies the finished closed-form totals, and a Monte Carlo
        # point's total and stderr, once, to the bits of the one-point
        # functions at that prefactor
        imp = ImpairmentProfile.uniform(0.1)
        moments = [order_stat_moments(f, 4) for f in (FADING4, FAR4)]
        psi = np.array([m.psi for m in moments])
        args = _kernels.kernel_args(CFG4, imp)
        unit = _kernels.pair_rate_chunk(psi, np.asarray(CFG4.a), *args)
        totals, fault = asr_rows(psi, CFG4.a, args)
        assert fault is None
        assert np.array_equal(totals, unit.sum(axis=1))
        for total, m in zip(totals, moments):
            assert total * share == asr(m, CFG4, imp, share).total
        tc = TrialConfig(self.TRIALS, seed=31)
        (one,) = simulate_sweep([SweepPoint(CFG4, FAR4, imp)], tc)
        scaled = simulate_asr(CFG4, FAR4, imp, tc, prefactor=share)
        assert scaled.total == one.total * share
        assert scaled.stderr == one.stderr * share

    @RUNS
    def test_duplicate_points_share_results(self, monkeypatch, runs):
        # duplicates (same path loss and kernel arguments: SWEEP[0] and
        # SWEEP[1] differ only in the share a driver gives them) reduce
        # each chunk once and still match one-point runs bit for bit
        calls = counted_reducer(monkeypatch)
        points = [SWEEP[2], SWEEP[0], SWEEP[2], SWEEP[1], SWEEP[0], SWEEP[2]]
        tc = TrialConfig(self.TRIALS, seed=31)
        repeats = [simulate_sweep(points, tc) for _ in range(runs)]
        assert len(calls) == runs * 2 * 3  # two kernel groups, three chunks
        for results in repeats:
            for point, got in zip(points, results):
                alone = simulate_asr(
                    point.cfg, point.fading, point.imp, TrialConfig(self.TRIALS, seed=31),
                    prefactor=1.0,
                )
                assert_same_result(got, alone)

    @pytest.mark.parametrize("n_users", range(2, 9))
    def test_column_reducer_matches_whole_array(self, n_users):
        # nonzero distortion, a full and a short chunk: the reducer's one
        # set of statistics is the oracle's bits
        raw = np.arange(n_users, 0, -1.0)
        a = raw / raw.sum()
        fading = FadingParams(alpha=2, beta=3.0, nu=3.0, distances=tuple(np.linspace(2, 1, n_users)))
        args = (1e-2, 1e-2, *_kernels.distortion_terms(ImpairmentProfile(0.1, 0.2, 0.05, 0.15)))
        for chunk, count in ((0, CHUNK_TRIALS), (1, 777)):
            buffers = _ChunkBuffers(n_users, fading.alpha, count)
            h = _sample_rho_chunk(fading, 6, chunk, buffers)
            rho = np.multiply(h, fading.path_loss_factors(), out=buffers.rho)
            aggregates = _kernels.weighted_sums(rho, a, out=buffers.suffix, terms=buffers.terms)
            got = _chunk_stats(buffers, a, args, aggregates)
            rates = _kernels.pair_rate_chunk(rho, a, *args)
            assert rates.shape == (count, n_users - 1)
            want = whole_array_stats(rates)
            assert got[0] == want[0] == count
            assert got[1:] == want[1:]

    @RUNS
    def test_groups_by_computed_distortion_terms(self, monkeypatch, runs):
        # the kernel groups compare the computed floats (mac, mix, bc):
        # transmitter-only and receiver-only distortion of one level share
        # a group, a profile equal to those only in real arithmetic does not
        tx, near = near_miss_profiles()
        kappa = tx.kappa_ut
        rx = ImpairmentProfile(kappa_ur=kappa, kappa_rr=kappa)
        cfg = replace(CFG4, r1=1000.0)
        points = [
            SweepPoint(cfg, FAR4, imp)
            for imp in (tx, rx, ImpairmentProfile.uniform(kappa), near, tx)
        ]
        distinct = {_kernels.distortion_terms(p.imp) for p in points}
        assert len(distinct) == 3
        calls = counted_reducer(monkeypatch)
        repeats = [simulate_sweep(points, TrialConfig(self.TRIALS, seed=17)) for _ in range(runs)]
        assert len(calls) == runs * len(distinct) * 3  # three chunks
        for results in repeats:
            for point, got in zip(points, results):
                tc = TrialConfig(self.TRIALS, seed=17)
                alone = simulate_asr(point.cfg, point.fading, point.imp, tc, 1.0)
                assert_same_result(got, alone)
            assert_same_result(results[0], results[1])

    @pytest.mark.parametrize("order_seed", [0, 1])
    def test_shuffled_groups_equal_one_point_runs(self, order_seed):
        # kernel groups that share mac and mix (tx-rhi and rx-rhi share
        # both, uplink distortion alone only mac = 1.04) across three SNRs
        # and two path losses, in shuffled order: each result is its
        # one-point run's
        tx = ImpairmentProfile(kappa_ut=0.2, kappa_rt=0.2)
        rx = ImpairmentProfile(kappa_ur=0.2, kappa_rr=0.2)
        profiles = (IDEAL, tx, rx, ImpairmentProfile.uniform(0.2), ImpairmentProfile(kappa_ut=0.2))
        points = [
            SweepPoint(replace(CFG4, r1=r1), fading, imp)
            for r1 in (10.0, 100.0, 1000.0)
            for fading in (FADING4, FAR4)
            for imp in profiles
        ]
        np.random.default_rng(order_seed).shuffle(points)
        tc = TrialConfig(self.TRIALS, seed=41)
        for point, got in zip(points, simulate_sweep(points, tc)):
            assert_same_result(got, simulate_asr(point.cfg, point.fading, point.imp, tc, 1.0))

    def test_fig2b_shares_tx_and_rx_groups(self, monkeypatch, tmp_path):
        # 9 SNRs x 4 profiles, of which tx-rhi and rx-rhi have equal terms
        calls = counted_reducer(monkeypatch)
        argv = ["run", "--preset", "fig2b", "--trials", str(self.TRIALS)]
        assert main(argv + ["--output", str(tmp_path / "fig2b.csv")]) == 0
        assert len(calls) == 27 * 3  # per chunk, three chunks

    M8 = {
        "network": {"n_users": 8, "a": [0.35, 0.22, 0.15, 0.1, 0.07, 0.05, 0.04, 0.02]},
        "fading": {"alpha": 2, "beta": 3.0, "nu": 3.0, "distances": [1.0] * 8},
        "impairments": {"kappa_ut": 0.1, "kappa_ur": 0.1, "kappa_rt": 0.1, "kappa_rr": 0.1},
        "experiment": {"kind": "snr-sweep", "snr_db": [20.0], "schemes": ["noma"], "engine": "mc"},
    }
    M8_TWO_SNRS = {**M8, "experiment": {**M8["experiment"], "snr_db": [10.0, 20.0]}}
    PLACEMENT = {"experiment": {"engine": "mc", "grid": {"step": 10.0}}}

    @pytest.mark.parametrize(
        "preset, config, groups",
        [
            ("fig2b", None, 1),  # 27 kernel groups at one path loss
            (None, M8_TWO_SNRS, 1),  # two kernel groups
            (None, M8, 1),  # one point
            ("fig4a", PLACEMENT, 6),  # one kernel group per path loss
        ],
        ids=["fig2b", "m8_two_points", "m8_point", "placement"],
    )
    def test_numerators_computed_once_per_path_loss_group(
        self, monkeypatch, tmp_path, preset, config, groups
    ):
        # each path-loss group forms its numerator terms once per chunk, in
        # the run's one set of chunk buffers, whatever its number of kernel
        # groups; no Monte Carlo kernel call forms (or allocates) its own
        calls, made = [], []
        original = _kernels.weighted_sums

        def counted(rho, a, **kwargs):
            aggregates = original(rho, a, **kwargs)
            if rho.shape[0] in (CHUNK_TRIALS, 123):  # a chunk, not the closed form
                calls.append((rho.shape[0], kwargs.get("terms") is not None))
                assert np.shares_memory(aggregates[2], made[0].terms)
            return aggregates

        class Recorded(_ChunkBuffers):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(_kernels, "weighted_sums", counted)
        monkeypatch.setattr(montecarlo, "_ChunkBuffers", Recorded)
        argv = ["run", "--trials", str(self.TRIALS), "--output", str(tmp_path / "out.csv")]
        if preset is not None:
            argv += ["--preset", preset]
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        assert main(argv) == 0
        assert [b.count for b in made] == [CHUNK_TRIALS]
        sizes = [CHUNK_TRIALS] * 2 * groups + [123] * groups
        assert calls == [(size, True) for size in sizes]

    def test_rejects_mixed_law_and_empty(self):
        tc = TrialConfig(100, seed=1)
        beta4 = replace(FADING4, beta=4.0)
        with pytest.raises(ConfigurationError):
            simulate_sweep([SWEEP[0], SweepPoint(CFG4, beta4, IDEAL)], tc)
        cfg3 = SweepPoint(CFG3, FADING3, IDEAL)
        with pytest.raises(ConfigurationError):
            simulate_sweep([SWEEP[0], cfg3], tc)
        with pytest.raises(ConfigurationError):
            simulate_sweep([], tc)


class TestTxRxSymmetry:
    """The paper's result 2: transmitter and receiver distortion of one
    level have the same effect on the sum rate."""

    @settings(max_examples=60, deadline=None)
    @given(
        kappa=st.floats(0.0, 0.9),
        n_users=st.integers(2, 6),
        snr_db=st.floats(0.0, 60.0),
        scheme=st.sampled_from(("noma", "oma")),
        weights=st.lists(st.integers(1, 1000), min_size=6, max_size=6, unique=True),
    )
    def test_tx_and_rx_distortion_give_equal_rates(self, kappa, n_users, snr_db, scheme, weights):
        weights = sorted(weights[:n_users], reverse=True)
        cfg = NetworkConfig(
            n_users=n_users,
            a=tuple(w / sum(weights) for w in weights),
            r1=10.0 ** (snr_db / 10.0),
        )
        fading = FadingParams(alpha=2, beta=3.0, nu=3.0, distances=(1.0,) * n_users)
        share = scheme_prefactor(scheme, n_users)
        tx = ImpairmentProfile(kappa_ut=kappa, kappa_rt=kappa)
        rx = ImpairmentProfile(kappa_ur=kappa, kappa_rr=kappa)
        moments = order_stat_moments(fading, n_users)
        assert asr(moments, cfg, tx, share).total == asr(moments, cfg, rx, share).total
        tc = TrialConfig(TestSweepEngine.TRIALS, seed=23)
        points = [SweepPoint(cfg, fading, imp) for imp in (tx, rx)]
        results = simulate_sweep(points, tc)
        assert_same_result(results[0], results[1])
        for point, got in zip(points, results):
            alone = simulate_asr(cfg, fading, point.imp, tc, prefactor=share)
            assert_same_result(at_share(got, share), alone)


def nan_kernel(monkeypatch, fading, seed, bad_rows):
    """Kernel totals with NaN at the rows that bad_rows[(inv_r1, chunk)]
    names, as a NaN rate of one of the row's decoders leaves them: a row
    of the last decoder, or a {decoder column: row} mapping.  The chunk is
    recognised by its first sampled row."""
    original = _kernels.decoder_totals
    scale = fading.path_loss_factors()
    buffers = _ChunkBuffers(4, fading.alpha, 1)
    firsts = [_sample_rho_chunk(fading, seed, c, buffers)[0] * scale for c in range(3)]

    def patched(rho, a, inv_r1, *args, out, **kwargs):
        original(rho, a, inv_r1, *args, out=out, **kwargs)
        chunk = next((c for c, first in enumerate(firsts) if np.array_equal(rho[0], first)), None)
        cells = bad_rows.get((inv_r1, chunk), {})
        if not isinstance(cells, dict):
            cells = {rho.shape[1] - 2: cells}
        for row in cells.values():
            out[row] = np.nan
        return np.add.reduce(out)

    monkeypatch.setattr(_kernels, "decoder_totals", patched)


class TestSweepErrors:
    TRIALS = 2 * CHUNK_TRIALS + 100
    POINTS = [SweepPoint(replace(CFG4, r1=r1), FADING4, IDEAL) for r1 in (10.0, 100.0, 1000.0)]

    @RUNS
    def test_first_failing_point_named(self, monkeypatch, runs):
        # point 0 first fails in chunk 1 (and again in chunk 2); point 2
        # already fails in chunk 0
        bad = {(1 / 10.0, 1): 7, (1 / 10.0, 2): 1, (1 / 1000.0, 0): 3}
        nan_kernel(monkeypatch, FADING4, 2, bad)
        tc = TrialConfig(self.TRIALS, seed=2)
        expected = None
        for i, p in enumerate(self.POINTS):
            try:
                simulate_asr(p.cfg, p.fading, p.imp, tc)
            except NumericError as exc:
                expected = (i, str(exc))
                break
        assert expected == (0, f"non-finite rate in trial {CHUNK_TRIALS + 7}")
        for _ in range(runs):
            with pytest.raises(SweepPointError) as info:
                simulate_sweep(self.POINTS, tc)
            assert (info.value.point, str(info.value)) == expected
            assert info.value.trial == CHUNK_TRIALS + 7

    @RUNS
    def test_duplicated_failing_point_named(self, monkeypatch, runs):
        # the failing point occurs twice; its first occurrence is named
        bad = {(1 / 10.0, 1): 7, (1 / 1000.0, 1): 3}
        nan_kernel(monkeypatch, FADING4, 2, bad)
        points = [self.POINTS[1], self.POINTS[2], self.POINTS[1], self.POINTS[2], self.POINTS[0]]
        tc = TrialConfig(self.TRIALS, seed=2)
        expected = None
        for i, p in enumerate(points):
            try:
                simulate_asr(p.cfg, p.fading, p.imp, tc)
            except NumericError as exc:
                expected = (i, str(exc))
                break
        assert expected == (1, f"non-finite rate in trial {CHUNK_TRIALS + 3}")
        for _ in range(runs):
            with pytest.raises(SweepPointError) as info:
                simulate_sweep(points, tc)
            assert (info.value.point, str(info.value)) == expected
            assert info.value.trial == CHUNK_TRIALS + 3

    @RUNS
    def test_earliest_trial_named_across_pairs(self, monkeypatch, runs):
        # in chunk 1 decoder 2 fails at trial 9 and the later decoder 4
        # already at trial 2; the chunk's earliest bad trial is named
        nan_kernel(monkeypatch, FADING4, 2, {(1 / 100.0, 1): {0: 9, 2: 2}})
        tc = TrialConfig(self.TRIALS, seed=2)
        for _ in range(runs):
            with pytest.raises(SweepPointError) as info:
                simulate_sweep(self.POINTS, tc)
            assert (info.value.point, info.value.trial) == (1, CHUNK_TRIALS + 2)
            assert str(info.value) == f"non-finite rate in trial {CHUNK_TRIALS + 2}"

    def test_nan_rate_of_one_decoder_survives_the_repair(self, monkeypatch):
        # a NaN in decoder 3's rate of one trial of point 1 (FAR4's gains)
        # makes that total non-finite; the repair forms the trial's rates
        # again, gets the NaN again and the sweep names the point and trial
        original = _kernels._decoder_rate
        buffers = _ChunkBuffers(4, FAR4.alpha, CHUNK_TRIALS)
        bad = _sample_rho_chunk(FAR4, 2, 1, buffers)[57] * FAR4.path_loss_factors()
        repairs = []

        def nan_for_one_trial(k, rho, *args, out, den):
            rate = original(k, rho, *args, out=out, den=den)
            rows = (rho == bad).all(axis=1)
            if k == 3 and rows.any():
                rate[rows] = np.nan
                repairs.append(rho.shape[0])
            return rate

        monkeypatch.setattr(_kernels, "_decoder_rate", nan_for_one_trial)
        points = [SweepPoint(CFG4, FADING4, IDEAL), SweepPoint(CFG4, FAR4, IDEAL)]
        with pytest.raises(SweepPointError) as info:
            simulate_sweep(points, TrialConfig(self.TRIALS, seed=2))
        assert (info.value.point, info.value.trial) == (1, CHUNK_TRIALS + 57)
        assert str(info.value) == f"non-finite rate in trial {CHUNK_TRIALS + 57}"
        assert repairs == [CHUNK_TRIALS, 1]

    def test_path_loss_overflow_names_point(self):
        # an input fault: raised for the first overflowing point, before
        # any trial is drawn
        far = replace(FADING4, nu=400.0, distances=(30.0, 20.0, 1.0, 1.0))
        points = [self.POINTS[0], SweepPoint(CFG4, far, IDEAL), SweepPoint(CFG4, far, IDEAL)]
        with pytest.raises(SweepPointError) as info:
            simulate_sweep(points, TrialConfig(10, seed=2))
        assert (info.value.point, info.value.trial) == (1, None)
        assert str(info.value) == "path loss 1 + d^nu overflows at i=1, d=30, nu=400"


class TestSampleMoments:
    def test_overflowing_moments_raise(self):
        huge = replace(FADING4, beta=1e306)  # finite gains, squares overflow
        with pytest.raises(NumericError, match="sampled gain moments are not finite in chunk 0"):
            sample_moments(huge, TrialConfig(100, seed=1))

    @pytest.mark.parametrize(
        "beta, where", [(6.2e75, "when the chunks merge"), (1e77, "in chunk 0")]
    )
    def test_overflowing_m2_raises(self, beta, where):
        # at 6.2e75 each chunk's M2 of the squared gains is finite but
        # their merge is not; at 1e77 chunk 0's already overflows.  Both
        # are one NumericError, with no RuntimeWarning on the way
        fading = replace(FADING4, beta=beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=f"sampled gain moments are not finite {where}"):
                sample_moments(fading, TrialConfig(2 * CHUNK_TRIALS, seed=1))

    def test_matches_pooled_sample(self):
        fading = replace(FADING4, distances=(3.0, 2.0, 1.5, 1.0))
        trials = 2 * CHUNK_TRIALS + 123
        mean, stderr = sample_moments(fading, TrialConfig(trials, seed=8))
        assert mean.shape == stderr.shape == (2, 4)
        # the same trials pooled in one array, reduced by numpy directly
        # each chunk in its own buffers, kept past the next draw
        counts = [min(CHUNK_TRIALS, trials - c * CHUNK_TRIALS) for c in range(3)]
        rho = np.concatenate([
            _sample_rho_chunk(fading, 8, c, _ChunkBuffers(4, fading.alpha, count))
            for c, count in enumerate(counts)
        ]) * fading.path_loss_factors()
        x = np.stack([rho, rho**2])
        np.testing.assert_allclose(mean, x.mean(axis=1), rtol=1e-12)
        np.testing.assert_allclose(stderr, x.std(axis=1, ddof=1) / math.sqrt(trials), rtol=1e-10)


class TestBlocks:
    """A chunk draws, transforms and sorts its gains in blocks of about
    ``UNIFORM_BLOCK`` uniforms; where the blocks end changes no bit."""

    # a full chunk and a short last one
    TRIALS = CHUNK_TRIALS + 123

    @staticmethod
    def run(points, fading):
        tc = TrialConfig(TestBlocks.TRIALS, seed=23)
        return simulate_sweep(points, tc), sample_moments(fading, tc)

    # below 8 uniforms per gain the Gamma transform adds them in a slice
    # loop, from 8 on numpy sums them pairwise
    @pytest.mark.parametrize("alpha", [2, 9])
    @pytest.mark.parametrize(
        "block_trials",
        [1, 3001, 2 * CHUNK_TRIALS],
        ids=["one-trial", "non-divisor", "beyond-chunk"],
    )
    def test_block_size_changes_no_bit(self, monkeypatch, alpha, block_trials):
        points = [replace(p, fading=replace(p.fading, alpha=alpha)) for p in SWEEP]
        fading = points[0].fading
        want_rates, want_moments = self.run(points, fading)
        made = []

        class Recorded(_ChunkBuffers):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self.block)

        monkeypatch.setattr(montecarlo, "_ChunkBuffers", Recorded)
        monkeypatch.setattr(montecarlo, "UNIFORM_BLOCK", block_trials * 4 * alpha)
        got_rates, got_moments = self.run(points, fading)
        assert made == [min(block_trials, CHUNK_TRIALS)] * 2
        for got, want in zip(got_rates, want_rates):
            assert_same_result(got, want)
        for got, want in zip(got_moments, want_moments):
            assert np.array_equal(got, want)

    def test_memory_does_not_grow_with_the_fading_shape(self):
        # at alpha = 400 a whole chunk's uniforms would take 105 MB; a
        # block's take at most 8 * UNIFORM_BLOCK bytes at any shape
        def peak(alpha):
            fading = replace(FAR4, alpha=alpha)
            point = SweepPoint(CFG4, fading, ImpairmentProfile.uniform(0.1))
            tc = TrialConfig(self.TRIALS, seed=5)
            tracemalloc.start()
            try:
                simulate_sweep([point], tc)
                sample_moments(fading, tc)
                _, top = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return top

        peak(2)  # load numpy.random
        assert peak(400) <= peak(2) + 8 * montecarlo.UNIFORM_BLOCK
