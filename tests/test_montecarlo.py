"""Monte Carlo engine: determinism, stream derivation, statistical behavior."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sstats

from mwrnoma import (
    ConfigurationError,
    FadingParams,
    ImpairmentProfile,
    NetworkConfig,
    TrialConfig,
    asr,
    derive_trial_stream,
    order_stat_moments,
    NumericError,
    SweepPoint,
    pair_indices,
    simulate_asr,
    simulate_sweep,
)
from mwrnoma import _kernels
from mwrnoma.baseline import scheme_prefactor
from mwrnoma.errors import SweepPointError
from mwrnoma.montecarlo import (
    CHUNK_TRIALS,
    _chunk_stats,
    _merge_stats,
    _sample_rho_chunk,
)

FADING3 = FadingParams(alpha=2, beta=3.0, nu=3.0, distances=(1.0,) * 3)
CFG3 = NetworkConfig(n_users=3, a=(0.5, 0.3, 0.2), r1=1000.0)


class TestStreams:
    def test_same_index_same_stream(self):
        a = derive_trial_stream(99, 0).random(16)
        b = derive_trial_stream(99, 0).random(16)
        assert np.array_equal(a, b)

    def test_distinct_indices_distinct_streams(self):
        a = derive_trial_stream(99, 0).random(8)
        b = derive_trial_stream(99, 1).random(8)
        assert not np.array_equal(a, b)

    def test_first_draw_uniformity(self):
        firsts = np.array([derive_trial_stream(5, t).random() for t in range(10_000)])
        counts, _ = np.histogram(firsts, bins=20, range=(0.0, 1.0))
        assert sstats.chisquare(counts).pvalue > 0.01

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            derive_trial_stream(1, -1)
        with pytest.raises(ConfigurationError):
            derive_trial_stream(-1, 0)
        with pytest.raises(ConfigurationError):
            derive_trial_stream(2**64, 0)

    def test_chunk_prefix_property(self):
        # shorter chunks reproduce the same leading trials
        full = _sample_rho_chunk(FADING3, 3, seed=4, chunk_index=2, count=100)
        head = _sample_rho_chunk(FADING3, 3, seed=4, chunk_index=2, count=10)
        assert np.array_equal(full[:10], head)


class TestDeterminism:
    def test_same_seed_same_result(self):
        tc = TrialConfig(trials=20_000, seed=123)
        a = simulate_asr(CFG3, FADING3, ImpairmentProfile.uniform(0.1), tc)
        b = simulate_asr(CFG3, FADING3, ImpairmentProfile.uniform(0.1), tc)
        assert a.total == b.total
        assert np.array_equal(a.per_pair, b.per_pair)

    @pytest.mark.parametrize("workers", [4, 8])
    def test_worker_count_invariance(self, workers):
        # span multiple chunks so the merge path is exercised
        trials = 3 * CHUNK_TRIALS + 57
        base = simulate_asr(
            CFG3, FADING3, ImpairmentProfile.ideal(), TrialConfig(trials, seed=9, workers=1)
        )
        other = simulate_asr(
            CFG3, FADING3, ImpairmentProfile.ideal(), TrialConfig(trials, seed=9, workers=workers)
        )
        assert base.total == other.total
        assert base.stderr == other.stderr
        assert np.array_equal(base.per_pair, other.per_pair)
        assert np.array_equal(base.per_pair_stderr, other.per_pair_stderr)

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

    def test_undecodable_pairs_exactly_zero(self):
        sim = simulate_asr(CFG3, FADING3, ImpairmentProfile.uniform(0.2), TrialConfig(2_000, seed=5))
        M = CFG3.n_users
        decodable = {(k, n) for k, n in pair_indices(M)}
        for k in range(1, M + 1):
            for n in range(1, M):
                if (k, n) not in decodable:
                    assert sim.per_pair[k - 1, n - 1] == 0.0
                    assert sim.per_pair_stderr[k - 1, n - 1] == 0.0

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
        with pytest.raises(ConfigurationError):
            TrialConfig(trials=10, seed=-1)
        with pytest.raises(ConfigurationError):
            TrialConfig(trials=10, seed=1, workers=0)

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

# mixed SNR, distortion profile, 1/slot_count prefactor and path loss; the
# first two share a kernel call, the last three a path-loss vector
SWEEP = [
    SweepPoint(CFG4, FADING4, IDEAL),
    SweepPoint(CFG4, FADING4, IDEAL, OMA4),
    SweepPoint(replace(CFG4, r1=1000.0), FADING4, ImpairmentProfile.uniform(0.1)),
    SweepPoint(replace(CFG4, r1=1000.0), FAR4, ImpairmentProfile(0.2, 0.0, 0.2, 0.0)),
    SweepPoint(CFG4, FAR4, IDEAL, OMA4),
    SweepPoint(replace(CFG4, r1=10.0), FAR4, ImpairmentProfile(0.0, 0.2, 0.0, 0.2)),
]


def reference_stats(point, tc):
    """The per-point loop: sample, scale, evaluate and merge chunk by chunk."""
    imp, cfg = point.imp, point.cfg
    stats = None
    for c in range(0, (tc.trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS):
        count = min(CHUNK_TRIALS, tc.trials - c * CHUNK_TRIALS)
        rho = _sample_rho_chunk(point.fading, 4, tc.seed, c, count)
        rho = rho * point.fading.path_loss_factors()
        rates = _kernels.pair_rate_chunk(
            rho, np.asarray(cfg.a), 1.0 / cfg.r1, 1.0 / cfg.r2,
            imp.kappa_ut**2, imp.kappa_ur**2, imp.kappa_rt**2, imp.kappa_rr**2,
        )
        if point.prefactor != 0.5:
            rates = rates * (point.prefactor / 0.5)
        part = _chunk_stats(rates)
        stats = part if stats is None else _merge_stats(stats, part)
    return stats


def assert_same_result(got, want):
    assert got.total == want.total
    assert got.stderr == want.stderr
    assert got.trials == want.trials
    assert np.array_equal(got.per_pair, want.per_pair)
    assert np.array_equal(got.per_pair_stderr, want.per_pair_stderr)


class TestSweepEngine:
    # not a multiple of the chunk size, so the short last chunk is covered
    TRIALS = 2 * CHUNK_TRIALS + 123

    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_one_point_runs(self, workers):
        results = simulate_sweep(SWEEP, TrialConfig(self.TRIALS, seed=31, workers=workers))
        assert len(results) == len(SWEEP)
        for point, got in zip(SWEEP, results):
            alone = simulate_asr(
                point.cfg, point.fading, point.imp, TrialConfig(self.TRIALS, seed=31),
                prefactor=point.prefactor,
            )
            assert_same_result(got, alone)

    def test_matches_per_point_loop(self):
        tc = TrialConfig(self.TRIALS, seed=31)
        for point, got in zip(SWEEP, simulate_sweep(SWEEP, tc)):
            n, mean, _, t_mean, t_m2 = reference_stats(point, tc)
            assert n == got.trials == self.TRIALS
            assert got.total == t_mean
            assert got.stderr == math.sqrt(t_m2 / (n * (n - 1)))
            assert np.array_equal(got.per_pair[np.tril_indices(4, -1)], mean)

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


def nan_kernel(monkeypatch, fading, seed, bad_rows):
    """Kernel returning NaN at row bad_rows[(inv_r1, chunk)] of a chunk; the
    chunk is recognised by its first sampled row."""
    original = _kernels.pair_rate_chunk
    scale = fading.path_loss_factors()
    firsts = [_sample_rho_chunk(fading, 4, seed, c, 1)[0] * scale for c in range(3)]

    def patched(rho, a, inv_r1, *args, **kwargs):
        out = original(rho, a, inv_r1, *args, **kwargs)
        for chunk, first in enumerate(firsts):
            row = bad_rows.get((inv_r1, chunk))
            if row is not None and np.array_equal(rho[0], first):
                out[row, -1] = np.nan
        return out

    monkeypatch.setattr(_kernels, "pair_rate_chunk", patched)


class TestSweepErrors:
    TRIALS = 2 * CHUNK_TRIALS + 100
    POINTS = [SweepPoint(replace(CFG4, r1=r1), FADING4, IDEAL) for r1 in (10.0, 100.0, 1000.0)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_failing_point_named(self, monkeypatch, workers):
        # point 0 first fails in chunk 1 (and again in chunk 2); point 2
        # already fails in chunk 0
        bad = {(1 / 10.0, 1): 7, (1 / 10.0, 2): 1, (1 / 1000.0, 0): 3}
        nan_kernel(monkeypatch, FADING4, 2, bad)
        tc = TrialConfig(self.TRIALS, seed=2, workers=workers)
        expected = None
        for i, p in enumerate(self.POINTS):
            try:
                simulate_asr(p.cfg, p.fading, p.imp, tc)
            except NumericError as exc:
                expected = (i, str(exc))
                break
        assert expected == (0, f"non-finite rate in trial {CHUNK_TRIALS + 7}")
        with pytest.raises(SweepPointError) as info:
            simulate_sweep(self.POINTS, tc)
        assert (info.value.point, str(info.value)) == expected
        assert info.value.trial == CHUNK_TRIALS + 7

    def test_path_loss_overflow_names_point(self):
        # an input fault: raised for the first overflowing point, before
        # any trial is drawn
        far = replace(FADING4, nu=400.0, distances=(30.0, 20.0, 1.0, 1.0))
        points = [self.POINTS[0], SweepPoint(CFG4, far, IDEAL), SweepPoint(CFG4, far, IDEAL)]
        with pytest.raises(SweepPointError) as info:
            simulate_sweep(points, TrialConfig(10, seed=2))
        assert (info.value.point, info.value.trial) == (1, None)
        assert str(info.value) == "path loss 1 + d^nu overflows at i=1, d=30, nu=400"
