"""Sum-rate engine for an aerial-relay multi-way exchange network.

M ground users swap messages through a single amplify-and-forward relay
in two phases, sharing the channel by power-domain superposition with
successive decoding.  The package provides the ordered-fading channel
model, the distortion-aware SINR chain, closed-form per-pair rates with
their high-SNR asymptotes, a seeded Monte Carlo cross-check, an
orthogonal-scheduling baseline, relay-placement sweeps, and a CLI that
reproduces the bundled experiments as CSV.
"""

from .baseline import asr_oma, simulate_asr_oma, slot_count
from .channel import (
    ChannelRealization,
    FadingParams,
    OrderStatMoments,
    gamma_variates,
    moment_oracle,
    omega_moment,
    order_stat_moments,
    psi_moment,
    sample_channel_gains,
)
from .errors import (
    ConfigurationError,
    MwrnomaError,
    NumericError,
    UnsupportedParameterError,
)
from .montecarlo import (
    SweepPoint,
    TrialConfig,
    derive_trial_stream,
    simulate_asr,
    simulate_sweep,
)
from .placement import Geometry, GridSpec, PlacementSurface, distances, link_distance, sweep_grid
from .rate import (
    SLOPE_FLOOR,
    AsrResult,
    asr,
    asr_asymptotic,
    high_snr_offset,
    high_snr_slope,
    pair_indices,
)
from .signal import (
    ImpairmentProfile,
    NetworkConfig,
    SinrTerms,
    sinr_instantaneous,
    sinr_terms,
)

__version__ = "0.1.0"

__all__ = [
    "AsrResult",
    "ChannelRealization",
    "ConfigurationError",
    "FadingParams",
    "Geometry",
    "GridSpec",
    "ImpairmentProfile",
    "MwrnomaError",
    "NetworkConfig",
    "NumericError",
    "OrderStatMoments",
    "PlacementSurface",
    "SinrTerms",
    "SLOPE_FLOOR",
    "SweepPoint",
    "TrialConfig",
    "UnsupportedParameterError",
    "asr",
    "asr_asymptotic",
    "asr_oma",
    "derive_trial_stream",
    "distances",
    "gamma_variates",
    "high_snr_offset",
    "high_snr_slope",
    "link_distance",
    "moment_oracle",
    "omega_moment",
    "order_stat_moments",
    "pair_indices",
    "psi_moment",
    "sample_channel_gains",
    "simulate_asr",
    "simulate_asr_oma",
    "simulate_sweep",
    "sinr_instantaneous",
    "sinr_terms",
    "slot_count",
    "sweep_grid",
    "__version__",
]
