"""Sum-rate engine for an aerial-relay multi-way exchange network.

M ground users swap messages through a single amplify-and-forward relay
in two phases, sharing the channel by power-domain superposition with
successive decoding.  The package provides the ordered-fading channel
model, the distortion-aware SINR chain, closed-form per-decoder rates with
their high-SNR asymptotes, a seeded Monte Carlo cross-check, an
orthogonal-scheduling baseline, relay-placement sweeps, and a CLI that
reproduces the bundled experiments as CSV.
"""

from .baseline import asr_oma, simulate_asr_oma, slot_count
from .channel import (
    FadingParams,
    OrderStatMoments,
    moment_oracle,
    order_stat_moments,
)
from .errors import (
    ConfigurationError,
    MwrnomaError,
    NumericError,
    UnsupportedParameterError,
)
from .montecarlo import SweepPoint, TrialConfig, sample_moments, simulate_asr, simulate_sweep
from .placement import (
    Geometry,
    GridSpec,
    PlacementSurface,
    distances,
    link_distance,
    sweep_grid,
    sweep_surfaces,
)
from .rate import (
    AsrResult,
    asr,
    asr_affine,
    asr_asymptotic,
)
from .signal import ImpairmentProfile, NetworkConfig

__version__ = "0.1.0"

__all__ = [
    "AsrResult",
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
    "SweepPoint",
    "TrialConfig",
    "UnsupportedParameterError",
    "asr",
    "asr_affine",
    "asr_asymptotic",
    "asr_oma",
    "distances",
    "link_distance",
    "moment_oracle",
    "order_stat_moments",
    "sample_moments",
    "simulate_asr",
    "simulate_asr_oma",
    "simulate_sweep",
    "slot_count",
    "sweep_grid",
    "sweep_surfaces",
    "__version__",
]
