"""Orthogonal-scheduling baseline for the same multi-way exchange.

The baseline delivers the identical pairwise exchange content, but the
relay serves the broadcast side in orthogonal rounds: one shared access
phase plus ceil((M - 1) / 2) pairwise broadcast rounds, i.e.
ceil((M - 1) / 2) + 1 slots in total versus the 2-slot superposed scheme.
Per-exchange SINRs are unchanged (orthogonalizing the broadcast rounds
does not remove the shared access-phase superposition), so each pair rate
carries a 1/slots time share instead of 1/2: the engines return unit-share
numbers, which ``scheme_prefactor`` scales once they are finished.  For
M <= 3 the slot counts coincide and the schemes are identical; the result
is flagged.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .channel import FadingParams, OrderStatMoments
from .montecarlo import TrialConfig, simulate_asr
from .rate import AsrResult, asr
from .signal import ImpairmentProfile, NetworkConfig

__all__ = ["slot_count", "scheme_prefactor", "asr_oma", "simulate_asr_oma"]


def slot_count(n_users: int) -> int:
    """Slots needed by the orthogonal schedule: ceil((M - 1) / 2) + 1."""
    return math.ceil((n_users - 1) / 2) + 1


def scheme_prefactor(scheme: str, n_users: int) -> float:
    """Time share of each pair rate: 1/2 superposed, 1/slots orthogonal."""
    if scheme not in ("noma", "oma"):
        raise ValueError(f"scheme must be 'noma' or 'oma', got {scheme!r}")
    return 0.5 if scheme == "noma" else 1.0 / slot_count(n_users)


def _slot_notes(n_users: int) -> tuple[str, ...]:
    slots = slot_count(n_users)
    if slots == 2:
        return (
            f"orthogonal schedule needs {slots} slots at M={n_users}, same as the "
            "superposed scheme: both schemes coincide",
        )
    return ()


def asr_oma(
    moments: OrderStatMoments,
    cfg: NetworkConfig,
    imp: ImpairmentProfile = ImpairmentProfile(),
) -> AsrResult:
    """Closed-form sum rate of the orthogonal baseline."""
    result = asr(moments, cfg, imp, prefactor=scheme_prefactor("oma", cfg.n_users))
    return replace(result, notes=result.notes + _slot_notes(cfg.n_users))


def simulate_asr_oma(
    cfg: NetworkConfig,
    fading: FadingParams,
    imp: ImpairmentProfile,
    tc: TrialConfig,
) -> AsrResult:
    """Monte Carlo sum rate of the orthogonal baseline."""
    result = simulate_asr(cfg, fading, imp, tc, prefactor=scheme_prefactor("oma", cfg.n_users))
    return replace(result, notes=result.notes + _slot_notes(cfg.n_users))
