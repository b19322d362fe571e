"""Bundled experiment presets.

Named after the result figures they regenerate; every value can be
overridden by a user config file merged on top.
"""

from __future__ import annotations

import copy

DEFAULT_SEED = 12022

_FADING_DEFAULTS = {"alpha": 2, "beta": 3.0, "nu": 3.0}

_NETWORK_M4 = {
    "n_users": 4,
    "a": [0.5, 0.3, 0.15, 0.05],
    "power_ratio_n": 1.0,
    "sigma_r2": 1.0,
    "sigma_t2": 1.0,
}

_SQUARE_USERS = [[5.0, 5.0], [5.0, -5.0], [-5.0, 5.0], [-5.0, -5.0]]

PRESETS: dict[str, dict] = {
    # sum rate vs SNR, superposed scheme against the orthogonal baseline
    "fig2a": {
        "network": _NETWORK_M4,
        "fading": {**_FADING_DEFAULTS, "distances": [1.0] * 4},
        "impairments": {"kappa_ut": 0.0, "kappa_ur": 0.0, "kappa_rt": 0.0, "kappa_rr": 0.0},
        "trials": {"trials": 100_000, "seed": DEFAULT_SEED},
        "experiment": {
            "kind": "snr-sweep",
            "snr_db": {"start": 0.0, "stop": 40.0, "step": 5.0},
            "schemes": ["noma", "oma"],
            "engine": "both",
            "output": "fig2a.csv",
        },
    },
    # sum rate vs SNR for distortion placed at tx, rx, or both ends
    "fig2b": {
        "network": _NETWORK_M4,
        "fading": {**_FADING_DEFAULTS, "distances": [1.0] * 4},
        "impairments": {
            "variants": {
                "ideal": {"kappa_ut": 0.0, "kappa_ur": 0.0, "kappa_rt": 0.0, "kappa_rr": 0.0},
                "tx-rhi": {"kappa_ut": 0.2, "kappa_ur": 0.0, "kappa_rt": 0.2, "kappa_rr": 0.0},
                "rx-rhi": {"kappa_ut": 0.0, "kappa_ur": 0.2, "kappa_rt": 0.0, "kappa_rr": 0.2},
                "transceiver-rhi": {
                    "kappa_ut": 0.2,
                    "kappa_ur": 0.2,
                    "kappa_rt": 0.2,
                    "kappa_rr": 0.2,
                },
            }
        },
        "trials": {"trials": 100_000, "seed": DEFAULT_SEED},
        "experiment": {
            "kind": "snr-sweep",
            "snr_db": {"start": 0.0, "stop": 40.0, "step": 5.0},
            "schemes": ["noma"],
            "engine": "both",
            "output": "fig2b.csv",
        },
    },
    # sum rate vs distortion level at 30 dB
    "fig3": {
        "network": _NETWORK_M4,
        "fading": {**_FADING_DEFAULTS, "distances": [1.0] * 4},
        "trials": {"trials": 100_000, "seed": DEFAULT_SEED},
        "experiment": {
            "kind": "kappa-sweep",
            "snr_db": 30.0,
            "kappa": {"start": 0.0, "stop": 0.3, "step": 0.05},
            "schemes": ["noma", "oma"],
            "engine": "both",
            "output": "fig3.csv",
        },
    },
    # sum-rate surface vs relay position at 30 dB
    "fig4a": {
        "network": _NETWORK_M4,
        "fading": _FADING_DEFAULTS,
        "impairments": {"kappa_ut": 0.0, "kappa_ur": 0.0, "kappa_rt": 0.0, "kappa_rr": 0.0},
        "geometry": {"users": _SQUARE_USERS, "height": 10.0},
        "experiment": {
            "kind": "placement-sweep",
            "snr_db": 30.0,
            "grid": {"x_min": -20.0, "x_max": 20.0, "y_min": -20.0, "y_max": 20.0, "step": 1.0},
            "schemes": ["noma"],
            "engine": "analytical",
            "output": "fig4a.csv",
        },
    },
    # same surface, superposed scheme against the orthogonal baseline
    "fig4b": {
        "network": _NETWORK_M4,
        "fading": _FADING_DEFAULTS,
        "impairments": {"kappa_ut": 0.0, "kappa_ur": 0.0, "kappa_rt": 0.0, "kappa_rr": 0.0},
        "geometry": {"users": _SQUARE_USERS, "height": 10.0},
        "experiment": {
            "kind": "placement-sweep",
            "snr_db": 30.0,
            "grid": {"x_min": -20.0, "x_max": 20.0, "y_min": -20.0, "y_max": 20.0, "step": 1.0},
            "schemes": ["noma", "oma"],
            "engine": "analytical",
            "output": "fig4b.csv",
        },
    },
}


def preset(name: str) -> dict:
    """Deep copy of a named preset; raises KeyError for unknown names."""
    return copy.deepcopy(PRESETS[name])
