"""Golden CSVs: every preset reproduces its committed bytes.

The files under ``tests/golden/`` pin the exact output of each preset:
the Monte Carlo presets at 16384 trials and the default seed, the
placement presets as shipped, a Monte Carlo placement sweep on a 5 m grid,
an M=8 point at 65,536 trials (28 pair rates per trial in 7 decoder
factors, the only golden with more than 3 decoders) and a 200k-sample moments check.  They depend on
the SFC64 chunk streams (numpy's SeedSequence seeding, pinned on its own
by ``test_montecarlo.py::TestStreams::test_stream_known_answers``) and on
numpy's log and log2 kernels (the Gamma sampler's one log per gain, the
rate kernel's one log2 per row), so a change of either can move the last
printed digit without any change to the model.
"""

import json
from pathlib import Path

import pytest

from mwrnoma.cli import main
from mwrnoma.presets import DEFAULT_SEED

GOLDEN = Path(__file__).parent / "golden"

MC_ARGS = ["--trials", "16384", "--seed", str(DEFAULT_SEED)]

MOMENTS_CONFIG = {
    "network": {"n_users": 4, "a": [0.5, 0.3, 0.15, 0.05]},
    "fading": {"alpha": 2, "beta": 3.0, "nu": 3.0, "distances": [1.0] * 4},
    "trials": {"trials": 200_000, "seed": DEFAULT_SEED},
    "experiment": {"kind": "moments-check"},
}

# the perfbench mc_point_m8 workload, both engines
M8_CONFIG = {
    "network": {"n_users": 8, "a": [0.35, 0.22, 0.15, 0.1, 0.07, 0.05, 0.04, 0.02]},
    "fading": {"alpha": 2, "beta": 3.0, "nu": 3.0, "distances": [1.0] * 8},
    "impairments": {"kappa_ut": 0.1, "kappa_ur": 0.1, "kappa_rt": 0.1, "kappa_rr": 0.1},
    "trials": {"trials": 65_536, "seed": 12022},
    "experiment": {"kind": "snr-sweep", "snr_db": [20.0], "schemes": ["noma"], "engine": "both"},
}

# name -> (preset, config file contents, extra flags)
CASES = {
    "fig2a": ("fig2a", None, MC_ARGS),
    "fig2b": ("fig2b", None, MC_ARGS),
    "fig3": ("fig3", None, MC_ARGS),
    "fig4a": ("fig4a", None, []),
    "fig4b": ("fig4b", None, []),
    "placement_mc": ("fig4a", {"experiment": {"engine": "mc", "grid": {"step": 5.0}}}, MC_ARGS),
    "mc_point_m8": (None, M8_CONFIG, []),
    "moments_check": (None, MOMENTS_CONFIG, []),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_preset_matches_golden(name, tmp_path):
    preset, config, flags = CASES[name]
    out = tmp_path / "out"
    argv = ["run", "--output", str(out / f"{name}.csv")]
    if preset is not None:
        argv += ["--preset", preset]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert main(argv + flags) == 0
    expected = sorted(GOLDEN.glob(f"{name}.csv")) + sorted(GOLDEN.glob(f"{name}_*.csv"))
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in expected)
    for path in expected:
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name
