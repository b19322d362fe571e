"""Golden CSVs: every preset reproduces its committed bytes.

The files under ``tests/golden/`` pin the exact output of each preset:
the Monte Carlo presets at 16384 trials and the default seed, the
placement presets as shipped.  They depend on the Philox stream and on the
platform's libm (log1p, log2), so a change of either can move the last
printed digit without any change to the model.
"""

from pathlib import Path

import pytest

from mwrnoma.cli import main
from mwrnoma.presets import DEFAULT_SEED

GOLDEN = Path(__file__).parent / "golden"

MC_ARGS = ["--trials", "16384", "--seed", str(DEFAULT_SEED)]

CASES = {
    "fig2a": MC_ARGS,
    "fig2b": MC_ARGS,
    "fig3": MC_ARGS,
    "fig4a": [],
    "fig4b": [],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_preset_matches_golden(name, tmp_path):
    argv = ["run", "--preset", name, "--output", str(tmp_path / f"{name}.csv")]
    assert main(argv + CASES[name]) == 0
    expected = sorted(GOLDEN.glob(f"{name}.csv")) + sorted(GOLDEN.glob(f"{name}_*.csv"))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in expected)
    for path in expected:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name
