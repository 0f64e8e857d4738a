"""CLI output is pinned byte for byte.

Each file in ``tests/golden`` is the standard output of one ``pjac`` command
line below.  A change that means to move these bytes regenerates the file
with ``pjac <argv> > tests/golden/<name>.txt`` and says why the bytes moved.
"""

from pathlib import Path

import pytest

from pjac.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

JOBS = {
    "energy-gap": ("energy-gap", "--eps", "1e-1,1e-3", "--grid", "32"),
    "zhukovsky": ("zhukovsky", "--datum", "gauss", "--competitor", "rot-phi1"),
    "nonuniqueness": ("nonuniqueness", "--grid", "64"),
    **{
        f"check-map-{name}": ("check-map", "--map", name, "--eps", "0.3", "--seed", "7")
        for name in ("eta", "shear", "wedge", "counterexample")
    },
}


@pytest.mark.parametrize("name", sorted(JOBS))
def test_stdout_matches_golden_bytes(name, capsysbinary):
    assert main(list(JOBS[name])) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / f"{name}.txt").read_bytes()
