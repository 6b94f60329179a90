"""Golden gate: every estimator cell computes exactly what was recorded.

A refactor or optimization of the estimation path must leave every
fingerprint in ``fingerprints.json`` unchanged; see ``regen.py`` for the
cells and for how to regenerate the file.
"""

import json

import pytest
from regen import FINGERPRINTS, cell_names, compute_pinned

GOLDEN = json.loads(FINGERPRINTS.read_text())


@pytest.fixture(scope="module")
def computed():
    return compute_pinned()


def test_file_lists_every_cell():
    assert sorted(GOLDEN) == sorted(cell_names())


@pytest.mark.parametrize("name", cell_names())
def test_cell_matches_golden(computed, name):
    assert computed[name] == GOLDEN[name]


@pytest.mark.parametrize("name", [n for n in cell_names() if not n.endswith("/scalar")])
def test_mode_matches_scalar_run(name):
    """Batched and paused-and-resumed runs end where the scalar run ends."""
    cell = GOLDEN[name]
    scalar = GOLDEN[name.rsplit("/", 1)[0] + "/scalar"]
    for key in ("estimate", "queries", "samples"):
        assert cell[key] == scalar[key]
