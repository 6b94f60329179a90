"""Golden gate: every estimator cell computes exactly what was recorded.

A refactor or optimization of the estimation path must leave every
fingerprint in ``fingerprints.json`` unchanged; see ``regen.py`` for the
cells and for how to regenerate the file.  The ``scalar`` cells must
also come out of a two-worker ``run_many_parallel`` call unchanged.
"""

import json

import pytest
from regen import (
    FINGERPRINTS,
    cell_names,
    compute_pinned,
    moved_fields,
    scalar_cell_names,
)

GOLDEN = json.loads(FINGERPRINTS.read_text())


@pytest.fixture(scope="module")
def computed():
    return compute_pinned()


def test_file_lists_every_cell():
    assert sorted(GOLDEN) == sorted(cell_names())


@pytest.fixture(scope="module")
def fanout():
    return compute_pinned("compute_fanout")


@pytest.mark.parametrize("name", cell_names())
def test_cell_matches_golden(computed, name):
    assert computed[name] == GOLDEN[name]


@pytest.mark.parametrize("name", scalar_cell_names())
def test_fanout_matches_scalar_cell(fanout, name):
    """A fanned-out run ends where the scalar run ends, and its final
    checkpoint file holds the scalar run's final state."""
    assert fanout[name] == GOLDEN[name]


@pytest.mark.parametrize("name", [n for n in cell_names() if not n.endswith("/scalar")])
def test_mode_matches_scalar_run(name):
    """Batched and paused-and-resumed runs end where the scalar run ends."""
    cell = GOLDEN[name]
    scalar = GOLDEN[name.rsplit("/", 1)[0] + "/scalar"]
    for key in ("estimate", "queries", "samples"):
        assert cell[key] == scalar[key]


def test_moved_fields_names_each_changed_field():
    old = {"a": {"estimate": "0x1p+0", "queries": 5}, "b": {"queries": 1}}
    new = {"a": {"estimate": "0x1p+1", "queries": 5}, "c": {"queries": 2}}
    assert moved_fields(old, new) == {
        "a": {"estimate": ("0x1p+0", "0x1p+1")},
        "b": {"queries": (1, None)},
        "c": {"queries": (None, 2)},
    }
    assert moved_fields(GOLDEN, GOLDEN) == {}
