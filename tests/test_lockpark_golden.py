"""Replay the lock-polling golden snapshot bit-exactly.

``tests/golden/lockpark_runresults.json`` was generated by
``tests/golden/generate_lockpark_golden.py`` with the per-poll
``SharedWindow.lock`` loop, before failed pollers were parked on the
window and realised in bulk at unlock.  Its cells cover what the two
older goldens miss: lease breaks after a holder crash, crashes of ranks
that are polling a held lock (depth 2 and 3), locality-tier penalties
on every lock attempt (depth 3 and 4), noisy ADAPT selection and
zero-cost lock messages.  Every pinned field — makespan, per-rank
finish and overhead seconds, ``n_events``, chunk digest and every
counter — must match to the last bit.
"""

import importlib.util
import json
import os

import pytest

_GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _load_generator():
    path = os.path.join(_GOLDEN_DIR, "generate_lockpark_golden.py")
    spec = importlib.util.spec_from_file_location("generate_lockpark_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GENERATOR = _load_generator()

with open(GENERATOR.GOLDEN_PATH, "r", encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


def test_golden_covers_every_cell():
    assert set(GOLDEN) == set(GENERATOR.CELLS)


def test_lease_break_cells_break_a_lease():
    """The faulted cells exercise what their names promise."""
    for cell_id, want in GOLDEN.items():
        faults = GENERATOR.CELLS[cell_id][5]
        if faults is None:
            assert "lock_leases_broken" not in want["counters"]
            continue
        broken = want["counters"]["lock_leases_broken"]
        assert (broken > 0) == cell_id.startswith(("lease", "two-crashes")), cell_id


@pytest.mark.parametrize("cell_id", sorted(GOLDEN))
def test_cell_replays_bit_exact(cell_id):
    got = GENERATOR.snapshot_one(cell_id)
    want = GOLDEN[cell_id]
    for field in sorted(want):
        assert got[field] == want[field], f"{cell_id}: {field} differs"
