import sys
from pathlib import Path

import pytest
from hypothesis import settings

# make the sibling oracle helpers importable regardless of how pytest is run
sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run, and none fails for
# being slow on a loaded host.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def conversions(monkeypatch):
    """Counts of whole-grid conversions, [grid -> array, array -> grid],
    made while the test runs (``AlgMatrix(spec, grid)`` and
    ``_Layout.rows``)."""
    from algdecomp.core import AlgMatrix, _Layout
    counts = [0, 0]
    init, rows = AlgMatrix.__init__, _Layout.rows

    def counting_init(self, spec, grid):
        counts[0] += 1
        init(self, spec, grid)

    def counting_rows(self, x):
        counts[1] += 1
        return rows(self, x)
    monkeypatch.setattr(AlgMatrix, "__init__", counting_init)
    monkeypatch.setattr(_Layout, "rows", counting_rows)
    return counts
