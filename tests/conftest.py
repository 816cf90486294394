import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture
def planted_seed(monkeypatch):
    """Plant one wrong seed, P^0(c2) = 2*c2 at p = 3, so that the axiom
    harness has identities to fail.  The cached seeds, the image tables
    and the seeds' shared tables are emptied before and after, so no value
    built from the wrong seed outlives it."""
    from stablyfree import steenrod

    true_seed = steenrod.reduced_power_on_elementary

    def planted(p, i, j):
        return {(0, 1): 2} if (p, i, j) == (3, 0, 2) else true_seed(p, i, j)

    def clear():
        true_seed.cache_clear()
        steenrod._release_tables()

    clear()
    monkeypatch.setattr(steenrod, "reduced_power_on_elementary", planted)
    yield
    monkeypatch.undo()
    clear()
