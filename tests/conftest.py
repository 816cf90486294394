import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture
def planted_seed(monkeypatch):
    """Plant one wrong seed, P^0(c2) = 2*c2 at p = 3, so that the axiom
    harness has identities to fail.  Each call owns its seeds and its image
    table, so no value built from the wrong seed outlives the fixture.  The
    wrong seed is packed as the caller asks, as a true one would be."""
    from stablyfree import steenrod
    from stablyfree.algebra import pack_exps

    true_seed = steenrod.reduced_power_on_elementary

    def planted(p, i, j, *, tables=None, width=None):
        if (p, i, j) == (3, 0, 2):
            return {(0, 1): 2} if width is None else {pack_exps(width, (0, 1)): 2}
        return true_seed(p, i, j, tables=tables, width=width)

    monkeypatch.setattr(steenrod, "reduced_power_on_elementary", planted)
