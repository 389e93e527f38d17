import pytest

from conelab import fd, lab


@pytest.fixture(autouse=True)
def empty_solve_cache():
    """Each test starts with no cached solution and no kept lattice, so a
    solver it monkeypatches is the one its experiments call and its first
    assembly on a lattice builds the pattern."""
    lab.clear_solve_cache()
    fd._grid.cache_clear()
