import pytest

from conelab import lab


@pytest.fixture(autouse=True)
def empty_solve_cache():
    """Each test starts with no cached solution, so a solver it
    monkeypatches is the one its experiments call."""
    lab.clear_solve_cache()
