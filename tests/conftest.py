import pytest

from boxball import dynamics as dyn

# the swap cores the path classes memoise (see the `dynamics` module docstring)
MEMOISED_CORES = tuple(
    getattr(cls, name)
    for cls in (dyn.BasicPath, dyn.InhomPath)
    for name in ("row_core", "col_core", "inv_col_core")
    if hasattr(getattr(cls, name), "cache_clear")
)


def clear_memoised_cores():
    for core in MEMOISED_CORES:
        core.cache_clear()


@pytest.fixture
def fresh_cores():
    """Clear the memoised cores before and after the test: a fault planted in
    a function they call is then not hidden by results cached before it was
    planted, and results cached under the fault do not reach later tests."""
    clear_memoised_cores()
    yield
    clear_memoised_cores()
