import pytest

from rareweak import harness


@pytest.fixture
def blas():
    """numpy's OpenBLAS set to two threads for the test, then set back."""
    found = harness._openblas()
    if found is None:
        pytest.skip("numpy's OpenBLAS not found")
    get, set_ = found
    saved = get()
    set_(2)
    yield get
    set_(saved)
