import threading

import pytest
from hypothesis import settings

# One profile for every property: no per-example deadline, since example
# timings vary with machine load, and a failure prints its reproduction blob.
settings.register_profile("eprbell", deadline=None, print_blob=True)
settings.load_profile("eprbell")


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Every thread a test starts is joined by its end."""
    before = set(threading.enumerate())
    yield
    assert set(threading.enumerate()) <= before
