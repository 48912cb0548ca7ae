import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Every thread a test starts, an oracle pool's included, is joined by its end."""
    before = set(threading.enumerate())
    yield
    assert set(threading.enumerate()) <= before
