import contextlib
import signal

import pytest


@pytest.fixture
def time_limit():
    """``with time_limit(seconds): ...`` fails the test with TimeoutError
    once the block runs past the limit, instead of letting it hang."""

    @contextlib.contextmanager
    def limit(seconds: float):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
