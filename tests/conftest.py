"""Shared test helpers."""

import signal

import pytest


@pytest.fixture
def bounded():
    """Run a call, failing with TimeoutError instead of hanging past a limit."""

    def run(seconds, call, *args, **kwargs):
        def expire(signum, frame):
            raise TimeoutError(f"no return within {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            return call(*args, **kwargs)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return run
