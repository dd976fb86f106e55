"""Shared test helpers."""

import signal

import pytest

from cubewords import exactnum, returns


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


@pytest.fixture
def exact_calls(monkeypatch):
    """Names of the exact routes called, in order: _compare, _int_sign and _floor.

    Each is counted in exactnum and in returns, wherever the module
    binds it, so both the shared estimate-first core (exactnum._side,
    _mod1_row, _sorted_merged) and the coder's own exact fallbacks
    show.  A _compare counts its _int_sign too.  FieldNumber
    comparisons count as well, so a test builds its inputs and its
    oracle's answers before it clears the list.
    """
    calls = []
    for module in (exactnum, returns):
        for name in ("_compare", "_int_sign", "_floor"):
            if hasattr(module, name):
                real = getattr(module, name)

                def counted(*args, name=name, real=real):
                    calls.append(name)
                    return real(*args)

                monkeypatch.setattr(module, name, counted)
    return calls
