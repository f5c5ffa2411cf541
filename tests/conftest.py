"""Shared fixtures."""

import inspect

import pytest


@pytest.fixture(scope="session")
def once_per_session():
    """Wrap a pure function so that each distinct set of arguments runs
    once per test session.

    The acceptance criteria and the committed-output gate run the two
    full randomized batteries with the same arguments; both go through
    this, so tier-1 pays for each battery once.  Arguments are bound to
    the signature with defaults applied, so `f(1, seed=2)` and
    `f(1, 2)` share a run.
    """
    results = {}

    def wrap(fn):
        sig = inspect.signature(fn)

        def call(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            key = (fn.__module__, fn.__qualname__, tuple(bound.arguments.items()))
            if key not in results:
                results[key] = fn(*args, **kwargs)
            return results[key]

        return call

    return wrap
