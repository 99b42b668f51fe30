"""Structural guard: one worker loop, one exponential backoff.

A closed-loop client is an open-loop client with no queue: ``Worker._main``
is the only generator, and the attempt / abort / backoff / commit body
exists once for both client models.  The open-loop retry pause is an
``ExponentialBackoffManager`` built by ``Frontend.make_backoff``, so the
doubling-and-cap arithmetic lives only in ``repro.core.backoff``."""

import inspect
import random
from types import SimpleNamespace

import pytest

import repro.frontend.frontend as frontend_module
import repro.sim.worker as worker_module
from repro.config import FrontendConfig, SimConfig
from repro.core.backoff import BackoffPolicy, ExponentialBackoffManager
from repro.frontend import Frontend
from repro.frontend.frontend import RETRY_JITTER
from repro.sim.worker import Worker


@pytest.mark.parametrize("name", ["_open_loop", "_run_item", "advance"])
def test_the_worker_defines_no_second_loop(name):
    assert not hasattr(Worker, name)


def test_main_is_the_only_generator():
    generators = [name for name, member in vars(Worker).items()
                  if inspect.isgeneratorfunction(member)]
    assert generators == ["_main"]


def test_the_frontend_defines_no_retry_pause():
    assert not hasattr(Frontend, "retry_pause")
    for module in (frontend_module, worker_module):
        assert "MAX_BACKOFF_DOUBLINGS" not in inspect.getsource(module)


def test_open_loop_backoff_takes_the_policy_bounds():
    config = SimConfig(frontend=FrontendConfig())
    cost = config.cost
    worker = SimpleNamespace(rng=random.Random(1))

    def backoff(policy=None):
        return Frontend(config, None, None,
                        backoff_policy=policy).make_backoff(worker)

    plain = backoff()
    assert type(plain) is ExponentialBackoffManager
    assert (plain.cap, plain.jitter) == (cost.backoff_max, RETRY_JITTER)
    assert plain.rng is worker.rng
    bounded = backoff(BackoffPolicy(1, cap=60.0, jitter=0.4))
    assert (bounded.cap, bounded.jitter) == (60.0, 0.4)
    clamped = backoff(BackoffPolicy(1, cap=2.0))
    assert (clamped.cap, clamped.jitter) == (cost.backoff_initial,
                                             RETRY_JITTER)
