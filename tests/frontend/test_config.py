"""FrontendConfig validation: bad values rejected at load time, naming
the offending field."""

import math

import pytest

from repro.config import TICKS_PER_SECOND, ConfigError, FrontendConfig, \
    SimConfig


def test_defaults_validate():
    fc = FrontendConfig()
    assert fc.arrival_rate > 0
    assert fc.shed_policy == "reject-newest"


def test_sim_config_defaults_closed_loop():
    assert SimConfig().frontend is None


def test_arrivals_per_tick():
    fc = FrontendConfig(arrival_rate=500_000.0)
    assert fc.arrivals_per_tick == pytest.approx(
        500_000.0 / TICKS_PER_SECOND)


@pytest.mark.parametrize("kwargs,field", [
    ({"arrival_rate": 0.0}, "arrival_rate"),
    ({"arrival_rate": -1.0}, "arrival_rate"),
    ({"arrival_rate": float("nan")}, "arrival_rate"),
    ({"arrival_rate": float("inf")}, "arrival_rate"),
    ({"queue_cap": 0}, "queue_cap"),
    ({"queue_cap": -5}, "queue_cap"),
    ({"deadline": 0.0}, "deadline"),
    ({"deadline": float("nan")}, "deadline"),
    ({"retry_budget": -1}, "retry_budget"),
    ({"shed_policy": "drop-table"}, "shed_policy"),
    ({"deadline": float("inf")}, "deadline"),
    ({"bursts": ((0.0, 10.0),)}, "burst"),
    ({"bursts": ((0.0, float("inf"), 2.0),)}, "burst"),
    ({"priorities": (("pay",),)}, "priorities"),
    ({"priorities": ((1, 2.0),)}, "priorities"),
    ({"n_clients": -1}, "n_clients"),
    ({"bursts": ((-1.0, 10.0, 2.0),)}, "burst"),
    ({"bursts": ((0.0, 0.0, 2.0),)}, "burst"),
    ({"bursts": ((0.0, 10.0, -2.0),)}, "burst"),
    ({"priorities": (("pay", float("nan")),)}, "priorities"),
])
def test_bad_values_name_field(kwargs, field):
    with pytest.raises(ConfigError, match=field):
        FrontendConfig(**kwargs)


def test_retry_budget_none_means_unbounded():
    fc = FrontendConfig(retry_budget=None)
    assert fc.retry_budget is None


def test_deadline_none_means_no_deadline():
    fc = FrontendConfig(deadline=None)
    assert fc.deadline is None


def test_cost_model_rejects_non_finite():
    from repro.config import CostModel
    with pytest.raises(ConfigError, match="backoff_initial"):
        CostModel(backoff_initial=float("nan"))
    with pytest.raises(ConfigError, match="backoff_max"):
        CostModel(backoff_max=float("inf"))
    assert math.isfinite(CostModel().backoff_max)
