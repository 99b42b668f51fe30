"""Backoff policy and manager tests (§4.5)."""

import random

import pytest

from repro.config import CostModel
from repro.errors import PolicyFormatError, PolicyShapeError, PolicyValueError
from repro.core.backoff import (ALPHA_CHOICES, BackoffPolicy,
                                ExponentialBackoffManager,
                                LearnedBackoffManager, NoBackoffManager,
                                STATUS_ABORTED, STATUS_COMMITTED,
                                abort_bucket)


class TestBuckets:
    def test_bucket_caps_at_two(self):
        assert abort_bucket(0) == 0
        assert abort_bucket(1) == 1
        assert abort_bucket(2) == 2
        assert abort_bucket(7) == 2

    def test_negative_clamped(self):
        assert abort_bucket(-1) == 0


class TestBackoffPolicy:
    def test_default_alphas_are_zero(self):
        policy = BackoffPolicy(2)
        assert policy.alpha(0, STATUS_ABORTED, 0) == 0.0
        assert policy.alpha(1, STATUS_COMMITTED, 5) == 0.0

    def test_validation(self):
        with pytest.raises(PolicyShapeError):
            BackoffPolicy(0)
        policy = BackoffPolicy(1)
        policy.alpha_indices[0][0][0] = 99
        with pytest.raises(PolicyValueError):
            policy.validate()

    def test_clone_independent(self):
        policy = BackoffPolicy(2)
        copy = policy.clone()
        copy.alpha_indices[0][0][0] = 1
        assert policy.alpha_indices[0][0][0] == 0
        assert policy != copy

    def test_serialization_roundtrip(self):
        policy = BackoffPolicy(3)
        policy.alpha_indices[2][1][2] = 4
        restored = BackoffPolicy.from_json(policy.to_json())
        assert restored == policy

    def test_rejects_bad_json(self):
        with pytest.raises(PolicyFormatError):
            BackoffPolicy.from_json("nope")
        with pytest.raises(PolicyFormatError):
            BackoffPolicy.from_dict({"n_types": 1})


class TestLearnedManager:
    def make(self, alpha_abort=1.0, alpha_commit=1.0):
        policy = BackoffPolicy(1)
        abort_index = ALPHA_CHOICES.index(alpha_abort)
        commit_index = ALPHA_CHOICES.index(alpha_commit)
        for bucket in range(3):
            policy.alpha_indices[0][STATUS_ABORTED][bucket] = abort_index
            policy.alpha_indices[0][STATUS_COMMITTED][bucket] = commit_index
        return LearnedBackoffManager(policy, CostModel(backoff_initial=10.0,
                                                       backoff_max=1000.0))

    def test_multiplicative_growth_on_abort(self):
        manager = self.make(alpha_abort=1.0)
        assert manager.on_abort(0, 1) == 20.0   # 10 * (1+1)
        assert manager.on_abort(0, 2) == 40.0

    def test_capped_at_max(self):
        manager = self.make(alpha_abort=4.0)
        for attempt in range(1, 10):
            pause = manager.on_abort(0, attempt)
        assert pause == 1000.0

    def test_commit_shrinks(self):
        manager = self.make(alpha_abort=1.0, alpha_commit=1.0)
        manager.on_abort(0, 1)
        manager.on_abort(0, 2)  # backoff now 40
        manager.on_commit(0, 0)
        assert manager.current(0) == 20.0

    def test_commit_floor_is_initial(self):
        manager = self.make(alpha_commit=4.0)
        manager.on_commit(0, 0)
        assert manager.current(0) == 10.0

    def test_zero_alpha_keeps_backoff(self):
        manager = self.make(alpha_abort=0.0)
        assert manager.on_abort(0, 1) == 10.0
        assert manager.on_abort(0, 5) == 10.0

    def test_per_type_state_is_independent(self):
        policy = BackoffPolicy(2)
        index = ALPHA_CHOICES.index(2.0)
        for bucket in range(3):
            policy.alpha_indices[0][STATUS_ABORTED][bucket] = index
        manager = LearnedBackoffManager(policy, CostModel(backoff_initial=10.0,
                                                          backoff_max=1000.0))
        manager.on_abort(0, 1)
        assert manager.current(0) == 30.0
        assert manager.current(1) == 10.0


class TestExponentialManager:
    def test_doubles_per_attempt(self):
        manager = ExponentialBackoffManager(CostModel(backoff_initial=4.0,
                                                      backoff_max=1000.0))
        assert manager.on_abort(0, 1) == 4.0
        assert manager.on_abort(0, 2) == 8.0
        assert manager.on_abort(0, 3) == 16.0

    def test_capped(self):
        manager = ExponentialBackoffManager(CostModel(backoff_initial=4.0,
                                                      backoff_max=100.0))
        assert manager.on_abort(0, 20) == 100.0

    def test_stateless_across_invocations(self):
        manager = ExponentialBackoffManager(CostModel(backoff_initial=4.0,
                                                      backoff_max=100.0))
        manager.on_abort(0, 5)
        manager.on_commit(0, 5)
        assert manager.on_abort(0, 1) == 4.0

    def test_no_cap_gives_the_uncapped_values(self):
        cost = CostModel(backoff_initial=4.0, backoff_max=100.0)
        plain = ExponentialBackoffManager(cost)
        explicit = ExponentialBackoffManager(cost, cap=None, jitter=0.0)
        pauses = [4.0, 8.0, 16.0, 32.0, 64.0, 100.0, 100.0]
        for attempt, pause in enumerate(pauses, start=1):
            assert plain.on_abort(0, attempt) == pause
            assert explicit.on_abort(0, attempt) == pause

    @pytest.mark.parametrize("cap,effective", [
        (30.0, 30.0), (0.5, 4.0), (4.0, 4.0), (1e9, 100.0)])
    def test_cap_clamped_between_initial_and_max(self, cap, effective):
        manager = ExponentialBackoffManager(
            CostModel(backoff_initial=4.0, backoff_max=100.0), cap=cap)
        assert manager.on_abort(0, 1) == 4.0
        assert manager.on_abort(0, 50) == effective

    def test_jitter_draws_only_from_the_given_rng(self):
        cost = CostModel(backoff_initial=4.0, backoff_max=100.0)
        manager = ExponentialBackoffManager(cost, jitter=0.4,
                                            rng=random.Random(3))
        reference = random.Random(3)
        global_state = random.getstate()
        for attempt in range(1, 8):
            full = min(4.0 * 2.0 ** (attempt - 1), 100.0)
            assert manager.on_abort(0, attempt) == \
                full * (1.0 - 0.4 * reference.random())
        assert manager.rng.getstate() == reference.getstate()
        assert random.getstate() == global_state

    def test_zero_jitter_draws_nothing(self):
        rng = random.Random(3)
        state = rng.getstate()
        manager = ExponentialBackoffManager(
            CostModel(backoff_initial=4.0, backoff_max=100.0), jitter=0.0,
            rng=rng)
        assert [manager.on_abort(0, a) for a in (1, 2, 3)] == [4.0, 8.0, 16.0]
        assert rng.getstate() == state


def test_no_backoff_manager():
    manager = NoBackoffManager()
    assert manager.on_abort(0, 3) == 0.0
    manager.on_commit(0, 1)
    assert manager.current(0) == 0.0
