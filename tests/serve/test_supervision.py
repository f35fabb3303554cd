"""Supervision primitives: classification, budgets, backoff, drains."""

from __future__ import annotations

import pytest

from repro.runtime.errors import (CampaignDivergenceError,
                                  CorruptCheckpointError,
                                  FailureBudgetExhausted,
                                  RetriesExhaustedError,
                                  TransientEnvironmentError)
from repro.serve import (CampaignRecord, CampaignScheduler, CampaignSpec,
                         CampaignStatus, CampaignSupervisor,
                         DegradationController, DrainController,
                         RestartPolicy)


class TestRestartPolicy:
    def test_exponential_backoff(self):
        policy = RestartPolicy(base_delay=0.5, multiplier=2.0, max_delay=3.0)
        assert policy.delay(1) == 0.5
        assert policy.delay(2) == 1.0
        assert policy.delay(3) == 2.0
        assert policy.delay(4) == 3.0  # capped

    def test_validation(self):
        with pytest.raises(ValueError):
            RestartPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RestartPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RestartPolicy().delay(0)


class TestClassification:
    def make_record(self, tmp_path, max_restarts=2):
        return CampaignRecord(
            CampaignSpec(name="a", steps=4, max_restarts=max_restarts),
            tmp_path, 0)

    def test_transient_errors_restart(self, tmp_path):
        supervisor = CampaignSupervisor()
        record = self.make_record(tmp_path)
        assert supervisor.classify(
            record, TransientEnvironmentError("blip")) == "restart"
        assert supervisor.classify(
            record, RetriesExhaustedError("gone", attempts=4)) == "restart"

    def test_restart_allowance_is_finite(self, tmp_path):
        supervisor = CampaignSupervisor()
        record = self.make_record(tmp_path, max_restarts=1)
        record.restarts = 1
        assert supervisor.classify(
            record, TransientEnvironmentError("blip")) == "fail"

    @pytest.mark.parametrize("error", [
        FailureBudgetExhausted("spent"),
        CampaignDivergenceError("diverged"),
        CorruptCheckpointError("bad archive"),
        RuntimeError("unclassified"),
    ])
    def test_fatal_and_unknown_errors_fail(self, tmp_path, error):
        supervisor = CampaignSupervisor()
        assert supervisor.classify(self.make_record(tmp_path),
                                   error) == "fail"


class FailEveryOther:
    """Environment wrapper failing every second query transiently."""

    def __init__(self, env):
        self._env = env
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._env, name)

    def attack(self, trajectories):
        self.calls += 1
        if self.calls % 2 == 0:
            raise TransientEnvironmentError("every other query fails")
        return self._env.attack(trajectories)


class TestQuarantineBudget:
    def test_budget_spans_slices(self, tmp_path, tiny_builder):
        """One budget over the campaign's lifetime: the agent seeds each
        slice's budget with the quarantines already in its history, so
        two slices under the limit on their own still exhaust it."""
        def builder(spec):
            env, config, steps = tiny_builder(spec)
            return FailEveryOther(env), config, steps

        scheduler = CampaignScheduler(tmp_path, builder=builder,
                                      slice_steps=1,
                                      sleep=lambda seconds: None)
        # Four queries per step, every other one quarantined (no
        # retries): two lost samples per slice against a budget of 3.
        scheduler.submit(CampaignSpec(name="a", steps=4, max_retries=0,
                                      failure_budget=3))
        result = scheduler.run()
        record = result.records["a"]
        assert record.status is CampaignStatus.FAILED
        assert "failure budget of 3" in record.last_error
        # The second slice's second quarantine (the 4th overall) is the
        # one over budget: it fails the campaign mid-slice.
        assert record.steps_done == 1
        assert [s.quarantined for s in record.agent.result.history] == [2]


class TestDrainController:
    def test_request_is_sticky_and_keeps_first_reason(self):
        drain = DrainController()
        assert not drain.requested
        drain.request("sigterm")
        drain.request("sigint")
        assert drain.requested
        assert drain.reason == "sigterm"

    def test_install_and_uninstall_roundtrip(self):
        import signal
        drain = DrainController()
        previous = signal.getsignal(signal.SIGTERM)
        drain.install(signals=(signal.SIGTERM,))
        assert signal.getsignal(signal.SIGTERM) is not previous
        drain.uninstall()
        assert signal.getsignal(signal.SIGTERM) is previous


class TestDegradation:
    class FakePool:
        def __init__(self, crashes=0, broken=False):
            self.crashes = crashes
            self.broken = broken

    def test_starts_serial_for_one_worker(self):
        assert DegradationController(1).tier == "serial"
        assert DegradationController(4).tier == "pooled"

    def test_crash_storm_halves_workers(self):
        controller = DegradationController(8, crash_storm=4)
        assert controller.assess(self.FakePool(crashes=3)) is None
        assert controller.assess(self.FakePool(crashes=7)) == "reduced"
        assert controller.workers == 4

    def test_crash_watermark_survives_a_downgrade(self):
        controller = DegradationController(8, crash_storm=4)
        assert controller.assess(self.FakePool(crashes=4)) == "reduced"
        # The rebuilt pool reads the run's cumulative counter: the four
        # deaths already assessed do not count again.
        assert controller.assess(self.FakePool(crashes=5)) is None
        assert controller.workers == 4

    def test_broken_pool_downgrades(self):
        controller = DegradationController(4)
        assert controller.assess(self.FakePool(broken=True)) == "reduced"
        assert controller.workers == 2

    def test_reduction_bottoms_out_at_serial(self):
        controller = DegradationController(2, crash_storm=1)
        assert controller.assess(self.FakePool(crashes=1)) == "serial"
        assert controller.workers == 1
        assert controller.serial
        # Serial is terminal: even a broken one-worker pool is not
        # assessed further.
        assert controller.assess(self.FakePool(crashes=9,
                                               broken=True)) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            DegradationController(4, min_workers=1)
        with pytest.raises(ValueError):
            DegradationController(4, crash_storm=0)
