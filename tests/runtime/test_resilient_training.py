"""End-to-end resilient campaign tests: chaos, quarantine, rollback."""

import numpy as np
import pytest

from repro.core import PoisonRec, PoisonRecConfig
from repro.recsys import BlackBoxEnvironment
from repro.runtime import (CampaignDivergenceError, FailureBudgetExhausted,
                           FaultPlan, FaultyEnvironment, ResilienceConfig,
                           RetryPolicy, TransientEnvironmentError,
                           WatchdogConfig)

def make_agent(env, seed=0):
    cfg = PoisonRecConfig.ci(num_attackers=6, trajectory_length=8,
                             samples_per_step=4, batch_size=4,
                             embedding_dim=8, seed=seed)
    return PoisonRec(env, cfg)


class FailFirst:
    """Environment wrapper whose first ``failures`` queries fail."""

    def __init__(self, env, failures):
        self._env = env
        self.failures = failures

    def __getattr__(self, name):
        return getattr(self._env, name)

    def attack(self, trajectories):
        if self.failures > 0:
            self.failures -= 1
            raise TransientEnvironmentError("injected failure")
        return self._env.attack(trajectories)


def chaos_env(system, rate, seed=0):
    system.reset()
    return FaultyEnvironment(BlackBoxEnvironment(system),
                             FaultPlan.mixed(rate, seed=seed))


class TestChaosCampaign:
    def test_campaign_survives_ten_percent_faults(self, itempop_system):
        env = chaos_env(itempop_system, 0.1, seed=3)
        agent = make_agent(env)
        resilience = ResilienceConfig(retry=RetryPolicy(max_attempts=4),
                                      watchdog=None,
                                      sleep=lambda seconds: None)
        result = agent.train(10, resilience=resilience)
        assert len(result.history) == 10
        assert result.best_reward > float("-inf")
        assert sum(env.injected.values()) > 0

    def test_resilience_without_faults_matches_plain_run(self,
                                                         itempop_system):
        itempop_system.reset()
        plain = make_agent(BlackBoxEnvironment(itempop_system))
        plain.train(4)

        itempop_system.reset()
        resilient = make_agent(BlackBoxEnvironment(itempop_system))
        resilient.train(4, resilience=ResilienceConfig(watchdog=None))

        for a, b in zip(plain.result.history, resilient.result.history):
            assert a.mean_reward == b.mean_reward
            assert a.losses == b.losses

    def test_exhausted_retries_quarantine_the_sample(self, itempop_system):
        env = chaos_env(itempop_system, 0.0)
        env.plan = FaultPlan(transient_rate=0.4, seed=7)
        agent = make_agent(env)
        resilience = ResilienceConfig(retry=RetryPolicy(max_attempts=1),
                                      watchdog=None,
                                      sleep=lambda seconds: None)
        result = agent.train(6, resilience=resilience)
        assert len(result.history) == 6
        quarantined = sum(s.quarantined for s in result.history)
        assert quarantined > 0

    def test_failure_budget_stops_hopeless_campaign(self, itempop_system):
        env = chaos_env(itempop_system, 0.0)
        env.plan = FaultPlan(transient_rate=1.0)
        agent = make_agent(env)
        resilience = ResilienceConfig(retry=RetryPolicy(max_attempts=2),
                                      failure_budget=3, watchdog=None,
                                      sleep=lambda seconds: None)
        with pytest.raises(FailureBudgetExhausted):
            agent.train(10, resilience=resilience)

    def test_failure_budget_spans_resume(self, itempop_system, tmp_path):
        """A resumed campaign whose history holds k quarantines raises
        after ``failure_budget - k`` more, not ``failure_budget``."""
        checkpoint = tmp_path / "campaign.npz"
        itempop_system.reset()
        env = FailFirst(BlackBoxEnvironment(itempop_system), failures=3)
        first = make_agent(env)
        first.train(1, resilience=ResilienceConfig(
            retry=RetryPolicy(max_attempts=1), failure_budget=64,
            checkpoint_path=checkpoint, watchdog=None,
            sleep=lambda seconds: None))
        assert sum(s.quarantined for s in first.result.history) == 3

        def resume(failures):
            itempop_system.reset()
            env = FailFirst(BlackBoxEnvironment(itempop_system), failures)
            resilience = ResilienceConfig(
                retry=RetryPolicy(max_attempts=1), failure_budget=5,
                watchdog=None, sleep=lambda seconds: None)
            return make_agent(env).train(1, resume_from=checkpoint,
                                         resilience=resilience)

        resume(failures=2)  # 3 + 2 = 5: the budget is spent, not exceeded
        with pytest.raises(FailureBudgetExhausted):
            resume(failures=3)

    def test_step_stats_carry_retry_telemetry(self, itempop_system):
        env = chaos_env(itempop_system, 0.3, seed=1)
        agent = make_agent(env)
        resilience = ResilienceConfig(retry=RetryPolicy(max_attempts=5),
                                      watchdog=None,
                                      sleep=lambda seconds: None)
        result = agent.train(6, resilience=resilience)
        assert sum(s.retries for s in result.history) > 0
        assert all(s.rollbacks == 0 for s in result.history)


class TestDivergenceRollback:
    def test_nan_loss_triggers_rollback_to_checkpoint(self, itempop_system,
                                                      tmp_path):
        itempop_system.reset()
        agent = make_agent(BlackBoxEnvironment(itempop_system))
        resilience = ResilienceConfig(
            checkpoint_path=tmp_path / "campaign.npz", checkpoint_every=1,
            watchdog=WatchdogConfig(), lr_backoff=0.5,
            sleep=lambda seconds: None)

        real_update = agent.trainer.update
        poisoned = {"armed": False, "fired": False}

        def update(experiences, **kwargs):
            if poisoned["armed"] and not poisoned["fired"]:
                poisoned["fired"] = True
                return [float("nan")]
            return real_update(experiences, **kwargs)

        agent.trainer.update = update
        agent.train(2, resilience=resilience)
        poisoned["armed"] = True
        original_lr = agent.trainer.optimizer.lr
        result = agent.train(4, resilience=resilience)

        assert poisoned["fired"]
        assert agent.step == 6
        # The poisoned step was rolled back: every surviving entry is finite.
        assert all(np.isfinite(loss) for s in result.history
                   for loss in s.losses)
        assert result.history[-1].rollbacks == 1
        assert agent.trainer.optimizer.lr == pytest.approx(0.5 * original_lr)

    def test_rollback_without_checkpoint_decays_lr_only(self,
                                                        itempop_system):
        itempop_system.reset()
        agent = make_agent(BlackBoxEnvironment(itempop_system))
        resilience = ResilienceConfig(watchdog=WatchdogConfig(),
                                      lr_backoff=0.25,
                                      sleep=lambda seconds: None)
        real_update = agent.trainer.update
        fired = {"done": False}

        def update(experiences, **kwargs):
            if not fired["done"]:
                fired["done"] = True
                return [float("inf")]
            return real_update(experiences, **kwargs)

        agent.trainer.update = update
        original_lr = agent.trainer.optimizer.lr
        agent.train(3, resilience=resilience)
        assert agent.trainer.optimizer.lr == pytest.approx(
            0.25 * original_lr)

    def test_persistent_divergence_raises_after_allowance(self,
                                                          itempop_system):
        itempop_system.reset()
        agent = make_agent(BlackBoxEnvironment(itempop_system))
        resilience = ResilienceConfig(watchdog=WatchdogConfig(),
                                      max_rollbacks=2,
                                      sleep=lambda seconds: None)
        agent.trainer.update = lambda *args, **kwargs: [float("nan")]
        with pytest.raises(CampaignDivergenceError):
            agent.train(10, resilience=resilience)

    def test_anomaly_mode_catches_corrupted_updates(self, itempop_system):
        itempop_system.reset()
        agent = make_agent(BlackBoxEnvironment(itempop_system))
        resilience = ResilienceConfig(watchdog=None, anomaly_mode=True,
                                      sleep=lambda seconds: None)
        result = agent.train(2, resilience=resilience)
        assert len(result.history) == 2
