"""PoisonRec agent tests: config validation and end-to-end learning."""

import numpy as np
import pytest

from repro.core import PoisonRec, PoisonRecConfig
from repro.perf import QueryPool


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = PoisonRecConfig()
        assert cfg.num_attackers == 20
        assert cfg.trajectory_length == 20
        assert cfg.embedding_dim == 64
        assert cfg.samples_per_step == 32
        assert cfg.batch_size == 32
        assert cfg.ppo_epochs == 3
        assert cfg.learning_rate == 2e-3
        assert cfg.clip_epsilon == 0.1

    def test_batch_cannot_exceed_samples(self):
        with pytest.raises(ValueError):
            PoisonRecConfig(samples_per_step=4, batch_size=8)

    def test_positive_dimensions_enforced(self):
        with pytest.raises(ValueError):
            PoisonRecConfig(num_attackers=0)
        with pytest.raises(ValueError):
            PoisonRecConfig(trajectory_length=-1)
        with pytest.raises(ValueError):
            PoisonRecConfig(clip_epsilon=1.5)

    def test_ci_preset_overridable(self):
        cfg = PoisonRecConfig.ci(num_attackers=3)
        assert cfg.num_attackers == 3
        assert cfg.embedding_dim == 16


class TestAgent:
    def make_agent(self, env, space="bcbt-popular", **overrides):
        cfg = PoisonRecConfig.ci(num_attackers=6, trajectory_length=10,
                                 samples_per_step=4, batch_size=4,
                                 embedding_dim=8, **overrides)
        return PoisonRec(env, cfg, action_space=space)

    def test_train_step_records_history(self, itempop_env):
        agent = self.make_agent(itempop_env)
        stats = agent.train_step()
        assert stats.step == 0
        assert stats.max_reward >= stats.mean_reward >= 0.0
        assert agent.result.history == [stats]

    def test_train_runs_requested_steps(self, itempop_env):
        agent = self.make_agent(itempop_env)
        result = agent.train(steps=3)
        assert len(result.history) == 3
        assert [s.step for s in result.history] == [0, 1, 2]

    def test_callback_invoked(self, itempop_env):
        agent = self.make_agent(itempop_env)
        seen = []
        agent.train(steps=2, callback=seen.append)
        assert len(seen) == 2

    def test_best_trajectories_tracked(self, itempop_env):
        agent = self.make_agent(itempop_env)
        agent.train(steps=2)
        if agent.result.best_reward > 0:
            assert agent.result.best_trajectories is not None
            assert len(agent.result.best_trajectories) == 6

    def test_trajectories_respect_budget(self, itempop_env):
        agent = self.make_agent(itempop_env)
        rollout = agent.sample_attack()
        trajectories = rollout.trajectories()
        assert len(trajectories) == 6
        assert all(len(t) == 10 for t in trajectories)

    def test_target_click_ratio_in_unit_interval(self, itempop_env):
        agent = self.make_agent(itempop_env)
        ratio = agent.target_click_ratio(num_samples=2)
        assert 0.0 <= ratio <= 1.0

    def test_biased_space_starts_near_half_target_ratio(self, itempop_env):
        agent = self.make_agent(itempop_env)
        ratio = agent.target_click_ratio(num_samples=10)
        assert 0.3 < ratio < 0.7

    def test_string_and_object_action_space(self, itempop_env):
        from repro.core import make_action_space
        space = make_action_space("plain", itempop_env.num_original_items,
                                  itempop_env.target_items,
                                  itempop_env.item_popularity)
        agent = PoisonRec(itempop_env, PoisonRecConfig.ci(num_attackers=6),
                          action_space=space)
        assert agent.action_space is space

    def test_evaluate_returns_mean(self, itempop_env):
        agent = self.make_agent(itempop_env)
        value = agent.evaluate(num_samples=2)
        assert value >= 0.0

    def test_evaluate_dispatches_through_pool(self, itempop_env):
        pool = QueryPool(itempop_env, workers=1)
        batches = []
        dispatch = pool.attack_many

        def spy(trajectory_sets, **kwargs):
            batches.append(len(trajectory_sets))
            return dispatch(trajectory_sets, **kwargs)

        pool.attack_many = spy
        pooled = self.make_agent(itempop_env)
        pooled.query_pool = pool
        value = pooled.evaluate(num_samples=3)
        assert batches == [3]
        # Same seed without a pool: the same sampled attacks, the same
        # rewards.
        assert value == self.make_agent(itempop_env).evaluate(num_samples=3)

    def test_greedy_attack_is_deterministic(self, itempop_env):
        agent = self.make_agent(itempop_env)
        first = agent.greedy_attack().items
        second = agent.greedy_attack().items
        np.testing.assert_array_equal(first, second)

    def test_greedy_attack_valid_items(self, itempop_env):
        agent = self.make_agent(itempop_env)
        items = agent.greedy_attack().items
        assert ((items >= 0) & (items < itempop_env.num_items)).all()


@pytest.mark.slow
class TestLearning:
    def test_reward_improves_on_itempop(self, tiny_dataset):
        """Integration: PoisonRec's observed best reward must exceed the
        initial mean within a few training steps on ItemPop."""
        from repro.recsys import BlackBoxEnvironment, RecommenderSystem
        system = RecommenderSystem(tiny_dataset, "itempop", seed=0,
                                   num_attackers=12)
        env = BlackBoxEnvironment(system)
        cfg = PoisonRecConfig.ci(num_attackers=12, trajectory_length=15,
                                 samples_per_step=6, batch_size=6,
                                 embedding_dim=8, seed=0)
        agent = PoisonRec(env, cfg, action_space="bcbt-popular")
        result = agent.train(steps=8)
        early = np.mean(result.mean_rewards[:2])
        late = max(result.best_reward, np.max(result.mean_rewards[-3:]))
        assert late > early
