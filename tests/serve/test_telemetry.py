"""FleetTelemetry: phase totals, summary rows, resumed-fleet rendering, obs."""

from __future__ import annotations

import io

from repro.obs import RunTelemetry
from repro.serve import (CampaignRecord, CampaignScheduler, CampaignSpec,
                         CampaignStatus, FleetTelemetry, LedgerEntry)


class FakeStats:
    def __init__(self, step, mean=1.0, best=5.0, retries=0, quarantined=0):
        self.step = step
        self.mean_reward = mean
        self.max_reward = best
        self.retries = retries
        self.quarantined = quarantined


def make_scheduler(directory, builder, **kwargs):
    kwargs.setdefault("sleep", lambda seconds: None)
    return CampaignScheduler(directory, builder=builder, **kwargs)


class TestPhaseTotals:
    def test_totals_sum_across_campaigns(self):
        telemetry = FleetTelemetry()
        tracer = telemetry.obs.tracer
        for name, start, end in (("score", 0.0, 1.0), ("retrain", 1.0, 3.0),
                                 ("score", 3.0, 3.5), ("query", 0.0, 4.0)):
            tracer.add(name, start, end)
        assert telemetry.phase_totals() == {"score": 1.5, "retrain": 2.0}

    def test_repeated_reads_count_each_span_once(self):
        obs = RunTelemetry()
        telemetry = FleetTelemetry(obs=obs)
        obs.tracer.add("merge", 0.0, 0.25)
        assert telemetry.phase_totals() == {"merge": 0.25}
        assert telemetry.phase_totals() == {"merge": 0.25}
        obs.tracer.add("merge", 1.0, 1.25)
        assert telemetry.phase_totals() == {"merge": 0.5}


class FakeAgent:
    """The slice of :class:`~repro.core.agent.PoisonRec` a row reads."""

    def __init__(self, history, best):
        class Result:
            pass
        self.result = Result()
        self.result.history = history
        self.result.best_reward = best
        self.step = len(history)


def table_row(telemetry, records, name):
    line = next(line for line in telemetry.render_table(records)
                .splitlines() if line.startswith(name))
    return line.split()


class TestHydration:
    """A campaign's row reads its own history: the agent's when built,
    the journal ledger's when a prior process finished it."""

    def test_hydrate_seeds_counters_and_best(self, tmp_path):
        record = CampaignRecord(CampaignSpec(name="a", steps=5), tmp_path, 0)
        record.status = CampaignStatus.COMPLETED
        record.restarts = 3
        record.ledger = LedgerEntry(spec={}, status="completed",
                                    steps_done=5, restarts=3,
                                    best_reward=42.0, retries=2,
                                    quarantined=1)
        cells = table_row(FleetTelemetry(), {"a": record}, "a")
        assert cells[1:] == ["completed", "5", "42", "2", "1", "3"]

    def test_hydration_never_shrinks_live_counters(self, tmp_path):
        record = CampaignRecord(CampaignSpec(name="a", steps=8), tmp_path, 0)
        record.ledger = LedgerEntry(spec={}, steps_done=2, best_reward=10.0,
                                    retries=1)
        record.agent = FakeAgent(
            [FakeStats(step, best=50.0, retries=1) for step in range(4)],
            best=50.0)
        cells = table_row(FleetTelemetry(), {"a": record}, "a")
        # The built agent's restored history wins over the stale ledger.
        assert cells[2:6] == ["4", "50", "4", "0"]

    def test_observe_layers_on_top_of_hydration(self, tmp_path,
                                                tiny_builder):
        """Steps a resumed fleet runs add to the prior process's totals:
        the row is the whole checkpointed history, not this run's."""
        fleet_dir = tmp_path / "fleet"
        spec = CampaignSpec(name="a", steps=4, seed=0, chaos_rate=0.3)
        first = make_scheduler(fleet_dir, tiny_builder, slice_steps=1)
        first.submit(spec)
        observe = first.telemetry.observe

        def observe_then_drain(name, stats):
            observe(name, stats)
            first.drain.request("test")

        first.telemetry.observe = observe_then_drain
        assert first.run().drained
        history = first.records["a"].agent.result.history
        assert len(history) == 1

        second = make_scheduler(fleet_dir, tiny_builder, slice_steps=1)
        second.resume()
        result = second.run()
        assert result.all_completed
        agent = result.records["a"].agent
        assert agent.result.history[0] == history[0]
        cells = table_row(second.telemetry, result.records, "a")
        assert cells[2] == "4"
        assert cells[3] == f"{agent.result.best_reward:.0f}"
        assert int(cells[4]) == sum(s.retries for s in agent.result.history)
        assert int(cells[4]) > 0
        # This process streamed only its own three steps.
        assert second.telemetry.metrics.counter(
            "fleet.steps", campaign="a").value == 3


class TestObsMirroring:
    def test_counters_and_events_mirrored(self):
        obs = RunTelemetry()
        telemetry = FleetTelemetry(obs=obs)
        telemetry.observe("a", FakeStats(0, best=7.0, retries=2,
                                         quarantined=1))
        telemetry.note_restart("a")
        telemetry.event("tier change")
        assert obs.metrics.counter("fleet.steps", campaign="a").value == 1
        assert obs.metrics.counter("fleet.restarts", campaign="a").value == 1
        assert obs.metrics.gauge("fleet.best_reward",
                                 campaign="a").value == 7.0
        assert obs.events[0]["message"] == "tier change"
        # Retries and quarantines are the agent's counters
        # (``agent.retries``/``agent.quarantined``), not the fleet's.
        names = {metric["name"] for metric in obs.metrics.snapshot()}
        assert not names & {"fleet.retries", "fleet.quarantined"}

    def test_stream_still_narrates(self):
        stream = io.StringIO()
        telemetry = FleetTelemetry(stream=stream)
        telemetry.observe("a", FakeStats(0))
        telemetry.event("drain")
        text = stream.getvalue()
        assert "[a] step" in text and "== drain" in text


class TestResumedFleetTable:
    def test_resumed_table_shows_journaled_history(self, tmp_path,
                                                   tiny_builder):
        """Regression: resumed fleets rendered ``best=-`` and zeroed
        counters because the fresh FleetTelemetry had streamed nothing."""
        fleet_dir = tmp_path / "fleet"
        first = make_scheduler(fleet_dir, tiny_builder, slice_steps=2)
        first.submit(CampaignSpec(name="done", steps=2, seed=0))
        result = first.run()
        best = result.records["done"].agent.result.best_reward
        assert result.all_completed

        second = make_scheduler(fleet_dir, tiny_builder, slice_steps=2)
        second.resume()
        record = second.records["done"]
        assert record.status is CampaignStatus.COMPLETED
        row = next(line for line
                   in second.telemetry.render_table(second.records)
                   .splitlines() if line.startswith("done"))
        assert f"{best:.0f}" in row
        cells = row.split()
        assert cells[2] == "2"      # steps from the journal
        assert cells[3] != "-"      # best hydrated, not blank

    def test_interleaved_campaign_event_order(self, tmp_path,
                                              tiny_builder):
        """Fair-share with slice_steps=1 alternates campaigns; the obs
        slice spans record that interleaving in order."""
        obs = RunTelemetry()
        scheduler = make_scheduler(tmp_path, tiny_builder, slice_steps=1,
                                   obs=obs)
        scheduler.submit(CampaignSpec(name="a", steps=2, seed=0))
        scheduler.submit(CampaignSpec(name="b", steps=2, seed=1))
        result = scheduler.run()
        assert result.all_completed
        slices = [span.attrs["campaign"] for span in obs.tracer.spans
                  if span.name == "slice"]
        assert slices == ["a", "b", "a", "b"]
        # Every traced step belongs to the campaign whose slice span was
        # open at the time (ordering survives the interleaving).
        spans_by_id = {span.span_id: span for span in obs.tracer.spans}
        steps = [span for span in obs.tracer.spans
                 if span.name == "train_step"]
        assert steps, "agent spans should nest under scheduler slices"
        for span in steps:
            parent = spans_by_id[span.parent_id]
            assert parent.name == "slice"
            assert parent.attrs["campaign"] == span.attrs["campaign"]
