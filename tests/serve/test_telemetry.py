"""FleetTelemetry: phase totals, hydration, resumed-fleet rendering, obs."""

from __future__ import annotations

import io

from repro.obs import RunTelemetry
from repro.serve import (CampaignScheduler, CampaignSpec, CampaignStatus,
                         FleetTelemetry)


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


class TestHydration:
    def test_hydrate_seeds_counters_and_best(self):
        telemetry = FleetTelemetry()
        telemetry.hydrate("a", steps=5, best=42.0, retries=2,
                          quarantined=1, restarts=3)
        entry = telemetry.campaigns["a"]
        assert (entry.steps, entry.best_reward, entry.retries,
                entry.quarantined, entry.restarts) == (5, 42.0, 2, 1, 3)
        table = telemetry.render_table()
        assert "42" in table and "-" not in table.splitlines()[-1].split()

    def test_hydration_never_shrinks_live_counters(self):
        telemetry = FleetTelemetry()
        for step in range(4):
            telemetry.observe("a", FakeStats(step, best=50.0, retries=1))
        telemetry.hydrate("a", steps=2, best=10.0, retries=1)
        entry = telemetry.campaigns["a"]
        assert entry.steps == 4  # live observations win when larger
        assert entry.best_reward == 50.0
        assert entry.retries == 4

    def test_observe_layers_on_top_of_hydration(self):
        telemetry = FleetTelemetry()
        telemetry.hydrate("a", steps=5, best=42.0)
        telemetry.observe("a", FakeStats(5, best=30.0))
        entry = telemetry.campaigns["a"]
        assert entry.best_reward == 42.0  # journaled best still wins
        assert entry.steps == 6


class TestObsMirroring:
    def test_counters_and_events_mirrored(self):
        obs = RunTelemetry()
        telemetry = FleetTelemetry(obs=obs)
        telemetry.observe("a", FakeStats(0, best=7.0, retries=2,
                                         quarantined=1))
        telemetry.note_restart("a")
        telemetry.event("tier change")
        assert obs.metrics.counter("fleet.steps", campaign="a").value == 1
        assert obs.metrics.counter("fleet.retries", campaign="a").value == 2
        assert obs.metrics.counter("fleet.restarts", campaign="a").value == 1
        assert obs.metrics.gauge("fleet.best_reward",
                                 campaign="a").value == 7.0
        assert obs.events[0]["message"] == "tier change"

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
