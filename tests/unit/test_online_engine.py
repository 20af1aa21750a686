"""Tests for the online episode loop and the campaign runner."""

import pytest

from repro.api.requests import DemandSpec, DisruptionSpec, TopologySpec
from repro.api.results import OnlineResult
from repro.online import (
    REGRET_TOLERANCE,
    CrewSpec,
    EventSpec,
    FogSpec,
    OnlineScenarioSpec,
    Timeline,
    episode_seeds,
    run_campaign,
    run_episode,
)


def make_spec(**changes) -> OnlineScenarioSpec:
    defaults = dict(
        topology=TopologySpec("grid", kwargs={"rows": 3, "cols": 3}),
        disruption=DisruptionSpec("gaussian", kwargs={"variance": 2.0, "intensity": 0.9}),
        demand=DemandSpec("routable-far-apart", num_pairs=2, flow_per_pair=2.0),
        seed=7,
        epochs=3,
        epoch_hours=12.0,
        crews=CrewSpec(count=2),
        opt_time_limit=15.0,
    )
    defaults.update(changes)
    return OnlineScenarioSpec(**defaults)


class TestTimeline:
    def test_epochs_and_hours(self):
        timeline = Timeline(epochs=3, epoch_hours=8.0)
        assert len(timeline) == 3
        epochs = list(timeline)
        assert [epoch.index for epoch in epochs] == [0, 1, 2]
        assert [epoch.start_hour for epoch in epochs] == [0.0, 8.0, 16.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            Timeline(epochs=0, epoch_hours=8.0)
        with pytest.raises(ValueError):
            Timeline(epochs=1, epoch_hours=0.0)


class TestRunEpisode:
    def test_trace_shape_and_envelope_round_trip(self):
        result = run_episode(make_spec(), verify=True)
        assert len(result.epochs) == 3
        assert result.violations == []
        assert result.ok
        rebuilt = OnlineResult.from_dict(result.to_dict())
        assert rebuilt.fingerprint() == result.fingerprint()

    def test_same_seed_same_fingerprint(self):
        spec = make_spec(
            fog=FogSpec(hidden_fraction=0.3, reveal_per_epoch=1),
            events=(
                EventSpec(kind="aftershock", kwargs={"variance": 2.0}, at_epochs=(1,)),
                EventSpec(kind="cascade", probability=0.5),
            ),
        )
        assert run_episode(spec, verify=True).fingerprint() == run_episode(
            spec, verify=True
        ).fingerprint()

    def test_different_seeds_diverge(self):
        assert run_episode(make_spec(seed=1)).fingerprint() != run_episode(
            make_spec(seed=2)
        ).fingerprint()

    def test_regret_non_negative_against_proven_baseline(self):
        result = run_episode(make_spec(), verify=True)
        if result.regret["baseline_proven"]:
            assert result.regret["regret"] >= -REGRET_TOLERANCE

    def test_no_damage_episode_skips_solving(self):
        result = run_episode(make_spec(disruption=DisruptionSpec("none")), verify=True)
        assert result.final["executed_cost"] == 0.0
        assert result.final["satisfied_pct"] == pytest.approx(100.0)
        assert result.regret["regret"] == pytest.approx(0.0)
        assert all(record["solver"] == {} for record in result.epochs)

    def test_zero_fog_no_events_matches_clairvoyant_satisfaction(self):
        # With full knowledge and a static world, enough epochs let the
        # online runner execute its whole plan: satisfaction must match the
        # clairvoyant baseline and regret reduces to the cost gap.
        result = run_episode(make_spec(epochs=5, epoch_hours=40.0), verify=True)
        assert result.final["satisfied_pct"] == pytest.approx(
            result.baseline["satisfied_pct"]
        )
        assert result.regret["cost_regret"] is not None
        assert result.regret["cost_regret"] >= -REGRET_TOLERANCE

    def test_fog_only_delays_never_corrupts(self):
        # Full fog at epoch 0: the planner sees no damage, plans nothing,
        # and the belief subset invariant keeps every executed repair legal.
        result = run_episode(
            make_spec(fog=FogSpec(hidden_fraction=1.0, reveal_per_epoch=3), epochs=4),
            verify=True,
        )
        assert result.epochs[0]["believed_broken"] == 0
        assert result.epochs[0]["executed_repairs"] == 0
        assert result.violations == []

    def test_a_violation_in_a_planned_epoch_is_labelled_and_json_safe(self, monkeypatch):
        # Epoch 0 plans inside its `online.plan` span; the violation found
        # there must still name its epoch, not the span.
        import json

        import repro.online.engine as engine
        from repro.verification import Violation

        monkeypatch.setattr(
            engine,
            "check_plan_invariants",
            lambda *args, **kwargs: [Violation("planted", "ISP", "test violation")],
        )
        result = run_episode(make_spec(epochs=1), verify=True)
        assert result.epochs[0]["believed_broken"] > 0
        assert result.violations[0]["scope"] == "epoch-0"
        json.dumps(result.to_dict())
        result.fingerprint()


class TestRunCampaign:
    def test_episode_seeds_are_stable_under_extension(self):
        spec = make_spec()
        assert episode_seeds(spec, 2) == episode_seeds(spec, 4)[:2]
        with pytest.raises(ValueError):
            episode_seeds(spec, 0)

    def test_serial_and_parallel_agree(self):
        spec = make_spec(epochs=2)
        serial = run_campaign(spec, episodes=2, jobs=1)
        parallel = run_campaign(spec, episodes=2, jobs=2)
        assert [episode.fingerprint() for episode in serial.episodes] == [
            episode.fingerprint() for episode in parallel.episodes
        ]

    def test_cache_resumes_without_recompute(self, tmp_path):
        spec = make_spec(epochs=2)
        first = run_campaign(spec, episodes=2, cache_dir=tmp_path)
        second = run_campaign(spec, episodes=3, cache_dir=tmp_path)
        assert first.cached_episodes == 0
        assert second.cached_episodes == 2
        assert [episode.fingerprint() for episode in second.episodes[:2]] == [
            episode.fingerprint() for episode in first.episodes
        ]

    @staticmethod
    def record_episodes(monkeypatch, events, failing_seed=None):
        """Log every episode run into ``events``; the one with ``failing_seed`` raises."""
        import repro.online.engine as engine

        def recording(spec, episode_seed=None, verify=False):
            events.append(("run", episode_seed))
            if episode_seed == failing_seed:
                raise RuntimeError("episode failed")
            return run_episode(spec, episode_seed=episode_seed, verify=verify)

        monkeypatch.setattr(engine, "run_episode", recording)

    def test_a_failed_campaign_keeps_its_finished_episodes(self, tmp_path, monkeypatch):
        spec = make_spec(epochs=1)
        seeds = episode_seeds(spec, 3)
        events = []
        self.record_episodes(monkeypatch, events, failing_seed=seeds[2])
        with pytest.raises(RuntimeError, match="episode failed"):
            run_campaign(spec, episodes=3, cache_dir=tmp_path)
        # The two episodes that finished before the failure are on disk ...
        assert len(list(tmp_path.glob("*.json"))) == 2

        # ... so the rerun serves them and computes only the third.
        events.clear()
        self.record_episodes(monkeypatch, events)
        resumed = run_campaign(spec, episodes=3, cache_dir=tmp_path)
        assert resumed.cached_episodes == 2
        assert events == [("run", seeds[2])]
        assert len(list(tmp_path.glob("*.json"))) == 3
        assert [episode.episode_seed for episode in resumed.episodes] == seeds

    def test_progress_fires_as_each_episode_finishes(self, monkeypatch):
        spec = make_spec(epochs=1)
        seeds = episode_seeds(spec, 3)
        events = []
        self.record_episodes(monkeypatch, events)
        run_campaign(
            spec, episodes=3, progress=lambda done, total: events.append(("done", done, total))
        )
        assert events == [
            ("run", seeds[0]),
            ("done", 1, 3),
            ("run", seeds[1]),
            ("done", 2, 3),
            ("run", seeds[2]),
            ("done", 3, 3),
        ]

    def test_campaign_envelope_and_rows(self):
        campaign = run_campaign(make_spec(epochs=2), episodes=2, verify=True)
        payload = campaign.to_dict()
        assert payload["kind"] == "online-campaign"
        assert payload["summary"]["episodes"] == 2
        assert len(campaign.rows()) == 2
        assert campaign.ok
