"""Cluster-wide crash recovery: fleet snapshots, suffix replay,
cache migration on kill, and correlated/cascading failure schedules."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cluster_router import (
    MIGRATION_POLICY_REGISTRY,
    modm_cluster,
)
from repro.core.config import (
    ClusterConfig,
    ClusterRoutingConfig,
    FailureEvent,
    FailurePlan,
    JournalConfig,
    MIGRATION_POLICIES,
    MoDMConfig,
    cascade,
    correlated_group,
)
from repro.core.journal import JournalReplayer
from repro.workloads import DiffusionDBConfig, diffusiondb_trace

_SLOW = settings(
    max_examples=8,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)


def _modm_config(n_workers=8, journal=True):
    return MoDMConfig(
        cluster=ClusterConfig(gpu_name="MI210", n_workers=n_workers),
        cache_capacity=200,
        small_models=("sdxl",),
        journal=(
            JournalConfig(snapshot_period_s=40.0) if journal else None
        ),
    )


def _trace(space, n=100, seed="cluster-recovery"):
    return diffusiondb_trace(
        space,
        DiffusionDBConfig(
            n_requests=n, request_rate_per_min=40.0, seed=seed
        ),
    )


def _payload(system, report):
    comp = system.request_store.column("completion_s")
    return {
        "n_completed": report.n_completed,
        "n_lost": report.n_lost,
        "hit_rate": report.hit_rate,
        "completion_sha": hashlib.sha256(comp.tobytes()).hexdigest(),
        "routed": tuple(report.routed),
        "cluster_journal": system.journal.digest(),
        "replica_journals": tuple(
            r._journal.digest() if r._journal is not None else ""
            for r in system.replicas
        ),
    }


# ----------------------------------------------------------------------
# Failure-schedule helpers (config level)
# ----------------------------------------------------------------------
class TestFailureSchedules:
    def test_correlated_group_same_instant(self):
        events = correlated_group(100.0, (1, 3), action="kill")
        assert [e.replica for e in events] == [1, 3]
        assert all(e.time_s == 100.0 for e in events)
        assert all(e.action == "kill" for e in events)

    def test_cascade_p1_staggers_by_delay(self):
        events = cascade(60.0, (0, 1, 2), delay_s=30.0, p=1.0)
        assert [(e.replica, e.time_s) for e in events] == [
            (0, 60.0),
            (1, 90.0),
            (2, 120.0),
        ]

    def test_cascade_p0_stops_after_the_first(self):
        events = cascade(60.0, (0, 1, 2), delay_s=30.0, p=0.0)
        assert [(e.replica, e.time_s) for e in events] == [(0, 60.0)]

    def test_cascade_is_seed_deterministic(self):
        a = cascade(60.0, (0, 1, 2, 3), delay_s=10.0, p=0.5, seed="x")
        b = cascade(60.0, (0, 1, 2, 3), delay_s=10.0, p=0.5, seed="x")
        assert a == b

    def test_cascade_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="p must be"):
            cascade(0.0, (0, 1), delay_s=1.0, p=1.5)

    def test_fate_group_validation(self):
        with pytest.raises(ValueError, match="at least two"):
            FailurePlan(fate_groups=((1,),))
        with pytest.raises(ValueError, match="duplicate"):
            FailurePlan(fate_groups=((1, 1),))
        with pytest.raises(ValueError, match="n_replicas"):
            ClusterRoutingConfig(
                n_replicas=2,
                failures=FailurePlan(
                    events=(
                        FailureEvent(
                            time_s=1.0, replica=0, action="kill"
                        ),
                    ),
                    fate_groups=((0, 5),),
                ),
            )


# ----------------------------------------------------------------------
# Migration policies (pure functions)
# ----------------------------------------------------------------------
class _StubCache:
    def __init__(self, centroid):
        self._centroid = np.asarray(centroid, dtype=np.float64)

    def centroid(self):
        return self._centroid


class _StubReplica:
    def __init__(self, centroid):
        self.cache = _StubCache(centroid)


def _entry(embedding, entry_id=0):
    return (entry_id, f"payload-{entry_id}", np.asarray(embedding), 0.0)


class TestMigrationPolicies:
    def test_registry_matches_config_names(self):
        assert set(MIGRATION_POLICY_REGISTRY) == set(MIGRATION_POLICIES)

    def test_none_drops_everything(self):
        fn = MIGRATION_POLICY_REGISTRY["none"]
        assert fn([_entry([1.0, 0.0])], [0, 1], []) == []

    def test_round_robin_deals_in_turn(self):
        fn = MIGRATION_POLICY_REGISTRY["round_robin"]
        entries = [_entry([1.0, 0.0], i) for i in range(5)]
        assert fn(entries, [0, 2], []) == [0, 2, 0, 2, 0]

    def test_nearest_centroid_scores_against_survivors(self):
        fn = MIGRATION_POLICY_REGISTRY["nearest_centroid"]
        replicas = [
            _StubReplica([1.0, 0.0]),
            _StubReplica([0.0, 0.0]),  # dead, not a survivor
            _StubReplica([0.0, 1.0]),
        ]
        entries = [
            _entry([0.9, 0.1], 0),  # nearest replica 0
            _entry([0.1, 0.9], 1),  # nearest replica 2
        ]
        assert fn(entries, [0, 2], replicas) == [0, 2]

    def test_nearest_centroid_ties_keep_lowest_survivor(self):
        fn = MIGRATION_POLICY_REGISTRY["nearest_centroid"]
        same = _StubReplica([0.5, 0.5])
        other = _StubReplica([0.5, 0.5])
        assert fn(
            [_entry([1.0, 1.0])], [1, 3], [None, same, None, other]
        ) == [1]

    def test_nearest_centroid_zero_embedding_falls_back(self):
        fn = MIGRATION_POLICY_REGISTRY["nearest_centroid"]
        replicas = [_StubReplica([1.0, 0.0]), _StubReplica([0.0, 1.0])]
        entries = [_entry([0.0, 0.0], i) for i in range(3)]
        # Round-robin by entry position over the survivor list.
        assert fn(entries, [0, 1], replicas) == [0, 1, 0]


# ----------------------------------------------------------------------
# Migration + fate sharing in a live fleet
# ----------------------------------------------------------------------
class TestKillMigration:
    def _run(self, space, trace, migration, fate_groups=()):
        span = trace.requests[-1].arrival_s
        routing = ClusterRoutingConfig(
            n_replicas=4,
            policy="cache_affinity",
            migration_policy=migration,
            failures=FailurePlan(
                events=(
                    FailureEvent(
                        time_s=0.5 * span, replica=1, action="kill"
                    ),
                ),
                recovery_window_s=60.0,
                fate_groups=fate_groups,
            ),
        )
        system = modm_cluster(space, _modm_config(), routing)
        report = system.run(trace)
        return system, report

    def test_survivors_adopt_the_dead_cache(self, space):
        trace = _trace(space)
        system, report = self._run(space, trace, "nearest_centroid")
        record = report.failures[0]
        assert record.n_migrated > 0
        kinds = system.journal.kind_counts()
        assert kinds["migrate"] >= 1
        assert report.n_lost == 0
        # MIGRATE rows conserve the migrated count and never target the
        # dead replica.
        entries = system.journal.entries()
        migrate_rows = [row for row in entries if row[1] == 13]
        assert sum(row[3] for row in migrate_rows) == record.n_migrated
        assert all(row[2] != 1 for row in migrate_rows)
        assert all(row[4] == 1.0 for row in migrate_rows)

    def test_migration_off_is_journal_identical_to_seed_path(
        self, space
    ):
        trace = _trace(space)
        system_none, report_none = self._run(space, trace, "none")
        assert report_none.failures[0].n_migrated == 0
        assert "migrate" not in system_none.journal.kind_counts()

    def test_fate_group_kills_the_whole_rack(self, space):
        trace = _trace(space)
        system, report = self._run(
            space, trace, "nearest_centroid", fate_groups=((1, 2),)
        )
        assert [rec.replica for rec in report.failures] == [1, 2]
        assert system.journal.kind_counts()["kill"] == 2
        assert report.n_lost == 0
        # Migration happens after the whole group halts, so nothing
        # lands on a fate-shared sibling.
        migrate_rows = [
            row for row in system.journal.entries() if row[1] == 13
        ]
        assert migrate_rows
        assert all(row[2] not in (1, 2) for row in migrate_rows)


# ----------------------------------------------------------------------
# Fleet snapshots + suffix replay
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def straight_fleet(space):
    """One journaled, snapshotting, failure-injecting straight run."""
    trace = _trace(space)
    span = trace.requests[-1].arrival_s
    routing = ClusterRoutingConfig(
        n_replicas=2,
        policy="round_robin",
        journal=True,
        snapshot_period_s=30.0,
        migration_policy="round_robin",
        failures=FailurePlan(
            events=(
                FailureEvent(
                    time_s=0.55 * span, replica=1, action="kill"
                ),
                FailureEvent(
                    time_s=0.75 * span, replica=1, action="restart"
                ),
            ),
            recovery_window_s=60.0,
        ),
    )

    def build():
        return modm_cluster(space, _modm_config(), routing)

    system = build()
    report = system.run(trace)
    assert len(system.snapshots) >= 3
    return {
        "build": build,
        "trace": trace,
        "system": system,
        "payload": _payload(system, report),
        "reference": system.journal.entries(),
        "kill_t": 0.55 * span,
    }


class TestClusterSnapshot:
    def test_restore_resume_is_bit_identical(self, straight_fleet):
        snapshots = straight_fleet["system"].snapshots
        snap = snapshots[len(snapshots) // 2]
        resumed = straight_fleet["build"]()
        snap.restore(resumed)
        report = resumed.resume(straight_fleet["trace"])
        assert _payload(resumed, report) == straight_fleet["payload"]

    def test_fingerprint_rejects_config_mismatch(
        self, space, straight_fleet
    ):
        snap = straight_fleet["system"].snapshots[0]
        other = modm_cluster(
            space,
            _modm_config(),
            ClusterRoutingConfig(n_replicas=2, policy="round_robin"),
        )
        with pytest.raises(ValueError, match="configuration mismatch"):
            snap.restore(other)

    def test_snapshot_requires_journal(self, space):
        with pytest.raises(ValueError, match="snapshot_period_s"):
            ClusterRoutingConfig(n_replicas=2, snapshot_period_s=-1.0)
        # snapshot_period_s without journaling never captures: the off
        # path stays off.
        system = modm_cluster(
            space,
            _modm_config(),
            ClusterRoutingConfig(n_replicas=2),
        )
        system.run(_trace(space, n=10, seed="off-path"))
        assert system.journal is None
        assert system.snapshots == []

    def test_journal_flag_without_failures_records_the_run(self, space):
        system = modm_cluster(
            space,
            _modm_config(),
            ClusterRoutingConfig(n_replicas=2, journal=True),
        )
        report = system.run(_trace(space, n=20, seed="journal-only"))
        kinds = system.journal.kind_counts()
        assert kinds["arrival"] > 0
        assert kinds["route"] == kinds["arrival"]
        assert report.n_completed == 20

    @_SLOW
    @given(data=st.data())
    def test_any_snapshot_restores_and_replays_identically(
        self, straight_fleet, data
    ):
        """Satellite property: an arbitrary snapshot tick, restored and
        driven by either the trace timeline or the journal suffix,
        finishes bit-for-bit equal to the straight run — including
        snapshots taken before the kill, where the replayed suffix
        re-executes the failure, migration, and restart."""
        snapshots = straight_fleet["system"].snapshots
        index = data.draw(
            st.integers(min_value=0, max_value=len(snapshots) - 1)
        )
        suffix = data.draw(st.booleans())
        snap = snapshots[index]
        resumed = straight_fleet["build"]()
        if suffix:
            snap.restore(resumed, install_timeline=False)
            replayer = JournalReplayer(
                resumed, straight_fleet["reference"]
            )
            report = replayer.replay(
                trace_name=straight_fleet["trace"].name
            )
            replayer.verify()
        else:
            snap.restore(resumed)
            report = resumed.resume(straight_fleet["trace"])
        assert _payload(resumed, report) == straight_fleet["payload"]

    def test_pre_kill_snapshot_replays_the_failure(
        self, straight_fleet
    ):
        """Explicit mid-replay kill: restore strictly before the kill
        instant and replay from the journal suffix — the kill, cache
        migration, orphan re-route, and restart all re-fire."""
        snapshots = straight_fleet["system"].snapshots
        pre_kill = [
            s for s in snapshots if s.time_s < straight_fleet["kill_t"]
        ]
        assert pre_kill, "no snapshot precedes the kill"
        snap = pre_kill[-1]
        resumed = straight_fleet["build"]()
        snap.restore(resumed, install_timeline=False)
        assert not any(rec.replica == 1 for rec in resumed._failures)
        replayer = JournalReplayer(
            resumed, straight_fleet["reference"]
        )
        report = replayer.replay(
            trace_name=straight_fleet["trace"].name
        )
        replayer.verify()
        assert _payload(resumed, report) == straight_fleet["payload"]
        assert any(rec.n_migrated > 0 for rec in resumed._failures)
