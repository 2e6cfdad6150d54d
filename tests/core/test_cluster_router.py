"""Cluster router, autoscaler, and multi-replica serving edge cases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.stats import StatsCollector
from repro.core.cluster_router import (
    CacheAffinityRouting,
    LeastLoadedRouting,
    ReplicaAutoscaler,
    ROUTING_POLICY_REGISTRY,
    RoundRobinRouting,
    TransferEvent,
    modm_cluster,
    split_evenly,
)
from repro.core.config import (
    ClusterConfig,
    ClusterRoutingConfig,
    MoDMConfig,
    ROUTING_POLICIES,
)
from repro.core.serving import MoDMSystem
from repro.workloads import DiffusionDBConfig, diffusiondb_trace


def _modm_config(n_workers=4, cache_capacity=200):
    return MoDMConfig(
        cluster=ClusterConfig(gpu_name="MI210", n_workers=n_workers),
        cache_capacity=cache_capacity,
        small_models=("sdxl",),
    )


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestRoutingConfig:
    def test_zero_replicas_rejected(self):
        with pytest.raises(ValueError, match="n_replicas"):
            ClusterRoutingConfig(n_replicas=0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="routing policy"):
            ClusterRoutingConfig(policy="hash-ring")

    def test_registry_matches_config_names(self):
        assert set(ROUTING_POLICY_REGISTRY) == set(ROUTING_POLICIES)

    def test_more_replicas_than_workers_rejected(self, space):
        with pytest.raises(ValueError, match="workers"):
            modm_cluster(
                space,
                _modm_config(n_workers=2),
                ClusterRoutingConfig(n_replicas=3),
            )

    def test_split_evenly_conserves_and_orders(self):
        assert split_evenly(10, 4) == [3, 3, 2, 2]
        assert split_evenly(4, 4) == [1, 1, 1, 1]
        assert sum(split_evenly(17, 5)) == 17


# ----------------------------------------------------------------------
# Policy unit behavior
# ----------------------------------------------------------------------
class TestPolicies:
    def test_round_robin_cycles(self):
        policy = RoundRobinRouting()
        picks = [policy.route(None, [0, 0, 0], [None] * 3) for _ in range(7)]
        assert picks == [0, 1, 2, 0, 1, 2, 0]
        policy.reset()
        assert policy.route(None, [0, 0, 0], [None] * 3) == 0

    def test_least_loaded_ties_break_low_index(self):
        policy = LeastLoadedRouting()
        assert policy.route(None, [3, 1, 1], [None] * 3) == 1
        assert policy.route(None, [2, 2, 2], [None] * 3) == 0

    def test_affinity_picks_nearest_centroid(self):
        policy = CacheAffinityRouting()
        query = np.array([1.0, 0.0])
        centroids = [np.array([0.0, 1.0]), np.array([1.0, 0.1])]
        assert policy.route(query, [0, 0], centroids) == 1

    def test_affinity_equidistant_ties_break_low_index(self):
        policy = CacheAffinityRouting()
        query = np.array([1.0, 1.0])
        same = np.array([0.5, 0.5])
        # Bit-identical centroids at equal load: the lower index wins,
        # every time.
        picks = {
            policy.route(query, [0, 0], [same, same.copy()])
            for _ in range(5)
        }
        assert picks == {0}

    def test_affinity_spills_over_imbalance_cap(self):
        policy = CacheAffinityRouting()
        query = np.array([1.0, 0.0])
        centroids = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        # Nearest replica 0 is fine while within cap...
        assert policy.route(query, [8, 0], centroids) == 0
        # ...but spills to least-loaded once past cap * min + slack.
        assert policy.route(query, [9, 0], centroids) == 1
        # The cap scales with the least-loaded replica's load.
        assert policy.route(query, [12, 2], centroids) == 0
        assert policy.route(query, [13, 2], centroids) == 1

    def test_affinity_without_centroids_falls_back_least_loaded(self):
        policy = CacheAffinityRouting()
        assert policy.route(
            np.array([1.0, 0.0]), [5, 2], [None, None]
        ) == 1
        # Zero query embedding degrades the same way.
        assert policy.route(
            np.zeros(2), [5, 2], [np.ones(2), np.ones(2)]
        ) == 1


class TestRouterBatching:
    def test_least_loaded_spreads_same_tick_burst(self, space):
        system = modm_cluster(
            space,
            _modm_config(),
            ClusterRoutingConfig(n_replicas=4, policy="least_loaded"),
        )
        trace = diffusiondb_trace(
            space, DiffusionDBConfig(n_requests=8, seed="burst")
        )
        records = []
        for request in trace:
            from repro.core.request import RequestRecord

            records.append(
                RequestRecord(
                    request_id=request.request_id,
                    prompt=request.prompt,
                    arrival_s=0.0,
                )
            )
        indices = system.router.route_batch(records, system.replicas)
        # In-batch load accounting spreads the burst evenly instead of
        # dog-piling replica 0.
        assert sorted(indices.count(i) for i in range(4)) == [2, 2, 2, 2]


# ----------------------------------------------------------------------
# Autoscaler
# ----------------------------------------------------------------------
class TestReplicaAutoscaler:
    def _autoscaler(self, counts=(4, 4)):
        return ReplicaAutoscaler(list(counts))

    def test_min_workers_floor_exceeding_fleet_rejected(self):
        with pytest.raises(ValueError, match="MIN_WORKERS_PER_REPLICA"):
            ReplicaAutoscaler([1, 1, 0])

    def test_targets_conserve_fleet_and_respect_floor(self):
        scaler = self._autoscaler((4, 4))
        for demands in ([10.0, 0.0], [0.0, 10.0], [1.0, 1.0]):
            targets = scaler.targets(demands)
            assert sum(targets) == 8
            assert all(t >= 1 for t in targets)

    def test_zero_demand_holds_split(self):
        scaler = self._autoscaler((6, 2))
        assert scaler.targets([0.0, 0.0]) == [6, 2]

    def test_step_load_change_converges_without_oscillation(self):
        """PID anti-thrash: a step to a 3:1 demand ratio must converge
        monotonically to the 6:2 split and then stay there."""
        scaler = self._autoscaler((4, 4))
        history = [
            scaler.targets([3.0, 1.0]) for _ in range(25)
        ]
        firsts = [t[0] for t in history]
        # Converged to the demand-proportional split...
        assert history[-1] == [6, 2]
        # ...approaching monotonically (never overshooting then backing
        # off — that would be a thrashing worker transfer).
        assert all(b >= a for a, b in zip(firsts, firsts[1:]))
        assert max(firsts) == 6
        # Once reached, the target never leaves.
        reached = firsts.index(6)
        assert all(f == 6 for f in firsts[reached:])

    def test_damping_spreads_step_over_periods(self):
        """The first period after a step moves only part of the way."""
        scaler = self._autoscaler((4, 4))
        first = scaler.targets([3.0, 1.0])
        assert 4 <= first[0] < 6

    def test_demand_tie_integerization_prefers_low_index(self):
        scaler = self._autoscaler((3, 3, 3))
        for _ in range(40):
            targets = scaler.targets([1.0, 1.0, 1.0])
        assert targets == [3, 3, 3]
        # An odd fleet puts the spare worker on the lowest index.
        odd = self._autoscaler((3, 2, 2))
        for _ in range(40):
            targets = odd.targets([1.0, 1.0, 1.0])
        assert targets == [3, 2, 2]


# ----------------------------------------------------------------------
# Cluster serving integration
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def cluster_trace(space):
    return diffusiondb_trace(
        space, DiffusionDBConfig(n_requests=160, seed="cluster-edge")
    )


class TestClusterServing:
    def _run(self, space, trace, routing, n_workers=4):
        system = modm_cluster(
            space, _modm_config(n_workers=n_workers), routing
        )
        system.warm_cache([r.prompt for r in trace.requests[:40]])
        return system, system.run(trace.slice(40).rebase())

    @pytest.mark.parametrize("policy", sorted(ROUTING_POLICIES))
    def test_every_request_reaches_one_replica(
        self, space, cluster_trace, policy
    ):
        system, report = self._run(
            space,
            cluster_trace,
            ClusterRoutingConfig(n_replicas=2, policy=policy),
        )
        assert report.n_completed == len(report.fleet.records)
        assert sum(report.routed) == len(report.fleet.records)
        assert all(
            r.replica_id in (0, 1) for r in report.fleet.records
        )
        # Per-replica reports partition the fleet.
        assert sum(
            len(r.completed()) for r in report.replicas
        ) == report.n_completed

    def test_fleet_hit_rate_merges_replica_stats(
        self, space, cluster_trace
    ):
        _, report = self._run(
            space,
            cluster_trace,
            ClusterRoutingConfig(n_replicas=2, policy="round_robin"),
        )
        merged = StatsCollector.merged(
            [r.stats for r in report.replicas]
        )
        assert report.fleet.hit_rate == merged.overall_hit_rate

    def test_worker_ids_fleet_unique(self, space, cluster_trace):
        system, report = self._run(
            space,
            cluster_trace,
            ClusterRoutingConfig(n_replicas=2, policy="least_loaded"),
        )
        ids = [w.worker_id for w in report.fleet.workers]
        assert len(ids) == len(set(ids)) == 4

    def test_autoscaler_transfers_are_recorded_and_conserving(
        self, space, cluster_trace
    ):
        system, report = self._run(
            space,
            cluster_trace,
            ClusterRoutingConfig(
                n_replicas=2,
                policy="least_loaded",
                autoscale=True,
            ),
        )
        total = sum(len(r.workers) for r in system.replicas)
        assert total == 4
        assert report.transfers
        assert all(
            isinstance(t, TransferEvent) for t in report.transfers
        )
        assert all(
            len(r.workers) >= 1 for r in system.replicas
        )

    def test_single_replica_autoscale_is_noop(self, space):
        system = modm_cluster(
            space,
            _modm_config(),
            ClusterRoutingConfig(n_replicas=1, autoscale=True),
        )
        assert system._autoscaler is None


class TestWorkerTransferMechanics:
    def test_release_busy_worker_rejected(self, space):
        system = MoDMSystem(space, _modm_config())
        system._reset_runtime()
        worker_id = system.workers[0].worker_id
        system._idle_workers.discard(worker_id)  # simulate busy
        with pytest.raises(ValueError, match="not idle"):
            system.release_worker(worker_id)

    def test_release_then_adopt_moves_capacity(self, space):
        donor = MoDMSystem(space, _modm_config())
        recipient = MoDMSystem(space, _modm_config())
        donor._reset_runtime()
        recipient._reset_runtime()
        for worker in recipient.workers:
            worker.worker_id += 10
        recipient._workers_by_id = {
            w.worker_id: w for w in recipient.workers
        }
        recipient._idle_workers = set(recipient._workers_by_id)
        moved = donor.release_worker(3)
        assert len(donor.workers) == 3
        assert 3 not in donor._idle_workers
        recipient.adopt_worker(moved, now=0.0)
        assert len(recipient.workers) == 5
        assert 3 in recipient._idle_workers
        # The monitor followed the pool resize on both sides.
        assert donor.monitor.n_workers == 3
        assert recipient.monitor.n_workers == 5
        with pytest.raises(ValueError, match="already present"):
            recipient.adopt_worker(moved, now=0.0)


# ----------------------------------------------------------------------
# Failure injection (deterministic kill/restart)
# ----------------------------------------------------------------------
class TestFailureInjection:
    @staticmethod
    def _run_with_failures(space, trace, events, journal=None):
        from repro.core.config import FailurePlan, JournalConfig

        if journal is None:
            journal = JournalConfig(snapshot_period_s=30.0)
        config = MoDMConfig(
            cluster=ClusterConfig(gpu_name="MI210", n_workers=4),
            cache_capacity=200,
            small_models=("sdxl",),
            journal=journal,
        )
        system = modm_cluster(
            space,
            config,
            ClusterRoutingConfig(
                n_replicas=2,
                policy="cache_affinity",
                failures=FailurePlan(
                    events=events, recovery_window_s=60.0
                ),
            ),
        )
        report = system.run(trace)
        return system, report

    def test_kill_and_restart_conserves_requests(
        self, space, cluster_trace
    ):
        from repro.core.config import FailureEvent

        span = cluster_trace.requests[-1].arrival_s
        kill_t, restart_t = 0.4 * span, 0.7 * span
        system, report = self._run_with_failures(
            space,
            cluster_trace,
            (
                FailureEvent(time_s=kill_t, replica=1, action="kill"),
                FailureEvent(
                    time_s=restart_t, replica=1, action="restart"
                ),
            ),
        )
        assert report.n_lost == 0
        # Terminal exactly once: the completion counter agrees with the
        # number of rows carrying a completion time, and nothing is both
        # shed and completed.
        comp = system.request_store.column("completion_s")
        shed = system.request_store.column("shed")
        completed_rows = int(np.count_nonzero(comp == comp))
        assert report.fleet.n_completed == completed_rows
        assert not np.any(shed & (comp == comp))
        assert completed_rows + int(np.count_nonzero(shed)) == len(
            cluster_trace
        )
        # The failure record tells the whole story.
        assert len(report.failures) == 1
        record = report.failures[0]
        assert record.replica == 1
        assert record.time_s == kill_t
        assert record.restart_time_s == restart_t
        assert report.n_rerouted == record.n_rerouted
        assert not system.replicas[1]._dead

    def test_kill_without_restart_stays_dead(
        self, space, cluster_trace
    ):
        from repro.core.config import FailureEvent

        span = cluster_trace.requests[-1].arrival_s
        kill_t = 0.4 * span
        system, report = self._run_with_failures(
            space,
            cluster_trace,
            (FailureEvent(time_s=kill_t, replica=0, action="kill"),),
        )
        assert system.replicas[0]._dead
        assert report.n_lost == 0
        assert report.failures[0].restart_time_s is None
        # Nothing completes on a dead replica after the kill.
        comp = system.request_store.column("completion_s")
        replica_col = system.request_store.column("replica_id")
        on_dead = (replica_col == 0) & (comp == comp)
        assert not np.any(comp[on_dead] > kill_t)

    def test_warm_restore_beats_cold_rejoin(self, space, cluster_trace):
        from repro.core.config import FailureEvent

        span = cluster_trace.requests[-1].arrival_s
        kill_t, restart_t = 0.4 * span, 0.55 * span

        def events(warm):
            return (
                FailureEvent(time_s=kill_t, replica=1, action="kill"),
                FailureEvent(
                    time_s=restart_t,
                    replica=1,
                    action="restart",
                    warm=warm,
                ),
            )

        _, warm_report = self._run_with_failures(
            space, cluster_trace, events(True)
        )
        cold_system, cold_report = self._run_with_failures(
            space, cluster_trace, events(False)
        )
        warm_rec = warm_report.failures[0]
        cold_rec = cold_report.failures[0]
        # Identical until the restart fires...
        assert warm_rec.hit_rate_before == cold_rec.hit_rate_before
        assert warm_rec.n_rerouted == cold_rec.n_rerouted
        # ...then the warm replica resumes with its snapshot cache while
        # the cold one rejoins empty, so the warm fleet never loses to
        # the cold one on hit rate.
        assert warm_rec.warm and not cold_rec.warm
        assert warm_report.fleet.hit_rate >= cold_report.fleet.hit_rate

    def test_failures_are_journaled(self, space, cluster_trace):
        from repro.core.config import FailureEvent

        span = cluster_trace.requests[-1].arrival_s
        system, _ = self._run_with_failures(
            space,
            cluster_trace,
            (
                FailureEvent(
                    time_s=0.4 * span, replica=1, action="kill"
                ),
                FailureEvent(
                    time_s=0.7 * span, replica=1, action="restart"
                ),
            ),
        )
        assert system.journal is not None
        kinds = system.journal.kind_counts()
        assert kinds["kill"] == 1
        assert kinds["restart"] == 1
        assert kinds["route"] > 0

    def test_double_kill_is_a_noop(self, space, cluster_trace):
        from repro.core.config import FailureEvent

        span = cluster_trace.requests[-1].arrival_s
        _, report = self._run_with_failures(
            space,
            cluster_trace,
            (
                FailureEvent(
                    time_s=0.4 * span, replica=1, action="kill"
                ),
                FailureEvent(
                    time_s=0.45 * span, replica=1, action="kill"
                ),
            ),
        )
        assert len(report.failures) == 1
        assert report.n_lost == 0
