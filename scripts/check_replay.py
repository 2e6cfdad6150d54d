#!/usr/bin/env python
"""Replay-determinism gate: snapshot + resume must equal never stopping.

Runs a MoDM serving trace with periodic state snapshots to completion,
picks a snapshot from the middle of the run, restores it into a freshly
constructed (identically configured) system, resumes, and demands the
resumed run be *bit-identical* to the uninterrupted one — same
completion times, same decisions, same journal digest.  Engines and
fleets expose the same always-on ``journal``, so both modes read and
replay it the same way.  This is the property warm replica
recovery rests on, so CI gates on it.

No golden file: both runs are generated here, so the gate cannot go
stale — it fails only when snapshot/restore loses state.  Reporting and
payload digests go through ``repro.analysis._cli`` so this gate, the
seed-golden gate, and the invariant analyzer all fail in the same
format.

``--suffix`` gates the stronger property: the journal is a *sufficient*
record.  The restored system gets no arrival timeline at all
(``install_timeline=False``) — a :class:`~repro.core.journal
.JournalReplayer` re-injects the remaining arrival cohorts from the
reference journal's ARRIVAL suffix alone, and the regenerated journal
must equal the reference row for row on top of the payload match.

``--fleet`` gates the same properties for a fleet: two
``cache_affinity`` replicas with periodic ``ClusterSnapshot`` capture,
one replica killed and warm-restarted mid-trace.  The last fleet
snapshot before the kill is restored into a fresh fleet and resumed,
so the resumed fleet replays the kill and the warm restart; the fleet
report payload (failure records included) and the fleet journal digest
must match the uninterrupted run.  ``--fleet --suffix`` drives the
restored fleet from the fleet journal's ARRIVAL suffix instead.

Usage (repo root)::

    PYTHONPATH=src python scripts/check_replay.py [--fleet] [--suffix] \
        [--out FRESH.json]

Exit status: 0 when the resumed payload matches the uninterrupted one
byte for byte, 1 otherwise (with a unified diff of the two payloads).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

from repro.analysis._cli import (
    completion_digest,
    decision_digest,
    gate_fail,
    gate_ok,
    render_payload,
    write_text,
)
from repro.core.cluster_router import modm_cluster
from repro.core.config import (
    ClusterConfig,
    ClusterRoutingConfig,
    FailureEvent,
    FailurePlan,
    JournalConfig,
    MoDMConfig,
)
from repro.core.journal import JournalReplayer
from repro.core.serving import MoDMSystem
from repro.embedding.space import SemanticSpace
from repro.workloads import DiffusionDBConfig, diffusiondb_trace

GATE = "replay"


def _config() -> MoDMConfig:
    return MoDMConfig(
        cluster=ClusterConfig(gpu_name="MI210", n_workers=4),
        cache_capacity=200,
        small_models=("sdxl",),
        seed="replay-gate",
        journal=JournalConfig(snapshot_period_s=90.0),
    )


def _fleet_routing(span_s: float) -> ClusterRoutingConfig:
    """Two affinity-routed replicas; replica 1 dies and rejoins warm.

    The kill lands after replica 1's first cache snapshot (the replica
    journal's 90 s period), so the restart restores that snapshot.
    """
    return ClusterRoutingConfig(
        n_replicas=2,
        policy="cache_affinity",
        snapshot_period_s=60.0,
        failures=FailurePlan(
            events=(
                FailureEvent(time_s=0.45 * span_s, replica=1),
                FailureEvent(
                    time_s=0.65 * span_s, replica=1, action="restart"
                ),
            ),
            recovery_window_s=60.0,
        ),
    )


def _payload(report, system) -> dict:
    """Everything that must match bit for bit.

    Snapshot *counts* are excluded by design: the resumed run only
    captures snapshots after its restore point, so the lists differ in
    length while the simulation is identical.
    """
    times_sum, times_sha = completion_digest(report)
    return {
        "hit_rate": report.hit_rate,
        "n_completed": report.n_completed,
        "completion_times_sum": times_sum,
        "completion_times_sha": times_sha,
        "decision_sha": decision_digest(report.records),
        "journal_digest": system.journal.digest(),
        "journal_events": len(system.journal),
        "cache_size": report.cache_size,
    }


def _fleet_payload(report, system) -> dict:
    """The fleet counterpart of :func:`_payload`: fleet-wide report
    metrics, routing and failure accounting, and every journal digest
    (the fleet's and each replica's)."""
    fleet = report.fleet
    times_sum, times_sha = completion_digest(fleet)
    return {
        "hit_rate": fleet.hit_rate,
        "n_completed": fleet.n_completed,
        "completion_times_sum": times_sum,
        "completion_times_sha": times_sha,
        "decision_sha": decision_digest(fleet.records),
        "journal_digest": system.journal.digest(),
        "journal_events": len(system.journal),
        "replica_journal_digests": [
            replica.journal.digest() for replica in system.replicas
        ],
        "routed": report.routed,
        "n_rerouted": report.n_rerouted,
        "n_lost": report.n_lost,
        "failures": [asdict(rec) for rec in report.failures],
        "cache_size": fleet.cache_size,
    }


def run_gate(suffix: bool = False, fleet: bool = False) -> tuple:
    """(uninterrupted payload, resumed payload) for one seeded trace.

    With ``suffix=True`` the restored system is driven forward by a
    :class:`JournalReplayer` from the reference journal's ARRIVAL rows
    instead of a reinstalled trace timeline, and the replayer's
    ``verify()`` additionally demands the regenerated journal equal the
    reference row for row.  With ``fleet=True`` the run is the
    two-replica kill/warm-restart fleet of :func:`_fleet_routing`.
    """
    space = SemanticSpace()
    trace = diffusiondb_trace(
        space,
        DiffusionDBConfig(
            n_requests=250,
            request_rate_per_min=40.0,
            seed="replay-gate",
        ),
    )

    if fleet:
        routing = _fleet_routing(trace.requests[-1].arrival_s)

        def build():
            return modm_cluster(space, _config(), routing)

        payload = _fleet_payload
    else:

        def build():
            return MoDMSystem(space, _config())

        payload = _payload

    straight = build()
    straight_report = straight.run(trace)
    if not straight.snapshots:
        raise RuntimeError(
            "journaled run captured no snapshots; the trace is too "
            "short for the snapshot period"
        )
    if fleet and not any(rec.warm for rec in straight_report.failures):
        raise RuntimeError(
            "fleet run had no warm restart; the kill fired before the "
            "replica's first cache snapshot"
        )
    straight_payload = payload(straight_report, straight)

    if fleet:
        # The last snapshot before the kill: the resumed fleet must
        # replay the kill, the orphan re-route and the warm restart
        # from restored replica state (cache snapshots included).
        kill_s = routing.failures.events[0].time_s
        snapshot = [s for s in straight.snapshots if s.time_s < kill_s][-1]
    else:
        snapshot = straight.snapshots[len(straight.snapshots) // 2]
    resumed = build()
    if suffix:
        snapshot.restore(resumed, install_timeline=False)
        replayer = JournalReplayer(resumed, straight.journal.entries())
        resumed_report = replayer.replay(trace_name=trace.name)
        replayer.verify()
    else:
        snapshot.restore(resumed)
        resumed_report = resumed.resume(trace)
    resumed_payload = payload(resumed_report, resumed)
    return straight_payload, resumed_payload, snapshot.time_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=None,
        help="also write the uninterrupted payload here (JSON)",
    )
    parser.add_argument(
        "--suffix",
        action="store_true",
        help=(
            "drive the restored run from the journal's ARRIVAL suffix "
            "instead of the trace timeline (journal-sufficiency gate)"
        ),
    )
    parser.add_argument(
        "--fleet",
        action="store_true",
        help=(
            "gate a two-replica fleet with a kill and a warm restart "
            "(ClusterSnapshot restore) instead of the single engine"
        ),
    )
    args = parser.parse_args(argv)

    gate = GATE + ("-fleet" if args.fleet else "") + (
        "-suffix" if args.suffix else ""
    )
    what = "fleet" if args.fleet else "run"
    straight, resumed, snap_time = run_gate(
        suffix=args.suffix, fleet=args.fleet
    )
    straight_text = render_payload(straight)
    resumed_text = render_payload(resumed)
    if args.out:
        write_text(args.out, straight_text)
    if straight_text == resumed_text:
        how = (
            "replayed bit-identically from the journal suffix"
            if args.suffix
            else "resumed bit-identically"
        )
        return gate_ok(
            gate,
            f"{what} restored from the t={snap_time:.1f}s snapshot "
            f"{how} ({'fleet ' if args.fleet else ''}journal digest "
            f"{straight['journal_digest'][:16]}...)",
        )
    return gate_fail(
        gate,
        "restoring a snapshot and "
        + (
            "replaying the journal suffix"
            if args.suffix
            else "resuming"
        )
        + " did not reproduce the uninterrupted run.  "
        "Snapshot/restore is losing state somewhere (see the diff "
        "above).",
        diff=(
            straight_text,
            resumed_text,
            "uninterrupted run",
            f"restored from t={snap_time:.1f}s snapshot",
        ),
    )


if __name__ == "__main__":
    sys.exit(main())
