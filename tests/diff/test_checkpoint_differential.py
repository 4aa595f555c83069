"""Differential tests for checkpoint/restore fidelity.

The contract is *bitwise* determinism: a run that is checkpointed,
serialized to disk, reloaded, and continued must produce exactly the
dynamics of one that was never interrupted — identical event counts,
end times, byte counters, rates, and routes.  Each test compares the
complete per-flow fingerprint (no rounding) between an interrupted and
an uninterrupted execution of the same scenario.
"""

import glob
import os

from repro import Horse
from repro.runtime import load_checkpoint, save_checkpoint
from repro.runtime.scenario import build_horse, build_traffic, reset_id_counters

SCENARIO = {
    "engine": "flow",
    "seed": 5,
    "until": 3.0,
    "topology": {"kind": "leaf-spine", "leaves": 3, "spines": 2},
    "policies": {"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
    "traffic": {"kind": "matrix", "total": "1 Gbps", "horizon_s": 2.0},
}


def _build(scenario=None):
    scenario = scenario or SCENARIO
    # Rewind process-global id counters so every build assigns the same
    # flow ids — a restored run in a fresh process starts from them too.
    reset_id_counters()
    horse, fabric = build_horse(scenario)
    build_traffic(scenario["traffic"], horse, fabric)
    return horse


def _fingerprint(horse, result):
    return {
        "events": result.events,
        "sim_time_s": result.sim_time_s,
        "rules": result.rule_count,
        "flows": [
            (
                flow.flow_id,
                flow.state.name,
                flow.end_time,          # exact, no rounding
                flow.bytes_sent,
                flow.bytes_delivered,
                flow.rate_bps,          # bitwise
                tuple(d.key for d in flow.route.directions) if flow.route else (),
            )
            for flow in sorted(result.flows, key=lambda f: f.flow_id)
        ],
        "stats": dict(horse.engine.stats),
    }


class TestCheckpointRoundTrip:
    def test_segmented_with_and_without_checkpoint_identical(self, tmp_path):
        """run-to-t / continue must not care whether the state crossed
        a pickle + zlib + disk round trip at t."""
        plain = _build()
        plain.run(until=1.0)
        want = _fingerprint(plain, plain.run(until=3.0))

        path = str(tmp_path / "mid.ckpt")
        source = _build()
        source.run(until=1.0)
        save_checkpoint(source, path)
        restored = load_checkpoint(path)
        assert restored is not source  # a genuinely new object graph
        got = _fingerprint(restored, restored.run(until=3.0))
        assert got == want

    def test_restore_matches_uninterrupted_run(self, tmp_path):
        """Checkpoint/restore at t=1 vs a single uninterrupted run.

        Event counts, end times, rates, and routes are bitwise equal.
        The interruption adds a statistics accrual point at t, which
        splits the running byte sums (``a+(b+c)`` vs ``(a+b)+c``), so
        byte counters are compared at the flow-CSV export precision
        (milli-bytes) instead of bitwise; the segmented tests above are
        the bitwise serialization-fidelity contract.
        """

        def round_bytes(fp):
            fp = dict(fp)
            fp["flows"] = [
                row[:3] + (round(row[3], 3), round(row[4], 3)) + row[5:]
                for row in fp["flows"]
            ]
            return fp

        straight = _build()
        want = _fingerprint(straight, straight.run(until=3.0))

        path = str(tmp_path / "mid.ckpt")
        source = _build()
        source.run(until=1.0)
        source.checkpoint(path)
        restored = Horse.restore(path)
        got = _fingerprint(restored, restored.run(until=3.0))
        assert round_bytes(got) == round_bytes(want)

    def test_double_round_trip_identical(self, tmp_path):
        """Checkpointing twice along the way (1.0 and 2.0) changes
        nothing either — fidelity composes."""
        plain = _build()
        plain.run(until=1.0)
        plain.run(until=2.0)
        want = _fingerprint(plain, plain.run(until=3.0))

        path = str(tmp_path / "hop.ckpt")
        horse = _build()
        for t in (1.0, 2.0):
            horse.run(until=t)
            save_checkpoint(horse, path)
            horse = load_checkpoint(path)
        got = _fingerprint(horse, horse.run(until=3.0))
        assert got == want

    def test_periodic_checkpoint_is_resumable(self, tmp_path):
        """A run configured with a checkpoint ticker leaves a file a
        fresh process can resume into the identical final state."""
        path = str(tmp_path / "tick.ckpt")
        scenario = dict(
            SCENARIO,
            checkpoint={"path": path, "interval_s": 0.8},
        )
        full = _build(scenario)
        want = _fingerprint(full, full.run(until=3.0))
        assert os.path.exists(path)
        assert not glob.glob(path + ".tmp.*")  # atomic writes leave no temp

        restored = Horse.restore(path)
        assert restored.sim.now < 3.0  # a genuinely mid-run snapshot
        got = _fingerprint(restored, restored.run(until=3.0))
        assert got == want

    def test_hybrid_segmented_round_trip_identical(self, tmp_path):
        """The hybrid engine's full coupled state — packet queues and
        transports, solver external demands, sync ticker, selection
        threshold — survives a pickle + disk round trip bitwise."""
        scenario = dict(SCENARIO, engine="hybrid", hybrid={"select": "top:3"})
        plain = _build(scenario)
        plain.run(until=1.0)
        want = _fingerprint(plain, plain.run(until=3.0))

        path = str(tmp_path / "hybrid.ckpt")
        source = _build(scenario)
        source.run(until=1.0)
        save_checkpoint(source, path)
        restored = load_checkpoint(path)
        assert restored is not source
        got = _fingerprint(restored, restored.run(until=3.0))
        assert got == want
        # The scenario genuinely exercised the coupling, not a
        # degenerate empty foreground.
        assert restored.engine.stats["foreground_flows"] == 3
        assert restored.engine.stats["syncs"] > 0

    def test_hybrid_periodic_checkpoint_is_resumable(self, tmp_path):
        """A mid-run hybrid snapshot from the periodic ticker resumes
        into the identical final state in a fresh object graph."""
        path = str(tmp_path / "hybrid-tick.ckpt")
        scenario = dict(
            SCENARIO,
            engine="hybrid",
            hybrid={"select": "top:2"},
            checkpoint={"path": path, "interval_s": 0.8},
        )
        full = _build(scenario)
        want = _fingerprint(full, full.run(until=3.0))
        assert os.path.exists(path)

        restored = Horse.restore(path)
        assert restored.sim.now < 3.0
        got = _fingerprint(restored, restored.run(until=3.0))
        assert got == want

    def test_restored_run_keeps_checkpointing(self, tmp_path):
        """The pending ticker travels with the snapshot: a restored run
        continues writing checkpoints on the same cadence."""
        path = str(tmp_path / "tick.ckpt")
        scenario = dict(
            SCENARIO,
            checkpoint={"path": path, "interval_s": 0.8},
        )
        horse = _build(scenario)
        horse.run(until=1.0)  # ticker fired at 0.8
        assert os.path.exists(path)
        restored = load_checkpoint(path)
        os.unlink(path)
        restored.run(until=3.0)
        assert os.path.exists(path)  # rewritten by the restored run
