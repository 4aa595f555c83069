"""Unit tests for the checkpoint container and snapshot mechanics."""

import json
import os

import pytest

from repro import Horse, HorseConfig
from repro.errors import CheckpointError, ExperimentError
from repro.net.generators import single_switch
from repro.runtime import (
    CHECKPOINT_FORMAT_VERSION,
    SimulationSnapshot,
    load_checkpoint,
    read_checkpoint_header,
    save_checkpoint,
)
from repro.runtime.checkpoint import MAGIC
from repro.traffic.matrix import TrafficMatrix


def small_horse(engine="flow", **config_kwargs):
    horse = Horse(
        single_switch(4),
        policies={"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
        config=HorseConfig(engine=engine, seed=2, **config_kwargs),
    )
    matrix = TrafficMatrix.uniform(
        [h.name for h in horse.topology.hosts], total_bps=40e6
    )
    horse.submit_matrix(matrix, horizon_s=1.0)
    return horse


class TestContainer:
    def test_header_is_inspectable_without_unpickling(self, tmp_path):
        horse = small_horse()
        horse.run(until=0.5)
        path = str(tmp_path / "a.ckpt")
        written = save_checkpoint(horse, path)
        header = read_checkpoint_header(path)
        assert header == written
        assert header["format"] == CHECKPOINT_FORMAT_VERSION
        assert header["meta"]["engine"] == "flow"
        assert header["meta"]["sim_time_s"] == 0.5
        assert header["meta"]["seed"] == 2
        assert header["meta"]["flows"] > 0
        # The header line really is plain JSON on line two of the file.
        with open(path, "rb") as handle:
            assert handle.readline() == MAGIC
            json.loads(handle.readline())

    def test_not_a_checkpoint(self, tmp_path):
        path = str(tmp_path / "nope.ckpt")
        with open(path, "wb") as handle:
            handle.write(b"something else entirely\n")
        with pytest.raises(CheckpointError, match="not a Horse checkpoint"):
            read_checkpoint_header(path)

    def test_corrupt_payload_detected(self, tmp_path):
        horse = small_horse()
        path = str(tmp_path / "a.ckpt")
        save_checkpoint(horse, path)
        with open(path, "rb") as handle:
            blob = handle.read()
        flipped = bytearray(blob)
        flipped[-10] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(flipped))
        with pytest.raises(CheckpointError, match="digest mismatch"):
            load_checkpoint(path)

    def test_truncated_payload_detected(self, tmp_path):
        horse = small_horse()
        path = str(tmp_path / "a.ckpt")
        save_checkpoint(horse, path)
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[:-20])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_newer_format_rejected(self, tmp_path):
        path = str(tmp_path / "future.ckpt")
        header = json.dumps({"format": CHECKPOINT_FORMAT_VERSION + 1}).encode()
        with open(path, "wb") as handle:
            handle.write(MAGIC + header + b"\n")
        with pytest.raises(CheckpointError, match="newer"):
            read_checkpoint_header(path)

    def test_newer_snapshot_version_rejected(self):
        snapshot = SimulationSnapshot.capture(small_horse())
        snapshot.version += 1
        with pytest.raises(CheckpointError, match="newer"):
            snapshot.resume()


class TestSnapshotSemantics:
    def test_new_flow_ids_do_not_collide_after_restore(self, tmp_path):
        from repro.flowsim.flow import Flow
        from repro.openflow.headers import tcp_flow

        horse = small_horse()
        path = str(tmp_path / "a.ckpt")
        horse.run(until=0.2)
        save_checkpoint(horse, path)
        restored = load_checkpoint(path)
        taken = set(restored.engine.flows)
        fresh = Flow(
            headers=tcp_flow("10.0.0.1", "10.0.0.2", 9999, 80),
            src="h0", dst="h1", demand_bps=1e6, size_bytes=1000,
            start_time=restored.sim.now,
        )
        assert fresh.flow_id not in taken
        assert fresh.flow_id > max(taken)

    def test_packet_engine_round_trip(self, tmp_path):
        horse = small_horse(engine="packet")
        horse.run(until=0.3)
        path = str(tmp_path / "p.ckpt")
        save_checkpoint(horse, path)
        restored = load_checkpoint(path)
        finished = restored.run(until=5.0)
        reference = small_horse(engine="packet")
        want = reference.run(until=5.0)
        assert finished.events == want.events
        assert finished.engine_summary == want.engine_summary

    def test_checkpoint_without_path_raises(self):
        with pytest.raises(ExperimentError, match="checkpoint path"):
            small_horse().checkpoint()

    def test_default_checkpoint_path_from_config(self, tmp_path):
        path = str(tmp_path / "default.ckpt")
        horse = small_horse(checkpoint={"path": path})
        horse.checkpoint()
        assert os.path.exists(path)

    def test_interval_requires_path(self):
        with pytest.raises(ExperimentError, match="checkpoint.path"):
            HorseConfig(checkpoint={"interval_s": 1.0})

    def test_interval_must_be_positive(self):
        with pytest.raises(ExperimentError, match="> 0"):
            HorseConfig(checkpoint={"path": "x.ckpt", "interval_s": 0.0})
