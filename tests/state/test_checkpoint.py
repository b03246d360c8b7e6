"""Unit tests: the top-level snapshot/restore API and its guards.

Bit-identical resume parity over full configurations is pinned by the
``state.*`` audit checks (which the pytest adapter already runs); these
tests cover the API contract — payload shape, disk round-trips, and the
refusal paths restore must take on mismatched or tampered input.
"""

import json

import pytest

from repro.faults import RetryPolicy, mtbf_schedule
from repro.fleet import fixed_fleet, poisson_table, replica_spec
from repro.state import (
    CURRENT_STATE_VERSION,
    StateIntegrityError,
    StateSchemaError,
    StateVersionError,
)
from repro.state.checkpoint import (
    FLEET_SNAPSHOT_KIND,
    read_snapshot,
    restore,
    snapshot,
    write_snapshot,
)


def _spec(kind="tdx"):
    return replica_spec(kind, max_batch=16, kv_capacity_tokens=65536)


def _fleet(count=1, kind="tdx"):
    return fixed_fleet(_spec(kind), count)


def _stream(n=6, seed=3):
    return poisson_table(n, rate_per_s=4.0, mean_prompt=64,
                         mean_output=16, seed=seed)


def _chaos_fleet():
    return fixed_fleet(_spec(), 2,
                       faults=mtbf_schedule([0, 1], mtbf_s=4.0,
                                            horizon_s=10.0, seed=3),
                       retry_policy=RetryPolicy(seed=1))


def _mid_run_payload(fleet, ticks=8):
    fleet.begin_run(_stream(n=12))
    for _ in range(ticks):
        fleet.run_tick()
    return json.loads(json.dumps(snapshot(fleet)))


class TestSnapshotShape:
    def test_payload_is_versioned_discriminated_strict_json(self):
        payload = snapshot(_fleet())
        assert payload["state_version"] == CURRENT_STATE_VERSION
        assert payload["kind"] == FLEET_SNAPSHOT_KIND
        # Strict JSON: no NaN/inf anywhere, round-trips losslessly.
        assert json.loads(json.dumps(payload, allow_nan=False)) == payload

    def test_idle_fleet_roundtrips(self):
        fresh = _fleet()
        restore(fresh, snapshot(_fleet()))
        assert snapshot(fresh) == snapshot(_fleet())

    def test_mid_run_snapshot_resumes_to_identical_report(self):
        stream = _stream()
        baseline = _fleet().run(stream)
        running = _fleet()
        running.begin_run(stream)
        running.run_tick()
        running.run_tick()
        fresh = _fleet()
        restore(fresh, json.loads(json.dumps(snapshot(running))))
        while fresh.run_active:
            fresh.run_tick()
        assert fresh.finish_run().to_dict() == baseline.to_dict()

    def test_chaos_payload_with_retired_completed_key_resumes(self):
        """Older chaos payloads carry a ``completed`` id list that no
        longer exists; restore ignores it and resumes bit-identically."""
        baseline = _chaos_fleet().run(_stream(n=12))
        payload = _mid_run_payload(_chaos_fleet())
        chaos = payload["state"]["run"]["chaos"]
        assert "completed" not in chaos
        chaos["completed"] = [0, 1]
        fresh = _chaos_fleet()
        restore(fresh, payload)
        while fresh.run_active:
            fresh.run_tick()
        assert fresh.finish_run().to_dict() == baseline.to_dict()


class TestRestoreGuards:
    def test_wrong_kind_refused(self):
        payload = dict(snapshot(_fleet()), kind="something_else")
        with pytest.raises(StateSchemaError, match="something_else"):
            restore(_fleet(), payload)

    def test_newer_version_refused(self):
        payload = dict(snapshot(_fleet()),
                       state_version=CURRENT_STATE_VERSION + 1)
        with pytest.raises(StateVersionError):
            restore(_fleet(), payload)

    def test_restore_into_different_fleet_size_refused(self):
        payload = snapshot(_fleet(count=2))
        with pytest.raises(StateIntegrityError, match="replica count"):
            restore(_fleet(count=1), payload)

    def test_restore_into_different_tick_refused(self):
        payload = snapshot(_fleet())
        target = fixed_fleet(_spec(), 1, tick_s=0.125)
        with pytest.raises(StateIntegrityError, match="tick"):
            restore(target, payload)

    def test_restore_into_mid_run_simulator_refused(self):
        busy = _fleet()
        busy.begin_run(_stream())
        busy.run_tick()
        with pytest.raises(StateIntegrityError, match="freshly built"):
            restore(busy, snapshot(_fleet()))

    def test_tampered_reference_refused(self):
        running = _fleet()
        running.begin_run(_stream())
        running.run_tick()
        payload = snapshot(running)
        held = json.loads(json.dumps(payload))
        held["state"]["run"]["held"] = [987654]
        with pytest.raises(StateIntegrityError, match="unknown request"):
            restore(_fleet(), held)
        head = json.loads(json.dumps(payload))
        head["state"]["run"]["pending_head"] = len(_stream()) + 1
        with pytest.raises(StateIntegrityError, match="out of range"):
            restore(_fleet(), head)

    @pytest.mark.parametrize("ledger,entry", [
        ("flights", [0]),
        ("flights", [1.0, 2.0]),
        ("flights", [0, "x"]),
        ("flights", "ab"),
        ("flights", [0, None]),
        ("flights", [True, 1.0]),
        ("flights", [7, 1.0]),
        ("attempts", "x"),
        ("attempts", -3),
        ("attempts", 0),
        ("attempts", None),
        ("attempts", 1.5),
        ("attempts", True),
        ("held_since", "x"),
        ("held_since", None),
    ])
    def test_malformed_chaos_ledger_refused(self, ledger, entry):
        """A malformed resilience-ledger entry is refused at restore
        with a state error, not a bare ValueError/TypeError and not a
        crash halfway through the resumed run."""
        payload = _mid_run_payload(_chaos_fleet())
        payload["state"]["run"]["chaos"][ledger]["0"] = entry
        with pytest.raises((StateSchemaError, StateIntegrityError)):
            restore(_chaos_fleet(), payload)

    def test_non_integer_ledger_key_refused(self):
        payload = _mid_run_payload(_chaos_fleet())
        payload["state"]["run"]["chaos"]["attempts"]["r0"] = 2
        with pytest.raises(StateSchemaError, match="request id"):
            restore(_chaos_fleet(), payload)

    @pytest.mark.parametrize("nulled", [("chaos",), ("attestation",),
                                        ("chaos", "attestation")])
    def test_unarmed_payload_without_ledgers_refused(self, nulled):
        """v1 unarmed fleets wrote ``"chaos": null`` and
        ``"attestation": null``; the v1->v2 migration refuses them by
        name, and a current-version payload without them is malformed."""
        payload = _mid_run_payload(_fleet(count=2), ticks=2)
        for key in nulled:
            holder = (payload["state"]["run"] if key == "chaos"
                      else payload["state"])
            holder[key] = None
        with pytest.raises(StateSchemaError, match="|".join(nulled)):
            restore(_fleet(count=2), payload)
        payload["state_version"] = 1
        with pytest.raises(StateVersionError,
                           match="without attestation registry"):
            restore(_fleet(count=2), payload)

    def test_v1_armed_payload_migrates_and_resumes(self):
        """Armed fleets already wrote every v2 field at v1."""
        baseline = _chaos_fleet().run(_stream(n=12))
        payload = _mid_run_payload(_chaos_fleet())
        payload["state_version"] = 1
        fresh = _chaos_fleet()
        restore(fresh, payload)
        while fresh.run_active:
            fresh.run_tick()
        assert fresh.finish_run().to_dict() == baseline.to_dict()

    @pytest.mark.parametrize("armed_snapshot", [True, False])
    def test_chaos_armed_mismatch_refused(self, armed_snapshot):
        payload = _mid_run_payload(
            _chaos_fleet() if armed_snapshot else _fleet(count=2), ticks=2)
        target = _fleet(count=2) if armed_snapshot else _chaos_fleet()
        with pytest.raises(StateIntegrityError, match="armed"):
            restore(target, payload)

    @pytest.mark.parametrize("engine", ["stepped", None])
    def test_per_object_run_snapshot_refused(self, engine):
        """Only columnar ``"engine": "event"`` payloads restore; one
        tagged ``stepped``, or carrying no engine tag, is refused."""
        running = _fleet()
        running.begin_run(_stream())
        running.run_tick()
        payload = snapshot(running)
        if engine is None:
            del payload["state"]["engine"]
        else:
            payload["state"]["engine"] = engine
        with pytest.raises(StateIntegrityError, match="engine"):
            restore(_fleet(), payload)


class TestDiskRoundtrip:
    def test_write_read_snapshot(self, tmp_path):
        payload = snapshot(_fleet())
        path = tmp_path / "fleet.json"
        write_snapshot(path, payload)
        assert read_snapshot(path) == payload

    def test_non_object_snapshot_file_refused(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(StateSchemaError, match="JSON object"):
            read_snapshot(path)
