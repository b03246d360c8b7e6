"""Property tests: quiet-tick jumping vs stepping every tick.

The hand-picked regimes live in ``repro.validate.event``; here
hypothesis draws *random* fleet configurations — replica kind and
count, stream shape, faults on or off — and asserts that ``run()``
(which jumps quiet ticks) equals the every-tick
``begin_run``/``run_tick``/``finish_run`` loop, that object lists and
columnar tables serve identically, and that freezing a run mid-flight
and restoring it changes nothing.  Equality is exact: jumping is an
optimization, not an approximation.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.faults import RetryPolicy, mtbf_schedule
from repro.fleet import (
    RequestTable,
    fixed_fleet,
    poisson_table,
    replica_spec,
)

configs = st.fixed_dictionaries({
    "kind": st.sampled_from(["tdx", "baremetal", "cgpu"]),
    "replicas": st.integers(1, 3),
    "count": st.integers(5, 30),
    "rate": st.sampled_from([2.0, 4.0, 8.0]),
    "seed": st.integers(0, 50),
    "faulted": st.booleans(),
})


def build(config):
    spec = replica_spec(config["kind"], max_batch=8,
                        kv_capacity_tokens=16384)
    kwargs = {}
    if config["faulted"]:
        kwargs = dict(
            faults=mtbf_schedule(list(range(config["replicas"])),
                                 mtbf_s=8.0, horizon_s=20.0,
                                 seed=config["seed"]),
            retry_policy=RetryPolicy(timeout_s=30.0, max_attempts=4,
                                     seed=config["seed"]))
    return fixed_fleet(spec, config["replicas"], **kwargs)


def stream_pair(config):
    """The drawn stream as a ``ServeRequest`` list and as its table."""
    table = poisson_table(config["count"], rate_per_s=config["rate"],
                          mean_prompt=96, mean_output=24,
                          seed=config["seed"])
    return list(table), table


def assert_reports_equal(a, b):
    assert a.to_dict() == b.to_dict()
    for x, y in zip(a.outcomes, b.outcomes):
        assert x.request.request_id == y.request.request_id
        assert x.first_token_s == y.first_token_s  # exact, not approx
        assert x.finish_s == y.finish_s
        assert x.preemptions == y.preemptions


class TestEngineEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(config=configs)
    def test_event_report_equals_stepped(self, config):
        """run() with quiet-tick jumps equals stepping every tick."""
        requests, table = stream_pair(config)
        stepped = build(config)
        stepped.begin_run(requests)
        while stepped.run_active:
            stepped.run_tick()
        assert_reports_equal(stepped.finish_run(), build(config).run(table))

    @settings(max_examples=8, deadline=None)
    @given(config=configs)
    def test_event_engine_accepts_object_streams(self, config):
        """begin_run converts plain request lists to a table itself."""
        requests, table = stream_pair(config)
        from_list = build(config).run(requests)
        from_table = build(config).run(table)
        assert_reports_equal(from_list, from_table)


class TestEventResume:
    @settings(max_examples=10, deadline=None)
    @given(config=configs, pause_ticks=st.integers(1, 60))
    def test_snapshot_restore_finish_is_invisible(self, config, pause_ticks):
        _, table = stream_pair(config)
        baseline = build(config).run(table)

        running = build(config)
        running.begin_run(table)
        for _ in range(pause_ticks):
            if not running.run_active:
                break
            running.run_tick()
        payload = json.loads(json.dumps(running.to_state()))
        fresh = build(config)
        fresh.from_state(payload)
        while fresh.run_active:
            fresh.run_tick()
        assert_reports_equal(baseline, fresh.finish_run())
        # The observed simulator finishes identically too.
        while running.run_active:
            running.run_tick()
        assert_reports_equal(baseline, running.finish_run())

    def test_table_round_trips_through_state(self):
        table = poisson_table(25, rate_per_s=4.0, seed=5)
        restored = RequestTable.from_state(
            json.loads(json.dumps(table.to_state())))
        assert len(restored) == len(table)
        for i in range(len(table)):
            assert table.request(i) == restored.request(i)
