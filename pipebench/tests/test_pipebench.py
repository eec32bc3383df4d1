"""Tests of the benchmark itself (run: ``python -m pytest pipebench/tests``)."""

import json
import random

import numpy as np
import pytest

from pipebench import batch, harness, layers, serve_mix
from pipebench.harness import END_TO_END, Checker


def _benchmark():
    return json.loads((harness.BENCH_DIR.parent / "BENCHMARK.json")
                      .read_text())


# -- metric names -------------------------------------------------------------------


def test_end_to_end_names_and_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    assert declared == END_TO_END


def test_per_layer_names_and_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    assert declared == layers.PER_LAYER


def test_workloads_match_benchmark_json():
    declared = [w["name"] for w in _benchmark()["workloads"]]
    assert tuple(declared) == harness.WORKLOADS


def test_every_per_layer_metric_has_a_layer():
    for name in layers.PER_LAYER:
        assert layers.metric_layer(name) in layers.LAYERS


def test_result_line_requires_exactly_the_declared_names():
    values = {name: 1.5 for name in END_TO_END}
    line = json.loads(harness.result_line(Checker(), values, END_TO_END))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(END_TO_END)
    with pytest.raises(KeyError):
        harness.result_line(Checker(), {**values, "extra": 1.0},
                            END_TO_END)
    missing = dict(values)
    missing.pop("wall_s")
    with pytest.raises(KeyError):
        harness.result_line(Checker(), missing, END_TO_END)
    with pytest.raises(ValueError):
        harness.result_line(Checker(), {**values, "wall_s": 0.0},
                            END_TO_END)


# -- generators -----------------------------------------------------------------------


def test_request_streams_are_deterministic_per_seed():
    assert serve_mix.request_streams(7) == serve_mix.request_streams(7)
    assert serve_mix.request_streams(7) != serve_mix.request_streams(8)


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_request_streams_shape(seed):
    streams = serve_mix.request_streams(seed)
    assert len(streams) == serve_mix.STREAMS
    fresh_sets = []
    for stream in streams:
        phases = [phase for phase, _ in stream]
        assert phases[0] == "fresh"
        assert phases.count("repeat") == serve_mix.REPEATS_PER_STREAM
        assert phases.count("duplicate") == serve_mix.DUPLICATES_PER_STREAM
        seen = set()
        for phase, request in stream:
            key = serve_mix.request_key(request)
            if phase == "fresh":
                assert key not in seen
                seen.add(key)
            else:
                # Repeats only name requests this stream already sent,
                # so hits never depend on the other stream's timing.
                assert key in seen
        fresh_sets.append(seen)
    assert not fresh_sets[0] & fresh_sets[1]
    total = sum(len(s) for s in fresh_sets)
    pairs = len(serve_mix._programs()) * len(serve_mix._predictors())
    expected = (pairs * serve_mix.MISSES_PER_PAIR
                + serve_mix.SWEEPS + serve_mix.PROFILES)
    assert total == expected
    assert sum(len(s) for s in streams) > 1600


def test_every_streamed_request_has_a_reference():
    reference = harness.load_reference("serve")
    known = set(reference["results"]) | set(reference["known_failures"])
    for seed in range(4):
        for stream in serve_mix.request_streams(seed):
            for _, request in stream:
                assert serve_mix.request_key(request) in known


def test_known_failures_are_the_entries_defect():
    failures = harness.load_reference("serve")["known_failures"]
    assert failures
    for message in failures.values():
        assert "entries" in message
        assert message.split()[1].rstrip(":") in ("perfect", "static", "tage")


def test_interleave_alternates_and_keeps_each_stream_in_order():
    streams = [["a1", "a2", "a3"], ["b1"]]
    assert serve_mix.interleave(streams) == [
        (0, "a1"), (1, "b1"), (0, "a2"), (0, "a3")]


def test_orders_are_deterministic_permutations():
    assert batch.experiment_order(3) == batch.experiment_order(3)
    assert batch.experiment_order(3) != batch.experiment_order(4)
    assert sorted(batch.experiment_order(3)) == sorted(
        f"E{i}" for i in range(1, 16))
    build = batch.trace_order(3, "build")
    assert build == batch.trace_order(3, "build")
    assert build != batch.trace_order(3, "load")
    assert len(set(build)) == 30


# -- statistics -----------------------------------------------------------------------


def test_percentile_matches_linear_interpolation():
    rng = random.Random(0)
    data = [rng.expovariate(1.0) for _ in range(2000)]
    for q in (0, 10, 50, 90, 99, 99.5):
        assert harness.percentile(data, q) == pytest.approx(
            float(np.percentile(data, q)), rel=1e-12)
    assert harness.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert harness.percentile([1.0, 2.0], 50) == 1.5


def test_percentile_refuses_a_thin_tail():
    harness.percentile(range(1000), 99)  # exactly ten beyond: allowed
    with pytest.raises(ValueError):
        harness.percentile(range(999), 99)
    with pytest.raises(ValueError):
        harness.percentile(range(800), 99)
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_quartile_spread():
    stats = harness.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert stats["median"] == 3.0
    assert stats["spread"] == pytest.approx((4.5 - 1.5) / 3.0)


# -- host speed ---------------------------------------------------------------------------


def test_host_speed_scales_by_the_probes_in_and_near_an_interval():
    ref = harness.REFERENCE_PROBE_S
    host = harness.HostSpeed()
    # probes at t = 0, 1, 2, 3: reference speed, then half speed
    host.starts = [0.0, 1.0, 2.0, 3.0]
    host.durations = [ref, ref, 2 * ref, 2 * ref]
    host.costs = [2 * d for d in host.durations]
    # [0, 1.5) holds two reference-speed probes: wall minus their cost
    assert host.scaled(0.0, 1.5) == pytest.approx(1.5 - 4 * ref)
    # [2, 3.5) runs at half speed: half as many reference seconds
    assert host.scaled(2.0, 1.5) == pytest.approx((1.5 - 8 * ref) / 2)
    # [0, 3.5) averages the speeds, not the probe times
    assert host.scaled(0.0, 3.5) == pytest.approx((3.5 - 12 * ref) * 0.75)
    # a probe just outside the interval sets its speed, but its time
    # is not subtracted
    assert host.scaled(1.95, 0.01) == pytest.approx(0.005)
    # nothing near: the nearest probe's speed
    assert host.scaled(2.6, 0.1) == pytest.approx(0.05)
    assert host.scaled(1.2, 0.1) == pytest.approx(0.1)
    assert host.scaled(9.0, 0.1) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        harness.HostSpeed().scaled(0.0, 1.0)


def test_host_speed_probes_while_active_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with harness.HostSpeed(interval=0.005) as host:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    count = len(host.durations)
    assert count >= 10
    assert len(host.costs) == len(host.starts) == count
    assert all(c > d for c, d in zip(host.costs, host.durations))
    assert host.starts == sorted(host.starts)
    assert signal.getsignal(signal.SIGALRM) == before
    time.sleep(0.02)
    assert len(host.durations) == count


# -- reference checking -------------------------------------------------------------------


@pytest.fixture(scope="module")
def crc_trace():
    from repro.workloads import get_workload

    return get_workload("crc").trace(scale="tiny", hyperblocks=False,
                                     use_cache=False)


def test_trace_digest_matches_reference(crc_trace):
    checker = Checker()
    harness.check_traces(checker, {"crc/baseline": crc_trace}, "tiny")
    assert checker.correct and checker.failed == 0
    assert checker.attempted == 1


def test_checker_rejects_a_corrupted_trace(crc_trace):
    corrupted = crc_trace.b_taken.copy()
    corrupted[len(corrupted) // 2] ^= True
    original = crc_trace.b_taken
    crc_trace.b_taken = corrupted
    try:
        checker = Checker()
        harness.check_traces(checker, {"crc/baseline": crc_trace}, "tiny")
    finally:
        crc_trace.b_taken = original
    assert not checker.correct
    assert checker.failed == 1


def test_checker_rejects_a_corrupted_digest(crc_trace):
    digest = harness.trace_digest(crc_trace)
    corrupted = ("0" if digest[0] != "0" else "1") + digest[1:]
    checker = Checker()
    checker.expect("crc/baseline", digest, corrupted)
    assert not checker.correct and checker.failed == 1
    assert "crc/baseline" in checker.mismatches[0]


def test_failures_count_but_do_not_make_a_run_incorrect():
    checker = Checker()
    checker.failure()
    checker.expect("fine", 1, 1)
    assert checker.correct
    assert (checker.attempted, checker.failed) == (2, 1)


def test_serve_reply_with_wrong_metrics_is_a_mismatch():
    results = harness.load_reference("serve")["results"]
    request = next(r for r in serve_mix.request_universe()
                   if serve_mix.request_key(r) in results)
    good = serve_mix.Reply("fresh", request, 200,
                           {"cached": False, "metrics": {"x": 1.0}}, 0.01)
    failed = serve_mix.Reply("fresh", request, 500,
                             {"error": {"code": "internal_error"}}, 0.01)
    checker = Checker()
    serve_mix.check_replies([good, failed], checker)
    assert not checker.correct
    assert (checker.attempted, checker.failed) == (2, 2)


# -- spans ------------------------------------------------------------------------------------


def test_tracer_writes_spans_trace_show_renders(tmp_path):
    from repro.telemetry import read_spans, render_trace

    tracer = harness.Tracer(harness.trace_id_for("serve-mix", 1))
    with tracer.span("pipebench.serve-mix"):
        with tracer.span("sim.fastcore.plan"):
            with tracer.span("sim.driver.gshare"):
                pass
        with tracer.span("runstore.add"):
            pass
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    records = read_spans(path)
    assert len(records) == 4
    text = render_trace(records)
    assert "sim.fastcore.plan" in text and "critical path" in text
    by_layer = tracer.self_seconds_by_layer(layers.LAYERS)
    assert set(by_layer) == {"pipebench", "sim.fastcore", "sim.driver",
                             "runstore"}
