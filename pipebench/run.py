"""Run one benchmark workload and print its result line.

Usage, from the root of a checkout::

    python3 pipebench/run.py --workload experiments-warm --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` does the workload's fixed work untraced and prints the
end-to-end metrics, every time scaled to a reference machine speed by
:class:`~pipebench.harness.HostSpeed`; ``--trace 1`` runs the traced
layer pass and prints the per-layer metrics, writing its spans under
``.pipebench-work/spans/`` for ``repro trace show``.  The last line of
standard output is the JSON result; everything else goes to stderr.
The work per run is fixed, so ``--seconds`` is accepted but does not
change what runs.
"""

import argparse
import math
import os
import shutil
import signal
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from pipebench import harness  # noqa: E402
from pipebench.harness import (  # noqa: E402
    END_TO_END,
    SETUP_REPEATS,
    TINY,
    WORK_ROOT,
    WORKLOADS,
    Checker,
    HostSpeed,
    Tracer,
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="accepted and ignored: the work per run is fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def log(message: str) -> None:
    print(f"pipebench: {message}", file=sys.stderr, flush=True)


def setup(workload: str, work: Path, checker: Checker):
    """Repeat the set-up; returns (span per repeat, running daemon)."""
    from pipebench.serve_mix import Daemon

    spans = []
    daemon = traces = None
    for _ in range(SETUP_REPEATS):
        if daemon is not None:
            daemon.stop()
        with Tracer().span("setup") as span:
            cache = harness.fresh_dir(work / "cache")
            traces = harness.fill_tiny_cache(cache, Tracer())
            if workload == "serve-mix":
                daemon = Daemon(harness.fresh_dir(work / "store"),
                                work / "daemon.log")
                daemon.start()
        spans.append(span)
    harness.check_traces(checker, traces, TINY)
    return spans, daemon


def untraced_run(workload: str, seed: int, work: Path) -> str:
    from pipebench import batch, serve_mix

    checker = Checker()
    daemon = None
    with HostSpeed() as host:
        try:
            setups, daemon = setup(workload, work, checker)
            if workload == "serve-mix":
                summary, phase = serve_mix.serve_mix(seed, daemon, checker)
                rss = harness.self_peak_rss_mb() + daemon.peak_rss_mb()
            else:
                run_phase = {"experiments-warm": batch.experiments_warm,
                             "trace-cold": batch.trace_cold}[workload]
                with Tracer().span(workload) as phase:
                    summary = run_phase(seed, work, checker)
                rss = harness.self_peak_rss_mb()
        finally:
            if daemon is not None:
                daemon.stop()
    checker.report()

    def scaled(spans):
        return sorted(host.scaled(s.start, s.seconds) for s in spans)

    wall = host.scaled(phase.start, phase.seconds)
    latencies = scaled(summary["latencies"])
    if workload == "serve-mix":
        p50 = harness.percentile(latencies, 50)
        tail = harness.percentile(latencies, 99)
        miss = statistics.median(scaled(summary["misses"]))
    else:
        # The operations are a fixed set of 15 or 30 different jobs,
        # each of whose times moves by 20-50 % between identical runs;
        # an order statistic of such a set jumps from one job to
        # another, so the batch latencies are averages over the set.
        p50 = miss = statistics.fmean(latencies)
        tail = statistics.fmean(latencies[-math.ceil(len(latencies) / 10):])
    log(f"{workload} seed {seed}: set-up "
        f"{[round(s.seconds, 3) for s in setups]} s, measured "
        f"{phase.seconds:.3f} s wall, {wall:.3f} s scaled (median probe "
        f"{host.slowdown():.2f}x reference), {summary['detail']}")
    metrics = {
        "setup_s": statistics.median(scaled(setups)),
        "wall_s": wall,
        "peak_rss_mb": rss,
        "throughput_rps": summary["operations"] / wall,
        "latency_p50_ms": p50 * 1e3,
        "latency_p99_ms": tail * 1e3,
        "hit_p50_ms": statistics.median(scaled(summary["hits"])) * 1e3,
        "miss_p50_ms": miss * 1e3,
    }
    return harness.result_line(checker, metrics, END_TO_END)


def traced_run(workload: str, seed: int, work: Path) -> str:
    from pipebench import layers

    reference = harness.load_reference("layers")
    checker = Checker()

    def check(name, value):
        checker.expect(name, value, reference.get(name))

    tracer = Tracer(harness.trace_id_for(workload, seed))
    with tracer.span(f"pipebench.{workload}", seed=seed):
        with tracer.span("pipebench.setup"):
            traces = harness.fill_tiny_cache(work / "cache", tracer)
        harness.check_traces(checker, traces, TINY)
        layer = layers.LayerPass(tracer, check, work, traces)
        layers.layer_outputs(layer, seed)
        with tracer.span("pipebench.serve"):
            layers.serve_layers(layer, seed, checker)
    checker.report()

    spans = WORK_ROOT / "spans" / f"{workload}-seed{seed}.jsonl"
    tracer.write(spans)
    log(f"{len(tracer.records)} spans in {spans}; render with "
        f"PYTHONPATH=src python3 -m repro.cli trace show {spans}")
    self_time = tracer.self_seconds_by_layer(layers.LAYERS)
    print(f"{'layer':14s} {'self_s':>9s}  metrics")
    for layer_name in list(layers.LAYERS) + ["pipebench"]:
        names = [name for name in layers.PER_LAYER
                 if layers.metric_layer(name) == layer_name]
        shown = "  ".join(f"{name}={layer.metrics[name]:.4g}"
                          for name in names)
        print(f"{layer_name:14s} {self_time.get(layer_name, 0.0):9.3f}  "
              f"{shown}")
    return harness.result_line(checker, layer.metrics, layers.PER_LAYER)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Stopped from outside, still stop the daemon and remove the work dir.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        harness.prepare_environment(work)
    except FileNotFoundError as exc:
        log(str(exc))
        return 2
    harness.fresh_dir(work)
    try:
        run = traced_run if args.trace else untraced_run
        line = run(args.workload, args.seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
