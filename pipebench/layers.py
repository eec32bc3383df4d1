"""The traced run: per-layer metrics from spans around each layer's calls.

Every traced run measures every layer, whatever the workload: after the
workload's set-up it walks the program layer by layer, calling each
module's public functions on fixed slices of the workloads' own inputs:

* small sources for ``lang``, ``compiler``, ``engine`` and ``trace``
  (parse and baseline compile over all 15 programs; hyperblock compile,
  interpretation, recording, publish and load over :data:`SLICE`);
* the 15 hyperblock tiny traces for ``sim``, ``pipeline`` and
  ``profiler``;
* E1-E15 over :data:`SLICE` at tiny scale for ``experiments``;
* the run's own ``serve-mix`` request bodies for ``serve`` and
  ``runstore``.

Each output is checked against the committed references, which
:mod:`pipebench.make_reference` computes through the same functions
with tracing off -- so the traced path is checked bit-identical to the
untraced one.
"""

import random
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List

from pipebench import harness, serve_mix
from pipebench.harness import SMALL, TINY, Tracer

#: Programs whose small traces and tiny experiment tables the layer
#: pass measures: a short, a medium and a long run.
SLICE = ("crc", "expr", "lexer")

#: Repetitions for the layers whose single pass takes milliseconds;
#: their metric is the median repetition.
REPS = 5

#: Fresh simulate requests executed in-process for ``serve.execute_job``.
EXECUTE_JOBS = 40
#: Stream entries sent to a daemon for the serve hit/miss latencies.
DAEMON_REQUESTS = 300
#: Store lookups timed for ``runstore.find_ms``.
FINDS = 100

#: Predictor configurations of the object-core driver metrics.
OBJECT_CONFIGS = ("gshare", "gshare_sfp_pgu", "tage", "perceptron",
                  "tournament")
FAST_PREDICTORS = ("bimodal", "gshare", "local")
FAST_CORES = ("fast", "numpy")

#: Layers, named after the program's modules; spans are attributed to
#: the longest matching prefix.
LAYERS = ("lang", "compiler", "engine", "trace", "sim.fastcore",
          "sim.driver", "sim.sweep", "pipeline", "profiler",
          "experiments", "serve", "runstore", "telemetry")


def _experiment_ids() -> List[str]:
    return [f"E{i}" for i in range(1, 16)]


#: Per-layer metrics and units, in the order BENCHMARK.json lists them.
PER_LAYER: Dict[str, str] = {
    "lang.parse_s": "s",
    "compiler.baseline_s": "s",
    "compiler.hyperblock_s": "s",
    "engine.run_s": "s",
    "engine.minsts_per_s": "Minst/s",
    "trace.record_s": "s",
    "trace.record_overhead": "ratio",
    "trace.publish_s": "s",
    "trace.load_s": "s",
    "trace.cache_mb": "MB",
    "sim.fastcore.plan_s": "s",
    **{f"sim.fastcore.{core}.{name}.mbranches_per_s": "Mbranch/s"
       for core in FAST_CORES for name in FAST_PREDICTORS},
    **{f"sim.object.{name}.mbranches_per_s": "Mbranch/s"
       for name in OBJECT_CONFIGS},
    "sim.sweep.points_per_s": "1/s",
    "pipeline.btb.mbranches_per_s": "Mbranch/s",
    "pipeline.frontend_s": "s",
    "profiler.mbranches_per_s": "Mbranch/s",
    **{f"experiments.{exp_id}_s": "s" for exp_id in _experiment_ids()},
    "serve.canonicalize_us": "us",
    "serve.execute_job_ms": "ms",
    "serve.hit_ms": "ms",
    "serve.miss_ms": "ms",
    "serve.memo_hit_ratio": "ratio",
    "runstore.add_ms": "ms",
    "runstore.find_ms": "ms",
    "runstore.records": "count",
    "telemetry.trace_overhead": "ratio",
}

#: ``check(name, value)``: compare an output with its reference (traced
#: run) or record it as the reference (regeneration).
Check = Callable[[str, object], None]


def _object_predictor(name: str):
    from repro.predictors import PGUConfig, SFPConfig, make_predictor
    from repro.sim.driver import SimOptions

    plain = SimOptions()
    both = SimOptions(sfp=SFPConfig(), pgu=PGUConfig())
    # Sizes as experiment E11 uses them at 1024 entries.
    return {
        "gshare": (lambda: make_predictor("gshare", entries=1024), plain),
        "gshare_sfp_pgu": (
            lambda: make_predictor("gshare", entries=1024), both
        ),
        "tage": (lambda: make_predictor(
            "tage", base_entries=1024, table_entries=256), plain),
        "perceptron": (lambda: make_predictor("perceptron", entries=64),
                       plain),
        "tournament": (lambda: make_predictor("tournament", entries=1024),
                       plain),
    }[name]


def sim_digest(results) -> str:
    return harness.digest_json([r.headline_metrics() for r in results])


class LayerPass:
    """Walks the layers once; fills :attr:`metrics`."""

    def __init__(self, tracer: Tracer, check: Check, work: Path,
                 tiny_traces: Dict[str, object]):
        self.tracer = tracer
        self.check = check
        self.work = work
        #: the 15 hyperblock tiny traces, suite order
        self.traces = [tiny_traces[key] for key in tiny_traces
                       if key.endswith("/hyperblock")]
        self.branches = sum(t.num_branches for t in self.traces)
        self.metrics: Dict[str, float] = {}

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)

    # -- lang, compiler, engine, trace: small sources --------------------------

    def cold_path(self) -> None:
        from repro.compiler import compile_source, compile_with_profile
        from repro.compiler import config as config_mod
        from repro.engine import run as run_program
        from repro.isa.printer import disassemble
        from repro.lang import analyze, parse
        from repro.trace import TraceCache, TraceMeta, TraceRecorder
        from repro.workloads import all_workloads

        parse_s = baseline_s = hyper_s = 0.0
        run_s = record_s = publish_s = load_s = 0.0
        instructions = 0
        executables = {}
        for workload in all_workloads():
            source = workload.source(SMALL)
            with self.span("lang.parse", program=workload.name) as span:
                analyze(parse(source))
            parse_s += span.seconds
            with self.span("compiler.baseline",
                           program=workload.name) as span:
                compiled = compile_source(source, config_mod.BASELINE)
            baseline_s += span.seconds
            self.check(f"small {workload.name}/baseline executable",
                       harness.digest_json(disassemble(compiled.executable)))
            if workload.name in SLICE:
                executables[(workload.name, "baseline")] = (
                    compiled, config_mod.BASELINE
                )
        for workload in all_workloads():
            if workload.name not in SLICE:
                continue
            source = workload.source(SMALL)
            with self.span("compiler.hyperblock",
                           program=workload.name) as span:
                compiled = compile_with_profile(source,
                                                config_mod.HYPERBLOCK)
            hyper_s += span.seconds
            self.check(f"small {workload.name}/hyperblock executable",
                       harness.digest_json(disassemble(compiled.executable)))
            executables[(workload.name, "hyperblock")] = (
                compiled, config_mod.HYPERBLOCK
            )

        cache_dir = harness.fresh_dir(self.work / "layer-cache")
        for (program, config), (compiled, cfg) in executables.items():
            key = harness.trace_key(program, config)
            with self.span("engine.run", program=key) as span:
                plain = run_program(compiled.executable)
            run_s += span.seconds
            instructions += plain.instructions
            with self.span("trace.record", program=key) as span:
                recorder = TraceRecorder()
                result = run_program(compiled.executable, recorder=recorder)
                trace = recorder.finish(TraceMeta(
                    workload=program, scale=SMALL,
                    compile_config=cfg.cache_key(),
                    instructions=result.instructions,
                    return_value=result.return_value,
                ))
            record_s += span.seconds
            self.check(f"small {key} run",
                       [plain.instructions, plain.return_value])
            self.check(f"small {key} trace", harness.trace_digest(trace))
            with self.span("trace.publish", program=key) as span:
                TraceCache(cache_dir).put(key, trace)
            publish_s += span.seconds
            with self.span("trace.load", program=key) as span:
                loaded = TraceCache(cache_dir).get(key)
            load_s += span.seconds
            self.check(f"small {key} trace (loaded)",
                       harness.trace_digest(loaded))
        tiny_bytes = sum(
            path.stat().st_size
            for path in (self.work / "cache").glob("*.npz")
        )
        self.metrics.update({
            "lang.parse_s": parse_s,
            "compiler.baseline_s": baseline_s,
            "compiler.hyperblock_s": hyper_s,
            "engine.run_s": run_s,
            "engine.minsts_per_s": instructions / run_s / 1e6,
            "trace.record_s": record_s,
            "trace.record_overhead": record_s / run_s,
            "trace.publish_s": publish_s,
            "trace.load_s": load_s,
            "trace.cache_mb": tiny_bytes / 1e6,
        })

    # -- sim: fast cores and the object driver ---------------------------------

    def _replay(self, span_name: str, factory, options, core: str,
                reps: int = 1):
        """Median seconds of ``reps`` passes over the traces; checks the
        results against the object-core reference."""
        from repro.sim.driver import simulate

        times = []
        results = None
        for rep in range(reps):
            with self.span(span_name, rep=rep) as span:
                results = [simulate(trace, factory(), options, core=core)
                           for trace in self.traces]
            times.append(span.seconds)
        return statistics.median(times), results

    def sim(self) -> None:
        from repro.predictors import make_predictor
        from repro.sim.driver import SimOptions
        from repro.sim.fastcore import build_plan

        plan_times = []
        for rep in range(REPS):
            with self.span("sim.fastcore.plan", rep=rep) as span:
                for trace in self.traces:
                    build_plan(trace, SimOptions())
            plan_times.append(span.seconds)
        self.metrics["sim.fastcore.plan_s"] = statistics.median(plan_times)

        for name in FAST_PREDICTORS:
            for core in FAST_CORES:
                seconds, results = self._replay(
                    f"sim.fastcore.{core}.{name}",
                    lambda name=name: make_predictor(name, entries=1024),
                    SimOptions(), core, reps=REPS,
                )
                self.check(f"sim {name}", sim_digest(results))
                self.metrics[
                    f"sim.fastcore.{core}.{name}.mbranches_per_s"
                ] = self.branches / seconds / 1e6

        for name in OBJECT_CONFIGS:
            factory, options = _object_predictor(name)
            seconds, results = self._replay(
                f"sim.driver.{name}", factory, options, "object"
            )
            self.check(f"sim {name}", sim_digest(results))
            self.metrics[f"sim.object.{name}.mbranches_per_s"] = (
                self.branches / seconds / 1e6
            )

    def sweep(self) -> None:
        from repro.predictors import PGUConfig, SFPConfig, make_predictor
        from repro.sim.driver import SimOptions
        from repro.sim.sweep import sweep

        traces = {t.meta.workload: t for t in self.traces}
        factories = {
            "gshare_1024": lambda: make_predictor("gshare", entries=1024),
            "bimodal_1024": lambda: make_predictor("bimodal", entries=1024),
        }
        grid = [SimOptions(), SimOptions(sfp=SFPConfig(), pgu=PGUConfig())]
        with self.span("sim.sweep.run", points=60) as span:
            results = sweep(traces, factories, grid, workers=1)
        self.check("sweep", sim_digest(results))
        self.metrics["sim.sweep.points_per_s"] = len(results) / span.seconds

    # -- pipeline and profiler ---------------------------------------------------

    def pipeline(self) -> None:
        from repro.pipeline import BTBConfig, BranchTargetBuffer
        from repro.pipeline.fetchsim import FetchModel, simulate_frontend
        from repro.predictors import make_predictor
        from repro.sim.driver import SimOptions, simulate

        config = BTBConfig(sets=256, ways=2)
        streams = [
            (trace.b_pc[trace.b_taken].tolist(),
             trace.b_target[trace.b_taken].tolist())
            for trace in self.traces
        ]
        times = []
        for rep in range(REPS):
            misses = []
            with self.span("pipeline.btb", rep=rep) as span:
                for pcs, targets in streams:
                    btb = BranchTargetBuffer(config)
                    lookup, insert = btb.lookup, btb.insert
                    # The driver's taken-branch path under a perfect
                    # direction predictor: look up, then (re)install.
                    for pc, target in zip(pcs, targets):
                        lookup(pc)
                        if target >= 0:
                            insert(pc, target)
                    misses.append(btb.misses)
            times.append(span.seconds)
        self.check("btb misses", misses)
        self.metrics["pipeline.btb.mbranches_per_s"] = (
            self.branches / statistics.median(times) / 1e6
        )

        options = SimOptions(record_flags=True, btb=config)
        with self.span("sim.driver.flags"):
            flags = [
                simulate(trace, make_predictor("gshare", entries=1024),
                         options, core="object").flags
                for trace in self.traces
            ]
        model = FetchModel(width=6)
        times = []
        for rep in range(REPS):
            with self.span("pipeline.frontend", rep=rep) as span:
                cycles = [simulate_frontend(trace, f, model).cycles
                          for trace, f in zip(self.traces, flags)]
            times.append(span.seconds)
        self.check("frontend cycles", cycles)
        self.metrics["pipeline.frontend_s"] = statistics.median(times)

    def profiler(self) -> None:
        from repro.predictors import PGUConfig, SFPConfig, make_predictor
        from repro.profiler.collector import AggregatingCollector
        from repro.profiler.spec import ProfileSpec
        from repro.sim.driver import SimOptions, simulate

        options = SimOptions(sfp=SFPConfig(), pgu=PGUConfig())
        totals = []
        with self.span("profiler.collect", rate=1) as span:
            for trace in self.traces:
                collector = AggregatingCollector(
                    ProfileSpec(rate=1, seed=0),
                    workload=trace.meta.workload,
                )
                simulate(trace, make_predictor("gshare", entries=4096),
                         options, collector=collector, core="object")
                aggregator = collector.aggregator
                totals.append([aggregator.totals(),
                               aggregator.h2p_count(0.9)])
        self.check("profiler totals", harness.digest_json(totals))
        self.metrics["profiler.mbranches_per_s"] = (
            self.branches / span.seconds / 1e6
        )

    # -- experiments ----------------------------------------------------------------

    def experiments(self, seed: int) -> None:
        from repro.experiments import get_experiment

        order = _experiment_ids()
        random.Random(f"layers:{seed}").shuffle(order)
        for exp_id in order:
            with self.span(f"experiments.{exp_id}") as span:
                result = get_experiment(exp_id).run(
                    scale=TINY, workloads=list(SLICE)
                )
            self.metrics[f"experiments.{exp_id}_s"] = span.seconds
            self.check(f"experiments slice {exp_id}",
                       result.format().splitlines())

    # -- telemetry --------------------------------------------------------------------

    def telemetry(self) -> None:
        """Traced / untraced wall over one slice: the object driver with
        SFP+PGU over the 15 traces, three passes each way."""
        from repro.predictors import PGUConfig, SFPConfig, make_predictor
        from repro.sim.driver import SimOptions, simulate
        from repro.telemetry import tracing

        options = SimOptions(sfp=SFPConfig(), pgu=PGUConfig())

        def one_pass():
            return [simulate(trace, make_predictor("gshare", entries=1024),
                             options, core="object")
                    for trace in self.traces]

        plain, traced = [], []
        collector = tracing.SpanCollector()
        with self.span("telemetry.overhead"):
            for _ in range(3):
                start = time.perf_counter()
                one_pass()
                plain.append(time.perf_counter() - start)
            for rep in range(3):
                with self.span("telemetry.traced", rep=rep) as span:
                    # The program's spans nest under this one; an
                    # untraced pass roots them in a throwaway trace.
                    parent = self.tracer.context() or tracing.TraceContext(
                        trace_id=tracing.new_trace_id(), span_id="0" * 16
                    )
                    with tracing.use_tracing(True), \
                            tracing.use_collector(collector), \
                            tracing.use_context(parent):
                        results = one_pass()
                traced.append(span.seconds)
        if self.tracer.enabled:
            self.tracer.records.extend(collector.records)
        self.check("sim gshare_sfp_pgu", sim_digest(results))
        self.metrics["telemetry.trace_overhead"] = (
            statistics.median(traced) / statistics.median(plain)
        )


# -- serve and runstore: the run's own request bodies ------------------------------


def serve_layers(layer: LayerPass, seed: int,
                 checker: harness.Checker) -> None:
    from repro.runstore import RunRecord, RunStore
    from repro.serve.executor import execute_job
    from repro.serve.protocol import canonicalize

    streams = serve_mix.request_streams(seed)
    fresh = [request for stream in streams
             for phase, request in stream if phase == "fresh"]
    specs = []
    elapsed = 0.0
    with layer.span("serve.canonicalize", requests=len(fresh)):
        for op, body in fresh:
            start = time.perf_counter()
            try:
                spec = canonicalize(op, body)
            except TypeError:
                # The known defect: predictors without an ``entries``
                # parameter fail here, which the daemon turns into a 500.
                checker.failure()
                continue
            elapsed += time.perf_counter() - start
            specs.append((op, body, spec))
    layer.metrics["serve.canonicalize_us"] = elapsed / len(specs) * 1e6

    reference = harness.load_reference("serve")["results"]
    outputs = []
    times = []
    for op, body, spec in [s for s in specs
                           if s[0] == "simulate"][:EXECUTE_JOBS]:
        with layer.span("serve.execute_job", op=op) as span:
            out = execute_job(spec.spec, "object")
        times.append(span.seconds)
        outputs.append(out)
        checker.expect(f"execute_job {op} {body}",
                       harness.digest_json(out["metrics"]),
                       reference.get(serve_mix.request_key((op, body))))
    layer.metrics["serve.execute_job_ms"] = statistics.mean(times) * 1e3

    store_dir = harness.fresh_dir(layer.work / "layer-store")
    with layer.span("serve.daemon.start"):
        daemon = serve_mix.Daemon(store_dir, layer.work / "daemon.log")
        daemon.start()
    try:
        prefix = [streams[0][:DAEMON_REQUESTS]]
        replies = serve_mix.drive(daemon.port, prefix,
                                  tracer=layer.tracer)[0]
    finally:
        with layer.span("serve.daemon.stop"):
            daemon.stop()
    serve_mix.check_replies(replies, checker)
    ok = [r for r in replies if r.ok]
    layer.metrics.update({
        "serve.hit_ms": statistics.median(
            r.seconds for r in ok if r.cached) * 1e3,
        "serve.miss_ms": statistics.median(
            r.seconds for r in ok if not r.cached) * 1e3,
        "serve.memo_hit_ratio": sum(r.cached for r in ok) / len(ok),
    })

    # The store the serve-mix run ends with holds one record per fresh
    # request that succeeds; its records carry metrics and telemetry
    # shaped like the executed jobs above.
    store = RunStore(harness.fresh_dir(layer.work / "runstore"))
    added = []
    times = []
    for index, (op, body, spec) in enumerate(specs):
        out = outputs[index % len(outputs)]
        record = RunRecord(
            kind=spec.kind, label=spec.label, scale=spec.stub["scale"],
            compile_config=spec.stub["compile_config"],
            matrix=spec.stub["matrix"], metrics=out["metrics"],
            command=f"serve {op}", wall_seconds=out["seconds"],
            sim_core="object", telemetry=out["registry"].snapshot(),
            git={"sha": "", "dirty": False},
        )
        record.seal()
        with layer.span("runstore.add") as span:
            store.add(record, if_exists="skip")
        times.append(span.seconds)
        added.append(record)
    layer.metrics["runstore.add_ms"] = statistics.mean(times) * 1e3
    times = []
    for record in random.Random(f"runstore:{seed}").sample(added, FINDS):
        with layer.span("runstore.find") as span:
            found = store.find(record.run_id)
        times.append(span.seconds)
        checker.expect(f"runstore find {record.run_id}",
                       found.payload() if found else None, record.payload())
    layer.metrics["runstore.find_ms"] = statistics.mean(times) * 1e3
    layer.metrics["runstore.records"] = float(len(store.paths()))


def layer_outputs(layer: LayerPass, seed: int) -> None:
    """The seed-independent part of the pass (what the references pin)."""
    with layer.span("pipebench.cold-path"):
        layer.cold_path()
    with layer.span("pipebench.sim"):
        layer.sim()
        layer.sweep()
        layer.pipeline()
        layer.profiler()
    with layer.span("pipebench.experiments"):
        layer.experiments(seed)
    with layer.span("pipebench.telemetry"):
        layer.telemetry()


def metric_layer(metric: str) -> str:
    """The layer a per-layer metric belongs to (``sim.object.*`` metrics
    measure the object driver)."""
    if metric.startswith("sim.object."):
        return "sim.driver"
    return next(layer for layer in sorted(LAYERS, key=len, reverse=True)
                if metric.startswith(layer + "."))
