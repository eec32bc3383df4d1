"""The two batch workloads: ``experiments-warm`` and ``trace-cold``.

Both do a fixed amount of work per run; the seed only orders it.
Operations are timed one by one and returned with the summary as
:class:`~pipebench.harness.Span` objects (start and duration), so the
caller can rescale each to the host's speed at the time.
"""

import random
from pathlib import Path
from typing import Dict, List

from pipebench import harness
from pipebench.harness import CONFIGS, SMALL, TINY, Checker, Span, Tracer


def experiment_order(seed: int) -> List[str]:
    from repro.experiments import experiment_ids

    order = list(experiment_ids())
    random.Random(f"experiments-warm:{seed}").shuffle(order)
    return order


def trace_order(seed: int, phase: str) -> List[str]:
    from repro.workloads import workload_names

    keys = [harness.trace_key(name, config)
            for name in workload_names() for config in CONFIGS]
    random.Random(f"trace-cold:{phase}:{seed}").shuffle(keys)
    return keys


def load_traces(cache_dir: Path, scale: str, keys: List[str],
                checker: Checker, tracer: Tracer) -> List[Span]:
    """Load each trace back through a fresh :class:`TraceCache` and
    check it against the reference; returns the per-load spans."""
    from repro.trace import TraceCache
    from repro.workloads import get_workload

    reference = harness.load_reference("traces")[scale]
    spans = []
    for key in keys:
        program, config = key.split("/")
        cache = TraceCache(cache_dir)
        with tracer.span("trace.load", program=program, config=config,
                         scale=scale) as span:
            trace = get_workload(program).trace(
                scale=scale, hyperblocks=config == "hyperblock",
                cache=cache,
            )
        spans.append(span)
        if cache.builds or not cache.hits:
            checker.expect(f"{scale} trace {key} served from cache",
                           cache.stats(), {"hits": 1, "misses": 0,
                                           "builds": 0})
            continue
        checker.expect(f"{scale} trace {key} (loaded)",
                       harness.trace_digest(trace), reference.get(key))
    return spans


def run_experiments(order: List[str], checker: Checker,
                    tracer: Tracer, workloads=None,
                    reference_set: str = "suite") -> Dict[str, Span]:
    """Run each experiment at tiny scale on the default core; every
    formatted table must equal its reference line for line."""
    from repro.experiments import get_experiment

    reference = harness.load_reference("experiments")[reference_set]
    spans = {}
    for exp_id in order:
        module = get_experiment(exp_id)
        with tracer.span(f"experiments.{exp_id}") as span:
            result = module.run(scale=TINY, workloads=workloads)
        spans[exp_id] = span
        checker.expect(f"{exp_id} table ({reference_set})",
                       result.format().splitlines(),
                       reference.get(exp_id))
    return spans


#: How often ``experiments-warm`` reloads each tiny trace.  The reloads
#: are spread between the experiments, so their median samples the
#: machine across the whole phase rather than in one 0.1 s burst.
WARM_RELOADS = 3


def experiments_warm(seed: int, work: Path, checker: Checker) -> dict:
    """Warm-cache reproduction: E1-E15, with every tiny trace reloaded
    through a fresh cache three times between them."""
    tracer = Tracer()
    runs = experiment_order(seed)
    reloads = trace_order(seed, "load") * WARM_RELOADS
    step = len(reloads) // len(runs)
    loads: List[Span] = []
    spans: Dict[str, Span] = {}
    for i, exp_id in enumerate(runs):
        loads += load_traces(work / "cache", TINY,
                             reloads[i * step:(i + 1) * step],
                             checker, tracer)
        spans.update(run_experiments([exp_id], checker, tracer))
    return {
        "latencies": list(spans.values()),
        "hits": loads,
        "operations": len(loads) + len(spans),
        "detail": {exp_id: round(s.seconds, 3)
                   for exp_id, s in spans.items()},
    }


def trace_cold(seed: int, work: Path, checker: Checker) -> dict:
    """Cold path: build the 30 small traces into an empty cache and load
    each back through a fresh cache, one build behind, so the loads are
    spread over the phase."""
    from repro.trace import TraceCache
    from repro.workloads import get_workload

    reference = harness.load_reference("traces")[SMALL]
    cache_dir = harness.fresh_dir(work / "small-cache")
    tracer = Tracer()
    builds: List[Span] = []
    loads: List[Span] = []
    order = trace_order(seed, "build")
    for index, key in enumerate(order):
        program, config = key.split("/")
        cache = TraceCache(cache_dir)
        with tracer.span("trace.build") as span:
            trace = get_workload(program).trace(
                scale=SMALL, hyperblocks=config == "hyperblock",
                cache=cache,
            )
        builds.append(span)
        checker.expect(f"small trace {key} (built)",
                       harness.trace_digest(trace), reference.get(key))
        del trace
        if index:
            loads += load_traces(cache_dir, SMALL, [order[index - 1]],
                                 checker, tracer)
    loads += load_traces(cache_dir, SMALL, order[-1:], checker, tracer)
    return {
        "latencies": builds,
        "hits": loads,
        "operations": len(builds) + len(loads),
        "detail": {key: round(s.seconds, 3) for key, s in zip(order, builds)},
    }
