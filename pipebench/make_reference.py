"""Regenerate the benchmark's committed references.

Usage, from the root of a checkout::

    python3 pipebench/make_reference.py            # all four
    python3 pipebench/make_reference.py serve      # only some

Writes ``pipebench/references/{traces,experiments,layers,serve}.json``:

* ``traces`` -- content digests of the 30 tiny and 30 small traces, built
  with the trace cache bypassed (and checked to survive a round trip
  through a fresh cache);
* ``experiments`` -- every E1-E15 table at tiny scale over the suite,
  required byte-identical on the ``object`` and ``numpy`` cores;
* ``layers`` -- every output the traced layer pass checks, computed
  through the same functions untraced, with the fast-core replays,
  and the slice tables, required identical on both cores;
* ``serve`` -- a metrics digest for every request any ``serve-mix``
  seed can send, computed through the daemon's own executor without a
  daemon, plus the requests known to fail.

Run it only when a change is meant to alter an output, and say so.
"""

import os
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from pipebench import harness, layers, serve_mix  # noqa: E402
from pipebench.harness import CONFIGS, SMALL, TINY, WORK_ROOT  # noqa: E402

CORES = ("object", "numpy")


def log(message: str) -> None:
    print(f"make_reference: {message}", file=sys.stderr, flush=True)


class Recorder:
    """``check`` for the layer pass that records instead of comparing;
    a second, different value for one name is an error."""

    def __init__(self):
        self.outputs = {}

    def __call__(self, name, value):
        if name in self.outputs and self.outputs[name] != value:
            raise SystemExit(f"{name}: paths disagree "
                             f"({self.outputs[name]!r} vs {value!r})")
        self.outputs[name] = value


def traces_reference(cached: dict) -> dict:
    """Digests of traces built with the cache bypassed; the tiny ones
    must equal ``cached``, the same traces through a fresh cache."""
    from repro.workloads import all_workloads

    document = {}
    for scale in (TINY, SMALL):
        document[scale] = {
            harness.trace_key(w.name, config): harness.trace_digest(
                w.trace(scale=scale, hyperblocks=config == "hyperblock",
                        use_cache=False)
            )
            for w in all_workloads() for config in CONFIGS
        }
    for key, trace in cached.items():
        if harness.trace_digest(trace) != document[TINY][key]:
            raise SystemExit(f"tiny trace {key} changes through the cache")
    return document


def experiment_tables(workloads=None) -> dict:
    """Tables per core; exits unless every core prints the same bytes."""
    from repro.experiments import experiment_ids, get_experiment
    from repro.sim.core import use_core

    tables = {}
    for core in CORES:
        with use_core(core):
            tables[core] = {
                exp_id: get_experiment(exp_id).run(
                    scale=TINY, workloads=workloads
                ).format().splitlines()
                for exp_id in experiment_ids()
            }
    for exp_id, lines in tables["object"].items():
        if tables["numpy"][exp_id] != lines:
            raise SystemExit(f"{exp_id}: object and numpy tables differ")
    return tables["object"]


def layers_reference(work: Path, traces: dict) -> dict:
    from repro.predictors import make_predictor
    from repro.sim.driver import SimOptions, simulate

    record = Recorder()
    layer = layers.LayerPass(harness.Tracer(), record, work, traces)
    for name in layers.FAST_PREDICTORS:
        record(f"sim {name}", layers.sim_digest([
            simulate(t, make_predictor(name, entries=1024), SimOptions(),
                     core="object")
            for t in layer.traces
        ]))
    layers.layer_outputs(layer, seed=0)
    slice_tables = experiment_tables(list(layers.SLICE))
    for exp_id, lines in slice_tables.items():
        record(f"experiments slice {exp_id}", lines)
    return record.outputs


def serve_reference() -> dict:
    from repro.serve.executor import execute_job
    from repro.serve.protocol import canonicalize

    results, failures = {}, {}
    for op, body in serve_mix.request_universe():
        key = serve_mix.request_key((op, body))
        try:
            spec = canonicalize(op, body)
        except TypeError as exc:
            failures[key] = f"{op} {body.get('predictor')}: {exc}"
            continue
        out = execute_job(spec.spec, "object")
        results[key] = harness.digest_json(out["metrics"])
    return {"results": results, "known_failures": failures}


PARTS = ("traces", "experiments", "layers", "serve")


def main(argv=None) -> int:
    parts = (argv if argv is not None else sys.argv[1:]) or PARTS
    unknown = sorted(set(parts) - set(PARTS))
    if unknown:
        raise SystemExit(f"unknown reference(s) {unknown}; choose from "
                         f"{', '.join(PARTS)}")
    work = WORK_ROOT / f"regen-{os.getpid()}"
    harness.prepare_environment(work)
    harness.fresh_dir(work)
    start = time.perf_counter()
    try:
        tiny = harness.fill_tiny_cache(harness.fresh_dir(work / "cache"),
                                       harness.Tracer())
        for part in PARTS:
            if part not in parts:
                continue
            if part == "traces":
                document = traces_reference(tiny)
            elif part == "experiments":
                document = {"suite": experiment_tables()}
            elif part == "layers":
                document = layers_reference(work, tiny)
            else:
                document = serve_reference()
            harness.write_reference(part, document)
            log(f"{part} done ({time.perf_counter() - start:.0f} s)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
