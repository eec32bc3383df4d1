"""Shared pieces of the pipeline benchmark.

Everything here is independent of any one workload: the run's working
directory and environment, the benchmark-side span recorder, the
percentile helper, the host-speed probe, content digests, the committed
references, the tiny-trace set-up and the JSON result line.
"""

import bisect
import functools
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "references"

#: Where every run keeps its caches, stores and span files, relative to
#: the checkout root the benchmark runs from.
WORK_ROOT = Path(".pipebench-work")

#: Workloads, in the order BENCHMARK.json lists them.
WORKLOADS = ("experiments-warm", "trace-cold", "serve-mix")

#: End-to-end metrics every untraced run prints, with their units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "hit_p50_ms": "ms",
    "miss_p50_ms": "ms",
}

#: Set-up is repeated this many times per run and ``setup_s`` is their
#: median (with two, their mean).  Each more repeat would add another
#: tiny-cache fill, about 4 s, to every run.
SETUP_REPEATS = 2

#: The suite at the scale the warm workloads and set-up use.
TINY = "tiny"
SMALL = "small"
CONFIGS = ("baseline", "hyperblock")

#: Environment knobs that would change which code path a run measures.
#: The benchmark measures the defaults, so it clears them; sweeps run
#: serially (one worker), which is the default experiments measure.
_CLEARED_ENV = ("REPRO_SIM_CORE", "REPRO_TRACING", "REPRO_RUNSTORE")


def prepare_environment(work: Path) -> None:
    """Point the program at this run's private directories.

    Must run before :mod:`repro` is imported: tracing reads its switch
    at import time.
    """
    src = Path("src").resolve()
    if not (src / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(
            "src/repro not found: run the benchmark from the root of a "
            "checkout of the repository"
        )
    for name in _CLEARED_ENV:
        os.environ.pop(name, None)
    os.environ["REPRO_SWEEP_WORKERS"] = "1"
    os.environ["REPRO_TRACE_CACHE"] = str((work / "cache").resolve())
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = (
        f"{src}{os.pathsep}{path}" if path else str(src)
    )
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- statistics ----------------------------------------------------------------


def percentile(values: Iterable[float], q: float, min_tail: int = 10) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks.

    Refuses a percentile with fewer than ``min_tail`` samples beyond it,
    because such a tail is a handful of samples and reads differently
    on every run.
    """
    data = sorted(values)
    n = len(data)
    if n == 0:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    beyond = math.floor(n * (100 - q) / 100)
    if q > 50 and beyond < min_tail:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"need at least {min_tail}"
        )
    rank = (n - 1) * q / 100
    low = math.floor(rank)
    high = min(low + 1, n - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def quartile_spread(values: List[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles``) and (q3 - q1) / median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {
        "median": mid, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / mid if mid else float("inf"),
    }


# -- host speed ----------------------------------------------------------------


#: How long :func:`_probe` takes on an idle vCPU of the machine the
#: bounds were set on (Intel Xeon, 2 vCPUs, Python 3.11).  It only sets
#: the unit of the scaled times: a scaled second is the time the work
#: would take at that speed.
REFERENCE_PROBE_S = 75e-6

#: Seconds between two probes (one probe costs about 0.4 % of a run).
PROBE_INTERVAL_S = 0.02

#: Probes this close to an interval also set its speed.
SPEED_WINDOW_S = 0.1


class _Cell:
    __slots__ = ("value", "links")

    def __init__(self, value: int):
        self.value = value
        self.links: list = []

    def bump(self, amount: int) -> int:
        self.value = (self.value * 31 + amount) & 0xFFFFF
        return self.value


class _Box:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height

    def area(self) -> int:
        return self.width * self.height


class _Square(_Box):
    def area(self) -> int:
        return self.width * self.width


_CELLS = [_Cell(i) for i in range(97)]
for _i, _cell in enumerate(_CELLS):
    _cell.links = [_CELLS[(_i * 7 + 3) % 97], _CELLS[(_i * 13 + 5) % 97]]
_NAMES = {f"k{i}": i for i in range(61)}
_BOXES = [(_Square if i % 3 == 0 else _Box)(i % 11 + 1, i % 7 + 1)
          for i in range(50)]
_WORDS = "alpha beta gamma delta epsilon zeta eta theta iota kappa".split()


def _probe() -> int:
    """A fixed slice of interpreter work of no particular program.

    It mixes method calls and overrides, attribute stores, string
    formatting and methods, dict lookups, tuples, generators, a sort,
    exceptions and a closure, because a probe this varied slows down
    with the interpreter-bound workloads when a co-tenant competes for
    the core; a tight arithmetic loop slows down less.
    """
    cells = _CELLS
    names = _NAMES
    acc = 0
    for i in range(60):
        cell = cells[(i * 17) % 97]
        for link in cell.links:
            acc ^= link.bump(i)
        acc += names.get("k%d" % (acc % 61), 0)
        pair = (acc & 7, i & 3)
        if pair[0] > pair[1]:
            acc -= pair[1]
        else:
            acc += sum(x for x in pair)
        acc += sorted((acc & 255, i, 7))[1]
    total = 0
    for box in _BOXES:
        total += box.area()
    text = "-".join([word.upper() for word in _WORDS if len(word) > 3])
    acc += len(text.split("-")) + total
    for i in range(20):
        try:
            if i % 5 == 0:
                raise KeyError(i)
            acc += i
        except KeyError as exc:
            acc ^= exc.args[0]
    scale = acc & 15
    acc += sum(map(lambda x: x * scale + 1, range(30)))
    return acc + len(f"{acc:x}{total}")


class HostSpeed:
    """Samples the machine's speed through a run and rescales intervals
    of the run to a fixed reference speed.

    On a shared host the same code runs up to 1.6 times slower for
    seconds at a time, each vCPU on its own (a co-tenant on the core's
    sibling thread), so a run's wall time says as much about the
    neighbours as about the program.  While active, a timer signal every
    :data:`PROBE_INTERVAL_S` runs :func:`_probe` on the main thread and
    records how long it took.  :meth:`scaled` turns an interval's wall
    time into the time at the reference speed: the wall time minus the
    probes run inside it, times the mean speed
    (``REFERENCE_PROBE_S / probe seconds``) of the probes inside it and
    within :data:`SPEED_WINDOW_S` of it (of the nearest probe when there
    are none).  Probes are spaced evenly in time, so their mean speed is
    the interval's mean speed.
    """

    def __init__(self, interval: float = PROBE_INTERVAL_S):
        self.interval = interval
        #: per probe: when it started, its timed pass's CPU seconds, and
        #: the wall seconds the whole sample took from the program
        self.starts: List[float] = []
        self.durations: List[float] = []
        self.costs: List[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        # No collection may run inside the probe: its cost depends on the
        # program's heap, and moving the program's collections would move
        # when its garbage is freed, and so its peak memory.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        # The first pass brings the probe's code and data back into the
        # caches the program evicted; only the second is timed.
        _probe()
        cpu = time.thread_time()
        _probe()
        self.durations.append(time.thread_time() - cpu)
        self.costs.append(time.perf_counter() - start)
        self.starts.append(start)
        if collecting:
            gc.enable()

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, seconds: float) -> float:
        """Seconds at the reference speed for the interval that began at
        ``start`` (``perf_counter``) and lasted ``seconds``."""
        if not self.starts:
            raise ValueError("no host-speed probes were recorded")
        end = start + seconds
        inside = self.costs[bisect.bisect_left(self.starts, start):
                            bisect.bisect_left(self.starts, end)]
        # The host's speed holds for a second or more, so the speed of a
        # short interval is taken over the probes near it as well.
        near = self.durations[
            bisect.bisect_left(self.starts, start - SPEED_WINDOW_S):
            bisect.bisect_left(self.starts, end + SPEED_WINDOW_S)
        ]
        if not near:
            nearest = min(
                range(len(self.starts)),
                key=lambda i: abs(self.starts[i] - start),
            )
            near = [self.durations[nearest]]
        speed = statistics.fmean(REFERENCE_PROBE_S / d for d in near)
        return (seconds - sum(inside)) * speed

    def slowdown(self) -> float:
        """Median probe time over the reference time, for the log."""
        return statistics.median(self.durations) / REFERENCE_PROBE_S


# -- digests and references ----------------------------------------------------


def digest_json(value) -> str:
    """Short content digest of a JSON-plain value (key order ignored)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: Trace arrays in a fixed order; the digest covers dtype, shape, bytes.
TRACE_ARRAYS = (
    "b_pc", "b_idx", "b_taken", "b_guard", "b_guard_def", "b_kind",
    "b_region", "b_target", "d_pc", "d_idx", "d_value", "d_pred",
)


def trace_digest(trace) -> str:
    """Content digest of a :class:`repro.trace.Trace`, metadata included."""
    h = hashlib.sha256()
    meta = trace.meta
    h.update(json.dumps([
        meta.workload, meta.scale, meta.compile_config,
        int(meta.instructions), int(meta.return_value),
    ]).encode())
    for name in TRACE_ARRAYS:
        array = getattr(trace, name)
        h.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()[:24]


def trace_key(program: str, config: str) -> str:
    return f"{program}/{config}"


@functools.lru_cache(maxsize=None)
def load_reference(name: str) -> dict:
    """A committed reference, read once per process (callers only read)."""
    with open(REFERENCE_DIR / f"{name}.json") as handle:
        return json.load(handle)


def write_reference(name: str, document: dict) -> None:
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    with open(REFERENCE_DIR / f"{name}.json", "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


class Checker:
    """Counts checked operations and reports every mismatch or failure.

    A *mismatch* is an output that differs from its reference: it makes
    the run incorrect.  A *failure* is an operation that returned an
    error instead of an output: it counts against the failed share but
    says nothing about correctness.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []

    def expect(self, what: str, actual, expected) -> bool:
        """One operation whose output must equal ``expected``."""
        self.attempted += 1
        if actual == expected:
            return True
        self.failed += 1
        self.mismatches.append(
            f"{what}: got {_short(actual)}, reference {_short(expected)}"
        )
        return False

    def failure(self) -> None:
        """One operation that failed outright (no output to check)."""
        self.attempted += 1
        self.failed += 1

    @property
    def correct(self) -> bool:
        return not self.mismatches

    def report(self) -> None:
        for line in self.mismatches:
            print(f"pipebench: MISMATCH {line}", file=sys.stderr)


def _short(value) -> str:
    text = value if isinstance(value, str) else repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


# -- spans -----------------------------------------------------------------------


class Span:
    """A finished (or running) span's start (``perf_counter``) and
    duration, read after the block."""

    __slots__ = ("start", "seconds")

    def __init__(self):
        self.start = 0.0
        self.seconds = 0.0


class Tracer:
    """Benchmark-side spans around calls into the program's layers.

    Records use the program's own span format
    (:func:`repro.telemetry.tracing.make_record`) with derived span ids,
    so ``repro trace show`` renders the file the traced run writes.
    Spans are kept in memory and written once, at the end.  A disabled
    tracer still times each block (callers read ``Span.seconds``) but
    records nothing.
    """

    def __init__(self, trace_id: Optional[str] = None):
        self.enabled = trace_id is not None
        self.trace_id = trace_id
        self.records: List[dict] = []
        self._stack: list = []

    @contextmanager
    def span(self, name: str, **attrs):
        span = Span()
        if not self.enabled:
            start = span.start = time.perf_counter()
            try:
                yield span
            finally:
                span.seconds = time.perf_counter() - start
            return
        from repro.telemetry import tracing

        if self._stack:
            frame = self._stack[-1]
            ctx = tracing.child_context(frame[0], name, frame[1])
            frame[1] += 1
        else:
            ctx = tracing.TraceContext(
                trace_id=self.trace_id,
                span_id=tracing.derive_span_id(
                    self.trace_id, "", name, len(self.records)
                ),
            )
        self._stack.append([ctx, 0])
        wall = time.time()
        start = span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.seconds = time.perf_counter() - start
            self._stack.pop()
            self.records.append(tracing.make_record(
                ctx, name, wall, span.seconds, attrs or None
            ))

    def context(self):
        """The innermost open span's context (``None`` outside spans)."""
        return self._stack[-1][0] if self._stack else None

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for record in self.records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")

    def self_seconds_by_layer(self, layers: Iterable[str]) -> Dict[str, float]:
        """Self time summed per layer; a span belongs to the layer whose
        name is its longest dotted prefix (``sim.fastcore.plan`` ->
        ``sim.fastcore``).  Spans of no layer count as ``pipebench``."""
        from repro.telemetry.traceview import build_tree, self_seconds

        layers = sorted(layers, key=len, reverse=True)
        _, children = build_tree(self.records)
        totals: Dict[str, float] = {}
        for record in self.records:
            name = record["name"]
            layer = next(
                (lay for lay in layers
                 if name == lay or name.startswith(lay + ".")),
                "pipebench",
            )
            totals[layer] = (
                totals.get(layer, 0.0) + self_seconds(record, children)
            )
        return totals


def trace_id_for(workload: str, seed: int) -> str:
    material = f"pipebench:{workload}:{seed}"
    return hashlib.sha256(material.encode()).hexdigest()[:32]


# -- set-up ------------------------------------------------------------------------


def fill_tiny_cache(cache_dir: Path, tracer: Tracer) -> Dict[str, object]:
    """Build the 30 tiny traces into ``cache_dir`` through
    :meth:`Workload.trace`; returns the traces by ``program/config``."""
    from repro.trace import TraceCache
    from repro.workloads import all_workloads

    cache = TraceCache(cache_dir)
    traces = {}
    for workload in all_workloads():
        for config in CONFIGS:
            with tracer.span("pipebench.setup.trace", program=workload.name,
                             config=config, scale=TINY):
                traces[trace_key(workload.name, config)] = workload.trace(
                    scale=TINY, hyperblocks=config == "hyperblock",
                    cache=cache,
                )
    return traces


def check_traces(checker: Checker, traces: Dict[str, object],
                 scale: str) -> None:
    reference = load_reference("traces")[scale]
    for key in sorted(traces):
        checker.expect(f"{scale} trace {key}", trace_digest(traces[key]),
                       reference.get(key))


# -- process memory ------------------------------------------------------------------


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident sets of ``pid`` and its live children."""
    total = 0.0
    for each in [pid] + child_pids(pid):
        total += _vm_hwm_kb(each) / 1024.0
    return total


def child_pids(pid: int) -> List[int]:
    pids: List[int] = []
    task_dir = Path(f"/proc/{pid}/task")
    if not task_dir.is_dir():
        return pids
    for task in task_dir.iterdir():
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        pids.extend(int(tok) for tok in text.split())
    return pids


def _vm_hwm_kb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return 0.0


# -- the result line ---------------------------------------------------------------


def result_line(checker: Checker, metrics: Dict[str, float],
                units: Dict[str, str]) -> str:
    """The JSON object printed as the last line of stdout.

    ``metrics`` must carry exactly the names in ``units``: a missing or
    extra name is a benchmark bug, not a result.
    """
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        raise KeyError(f"metric set differs: missing {missing}, "
                       f"extra {extra}")
    for name, value in metrics.items():
        if not math.isfinite(value) or value == 0:
            raise ValueError(f"metric {name} = {value!r} (must be a "
                             f"finite, non-zero number)")
    return json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    })
