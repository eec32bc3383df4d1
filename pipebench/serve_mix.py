"""The ``serve-mix`` workload: a seeded request stream against ``repro serve``.

The daemon runs as its own process, started through the CLI with one
pool worker on a fresh run store.  The request mix is built as two
streams, as two users would send them; one closed-loop client on one
keep-alive connection sends them interleaved, one request in flight at
a time.  Every stream owns its distinct requests, and a repeat only
names a request the same stream sent earlier, so which requests are
memo hits is fixed by the seed and never by timing.

Each stream has three kinds of entries:

* *fresh* requests: distinct ``simulate`` bodies over programs x every
  advertised predictor x table size x SFP/PGU/distance, plus a fixed
  set of ``sweep`` and ``profile`` bodies -- memo misses that run a job;
* *repeats* of the stream's earlier fresh requests, interleaved with
  them -- memo hits whose cost grows with the store;
* a final *duplicate* phase, more repeats after the last fresh request.

The protocol passes ``entries`` to every predictor, and ``tage``,
``static`` and ``perfect`` do not accept it, so those requests fail with
a 500.  They stay in the stream and count as failed operations.
"""

import os
import random
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from pipebench import harness
from pipebench.harness import TINY, Checker, Span, Tracer

STREAMS = 2
ENTRIES = (1024, 4096)
FRONTENDS = (
    {"sfp": False, "pgu": False, "distance": 4},
    {"sfp": True, "pgu": False, "distance": 4},
    {"sfp": False, "pgu": True, "distance": 4},
    {"sfp": True, "pgu": True, "distance": 4},
    {"sfp": True, "pgu": True, "distance": 0},
    {"sfp": True, "pgu": True, "distance": 8},
)
#: Distinct simulate bodies drawn per (program, predictor) pair.
MISSES_PER_PAIR = 3
REPEATS_PER_STREAM = 800
DUPLICATES_PER_STREAM = 200
#: Sweeps are the slowest requests.  There are enough of them (about 2 %
#: of the successful replies) that the p99 falls inside their group, not
#: on the edge between them and the next-slowest kind.
SWEEPS = 30
SWEEP_PREDICTORS = (
    {"name": "gshare", "entries": 1024}, {"name": "bimodal", "entries": 4096},
    {"name": "local", "entries": 1024}, {"name": "gselect", "entries": 4096},
    {"name": "gag", "entries": 4096},
)
PROFILES = 12
PROFILE_PREDICTORS = ("gshare", "local", "bimodal")

Request = Tuple[str, dict]  #: (op, body)


# -- the request universe -----------------------------------------------------------


def _programs() -> List[str]:
    from repro.workloads import workload_names

    return list(workload_names())


def _predictors() -> List[str]:
    from repro.predictors import available_predictors

    return list(available_predictors())


def simulate_body(program: str, predictor: str, entries: int,
                  frontend: dict) -> dict:
    return dict(workload=program, predictor=predictor, entries=entries,
                scale=TINY, **frontend)


def simulate_universe() -> List[Request]:
    """Every simulate body any seed can draw."""
    return [
        ("simulate", simulate_body(program, predictor, entries, frontend))
        for program in _programs()
        for predictor in _predictors()
        for entries in ENTRIES
        for frontend in FRONTENDS
    ]


def fixed_requests() -> Tuple[List[Request], List[Request]]:
    """The sweep and profile requests every seed sends once."""
    programs = _programs()
    n = len(programs)
    sweeps = [
        ("sweep", {
            "workloads": [programs[i % n],
                          programs[(i + (7 if i < n else 4)) % n]],
            "predictors": [SWEEP_PREDICTORS[i % len(SWEEP_PREDICTORS)]],
            "options": [{}, {"sfp": True, "pgu": True}],
            "scale": TINY,
        })
        for i in range(SWEEPS)
    ]
    profiles = [
        ("profile", {
            "workload": programs[i % n],
            "predictor": PROFILE_PREDICTORS[i % len(PROFILE_PREDICTORS)],
            "entries": 4096, "sfp": True, "pgu": True, "rate": 1,
            "scale": TINY,
        })
        for i in range(PROFILES)
    ]
    return sweeps, profiles


def request_universe() -> List[Request]:
    sweeps, profiles = fixed_requests()
    return simulate_universe() + sweeps + profiles


def request_key(request: Request) -> str:
    """Reference key of one request: its op and body, key order ignored."""
    return harness.digest_json(list(request))


# -- the seeded stream ---------------------------------------------------------------


def request_streams(seed: int) -> List[List[Tuple[str, Request]]]:
    """Per stream, the ordered ``(phase, request)`` list for ``seed``.

    Every seed sends the same number of requests of each kind, and each
    stream gets the same share of every predictor, so the failing share
    hardly moves with the seed.  The seed picks which simulate bodies
    are fresh, which program goes to which stream, and every order.
    """
    rng = random.Random(f"serve-mix:{seed}")
    combos = [(entries, index) for entries in ENTRIES
              for index in range(len(FRONTENDS))]
    fresh: List[List[Request]] = [[] for _ in range(STREAMS)]
    for j, predictor in enumerate(_predictors()):
        programs = _programs()
        rng.shuffle(programs)
        for k, program in enumerate(programs):
            for entries, index in rng.sample(combos, MISSES_PER_PAIR):
                fresh[(j + k) % STREAMS].append(("simulate", simulate_body(
                    program, predictor, entries, FRONTENDS[index]
                )))
    for group in fixed_requests():
        rng.shuffle(group)
        for k, request in enumerate(group):
            fresh[k % STREAMS].append(request)

    streams = []
    for own in fresh:
        rng.shuffle(own)
        slots = ["fresh"] * (len(own) - 1) + ["repeat"] * REPEATS_PER_STREAM
        rng.shuffle(slots)
        slots.insert(0, "fresh")  # a repeat needs an earlier request
        slots += ["duplicate"] * DUPLICATES_PER_STREAM
        pending = iter(own)
        # Repeats and duplicates go to the least-repeated of the
        # stream's finished requests, so every request is sent about
        # equally often.
        sent: Dict[int, int] = {}
        done: List[Request] = []
        stream = []
        for slot in slots:
            if slot == "fresh":
                request = next(pending)
                sent[len(done)] = 1
                done.append(request)
            else:
                least = min(sent.values())
                index = rng.choice([i for i, n in sent.items()
                                    if n == least])
                sent[index] += 1
                request = done[index]
            stream.append((slot, request))
        streams.append(stream)
    return streams


# -- the daemon ----------------------------------------------------------------------


_LISTENING = re.compile(r"listening on http://[^:\s]+:(\d+)")


class Daemon:
    """``repro serve`` in its own process, on an ephemeral port."""

    def __init__(self, store: Path, log: Path, ready_timeout: float = 60.0):
        self.store = store
        self.log = log
        self.ready_timeout = ready_timeout
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> int:
        """Start the daemon; returns once it prints its bound port."""
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--host", "127.0.0.1", "--port", "0", "--workers", "1",
            "--store", str(self.store),
        ]
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=log,
                stdin=subprocess.DEVNULL, env=os.environ.copy(),
            )
        ready, _, _ = select.select(
            [self.proc.stdout], [], [], self.ready_timeout
        )
        line = self.proc.stdout.readline().decode() if ready else ""
        match = _LISTENING.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(
                f"repro serve did not report a port (got {line!r}); "
                f"see {self.log}"
            )
        self.port = int(match.group(1))
        return self.port

    def peak_rss_mb(self) -> float:
        return harness.process_tree_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Interrupt the daemon and wait for it and its pool worker."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        workers = harness.child_pids(proc.pid)
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        for pid in workers:
            _wait_gone(pid)

    def __enter__(self) -> "Daemon":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def _wait_gone(pid: int, timeout: float = 15.0) -> None:
    """Wait for a process that is not our child to exit, then kill it."""
    deadline = time.monotonic() + timeout
    while Path(f"/proc/{pid}").exists():
        if time.monotonic() > deadline:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                return
            deadline = time.monotonic() + timeout
        time.sleep(0.05)


# -- driving the stream ----------------------------------------------------------------


class Reply:
    __slots__ = ("phase", "request", "status", "body", "seconds", "start")

    def __init__(self, phase, request, status, body, seconds, start=0.0):
        self.phase = phase
        self.request = request
        self.status = status
        self.body = body
        self.seconds = seconds
        self.start = start

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def cached(self) -> bool:
        return self.ok and bool(self.body.get("cached"))


def interleave(streams: List[List[Tuple[str, Request]]]) -> List[tuple]:
    """``(stream index, entry)`` pairs, taking the streams' entries in
    turn; each stream keeps its own order."""
    order = []
    for position in range(max(len(stream) for stream in streams)):
        for index, stream in enumerate(streams):
            if position < len(stream):
                order.append((index, stream[position]))
    return order


def drive(port: int, streams: List[List[Tuple[str, Request]]],
          tracer: Optional[Tracer] = None) -> List[List[Reply]]:
    """Send the streams, interleaved, on one closed-loop client; returns
    the replies per stream.

    One connection and one request in flight at a time: with two
    clients, how often a cheap request waited behind the other client's
    job depended on the scheduler, and it moved the median reply by up
    to a quarter between identical runs.
    """
    from repro.serve.client import ServeClient, ServeUnavailable

    timer = tracer or Tracer()
    replies: List[List[Reply]] = [[] for _ in streams]
    with ServeClient(port=port, timeout=120.0) as client:
        for index, (phase, request) in interleave(streams):
            op, body = request
            with timer.span(f"serve.{op}", phase=phase) as span:
                try:
                    status, reply = client.submit(op, **body)
                except ServeUnavailable as exc:
                    status, reply = 0, {"error": {"message": str(exc)}}
            replies[index].append(Reply(phase, request, status, reply,
                                        span.seconds, span.start))
    return replies


def check_replies(replies: List[Reply], checker: Checker) -> None:
    """Every successful reply's metrics must equal the reference; every
    other reply is a failed operation, listed on stderr."""
    reference = harness.load_reference("serve")
    results = reference["results"]
    known = reference["known_failures"]
    failures: Dict[str, list] = {}
    for reply in replies:
        key = request_key(reply.request)
        op, body = reply.request
        if reply.ok:
            checker.expect(f"{op} {body}",
                           harness.digest_json(reply.body.get("metrics")),
                           results.get(key))
            continue
        checker.failure()
        error = (reply.body.get("error") or {}) if isinstance(
            reply.body, dict) else {}
        entry = failures.setdefault(key, [reply.request, reply.status,
                                          error.get("code", "?"), 0])
        entry[3] += 1
    if failures:
        unknown = [key for key in failures if key not in known]
        print(f"pipebench: serve-mix {sum(e[3] for e in failures.values())}"
              f" failed replies over {len(failures)} distinct requests "
              f"({len(unknown)} not known to fail):", file=sys.stderr)
        for key in sorted(failures, key=lambda k: str(failures[k][0])):
            (op, body), status, code, count = failures[key]
            tag = "known" if key in known else "NEW"
            print(f"pipebench:   {tag} {status} {code} x{count} {op} "
                  f"{_compact(body)}", file=sys.stderr)


def _compact(body: dict) -> str:
    return " ".join(f"{k}={body[k]}" for k in sorted(body))


def summarize(replies: List[Reply], wall: float) -> dict:
    """Successful replies by kind (each has ``start`` and ``seconds``)."""
    ok = [r for r in replies if r.ok]
    return {
        "latencies": ok,
        "hits": [r for r in ok if r.cached],
        "misses": [r for r in ok if not r.cached],
        "operations": len(ok),
        "detail": {
            "requests": len(replies),
            "ok": len(ok),
            "failed": len(replies) - len(ok),
            "hits": sum(1 for r in ok if r.cached),
            "rps": round(len(ok) / wall, 2),
        },
    }


def serve_mix(seed: int, daemon: Daemon, checker: Checker) -> Tuple[dict, Span]:
    """The measured phase; returns the summary and the phase's span."""
    streams = request_streams(seed)
    with Tracer().span("serve-mix") as phase:
        replies = drive(daemon.port, streams)
    flat = [reply for per_stream in replies for reply in per_stream]
    check_replies(flat, checker)
    return summarize(flat, phase.seconds), phase
