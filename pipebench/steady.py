"""Steadiness check: run one workload k times and judge each metric's spread.

Usage, from the root of a checkout::

    python3 pipebench/steady.py --workload serve-mix --runs 5
    python3 pipebench/steady.py --workload serve-mix --runs 10 \\
        --first-seed 100 --save set-a.json
    python3 pipebench/steady.py --workload serve-mix --runs 10 \\
        --first-seed 200 --against set-a.json

Each run gets its own seed.  For every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread ``(q3 - q1) / median`` against the metric's bound from
BENCHMARK.json: ``ok`` below a third of the bound, ``wide`` below the
bound, ``FAIL`` above it.  ``setup_s`` is only reported, since its bound
applies to the shift of its median, not to its spread.  ``--against``
also prints how far each median moved from a saved set, in the worse
direction, against the bound.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from pipebench.harness import quartile_spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, "pipebench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_shift(metric: dict, before: float, after: float) -> float:
    """Relative change of the median, positive when it got worse."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", metavar="PATH",
                        help="write the per-run values as JSON")
    parser.add_argument("--against", metavar="PATH",
                        help="compare medians with a saved set")
    args = parser.parse_args(argv)

    benchmark = json.loads(Path("BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    values = {name: [] for name in metrics}
    for i in range(args.runs):
        seed = args.first_seed + i
        result = run_once(args.workload, seed, benchmark["run_seconds"])
        for name in metrics:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{name}={values[name][-1]:.4g}"
                         for name in metrics), flush=True)

    previous = None
    if args.against:
        previous = json.loads(Path(args.against).read_text())["values"]
    print(f"\n{args.workload}, {args.runs} runs")
    print(f"{'metric':16s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s}  verdict"
          + ("   shift" if previous else ""))
    for name, metric in metrics.items():
        stats = quartile_spread(values[name])
        bound = metric["bound"]
        if name == "setup_s":
            verdict = "(not gated)"
        elif stats["spread"] <= bound / 3:
            verdict = "ok"
        elif stats["spread"] <= bound:
            verdict = "wide"
        else:
            verdict = "FAIL"
        line = (f"{name:16s} {stats['median']:10.4g} {stats['q1']:10.4g} "
                f"{stats['q3']:10.4g} {stats['spread']:7.2%} "
                f"{bound:6.0%}  {verdict}")
        if previous:
            before = quartile_spread(previous[name])["median"]
            shift = worse_shift(metric, before, stats["median"])
            line += f"   {shift:+.2%} {'ok' if shift <= bound else 'FAIL'}"
        print(line)
    if args.save:
        Path(args.save).write_text(json.dumps(
            {"workload": args.workload, "first_seed": args.first_seed,
             "values": values}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
