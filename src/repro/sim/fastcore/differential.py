"""Differential-equivalence harness: object core vs fast kernels.

The fast cores are only trustworthy because they are *checkable*: the
object-model loop in :mod:`repro.sim.driver` stays the reference, and
this module replays the same (trace, predictor, options) point through
both paths and compares per-branch correctness flags bit for bit.  On
a mismatch the report names the predictor, the core and the **first
diverging branch index**, which is the piece of information that
actually localises a kernel bug (aggregate counts only say "something,
somewhere").

Used by ``tests/test_fastcore_differential.py`` across the whole
workload suite, and handy interactively when writing a new kernel.
"""

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from repro.sim.driver import SimOptions, SimResult, simulate


@dataclass
class DivergenceReport:
    """Outcome of one object-vs-fast differential comparison."""

    predictor: str
    workload: str
    core: str  #: the fast core that was checked ("fast" or "numpy")
    matches: bool
    #: branch index of the first differing correctness flag
    #: (``None`` when the cores agree branch for branch)
    first_divergence: Optional[int]
    object_metrics: dict
    fast_metrics: dict

    def summary(self) -> str:
        if self.matches:
            return (
                f"{self.predictor} on {self.workload}: object and "
                f"{self.core} cores agree on every branch"
            )
        where = (
            f"first divergence at branch {self.first_divergence}"
            if self.first_divergence is not None
            else "aggregate metrics differ"
        )
        return (
            f"{self.predictor} on {self.workload}: {self.core} core "
            f"diverges from object core ({where})"
        )


def _first_flag_divergence(
    ref: SimResult, got: SimResult
) -> Optional[int]:
    for name in ("correct", "squashed", "misfetch"):
        a = getattr(ref.flags, name)
        b = getattr(got.flags, name)
        differ = np.nonzero(a != b)[0]
        if differ.size:
            return int(differ[0])
    return None


def differential_check(
    trace,
    predictor_factory: Callable,
    options: SimOptions = SimOptions(),
    core: str = "fast",
    kernel=None,
) -> DivergenceReport:
    """Replay one point on the object core and on ``core``; compare.

    ``predictor_factory`` is called twice so each core trains fresh
    state.  ``kernel`` injects a pre-built (possibly corrupted) kernel
    into the fast path — the seeded-divergence tests use this to prove
    the harness actually localises disagreements.  The fast path runs
    with ``require=True``: a silent backend fallback would make the
    check vacuous.
    """
    from repro.sim import fastcore

    opts = replace(options, record_flags=True)
    ref = simulate(trace, predictor_factory(), opts, core="object")
    got = fastcore.run_fast(
        trace,
        predictor_factory(),
        opts,
        core=core,
        kernel=kernel,
        require=True,
    )
    first = _first_flag_divergence(ref, got)
    ref_metrics = ref.headline_metrics()
    got_metrics = got.headline_metrics()
    matches = (
        first is None
        and ref_metrics == got_metrics
        and ref.per_class == got.per_class
    )
    return DivergenceReport(
        predictor=ref.predictor,
        workload=ref.workload,
        core=core,
        matches=matches,
        first_divergence=first,
        object_metrics=ref_metrics,
        fast_metrics=got_metrics,
    )
