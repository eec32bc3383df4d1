"""Simulation-core selection: ``numpy`` (default), ``fast`` or ``object``.

The driver's object-model loop in :mod:`repro.sim.driver` is the
reference implementation and the differential oracle;
:mod:`repro.sim.fastcore` replays pre-decoded flat arrays through
allocation-free kernels and must stay bit-identical (the differential
suite enforces this).  ``numpy`` — the fast kernels with the batched
backend wherever a kernel has one — is the default; points no kernel
models (static and perfect predictors, profiler collectors) run on the
object loop whatever the knob says.  Because metrics are identical,
the core choice is *not* part of a run's identity: it lives in the
RunRecord envelope, never the payload, and the same config produces the
same ``run_id`` on every core.

Resolution order (mirrors ``REPRO_SWEEP_WORKERS``):

1. an explicit ``core=`` argument,
2. the active :func:`use_core` context (how the CLI threads ``--core``
   through experiment modules without touching their signatures),
3. the ``REPRO_SIM_CORE`` environment variable,
4. ``"numpy"``.
"""

import os
from contextlib import contextmanager

#: Valid values for the ``core`` knob.
CORES = ("object", "fast", "numpy")

#: The core used when nothing selects one.
DEFAULT_CORE = "numpy"

#: Environment variable overriding the default core.
CORE_ENV = "REPRO_SIM_CORE"

_ACTIVE: list = []


def _validate(core: str, source: str) -> str:
    if core not in CORES:
        raise ValueError(
            f"unknown simulation core {core!r} (from {source}); "
            f"choose from {CORES}"
        )
    return core


def resolve_core(core=None) -> str:
    """Resolve the core knob: argument > context > env > ``numpy``."""
    if core is not None:
        return _validate(core, "argument")
    if _ACTIVE:
        return _ACTIVE[-1]
    env = os.environ.get(CORE_ENV, "").strip().lower()
    if env:
        return _validate(env, CORE_ENV)
    return DEFAULT_CORE


@contextmanager
def use_core(core):
    """Install ``core`` as the default for the dynamic extent.

    ``None`` is a no-op (so callers can pass an optional knob through
    unconditionally).  The context is resolved in the *calling*
    process: parallel sweeps capture the resolved core in the parent
    and ship it to workers, so ``use_core`` composes with
    ``workers > 1``.
    """
    if core is None:
        yield
        return
    _ACTIVE.append(_validate(core, "use_core"))
    try:
        yield
    finally:
        _ACTIVE.pop()
