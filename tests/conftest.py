"""Suite-wide test configuration.

The test suite's expectations are written against the *default* core
resolution: ``simulate`` runs on the ``numpy`` core unless a test names
one, and tests that document the reference object loop — differential
oracles, span counts, telemetry snapshots — pass ``core="object"``
explicitly.  An ambient ``REPRO_SIM_CORE`` would silently reroute every
default simulation — results are bit-identical by contract, but
telemetry snapshots would name another core and the suite would no
longer exercise the default it documents.  Pin the knob for the whole
session; tests that want a specific core pass ``core=`` or use
:func:`repro.sim.use_core`.
"""

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def _pin_default_sim_core():
    saved = os.environ.pop("REPRO_SIM_CORE", None)
    yield
    if saved is not None:
        os.environ["REPRO_SIM_CORE"] = saved
