"""Replay of pre-decoded event streams through a kernel.

Every kernel replays the plan's event stream through its own
``replay(events, batch)``, which reports the direction each event
observed (table kernels walk their counters with a scalar loop or, with
``batch``, the numpy scan).  Mispredictions are the reading events whose
bit disagrees with the outcome; event positions map to branch indices
through the plan's ``ev_branch`` array, and all statistics are built
vectorised by the caller.
"""

import numpy as np

from repro.sim.fastcore.decode import ReplayPlan


def replay_plan(kernel, plan: ReplayPlan, batch: bool) -> np.ndarray:
    """Mispredicted branch indices (ascending) of ``plan`` replayed
    through ``kernel``; ``batch`` selects the numpy backend.

    Mutates the kernel's state, so it ends exactly where the object
    predictor's trained state would.
    """
    events = plan.events()
    wrong = kernel.replay(events, batch) != events.taken
    if events.read is not None:
        wrong &= events.read != 0
    return plan.branch_of(np.flatnonzero(wrong))
