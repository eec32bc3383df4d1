"""The branch target buffer as a pass over the replayed branch stream.

The BTB cannot be decoded up front like the global history: a lookup
happens only when the direction was predicted taken, so its LRU state
depends on the direction replay.  It can run right *after* it, though —
the driver's BTB traffic is fully determined by three per-branch facts:

* only taken branches touch the BTB;
* a taken branch looks its target up when it was predicted taken, i.e.
  when its direction came out correct (a squashed branch counts as
  correct: a known-true squash still needs the target) — a miss there
  is a *misfetch*;
* a taken branch with a known target (``target >= 0``) then inserts it.

A lookup hit and an insert both make the entry most recently used; an
insert that misses evicts the set's LRU entry.  Targets themselves never
change whether a later lookup hits, so the pass tracks only which PCs
each set holds, in LRU order — (set index, tag) is exactly the PC.
"""

import numpy as np

from repro.pipeline.btb import BTBConfig


def btb_misfetches(config: BTBConfig, pc: np.ndarray, taken: np.ndarray,
                   target: np.ndarray, correct: np.ndarray) -> np.ndarray:
    """Per-branch misfetch flags (bool) of a replayed branch stream.

    ``correct`` is the per-branch direction flag the replay produced
    (squashed branches included as correct).
    """
    n = int(pc.shape[0])
    misfetch = np.zeros(n, dtype=bool)
    taken = taken != 0
    lookup = taken & correct
    insert = taken & (target >= 0)
    ops = np.flatnonzero(lookup | insert)
    if ops.shape[0] == 0:
        return misfetch
    sets = [[] for _ in range(config.sets)]
    set_mask = config.sets - 1
    ways = config.ways
    missed = []
    for k, (addr, look, ins) in enumerate(zip(
        pc[ops].tolist(), lookup[ops].tolist(), insert[ops].tolist()
    )):
        entries = sets[addr & set_mask]
        if addr in entries:
            if entries[-1] != addr:
                entries.remove(addr)
                entries.append(addr)
            continue
        if look:
            missed.append(k)
        if ins:
            if len(entries) >= ways:
                del entries[0]
            entries.append(addr)
    misfetch[ops[np.asarray(missed, dtype=np.int64)]] = True
    return misfetch
