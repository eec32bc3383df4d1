"""Numpy-batched replay for table-indexed kernels.

The serial dependency in table replay is per *entry*, not per branch:
events touching different counters never interact.  So the backend
groups the event stream by table index and resolves each entry's
counter walk with a segmented scan instead of a Python loop:

1. Sort events by (table index, stream position) — a composite integer
   key on one ``np.sort`` reproduces a stable grouping at a fraction of
   ``argsort(kind="stable")``'s cost.
2. Represent each event's effect on its counter as a *clamped add*
   ``f(x) = clip(x + a, lo, hi)``.  The taken/not-taken transitions of a
   2-bit saturating counter generate only 18 distinct functions under
   composition (including the identity, which read-only events use), so
   each function is a small int and composition is one 18x18 lookup.
3. A Hillis–Steele inclusive scan over function ids, segmented at index
   boundaries, yields each event's accumulated prefix function; applied
   exclusively to the entry's starting counter value it gives the exact
   state every read observed.  Constant functions absorb under
   composition (``const . g = const``), so saturated prefixes drop out
   of the scan's active set — strongly biased entries finish in a pass
   or two.
4. Every event's predicted direction and the final table state fall
   out vectorised (:func:`scan_counters`).  Table kernels replay
   through it directly; the tournament kernel also walks its chooser
   with it.

Bit-identical to the scalar loops by construction; the differential
suite checks it against the object core anyway.
"""

import numpy as np

# -- the function monoid of a 2-bit saturating counter ------------------------


def _closure():
    """Enumerate compositions of {identity, taken, not-taken}.

    Functions are represented by their image over the domain (0, 1, 2,
    3).  Returns (COMP, IMG, CONST, ident, taken_id, not_taken_id) where
    ``COMP[g, f]`` is "apply f, then g".
    """
    identity = (0, 1, 2, 3)
    taken = (1, 2, 3, 3)
    not_taken = (0, 0, 1, 2)
    funcs = [identity, taken, not_taken]
    index = {f: i for i, f in enumerate(funcs)}
    frontier = list(funcs)
    while frontier:
        new = []
        for g in frontier:
            for f in list(funcs):
                composed = tuple(g[f[x]] for x in range(4))
                if composed not in index:
                    index[composed] = len(funcs)
                    funcs.append(composed)
                    new.append(composed)
        frontier = new
    count = len(funcs)
    comp = np.zeros((count, count), dtype=np.int8)
    for gi, g in enumerate(funcs):
        for fi, f in enumerate(funcs):
            comp[gi, fi] = index[tuple(g[f[x]] for x in range(4))]
    img = np.array(funcs, dtype=np.uint8)
    const = np.array(
        [len(set(f)) == 1 for f in funcs], dtype=bool
    )
    return comp, img, const, index[identity], index[taken], index[
        not_taken
    ]


_COMP, _IMG, _CONST, _IDENT, _TAKEN, _NOT_TAKEN = _closure()


def _stable_group(idx: np.ndarray):
    """Events regrouped by table index, original order within groups.

    Returns (order, sorted_idx).  Uses one composite-key ``np.sort``
    when the key fits 63 bits, else a stable argsort.
    """
    count = idx.shape[0]
    pos_bits = max(1, int(count - 1).bit_length())
    max_idx = int(idx.max())
    if max_idx.bit_length() + pos_bits < 63:
        key = (idx.astype(np.int64) << pos_bits) | np.arange(
            count, dtype=np.int64
        )
        key = np.sort(key)
        order = key & ((1 << pos_bits) - 1)
        return order, key >> pos_bits
    order = np.argsort(idx, kind="stable")
    return order, idx[order]


def batch_supported(kernel) -> bool:
    return bool(getattr(kernel, "batchable", False))


def scan_counters(table: list, idx: np.ndarray, dirs: np.ndarray,
                  trans=None) -> np.ndarray:
    """Vectorised walk of 2-bit counters; the bit each event observed.

    Event ``k`` reads ``table[idx[k]]`` and then, where ``trans[k]``
    (``None``: every event), moves it toward ``dirs[k]``.  Returns the
    predicted direction (counter >= 2) every event saw *before* its own
    transition, as uint8 in event order, and leaves ``table`` (a list,
    updated in place) in the exact state a scalar walk would.
    """
    count = int(idx.shape[0])
    if count == 0:
        return np.zeros(0, dtype=np.uint8)

    order, sorted_idx = _stable_group(idx)
    dirs_sorted = dirs[order] != 0
    funcs = np.where(dirs_sorted, _TAKEN, _NOT_TAKEN).astype(np.int8)
    if trans is not None:
        funcs[trans[order] == 0] = _IDENT

    seg_start = np.empty(count, dtype=bool)
    seg_start[0] = True
    np.not_equal(sorted_idx[1:], sorted_idx[:-1], out=seg_start[1:])
    positions = np.arange(count, dtype=np.int64)
    run_start = np.maximum.accumulate(
        np.where(seg_start, positions, 0)
    )
    pos_in_seg = positions - run_start

    # Inclusive segmented scan over function ids.  The first passes run
    # contiguously over the whole array (almost every prefix is still
    # live, and slicing beats gathers); later passes keep an explicit
    # active set, dropping constant prefixes — composing anything
    # *before* a constant cannot change it, and composing *with* one
    # makes the reader constant too, so pruned values stay exact and
    # strongly biased entries (most of a real table) finish early.
    flat = funcs
    comp = _COMP
    const = _CONST
    step = 1
    while step <= 2 and step < count:
        composed = comp[flat[step:], flat[:-step]]
        np.copyto(flat[step:], composed, where=pos_in_seg[step:] >= step)
        step <<= 1
    active = np.flatnonzero((pos_in_seg >= step) & ~const[flat])
    while active.size:
        flat[active] = comp[flat[active], flat[active - step]]
        step <<= 1
        active = active[
            (pos_in_seg[active] >= step) & ~const[flat[active]]
        ]

    # Exclusive shift within segments: the state an event observes is
    # the prefix *before* it, applied to the entry's starting value.
    excl = np.empty(count, dtype=np.int8)
    excl[0] = _IDENT
    excl[1:] = np.where(seg_start[1:], _IDENT, flat[:-1])

    values = np.asarray(table, dtype=np.uint8)
    start_value = values[sorted_idx]
    bits = np.empty(count, dtype=np.uint8)
    bits[order] = _IMG[excl, start_value] >= 2

    # Final table state: the last event of each segment carries the
    # entry's full composition.
    seg_end = np.empty(count, dtype=bool)
    seg_end[-1] = True
    seg_end[:-1] = seg_start[1:]
    values[sorted_idx[seg_end]] = _IMG[
        flat[seg_end], start_value[seg_end]
    ]
    table[:] = values.tolist()
    return bits
