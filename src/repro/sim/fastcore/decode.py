"""Pre-decode: lower a trace + options into a flat replay plan.

The key observation that makes vectorised replay possible: in
trace-driven simulation the global history register's evolution is
*prediction-independent* — actual outcomes are shifted in at predict
time and predicate defines at their availability points, neither of
which depends on what any predictor said.  So the entire history stream,
every branch's predict-time history value, the squash mask and the
delayed-update schedule can be computed up front with numpy; only the
counter-table state remains serial, and that is what the replay loops
(:mod:`repro.sim.fastcore.replay`) and the segmented-scan backend
(:mod:`repro.sim.fastcore.batch`) handle.

Two layers:

* :class:`BranchTrace` — the option-independent structure-of-arrays
  branch stream (the seed of the ROADMAP's external trace format).
* :class:`ReplayPlan` — one (BranchTrace, SimOptions) decode: per-branch
  predict-time history values, squash mask, and the merged *event
  stream* (reads, delayed-update applications, squash train-PHT
  updates) in exactly the order the reference driver would perform
  them.  The option-independent per-branch arrays (``pc``, ``taken``,
  ``cls``, ``target``) are views of the plan's :class:`BranchTrace`, so
  any number of plans over one trace share a single copy.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.sim.driver import SimOptions
from repro.trace.container import Trace

_U64 = np.uint64
_FULL64 = _U64(0xFFFFFFFFFFFFFFFF)


@dataclass
class BranchTrace:
    """Option-independent flat branch stream of one executed workload.

    Branch arrays (fetch order): ``pc`` (static index), ``idx`` (dynamic
    instruction index), ``taken`` (outcome), ``guard`` (qualifying
    predicate, 0 = p0), ``guard_def`` (dynamic index of the guard's
    defining write, -1 if never written), ``cls``
    (:class:`~repro.trace.container.BranchClass` value).  Define arrays
    (execution order): ``d_idx``, ``d_value``, ``d_pred``.  ``target``
    is the taken target (-1 when unknown), read only by the BTB pass.

    :meth:`from_trace` takes views, never copies: ``pc`` is int64 and
    ``taken`` a uint8 view of the trace's bool outcomes.
    """

    pc: np.ndarray
    idx: np.ndarray
    taken: np.ndarray
    guard: np.ndarray
    guard_def: np.ndarray
    cls: np.ndarray
    d_idx: np.ndarray
    d_value: np.ndarray
    d_pred: np.ndarray
    target: Optional[np.ndarray] = None
    workload: str = ""
    instructions: int = 0

    @classmethod
    def from_trace(cls, trace: Trace) -> "BranchTrace":
        taken = np.asarray(trace.b_taken)
        return cls(
            pc=np.asarray(trace.b_pc, dtype=np.int64),
            idx=trace.b_idx,
            taken=(
                taken.view(np.uint8) if taken.dtype == np.bool_
                else taken.astype(np.uint8)
            ),
            guard=trace.b_guard,
            guard_def=trace.b_guard_def,
            cls=trace.branch_classes().astype(np.int8, copy=False),
            d_idx=trace.d_idx,
            d_value=trace.d_value,
            d_pred=trace.d_pred,
            target=trace.b_target,
            workload=trace.meta.workload or "<trace>",
            instructions=trace.meta.instructions,
        )

    @property
    def num_branches(self) -> int:
        return int(self.pc.shape[0])


@dataclass
class ReplayPlan:
    """Everything replay needs, decoded once per (trace, decode options).

    The plan depends only on the options :func:`build_plan` reads
    (:func:`plan_key`); BTB geometry and flag recording are applied by
    :func:`~repro.sim.fastcore.run_fast` after replay.
    """

    branches: BranchTrace  #: the shared option-independent stream
    ghr: np.ndarray  #: predict-time history per branch (uint32/uint64)
    squash: Optional[np.ndarray]  #: bool per branch, None without SFP
    # -- event stream, in reference-driver order -------------------------
    #: int32, branch each event belongs to; None = one event per branch
    ev_branch: Optional[np.ndarray]
    #: uint8, event predicts (and counts stats); None = every event
    ev_read: Optional[np.ndarray]
    #: uint8, event applies a counter transition; None = every event
    ev_trans: Optional[np.ndarray]
    applied_updates: int  #: delayed updates that actually applied

    @property
    def workload(self) -> str:
        return self.branches.workload

    @property
    def instructions(self) -> int:
        return self.branches.instructions

    @property
    def n(self) -> int:
        return self.branches.num_branches

    @property
    def pc(self) -> np.ndarray:
        return self.branches.pc

    @property
    def taken(self) -> np.ndarray:
        return self.branches.taken

    @property
    def cls(self) -> np.ndarray:
        return self.branches.cls

    @property
    def uniform(self) -> bool:
        """Every event both reads and trains (the common tight case)."""
        return self.ev_read is None and self.ev_trans is None

    def per_event(self, values: np.ndarray) -> np.ndarray:
        """A per-branch array gathered into event order."""
        if self.ev_branch is None:
            return values
        return values[self.ev_branch]

    def events(self) -> "Events":
        return Events(
            pc=self.per_event(self.pc),
            ghr=self.per_event(self.ghr),
            taken=self.per_event(self.taken),
            read=self.ev_read,
            trans=self.ev_trans,
        )

    def branch_of(self, positions: np.ndarray) -> np.ndarray:
        """Branch indices of the given event positions."""
        if self.ev_branch is None:
            return positions
        return self.ev_branch[positions]


@dataclass
class Events:
    """A replay plan's event stream, gathered into event order.

    ``read``/``trans`` are uint8 flags (``None``: every event reads /
    trains).  Kernels replay an ``Events`` and report, per event, the
    direction their state predicted just before the event's own
    training — the one contract every kernel meets, which is what lets
    the tournament compose its components.
    """

    pc: np.ndarray  #: int64
    ghr: np.ndarray  #: uint32 or uint64
    taken: np.ndarray  #: uint8
    read: Optional[np.ndarray] = None
    trans: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return int(self.pc.shape[0])

    def slice(self, lo: int, hi: int) -> "Events":
        """Events ``lo`` to ``hi`` (views)."""
        return Events(
            pc=self.pc[lo:hi],
            ghr=self.ghr[lo:hi],
            taken=self.taken[lo:hi],
            read=None if self.read is None else self.read[lo:hi],
            trans=None if self.trans is None else self.trans[lo:hi],
        )

    @classmethod
    def single(cls, pc: int, ghist: int, taken: int, read: bool,
               trans: bool) -> "Events":
        """One event, for the scalar predict/train ABI."""
        return cls(
            pc=np.array([pc], dtype=np.int64),
            ghr=np.array([ghist], dtype=np.uint64),
            taken=np.array([1 if taken else 0], dtype=np.uint8),
            read=np.array([1 if read else 0], dtype=np.uint8),
            trans=np.array([1 if trans else 0], dtype=np.uint8),
        )


def plan_key(options: SimOptions) -> tuple:
    """The options a plan depends on — everything :func:`build_plan`
    reads, and nothing else (not ``btb``, not ``record_flags``)."""
    return (
        options.distance,
        options.history_bits,
        options.sfp,
        options.pgu,
        options.delayed_update,
    )


def _squash_mask(bt: BranchTrace, options: SimOptions):
    """Squash mask (:class:`~repro.pipeline.availability.AvailabilityModel`
    semantics) computed from the flat arrays."""
    sfp = options.sfp
    if sfp is None:
        return None
    resolved = (bt.guard_def >= 0) & (
        bt.idx - bt.guard_def >= options.distance
    )
    guarded = bt.guard != 0
    if sfp.squash_known_true:
        return resolved & guarded
    return resolved & ~bt.taken.astype(bool) & guarded


def _pgu_defines(bt: BranchTrace, options: SimOptions):
    """(visible-at-branch positions, bit values) of the kept defines."""
    pgu = options.pgu
    if pgu is None:
        return None
    delay = options.distance if pgu.delay is None else pgu.delay
    d_idx = bt.d_idx
    d_value = bt.d_value
    if pgu.which == "guards_only":
        guard_preds = np.unique(bt.guard[bt.guard > 0]).astype(
            bt.d_pred.dtype
        )
        keep = np.isin(bt.d_pred, guard_preds)
        d_idx = d_idx[keep]
        d_value = d_value[keep]
    # First branch whose fetch sees the define: d_idx + delay <= b_idx.
    visible_at = np.searchsorted(bt.idx, d_idx + delay, side="left")
    in_range = visible_at < bt.num_branches
    return visible_at[in_range], d_value[in_range]


def _history_values(bt: BranchTrace, options: SimOptions,
                    squash: Optional[np.ndarray]) -> np.ndarray:
    """Per-branch predict-time history, via one packed bit stream.

    The stream interleaves predicate-define bits (at their availability
    points) with branch-outcome bits (squashed branches emit only when
    ``sfp.update_history``), exactly as the driver shifts them.  Each
    branch's value is then a 64-bit window extracted from the *reversed*
    packed stream — the register's LSB is the most recent bit — masked
    to ``history_bits``.
    """
    n = bt.num_branches
    length = options.history_bits
    lmask = _FULL64 if length >= 64 else _U64((1 << length) - 1)
    # Histories of at most 32 bits are stored at half width.
    dtype = np.uint32 if length <= 32 else np.uint64
    if n == 0:
        return np.zeros(0, dtype=dtype)

    if squash is None:
        emits = np.ones(n, dtype=bool)
    elif options.sfp.update_history:
        emits = np.ones(n, dtype=bool)
    else:
        emits = ~squash
    # emits_excl[i] = number of emitting branches with index < i.
    emits_excl = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(emits, out=emits_excl[1:])

    defines = _pgu_defines(bt, options)
    if defines is None:
        visible_at = np.zeros(0, dtype=np.int64)
        d_bits = np.zeros(0, dtype=bool)
    else:
        visible_at, d_bits = defines
    # defs_le[i] = defines shifted in by the time branch i predicts
    # (everything visible at or before i precedes i's own read).
    defs_le = np.searchsorted(visible_at, np.arange(n), side="right")

    m = int(visible_at.shape[0]) + int(emits_excl[n])
    bits = np.zeros(m, dtype=np.uint8)
    # Define k sits after the k-1 earlier defines and every emitting
    # branch fetched before its visibility point.
    def_slots = np.arange(visible_at.shape[0]) + emits_excl[visible_at]
    bits[def_slots] = d_bits
    emit_idx = np.flatnonzero(emits)
    bits[defs_le[emit_idx] + emits_excl[emit_idx]] = bt.taken[emit_idx]

    # h[i] = sum_t stream[r_i - 1 - t] << t  (newest bit at the LSB).
    # Reversing the stream turns every window into a contiguous
    # little-endian 64-bit load: h[i] = rev[m - r_i : m - r_i + 64].
    read_pos = defs_le + emits_excl[:n]
    packed = np.packbits(bits[::-1], bitorder="little")
    words = (m >> 6) + 2
    padded = np.zeros(words * 8, dtype=np.uint8)
    padded[: packed.shape[0]] = packed
    table = padded.view(np.uint64)

    start = (m - read_pos).astype(np.uint64)
    word = (start >> _U64(6)).astype(np.int64)
    shift = start & _U64(63)
    low = table[word] >> shift
    high_shift = (_U64(64) - shift) & _U64(63)
    high = np.where(
        shift == 0, _U64(0), table[word + 1] << high_shift
    )
    return ((low | high) & lmask).astype(dtype, copy=False)


def branch_trace(trace) -> BranchTrace:
    """The trace's :class:`BranchTrace`, built once and kept on the
    trace object (it dies with the trace)."""
    if isinstance(trace, BranchTrace):
        return trace
    bt = trace.__dict__.get("_fastcore_branches")
    if bt is None:
        bt = BranchTrace.from_trace(trace)
        trace.__dict__["_fastcore_branches"] = bt
    return bt


def build_plan(trace, options: SimOptions) -> ReplayPlan:
    """Decode one (trace, options) pair into a :class:`ReplayPlan`."""
    bt = branch_trace(trace)
    n = bt.num_branches
    sfp = options.sfp
    squash = _squash_mask(bt, options)
    ghr = _history_values(bt, options, squash)

    train_squashed = sfp is not None and sfp.update_pht
    if squash is None:
        participates = np.ones(n, dtype=bool)
    else:
        participates = ~squash

    applied_updates = 0
    if not options.delayed_update:
        # One event per participating branch (read + transition); a
        # squashed branch appears as a transition-only event when the
        # filter still trains the PHT.
        ev_branch = ev_read = ev_trans = None
        if squash is not None and squash.any():
            if train_squashed:
                # Every branch keeps its event; squashed ones train
                # without reading.
                ev_read = participates.view(np.uint8)
            else:
                ev_branch = np.flatnonzero(participates).astype(np.int32)
    else:
        # Delayed updates: reads stay at their branch; each enqueued
        # update applies just before the first later branch whose fetch
        # index reaches apply_at = idx + distance (pending updates drain
        # before that branch predicts).  Updates never reached by a
        # later branch stay pending forever, exactly like the driver's
        # queue at end of trace.  Squash train-PHT updates are immediate
        # even in delayed mode (the driver calls update() directly).
        read_idx = np.flatnonzero(participates).astype(np.int64)
        apply_at = bt.idx[read_idx] + options.distance
        target = np.searchsorted(bt.idx, apply_at, side="left")
        target = np.maximum(target, read_idx + 1)
        applies = target < n
        upd_idx = read_idx[applies]
        upd_target = target[applies]
        applied_updates = int(upd_idx.shape[0])
        if train_squashed and squash is not None:
            pht_idx = np.flatnonzero(squash).astype(np.int64)
        else:
            pht_idx = np.zeros(0, dtype=np.int64)
        ev_branch = np.concatenate([upd_idx, read_idx, pht_idx])
        ev_read = np.concatenate([
            np.zeros(upd_idx.shape[0], dtype=np.uint8),
            np.ones(read_idx.shape[0], dtype=np.uint8),
            np.zeros(pht_idx.shape[0], dtype=np.uint8),
        ])
        ev_trans = np.concatenate([
            np.ones(upd_idx.shape[0], dtype=np.uint8),
            np.zeros(read_idx.shape[0], dtype=np.uint8),
            np.ones(pht_idx.shape[0], dtype=np.uint8),
        ])
        # Order: by firing position, pending updates draining before the
        # read (or squash update) at the same branch; the stable sort
        # keeps the queue's FIFO order among updates sharing a position.
        pos = np.concatenate([upd_target, read_idx, pht_idx])
        own = np.concatenate([
            np.zeros(upd_idx.shape[0], dtype=np.int64),
            np.ones(read_idx.shape[0], dtype=np.int64),
            np.ones(pht_idx.shape[0], dtype=np.int64),
        ])
        order = np.argsort((pos << 1) | own, kind="stable")
        ev_branch = ev_branch[order].astype(np.int32)
        ev_read = ev_read[order]
        ev_trans = ev_trans[order]

    return ReplayPlan(
        branches=bt,
        ghr=ghr,
        squash=squash,
        ev_branch=ev_branch,
        ev_read=ev_read,
        ev_trans=ev_trans,
        applied_updates=applied_updates,
    )
