"""Flat predictor kernels: ints in, ints out, raw list tables.

A kernel is the allocation-free counterpart of one
:class:`~repro.predictors.base.BranchPredictor`: its state is plain
Python lists of small ints (picklable, pokeable, trivially diffable).

Every kernel replays a whole :class:`~repro.sim.fastcore.decode.Events`
stream: ``replay(events, batch) -> bits`` returns, per event, the
direction the kernel's state predicted just before that event trained
it.  ``replay`` is each kernel's only implementation of its step; the
scalar ``predict(pc, ghist) -> 0/1`` and ``train(pc, ghist, taken)``
of :class:`Kernel` are one-event replays.

History-indexed quantities are computed up front with numpy — the
global history does not depend on predictions — so only the state walk
stays serial: TAGE precomputes every table's (index, tag) pair, the
perceptron its ±1 history rows, and the tournament runs its two
components and then its chooser as three replays.  Table-indexed kernels
additionally expose ``batch_index(pc, ghr)`` (vectorised index
computation over numpy arrays), which their scalar counter walk and the
numpy backend's counter scan both consume.  The squash false-path
filter and predicate global update are *not* kernels: they act on the
history stream and the squash mask, which the pre-decode pass in
:mod:`repro.sim.fastcore.decode` materialises before any kernel runs.

Building a kernel from a predictor copies its configuration *and* its
current state, and :meth:`store` writes the trained state back after
replay — so a predictor reused across ``simulate`` calls behaves the
same on every core.
"""

from operator import add, mul

import numpy as np

from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gselect import GSelectPredictor
from repro.predictors.gshare import GSharePredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.tage import TagePredictor
from repro.predictors.tournament import TournamentPredictor
from repro.predictors.twolevel import GAgPredictor, LocalPredictor
from repro.sim.fastcore.batch import scan_counters
from repro.sim.fastcore.decode import Events


class KernelError(ValueError):
    """No flat kernel models the given predictor."""


def _copy_into(dest: list, src: list) -> None:
    """Overwrite ``dest`` with ``src`` after a size check."""
    if len(dest) != len(src):
        raise ValueError("state table size mismatch")
    dest[:] = src


def _counter_bits(table: list, idxs: np.ndarray, dirs: np.ndarray,
                  trans) -> np.ndarray:
    """Scalar walk of 2-bit counters (see :func:`scan_counters`)."""
    bits = bytearray(len(idxs))
    k = 0
    if trans is None:
        for i, d in zip(idxs.tolist(), dirs.tolist()):
            value = table[i]
            if value >= 2:
                bits[k] = 1
            if d:
                if value < 3:
                    table[i] = value + 1
            elif value:
                table[i] = value - 1
            k += 1
    else:
        for i, d, tr in zip(idxs.tolist(), dirs.tolist(), trans.tolist()):
            value = table[i]
            if value >= 2:
                bits[k] = 1
            if tr:
                if d:
                    if value < 3:
                        table[i] = value + 1
                elif value:
                    table[i] = value - 1
            k += 1
    return np.frombuffer(bits, dtype=np.uint8)


def counter_bits(table: list, idxs, dirs, trans, batch: bool):
    """Walk 2-bit counters with the numpy scan or the scalar loop."""
    if batch:
        return scan_counters(table, idxs, dirs, trans)
    return _counter_bits(table, idxs, dirs, trans)


class Kernel:
    """Base of every kernel: the scalar predict/train ABI as one-event
    :meth:`replay` calls, so each kernel keeps a single implementation
    of its step and the scalar ABI exercises exactly that code."""

    def predict(self, pc: int, ghist: int) -> int:
        """Predicted direction (0/1); the state is left untouched."""
        return int(self.replay(Events.single(pc, ghist, 0, True, False))[0])

    def train(self, pc: int, ghist: int, taken: int) -> None:
        """Apply one training step with the stored predict-time history,
        exactly what the reference driver passes to
        :meth:`~repro.predictors.base.BranchPredictor.update`."""
        self.replay(Events.single(pc, ghist, taken, False, True))


#: Events per precompute-and-walk step of the kernels whose per-event
#: precompute is large (TAGE probes, perceptron patterns): peak memory
#: stays bounded on long traces, and the result is unchanged because
#: the walk is serial and its state carries across chunks.
CHUNK_EVENTS = 65_536


def _chunked(step, ev: Events) -> np.ndarray:
    """``step`` over ``ev`` in :data:`CHUNK_EVENTS`-sized slices."""
    bits = np.empty(len(ev), dtype=np.uint8)
    for lo in range(0, len(ev), CHUNK_EVENTS):
        hi = min(lo + CHUNK_EVENTS, len(ev))
        bits[lo:hi] = step(ev.slice(lo, hi))
    return bits


class TableKernel(Kernel):
    """Shared shape of the four purely table-indexed kernels."""

    #: numpy backend eligibility (the local kernel opts out)
    batchable = True

    def __init__(self, entries: int, name: str):
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        self.table = [1] * entries
        self.mask = entries - 1
        self.name = name

    # -- vectorised index ----------------------------------------------------

    def batch_index(self, pc: np.ndarray, ghr: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def replay(self, ev: Events, batch: bool = False) -> np.ndarray:
        return counter_bits(
            self.table, self.batch_index(ev.pc, ev.ghr), ev.taken,
            ev.trans, batch,
        )

    # -- state ---------------------------------------------------------------

    def state(self) -> dict:
        return {"table": list(self.table)}

    def load_state(self, state: dict) -> None:
        table = list(state["table"])
        if len(table) != self.mask + 1:
            raise ValueError("state table size mismatch")
        self.table = table

    def load(self, predictor) -> "TableKernel":
        """Adopt ``predictor``'s current counters."""
        self.load_state({"table": predictor.counters.table})
        return self

    def store(self, predictor) -> None:
        """Write the kernel's counters back into ``predictor``."""
        _copy_into(predictor.counters.table, self.table)


class BimodalKernel(TableKernel):
    def __init__(self, entries: int):
        super().__init__(entries, f"bimodal-{entries}")

    def batch_index(self, pc, ghr):
        return (pc.astype(np.uint64) & np.uint64(self.mask)).astype(
            np.int64
        )


class GShareKernel(TableKernel):
    def __init__(self, entries: int, history_bits: int):
        super().__init__(entries, f"gshare-{entries}/h{history_bits}")
        self.history_mask = (1 << history_bits) - 1

    def batch_index(self, pc, ghr):
        hist = ghr & np.uint64(self.history_mask)
        return (
            (pc.astype(np.uint64) ^ hist) & np.uint64(self.mask)
        ).astype(np.int64)


class GSelectKernel(TableKernel):
    def __init__(self, entries: int, history_bits: int, pc_bits: int):
        super().__init__(entries, f"gselect-{entries}/h{history_bits}")
        self.history_bits = history_bits
        self.history_mask = (1 << history_bits) - 1
        self.pc_mask = (1 << pc_bits) - 1

    def batch_index(self, pc, ghr):
        upper = (pc.astype(np.uint64) & np.uint64(self.pc_mask)) << (
            np.uint64(self.history_bits)
        )
        lower = ghr & np.uint64(self.history_mask)
        return ((upper | lower) & np.uint64(self.mask)).astype(np.int64)


class GAgKernel(TableKernel):
    def __init__(self, entries: int):
        super().__init__(entries, f"gag-{entries}")

    def batch_index(self, pc, ghr):
        return (ghr & np.uint64(self.mask)).astype(np.int64)


class LocalKernel(Kernel):
    """PAg-style local kernel: per-PC history feeding a pattern table.

    The pattern index depends on private history mutated at train time,
    so indices cannot be precomputed from the global history stream —
    the kernel replays through its own scalar loop and opts out of the
    numpy backend.
    """

    batchable = False

    def __init__(self, entries: int, local_entries: int,
                 history_bits: int):
        self.table = [1] * entries
        self.mask = entries - 1
        self.histories = [0] * local_entries
        self.local_mask = local_entries - 1
        self.history_mask = (1 << history_bits) - 1
        self.name = f"local-{entries}/l{local_entries}x{history_bits}"

    def replay(self, ev: Events, batch: bool = False) -> np.ndarray:
        table = self.table
        histories = self.histories
        tmask = self.mask
        lmask = self.local_mask
        hmask = self.history_mask
        bits = bytearray(len(ev))
        transs = (
            ev.trans.tolist() if ev.trans is not None
            else [1] * len(ev)
        )
        k = 0
        for pc, t, tr in zip(ev.pc.tolist(), ev.taken.tolist(), transs):
            slot = pc & lmask
            local = histories[slot] & hmask
            idx = local & tmask
            value = table[idx]
            if value >= 2:
                bits[k] = 1
            if tr:
                if t:
                    if value < 3:
                        table[idx] = value + 1
                elif value:
                    table[idx] = value - 1
                histories[slot] = (local << 1) | t
            k += 1
        return np.frombuffer(bits, dtype=np.uint8)

    def state(self) -> dict:
        return {
            "table": list(self.table),
            "histories": list(self.histories),
        }

    def load_state(self, state: dict) -> None:
        table = list(state["table"])
        histories = list(state["histories"])
        if len(table) != self.mask + 1:
            raise ValueError("state table size mismatch")
        if len(histories) != self.local_mask + 1:
            raise ValueError("state history table size mismatch")
        self.table = table
        self.histories = histories

    def load(self, predictor) -> "LocalKernel":
        self.load_state({
            "table": predictor.counters.table,
            "histories": predictor.histories,
        })
        return self

    def store(self, predictor) -> None:
        _copy_into(predictor.counters.table, self.table)
        _copy_into(predictor.histories, self.histories)


class TournamentKernel(Kernel):
    """Chooser of 2-bit counters over two component kernels.

    The components train on every training event whatever the chooser
    says, so each replays on its own first; the chooser then replays as
    a counter table indexed by ``pc ^ history`` that trains, toward the
    component that was right, only where the two disagreed.  With
    ``batch`` the table walks use the numpy scan.
    """

    def __init__(self, entries: int, a, b):
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        self.chooser = [1] * entries
        self.mask = entries - 1
        self.a = a
        self.b = b
        self.name = f"tournament-{entries}({a.name}|{b.name})"

    #: the numpy backend walks the chooser and any table component
    #: with the counter scan
    batchable = True

    def replay(self, ev: Events, batch: bool = False) -> np.ndarray:
        pred_a = self.a.replay(ev, batch)
        pred_b = self.b.replay(ev, batch)
        train = pred_a != pred_b
        if ev.trans is not None:
            train &= ev.trans != 0
        choose = (
            (ev.pc.astype(np.uint64) ^ ev.ghr) & np.uint64(self.mask)
        ).astype(np.int64)
        use_b = counter_bits(
            self.chooser, choose, (pred_b == ev.taken).view(np.uint8),
            train, batch,
        )
        return np.where(use_b != 0, pred_b, pred_a)

    def state(self) -> dict:
        return {
            "chooser": list(self.chooser),
            "a": self.a.state(),
            "b": self.b.state(),
        }

    def load_state(self, state: dict) -> None:
        chooser = list(state["chooser"])
        if len(chooser) != self.mask + 1:
            raise ValueError("state chooser size mismatch")
        self.a.load_state(state["a"])
        self.b.load_state(state["b"])
        self.chooser = chooser

    def load(self, predictor) -> "TournamentKernel":
        """Adopt the chooser; the components load their own state when
        they are built."""
        chooser = list(predictor.chooser.table)
        if len(chooser) != self.mask + 1:
            raise ValueError("state chooser size mismatch")
        self.chooser = chooser
        return self

    def store(self, predictor) -> None:
        _copy_into(predictor.chooser.table, self.chooser)
        self.a.store(predictor.a)
        self.b.store(predictor.b)


class PerceptronKernel(Kernel):
    """Global-history perceptrons with the ±1 history rows precomputed.

    Each distinct history pattern becomes one tuple ``(1, x_1 .. x_h)``
    (``x_i = ±1``, the leading 1 multiplies the bias), so the output is
    ``sum(map(mul, w, x))`` and a training step adds ``±x`` to the
    weights, clamped — the object predictor's arithmetic, bit for bit.
    """

    batchable = False

    def __init__(self, entries: int, history_bits: int,
                 weight_limit: int, threshold: int):
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.mask = entries - 1
        self.history_bits = history_bits
        self.weight_limit = weight_limit
        self.threshold = threshold
        self.weights = [[0] * (history_bits + 1) for _ in range(entries)]
        self.name = f"perceptron-{entries}x{history_bits}"

    def _patterns(self, ghr: np.ndarray):
        """(per-event pattern ids, pattern tuples, negated tuples)."""
        bits = min(self.history_bits, 64)
        hist = ghr.astype(np.uint64)
        if bits < 64:
            hist &= np.uint64((1 << bits) - 1)
        uniq, inverse = np.unique(hist, return_inverse=True)
        signs = np.full(
            (uniq.shape[0], self.history_bits + 1), -1, dtype=np.int64
        )
        signs[:, 0] = 1
        if bits:
            shifts = np.arange(bits, dtype=np.uint64)
            set_bits = (uniq[:, None] >> shifts) & np.uint64(1)
            signs[:, 1:bits + 1] = np.where(set_bits != 0, 1, -1)
        rows = [tuple(row) for row in signs.tolist()]
        negated = [tuple(-x for x in row) for row in rows]
        return inverse.reshape(-1).tolist(), rows, negated

    def replay(self, ev: Events, batch: bool = False) -> np.ndarray:
        return _chunked(self._walk, ev)

    def _walk(self, ev: Events) -> np.ndarray:
        weights = self.weights
        mask = self.mask
        limit = self.weight_limit
        low = -limit
        threshold = self.threshold
        ids, rows, negated = self._patterns(ev.ghr)
        transs = ev.trans.tolist() if ev.trans is not None else None
        bits = bytearray(len(ev))
        # Outputs per (row, pattern), dropped whenever the row trains:
        # most events train nothing, and loops repeat their patterns.
        outputs = [{} for _ in weights]
        for k, (pc, t, pid) in enumerate(
            zip(ev.pc.tolist(), ev.taken.tolist(), ids)
        ):
            row = pc & mask
            known = outputs[row]
            out = known.get(pid)
            if out is None:
                out = known[pid] = sum(map(mul, weights[row], rows[pid]))
            if out >= 0:
                bits[k] = 1
                if t and out > threshold:
                    continue  # right and confident: no training
            elif not t and out < -threshold:
                continue
            if transs is not None and not transs[k]:
                continue
            w = weights[row]
            new = list(map(add, w, rows[pid] if t else negated[pid]))
            if max(new) > limit or min(new) < low:
                new = [
                    limit if v > limit else low if v < low else v
                    for v in new
                ]
            w[:] = new
            known.clear()
        return np.frombuffer(bits, dtype=np.uint8)

    def state(self) -> dict:
        return {"weights": [list(row) for row in self.weights]}

    def load_state(self, state: dict) -> None:
        weights = [list(row) for row in state["weights"]]
        if len(weights) != self.mask + 1 or any(
            len(row) != self.history_bits + 1 for row in weights
        ):
            raise ValueError("state weight table size mismatch")
        self.weights = weights

    def load(self, predictor) -> "PerceptronKernel":
        self.load_state({"weights": predictor.weights})
        return self

    def store(self, predictor) -> None:
        if len(predictor.weights) != len(self.weights):
            raise ValueError("state weight table size mismatch")
        for dest, row in zip(predictor.weights, self.weights):
            _copy_into(dest, row)


#: Useful-bit aging period of :class:`~repro.predictors.tage.TagePredictor`
#: (allocation attempts between global decrements).
_TAGE_AGING_PERIOD = 256_000


class TageKernel(Kernel):
    """TAGE-lite with every (index, tag) pair precomputed.

    Tagged state is flat: entry ``i`` of table ``t`` lives at slot
    ``t * entries + i`` of ``tags``/``counters``/``useful``, so one
    precomputed slot id per (event, table) addresses all three.  Only
    the provider search, counter/useful updates, allocation and aging
    run serially.
    """

    batchable = False

    def __init__(self, base_entries: int, table_entries: int,
                 lengths, tag_bits: int, name: str):
        if base_entries <= 0 or base_entries & (base_entries - 1):
            raise ValueError("entries must be a positive power of two")
        self.base = [1] * base_entries
        self.base_mask = base_entries - 1
        self.entries = table_entries
        self.lengths = list(lengths)
        self.tag_bits = tag_bits
        slots = table_entries * len(self.lengths)
        self.tags = [0] * slots
        self.counters = [3] * slots  # 3-bit, 0..7, >= 4 predicts taken
        self.useful = [0] * slots
        self.ticks = 0
        self.name = name

    # -- hashing -------------------------------------------------------------

    def probes(self, pc: np.ndarray, ghr: np.ndarray):
        """Per-table slot and tag arrays (int64, shape tables x events)."""
        upc = pc.astype(np.uint64)
        hist = ghr.astype(np.uint64)
        mask = self.entries - 1
        index_bits = mask.bit_length()
        tag_mask = np.uint64((1 << self.tag_bits) - 1)
        count = len(self.lengths)
        slots = np.empty((count, upc.shape[0]), dtype=np.int64)
        tags = np.empty((count, upc.shape[0]), dtype=np.int64)
        for table, length in enumerate(self.lengths):
            window = hist
            if length < 64:
                window = hist & np.uint64((1 << length) - 1)
            folded = _fold_array(window, index_bits, min(length, 64))
            slots[table] = (
                (upc ^ folded ^ (upc >> np.uint64(3))) & np.uint64(mask)
            ).astype(np.int64) + table * self.entries
            folded = _fold_array(window, self.tag_bits, min(length, 64))
            tags[table] = (
                (upc ^ (folded << np.uint64(1)) ^ (upc >> np.uint64(5)))
                & tag_mask
            ).astype(np.int64)
        return slots, tags

    # -- replay --------------------------------------------------------------

    def replay(self, ev: Events, batch: bool = False) -> np.ndarray:
        return _chunked(self._walk, ev)

    def _walk(self, ev: Events) -> np.ndarray:
        base = self.base
        tags = self.tags
        ctrs = self.counters
        useful = self.useful
        count = len(self.lengths)
        slots, tag_of = self.probes(ev.pc, ev.ghr)
        columns = [col.tolist() for col in slots[::-1]] + [
            col.tolist() for col in tag_of[::-1]
        ]
        bases = (
            ev.pc.astype(np.uint64) & np.uint64(self.base_mask)
        ).astype(np.int64).tolist()
        transs = ev.trans.tolist() if ev.trans is not None else None
        bits = bytearray(len(ev))
        ticks = self.ticks
        # probe[j] / probe[count + j]: slot / tag of table count-1-j
        # (longest history first, the provider search order).
        for k, (bi, t, *probe) in enumerate(
            zip(bases, ev.taken.tolist(), *columns)
        ):
            provider = alt = -1
            for j in range(count):
                if tags[probe[j]] == probe[count + j]:
                    if provider < 0:
                        provider = j
                    else:
                        alt = j
                        break
            if provider >= 0:
                slot = probe[provider]
                value = ctrs[slot]
                prediction = value >= 4
            else:
                prediction = base[bi] >= 2
            if prediction:
                bits[k] = 1
            if transs is not None and not transs[k]:
                continue
            if provider >= 0:
                alt_prediction = (
                    ctrs[probe[alt]] >= 4 if alt >= 0 else base[bi] >= 2
                )
                if prediction != alt_prediction:
                    if prediction == t:
                        if useful[slot] < 3:
                            useful[slot] += 1
                    elif useful[slot] > 0:
                        useful[slot] -= 1
                if t:
                    if value < 7:
                        ctrs[slot] = value + 1
                elif value > 0:
                    ctrs[slot] = value - 1
            else:
                value = base[bi]
                if t:
                    if value < 3:
                        base[bi] = value + 1
                elif value:
                    base[bi] = value - 1
            if prediction == t:
                continue
            # Allocate on a misprediction in a longer-history table
            # (j < provider in probe order; every table without one).
            stop = provider if provider >= 0 else count
            for j in range(stop - 1, -1, -1):
                slot = probe[j]
                if useful[slot] == 0:
                    tags[slot] = probe[count + j]
                    ctrs[slot] = 4 if t else 3
                    break
            else:
                for j in range(stop - 1, -1, -1):
                    slot = probe[j]
                    if useful[slot] > 0:
                        useful[slot] -= 1
            ticks += 1
            if ticks >= _TAGE_AGING_PERIOD:
                ticks = 0
                useful[:] = [u - 1 if u > 0 else 0 for u in useful]
        self.ticks = ticks
        return np.frombuffer(bits, dtype=np.uint8)

    # -- state ---------------------------------------------------------------

    def state(self) -> dict:
        return {
            "base": list(self.base),
            "tags": list(self.tags),
            "counters": list(self.counters),
            "useful": list(self.useful),
            "ticks": self.ticks,
        }

    def load_state(self, state: dict) -> None:
        base = list(state["base"])
        if len(base) != self.base_mask + 1:
            raise ValueError("state base table size mismatch")
        flat = {}
        for key in ("tags", "counters", "useful"):
            flat[key] = list(state[key])
            if len(flat[key]) != len(self.tags):
                raise ValueError(f"state {key} size mismatch")
        self.base = base
        self.tags = flat["tags"]
        self.counters = flat["counters"]
        self.useful = flat["useful"]
        self.ticks = int(state["ticks"])

    def load(self, predictor) -> "TageKernel":
        self.load_state({
            "base": predictor.base.table,
            "tags": [x for t in predictor.tables for x in t.tags],
            "counters": [x for t in predictor.tables for x in t.counters],
            "useful": [x for t in predictor.tables for x in t.useful],
            "ticks": predictor._ticks,
        })
        return self

    def store(self, predictor) -> None:
        _copy_into(predictor.base.table, self.base)
        size = self.entries
        for number, table in enumerate(predictor.tables):
            lo, hi = number * size, (number + 1) * size
            _copy_into(table.tags, self.tags[lo:hi])
            _copy_into(table.counters, self.counters[lo:hi])
            _copy_into(table.useful, self.useful[lo:hi])
        predictor._ticks = self.ticks


def _fold_array(values: np.ndarray, bits: int, width: int) -> np.ndarray:
    """Vectorised :func:`repro.predictors.tage._fold` of ``width``-bit
    values (uint64)."""
    folded = np.zeros(values.shape[0], dtype=np.uint64)
    if bits <= 0:
        return folded
    mask = np.uint64((1 << bits) - 1)
    for shift in range(0, width, bits):
        folded ^= (values >> np.uint64(shift)) & mask
    return folded


def _from_bimodal(p: BimodalPredictor) -> BimodalKernel:
    return BimodalKernel(p.entries)


def _from_gshare(p: GSharePredictor) -> GShareKernel:
    return GShareKernel(p.entries, p.history_bits)


def _from_gselect(p: GSelectPredictor) -> GSelectKernel:
    return GSelectKernel(p.entries, p.history_bits, p.pc_bits)


def _from_gag(p: GAgPredictor) -> GAgKernel:
    return GAgKernel(p.entries)


def _from_local(p: LocalPredictor) -> LocalKernel:
    return LocalKernel(p.entries, p.local_entries, p.history_bits)


def _from_tournament(p: TournamentPredictor) -> TournamentKernel:
    return TournamentKernel(
        p.entries, kernel_from_predictor(p.a), kernel_from_predictor(p.b)
    )


def _from_perceptron(p: PerceptronPredictor) -> PerceptronKernel:
    return PerceptronKernel(
        p.entries, p.history_bits, p.weight_limit, p.threshold
    )


def _from_tage(p: TagePredictor) -> TageKernel:
    return TageKernel(
        p.base_entries, p.table_entries, p.history_lengths, p.tag_bits,
        p.name,
    )


#: predictor class -> kernel builder.  Exact classes only: a subclass
#: may override behaviour the kernel does not model, so it falls back to
#: the object core instead of silently diverging.
KERNEL_BUILDERS = {
    BimodalPredictor: _from_bimodal,
    GSharePredictor: _from_gshare,
    GSelectPredictor: _from_gselect,
    GAgPredictor: _from_gag,
    LocalPredictor: _from_local,
    TournamentPredictor: _from_tournament,
    PerceptronPredictor: _from_perceptron,
    TagePredictor: _from_tage,
}


def kernelizable(predictor) -> bool:
    """Does a flat kernel model this predictor exactly?"""
    if type(predictor) is TournamentPredictor:
        # One object as both components trains twice per branch, which
        # two independent component kernels cannot mirror.
        return (
            predictor.a is not predictor.b
            and kernelizable(predictor.a)
            and kernelizable(predictor.b)
        )
    return type(predictor) in KERNEL_BUILDERS


def kernel_from_predictor(predictor):
    """A kernel mirroring ``predictor``'s configuration and current
    state; :meth:`store` hands trained state back."""
    builder = KERNEL_BUILDERS.get(type(predictor))
    if builder is None or not kernelizable(predictor):
        raise KernelError(
            f"no flat kernel for {type(predictor).__name__} "
            f"({getattr(predictor, 'name', '?')}); the object core is "
            "the only path for this predictor"
        )
    return builder(predictor).load(predictor)
