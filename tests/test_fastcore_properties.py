"""Property tests for the flat predictor kernels.

Drives random ``(pc, outcome)`` streams through an object predictor and
its kernel side by side via the scalar ABI — one-event ``replay``
calls, so these walks run the same code as the fast and numpy cores —
and every prediction must match at every step.  Also checks that
kernel state survives a pickle round trip mid-stream (warm tables keep
predicting identically), that a kernel adopts a trained predictor's
state and hands its own back (:meth:`store`), and that replaying a
stream in chunks changes nothing."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.predictors import (
    BimodalPredictor,
    GAgPredictor,
    GSelectPredictor,
    GSharePredictor,
    LocalPredictor,
    PerceptronPredictor,
    TagePredictor,
    TournamentPredictor,
)
from repro.sim.fastcore import kernel_from_predictor, kernels
from repro.sim.fastcore.decode import Events

pytestmark = pytest.mark.fastcore

FACTORIES = {
    "bimodal": lambda: BimodalPredictor(entries=64),
    "gshare": lambda: GSharePredictor(entries=64, history_bits=6),
    "gselect": lambda: GSelectPredictor(entries=64, history_bits=3),
    "gag": lambda: GAgPredictor(entries=64),
    "local": lambda: LocalPredictor(
        entries=64, local_entries=8, history_bits=6
    ),
    "tournament": lambda: TournamentPredictor(entries=64),
    "perceptron": lambda: PerceptronPredictor(entries=8, history_bits=10),
    # Small tables and tags so random streams hit, alias and allocate.
    "tage": lambda: TagePredictor(
        base_entries=16, table_entries=16, num_tables=3,
        min_history=2, max_history=40, tag_bits=3,
    ),
}

HISTORY_MASK = (1 << 32) - 1

#: A random branch stream: (pc, taken) pairs.
streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=255), st.booleans()
    ),
    min_size=1,
    max_size=200,
)


def run_pair(predictor, kernel, stream):
    """Step both sides through the stream; history evolves as in the
    driver (outcome shifted in at predict time, LSB most recent)."""
    history = 0
    for pc, taken in stream:
        expected = predictor.predict(pc, history)
        got = kernel.predict(pc, history)
        assert bool(got) == bool(expected), (pc, taken, history)
        predictor.update(pc, history, taken)
        kernel.train(pc, history, taken)
        history = ((history << 1) | int(taken)) & HISTORY_MASK


@pytest.mark.parametrize("label", sorted(FACTORIES))
@settings(max_examples=25, deadline=None)
@given(stream=streams)
def test_kernel_matches_object_predictor(label, stream):
    factory = FACTORIES[label]
    run_pair(factory(), kernel_from_predictor(factory()), stream)


@pytest.mark.parametrize("label", sorted(FACTORIES))
@settings(max_examples=25, deadline=None)
@given(stream=streams, split=st.integers(min_value=0, max_value=200))
def test_pickle_roundtrip_mid_stream(label, stream, split):
    """Pickling a warm kernel must not perturb later predictions."""
    factory = FACTORIES[label]
    predictor = factory()
    kernel = kernel_from_predictor(factory())
    split = min(split, len(stream))
    run_pair(predictor, kernel, stream[:split])
    kernel = pickle.loads(pickle.dumps(kernel))
    run_pair(predictor, kernel, stream[split:])


@pytest.mark.parametrize("label", sorted(FACTORIES))
def test_state_roundtrip(label):
    """state()/load_state() is an exact snapshot of a warm kernel."""
    factory = FACTORIES[label]
    warm = kernel_from_predictor(factory())
    history = 0
    for pc in range(300):
        taken = (pc * 7) % 3 == 0
        warm.train(pc & 255, history, taken)
        history = ((history << 1) | int(taken)) & HISTORY_MASK
    fresh = kernel_from_predictor(factory())
    fresh.load_state(warm.state())
    assert fresh.state() == warm.state()
    for pc in range(64):
        assert fresh.predict(pc, history) == warm.predict(pc, history)


@pytest.mark.parametrize("label", sorted(FACTORIES))
@settings(max_examples=15, deadline=None)
@given(stream=streams, split=st.integers(min_value=0, max_value=200))
def test_kernel_adopts_and_stores_predictor_state(label, stream, split):
    """A kernel built from a trained predictor continues exactly where
    the predictor stands, and :meth:`store` hands the state back."""
    factory = FACTORIES[label]
    predictor = factory()
    split = min(split, len(stream))
    run_pair(predictor, kernel_from_predictor(factory()), stream[:split])
    kernel = kernel_from_predictor(predictor)
    assert kernel.state() == kernel_from_predictor(predictor).state()
    run_pair(predictor, kernel, stream[split:])
    fresh = factory()
    kernel.store(fresh)
    assert kernel_from_predictor(fresh).state() == kernel.state()
    assert kernel_from_predictor(predictor).state() == kernel.state()


def test_tage_periodic_aging_matches():
    """Start one misprediction short of TAGE's global useful-bit aging
    (every 256,000 allocation attempts); the kernel must age exactly
    when and as the object predictor does."""
    factory = FACTORIES["tage"]
    predictor = factory()
    stream = [((pc * 37) % 251, (pc * 11) % 3 != 0) for pc in range(400)]
    run_pair(predictor, kernel_from_predictor(factory()), stream)
    assert any(u for table in predictor.tables for u in table.useful)
    predictor._ticks = 256_000 - 1
    kernel = kernel_from_predictor(predictor)
    run_pair(predictor, kernel, stream)
    assert predictor._ticks < 256_000 - 1  # the aging pass ran
    assert kernel_from_predictor(predictor).state() == kernel.state()


def test_load_state_rejects_wrong_size():
    kernel = kernel_from_predictor(FACTORIES["gshare"]())
    state = kernel.state()
    bad = dict(state)
    bad["table"] = bad["table"][:-1]
    with pytest.raises(ValueError):
        kernel.load_state(bad)


@pytest.mark.parametrize("label", ["perceptron", "tage"])
@settings(max_examples=15, deadline=None)
@given(
    stream=streams,
    trains=st.lists(st.booleans(), min_size=200, max_size=200),
    chunk=st.integers(min_value=1, max_value=40),
)
def test_chunked_replay_matches_whole(label, stream, trains, chunk):
    """Kernels that precompute per chunk carry their state across chunk
    boundaries: any chunk size gives the bits and the state of one
    pass."""
    factory = FACTORIES[label]
    history, ghr = 0, []
    for _, taken in stream:
        ghr.append(history)
        history = ((history << 1) | int(taken)) & HISTORY_MASK
    events = Events(
        pc=np.array([pc for pc, _ in stream], dtype=np.int64),
        ghr=np.array(ghr, dtype=np.uint64),
        taken=np.array([t for _, t in stream], dtype=np.uint8),
        trans=np.array(trains[:len(stream)], dtype=np.uint8),
    )
    whole = kernel_from_predictor(factory())
    expected = whole.replay(events)
    original = kernels.CHUNK_EVENTS
    kernels.CHUNK_EVENTS = chunk
    try:
        chunked = kernel_from_predictor(factory())
        got = chunked.replay(events)
    finally:
        kernels.CHUNK_EVENTS = original
    assert np.array_equal(got, expected)
    assert chunked.state() == whole.state()
