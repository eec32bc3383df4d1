"""Differential equivalence: fast simulation cores vs the object core.

The object-model loop in :mod:`repro.sim.driver` is the reference; the
flat-kernel (``fast``) and numpy-batched (``numpy``, the default) cores
must be *bit-identical* to it — same mispredict counts, same per-class
stats, same headline metrics, same BTB misfetches, branch for branch,
and the same trained predictor state afterwards.  This suite enforces
that over the whole workload suite under both compile configs, over the
paper's mechanism space and BTB geometries on focused workloads, over
warm (reused) predictors, and over hypothesis-generated random traces,
and proves the harness can localise a seeded divergence.  Every
reference run names ``core="object"`` explicitly: the default core is
one of the cores under test.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.opcodes import BranchKind
from repro.pipeline import BTBConfig
from repro.predictors import (
    BimodalPredictor,
    GAgPredictor,
    GSelectPredictor,
    GSharePredictor,
    LocalPredictor,
    PerceptronPredictor,
    PGUConfig,
    SFPConfig,
    TagePredictor,
    TournamentPredictor,
)
from repro.sim import SimOptions, simulate, use_core
from repro.sim import fastcore
from repro.trace.container import Trace, TraceMeta
from repro.workloads import get_workload, workload_names

pytestmark = pytest.mark.fastcore

FAST_CORES = ("fast", "numpy")

#: One factory per kernelized predictor family.
PREDICTORS = {
    "bimodal": lambda: BimodalPredictor(entries=512),
    "gshare": lambda: GSharePredictor(entries=1024, history_bits=10),
    "gselect": lambda: GSelectPredictor(entries=1024, history_bits=5),
    "gag": lambda: GAgPredictor(entries=1024),
    "local": lambda: LocalPredictor(
        entries=512, local_entries=64, history_bits=9
    ),
    "tournament": lambda: TournamentPredictor(entries=512),
    "perceptron": lambda: PerceptronPredictor(
        entries=64, history_bits=12
    ),
    "tage": lambda: TagePredictor(base_entries=512, table_entries=128),
}

#: The two headline configurations the full matrix runs under.
MATRIX_OPTIONS = {
    "plain": SimOptions(),
    "sfp+pgu": SimOptions(sfp=SFPConfig(), pgu=PGUConfig()),
}

#: Mechanism-space variants exercised on focused workloads.
VARIANT_OPTIONS = {
    "sfp-pht": SimOptions(sfp=SFPConfig(update_pht=True)),
    "sfp-nohist": SimOptions(sfp=SFPConfig(update_history=False)),
    "sfp-true": SimOptions(sfp=SFPConfig(squash_known_true=True)),
    "pgu0-guards": SimOptions(
        pgu=PGUConfig(delay=0, which="guards_only")
    ),
    "delayed": SimOptions(delayed_update=True),
    "delayed+sfp+pgu": SimOptions(
        delayed_update=True, sfp=SFPConfig(), pgu=PGUConfig()
    ),
    "d0-delayed": SimOptions(distance=0, delayed_update=True),
    "h8": SimOptions(history_bits=8),
    "h64": SimOptions(history_bits=64),
    "btb64x1": SimOptions(btb=BTBConfig(sets=64, ways=1)),
    "btb16x4+sfp-true+pgu": SimOptions(
        btb=BTBConfig(sets=16, ways=4),
        sfp=SFPConfig(squash_known_true=True),
        pgu=PGUConfig(),
    ),
    "btb+delayed+sfp-pht": SimOptions(
        btb=BTBConfig(sets=32, ways=2),
        delayed_update=True,
        sfp=SFPConfig(update_pht=True),
    ),
}

#: BTB points of the whole-suite flag check (record_flags feeds E13).
BTB_OPTIONS = {
    "btb256x2": SimOptions(btb=BTBConfig(sets=256, ways=2),
                           record_flags=True),
    "btb64x1+sfp+pgu": SimOptions(
        btb=BTBConfig(sets=64, ways=1), sfp=SFPConfig(), pgu=PGUConfig(),
        record_flags=True,
    ),
}


def _assert_identical(ref, got, context):
    assert got.headline_metrics() == ref.headline_metrics(), context
    assert got.per_class == ref.per_class, context
    assert got.branches == ref.branches, context
    assert got.mispredictions == ref.mispredictions, context
    assert got.misfetches == ref.misfetches, context
    if ref.flags is not None:
        for name in ("correct", "squashed", "misfetch"):
            assert np.array_equal(
                getattr(got.flags, name), getattr(ref.flags, name)
            ), (context, name)


def _state(predictor):
    """A predictor's full trained state, through its kernel mirror."""
    return fastcore.kernel_from_predictor(predictor).state()


@pytest.mark.parametrize(
    "hyperblocks", [True, False], ids=["hyperblock", "baseline"]
)
@pytest.mark.parametrize("workload", workload_names())
def test_full_matrix(workload, hyperblocks):
    """All workloads x both configs x every kernelized predictor."""
    trace = get_workload(workload).trace(
        scale="tiny", hyperblocks=hyperblocks
    )
    for oname, options in MATRIX_OPTIONS.items():
        for label, factory in PREDICTORS.items():
            ref = simulate(trace, factory(), options, core="object")
            for core in FAST_CORES:
                got = simulate(trace, factory(), options, core=core)
                _assert_identical(
                    ref, got,
                    f"{workload}/{oname}/{label} on core {core}",
                )


@pytest.mark.parametrize("oname", sorted(VARIANT_OPTIONS))
@pytest.mark.parametrize("workload", ["crc", "grep"])
def test_option_variants(workload, oname):
    """Every mechanism knob, checked branch-for-branch via the harness."""
    trace = get_workload(workload).trace(scale="tiny", hyperblocks=True)
    options = VARIANT_OPTIONS[oname]
    for label, factory in PREDICTORS.items():
        batchable = fastcore.batch_supported(
            fastcore.kernel_from_predictor(factory())
        )
        for core in FAST_CORES:
            if core == "numpy" and not batchable:
                # No numpy backend (local histories are serial); the
                # public knob falls back to the scalar fast loop, which
                # the "fast" leg of this loop already checks.
                continue
            report = fastcore.differential_check(
                trace, factory, options, core=core
            )
            assert report.matches, report.summary()
            assert report.first_divergence is None


@pytest.mark.parametrize(
    "hyperblocks", [True, False], ids=["hyperblock", "baseline"]
)
@pytest.mark.parametrize("workload", workload_names())
def test_btb_and_flags_full_suite(workload, hyperblocks):
    """Misfetch and per-branch flags (E12/E13's inputs) on every
    workload, for a table kernel and a serial one."""
    trace = get_workload(workload).trace(
        scale="tiny", hyperblocks=hyperblocks
    )
    for oname, options in BTB_OPTIONS.items():
        for label in ("gshare", "tournament"):
            factory = PREDICTORS[label]
            ref = simulate(trace, factory(), options, core="object")
            for core in FAST_CORES:
                got = simulate(trace, factory(), options, core=core)
                _assert_identical(
                    ref, got,
                    f"{workload}/{oname}/{label} on core {core}",
                )


def test_trained_state_matches_object_predictor():
    """Replay leaves the kernel tables exactly as object training does."""
    trace = get_workload("crc").trace(scale="tiny", hyperblocks=True)
    predictor = GSharePredictor(entries=1024, history_bits=10)
    simulate(trace, predictor, SimOptions(), core="object")
    for core in FAST_CORES:
        kernel = fastcore.kernel_from_predictor(
            GSharePredictor(entries=1024, history_bits=10)
        )
        fastcore.run_fast(
            trace,
            GSharePredictor(entries=1024, history_bits=10),
            SimOptions(),
            core=core,
            kernel=kernel,
            require=True,
        )
        assert kernel.table == list(predictor.counters.table), core


@pytest.mark.parametrize("label", sorted(PREDICTORS))
def test_warm_start_two_runs_one_predictor(label):
    """A predictor reused across ``simulate`` calls keeps its training
    on every core: each core starts the second run from the state the
    first left, and leaves the same state the object core does."""
    factory = PREDICTORS[label]
    workloads = (
        workload_names() if label == "gshare" else ["qsort", "grep"]
    )
    for workload in workloads:
        trace = get_workload(workload).trace(
            scale="tiny", hyperblocks=True
        )
        for options in MATRIX_OPTIONS.values():
            ref_predictor = factory()
            refs = [
                simulate(trace, ref_predictor, options, core="object")
                for _ in range(2)
            ]
            for core in FAST_CORES:
                predictor = factory()
                for run, ref in enumerate(refs):
                    got = simulate(trace, predictor, options, core=core)
                    _assert_identical(
                        ref, got,
                        f"{workload}/{label} run {run + 1} on {core}",
                    )
                assert _state(predictor) == _state(ref_predictor), (
                    workload, label, core,
                )


def _btb_fixture_trace():
    """Taken branches through a one-set, two-way BTB (set 0, tag = pc).

    Branch 3 is taken with an unknown target (``target < 0``) and
    predicted taken, so its lookup hit makes pc 1 most recently used
    and the insert at branch 4 evicts pc 2 instead; branch 5 then hits.
    Branches 7-9 (pc 6, also ``target < 0``) look up only once the
    bimodal counter predicts taken, missing each time it does.
    """
    rows = [  # (pc, target); every branch is taken
        (1, 100), (1, 100), (2, 200), (1, -1), (3, 300), (1, 100),
        (4, 400), (6, -1), (6, -1), (6, -1),
    ]
    n = len(rows)
    return Trace.from_lists(
        b_pc=[pc for pc, _ in rows],
        b_idx=[4 * i for i in range(n)],
        b_taken=[True] * n,
        b_guard=[0] * n,
        b_guard_def=[-1] * n,
        b_kind=[int(BranchKind.COND)] * n,
        b_region=[False] * n,
        b_target=[target for _, target in rows],
        d_pc=[], d_idx=[], d_value=[], d_pred=[],
        meta=TraceMeta(workload="btb-fixture", instructions=4 * n),
    )


def test_btb_unknown_target_predicted_taken_fixture():
    trace = _btb_fixture_trace()
    options = SimOptions(
        btb=BTBConfig(sets=1, ways=2), record_flags=True
    )
    ref = simulate(trace, BimodalPredictor(entries=16), options,
                   core="object")
    # Direction: pcs 1/2/3/4/6 start weakly not-taken.
    assert ref.flags.correct.tolist() == [
        False, True, False, True, False, True, False, False, True, True,
    ]
    assert np.flatnonzero(ref.flags.misfetch).tolist() == [8, 9]
    for core in FAST_CORES:
        got = simulate(trace, BimodalPredictor(entries=16), options,
                       core=core)
        _assert_identical(ref, got, f"btb fixture on {core}")


class TestSeededDivergence:
    """Corrupt one kernel table entry; the harness must localise it."""

    def _first_read_entry(self, trace, kernel, options):
        plan = fastcore.build_plan(trace, options)
        return plan, int(
            kernel.batch_index(plan.pc[:1], plan.ghr[:1])[0]
        )

    @pytest.mark.parametrize("core", FAST_CORES)
    def test_reports_first_diverging_branch(self, core):
        trace = get_workload("crc").trace(
            scale="tiny", hyperblocks=True
        )
        factory = PREDICTORS["gshare"]
        kernel = fastcore.kernel_from_predictor(factory())
        _, entry = self._first_read_entry(trace, kernel, SimOptions())
        # Flip the prediction the very first branch will read.
        kernel.table[entry] = 3 if kernel.table[entry] < 2 else 0
        report = fastcore.differential_check(
            trace, factory, SimOptions(), core=core, kernel=kernel
        )
        assert not report.matches
        assert report.first_divergence == 0
        assert report.predictor == factory().name
        assert str(report.first_divergence) in report.summary()
        assert core in report.summary()

    def test_clean_kernel_reports_agreement(self):
        trace = get_workload("crc").trace(
            scale="tiny", hyperblocks=True
        )
        factory = PREDICTORS["gshare"]
        report = fastcore.differential_check(
            trace, factory, SimOptions(), core="fast"
        )
        assert report.matches
        assert report.first_divergence is None
        assert "agree" in report.summary()


# -- random-trace equivalence --------------------------------------------------


def random_trace(draw):
    """A structurally valid random trace: sorted dynamic indices,
    guard-define links consistent with the predicate-define stream."""
    n = draw(st.integers(min_value=1, max_value=60))
    last_def = {}
    branches = []
    pdefs = []
    idx = 0
    for _ in range(n):
        idx += draw(st.integers(min_value=1, max_value=5))
        if draw(st.booleans()):
            pred = draw(st.integers(min_value=1, max_value=3))
            pdefs.append(
                (
                    draw(st.integers(min_value=0, max_value=15)),
                    idx,
                    draw(st.integers(min_value=0, max_value=1)),
                    pred,
                )
            )
            last_def[pred] = idx
            idx += draw(st.integers(min_value=1, max_value=3))
        guard = draw(st.integers(min_value=0, max_value=3))
        kind = draw(
            st.sampled_from(
                [BranchKind.COND, BranchKind.LOOP, BranchKind.EXIT]
            )
        )
        branches.append(
            (
                draw(st.integers(min_value=0, max_value=15)),
                idx,
                draw(st.booleans()),
                guard,
                last_def.get(guard, -1) if guard else -1,
                kind,
                draw(st.booleans()),
                draw(st.integers(min_value=-1, max_value=15)),
            )
        )
    return Trace.from_lists(
        b_pc=[b[0] for b in branches],
        b_idx=[b[1] for b in branches],
        b_taken=[b[2] for b in branches],
        b_guard=[b[3] for b in branches],
        b_guard_def=[b[4] for b in branches],
        b_kind=[int(b[5]) for b in branches],
        b_region=[b[6] for b in branches],
        b_target=[b[7] for b in branches],
        d_pc=[d[0] for d in pdefs],
        d_idx=[d[1] for d in pdefs],
        d_value=[d[2] for d in pdefs],
        d_pred=[d[3] for d in pdefs],
        meta=TraceMeta(workload="random", instructions=idx + 1),
    )


RANDOM_OPTIONS = [
    SimOptions(),
    SimOptions(sfp=SFPConfig(), pgu=PGUConfig()),
    SimOptions(delayed_update=True, sfp=SFPConfig(update_pht=True)),
    SimOptions(distance=1, pgu=PGUConfig(delay=0)),
    SimOptions(btb=BTBConfig(sets=2, ways=2), record_flags=True),
    SimOptions(
        btb=BTBConfig(sets=4, ways=1),
        sfp=SFPConfig(squash_known_true=True),
        record_flags=True,
    ),
]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_trace_equivalence(data):
    trace = random_trace(data.draw)
    options = data.draw(st.sampled_from(RANDOM_OPTIONS))
    label = data.draw(st.sampled_from(sorted(PREDICTORS)))
    factory = PREDICTORS[label]
    ref = simulate(trace, factory(), options, core="object")
    for core in FAST_CORES:
        got = simulate(trace, factory(), options, core=core)
        _assert_identical(ref, got, f"random/{label} on core {core}")


def test_empty_trace_all_cores():
    trace = Trace.from_lists(
        b_pc=[], b_idx=[], b_taken=[], b_guard=[], b_guard_def=[],
        b_kind=[], b_region=[], b_target=[],
        d_pc=[], d_idx=[], d_value=[], d_pred=[],
        meta=TraceMeta(workload="empty", instructions=0),
    )
    for label, factory in PREDICTORS.items():
        ref = simulate(trace, factory(), SimOptions(), core="object")
        for core in FAST_CORES:
            got = simulate(trace, factory(), SimOptions(), core=core)
            assert got.branches == ref.branches == 0, label
            assert got.mispredictions == ref.mispredictions == 0, label


# -- core knob plumbing --------------------------------------------------------


def test_unsupported_predictor_falls_back_to_object():
    from repro import telemetry
    from repro.predictors import make_predictor

    trace = get_workload("crc").trace(scale="tiny", hyperblocks=True)
    predictor = make_predictor("static", policy="btfn")
    assert not fastcore.kernelizable(predictor)
    shared = GSharePredictor(entries=256)
    assert not fastcore.kernelizable(
        TournamentPredictor(entries=256, component_a=shared,
                            component_b=shared)
    )
    ref = simulate(trace, make_predictor("static", policy="btfn"),
                   SimOptions(), core="object")
    with telemetry.use_registry(telemetry.MetricsRegistry()) as registry:
        got = simulate(trace, predictor, SimOptions(), core="fast")
    assert got.headline_metrics() == ref.headline_metrics()
    counters = registry.snapshot()["counters"]
    assert not any(name.startswith("sim.core.") for name in counters)


def test_plan_cache_keys_on_decode_options_only():
    """BTB geometry and flag recording never reach the decode, so E12
    and E13 points reuse the plain plan instead of decoding twice."""
    trace = get_workload("crc").trace(scale="tiny", hyperblocks=True)
    trace.__dict__.pop("_fastcore_plans", None)
    for options in (
        SimOptions(),
        SimOptions(record_flags=True),
        SimOptions(btb=BTBConfig(sets=256, ways=2)),
        SimOptions(btb=BTBConfig(sets=64, ways=1), record_flags=True),
    ):
        simulate(trace, PREDICTORS["gshare"](), options, core="fast")
    assert len(trace.__dict__["_fastcore_plans"]) == 1
    simulate(trace, PREDICTORS["gshare"](), SimOptions(distance=8),
             core="fast")
    assert len(trace.__dict__["_fastcore_plans"]) == 2


def test_plans_share_arrays():
    """Plans over one trace share the option-independent branch arrays,
    which are views of the trace, and store history at half width."""
    trace = get_workload("grep").trace(scale="tiny", hyperblocks=True)
    plain = fastcore.build_plan(trace, SimOptions())
    sfp = fastcore.build_plan(trace, SimOptions(sfp=SFPConfig()))
    both = fastcore.build_plan(
        trace, SimOptions(sfp=SFPConfig(), pgu=PGUConfig())
    )
    assert plain.branches is sfp.branches is both.branches
    # Views of the trace, not copies.
    assert np.shares_memory(plain.pc, trace.b_pc)
    assert np.shares_memory(plain.taken, trace.b_taken)
    assert plain.ghr.dtype == np.uint32
    assert plain.ev_branch is None and plain.uniform


def test_use_core_context_and_flags():
    trace = get_workload("crc").trace(scale="tiny", hyperblocks=True)
    opts = SimOptions(record_flags=True)
    ref = simulate(trace, PREDICTORS["gshare"](), opts, core="object")
    with use_core("fast"):
        got = simulate(trace, PREDICTORS["gshare"](), opts)
    assert np.array_equal(got.flags.correct, ref.flags.correct)
    assert np.array_equal(got.flags.squashed, ref.flags.squashed)
    assert np.array_equal(got.flags.misfetch, ref.flags.misfetch)


def test_same_run_id_across_cores():
    """sim_core lives in the envelope, so records hash identically."""
    from repro import telemetry
    from repro.runstore import RunRecorder

    trace = get_workload("crc").trace(scale="tiny", hyperblocks=True)
    records = {}
    for core in ("object", "fast"):
        recorder = RunRecorder("simulate", "crc", scale="tiny")
        recorder.record.sim_core = core
        with telemetry.use_registry(
            telemetry.MetricsRegistry()
        ) as registry:
            result = simulate(
                trace, PREDICTORS["gshare"](), SimOptions(), core=core
            )
        recorder.add_sim_result(result, prefix="crc")
        records[core] = recorder.finish(registry)
    assert records["object"].run_id == records["fast"].run_id
    for core, record in records.items():
        assert record.to_dict()["sim_core"] == core
        assert "sim_core" not in record.payload()


def test_fastcore_telemetry_counters_match_object():
    from repro import telemetry

    trace = get_workload("grep").trace(scale="tiny", hyperblocks=True)
    options = SimOptions(sfp=SFPConfig(), pgu=PGUConfig())
    snapshots = {}
    for core in ("object", "fast", "numpy"):
        with telemetry.use_registry(
            telemetry.MetricsRegistry()
        ) as registry:
            simulate(trace, PREDICTORS["gshare"](), options, core=core)
        snapshots[core] = registry.snapshot()["counters"]
    for core in FAST_CORES:
        got = dict(snapshots[core])
        used = got.pop(f"sim.core.{core}")
        assert used == 1
        assert got == snapshots["object"], core
