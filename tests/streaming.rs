//! Streamed cells against capture + replay.
//!
//! Attribution and nursery cells stream their micro-ops straight into
//! the core model instead of capturing a trace and replaying it once.
//! Neither core reacts to phase changes or frame events, so the two
//! routes must produce the same `ExecutionStats`, field for field, under
//! every run-time — and a streamed cell recovered from seeded faults must
//! equal its fault-free twin, because each checkpoint clones the core
//! along with the machine. A µarch sweep replays one capture through a
//! fan-out of OOO lanes, and each lane must equal a core streamed from a
//! run of its own. The fuzz oracle's strict chaos check streams its
//! fault-free twin and its chaos tier into simple cores, and each stream
//! must equal a replay of the trace it used to capture.

use qoa_chaos::FaultPlan;
use qoa_core::harness::{run_cell, CellChaos};
use qoa_core::{
    breakdown_cell, capture, capture_chaos, cell_seed, fault_kinds_for, nursery_cell,
    run_chaos_with_sink, run_with_sink, Breakdown, CellKey, ChaosOptions, Harness,
    HarnessOptions, RuntimeConfig, SinkRun,
};
use qoa_core::sweeps::{fig7_runtimes, sweep_trace, SweepParam, SCALED_DEFAULT_NURSERY};
use qoa_fuzz::oracle::{chaos_options, ORACLE_FUEL};
use qoa_fuzz::{generate_source, program_seed, GenConfig};
use qoa_model::{Phase, RuntimeKind};
use qoa_uarch::{ExecutionStats, OooCore, SimpleCore, UarchConfig};
use qoa_workloads::{by_name, corpus_suite, Scale};

/// Small tiny-scale programs: two short ones and `json_loads`, whose
/// PyPy-model runs collect the nursery several times at `NURSERY`.
const WORKLOADS: [&str; 3] = ["regex_compile", "template_render", "json_loads"];

/// A small nursery, so the nursery cells collect often.
const NURSERY: u64 = 64 << 10;

fn key(name: &str, kind: RuntimeKind, param: &str) -> CellKey {
    CellKey::new(name, format!("{kind:?}"), param, "streaming")
}

/// Everything but the sink of a run, in a comparable form.
fn run_facts<S>(run: &SinkRun<S>) -> String {
    let (_, vm, jit, output, result) = run;
    format!("{vm:?} {jit:?} {output:?} {result:?}")
}

fn streamed<S: qoa_model::OpSink + Clone>(
    src: &str,
    rt: &RuntimeConfig,
    chaos: Option<CellChaos>,
    key: &CellKey,
    sink: S,
) -> (S, String) {
    let run = run_cell(src, rt, chaos, key, sink).expect("streamed run");
    let facts = run_facts(&run);
    (run.0, facts)
}

#[test]
fn streamed_cells_match_capture_and_replay() {
    let uarch = UarchConfig::skylake();
    let mut collections = 0;
    for name in WORKLOADS {
        let src = by_name(name).expect("workload").source(Scale::Tiny);
        for kind in RuntimeKind::ALL {
            // Attribution cell: SimpleCore.
            let rt = RuntimeConfig::new(kind);
            let k = key(name, kind, "attribution");
            let captured = capture(&src, &rt).expect("capture");
            let replayed = captured.trace.simulate_simple(&uarch);
            let (core, facts) = streamed(&src, &rt, None, &k, SimpleCore::new(&uarch));
            assert_eq!(core.finish(), replayed, "{name} {kind:?}: simple core");
            let capture_facts = format!(
                "{:?} {:?} {:?} {:?}",
                captured.vm, captured.jit, captured.output, captured.result
            );
            assert_eq!(facts, capture_facts, "{name} {kind:?}: run statistics");

            // Nursery cell: OooCore.
            let rt = rt.with_nursery(NURSERY);
            let k = key(name, kind, "nursery");
            let captured = capture(&src, &rt).expect("capture");
            let replayed = captured.trace.simulate_ooo(&uarch);
            let (core, _) = streamed(&src, &rt, None, &k, OooCore::new(&uarch));
            assert_eq!(core.finish(), replayed, "{name} {kind:?}: OOO core");
            collections += captured.vm.gc.minor_collections;
        }
    }
    assert!(collections >= 10, "the nursery cells must exercise the GC: {collections}");
}

#[test]
fn sweep_points_match_streamed_single_configuration_cores() {
    let base = UarchConfig::skylake();
    for name in ["regex_compile", "template_render"] {
        // A third of the tiny size: every sweep point below is a guest run
        // of its own, 36 per run-time.
        let w = by_name(name).expect("workload");
        let src = w.source_with_n(w.base / 3);
        for rt in fig7_runtimes() {
            let rt = rt.with_nursery(SCALED_DEFAULT_NURSERY);
            let trace = capture(&src, &rt).expect("capture").trace;
            for param in SweepParam::ALL {
                for point in sweep_trace(&trace, param, &base) {
                    let cfg = param.apply(&base, point.value);
                    let (core, ..) = run_with_sink(&src, &rt, OooCore::new(&cfg)).expect("run");
                    assert_eq!(
                        point.stats,
                        core.finish(),
                        "{name} {:?} {param:?} @ {}",
                        rt.kind,
                        point.value
                    );
                }
            }
        }
    }
}

#[test]
fn harness_cells_journal_the_replayed_statistics() {
    let dir = std::env::temp_dir().join(format!("qoa-streaming-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = HarnessOptions::new("streaming", "tiny");
    opts.journal_dir = dir.clone();
    let mut h = Harness::open(opts).expect("open harness");
    let uarch = UarchConfig::skylake();
    let name = "json_loads";
    let w = by_name(name).expect("workload");
    let src = w.source(Scale::Tiny);
    for kind in RuntimeKind::ALL {
        let rt = RuntimeConfig::new(kind);
        let replayed = capture(&src, &rt).expect("capture").trace.simulate_simple(&uarch);
        let want = Breakdown::from_stats(name, &replayed);
        let got = breakdown_cell(&mut h, w, Scale::Tiny, &rt, &uarch).expect("breakdown cell");
        assert_eq!((got.cycles, got.instructions), (want.cycles, want.instructions), "{kind:?}");
        assert_eq!(got.shares, want.shares, "{kind:?}: shares");

        let captured = capture(&src, &rt.with_nursery(NURSERY)).expect("capture");
        let replayed = captured.trace.simulate_ooo(&uarch);
        let got =
            nursery_cell(&mut h, w, Scale::Tiny, &rt, &uarch, NURSERY, "").expect("nursery cell");
        let gc =
            replayed.cycles_by_phase[Phase::GcMinor] + replayed.cycles_by_phase[Phase::GcMajor];
        assert_eq!(got.cycles, replayed.cycles, "{kind:?}: nursery cycles");
        assert_eq!(got.gc_cycles, gc, "{kind:?}: gc cycles");
        assert_eq!(got.llc_miss_rate, replayed.llc.miss_rate(), "{kind:?}: LLC miss rate");
        assert_eq!(got.minor_collections, captured.vm.gc.minor_collections, "{kind:?}");
    }
    assert!(h.failures().is_empty(), "{:?}", h.failures());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streamed_cells_under_chaos_equal_their_fault_free_twins() {
    let uarch = UarchConfig::skylake();
    let name = "regex_compile";
    let src = by_name(name).expect("workload").source(Scale::Tiny);
    let mut injected = 0;
    for kind in RuntimeKind::ALL {
        let rt = RuntimeConfig::new(kind).with_nursery(NURSERY);
        let k = key(name, kind, "chaos");
        let (simple, facts) = streamed(&src, &rt, None, &k, SimpleCore::new(&uarch));
        let simple = simple.finish();
        let (ooo, _) = streamed(&src, &rt, None, &k, OooCore::new(&uarch));
        let ooo = ooo.finish();
        let bytecodes = capture(&src, &rt).expect("capture").vm.bytecodes;
        let chaos = CellChaos { seed: 7, horizon: bytecodes, points: 3 };

        let (core, chaos_facts) = streamed(&src, &rt, Some(chaos), &k, SimpleCore::new(&uarch));
        assert_eq!(core.finish(), simple, "{kind:?}: simple core under chaos");
        assert_eq!(chaos_facts, facts, "{kind:?}: run statistics under chaos");
        let (core, _) = streamed(&src, &rt, Some(chaos), &k, OooCore::new(&uarch));
        assert_eq!(core.finish(), ooo, "{kind:?}: OOO core under chaos");

        // The same plan `run_cell` derives from the cell key, run directly
        // to see that faults really fired and were recovered by restore.
        let plan = FaultPlan::seeded(
            cell_seed(chaos.seed, &k),
            chaos.horizon,
            chaos.points,
            fault_kinds_for(kind),
        );
        let ((core, ..), outcome) =
            run_chaos_with_sink(&src, &rt, &ChaosOptions::new(plan), SimpleCore::new(&uarch))
                .expect("chaos run");
        let stats: ExecutionStats = core.finish();
        assert_eq!(stats, simple, "{kind:?}: direct chaos run");
        assert_eq!(outcome.faults_injected_total(), outcome.recoveries_total(), "{kind:?}");
        injected += outcome.restores;
    }
    assert!(injected > 0, "no fault was recovered by restore; the test is vacuous");
}

/// The fuzz oracle's strict pair, run as `differential` runs it: the
/// `interp-elided` twin and the chaos tier, each streamed into a simple
/// core, over the first 12 programs of the CI sweep (seed 7) and the
/// corpus anchors.
#[test]
fn fuzz_oracle_strict_pair_streams_match_capture_and_replay() {
    let uarch = UarchConfig::skylake();
    let mut rt = RuntimeConfig::new(RuntimeKind::CPython);
    rt.max_steps = ORACLE_FUEL;
    let cfg = GenConfig::default();
    let generated = (0..12u64).map(|index| {
        let seed = program_seed(7, index);
        (format!("gen-{index:05}"), seed, generate_source(seed, &cfg))
    });
    let anchors =
        corpus_suite().iter().map(|w| (format!("corpus-{}", w.name), 0, w.source(Scale::Tiny)));
    let (mut injected, mut restores) = (0, 0);
    for (name, seed, src) in generated.chain(anchors) {
        let (twin, vm, ..) = run_with_sink(&src, &rt, SimpleCore::new(&uarch)).expect("twin");
        let twin = twin.finish();
        let captured = capture(&src, &rt).expect("capture");
        assert_eq!(twin, captured.trace.simulate_simple(&uarch), "{name}: streamed twin");

        let opts = chaos_options(seed, vm.bytecodes.max(1));
        let ((chaos, ..), outcome) =
            run_chaos_with_sink(&src, &rt, &opts, SimpleCore::new(&uarch)).expect("chaos run");
        let chaos = chaos.finish();
        let (captured, _) = capture_chaos(&src, &rt, &opts).expect("chaos capture");
        assert_eq!(chaos, captured.trace.simulate_simple(&uarch), "{name}: streamed chaos tier");
        assert_eq!(chaos, twin, "{name}: chaos tier vs its fault-free twin");
        injected += outcome.faults_injected_total();
        restores += outcome.restores;
    }
    assert!(
        injected > 0 && restores > 0,
        "the strict check compared only trivial runs: {injected} faults, {restores} restores"
    );
}
