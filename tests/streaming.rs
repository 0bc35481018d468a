//! Streamed cells against capture + replay.
//!
//! Attribution and nursery cells stream their micro-ops straight into
//! the core model instead of capturing a trace and replaying it once.
//! Neither core reacts to phase changes or frame events, so the two
//! routes must produce the same `ExecutionStats`, field for field, under
//! every run-time — and a streamed cell recovered from seeded faults must
//! equal its fault-free twin, because each checkpoint clones the core
//! along with the machine. A replay of one capture through a fan-out of
//! OOO lanes must give, in each lane, what a core streamed from a run of
//! its own gives. The sweep cells stream one run per pair into all 36
//! lanes and must journal exactly what replaying a capture parameter by
//! parameter gives, at any worker count and under seeded faults. The
//! fuzz oracle's strict chaos check streams its fault-free twin and its
//! chaos tier into simple cores, and each stream must equal a replay of
//! the trace it used to capture.

use qoa_chaos::FaultPlan;
use qoa_core::harness::{run_cell, sweep_specs, CellChaos};
use qoa_core::{
    breakdown_cell, capture, capture_chaos, cell_seed, fault_kinds_for, nursery_cell,
    run_chaos_with_sink, run_with_sink, Breakdown, CellKey, CellMetrics, ChaosOptions,
    ExecutorOptions, Harness, HarnessOptions, Metric, RuntimeConfig, SinkRun,
};
use qoa_core::sweeps::{fig7_runtimes, sweep_trace, SweepParam, SCALED_DEFAULT_NURSERY};
use qoa_fuzz::oracle::{chaos_options, ORACLE_FUEL};
use qoa_fuzz::{generate_source, program_seed, GenConfig};
use qoa_model::{NullSink, Phase, RuntimeKind};
use qoa_uarch::{ExecutionStats, OooCore, SimpleCore, UarchConfig};
use qoa_workloads::{by_name, corpus_suite, Scale, Workload};

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

/// The key of one sweep cell, as the harness journals it.
fn sweep_key(w: &Workload, rt: &RuntimeConfig, param: SweepParam) -> CellKey {
    CellKey::new(w.name, format!("{:?}", rt.kind), format!("{param:?}"), "sweep")
}

/// The six sweep cells of every pair, prewarmed through the executor
/// with `jobs` workers, as journaled: pair by pair, in
/// [`SweepParam::ALL`] order.
fn prewarmed_sweep(
    pairs: &[(&'static Workload, RuntimeConfig)],
    jobs: usize,
    chaos: Option<CellChaos>,
    tag: &str,
) -> Vec<CellMetrics> {
    let dir = std::env::temp_dir().join(format!("qoa-sweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = HarnessOptions::new("sweep", "tiny");
    opts.journal_dir = dir.clone();
    let mut h = Harness::open(opts).expect("open harness");
    let specs = sweep_specs(pairs, Scale::Tiny, &UarchConfig::skylake(), chaos);
    h.prewarm(specs, &ExecutorOptions::new(jobs));
    let cells = pairs
        .iter()
        .flat_map(|(w, rt)| SweepParam::ALL.map(|param| sweep_key(w, rt, param)))
        .map(|key| {
            let name = format!("{key:?}");
            h.cell(key, |_| panic!("{name} was not prewarmed")).expect("the cell succeeded")
        })
        .collect();
    assert!(h.failures().is_empty(), "{:?}", h.failures());
    let _ = std::fs::remove_dir_all(&dir);
    cells
}

#[test]
fn sweep_cells_journal_what_replaying_a_capture_gives() {
    let base = UarchConfig::skylake();
    let pairs: Vec<(&'static Workload, RuntimeConfig)> = ["regex_compile", "dulwich_log"]
        .into_iter()
        .flat_map(|name| {
            let w = by_name(name).expect("workload");
            fig7_runtimes().map(move |rt| (w, rt.with_nursery(SCALED_DEFAULT_NURSERY)))
        })
        .collect();
    let mut want = Vec::new();
    let mut horizon = u64::MAX;
    for (w, rt) in &pairs {
        let captured = capture(&w.source(Scale::Tiny), rt).expect("capture");
        horizon = horizon.min(captured.vm.bytecodes);
        for param in SweepParam::ALL {
            let mut m = CellMetrics::new();
            for p in sweep_trace(&captured.trace, param, &base) {
                let phase = |ph: Phase| p.phase_cpi[ph];
                let gc = phase(Phase::GcMinor) + phase(Phase::GcMajor);
                m.insert(format!("cpi@{}", p.value), Metric::Num(p.cpi));
                m.insert(format!("interp@{}", p.value), Metric::Num(phase(Phase::Interpreter)));
                m.insert(format!("gc@{}", p.value), Metric::Num(gc));
                m.insert(format!("jit@{}", p.value), Metric::Num(phase(Phase::JitCode)));
            }
            want.push(m);
        }
    }
    let labels: Vec<String> = pairs
        .iter()
        .flat_map(|(w, rt)| SweepParam::ALL.map(|p| format!("{} {:?} {p:?}", w.name, rt.kind)))
        .collect();
    let check = |got: Vec<CellMetrics>, how: &str| {
        for ((got, want), label) in got.iter().zip(&want).zip(&labels) {
            assert_eq!(got, want, "{label}: {how}");
        }
    };
    check(prewarmed_sweep(&pairs, 1, None, "j1"), "--jobs 1");
    check(prewarmed_sweep(&pairs, 2, None, "j2"), "--jobs 2");

    // Under seeded faults, each pair runs under the plan of whichever of
    // its cells gets there first, and must still equal its fault-free twin.
    let chaos = CellChaos { seed: 7, horizon, points: 3 };
    check(prewarmed_sweep(&pairs, 2, Some(chaos), "chaos"), "chaos --jobs 2");
    // Parameter-major submission runs each pair under its first
    // parameter's plan; see that those plans really restored the machine.
    let restores: u64 = pairs
        .iter()
        .map(|(w, rt)| {
            let key = sweep_key(w, rt, SweepParam::ALL[0]);
            let plan = FaultPlan::seeded(
                cell_seed(chaos.seed, &key),
                chaos.horizon,
                chaos.points,
                fault_kinds_for(rt.kind),
            );
            let src = w.source(Scale::Tiny);
            let (_, outcome) = run_chaos_with_sink(&src, rt, &ChaosOptions::new(plan), NullSink)
                .expect("chaos run");
            outcome.restores
        })
        .sum();
    assert!(restores > 0, "no fault was recovered by restore; the chaos check is vacuous");
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
