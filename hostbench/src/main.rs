//! Host-cost benchmark for the QOA stack: where the tool's own wall time
//! and memory go, end to end and layer by layer.
//!
//! ```text
//! qoa-hostbench --workload <attribution|uarch-sweep|fuzz-oracle> --seed <n>
//!               --seconds <s> --trace <0|1>
//! qoa-hostbench --record <dir>
//! ```
//!
//! With `--trace 0` the drawn cells run in timed rounds through the
//! figure and fuzz binaries' entry points for `--seconds`, and the last
//! stdout line carries the end-to-end metrics. With `--trace 1` one
//! untraced round runs, then a traced pass re-runs the same cells stage
//! by stage and the last line carries the per-layer metrics;
//! the spans are written as Chrome trace-event JSON under
//! `.hostbench-out/`. Every cell's simulated output is checked against
//! the recorded reference tables either way. `--record` regenerates
//! those tables.

mod alloc;
mod attribution;
mod draw;
mod fuzz;
mod layers;
mod reference;
mod round;
mod spans;
mod stats;
mod sweep;

use std::path::{Path, PathBuf};
use std::time::Instant;

use draw::round_seed;
use layers::{cell_layers, self_ms, uncovered_cells, wall_ms, Counts, CELL};
use round::{ns_per_uop, redraw, warm_up, Round, Workload};
use spans::{chrome_json, Tracer};
use stats::{max, median, quantile};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Times the workload is set up per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Scratch journals live here, one directory per run, removed at exit.
const RUN_DIR: &str = ".hostbench-run";
/// Chrome trace-event files from `--trace 1` runs.
const OUT_DIR: &str = ".hostbench-out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: qoa-hostbench --workload <attribution|uarch-sweep|fuzz-oracle> --seed <n> \
         --seconds <s> --trace <0|1>\n       qoa-hostbench --record <dir>"
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a seed"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad("a duration"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Loads the workload's pool, warms up, and draws round 0; returns the
/// workload with the warm-up round's output-check failures.
fn setup(name: &str, seed: u64, dir: PathBuf) -> Result<(Box<dyn Workload>, Round), String> {
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut w: Box<dyn Workload> = match name {
        "attribution" => Box::new(attribution::Attribution::setup(dir)),
        "uarch-sweep" => Box::new(sweep::Sweep::setup(dir)),
        "fuzz-oracle" => Box::new(fuzz::Fuzz::setup(dir)),
        other => return Err(format!("unknown workload {other}")),
    };
    let warm = warm_up(w.as_mut());
    redraw(w.as_mut(), round_seed(seed, 0));
    Ok((w, warm))
}

/// One named metric of the result line.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// What a run reports.
struct Outcome {
    attempted: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.problems.is_empty(),
        o.attempted,
        o.problems.len(),
        metrics.join(", ")
    )
}

fn log_draw(w: &dyn Workload, round: u64) {
    eprintln!("hostbench: round {round} drew:");
    for line in w.describe() {
        eprintln!("  {line}");
    }
}

/// Timed rounds, tracing off, for about `seconds`. Round `k` runs the
/// draw for `round_seed(seed, k)`, so the median round averages over
/// several budget-sized draws as well as over host noise.
fn timed(w: &mut dyn Workload, seed: u64, seconds: f64, setup_s: f64) -> Result<Outcome, String> {
    alloc::reset_vm_hwm().map_err(|e| format!("resetting VmHWM: {e}"))?;
    let start = Instant::now();
    let (mut walls, mut allocs, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut cells = 0;
    let mut o = Outcome {
        attempted: 0,
        problems: Vec::new(),
        metrics: Vec::new(),
    };
    for k in 0.. {
        if k > 0 {
            redraw(w, round_seed(seed, k));
            log_draw(w, k);
        }
        let before = alloc::snapshot().allocated;
        let t = Instant::now();
        let round = w.round();
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        allocs.push((alloc::snapshot().allocated - before) as f64);
        rates.push(ns_per_uop(&round.cells));
        eprintln!(
            "hostbench: round {k}: {wall:.3} s, {:.2} ns/uop",
            rates[rates.len() - 1]
        );
        cells += round.cells.len();
        o.attempted += round.attempted;
        o.problems.extend(round.problems);
        // Start another round only if it should end within the budget.
        if start.elapsed().as_secs_f64() + wall > seconds {
            break;
        }
    }
    let hwm = alloc::vm_hwm_bytes().map_err(|e| format!("reading VmHWM: {e}"))?;
    eprintln!("hostbench: {} timed rounds, {} cells", walls.len(), cells);
    o.metrics = vec![
        m("wall_s", "s", median(&walls).unwrap_or(0.0)),
        m("cell_ns_per_uop", "ns", median(&rates).unwrap_or(0.0)),
        m("peak_rss_mb", "MB", hwm as f64 / 1e6),
        m("alloc_gb", "GB", median(&allocs).unwrap_or(0.0) / 1e9),
        m("setup_s", "s", setup_s),
    ];
    Ok(o)
}

/// One untraced round, then the traced pass over the same cells.
fn traced(w: &dyn Workload, trace_file: &Path) -> Result<Outcome, String> {
    let t = Instant::now();
    let round = w.round();
    let untraced_s = t.elapsed().as_secs_f64();
    let cell_ms: Vec<f64> = round.cells.iter().map(|c| c.ms).collect();
    let busy_ms: f64 = cell_ms.iter().sum();

    let mut tracer = Tracer::default();
    let mut counts = Counts::default();
    let t = Instant::now();
    let mut problems = w.traced(&mut tracer, &mut counts);
    let traced_s = t.elapsed().as_secs_f64();
    let spans = tracer.spans();
    let cells_s = wall_ms(spans, CELL) / 1e3;
    for (cell, share) in uncovered_cells(spans) {
        problems.push(format!(
            "traced cell {cell}: layers cover only {:.1}% of its wall",
            share * 100.0
        ));
    }
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    std::fs::write(trace_file, chrome_json(spans))
        .map_err(|e| format!("writing {}: {e}", trace_file.display()))?;

    let layers = cell_layers(spans);
    eprintln!(
        "hostbench: layer self time over {:.3} s of traced cells:",
        cells_s
    );
    for (layer, ns) in &layers {
        eprintln!(
            "  {layer:<9} {:>10.1} ms  {:>5.1}%",
            *ns as f64 / 1e6,
            *ns as f64 / 1e7 / cells_s
        );
    }
    // The layer each workload is predicted to stress (README, Metrics).
    let share = |names: &[&str]| {
        let ns: u64 = names.iter().filter_map(|n| layers.get(n)).sum();
        ns as f64 / 1e7 / cells_s
    };
    eprintln!(
        "hostbench: shares: trace+simple {:.1}% (attribution: > 50%), ooo {:.1}% \
         (uarch-sweep: > 80%), frontend+analysis {:.1}% (largest on fuzz-oracle)",
        share(&["trace", "simple"]),
        share(&["ooo"]),
        share(&["frontend", "analysis"]),
    );
    eprintln!("hostbench: trace written to {}", trace_file.display());

    let ms = |name| self_ms(spans, name);
    let per_uop = |ms: f64, uops: u64| {
        if uops == 0 {
            0.0
        } else {
            ms * 1e6 / uops as f64
        }
    };
    let c = &counts;
    let uops = c.vm_uops + c.jit_uops;
    let mut o = Outcome {
        attempted: round.attempted + w.traced_cells(),
        problems: round.problems,
        metrics: Vec::new(),
    };
    o.problems.extend(problems);
    o.metrics = vec![
        m("frontend.parse_ms", "ms", ms("frontend.parse")),
        m("frontend.compile_ms", "ms", ms("frontend.compile")),
        m("frontend.source_kb", "kB", c.source_bytes as f64 / 1e3),
        m("analysis.verify_ms", "ms", ms("analysis.verify")),
        m("analysis.optimize_ms", "ms", ms("analysis.optimize")),
        m("vm.exec_ms", "ms", ms("vm.exec")),
        m("vm.ns_per_uop", "ns", per_uop(ms("vm.exec"), c.vm_uops)),
        m("vm.uops", "count", c.vm_uops as f64),
        m("vm.bytecodes", "count", c.bytecodes as f64),
        m("jit.exec_ms", "ms", ms("jit.exec")),
        m("jit.ns_per_uop", "ns", per_uop(ms("jit.exec"), c.jit_uops)),
        m("jit.uops", "count", c.jit_uops as f64),
        m("jit.traces_compiled", "count", c.jit_traces as f64),
        m("jit.deopts", "count", c.jit_deopts as f64),
        m("heap.minor_gcs", "count", c.minor_gcs as f64),
        m("heap.major_gcs", "count", c.major_gcs as f64),
        m("trace.store_ms", "ms", ms("trace.capture")),
        m(
            "trace.store_ns_per_uop",
            "ns",
            per_uop(ms("trace.capture"), uops),
        ),
        m("trace.peak_mb", "MB", c.trace_peak as f64 / 1e6),
        m("trace.alloc_mb", "MB", c.trace_alloc as f64 / 1e6),
        m("simple.replay_ms", "ms", ms("simple.replay")),
        m(
            "simple.ns_per_uop",
            "ns",
            per_uop(ms("simple.replay"), c.simple_uops),
        ),
        m("simple.cycles", "count", c.simple_cycles as f64),
        m("ooo.replay_ms", "ms", ms("ooo.replay")),
        m(
            "ooo.ns_per_uop",
            "ns",
            per_uop(ms("ooo.replay"), c.ooo_uops),
        ),
        m("ooo.replays", "count", c.ooo_replays as f64),
        m("ooo.cycles", "count", c.ooo_cycles as f64),
        m("cache.llc_misses", "count", c.llc_misses as f64),
        m("branch.mispredicts", "count", c.mispredicts as f64),
        m("dram.bytes", "B", c.dram_bytes as f64),
        m("chaos.capture_ms", "ms", wall_ms(spans, "chaos.capture")),
        m("chaos.faults_injected", "count", c.faults as f64),
        m("executor.busy_ratio", "ratio", busy_ms / 1e3 / untraced_s),
        m("executor.retries", "count", round.retries as f64),
        m(
            "executor.cell_ms_p50",
            "ms",
            median(&cell_ms).unwrap_or(0.0),
        ),
        m(
            "executor.cell_ms_p75",
            "ms",
            quantile(&cell_ms, 0.75).unwrap_or(0.0),
        ),
        m("executor.cell_ms_max", "ms", max(&cell_ms).unwrap_or(0.0)),
        m("journal.bytes", "B", round.journal_bytes as f64),
        m("fuzz.gen_ms", "ms", ms("fuzz.gen")),
        m("fuzz.oracle_ms", "ms", ms("fuzz.oracle")),
        m("fuzz.inconclusive", "count", c.inconclusive as f64),
        m("bench.traced_wall_s", "s", traced_s),
        m(
            "bench.tracing_overhead_pct",
            "%",
            (cells_s - untraced_s) / untraced_s * 100.0,
        ),
    ];
    Ok(o)
}

fn run(args: &Args, dir: &Path, process_start: Instant) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut workload = None;
    let mut warm = Round::default();
    for k in 0..SETUPS {
        let t = if k == 0 {
            process_start
        } else {
            Instant::now()
        };
        let (w, round) = setup(&args.workload, args.seed, dir.to_path_buf())?;
        setups.push(t.elapsed().as_secs_f64());
        workload = Some(w);
        warm.attempted += round.attempted;
        warm.problems.extend(round.problems);
    }
    let mut w = workload.expect("SETUPS is nonzero");
    eprintln!("hostbench: {} seed {}", args.workload, args.seed);
    log_draw(w.as_ref(), 0);
    let setup_s = median(&setups).unwrap_or(0.0);
    let mut o = if args.trace {
        let file =
            Path::new(OUT_DIR).join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        traced(w.as_ref(), &file)?
    } else {
        timed(w.as_mut(), args.seed, args.seconds, setup_s)?
    };
    o.attempted += warm.attempted;
    o.problems.extend(warm.problems);
    Ok(o)
}

fn main() {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--record") {
        let Some(dir) = argv.get(1) else { usage() };
        reference::record(Path::new(dir), Path::new(RUN_DIR));
        let _ = std::fs::remove_dir_all(RUN_DIR);
        return;
    }
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("qoa-hostbench: {e}");
        usage()
    });
    let dir = Path::new(RUN_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    let outcome = run(&args, &dir, process_start);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(RUN_DIR);
    match outcome {
        Ok(o) => {
            for p in &o.problems {
                eprintln!("hostbench: FAILED {p}");
            }
            println!("{}", result_line(&o));
        }
        Err(e) => {
            eprintln!("qoa-hostbench: {e}");
            std::process::exit(1);
        }
    }
}
