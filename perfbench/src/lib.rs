//! The DICE serving benchmark.
//!
//! Three seeded workloads drive the program's public entry points:
//!
//! - `fleet-10k`: 10,000 homes on 4 shared floor plans through the
//!   threaded `dice_fleet::Fleet`;
//! - `home-hh102`: the catalog hh102 home through one `HomeGateway`;
//! - `home-wide`: an hh102-width home trained to thousands of groups, so
//!   the candidate scan takes the bit-sliced route.
//!
//! The end-to-end run (`--trace 0`, the `perfbench` binary) reports
//! throughput, per-window service time, set-up time and memory. The
//! traced run (`--trace 1`, the `perfbench-traced` binary, which counts
//! allocations) times each layer's public call on the same input and
//! compares its own throughput with an end-to-end run's. Both check the
//! outputs against offline references and print one JSON result line
//! last.
//!
//! Run one workload from the repository root with
//! `bash perfbench/run.sh --workload home-hh102 --seed 1 --seconds 20 --trace 0`,
//! and the benchmark's own tests with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.
//!
//! The end-to-end metrics:
//!
//! - `windows_per_s`: windows given a verdict, over the serving phase's
//!   wall time;
//! - `window_p50_us`, `window_p99_us`: on the home workloads, the gap
//!   between successive window callbacks of
//!   `HomeGateway::run_with_observer` while the input waits queued; on
//!   `fleet-10k`, the time the feeder takes to push each slice of 1,000
//!   home-minutes, per window;
//! - `setup_s`: the median of repeated set-ups (train, round-trip the
//!   model file, build the serving object);
//! - `rss_bytes_per_home`: the median set-up's peak resident growth plus
//!   the first serving pass's, per home;
//! - `error_frac`: frames dropped or rejected, windows missing and alarms
//!   differing from the reference, over frames sent plus windows
//!   expected. It must be 0, so the result line carries it as `failed`
//!   over `attempted`.
//!
//! The process runs with address-space randomization off (it re-executes
//! itself that way), so memory figures do not move with a random layout.
//
// Every workload is a closed loop at saturation: the home input is queued
// before a pass starts, and the fleet's feeder blocks on back-pressure.

pub mod fleet;
pub mod fleet10k;
pub mod home;
pub mod layers;
pub mod measure;
pub mod report;
pub mod rng;

use std::sync::Arc;
use std::time::Instant;

use dice_core::{DiceModel, RoutedScanIndex};

use crate::layers::CoreLayers;
use crate::measure::{median, median_pass, Host, RssProbe};
use crate::report::{result_line, Metrics, END_TO_END, PER_LAYER};

/// Set-ups per run at the least, and the time they must fill at the
/// least; `setup_s` is their median.
const SETUP_MIN_REPS: usize = 7;
const SETUP_MIN_NS: f64 = 2e9;

/// Serving passes per run at the least.
const MIN_REPS: usize = 3;

/// Input size: the benchmark's own, or a reduced one for its tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the workloads are defined with.
    Full,
    /// Reduced sizes, for the benchmark's tests.
    Small,
}

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 10,000 homes through the threaded fleet.
    Fleet10k,
    /// The catalog hh102 home through one gateway.
    HomeHh102,
    /// A wide home whose scan takes the bit-sliced route.
    HomeWide,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Fleet10k, Workload::HomeHh102, Workload::HomeWide];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet10k => "fleet-10k",
            Workload::HomeHh102 => "home-hh102",
            Workload::HomeWide => "home-wide",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Host and input-property lines.
    pub info: Vec<String>,
    /// Every metric measured.
    pub metrics: Metrics,
    /// Frames sent plus windows expected, over every checked pass.
    pub attempted: u64,
    /// Frames dropped or rejected, windows missing, alarms differing.
    pub failed: u64,
    /// Windows closed in the first serving pass.
    pub windows: u64,
    /// Alarms delivered in the first serving pass.
    pub alarms: u64,
}

impl Outcome {
    /// Records `bench.trace_overhead_pct`: how much lower this traced
    /// run's `windows_per_s` is than an untraced run's.
    pub fn record_trace_overhead(&mut self, untraced_windows_per_s: f64) {
        let traced = self.metrics.get("windows_per_s").map_or(0.0, |m| m.value);
        self.metrics.put(
            "bench.trace_overhead_pct",
            100.0 * (untraced_windows_per_s - traced) / untraced_windows_per_s,
            2,
        );
    }

    /// Failures over attempts.
    pub fn error_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Runs `pass` at least [`MIN_REPS`] times (once when `seconds` is 0) and
/// until the passes' own times, which `pass` returns in ns, add up to
/// `seconds`: the serving phase. Its throughput is every pass's windows
/// over every pass's wall time.
pub fn serve_for(seconds: f64, mut pass: impl FnMut() -> f64) {
    let min_reps = if seconds > 0.0 { MIN_REPS } else { 1 };
    let mut reps = 0;
    let mut total_ns = 0.0;
    while reps < min_reps || total_ns < seconds * 1e9 {
        total_ns += pass();
        reps += 1;
    }
}

/// Set-up costs, one entry per repetition.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// Whole set-up, ns.
    pub total_ns: Vec<f64>,
    /// Training, ns.
    pub train_ns: Vec<f64>,
    /// `read_model`, ns.
    pub read_ns: Vec<f64>,
    /// Peak resident growth, bytes.
    pub peak_bytes: Vec<f64>,
}

impl SetupTimes {
    /// Resident-memory growth of set-up and serving: the median set-up's
    /// peak growth plus `serving_bytes`, the peak growth of the first
    /// serving pass on top of what set-up left resident.
    pub fn rss_bytes(&mut self, serving_bytes: u64) -> f64 {
        median(&mut self.peak_bytes) + serving_bytes as f64
    }
}

/// Repeats `setup` at least [`SETUP_MIN_REPS`] times and until the
/// repetitions fill [`SETUP_MIN_NS`], dropping every product but the
/// last, which it returns. Each repetition starts from a trimmed heap and
/// records its time and peak memory growth; `setup` records its steps.
pub fn repeat_setup<T>(times: &mut SetupTimes, mut setup: impl FnMut(&mut SetupTimes) -> T) -> T {
    let mut built = None;
    loop {
        drop(built.take());
        let probe = RssProbe::start();
        let t0 = Instant::now();
        built = Some(setup(times));
        times.total_ns.push(t0.elapsed().as_nanos() as f64);
        times.peak_bytes.push(probe.peak_growth() as f64);
        if times.total_ns.len() >= SETUP_MIN_REPS
            && times.total_ns.iter().sum::<f64>() >= SETUP_MIN_NS
        {
            return built.expect("a set-up just ran");
        }
    }
}

/// Runs `workload` at `scale` from `seed`.
pub fn run(workload: Workload, scale: Scale, seed: u64, seconds: f64, traced: bool) -> Outcome {
    match workload {
        Workload::Fleet10k => {
            fleet10k::run(fleet10k::FleetCase::generate(scale, seed), seconds, traced)
        }
        Workload::HomeHh102 => home::run(home::HomeCase::hh102(scale, seed), seconds, traced),
        Workload::HomeWide => home::run(home::HomeCase::wide(scale, seed), seconds, traced),
    }
}

/// The model line of the input-property block: group count, width, and
/// the scan route and backend.
pub fn model_line(label: &str, model: &DiceModel) -> String {
    let scan = model.scan();
    format!(
        "model {label}: groups={} bits={} scan_route={} scan_backend={}",
        model.groups().len(),
        model.layout().num_bits(),
        if scan.is_bitsliced() {
            "bit-sliced"
        } else {
            "row-major"
        },
        scan.backend().name(),
    )
}

/// Records the `core.*` engine-stage metrics.
pub fn record_core(metrics: &mut Metrics, core: &CoreLayers) {
    let n = core.windows;
    metrics.put("core.engine.ns_per_window", core.engine_ns, n);
    metrics.put("core.engine.allocs_per_window", core.engine_allocs, n);
    metrics.put("core.binarize.ns_per_window", core.binarize_ns, n);
    metrics.put("core.binarize.events_per_window", core.events_per_window, n);
    metrics.put("core.groups.lookup_ns_per_window", core.lookup_ns, n);
    let queries = (core.queries_per_window * n as f64).round() as u64;
    metrics.put("core.scan.ns_per_query", core.scan_ns_per_query, queries);
    metrics.put("core.scan.queries_per_window", core.queries_per_window, n);
    metrics.put("core.scan.rows_per_query", core.rows_per_query, queries);
    metrics.put("core.engine.rest_ns_per_window", core.rest_ns(), n);
    metrics.put("core.engine.identifying_share", core.identifying_share, n);
}

/// Records the set-up layers: training per window and model reads from
/// `times`, the model files' size, and the scan-index build and static
/// verification of `models`, summed per pass.
pub fn record_setup_layers(
    metrics: &mut Metrics,
    times: &mut SetupTimes,
    models: &[Arc<DiceModel>],
    model_bytes: usize,
) {
    let train_windows: u64 = models.iter().map(|m| m.training_windows()).sum();
    let reps = times.train_ns.len() as u64;
    metrics.put(
        "core.train_par.ns_per_window",
        median(&mut times.train_ns) / train_windows.max(1) as f64,
        reps,
    );
    metrics.put(
        "core.model_io.bytes",
        model_bytes as f64,
        models.len() as u64,
    );
    metrics.put(
        "core.model_io.read_ms",
        median(&mut times.read_ns) / 1e6,
        reps,
    );
    let (build_ns, _) = median_pass(|| {
        for model in models {
            std::hint::black_box(RoutedScanIndex::build(model.groups()));
        }
    });
    let (verify_ns, _) = median_pass(|| {
        for model in models {
            std::hint::black_box(dice_verify::verify_model(model));
        }
    });
    let n = models.len() as u64;
    metrics.put("core.scan.build_ms", build_ns / 1e6, n);
    metrics.put("verify.verify_model_ms", verify_ns / 1e6, n);
}

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Serving-phase length.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
///
/// # Errors
///
/// Returns a message for a missing, unknown or malformed argument.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The untraced end-to-end run's `windows_per_s` for the same arguments,
/// from the sibling `perfbench` binary.
fn untraced_windows_per_s(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let sibling = exe.with_file_name(format!("perfbench{}", std::env::consts::EXE_SUFFIX));
    let output = std::process::Command::new(&sibling)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("running {}: {e}", sibling.display()))?;
    if !output.status.success() {
        return Err(format!("untraced run failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    report::parse_value(last, "windows_per_s")
        .ok_or_else(|| "untraced run printed no windows_per_s".to_string())
}

/// The command-line program. `traced_binary` says whether the process
/// counts allocations; it must match `--trace`. Returns the exit code.
pub fn cli_main(traced_binary: bool) -> i32 {
    measure::reexec_with_fixed_layout();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("usage: perfbench --workload <fleet-10k|home-hh102|home-wide> --seed <n> --seconds <n> --trace <0|1>");
            return 2;
        }
    };
    if args.trace != traced_binary {
        eprintln!(
            "error: --trace {} needs the {} binary",
            u8::from(args.trace),
            if args.trace {
                "perfbench-traced"
            } else {
                "perfbench"
            }
        );
        return 2;
    }

    let host = Host::detect();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: cpu=\"{}\" nproc={} rustc=\"{}\" aslr={}",
        host.cpu,
        host.nproc,
        host.rustc,
        if measure::fixed_layout() { "off" } else { "on" }
    );
    let started = Instant::now();
    let mut outcome = run(
        args.workload,
        Scale::Full,
        args.seed,
        args.seconds,
        args.trace,
    );
    if args.trace {
        match untraced_windows_per_s(&args) {
            Ok(untraced) => outcome.record_trace_overhead(untraced),
            Err(message) => {
                eprintln!("error: {message}");
                return 1;
            }
        }
    }
    for line in &outcome.info {
        println!("{line}");
    }
    // Every metric, with its unit and sample count. `error_frac` must be
    // 0, so it is carried by `failed` and `attempted` in the result line
    // rather than as a metric there.
    println!(
        "metric error_frac = {} ratio (samples={})",
        outcome.error_frac(),
        outcome.attempted
    );
    for m in &outcome.metrics.0 {
        let run = if args.trace && END_TO_END.iter().any(|(n, _)| *n == m.name) {
            " (traced run)"
        } else {
            ""
        };
        println!(
            "metric {} = {} {} (samples={}){run}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("elapsed: {:.1} s", started.elapsed().as_secs_f64());
    let Some(selected) = outcome.metrics.select(table) else {
        eprintln!("error: a metric is missing or not a finite number");
        return 1;
    };
    let correct = outcome.failed == 0;
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &selected)
    );
    if correct {
        0
    } else {
        eprintln!(
            "error: {} of {} checks failed",
            outcome.failed, outcome.attempted
        );
        1
    }
}
