//! The repository's benchmark: end-to-end host-time and simulated metrics
//! of four workloads (`--trace 0`), or the per-layer metrics of a separate
//! traced run (`--trace 1`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_light --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Human-readable detail
//! goes to standard error. `perfbench/README.md` defines every metric.

mod calib;
mod layers;
mod trace;
mod workloads;

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use edgemm::EdgeMm;

use trace::NoTrace;
use workloads::{
    check_figures, check_fleet, check_serve, debug_digest, figures_inputs, figures_op, fleet_op,
    fleet_options, model, serve_options, serving_sim_metrics, serving_trace, ServedRun, SimMetrics,
    Workload,
};

/// Set-ups per timed run: at least [`SETUP_MIN_REPS`], and more while
/// their total stays under [`SETUP_MIN_S`] (so a cheap set-up is sampled
/// often enough for a steady median), up to [`SETUP_MAX_REPS`]. `setup_s`
/// is their median, scaled by the run's calibration.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 1000;

/// Timed operations per run even when `--seconds` is already used up.
const MIN_OPS: usize = 3;

/// The parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
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

/// One metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run prints as its last line.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations (or wrapped reports) checked.
    pub attempted: usize,
    /// Operations that panicked or failed a check.
    pub failed: usize,
    metrics: Vec<Metric>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Seconds of CPU time this process has used, from
/// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`. Host times are read from this
/// clock rather than a wall clock: it counts every thread's run time and
/// leaves out time spent waiting for a CPU, whether behind other processes
/// or, on a paravirtualised guest, while the hypervisor runs another guest
/// (steal time). The slowdown that other processes cause while this one
/// runs is left to [`calib`].
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Host times of the timed operations, how many failed, and the
/// calibration pass times measured between them.
#[derive(Debug, Default)]
struct OpStats {
    times: Vec<f64>,
    failed: usize,
    calibration_passes: Vec<f64>,
}

/// Repeat `op` while another call is expected to end within `seconds` of
/// wall time (and at least [`MIN_OPS`] times), timing each call's CPU time,
/// checking each output and making one calibration pass after each call.
/// A panic counts as a failed operation.
fn time_ops<T>(
    seconds: f64,
    mut op: impl FnMut() -> T,
    mut check: impl FnMut(&T) -> Result<(), String>,
) -> OpStats {
    let mut stats = OpStats {
        calibration_passes: (0..calib::INITIAL_PASSES)
            .map(|_| calib::timed_pass())
            .collect(),
        ..OpStats::default()
    };
    let start = Instant::now();
    loop {
        let n = stats.times.len();
        if n >= MIN_OPS && start.elapsed().as_secs_f64() * (n + 1) as f64 / n as f64 > seconds {
            break;
        }
        let t = cpu_s();
        let result = catch_unwind(AssertUnwindSafe(&mut op));
        stats.times.push(cpu_s() - t);
        match result {
            Ok(output) => {
                if let Err(e) = check(&output) {
                    eprintln!("op {} failed its check: {e}", stats.times.len());
                    stats.failed += 1;
                }
            }
            Err(_) => stats.failed += 1,
        }
        stats.calibration_passes.push(calib::timed_pass());
    }
    stats
}

/// Run `setup` repeatedly (see [`SETUP_MIN_REPS`]), timing each run's CPU time;
/// keep the last product.
fn time_setup<S>(mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut product = None;
    while times.len() < SETUP_MIN_REPS
        || (times.iter().sum::<f64>() < SETUP_MIN_S && times.len() < SETUP_MAX_REPS)
    {
        drop(product.take());
        let t = cpu_s();
        product = Some(black_box(setup()));
        times.push(cpu_s() - t);
    }
    (product.expect("at least one set-up"), times)
}

/// Everything a timed run measured, before it becomes metrics.
struct Timed {
    setup_times: Vec<f64>,
    ops: OpStats,
    reference_ok: Result<(), String>,
    requests_per_op: usize,
    sim: SimMetrics,
}

fn timed_serving(workload: Workload, seed: u64, seconds: f64) -> Timed {
    let model = model();
    let options = serve_options();
    // Set-up: inputs, the system, and a session opened on it cold (which
    // measures the pruning effect); the session of the timed loop then
    // reopens on the warmed system.
    let ((system, trace), setup_times) = time_setup(|| {
        let system = EdgeMm::paper_default();
        let trace = serving_trace(workload, seed, 1);
        drop(system.serve_session(&model, options));
        (system, trace)
    });
    let mut session = system.serve_session(&model, options);
    let reference = session.serve(&trace);
    let reference_ok = check_serve(&reference, trace.len());
    let ops = time_ops(
        seconds,
        || session.serve(&trace),
        |report| {
            if *report != reference {
                return Err("report differs from the warm-up op's".into());
            }
            check_serve(report, trace.len())
        },
    );
    let sim = serving_sim_metrics(
        &model,
        &trace,
        &[ServedRun {
            reports: vec![&reference],
            makespan_s: reference.makespan_s,
        }],
    );
    Timed {
        setup_times,
        ops,
        reference_ok,
        requests_per_op: trace.len(),
        sim,
    }
}

fn timed_fleet(seed: u64, seconds: f64) -> Timed {
    let model = model();
    let ((system, trace), setup_times) = time_setup(|| {
        let system = EdgeMm::paper_default();
        let trace = serving_trace(Workload::FleetRoute, seed, 1);
        drop(system.serve_session(&model, fleet_options()));
        (system, trace)
    });
    let reference = fleet_op(&system, &model, &trace);
    let reference_ok = check_fleet(&reference, trace.len());
    let ops = time_ops(
        seconds,
        || fleet_op(&system, &model, &trace),
        |reports| {
            if *reports != reference {
                return Err("fleet reports differ from the warm-up op's".into());
            }
            check_fleet(reports, trace.len())
        },
    );
    let runs: Vec<ServedRun<'_>> = reference
        .iter()
        .map(|r| ServedRun {
            reports: r.replicas.iter().collect(),
            makespan_s: r.makespan_s,
        })
        .collect();
    let sim = serving_sim_metrics(&model, &trace, &runs);
    Timed {
        setup_times,
        ops,
        reference_ok,
        requests_per_op: trace.len() * reference.len(),
        sim,
    }
}

fn timed_figures(seed: u64, seconds: f64) -> Timed {
    let (inputs, setup_times) = time_setup(|| figures_inputs(seed));
    let reference = figures_op(&inputs, &mut NoTrace);
    let reference_ok = check_figures(&reference, &inputs);
    let digest = debug_digest(&reference);
    let ops = time_ops(
        seconds,
        || figures_op(&inputs, &mut NoTrace),
        |output| {
            if debug_digest(output) != digest {
                return Err("figures differ from the warm-up op's".into());
            }
            check_figures(output, &inputs)
        },
    );
    Timed {
        setup_times,
        ops,
        reference_ok,
        requests_per_op: inputs.runs.len(),
        sim: workloads::figures_sim_metrics(&reference, &inputs),
    }
}

fn timed(args: &Args) -> Outcome {
    let t = match args.workload {
        Workload::ServeLight | Workload::ServeOverload => {
            timed_serving(args.workload, args.seed, args.seconds)
        }
        Workload::FleetRoute => timed_fleet(args.seed, args.seconds),
        Workload::PaperFigures => timed_figures(args.seed, args.seconds),
    };
    let scale = calib::scale(&t.ops.calibration_passes);
    let attempted = t.ops.times.len();
    eprintln!(
        "{}: {} ops, host op s p50 {:.4} p90 {:.4} (n = {}), set-up s p50 {:.6} (n = {})",
        args.workload.name(),
        attempted,
        median(&t.ops.times),
        quantile(&t.ops.times, 0.9),
        attempted,
        median(&t.setup_times),
        t.setup_times.len()
    );
    eprintln!("op host s: {:?}", t.ops.times);
    eprintln!(
        "calibration: scale {scale:.4} (reference pass {} s), pass s: {:?}",
        calib::REFERENCE_PASS_S,
        t.ops.calibration_passes
    );
    if let Err(e) = &t.reference_ok {
        eprintln!("warm-up output failed its check: {e}");
    }
    let mut out = Outcome {
        correct: t.reference_ok.is_ok() && t.ops.failed == 0,
        attempted,
        failed: t.ops.failed,
        metrics: Vec::new(),
    };
    let op_s = median(&t.ops.times) * scale;
    out.metric("setup_s", median(&t.setup_times) * scale, "s");
    out.metric("host_op_s_p50", op_s, "s");
    out.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    out.metric(
        "op_ok_frac",
        (attempted - t.ops.failed) as f64 / attempted as f64,
        "frac",
    );
    out.metric("host_req_per_s", t.requests_per_op as f64 / op_s, "1/s");
    out.metric("sim_tokens_per_s", t.sim.tokens_per_s, "tok/s");
    out.metric("sim_ttft_p99_gcycles", t.sim.ttft_p99_gcycles, "Gcycle");
    out.metric("sim_slo_attainment", t.sim.slo_attainment, "frac");
    out.metric("sim_speedup_vs_gpu", t.sim.speedup_vs_gpu, "x");
    out.metric("sim_tokens_per_joule", t.sim.tokens_per_joule, "tok/J");
    out
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(calib::WORKER_FLAG) {
        return calib::worker();
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        layers::run(args.workload, args.seed)
    } else {
        timed(&args)
    };
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!(
            "perfbench: metric {} is not finite ({})",
            bad.name, bad.value
        );
        return ExitCode::FAILURE;
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
