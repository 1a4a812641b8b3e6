//! The four workloads: the inputs each builds from the seed, the one
//! operation a timed run repeats, the checks every operation's output must
//! pass, and the simulated metrics read off a checked output.
//!
//! Why each workload exists (the layer it loads) is recorded in
//! `perfbench/README.md`; the sizes below are what keep that layer dominant.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::hash::Hasher;

use edgemm::arch::{ChipConfig, PowerModel};
use edgemm::baseline::{GpuModel, RooflineDevice};
use edgemm::figures::{
    self, Fig11Report, Fig12Report, Fig13Report, Fig2Row, Fig3Row, Table2Report,
};
use edgemm::mllm::{zoo, MllmConfig, ModelWorkload, Phase};
use edgemm::serve::{merge, CompletedRequest, ServeReport, ServeRequest, TraceConfig};
use edgemm::units::Bytes;
use edgemm::{EdgeMm, FleetReport, RequestOptions, RoutingKind, ServeOptions, SystemReport};

use crate::trace::Tracer;

/// Replicas behind the gateway on `fleet_route`.
pub const FLEET_REPLICAS: usize = 16;

/// The paper's Table II speedup of EdgeMM with pruning over the mobile GPU.
pub const PAPER_TABLE2_PRUNED_SPEEDUP: f64 = 2.84;

/// One of the benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many requests at a load the engine sustains, on shared tenant prompts.
    ServeLight,
    /// A short interactive trace at several times the sustainable rate.
    ServeOverload,
    /// The multi-tenant mix routed over a 16-replica fleet, all four routers.
    FleetRoute,
    /// The paper's figure generators plus cold single-request runs.
    PaperFigures,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::ServeLight,
        Workload::ServeOverload,
        Workload::FleetRoute,
        Workload::PaperFigures,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeLight => "serve_light",
            Workload::ServeOverload => "serve_overload",
            Workload::FleetRoute => "fleet_route",
            Workload::PaperFigures => "paper_figures",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: derives independent sub-seeds (trace seeds, prompt lengths)
/// from the benchmark's `--seed`, so one seed fixes every input.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The model every serving workload and every figure is evaluated on.
pub fn model() -> MllmConfig {
    zoo::sphinx_tiny()
}

/// The golden sharing stack: EDF + Defer + pruning over an 8 MiB paged
/// (16-token block) KV pool with shared prefixes and a 128 MiB spill area.
pub fn serve_options() -> ServeOptions {
    ServeOptions::memory_aware(Bytes::new(8 << 20), 64)
        .paged(16)
        .shared_prefixes(Bytes::new(128 << 20))
}

/// The fleet stack of the golden routing point: paged and shared, but no
/// spill area, so evictions recompute.
pub fn fleet_options() -> ServeOptions {
    ServeOptions {
        prefix_sharing: true,
        ..ServeOptions::memory_aware(Bytes::new(8 << 20), 64).paged(16)
    }
}

/// Generator seed of the `serve_overload` trace, which does not follow the
/// benchmark's `--seed`. Host time on this path is bimodal in the trace
/// realization: across generator seeds, 700 requests at 16 req/s take from
/// 0.03 s to 1.8 s to serve, depending on whether the KV-gated admission
/// loop enters its quadratic re-pick mode. No affordable number of
/// realizations per run averages that out, so the workload pins one
/// realization that is in the quadratic mode (queue 540 deep), the mode the
/// workload exists to measure.
pub const OVERLOAD_TRACE_SEED: u64 = 1;

/// Generator seeds of the `fleet_route` tenant and background traces (the
/// golden routing point's), which do not follow the benchmark's `--seed`
/// either: the gateway's re-serve cost swings with the realization (1.4 s
/// to 2.0 s per operation over five seeds, simulated TTFT p99 by 25%), far
/// beyond the bound a host-time metric can carry.
pub const FLEET_TRACE_SEEDS: (u64, u64) = (23, 123);

/// The trace of a serving workload, with every request count divided by
/// `divisor` (1 for the workload itself, 2 for the scaling probe).
///
/// # Panics
///
/// Panics for `paper_figures`, which serves no trace.
pub fn serving_trace(workload: Workload, seed: u64, divisor: usize) -> Vec<ServeRequest> {
    let long_background = |requests: usize, rate: f64, seed: u64| {
        TraceConfig {
            text_tokens: (512, 768),
            ..TraceConfig::background(requests, rate, seed)
        }
        .generate()
    };
    match workload {
        Workload::ServeLight => merge(&[
            TraceConfig::multi_tenant(6, 12_000 / divisor, 1.0, mix(seed, 1)).generate(),
            long_background(1_000 / divisor, 0.25, mix(seed, 2)),
        ]),
        Workload::ServeOverload => {
            TraceConfig::interactive(700 / divisor, 16.0, OVERLOAD_TRACE_SEED).generate()
        }
        Workload::FleetRoute => merge(&[
            TraceConfig::multi_tenant(6, 400 / divisor, 48.0, FLEET_TRACE_SEEDS.0).generate(),
            long_background(33 / divisor, 4.0, FLEET_TRACE_SEEDS.1),
        ]),
        Workload::PaperFigures => panic!("paper_figures serves no trace"),
    }
}

/// Serve `trace` on every router in turn: the `fleet_route` operation.
pub fn fleet_op(system: &EdgeMm, model: &MllmConfig, trace: &[ServeRequest]) -> Vec<FleetReport> {
    RoutingKind::ALL
        .iter()
        .map(|&kind| system.serve_fleet(model, trace, FLEET_REPLICAS, kind, fleet_options()))
        .collect()
}

/// A serving report must account for every submitted request.
pub fn check_serve(report: &ServeReport, trace_len: usize) -> Result<(), String> {
    if report.submitted() != trace_len {
        return Err(format!(
            "served {} of {} requests",
            report.submitted(),
            trace_len
        ));
    }
    Ok(())
}

/// Every router's fleet report must dispatch each request once, and the
/// replica reports must add up to the trace.
pub fn check_fleet(reports: &[FleetReport], trace_len: usize) -> Result<(), String> {
    if reports.len() != RoutingKind::ALL.len() {
        return Err(format!("{} fleet reports, expected 4", reports.len()));
    }
    for (report, kind) in reports.iter().zip(RoutingKind::ALL) {
        let name = kind.name();
        if report.dispatched() != trace_len || report.submitted() != trace_len {
            return Err(format!(
                "{name}: dispatched {} and submitted {} of {trace_len}",
                report.dispatched(),
                report.submitted()
            ));
        }
        if report.completed() + report.rejected() != trace_len {
            return Err(format!("{name}: completed + rejected != {trace_len}"));
        }
        if report.replicas.len() != FLEET_REPLICAS {
            return Err(format!("{name}: {} replicas", report.replicas.len()));
        }
        for (i, replica) in report.replicas.iter().enumerate() {
            let assigned = report.assignments.iter().filter(|&&a| a == i).count();
            if replica.submitted() != assigned {
                return Err(format!(
                    "{name}: replica {i} served {} of {assigned} assigned",
                    replica.submitted()
                ));
            }
        }
    }
    Ok(())
}

/// A design point of the cold-run grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// The paper's heterogeneous chip.
    PaperDefault,
    /// The homogeneous compute-centric ablation.
    HomoCc,
    /// The homogeneous memory-centric ablation.
    HomoMc,
}

impl Design {
    const ALL: [Design; 3] = [Design::PaperDefault, Design::HomoCc, Design::HomoMc];

    /// A fresh system at this design point (cold pricing and pruning memos).
    pub fn system(self) -> EdgeMm {
        match self {
            Design::PaperDefault => EdgeMm::paper_default(),
            Design::HomoCc => EdgeMm::homo_cc(),
            Design::HomoMc => EdgeMm::homo_mc(),
        }
    }
}

/// One cold `EdgeMm::run` of the `paper_figures` grid.
#[derive(Debug, Clone)]
pub struct DesignRun {
    /// The design the run builds a fresh system for.
    pub design: Design,
    /// The request.
    pub workload: ModelWorkload,
    /// Dense or pruned, with the activation seed.
    pub options: RequestOptions,
}

/// The inputs of `paper_figures`.
#[derive(Debug, Clone)]
pub struct FiguresInputs {
    /// The model the figures are drawn for.
    pub model: MllmConfig,
    /// Seed of the synthetic activations (Fig. 3, Fig. 12, pruned runs).
    pub activation_seed: u64,
    /// The cold-run grid: 5 models x 3 designs x 3 lengths x dense/pruned.
    pub runs: Vec<DesignRun>,
}

/// Build the `paper_figures` inputs; text prompts are drawn from 8-48
/// tokens (the interactive trace's range) per run.
pub fn figures_inputs(seed: u64) -> FiguresInputs {
    let activation_seed = mix(seed, 3);
    let models = [
        zoo::mobilevlm(),
        zoo::tinygpt_v(),
        zoo::sphinx_tiny(),
        zoo::deepseek_vl(),
        zoo::karmavlm(),
    ];
    let mut runs = Vec::new();
    for model in &models {
        for design in Design::ALL {
            for output_tokens in [32, 128, 512] {
                for pruning in [false, true] {
                    let text = 8 + (mix(seed, 100 + runs.len() as u64) % 41) as usize;
                    runs.push(DesignRun {
                        design,
                        workload: ModelWorkload::new(model.clone(), text, output_tokens),
                        options: RequestOptions {
                            pruning,
                            seed: activation_seed,
                            ..RequestOptions::default()
                        },
                    });
                }
            }
        }
    }
    FiguresInputs {
        model: model(),
        activation_seed,
        runs,
    }
}

/// Everything one `paper_figures` operation produces. The figure fields are
/// read only through the output's `Debug` digest.
#[derive(Debug)]
#[allow(dead_code)]
pub struct FiguresOutput {
    /// Fig. 2 rows.
    pub fig2: Vec<Fig2Row>,
    /// Fig. 3 rows.
    pub fig3: Vec<Fig3Row>,
    /// Fig. 11 report.
    pub fig11: Fig11Report,
    /// Fig. 12 report.
    pub fig12: Fig12Report,
    /// Fig. 13 report.
    pub fig13: Fig13Report,
    /// Table II report.
    pub table2: Table2Report,
    /// One report per cold run, in grid order.
    pub runs: Vec<SystemReport>,
}

/// The `paper_figures` operation, with the report binaries' arguments.
/// Under a recording tracer each generator gets a span, and each pruned
/// cold run's pruning measurement is made (and timed) before the run, which
/// then reads it from the system's memo; the outputs are the same.
pub fn figures_op<T: Tracer>(inputs: &FiguresInputs, tracer: &mut T) -> FiguresOutput {
    let model = &inputs.model;
    let seed = inputs.activation_seed;
    let fig2 = tracer.span("figures.fig2", || {
        figures::fig2_workload(model, &[16, 64, 256])
    });
    let fig3 = tracer.span("figures.fig3", || figures::fig3_sparsity(model, seed));
    let fig11 = tracer.span("figures.fig11", || figures::fig11_hetero(model, 64));
    let fig12 = tracer.span("figures.fig12", || {
        figures::fig12_pruning(model, model.llm.d_model, model.llm.d_ffn, seed)
    });
    let fig13 = tracer.span("figures.fig13", || {
        figures::fig13_bandwidth(model, &[8, 16, 36, 64, 128, 256, 512, 1024])
    });
    let table2 = tracer.span("figures.table2", || {
        figures::table2_gpu_comparison(model, 64)
    });
    tracer.enter("figures.design_runs");
    let runs = inputs
        .runs
        .iter()
        .map(|run| {
            let system = run.design.system();
            if T::RECORDING && run.options.pruning {
                tracer.span("core.measure_pruning", || {
                    system.measure_pruning(&run.workload, run.options.seed, 4)
                });
            }
            tracer.span("core.run", || system.run(&run.workload, run.options))
        })
        .collect();
    tracer.exit();
    FiguresOutput {
        fig2,
        fig3,
        fig11,
        fig12,
        fig13,
        table2,
        runs,
    }
}

/// Sanity of one `paper_figures` output (equality with the reference
/// output is checked by digest).
pub fn check_figures(output: &FiguresOutput, inputs: &FiguresInputs) -> Result<(), String> {
    if output.runs.len() != inputs.runs.len() {
        return Err(format!("{} cold runs", output.runs.len()));
    }
    for (report, run) in output.runs.iter().zip(&inputs.runs) {
        if !(report.latency_s.is_finite() && report.latency_s > 0.0) {
            return Err(format!("{:?}: latency {}", run.design, report.latency_s));
        }
        if report.run.output_tokens != run.workload.output_tokens() {
            return Err(format!("{:?}: wrong token count", run.design));
        }
    }
    let speedup = output.table2.edgemm_pruned_speedup;
    if !speedup.is_finite() || speedup <= 1.0 {
        return Err("Table II: EdgeMM with pruning does not beat the GPU".into());
    }
    if output.fig3.len() != inputs.model.llm.layers {
        return Err("Fig. 3: one row per layer expected".into());
    }
    Ok(())
}

/// A `fmt::Write` sink that hashes what is written instead of storing it,
/// so two large reports can be compared byte for byte in constant memory.
struct HashWriter {
    hasher: std::collections::hash_map::DefaultHasher,
    bytes: u64,
}

impl fmt::Write for HashWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.hasher.write(s.as_bytes());
        self.bytes += s.len() as u64;
        Ok(())
    }
}

/// Digest of a value's `Debug` rendering: equal digests mean (up to a
/// 64-bit hash collision) byte-identical renderings of equal length.
pub fn debug_digest(value: &impl fmt::Debug) -> (u64, u64) {
    let mut writer = HashWriter {
        hasher: std::collections::hash_map::DefaultHasher::new(),
        bytes: 0,
    };
    write!(writer, "{value:?}").expect("hashing never fails");
    (writer.hasher.finish(), writer.bytes)
}

/// Simulated (modelled-chip) end-to-end metrics of one workload.
#[derive(Debug, Clone, Copy)]
pub struct SimMetrics {
    /// Output tokens per simulated second.
    pub tokens_per_s: f64,
    /// 99th-percentile simulated time to first token, in billions of chip
    /// cycles (numerically seconds at the paper's 1 GHz clock).
    pub ttft_p99_gcycles: f64,
    /// Share of requests meeting their SLO (rejects count as misses).
    pub slo_attainment: f64,
    /// Speedup over the RTX 3060 laptop GPU model.
    pub speedup_vs_gpu: f64,
    /// Output tokens per joule.
    pub tokens_per_joule: f64,
}

/// Nearest-rank percentile, as `ServeReport` computes it.
fn percentile(mut values: Vec<f64>, pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// One serving run's contribution to the pooled simulated metrics.
pub struct ServedRun<'a> {
    /// Per-replica reports (one for a single engine).
    pub reports: Vec<&'a ServeReport>,
    /// Simulated first-arrival-to-last-finish span of the whole run.
    pub makespan_s: f64,
}

/// Pool the simulated metrics over serving runs of `trace`. Chip energy is
/// chip power times makespan for every replica (the serve report carries no
/// DRAM byte count, so DRAM energy is not included). The GPU speedup is the
/// summed solo GPU latency of the completed requests over their summed
/// served latency on EdgeMM, queueing included.
pub fn serving_sim_metrics(
    model: &MllmConfig,
    trace: &[ServeRequest],
    runs: &[ServedRun<'_>],
) -> SimMetrics {
    let gpu = GpuModel::rtx3060_laptop();
    let chip = ChipConfig::paper_default();
    let chip_w = PowerModel::calibrated_22nm().chip_power(&chip).total_w();
    let mut gpu_s: HashMap<(usize, usize), f64> = HashMap::new();
    let mut tokens = 0.0;
    let mut makespan = 0.0;
    let mut energy_j = 0.0;
    let mut submitted = 0usize;
    let mut met = 0usize;
    let mut ttft = Vec::new();
    let mut served_s = 0.0;
    let mut solo_gpu_s = 0.0;
    for run in runs {
        makespan += run.makespan_s;
        energy_j += chip_w * run.makespan_s * run.reports.len() as f64;
        for report in &run.reports {
            tokens += report.total_output_tokens.as_f64();
            submitted += report.submitted();
            let completed: &[CompletedRequest] = &report.completed;
            met += completed.iter().filter(|r| r.meets_slo()).count();
            for request in completed {
                ttft.push(request.time_to_first_token_s());
                served_s += request.latency_s();
                let source = &trace[request.id as usize];
                let shape = (source.text_tokens, source.output_tokens);
                solo_gpu_s += *gpu_s.entry(shape).or_insert_with(|| {
                    gpu.request_seconds(&ModelWorkload::new(model.clone(), shape.0, shape.1))
                });
            }
        }
    }
    SimMetrics {
        tokens_per_s: tokens / makespan,
        ttft_p99_gcycles: percentile(ttft, 99.0) * f64::from(chip.clock_mhz) / 1e3,
        slo_attainment: met as f64 / submitted as f64,
        speedup_vs_gpu: solo_gpu_s / served_s,
        tokens_per_joule: tokens / energy_j,
    }
}

/// Simulated metrics of `paper_figures`: throughput, TTFT and SLO share
/// over the cold runs on the paper's design point (TTFT, in chip cycles, =
/// encode + projector + prefill + one decode step; SLO = the prompted interactive
/// class, 0.6 s TTFT and 30 ms per token), and Table II's pruned speedup and
/// tokens per joule. The homogeneous ablations are left out: they are the
/// baselines the paper's design is compared against, not the design.
pub fn figures_sim_metrics(output: &FiguresOutput, inputs: &FiguresInputs) -> SimMetrics {
    let mut tokens = 0.0;
    let mut seconds = 0.0;
    let mut met = 0usize;
    let mut ttft = Vec::new();
    let paper_runs = output
        .runs
        .iter()
        .zip(&inputs.runs)
        .filter(|(_, run)| run.design == Design::PaperDefault)
        .map(|(report, _)| report);
    for report in paper_runs {
        let clock = report.run.clock_mhz;
        let out = report.run.output_tokens as f64;
        let decode_s = report
            .run
            .phase(Phase::Decode)
            .map_or(0.0, |p| p.seconds(clock));
        let first = report.latency_s - decode_s + decode_s / out;
        let tpot = decode_s / out;
        tokens += out;
        seconds += report.latency_s;
        if first <= 0.6 && tpot <= 0.03 {
            met += 1;
        }
        ttft.push(first * f64::from(clock) / 1e3);
    }
    SimMetrics {
        tokens_per_s: tokens / seconds,
        tokens_per_joule: output.table2.edgemm_tokens_per_joule,
        speedup_vs_gpu: output.table2.edgemm_pruned_speedup,
        slo_attainment: met as f64 / ttft.len() as f64,
        ttft_p99_gcycles: percentile(ttft, 99.0),
    }
}
