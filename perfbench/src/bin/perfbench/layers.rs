//! The traced run (`--trace 1`): per-layer metrics measured from outside,
//! by timing and counting calls into each layer's public functions.
//!
//! Every traced run reports every layer. A layer the workload reaches is
//! measured on the workload's own inputs; `serve.*` on `paper_figures` is
//! measured on `serve_overload` at a quarter of its length, and `fleet.*` on
//! the three non-fleet workloads on `fleet_route` at a quarter of its
//! length. The kernel and pricing probes are the same on every workload,
//! except that the event queue is driven at the served trace's queue depth.
//!
//! Each wrapped engine or gateway report is compared byte for byte (by
//! `Debug` digest) with the report of the untraced user path, so the
//! wrappers cannot change what they measure; a mismatch is a failed check.

use std::cell::Cell;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use edgemm::arch::{ChipConfig, CimGeometry, ClusterKind, SystolicGeometry};
use edgemm::coproc::{ActAwarePruner, CimMacro, SystolicArray};
use edgemm::fleet::{FleetGateway, FleetReplica, ReplicaView, RoutePolicy};
use edgemm::mem::{prefix_key, BlockTable, KvPool, PagedKvPool};
use edgemm::mllm::{
    gemv, ActivationGenerator, ActivationProfile, Matrix, MllmConfig, ModelWorkload,
};
use edgemm::pruning::{DynamicTopK, Pruner};
use edgemm::serve::{
    QueuedRequest, SchedulePolicy, ServeConfig, ServeRequest, ServeScratch, ServeSimulator,
};
use edgemm::sim::{Machine, PruningEffect, SimConfig};
use edgemm::units::{Bytes, Cycles, Tokens};
use edgemm::{EdgeMm, RoutingKind, ServeOptions, DEFAULT_SPILL_PENALTY};
use edgemm_event::EventQueue;

use crate::trace::{NoTrace, Recorder, Tracer};
use crate::workloads::{
    check_figures, check_fleet, check_serve, debug_digest, figures_inputs, figures_op, fleet_op,
    fleet_options, model, serve_options, serving_trace, Workload, FLEET_REPLICAS,
    PAPER_TABLE2_PRUNED_SPEEDUP,
};
use crate::{median, Outcome};

/// Output checks made by the traced run.
#[derive(Debug, Default)]
struct Checks {
    attempted: usize,
    failed: usize,
}

impl Checks {
    fn expect(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            eprintln!("traced check failed: {what}: {e}");
            self.failed += 1;
        }
    }

    fn same(&mut self, what: &str, traced: &impl std::fmt::Debug, untraced: &impl std::fmt::Debug) {
        let equal = debug_digest(traced) == debug_digest(untraced);
        self.expect(
            what,
            if equal {
                Ok(())
            } else {
                Err("wrapped report differs from the user path's".into())
            },
        );
    }
}

/// Host seconds of one call of `f`, with its value.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let value = f();
    (value, t.elapsed().as_secs_f64())
}

/// Untraced timings in the traced run are the median of this many calls.
const TIMING_REPS: usize = 3;

/// Median host seconds of [`TIMING_REPS`] calls of `f`, each in a span
/// named `name`, with the last call's value.
fn timed_median<T>(rec: &mut Recorder, name: &'static str, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(TIMING_REPS);
    let mut value = None;
    for _ in 0..TIMING_REPS {
        drop(value.take());
        let (v, s) = timed(|| rec.span(name, &mut f));
        value = Some(v);
        times.push(s);
    }
    (value.expect("at least one call"), median(&times))
}

/// Log-log slope of host time against trace length between a half-length
/// and a full-length run.
fn slope(full_s: f64, half_s: f64, full_n: usize, half_n: usize) -> f64 {
    (full_s / half_s).ln() / (full_n as f64 / half_n as f64).ln()
}

/// The engine configuration `EdgeMm` lowers `options` to, rebuilt from
/// public constructors so the traced run can drive `ServeSimulator` with a
/// wrapped policy. Byte identity with `EdgeMm::serve` is checked, so a
/// drift between this and the facade shows as a failed check.
fn serving_config(system: &EdgeMm, model: &MllmConfig, options: ServeOptions) -> ServeConfig {
    let kv = match options.kv_budget_bytes {
        None => KvPool::unbounded(),
        Some(budget) => KvPool::with_budget(budget)
            .with_onchip(Bytes::new(
                system
                    .machine()
                    .config()
                    .chip
                    .total_data_memory(ClusterKind::MemoryCentric),
            ))
            .with_spill_penalty(DEFAULT_SPILL_PENALTY),
    };
    let pruning = if options.pruning {
        let reference = ModelWorkload::new(model.clone(), 20, 32);
        let measured = system.measure_pruning(&reference, options.seed, 4);
        PruningEffect::with_keep_ratio(measured.average_keep_ratio.clamp(0.01, 1.0))
    } else {
        PruningEffect::disabled()
    };
    ServeConfig {
        batch_cap: options.batch_cap,
        chunk_tokens: options.chunk_tokens,
        kv,
        block_tokens: options.block_tokens,
        prefix_sharing: options.prefix_sharing,
        spill_capacity_bytes: options.spill_capacity_bytes,
        eager_kv_accounting: options.eager_kv_accounting,
        pruning,
        admission: options.admission,
    }
}

/// A scheduling policy that counts and times the calls it forwards.
#[derive(Debug)]
struct CountingPolicy {
    inner: &'static dyn SchedulePolicy,
    calls: Cell<u64>,
    scanned: Cell<u64>,
    busy: Cell<Duration>,
}

impl CountingPolicy {
    fn new(inner: &'static dyn SchedulePolicy) -> Self {
        CountingPolicy {
            inner,
            calls: Cell::new(0),
            scanned: Cell::new(0),
            busy: Cell::new(Duration::ZERO),
        }
    }

    fn count(&self, queue_len: usize, choose: impl FnOnce() -> usize) -> usize {
        let t = Instant::now();
        let pick = choose();
        self.busy.set(self.busy.get() + t.elapsed());
        self.calls.set(self.calls.get() + 1);
        self.scanned.set(self.scanned.get() + queue_len as u64);
        pick
    }
}

impl SchedulePolicy for CountingPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn choose(&self, queued: &[QueuedRequest]) -> usize {
        self.count(queued.len(), || self.inner.choose(queued))
    }

    fn choose_join(&self, ready: &[QueuedRequest]) -> usize {
        self.count(ready.len(), || self.inner.choose_join(ready))
    }
}

/// A routing policy that counts and times the calls it forwards.
#[derive(Debug)]
struct CountingRoute {
    inner: Box<dyn RoutePolicy>,
    calls: u64,
    busy: Duration,
}

impl RoutePolicy for CountingRoute {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&mut self, request: &ServeRequest, views: &[ReplicaView]) -> usize {
        let t = Instant::now();
        let pick = self.inner.route(request, views);
        self.busy += t.elapsed();
        self.calls += 1;
        pick
    }
}

/// What the serve layer hands to the other layers' measurements.
struct ServeLayer {
    overhead_frac: f64,
    max_queue_depth: usize,
}

fn serve_layer(
    rec: &mut Recorder,
    checks: &mut Checks,
    out: &mut Outcome,
    source: Workload,
    divisor: usize,
    seed: u64,
) -> ServeLayer {
    let model = model();
    let options = if source == Workload::FleetRoute {
        fleet_options()
    } else {
        serve_options()
    };
    let system = EdgeMm::paper_default();
    let trace = serving_trace(source, seed, divisor);
    let half = serving_trace(source, seed, divisor * 2);

    let mut session = system.serve_session(&model, options);
    let reference = rec.span("serve.session_serve_warmup", || session.serve(&trace));
    checks.expect(
        "serve: warm-up report",
        check_serve(&reference, trace.len()),
    );
    let (again, full_s) = timed_median(rec, "serve.session_serve", || session.serve(&trace));
    checks.expect(
        "serve: repeat equals warm-up",
        if again == reference {
            Ok(())
        } else {
            Err("reports differ".into())
        },
    );
    drop(again);
    rec.span("serve.session_serve_half_warmup", || session.serve(&half));
    let (_, half_s) = timed_median(rec, "serve.session_serve_half", || session.serve(&half));

    let simulator = ServeSimulator::new(
        system.machine(),
        model.clone(),
        serving_config(&system, &model, options),
    );
    let policy = CountingPolicy::new(options.policy.policy());
    let mut scratch = ServeScratch::new();
    let (traced, traced_s) = timed(|| {
        rec.span("serve.run", || {
            simulator.run_with_scratch(&trace, &policy, &mut scratch)
        })
    });
    checks.same("serve: counted run vs EdgeMm session", &traced, &reference);

    let events = reference.queue_samples.len();
    let policy_s = policy.busy.get().as_secs_f64();
    out.metric("serve.events", events as f64, "count");
    out.metric(
        "serve.max_queue_depth",
        reference.max_queue_depth() as f64,
        "count",
    );
    out.metric("serve.policy_calls", policy.calls.get() as f64, "count");
    out.metric(
        "serve.policy_elements_scanned",
        policy.scanned.get() as f64,
        "count",
    );
    out.metric("serve.policy_s", policy_s, "s");
    out.metric("serve.policy_share", policy_s / traced_s, "frac");
    out.metric(
        "serve.host_us_per_event",
        full_s / events as f64 * 1e6,
        "us",
    );
    out.metric(
        "serve.scaling_slope",
        slope(full_s, half_s, trace.len(), half.len()),
        "ratio",
    );
    out.metric("serve.decode_steps", reference.decode_steps as f64, "count");
    out.metric("serve.preemptions", reference.preemptions as f64, "count");
    out.metric("serve.evictions", reference.evictions as f64, "count");
    let mib = |b: Bytes| b.as_f64() / (1u64 << 20) as f64;
    out.metric("mem.peak_kv_mib", mib(reference.peak_kv_bytes), "MiB");
    out.metric("mem.spilled_kv_mib", mib(reference.spilled_kv_bytes), "MiB");
    out.metric(
        "mem.restarted_prefill_tokens",
        reference.restarted_prefill_tokens.as_f64(),
        "tok",
    );
    eprintln!(
        "serve layer on {} / {divisor}: {} requests, full {full_s:.4} s, half {half_s:.4} s, traced {traced_s:.4} s, policy {policy_s:.4} s",
        source.name(),
        trace.len()
    );
    ServeLayer {
        overhead_frac: traced_s / full_s - 1.0,
        max_queue_depth: reference.max_queue_depth(),
    }
}

/// Returns the traced-versus-untraced overhead of the gateway.
fn fleet_layer(
    rec: &mut Recorder,
    checks: &mut Checks,
    out: &mut Outcome,
    divisor: usize,
    seed: u64,
) -> f64 {
    let model = model();
    let options = fleet_options();
    let system = EdgeMm::paper_default();
    let trace = serving_trace(Workload::FleetRoute, seed, divisor);
    let half = serving_trace(Workload::FleetRoute, seed, divisor * 2);

    rec.span("fleet.serve_fleet_warmup", || {
        fleet_op(&system, &model, &half[..half.len().min(8)])
    });
    let (reference, fleet_s) = timed_median(rec, "fleet.serve_fleet", || {
        fleet_op(&system, &model, &trace)
    });
    checks.expect(
        "fleet: user-path reports",
        check_fleet(&reference, trace.len()),
    );
    let (_, half_s) = timed_median(rec, "fleet.serve_fleet_half", || {
        fleet_op(&system, &model, &half)
    });

    let replicas = (0..FLEET_REPLICAS)
        .map(|_| {
            FleetReplica::new(
                ServeSimulator::new(
                    system.machine(),
                    model.clone(),
                    serving_config(&system, &model, options),
                ),
                options.policy,
            )
        })
        .collect();
    let mut gateway = FleetGateway::new(replicas);
    let mut route_calls = 0;
    let mut route_s = 0.0;
    let mut stale = 0;
    let mut completions = 0;
    let mut imbalance = 0.0;
    let t = Instant::now();
    rec.enter("fleet.gateway");
    for (kind, untraced) in RoutingKind::ALL.iter().zip(&reference) {
        let mut routing = CountingRoute {
            inner: kind.policy(options.seed),
            calls: 0,
            busy: Duration::ZERO,
        };
        let report = rec.span("fleet.gateway_serve", || {
            gateway.serve(&trace, &mut routing)
        });
        checks.same("fleet: counted gateway vs serve_fleet", &report, untraced);
        route_calls += routing.calls;
        route_s += routing.busy.as_secs_f64();
        stale += report.stale_completions;
        completions += report.completion_events;
        imbalance += report.load_imbalance() / RoutingKind::ALL.len() as f64;
    }
    rec.exit();
    let traced_s = t.elapsed().as_secs_f64();

    // Serve each replica's final sub-trace once, as a single engine would
    // if it knew its share of the trace up front.
    let mut once_s = 0.0;
    rec.enter("fleet.serve_once");
    for report in &reference {
        for (i, replica) in report.replicas.iter().enumerate() {
            let sub: Vec<ServeRequest> = trace
                .iter()
                .zip(&report.assignments)
                .filter(|(_, &a)| a == i)
                .map(|(r, _)| *r)
                .collect();
            let (once, s) = timed(|| system.serve(&model, &sub, options));
            once_s += s;
            checks.expect(
                "fleet: sub-trace served once equals the replica report",
                if once == *replica {
                    Ok(())
                } else {
                    Err(format!("replica {i} differs"))
                },
            );
        }
    }
    rec.exit();

    out.metric("fleet.route_calls", route_calls as f64, "count");
    out.metric("fleet.route_s", route_s, "s");
    out.metric("fleet.reserve_amplification", fleet_s / once_s, "ratio");
    out.metric("fleet.stale_completions", stale as f64, "count");
    out.metric("fleet.completion_events", completions as f64, "count");
    out.metric("fleet.load_imbalance", imbalance, "ratio");
    out.metric(
        "fleet.scaling_slope",
        slope(fleet_s, half_s, trace.len(), half.len()),
        "ratio",
    );
    eprintln!(
        "fleet layer / {divisor}: {} requests, serve_fleet x4 {fleet_s:.4} s, half {half_s:.4} s, traced {traced_s:.4} s, once {once_s:.4} s",
        trace.len()
    );
    traced_s / fleet_s - 1.0
}

/// Returns the traced-versus-untraced overhead of the figures op.
fn figures_layer(rec: &mut Recorder, checks: &mut Checks, out: &mut Outcome, seed: u64) -> f64 {
    let inputs = figures_inputs(seed);
    let (reference, untraced_s) = timed(|| figures_op(&inputs, &mut NoTrace));
    checks.expect(
        "figures: user-path output",
        check_figures(&reference, &inputs),
    );
    rec.enter("figures.op");
    let traced = figures_op(&inputs, rec);
    rec.exit();
    let traced_s = rec.last_s("figures.op");
    checks.same("figures: traced vs untraced output", &traced, &reference);

    let measure_s = rec.total_s("core.measure_pruning");
    let kernels_s = rec.last_s("figures.fig12") + rec.last_s("figures.fig3") + measure_s;
    out.metric("figures.fig12_s", rec.last_s("figures.fig12"), "s");
    out.metric("figures.fig3_s", rec.last_s("figures.fig3"), "s");
    out.metric("figures.fig11_s", rec.last_s("figures.fig11"), "s");
    out.metric("figures.fig13_s", rec.last_s("figures.fig13"), "s");
    out.metric("figures.table2_s", rec.last_s("figures.table2"), "s");
    out.metric(
        "figures.design_runs_s",
        rec.last_s("figures.design_runs"),
        "s",
    );
    out.metric("figures.kernel_share", kernels_s / traced_s, "frac");
    out.metric(
        "figures.table2_err_vs_paper",
        (reference.table2.edgemm_pruned_speedup - PAPER_TABLE2_PRUNED_SPEEDUP).abs()
            / PAPER_TABLE2_PRUNED_SPEEDUP,
        "frac",
    );
    eprintln!(
        "figures layer: untraced {untraced_s:.4} s, traced {traced_s:.4} s, measure_pruning {measure_s:.4} s, Table II pruned speedup {:.4}",
        reference.table2.edgemm_pruned_speedup
    );
    traced_s / untraced_s - 1.0
}

/// Median over `batches` batches of the host seconds per call of `f`,
/// calibrating the batch size so one batch lasts about `batch_s`.
fn per_call_s(batch_s: f64, batches: usize, mut f: impl FnMut()) -> f64 {
    let (_, once) = timed(&mut f);
    let reps = ((batch_s / once.max(1e-9)) as usize).clamp(1, 1_000_000);
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let (_, s) = timed(|| (0..reps).for_each(|_| f()));
            s / reps as f64
        })
        .collect();
    median(&samples)
}

/// Probes of the layers below the engine, from their public functions.
fn kernel_layers(
    rec: &mut Recorder,
    checks: &mut Checks,
    out: &mut Outcome,
    depth: usize,
    seed: u64,
) {
    const BATCH_S: f64 = 0.03;
    const BATCHES: usize = 5;
    let model = model();
    let llm = &model.llm;
    let sim_config = SimConfig::paper_default();

    rec.enter("probe.mem");
    let chip = ChipConfig::paper_default();
    let pool = KvPool::with_budget(Bytes::new(8 << 20))
        .with_onchip(Bytes::new(
            chip.total_data_memory(ClusterKind::MemoryCentric),
        ))
        .with_spill_penalty(DEFAULT_SPILL_PENALTY);
    let mut paged = PagedKvPool::new(
        pool,
        16,
        Bytes::per_token(llm.kv_bytes_per_token(sim_config.mc_weight_bytes)),
    );
    let mut grow_ok = true;
    let grow_release = per_call_s(BATCH_S, BATCHES, || {
        let mut table = BlockTable::empty();
        grow_ok &= paged.try_grow_to(&mut table, Tokens::new(256));
        paged.release(&mut table);
    });
    checks.expect(
        "mem: 256-token grow fits the pool",
        if grow_ok {
            Ok(())
        } else {
            Err("grow refused".into())
        },
    );
    let key = prefix_key(1, 200);
    let mut holder = BlockTable::empty();
    let first = paged.try_attach_prefix(&mut holder, key, Tokens::new(200));
    let attach = per_call_s(BATCH_S, BATCHES, || {
        let mut table = BlockTable::empty();
        black_box(paged.try_attach_prefix(&mut table, key, Tokens::new(200)));
        paged.release(&mut table);
    });
    checks.expect(
        "mem: prefix attaches",
        if first.is_some() {
            Ok(())
        } else {
            Err("attach refused".into())
        },
    );
    paged.release(&mut holder);
    out.metric("mem.grow_release_ns", grow_release * 1e9, "ns");
    out.metric("mem.attach_prefix_ns", attach * 1e9, "ns");
    rec.exit();

    rec.enter("probe.event");
    let depth = depth.max(1) as u64;
    let mut queue = EventQueue::new();
    for i in 0..depth {
        queue.push(Cycles::new(i * 7), i);
    }
    let push_pop = per_call_s(BATCH_S, BATCHES, || {
        let (cycle, event) = queue.pop().expect("queue holds `depth` events");
        queue.push(Cycles::new(cycle.get() + depth * 7 + event % 13), event);
    });
    out.metric("event.push_pop_ns", push_pop * 1e9, "ns");
    rec.exit();

    rec.enter("probe.sim");
    let request = ModelWorkload::new(model.clone(), 20, 32);
    let mut ops: Vec<_> = request
        .vision_encoder_ops()
        .into_iter()
        .chain(request.projector_ops())
        .chain(request.prefill_ops())
        .map(|op| (op, ClusterKind::ComputeCentric))
        .collect();
    ops.extend(
        request
            .decode_step_ops(20)
            .into_iter()
            .map(|op| (op, ClusterKind::MemoryCentric)),
    );
    // One entry per distinct operator, so every call on a fresh machine
    // misses the pricing memo.
    let mut seen = std::collections::HashSet::new();
    ops.retain(|entry| seen.insert(format!("{entry:?}")));
    let price = |machine: &Machine| {
        for (op, kind) in &ops {
            black_box(machine.op_cost(op, *kind, PruningEffect::disabled()));
        }
    };
    let cold: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let machine = Machine::new(sim_config.clone());
            timed(|| price(&machine)).1 / ops.len() as f64
        })
        .collect();
    let warm_machine = Machine::new(sim_config.clone());
    price(&warm_machine);
    let warm = per_call_s(BATCH_S, BATCHES, || price(&warm_machine)) / ops.len() as f64;
    out.metric("sim.op_cost_cold_us", median(&cold) * 1e6, "us");
    out.metric("sim.op_cost_warm_ns", warm * 1e9, "ns");
    rec.exit();

    rec.enter("probe.core");
    let measure: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let system = EdgeMm::paper_default();
            timed(|| black_box(system.measure_pruning(&request, seed, 4))).1
        })
        .collect();
    out.metric("core.measure_pruning_cold_ms", median(&measure) * 1e3, "ms");
    rec.exit();

    rec.enter("probe.pruning_mllm");
    let generator = ActivationGenerator::new(
        ActivationProfile::sphinx_tiny_like(llm.layers, llm.d_model),
        seed,
    );
    let mut layer = 0;
    let generate = per_call_s(BATCH_S, BATCHES, || {
        black_box(generator.generate(layer, 0));
        layer = (layer + 1) % llm.layers;
    });
    let activations: Vec<Vec<f32>> = (0..llm.layers).map(|l| generator.generate(l, 0)).collect();
    let mut pruner = DynamicTopK::paper_default(llm.d_model);
    let mut layer = 0;
    let select = per_call_s(BATCH_S, BATCHES, || {
        if layer == 0 {
            pruner.reset();
        }
        black_box(pruner.select(layer, &activations[layer]));
        layer = (layer + 1) % llm.layers;
    });
    let weights = Matrix::from_fn(llm.d_model, llm.d_ffn, |r, c| {
        ((r * 31 + c * 17) % 1000) as f32 / 1000.0 - 0.5
    });
    let x = &activations[llm.layers - 1];
    let gemv_s = per_call_s(BATCH_S, BATCHES, || {
        black_box(gemv(black_box(x), &weights));
    });
    let macs = (llm.d_model * llm.d_ffn) as f64;
    let bytes = 4.0 * (macs + (llm.d_model + llm.d_ffn) as f64);
    out.metric("pruning.topk_select_us", select * 1e6, "us");
    out.metric("mllm.activation_generate_us", generate * 1e6, "us");
    out.metric("mllm.gemv_ms", gemv_s * 1e3, "ms");
    out.metric("mllm.gemv_gmac_per_s", macs / gemv_s / 1e9, "GMAC/s");
    out.metric("mllm.gemv_gb_per_s", bytes / gemv_s / 1e9, "GB/s");
    rec.exit();

    rec.enter("probe.coproc");
    let sa = SystolicArray::new(SystolicGeometry::paper_default());
    let n = 256;
    let a = vec![0.5f32; n * n];
    let b = vec![0.25f32; n * n];
    let gemm_s = per_call_s(BATCH_S, BATCHES, || {
        black_box(sa.gemm(black_box(&a), black_box(&b), n, n, n));
    });
    let (k, cols) = (2048, 512);
    let mut cim = CimMacro::new(CimGeometry::paper_default());
    let cim_weights: Vec<f32> = (0..k * cols).map(|i| (i % 13) as f32 * 0.01).collect();
    cim.load_weights(&cim_weights, k, cols);
    let cim_x: Vec<f32> = (0..k).map(|i| (i % 7) as f32 * 0.1).collect();
    let cim_s = per_call_s(BATCH_S, BATCHES, || {
        black_box(cim.gemv(black_box(&cim_x)));
    });
    let hw_pruner = ActAwarePruner::default();
    let slice: Vec<f32> = (0..2048)
        .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.01)
        .collect();
    let prune_s = per_call_s(BATCH_S, BATCHES, || {
        black_box(hw_pruner.prune(black_box(&slice), 128, 16, 0));
    });
    out.metric("coproc.systolic_gemm_ms", gemm_s * 1e3, "ms");
    out.metric("coproc.cim_gemv_us", cim_s * 1e6, "us");
    out.metric("coproc.pruner_us", prune_s * 1e6, "us");
    rec.exit();
}

/// The traced run of `workload`: every layer's metrics, with spans written
/// to `perfbench/out/spans-<workload>-<seed>.json`.
pub fn run(workload: Workload, seed: u64) -> Outcome {
    let mut rec = Recorder::default();
    let mut checks = Checks::default();
    let mut out = Outcome::default();

    let (serve_source, serve_divisor) = match workload {
        Workload::PaperFigures => (Workload::ServeOverload, 4),
        serving => (serving, 1),
    };
    rec.enter("layer.serve");
    let serve = serve_layer(
        &mut rec,
        &mut checks,
        &mut out,
        serve_source,
        serve_divisor,
        seed,
    );
    rec.exit();
    rec.enter("layer.fleet");
    let fleet_divisor = if workload == Workload::FleetRoute {
        1
    } else {
        4
    };
    let fleet_overhead = fleet_layer(&mut rec, &mut checks, &mut out, fleet_divisor, seed);
    rec.exit();
    rec.enter("layer.figures");
    let figures_overhead = figures_layer(&mut rec, &mut checks, &mut out, seed);
    rec.exit();
    rec.enter("layer.kernels");
    kernel_layers(&mut rec, &mut checks, &mut out, serve.max_queue_depth, seed);
    rec.exit();

    let overhead = match workload {
        Workload::ServeLight | Workload::ServeOverload => serve.overhead_frac,
        Workload::FleetRoute => fleet_overhead,
        Workload::PaperFigures => figures_overhead,
    };
    out.metric("trace.overhead_frac", overhead, "frac");

    let path: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "out",
        &format!("spans-{}-{seed}.json", workload.name()),
    ]
    .iter()
    .collect();
    if let Err(e) = rec.write_json(&path, workload.name(), seed) {
        eprintln!("could not write spans to {}: {e}", path.display());
        checks.failed += 1;
    }
    out.correct = checks.failed == 0;
    out.attempted = checks.attempted;
    out.failed = checks.failed;
    out
}
