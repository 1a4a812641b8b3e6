//! The event-driven multi-request simulator with continuous batching,
//! chunked prefill and KV-occupancy batch admission.
//!
//! Requests flow through the two-stage EdgeMM pipeline: the CC stage runs
//! vision encode + projector + prefill (one request at a time, in the order
//! a [`SchedulePolicy`] picks), then the request joins the MC decode batch.
//! Two resource models govern the stages:
//!
//! * **Chunked prefill** ([`ServeConfig::chunk_tokens`]): the CC stage
//!   processes a prefill in token-budget chunks and re-runs the scheduling
//!   policy at every chunk boundary, so an interactive arrival can preempt
//!   a long background prefill mid-flight instead of waiting out its whole
//!   encode + prefill block. Unchunked prefill is the one-chunk special
//!   case and reproduces the pre-chunking simulator exactly.
//! * **KV-occupancy admission** ([`ServeConfig::kv`]): a prefilled request
//!   joins the decode batch only while the [`KvPool`] has headroom for its
//!   peak KV footprint; when the pool is full the request blocks in the
//!   ready queue until a finishing stream releases bytes. The constant
//!   [`ServeConfig::batch_cap`] is retained only as an optional override
//!   on top of the memory model.
//!
//! Decoding is *continuously batched* at step granularity: every step
//! generates one token for every stream in the batch, finished requests
//! leave at the step boundary, and admitted requests join immediately —
//! the batch never drains to restart. When more prefilled requests wait
//! than there is headroom, the join order is also the policy's call
//! ([`SchedulePolicy::choose_join`]), so one discipline governs the whole
//! pipeline.
//!
//! On top of the policy sits [`AdmissionControl`]: every time the CC stage
//! looks for work it computes each queued request's TTFT *slack* — could the
//! deadline still be met if the remaining prefill started right now? — and
//! either serves hopeless requests anyway ([`AdmissionControl::Serve`]),
//! parks them behind every salvageable request ([`AdmissionControl::Defer`]),
//! or drops them ([`AdmissionControl::Reject`], reported in
//! [`ServeReport::rejected`]).
//!
//! Costs come from the cycle-level simulator (`edgemm-sim`), not from a
//! separate analytic model: each request's prefill chunks are
//! [`Machine::prefill_chunk_costs`] results, and its decode steps are
//! per-operator [`Machine::decode_step_costs`] that the step combiner
//! merges across the batch — weight fetches are shared between streams (the
//! Fig. 9c weight reuse), KV-cache traffic and compute repeat per stream,
//! and the KV traffic is scaled by the pool's spill state
//! ([`KvPool::kv_traffic_factor`]).

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use edgemm_arch::ClusterKind;
use edgemm_core::float::is_one;
use edgemm_core::units::{clock_hz, Bytes, BytesPerToken, Cycles, Tokens};
use edgemm_event::{Clock, EventQueue};
use edgemm_mem::{
    prefix_key, BlockTable, DmaEngine, DmaRequest, KvPool, PagedKvPool, SpillTicket,
    TrafficClass as MemTrafficClass,
};
use edgemm_mllm::{MllmConfig, ModelWorkload, Phase, TrafficClass};
use edgemm_sim::{DecodeOptions, Machine, OpCost, PruningEffect};

use crate::metrics::{QueueSample, ServeReport};
use crate::policy::{QueuedRequest, SchedulePolicy};
use crate::request::{CompletedRequest, RejectedRequest, ServeRequest};
use crate::slo::AdmissionControl;

/// Static configuration of a serving run.
///
/// Build one with the chained constructors: [`ServeConfig::new`] is fully
/// unconstrained, [`ServeConfig::with_batch_cap`] is the legacy
/// constant-cap entry point, and [`Self::chunk_tokens`](Self::with_chunk_tokens)
/// / [`Self::with_kv_pool`] layer the memory-aware models on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Optional hard cap on the number of streams decoded concurrently,
    /// layered *on top of* the KV pool. `None` leaves batch membership
    /// entirely to KV headroom — the physically grounded default once a
    /// bounded [`Self::kv`] is configured. Keep a cap when an external
    /// constraint (scheduler slots, per-stream state) binds before memory
    /// does, or to reproduce pre-KV-pool results.
    pub batch_cap: Option<usize>,
    /// Prefill chunk budget in prompt tokens. `None` runs each prefill as
    /// one unpreemptible block (the pre-chunking behaviour); `Some(n)`
    /// re-runs the scheduling policy every `n` prompt tokens, letting
    /// urgent arrivals preempt long prefills at chunk boundaries at the
    /// price of re-streaming the layer weights once per chunk.
    pub chunk_tokens: Option<usize>,
    /// The KV-cache capacity model admitting decode streams by byte
    /// headroom ([`KvPool::unbounded`] reproduces the pre-pool behaviour).
    pub kv: KvPool,
    /// Block size, in cached tokens, of *paged* KV allocation. `None` (the
    /// default) keeps whole-request peak reservations: a stream reserves
    /// `kv_cache_bytes(prompt + output)` when it joins the decode batch and
    /// holds it to completion. `Some(n)` turns the [`Self::kv`] budget into
    /// a block-granular [`PagedKvPool`]: streams allocate `n`-token blocks
    /// lazily as decode extends their context, every decode step is priced
    /// at each stream's *actual* context length (not the request average),
    /// and under KV or slot pressure a strictly-less-urgent stream can be
    /// **evicted mid-decode** — its blocks freed and the request re-queued
    /// for re-prefill over its accumulated context (see `docs/memory.md`).
    pub block_tokens: Option<usize>,
    /// Share KV blocks across requests that declare the same prompt prefix
    /// ([`crate::SharedPrefix`]): the full blocks of a tenant's system
    /// prompt are allocated once, refcounted, and mapped by every stream
    /// carrying it — later streams skip the covered prefill chunks and pay
    /// only a copy-on-write tail-block copy (priced on the DMA engine).
    /// Requires paged allocation ([`Self::block_tokens`]); off by default.
    pub prefix_sharing: bool,
    /// DRAM spill area for evicted KV. `None` (the default) keeps the PR 5
    /// recompute model: an eviction discards the stream's blocks and
    /// re-queues it for re-prefill. `Some(bytes)` turns evictions into
    /// **spill-and-restore**: the victim's KV image is written to the area
    /// (a DMA transfer at the modeled bandwidth share, charged to the
    /// decode step that forced it) and read back verbatim when the stream
    /// re-joins, so [`ServeReport::restarted_prefill_tokens`] collapses to
    /// zero; recompute remains the fallback once the area is full.
    /// Requires paged allocation ([`Self::block_tokens`]).
    pub spill_capacity_bytes: Option<Bytes>,
    /// Account KV written by completed prefill chunks *as it is written*:
    /// each chunk dispatch grows the stream's block table to the tokens the
    /// chunk will cover, so streams waiting in the CC/ready queues hold
    /// their true footprint in the pool and admission (and
    /// [`QueueSample::kv_bytes`]) stop under-reporting. A chunk that cannot
    /// allocate its blocks waits at the CC stage until the pool drains.
    /// Requires paged allocation ([`Self::block_tokens`]); off by default
    /// (join-time accounting, the PR 5 behaviour).
    pub eager_kv_accounting: bool,
    /// Activation-aware pruning effect applied to every request's decode
    /// FFN GEMVs (use [`PruningEffect::disabled`] for dense serving).
    pub pruning: PruningEffect,
    /// What the CC stage does with requests whose TTFT deadline has become
    /// unreachable ([`AdmissionControl::Serve`] reproduces the pre-SLO
    /// behaviour: serve everything, report the misses).
    pub admission: AdmissionControl,
}

impl ServeConfig {
    /// Dense serving with no batch cap, no prefill chunking and an
    /// unbounded KV pool: the maximally permissive starting point for the
    /// chained builder methods.
    pub fn new() -> Self {
        ServeConfig {
            batch_cap: None,
            chunk_tokens: None,
            kv: KvPool::unbounded(),
            block_tokens: None,
            prefix_sharing: false,
            spill_capacity_bytes: None,
            eager_kv_accounting: false,
            pruning: PruningEffect::disabled(),
            admission: AdmissionControl::Serve,
        }
    }

    /// Dense serving under a constant decode batch cap and admit-all
    /// admission — the legacy entry point, routed through [`Self::new`].
    ///
    /// Prefer bounding the batch with a [`KvPool`] (via
    /// [`Self::with_kv_pool`]): the pool derives batch membership from the
    /// thing that actually runs out — KV bytes — so long-context streams
    /// cost more slots than short ones. A hard cap still makes sense when
    /// something other than memory binds first (fixed scheduler slots,
    /// per-stream software state) or when reproducing pre-pool results.
    pub fn with_batch_cap(batch_cap: usize) -> Self {
        Self::new().with_batch_cap_override(batch_cap)
    }

    /// The same configuration with a hard cap on concurrent decode streams.
    pub fn with_batch_cap_override(self, batch_cap: usize) -> Self {
        ServeConfig {
            batch_cap: Some(batch_cap),
            ..self
        }
    }

    /// The same configuration with prefill chunked at `chunk_tokens` prompt
    /// tokens.
    pub fn with_chunk_tokens(self, chunk_tokens: usize) -> Self {
        ServeConfig {
            chunk_tokens: Some(chunk_tokens),
            ..self
        }
    }

    /// The same configuration with decode-batch admission governed by `kv`.
    pub fn with_kv_pool(self, kv: KvPool) -> Self {
        ServeConfig { kv, ..self }
    }

    /// The same configuration with the KV pool paged at `block_tokens`
    /// tokens per block (lazy allocation, per-step context-length pricing,
    /// and priority-aware mid-decode eviction — see
    /// [`ServeConfig::block_tokens`]).
    pub fn with_block_tokens(self, block_tokens: usize) -> Self {
        ServeConfig {
            block_tokens: Some(block_tokens),
            ..self
        }
    }

    /// The same configuration with cross-request prefix sharing enabled
    /// (see [`ServeConfig::prefix_sharing`]; requires
    /// [`Self::with_block_tokens`]).
    pub fn with_prefix_sharing(self) -> Self {
        ServeConfig {
            prefix_sharing: true,
            ..self
        }
    }

    /// The same configuration with a DRAM spill area of `capacity` bytes
    /// for spill-and-restore eviction (see
    /// [`ServeConfig::spill_capacity_bytes`]; requires
    /// [`Self::with_block_tokens`]).
    pub fn with_spill_capacity(self, capacity: Bytes) -> Self {
        ServeConfig {
            spill_capacity_bytes: Some(capacity),
            ..self
        }
    }

    /// The same configuration with eager (chunk-granular) KV accounting
    /// (see [`ServeConfig::eager_kv_accounting`]; requires
    /// [`Self::with_block_tokens`]).
    pub fn with_eager_kv_accounting(self) -> Self {
        ServeConfig {
            eager_kv_accounting: true,
            ..self
        }
    }

    /// The same configuration under a different admission mode.
    pub fn with_admission(self, admission: AdmissionControl) -> Self {
        ServeConfig { admission, ..self }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::with_batch_cap(8)
    }
}

/// What the heap driver pops from its [`EventQueue`]: a request
/// arrival, the CC stage finishing a prefill chunk, or the MC stage
/// finishing a decode step. DMA spill/restore transfers complete *within*
/// the chunk or step that forced them (the engine model serialises them
/// into that stage's end cycle), so they need no event of their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Request `states[i]` enters the CC queue.
    Arrival(usize),
    /// The CC stage finishes its running prefill chunk.
    ChunkDone,
    /// The MC stage finishes the decode step of the current batch.
    StepDone,
}

/// Precomputed costs plus recorded timeline of one request in flight.
#[derive(Debug)]
struct InFlight {
    request: ServeRequest,
    arrival_cycle: Cycles,
    /// Absolute TTFT deadline in cycles, if the request's class sets one.
    ttft_deadline_cycle: Option<Cycles>,
    prompt_tokens: usize,
    /// Per-chunk CC-stage cycles (vision encode + projector folded into the
    /// first chunk). A single entry when prefill is unchunked.
    chunk_cycles: Vec<Cycles>,
    chunks_done: usize,
    /// Sum of the not-yet-executed chunks — the CC time the request still
    /// needs, which is what feasibility and cost-aware policies care about.
    remaining_prefill_cycles: Cycles,
    /// Total CC-stage cycles (all chunks).
    prefill_cycles: Cycles,
    /// Peak KV-cache footprint reserved in the pool while decoding
    /// (whole-request reservations; unused by the paged allocator).
    kv_bytes: Bytes,
    /// Per-operator cost of one average decode step, solo. In paged mode
    /// this doubles as the *template*: the weight-facing entries are exact
    /// at any context, and the KV-facing entries are re-priced per step at
    /// the stream's actual context length.
    step_costs: Vec<OpCost>,
    solo_step_cycles: Cycles,
    remaining_tokens: usize,
    /// Tokens generated so far. Survives an eviction: the text exists, only
    /// its KV must be recomputed, so the accumulated context of a stream is
    /// always `prompt_tokens + generated`.
    generated: usize,
    /// Paged-mode page table of the stream's resident KV blocks.
    table: BlockTable,
    /// The stream's parked KV image while spill-and-restore evicted it:
    /// the ticket to restore from at re-admission. `None` while resident.
    spill: Option<SpillTicket>,
    /// Copy-on-write bytes a shared-prefix attach still owes the DMA
    /// engine — charged to (and cleared by) the stream's next CC chunk.
    pending_copy_bytes: Bytes,
    /// Whether the first prefill has completed (the first token exists).
    /// TTFT is frozen then: an evicted request re-queued for re-prefill is
    /// never re-judged (or rejected) on a deadline that is already history.
    has_first_token: bool,
    prefill_start: Cycles,
    prefill_end: Cycles,
    decode_start: Cycles,
    finish: Cycles,
}

impl InFlight {
    /// Could the TTFT deadline still be met if the *remaining* prefill ran
    /// uninterrupted from `now`? Deadline-free requests always can, and so
    /// do requests whose first token already exists (eviction re-prefills
    /// cannot re-miss a TTFT that is already decided).
    fn ttft_feasible_at(&self, now: Cycles) -> bool {
        self.has_first_token
            || self.ttft_deadline_cycle.map_or(true, |deadline| {
                now + self.remaining_prefill_cycles <= deadline
            })
    }

    /// Cached context of the stream: prompt prefix plus generated tokens.
    fn context_tokens(&self) -> usize {
        self.prompt_tokens + self.generated
    }

    fn prefill_finished(&self) -> bool {
        self.chunks_done == self.chunk_cycles.len()
    }

    fn as_queued(&self) -> QueuedRequest {
        QueuedRequest {
            id: self.request.id,
            arrival_s: self.request.arrival_s,
            prompt_tokens: self.prompt_tokens,
            output_tokens: self.request.output_tokens,
            prefill_cycles: self.prefill_cycles,
            remaining_prefill_cycles: self.remaining_prefill_cycles,
            decode_cycles: self.solo_step_cycles * self.request.output_tokens,
            slo: self.request.slo,
        }
    }
}

/// Reusable allocations for [`ServeSimulator::run_with_scratch`].
///
/// One simulation allocates a dozen collections — the event heap, the
/// stage queues, the per-run pricing memos — and drops them all at the
/// end. Callers that simulate repeatedly (the bench's timed repeats, sweep
/// workers) can pass the same scratch back in so those collections keep
/// their capacity across runs.
///
/// The scratch carries **capacity only, never state**: every collection is
/// cleared at the start of each run (the memos are trace-dependent — their
/// keys are indices into that run's request list — so reusing entries
/// across traces would be wrong, not just stale). A run with a fresh
/// scratch and a run with a reused one are therefore byte-identical, which
/// is what lets [`ServeSimulator::run`] delegate here unconditionally.
#[derive(Debug, Default)]
pub struct ServeScratch {
    states: Vec<InFlight>,
    order: Vec<usize>,
    events: EventQueue<Event>,
    cc_queue: Vec<usize>,
    ready: Vec<usize>,
    batch: Vec<usize>,
    completed_order: Vec<usize>,
    rejected_order: Vec<(usize, Cycles)>,
    kv_costs: HashMap<usize, (OpCost, OpCost)>,
    step_memo: HashMap<(Vec<usize>, u64), Cycles>,
    weight_memo: HashMap<Vec<usize>, (Cycles, usize)>,
    /// Length of the previous run's sample log; the next run's log is
    /// pre-sized to it (the log itself moves into the report, so only the
    /// size hint can be carried over).
    samples_hint: usize,
}

impl ServeScratch {
    /// An empty scratch; capacity grows on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The multi-request serving simulator over one machine and one model.
#[derive(Debug)]
pub struct ServeSimulator<'a> {
    machine: &'a Machine,
    model: MllmConfig,
    config: ServeConfig,
    /// KV bytes one cached token occupies (all layers, K and V) at the MC
    /// weight precision — the unit the paged allocator sizes blocks in.
    kv_bytes_per_token: BytesPerToken,
    /// A zero-prompt workload over the served model, kept around so pricing
    /// probes (e.g. the per-context KV op shapes) need not rebuild one.
    probe: ModelWorkload,
    /// Vision encode + projector cycles. The two phases never see the text
    /// prompt — their operators are fixed by the model alone — so the cost
    /// is priced once and shared by every admission.
    setup_cycles: OnceLock<Cycles>,
    /// Prefill chunk cycles keyed by `(cached, len)`. A chunk's operators
    /// depend only on the cached prefix and the chunk length, never on
    /// which request's prompt it belongs to, so the full chunks of every
    /// prompt under one budget share one entry.
    chunk_cache: Mutex<HashMap<(usize, usize), Cycles>>,
    /// One decode step's per-operator costs in stream order, priced once at
    /// a fixed context. Only the two KV-facing operators of each layer
    /// depend on the context, so per-request pricing clones this template
    /// and patches the KV entries at the request's own context.
    step_template: OnceLock<Vec<OpCost>>,
}

impl<'a> ServeSimulator<'a> {
    /// Create a simulator serving `model` on `machine`.
    ///
    /// # Panics
    ///
    /// Panics if a configured batch capacity, chunk budget or KV block size
    /// is zero, or if prefix sharing, spill-and-restore or eager KV
    /// accounting is configured without paged allocation.
    pub fn new(machine: &'a Machine, model: MllmConfig, config: ServeConfig) -> Self {
        validate(&config, &[]);
        let kv_bytes_per_token = Bytes::per_token(
            model
                .llm
                .kv_bytes_per_token(machine.config().mc_weight_bytes),
        );
        let probe = ModelWorkload::new(model.clone(), 0, 1);
        ServeSimulator {
            machine,
            model,
            config,
            kv_bytes_per_token,
            probe,
            setup_cycles: OnceLock::new(),
            chunk_cache: Mutex::new(HashMap::new()),
            step_template: OnceLock::new(),
        }
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    fn clock_hz(&self) -> f64 {
        clock_hz(self.machine.config().chip.clock_mhz)
    }

    fn admit(&self, request: &ServeRequest) -> InFlight {
        let workload = ModelWorkload::new(
            self.model.clone(),
            request.text_tokens,
            request.output_tokens,
        );
        let decode = DecodeOptions {
            pruning: self.config.pruning,
            batch: 1,
        };
        let cc_kind = ClusterKind::ComputeCentric;
        // Vision encode + projector always run ahead of the first prompt
        // chunk; they are unsplittable and folded into chunk 0. Their
        // operators are prompt-independent, so the cost is priced once per
        // simulator.
        let setup_cycles: Cycles = *self.setup_cycles.get_or_init(|| {
            [Phase::VisionEncode, Phase::Projector]
                .iter()
                .map(|&phase| {
                    self.machine
                        .run_phase_on(&workload, phase, cc_kind, decode)
                        .cycles
                })
                .sum()
        });
        let chunk_cycles = self.prefill_chunk_cycles(&workload, setup_cycles);
        let prefill_cycles: Cycles = chunk_cycles.iter().copied().sum();
        // Peak resident KV: every layer caches K and V for the prompt plus
        // the whole generation, at the MC-side weight precision (the same
        // bytes/value the decode step's KV traffic is charged at).
        let kv_bytes = Bytes::new(workload.config().llm.kv_cache_bytes(
            workload.prompt_tokens() + request.output_tokens,
            self.machine.config().mc_weight_bytes,
        ));
        let step_costs = self.decode_step_costs_from_template(workload.average_context_tokens());
        let solo_step_cycles = step_costs.iter().map(OpCost::latency_cycles).sum();
        let clock_hz = self.clock_hz();
        let arrival_cycle = Cycles::from_seconds_round(request.arrival_s, clock_hz);
        InFlight {
            arrival_cycle,
            // Offset from the *quantized* arrival and floored, so that a
            // request admitted at the last feasible cycle always satisfies
            // `CompletedRequest::meets_ttft` (which measures TTFT from the
            // same quantized arrival) — feasibility and the recorded miss
            // can never disagree by a rounding cycle.
            ttft_deadline_cycle: request
                .slo
                .ttft_deadline_s
                .map(|d| arrival_cycle + Cycles::from_seconds_floor(d, clock_hz)),
            prompt_tokens: workload.prompt_tokens(),
            remaining_prefill_cycles: prefill_cycles,
            prefill_cycles,
            chunk_cycles,
            chunks_done: 0,
            kv_bytes,
            step_costs,
            solo_step_cycles,
            remaining_tokens: request.output_tokens,
            generated: 0,
            table: BlockTable::empty(),
            spill: None,
            pending_copy_bytes: Bytes::ZERO,
            has_first_token: false,
            request: *request,
            prefill_start: Cycles::ZERO,
            prefill_end: Cycles::ZERO,
            decode_start: Cycles::ZERO,
            finish: Cycles::ZERO,
        }
    }

    /// Price one prefill as the CC stage's chunk list under the configured
    /// chunk budget: `setup_cycles` (vision encode + projector — zero for
    /// an eviction re-prefill) folds into the first chunk, and every chunk
    /// is clamped to one cycle because a zero-cycle stage would stall the
    /// event loop (events must advance time).
    fn prefill_chunk_cycles(&self, workload: &ModelWorkload, setup_cycles: Cycles) -> Vec<Cycles> {
        let cc_kind = ClusterKind::ComputeCentric;
        match self.config.chunk_tokens {
            None => {
                let decode = DecodeOptions {
                    pruning: self.config.pruning,
                    batch: 1,
                };
                let prefill = self
                    .machine
                    .run_phase_on(workload, Phase::Prefill, cc_kind, decode)
                    .cycles;
                vec![(setup_cycles + prefill).max(Cycles::new(1))]
            }
            Some(budget) => {
                // Same chunk grid as `Machine::prefill_chunk_costs`, with a
                // per-simulator memo: a chunk's operators are fixed by
                // `(cached, len)` alone, so the full chunks of every prompt
                // under one budget are priced exactly once.
                let prompt = workload.prompt_tokens();
                let mut chunks = Vec::with_capacity(prompt.div_ceil(budget).max(1));
                // lint:allow(no-unwrap): poisoning only follows a prior panic
                let mut cache = self.chunk_cache.lock().expect("chunk cache poisoned");
                let mut cached = 0;
                while cached < prompt {
                    let len = budget.min(prompt - cached);
                    let chunk = *cache.entry((cached, len)).or_insert_with(|| {
                        self.machine
                            .run_ops(
                                Phase::Prefill,
                                &workload.prefill_chunk_ops(cached, len),
                                cc_kind,
                                PruningEffect::disabled(),
                            )
                            .cycles
                    });
                    let cycles = if cached == 0 {
                        setup_cycles + chunk
                    } else {
                        chunk
                    };
                    chunks.push(cycles.max(Cycles::new(1)));
                    cached += len;
                }
                if chunks.is_empty() {
                    // A zero-token prompt still yields one (setup-only)
                    // chunk, mirroring `Machine::prefill_chunk_costs`.
                    chunks.push(setup_cycles.max(Cycles::new(1)));
                }
                chunks
            }
        }
    }

    /// Per-operator costs of one decode step at `context` cached tokens, in
    /// stream order — byte-identical to [`Machine::decode_step_costs_at`]
    /// but assembled from the cached template: the weight-facing operators
    /// never depend on the context, so only each layer's two KV entries
    /// (scores, then context aggregation — they alternate in stream order)
    /// are re-priced at the requested context.
    fn decode_step_costs_from_template(&self, context: usize) -> Vec<OpCost> {
        let template = self.step_template.get_or_init(|| {
            self.machine.decode_step_costs_at(
                &self.probe,
                ClusterKind::MemoryCentric,
                self.config.pruning,
                1,
            )
        });
        let (scores, aggregate) = self.kv_step_costs_at(context);
        let mut costs = template.clone();
        let mut kv_seen = 0usize;
        for cost in &mut costs {
            if cost.traffic_class == TrafficClass::KvCache {
                *cost = if kv_seen % 2 == 0 { scores } else { aggregate };
                kv_seen += 1;
            }
        }
        costs
    }

    /// Cost of the two KV-facing attention operators (score and context
    /// aggregation) of one decode step with exactly `context` cached tokens.
    /// The shapes depend only on the model and the context — not on the
    /// layer or the request — so one pair serves every layer of every
    /// stream, and callers memoise per context length.
    fn kv_step_costs_at(&self, context: usize) -> (OpCost, OpCost) {
        let (scores, aggregate) = self.probe.decode_kv_ops(context);
        let kind = ClusterKind::MemoryCentric;
        (
            self.machine.op_cost(&scores, kind, self.config.pruning),
            self.machine.op_cost(&aggregate, kind, self.config.pruning),
        )
    }

    /// Reset an evicted stream's CC-stage state for re-prefill: its freed
    /// KV must be recomputed over the *accumulated* context (original
    /// prompt plus every token generated so far — the text survives the
    /// eviction, only the cache is lost). Vision encode and projector are
    /// not re-run: their activations are tiny, context-independent and kept
    /// in DRAM. The caller re-queues the request on the CC stage.
    fn requeue_for_reprefill(&self, state: &mut InFlight) {
        let workload = ModelWorkload::new(
            self.model.clone(),
            state.request.text_tokens + state.generated,
            state.remaining_tokens.max(1),
        );
        let chunk_cycles = self.prefill_chunk_cycles(&workload, Cycles::ZERO);
        state.prefill_cycles = chunk_cycles.iter().copied().sum();
        state.remaining_prefill_cycles = state.prefill_cycles;
        state.chunk_cycles = chunk_cycles;
        state.chunks_done = 0;
    }

    /// A shared-prefix registry hit reuses the prefix's KV, so the prefill
    /// chunks it fully covers need not run: collapse them to the 1-cycle
    /// event-loop minimum and refresh the cycle totals. Chunk 0 always runs
    /// — it carries the unsplittable vision encode + projector — and so
    /// does the chunk holding the first token past the reused prefix.
    /// Unchunked prefill is one block and cannot be split, so sharing then
    /// saves memory but no prefill compute.
    fn skip_reused_chunks(&self, state: &mut InFlight, reused: Tokens) {
        debug_assert_eq!(state.chunks_done, 0);
        let Some(budget) = self.config.chunk_tokens else {
            return;
        };
        let reused = reused.get();
        for i in 1..state.chunk_cycles.len() {
            if (i + 1) * budget <= reused {
                state.chunk_cycles[i] = Cycles::new(1);
            }
        }
        state.prefill_cycles = state.chunk_cycles.iter().copied().sum();
        state.remaining_prefill_cycles = state.prefill_cycles;
    }

    /// The CC dispatch gate under prefix sharing / eager KV accounting: the
    /// pool resources the candidate's next chunk needs before it can run.
    /// On the first chunk of a stream declaring a shared prefix, attach it
    /// to the registry (a hit maps the resident blocks, skips the covered
    /// chunks and queues the copy-on-write bytes for pricing; a miss
    /// allocates the prefix blocks with this stream as first holder; a
    /// *refused* attach — no room — degrades to a private unshared
    /// prefill). Under eager accounting, additionally grow the table to the
    /// tokens the chunk will cover, so the KV it writes is in the pool's
    /// account the moment it exists; when the pool is full the stream is
    /// *parked* — its KV moves to the DRAM spill area and the prefill
    /// writes through to it. Returns `false` only when eager accounting can
    /// neither grow nor park (spill area exhausted or absent) — the
    /// candidate is skipped this round and retried once memory drains
    /// (anything it already holds stays attached).
    ///
    /// `force` admits the chunk unconditionally: a refused eager growth is
    /// forced past the budget (restoring any parked image first). The
    /// dispatcher forces exactly when nothing is decoding and nothing is
    /// ready to decode — every pool block is then held by queued prefills,
    /// so without the override no stream could ever run again.
    fn cc_chunk_gate(&self, state: &mut InFlight, pool: &mut PagedKvPool, force: bool) -> bool {
        if self.config.prefix_sharing
            && state.chunks_done == 0
            && state.table.is_empty()
            && state.table.prefix_key().is_none()
        {
            if let Some(prefix) = state.request.shared_prefix {
                if prefix.tokens > 0 {
                    let key = prefix_key(prefix.id, prefix.tokens);
                    // A refused attach (no room for the prefix blocks, or
                    // for the divergence copy on a hit) degrades to a
                    // private unshared prefill rather than stalling the CC
                    // stage: the stream merely loses the dedup opportunity.
                    if let Some(attach) =
                        pool.try_attach_prefix(&mut state.table, key, Tokens::new(prefix.tokens))
                    {
                        state.pending_copy_bytes += attach.copied_bytes;
                        if attach.reused_tokens.get() > 0 {
                            self.skip_reused_chunks(state, attach.reused_tokens);
                        }
                    }
                }
            }
        }
        if self.config.eager_kv_accounting {
            let covered = match self.config.chunk_tokens {
                None => state.context_tokens(),
                Some(budget) => ((state.chunks_done + 1) * budget).min(state.context_tokens()),
            };
            // Never shrink the recorded token count (a shared prefix may
            // already cover more than this chunk).
            let covered = Tokens::new(covered.max(state.table.tokens().get()));
            if let Some(ticket) = state.spill.as_mut() {
                // A parked prefill stays parked: the chunk's KV is written
                // straight through to the DRAM spill area and the whole
                // image is read back (and priced) at decode admission.
                if pool.try_grow_spilled(ticket, covered) {
                    return true;
                }
            } else {
                if pool.try_grow_to(&mut state.table, covered) {
                    return true;
                }
                // The serving pool is full. Rather than stall the CC stage
                // until decode drains, park the stream's KV in the spill
                // area and prefill write-through; the moved bytes extend
                // this chunk's DMA transfer.
                let moved = pool.block_bytes().checked_mul(state.table.blocks());
                if let Some(ticket) = pool.try_park(&mut state.table, covered) {
                    state.pending_copy_bytes += moved.unwrap_or(Bytes::ZERO);
                    state.spill = Some(ticket);
                    return true;
                }
            }
            if force {
                // No spill room either (or none configured): forced growth
                // past the budget is the only remaining escape.
                if let Some(ticket) = state.spill.take() {
                    let restored = pool.try_restore(&mut state.table, &ticket, true);
                    debug_assert!(restored, "forced restore cannot be refused");
                    state.pending_copy_bytes += ticket.bytes();
                }
                pool.grow_to_forced(&mut state.table, covered);
                return true;
            }
            return false;
        }
        true
    }

    /// Cycles of one stream-batched decode step for the given batch members
    /// under the pool's current KV traffic scaling.
    ///
    /// All requests serve the same model, so the per-step operator streams
    /// align positionally: for each operator, compute repeats per stream and
    /// KV-cache traffic is per stream (every request owns its cache), while
    /// the weight fetch is issued once and shared by the whole batch. The
    /// summed KV DRAM cycles are scaled by `kv_factor` — below 1.0 when the
    /// batch's caches fit the on-chip tier, above 1.0 when a penalised
    /// majority spills to DRAM (see [`KvPool::kv_traffic_factor`]).
    fn step_cycles(&self, states: &[InFlight], batch: &[usize], kv_factor: f64) -> Cycles {
        let ops = states[batch[0]].step_costs.len();
        let mut total = Cycles::ZERO;
        for op in 0..ops {
            let mut compute = Cycles::ZERO;
            let mut kv_dram = Cycles::ZERO;
            let mut weight_dram = Cycles::ZERO;
            for &idx in batch {
                let cost = &states[idx].step_costs[op];
                compute += cost.compute_cycles;
                if cost.traffic_class == TrafficClass::KvCache {
                    kv_dram += cost.dram_cycles;
                } else {
                    weight_dram = weight_dram.max(cost.dram_cycles);
                }
            }
            // Exact integer path when the pool is neutral, so the unbounded
            // configuration reproduces the pre-pool model byte for byte.
            if !is_one(kv_factor) {
                kv_dram = kv_dram.scale_round(kv_factor);
            }
            total += compute.max(weight_dram + kv_dram);
        }
        total.max(Cycles::new(1))
    }

    /// Paged-mode variant of [`Self::step_cycles`]: the weight-facing
    /// operators come from each stream's template (they cost the same at
    /// any context), while the two KV-facing attention operators of every
    /// layer are re-priced at the stream's *actual* context length —
    /// `prompt + generated` — via the memoised `kv_costs` cache. Within
    /// each layer the first KV operator is the score GEMV and the second
    /// the context aggregation, in [`ModelWorkload::decode_step_ops`]
    /// order.
    fn paged_step_cycles(
        &self,
        states: &[InFlight],
        batch: &[usize],
        kv_factor: f64,
        kv_costs: &mut HashMap<usize, (OpCost, OpCost)>,
    ) -> Cycles {
        let ops = states[batch[0]].step_costs.len();
        let mut total = Cycles::ZERO;
        let mut kv_ops_seen = 0usize;
        for op in 0..ops {
            let mut compute = Cycles::ZERO;
            let mut kv_dram = Cycles::ZERO;
            let mut weight_dram = Cycles::ZERO;
            let is_kv = states[batch[0]].step_costs[op].traffic_class == TrafficClass::KvCache;
            for &idx in batch {
                let cost = if is_kv {
                    let context = states[idx].context_tokens();
                    let (scores, aggregate) = kv_costs
                        .entry(context)
                        .or_insert_with(|| self.kv_step_costs_at(context));
                    if kv_ops_seen % 2 == 0 {
                        &*scores
                    } else {
                        &*aggregate
                    }
                } else {
                    &states[idx].step_costs[op]
                };
                compute += cost.compute_cycles;
                if cost.traffic_class == TrafficClass::KvCache {
                    kv_dram += cost.dram_cycles;
                } else {
                    weight_dram = weight_dram.max(cost.dram_cycles);
                }
            }
            if is_kv {
                kv_ops_seen += 1;
            }
            if !is_one(kv_factor) {
                kv_dram = kv_dram.scale_round(kv_factor);
            }
            total += compute.max(weight_dram + kv_dram);
        }
        total.max(Cycles::new(1))
    }

    /// Isolated end-to-end cycles of one request (no queueing, no batching):
    /// the latency lower bound that serving can only add to. Includes the
    /// configured chunking overhead and the pool's KV scaling, so it is the
    /// solo latency *under this serving configuration* — in paged mode that
    /// means per-step pricing at the growing context (step `s` attends over
    /// `prompt + s` cached tokens) with blocks allocated as it grows.
    pub fn solo_cycles(&self, request: &ServeRequest) -> Cycles {
        let state = self.admit(request);
        let Some(block_tokens) = self.config.block_tokens else {
            let mut kv = self.config.kv;
            kv.try_reserve(state.kv_bytes);
            let states = [state];
            let step = self.step_cycles(&states, &[0], kv.kv_traffic_factor());
            return states[0].prefill_cycles + step * request.output_tokens;
        };
        let mut pool = PagedKvPool::new(self.config.kv, block_tokens, self.kv_bytes_per_token);
        let mut kv_costs = HashMap::new();
        let mut states = [state];
        let mut total = states[0].prefill_cycles;
        let mut table = BlockTable::empty();
        pool.try_grow_to(&mut table, Tokens::new(states[0].prompt_tokens));
        for step in 0..request.output_tokens {
            states[0].generated = step;
            // A solo stream always grows (the sole-owner escape hatch).
            pool.try_grow_to(&mut table, Tokens::new(states[0].context_tokens() + 1));
            total += self.paged_step_cycles(&states, &[0], pool.kv_traffic_factor(), &mut kv_costs);
        }
        total
    }

    /// The reference driver: the shared engine state machine stepped by an
    /// advance-and-scan loop. Each iteration min-scans the next
    /// arrival, the running chunk's end and the running step's end, and
    /// every decode step is priced from scratch by [`Self::step_cycles`] /
    /// [`Self::paged_step_cycles`]. Everything else — admission, the CC pick
    /// and its KV gate, the decode join, slot revocation, growth-pressure
    /// eviction, sampling and the report — is the engine [`Self::run`]
    /// drives too, so the differential harness (this crate's unit tests and
    /// the workspace `tests/properties.rs`), which asserts byte-identical
    /// [`ServeReport`]s, isolates exactly what the heap driver replaces:
    /// how time advances and how a step is priced.
    ///
    /// Compiled for this crate's tests and behind the `reference` feature
    /// for external harnesses; it is not part of the production API.
    ///
    /// # Panics
    ///
    /// Panics if two requests share an id or a policy returns an
    /// out-of-range index.
    #[cfg(any(test, feature = "reference"))]
    pub fn run_reference(
        &self,
        requests: &[ServeRequest],
        policy: &dyn SchedulePolicy,
    ) -> ServeReport {
        let mut scratch = ServeScratch::new();
        let mut engine = Engine::new(self, policy, requests, &mut scratch);
        let mut kv_costs = HashMap::new();
        let mut next_arrival = 0usize;
        let mut chunk_end: Option<Cycles> = None;
        let mut step_end: Option<Cycles> = None;
        loop {
            let arrival = engine
                .order
                .get(next_arrival)
                .map(|&idx| engine.states[idx].arrival_cycle);
            let Some(now) = [arrival, chunk_end, step_end].into_iter().flatten().min() else {
                break;
            };
            // Drain everything due at `now` before dispatching, so a request
            // arriving or finishing a chunk exactly at a step boundary can be
            // considered for the very next step.
            while engine
                .order
                .get(next_arrival)
                .is_some_and(|&idx| engine.states[idx].arrival_cycle <= now)
            {
                engine.on_arrival(engine.order[next_arrival]);
                next_arrival += 1;
            }
            if chunk_end.is_some_and(|end| end <= now) {
                chunk_end = None;
                engine.on_chunk_done(now);
            }
            if step_end.is_some_and(|end| end <= now) {
                step_end = None;
                engine.on_step_done(now);
            }
            if let Some(end) = engine.dispatch_cc(now) {
                chunk_end = Some(end);
            }
            if let Some(dma_cycles) = engine.dispatch_mc(now) {
                let (states, batch) = (&engine.states, &engine.batch);
                let step = match &engine.memory {
                    Memory::Flat(kv) => self.step_cycles(states, batch, kv.kv_traffic_factor()),
                    Memory::Paged(pool) => self.paged_step_cycles(
                        states,
                        batch,
                        pool.kv_traffic_factor(),
                        &mut kv_costs,
                    ),
                };
                step_end = Some(now + step + dma_cycles);
            }
            engine.sample(now);
        }
        engine.finish(&mut scratch)
    }

    /// Serve a trace of requests under `policy` and report per-request
    /// timelines plus aggregate metrics.
    ///
    /// This is the heap driver of the engine state machine: arrivals,
    /// prefill-chunk completions and decode-step completions are events in
    /// an [`EventQueue`] keyed on `(Cycles, seq)`, popped in deterministic
    /// order by a monotonic [`Clock`] instead of min-scanned. Step pricing
    /// is incremental (see the private `paged_step_cycles_fast` and
    /// `step_cycles_memo` helpers). The produced [`ServeReport`] is
    /// byte-identical to the reference driver's — pinned by the
    /// differential suite.
    ///
    /// # Panics
    ///
    /// Panics if two requests share an id or a policy returns an
    /// out-of-range index.
    pub fn run(&self, requests: &[ServeRequest], policy: &dyn SchedulePolicy) -> ServeReport {
        self.run_with_scratch(requests, policy, &mut ServeScratch::new())
    }

    /// [`Self::run`] reusing the allocations in `scratch`.
    ///
    /// Byte-identical to [`Self::run`] for any scratch — the scratch
    /// carries capacity, never state (see [`ServeScratch`]) — but skips
    /// the per-run collection churn, which matters when one simulator
    /// serves many traces back to back.
    ///
    /// # Panics
    ///
    /// Panics if two requests share an id or a policy returns an
    /// out-of-range index.
    pub fn run_with_scratch(
        &self,
        requests: &[ServeRequest],
        policy: &dyn SchedulePolicy,
        scratch: &mut ServeScratch,
    ) -> ServeReport {
        let mut engine = Engine::new(self, policy, requests, scratch);
        // All arrivals enter the heap up front in arrival order, so
        // same-cycle arrivals pop FIFO — the reference driver's drain order.
        let mut events = std::mem::take(&mut scratch.events);
        events.clear();
        for &idx in &engine.order {
            events.push(engine.states[idx].arrival_cycle, Event::Arrival(idx));
        }
        // Step-pricing memos (see `step_cycles_memo` / `paged_step_cycles_fast`).
        // Their keys are indices into this run's `states`, so they are
        // cleared per run — only the table capacity is reused.
        let mut kv_costs = std::mem::take(&mut scratch.kv_costs);
        kv_costs.clear();
        let mut step_memo = std::mem::take(&mut scratch.step_memo);
        step_memo.clear();
        let mut weight_memo = std::mem::take(&mut scratch.weight_memo);
        weight_memo.clear();

        let mut clock = Clock::new();
        // All scheduled completions land strictly after the cycle that
        // scheduled them (chunks and steps are clamped to ≥ 1 cycle), so the
        // heap's minimum is each iteration's `now` and every event at that
        // cycle belongs to that iteration.
        while let Some(now) = events.next_cycle() {
            clock.advance_to(now);
            // Pop everything due at `now`, then apply the completions in the
            // engine's drain order, independent of heap insertion order.
            let (mut chunk_done, mut step_done) = (false, false);
            while let Some((_, event)) = events.pop_due(now) {
                match event {
                    Event::Arrival(idx) => engine.on_arrival(idx),
                    Event::ChunkDone => chunk_done = true,
                    Event::StepDone => step_done = true,
                }
            }
            if chunk_done {
                engine.on_chunk_done(now);
            }
            if step_done {
                engine.on_step_done(now);
            }
            if let Some(end) = engine.dispatch_cc(now) {
                events.push(end, Event::ChunkDone);
            }
            if let Some(dma_cycles) = engine.dispatch_mc(now) {
                let (states, batch) = (&engine.states, &engine.batch);
                let step = match &engine.memory {
                    Memory::Flat(kv) => {
                        self.step_cycles_memo(states, batch, kv.kv_traffic_factor(), &mut step_memo)
                    }
                    Memory::Paged(pool) => self.paged_step_cycles_fast(
                        states,
                        batch,
                        pool.kv_traffic_factor(),
                        &mut kv_costs,
                        &mut weight_memo,
                    ),
                };
                events.push(now + step + dma_cycles, Event::StepDone);
            }
            engine.sample(now);
        }

        // Hand the allocations back for the next run.
        scratch.events = events;
        scratch.kv_costs = kv_costs;
        scratch.step_memo = step_memo;
        scratch.weight_memo = weight_memo;
        engine.finish(scratch)
    }

    /// [`Self::step_cycles`] memoised on the decode-batch composition (and
    /// the pool's KV traffic factor, which scales the summed KV DRAM term).
    /// Non-paged streams price at their request-average context, so the
    /// batch members and the factor determine the step exactly; the memo
    /// needs no invalidation because the key captures everything the
    /// computation reads.
    fn step_cycles_memo(
        &self,
        states: &[InFlight],
        batch: &[usize],
        kv_factor: f64,
        memo: &mut HashMap<(Vec<usize>, u64), Cycles>,
    ) -> Cycles {
        let key = (batch.to_vec(), kv_factor.to_bits());
        if let Some(&cycles) = memo.get(&key) {
            return cycles;
        }
        let cycles = self.step_cycles(states, batch, kv_factor);
        memo.insert(key, cycles);
        cycles
    }

    /// Incremental [`Self::paged_step_cycles`]: the same sum, reassociated
    /// so each step costs `O(batch)` instead of `O(ops × batch)`.
    ///
    /// The per-op terms split by traffic class:
    ///
    /// * **Weight-facing ops** cost the same at any context, so their summed
    ///   contribution depends only on the batch composition — memoised in
    ///   `weight_memo` (keyed by the batch vector; joins, leaves and
    ///   evictions change the key, which *is* the invalidation).
    /// * **KV-facing ops** alternate score / aggregation per layer with
    ///   identical shapes in every layer, so the whole KV side collapses to
    ///   two batch-summed terms (one per parity) multiplied by the op
    ///   counts. `Cycles` is an integer newtype — the reassociated sums are
    ///   bit-identical to the reference's per-op accumulation, which the
    ///   differential suite pins.
    fn paged_step_cycles_fast(
        &self,
        states: &[InFlight],
        batch: &[usize],
        kv_factor: f64,
        kv_costs: &mut HashMap<usize, (OpCost, OpCost)>,
        weight_memo: &mut HashMap<Vec<usize>, (Cycles, usize)>,
    ) -> Cycles {
        let (weight_part, kv_ops) = match weight_memo.get(batch) {
            Some(&entry) => entry,
            None => {
                let ops = states[batch[0]].step_costs.len();
                let mut weight_part = Cycles::ZERO;
                let mut kv_ops = 0usize;
                for op in 0..ops {
                    if states[batch[0]].step_costs[op].traffic_class == TrafficClass::KvCache {
                        kv_ops += 1;
                        continue;
                    }
                    let mut compute = Cycles::ZERO;
                    let mut weight_dram = Cycles::ZERO;
                    for &idx in batch {
                        let cost = &states[idx].step_costs[op];
                        compute += cost.compute_cycles;
                        weight_dram = weight_dram.max(cost.dram_cycles);
                    }
                    weight_part += compute.max(weight_dram);
                }
                weight_memo.insert(batch.to_vec(), (weight_part, kv_ops));
                (weight_part, kv_ops)
            }
        };
        // One batch-summed (compute, dram) pair per parity: even-indexed KV
        // ops are the score GEMV, odd-indexed ones the context aggregation.
        let mut scores_compute = Cycles::ZERO;
        let mut scores_dram = Cycles::ZERO;
        let mut aggregate_compute = Cycles::ZERO;
        let mut aggregate_dram = Cycles::ZERO;
        for &idx in batch {
            let context = states[idx].context_tokens();
            let (scores, aggregate) = kv_costs
                .entry(context)
                .or_insert_with(|| self.kv_step_costs_at(context));
            scores_compute += scores.compute_cycles;
            scores_dram += scores.dram_cycles;
            aggregate_compute += aggregate.compute_cycles;
            aggregate_dram += aggregate.dram_cycles;
        }
        if !is_one(kv_factor) {
            scores_dram = scores_dram.scale_round(kv_factor);
            aggregate_dram = aggregate_dram.scale_round(kv_factor);
        }
        let even_term = scores_compute.max(scores_dram);
        let odd_term = aggregate_compute.max(aggregate_dram);
        let total = weight_part + even_term * kv_ops.div_ceil(2) + odd_term * (kv_ops / 2);
        total.max(Cycles::new(1))
    }
}

/// The one validation step of a serving run: panics on a configuration no
/// engine can serve (a zero capacity, or a paged-only feature without paged
/// allocation) or on a trace whose request ids repeat.
/// [`ServeSimulator::new`] checks the configuration against an empty trace;
/// every run re-checks it together with its own trace.
fn validate(config: &ServeConfig, requests: &[ServeRequest]) {
    assert!(
        config.batch_cap != Some(0),
        "batch capacity must be at least 1"
    );
    assert!(
        config.chunk_tokens != Some(0),
        "chunk budget must be at least one token"
    );
    assert!(
        config.block_tokens != Some(0),
        "KV block size must be at least one token"
    );
    assert!(
        config.block_tokens.is_some() || !config.prefix_sharing,
        "prefix sharing requires paged allocation (block_tokens)"
    );
    assert!(
        config.block_tokens.is_some() || config.spill_capacity_bytes.is_none(),
        "spill-and-restore requires paged allocation (block_tokens)"
    );
    assert!(
        config.block_tokens.is_some() || !config.eager_kv_accounting,
        "eager KV accounting requires paged allocation (block_tokens)"
    );
    let mut ids: Vec<u64> = requests.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), requests.len(), "request ids must be unique");
}

/// The KV capacity model decode streams are admitted against: whole-request
/// peak reservations in a flat [`KvPool`], or block tables in a
/// [`PagedKvPool`] (see [`ServeConfig::block_tokens`]).
#[derive(Debug)]
enum Memory {
    Flat(KvPool),
    Paged(PagedKvPool),
}

/// One serving run as a state machine over the two-stage pipeline: the CC
/// queue and the stage's running chunk, the ready set, the decode batch,
/// the KV memory, the DMA engine, and the counters and sample log the
/// report is built from.
///
/// The engine makes every scheduling decision — TTFT admission, the CC pick
/// and its KV gate, the decode join, slot revocation and growth-pressure
/// eviction — and leaves its driver exactly two things: *when* events
/// happen and *how long* a decode step takes. Per cycle `now`, a driver
/// reports what is due in drain order — [`Self::on_arrival`] for each
/// arrival (the CC pick must see them), then [`Self::on_chunk_done`], then
/// [`Self::on_step_done`] — and then calls [`Self::dispatch_cc`] (which
/// returns the started chunk's end cycle), [`Self::dispatch_mc`] (which
/// forms the batch and returns the DMA cycles the step owes; the driver
/// prices the step) and [`Self::sample`], in that order.
struct Engine<'r> {
    sim: &'r ServeSimulator<'r>,
    policy: &'r dyn SchedulePolicy,
    clock_hz: f64,
    states: Vec<InFlight>,
    /// Request indices in arrival order, stable on `(cycle, id)`.
    order: Vec<usize>,
    cc_queue: Vec<usize>,
    ready: Vec<usize>,
    batch: Vec<usize>,
    memory: Memory,
    /// Spill images and copy-on-write copies move over the MC clusters'
    /// share of the DRAM interface, serially per the engine model.
    dma: Option<DmaEngine>,
    /// CC dispatches consult the pool (and may be refused) when prefix
    /// attaches or eager chunk accounting allocate blocks there.
    cc_gated: bool,
    /// Any of prefix sharing, eager accounting and spilling can leave
    /// ready/CC streams holding pool blocks, which shuts the pool's
    /// sole-owner escape hatch — the forced admission paths reopen it, and
    /// stay off when none of the three is configured.
    accounted: bool,
    /// The request whose chunk the CC stage is running, if any.
    cc_busy: Option<usize>,
    /// The request whose chunk just finished and went back to the queue:
    /// the only request a pick can *preempt* (displace mid-prefill).
    cc_resumable: Option<usize>,
    step_in_flight: bool,
    /// DMA cycles the MC dispatch in progress owes: spilled or restored KV
    /// images extend the decode step that forced them.
    step_dma: Cycles,
    completed_order: Vec<usize>,
    rejected_order: Vec<(usize, Cycles)>,
    queue_samples: Vec<QueueSample>,
    decode_steps: u64,
    preemptions: u64,
    restarted_prefill_tokens: Tokens,
}

/// `collection` taken out of a scratch slot and cleared: its capacity is
/// reused, its contents never are.
fn cleared<T>(collection: &mut Vec<T>) -> Vec<T> {
    let mut collection = std::mem::take(collection);
    collection.clear();
    collection
}

impl<'r> Engine<'r> {
    /// Validate the trace, admit every request and set up the KV memory and
    /// DMA engine, taking the run's collections from `scratch`.
    fn new(
        sim: &'r ServeSimulator<'r>,
        policy: &'r dyn SchedulePolicy,
        requests: &[ServeRequest],
        scratch: &mut ServeScratch,
    ) -> Self {
        let config = &sim.config;
        validate(config, requests);
        let mut states = cleared(&mut scratch.states);
        states.extend(requests.iter().map(|r| sim.admit(r)));
        let mut order = cleared(&mut scratch.order);
        order.extend(0..states.len());
        order.sort_by_key(|&i| (states[i].arrival_cycle, states[i].request.id));
        let memory = match config.block_tokens {
            None => Memory::Flat(config.kv),
            Some(block_tokens) => {
                let pool = PagedKvPool::new(config.kv, block_tokens, sim.kv_bytes_per_token);
                Memory::Paged(match config.spill_capacity_bytes {
                    Some(capacity) => pool.with_spill_capacity(capacity),
                    None => pool,
                })
            }
        };
        let spilling = config.spill_capacity_bytes.is_some();
        let dma = match &memory {
            Memory::Paged(pool) if config.prefix_sharing || spilling => {
                let machine = sim.machine.config();
                let share = machine.allocation.mc_share;
                let share = if share > 0.0 { share } else { 1.0 };
                Some(DmaEngine::new(machine.dram, pool.block_bytes(), share))
            }
            _ => None,
        };
        let cc_gated = config.prefix_sharing || config.eager_kv_accounting;
        Engine {
            sim,
            policy,
            clock_hz: sim.clock_hz(),
            states,
            order,
            cc_queue: cleared(&mut scratch.cc_queue),
            ready: cleared(&mut scratch.ready),
            batch: cleared(&mut scratch.batch),
            memory,
            dma,
            cc_gated,
            accounted: cc_gated || spilling,
            cc_busy: None,
            cc_resumable: None,
            step_in_flight: false,
            step_dma: Cycles::ZERO,
            completed_order: cleared(&mut scratch.completed_order),
            rejected_order: cleared(&mut scratch.rejected_order),
            queue_samples: Vec::with_capacity(scratch.samples_hint),
            decode_steps: 0,
            preemptions: 0,
            restarted_prefill_tokens: Tokens::ZERO,
        }
    }

    /// Request `idx` arrives and queues for the CC stage.
    fn on_arrival(&mut self, idx: usize) {
        self.cc_queue.push(idx);
    }

    /// The CC stage finishes its running chunk at `now`. A finished prefill
    /// moves to the ready set; an unfinished one goes back to the queue,
    /// where the policy decides at the chunk boundary whether it continues
    /// or an urgent arrival preempts it.
    fn on_chunk_done(&mut self, now: Cycles) {
        let Some(idx) = self.cc_busy.take() else {
            return;
        };
        let state = &mut self.states[idx];
        state.remaining_prefill_cycles -= state.chunk_cycles[state.chunks_done];
        state.chunks_done += 1;
        if state.prefill_finished() {
            // TTFT freezes at the *first* prefill completion; an eviction
            // re-prefill (paged mode) re-materialises KV without moving the
            // recorded first token.
            if !state.has_first_token {
                state.prefill_end = now;
                state.has_first_token = true;
            }
            self.ready.push(idx);
        } else {
            self.cc_queue.push(idx);
            self.cc_resumable = Some(idx);
        }
    }

    /// The MC stage finishes its decode step at `now`: every stream gains
    /// a token, and finished streams leave the batch and release their KV.
    fn on_step_done(&mut self, now: Cycles) {
        self.step_in_flight = false;
        self.batch.retain(|&idx| {
            let state = &mut self.states[idx];
            state.remaining_tokens -= 1;
            state.generated += 1;
            let finished = state.remaining_tokens == 0;
            if finished {
                state.finish = now;
                match &mut self.memory {
                    Memory::Flat(kv) => kv.release(state.kv_bytes),
                    Memory::Paged(pool) => pool.release(&mut state.table),
                }
                self.completed_order.push(idx);
            }
            !finished
        });
    }

    /// Dispatch the serial CC stage if it is idle: one prefill chunk at a
    /// time, chosen by the policy from a snapshot of the queue. Admission
    /// control first splits the queue on TTFT slack (for requests
    /// mid-prefill, the slack of their *remaining* chunks). Returns the
    /// cycle the started chunk ends at.
    fn dispatch_cc(&mut self, now: Cycles) -> Option<Cycles> {
        if self.cc_busy.is_some() || self.cc_queue.is_empty() {
            return None;
        }
        let admission = self.sim.config.admission;
        if admission == AdmissionControl::Reject {
            self.reject_hopeless(now);
        }
        // Positions into `cc_queue` the policy may choose from: everything,
        // or (under deferral) the feasible subset when one exists.
        let everything = 0..self.cc_queue.len();
        let positions: Vec<usize> = if admission == AdmissionControl::Defer {
            let feasible: Vec<usize> = everything
                .clone()
                .filter(|&pos| self.states[self.cc_queue[pos]].ttft_feasible_at(now))
                .collect();
            if feasible.is_empty() {
                everything.collect()
            } else {
                feasible
            }
        } else {
            everything.collect()
        };
        // Two passes under CC-side KV gating: every candidate is first tried
        // within the budget; if all are refused while nothing is decoding and
        // nothing is ready to decode, the queued prefills hold every pool
        // block between them and refusing them all would deadlock — the
        // second pass admits the policy's pick by force.
        for force in [false, true] {
            if force && !(self.cc_gated && self.batch.is_empty() && self.ready.is_empty()) {
                break;
            }
            let mut candidates = positions.clone();
            let mut snapshot: Vec<QueuedRequest> = candidates
                .iter()
                .map(|&pos| self.states[self.cc_queue[pos]].as_queued())
                .collect();
            while !candidates.is_empty() {
                let pick = self.policy.choose(&snapshot);
                assert!(
                    pick < candidates.len(),
                    "policy {} returned index {pick} for a queue of {}",
                    self.policy.name(),
                    candidates.len()
                );
                // A refused candidate is skipped this round and the policy
                // re-picks among the rest — it retries once memory drains.
                if !self.gate_chunk(self.cc_queue[candidates[pick]], force) {
                    candidates.swap_remove(pick);
                    snapshot.swap_remove(pick);
                    continue;
                }
                let idx = self.cc_queue.swap_remove(candidates[pick]);
                // A preemption is a pick that displaces the request whose
                // chunk just ran: it wanted to continue (it is still queued
                // mid-prefill) and something else took the stage at its chunk
                // boundary. Continuing an earlier victim while the queue holds
                // other mid-prefill requests is not a *new* preemption.
                if self
                    .cc_resumable
                    .is_some_and(|prev| idx != prev && self.cc_queue.contains(&prev))
                {
                    self.preemptions += 1;
                }
                self.cc_resumable = None;
                self.cc_busy = Some(idx);
                let state = &mut self.states[idx];
                if state.chunks_done == 0 {
                    state.prefill_start = now;
                }
                // A freshly attached prefix owes its copy-on-write bytes: the
                // DMA transfer extends this chunk.
                let copied = std::mem::replace(&mut state.pending_copy_bytes, Bytes::ZERO);
                let chunk = state.chunk_cycles[state.chunks_done];
                return Some(now + chunk + Self::dma_transfer_cycles(&mut self.dma, copied, now));
            }
        }
        None
    }

    /// Admission control's reject mode: drop every queued request whose
    /// TTFT deadline can no longer be met.
    fn reject_hopeless(&mut self, now: Cycles) {
        let mut i = 0;
        while i < self.cc_queue.len() {
            let idx = self.cc_queue[i];
            if self.states[idx].ttft_feasible_at(now) {
                i += 1;
                continue;
            }
            self.cc_queue.swap_remove(i);
            // Blocks the reject already holds (an attached prefix,
            // eager-accounted chunks) go back to the pool; a no-op for a
            // table that never allocated. A spilled image is read back and
            // dropped so the spill area's accounting settles (unpriced: the
            // reject leaves the system).
            if let Memory::Paged(pool) = &mut self.memory {
                let state = &mut self.states[idx];
                if let Some(ticket) = state.spill.take() {
                    pool.try_restore(&mut state.table, &ticket, true);
                }
                pool.release(&mut state.table);
            }
            self.rejected_order.push((idx, now));
        }
    }

    /// The pool resources queued request `idx` needs before its next chunk
    /// may run (see [`ServeSimulator::cc_chunk_gate`]); always open when
    /// the CC stage is ungated. A forced pass first parks every *other*
    /// queued prefill's eager KV in the DRAM spill area (each reads it back
    /// when it next reaches the stage), so the forced stream runs against a
    /// drained pool instead of blowing past the budget. Without a spill
    /// area that is a no-op and the gate's forced growth is the only
    /// escape.
    fn gate_chunk(&mut self, idx: usize, force: bool) -> bool {
        if !self.cc_gated {
            return true;
        }
        // CC gating is validated to imply paged allocation.
        let Memory::Paged(pool) = &mut self.memory else {
            return true;
        };
        if force {
            for &other in &self.cc_queue {
                let parked = &self.states[other];
                if other == idx || parked.spill.is_some() || parked.table.is_empty() {
                    continue;
                }
                if let Some(ticket) = pool.try_spill(&mut self.states[other].table) {
                    self.states[idx].pending_copy_bytes += ticket.bytes();
                    self.states[other].spill = Some(ticket);
                }
            }
        }
        self.sim.cc_chunk_gate(&mut self.states[idx], pool, force)
    }

    /// Dispatch the MC stage if no step is in flight: top the batch up
    /// ([`Self::top_up`]), grow every table for the token the step
    /// generates ([`Self::grow_batch`]) and start the step. Returns the DMA
    /// cycles the step owes on top of its priced cycles — spill, restore
    /// and copy transfers serialise with the step that forced them, so the
    /// batch stalls until the images have moved — or `None` when no step
    /// starts.
    fn dispatch_mc(&mut self, now: Cycles) -> Option<Cycles> {
        if self.step_in_flight {
            return None;
        }
        self.step_dma = Cycles::ZERO;
        self.top_up(now);
        self.grow_batch(now);
        if self.batch.is_empty() {
            return None;
        }
        self.step_in_flight = true;
        self.decode_steps += 1;
        Some(self.step_dma)
    }

    /// Whether a batch of `batch_len` streams is under the optional cap.
    fn has_slot(&self, batch_len: usize) -> bool {
        self.sim
            .config
            .batch_cap
            .map_or(true, |cap| batch_len < cap)
    }

    /// Top the batch up from the ready set in the policy's join order
    /// (continuous batching). A join must fit the KV memory's headroom and
    /// the optional hard cap; when the policy's next pick does not fit, the
    /// top-up stops — the pick blocks at the head of the ready queue until
    /// a finishing stream releases KV bytes (no bypass, so the policy's
    /// order is honoured under memory pressure too). In paged mode a
    /// blocked pick may instead *revoke* the slot of a strictly-less-urgent
    /// running stream ([`Self::revoke_for`]), so a full batch ends only a
    /// flat top-up.
    fn top_up(&mut self, now: Cycles) {
        let paged = matches!(self.memory, Memory::Paged(_));
        let open = |engine: &Self| {
            !engine.ready.is_empty() && (paged || engine.has_slot(engine.batch.len()))
        };
        if !open(self) {
            return;
        }
        // Snapshot the ready set once per top-up; `swap_remove` on both
        // vectors in lockstep keeps indices aligned.
        let mut snapshot: Vec<QueuedRequest> = self
            .ready
            .iter()
            .map(|&idx| self.states[idx].as_queued())
            .collect();
        while open(self) {
            let pick = self.policy.choose_join(&snapshot);
            assert!(
                pick < self.ready.len(),
                "policy {} returned join index {pick} for a ready set of {}",
                self.policy.name(),
                self.ready.len()
            );
            let idx = self.ready[pick];
            if !self.try_join(idx, now) && !self.revoke_for(idx, now, &mut snapshot) {
                break;
            }
            snapshot.swap_remove(pick);
            self.ready.swap_remove(pick);
            let state = &mut self.states[idx];
            if state.decode_start == 0 {
                state.decode_start = now;
            }
            self.batch.push(idx);
        }
    }

    /// Room for ready request `idx` in the batch without evicting anyone:
    /// a free slot plus, in the KV memory, a reservation of its peak
    /// footprint (flat), a restore of its spilled image, or growth of its
    /// table to its context (paged).
    fn try_join(&mut self, idx: usize, now: Cycles) -> bool {
        if !self.has_slot(self.batch.len()) {
            return false;
        }
        let state = &mut self.states[idx];
        let pool = match &mut self.memory {
            Memory::Flat(kv) => return kv.try_reserve(state.kv_bytes),
            Memory::Paged(pool) => pool,
        };
        if let Some(ticket) = state.spill {
            // A spilled stream re-joins by reading its image back; forced
            // when the batch is empty, so decode progresses even while
            // queued streams hold blocks.
            if !pool.try_restore(&mut state.table, &ticket, self.batch.is_empty()) {
                return false;
            }
            state.spill = None;
            self.step_dma += Self::dma_transfer_cycles(&mut self.dma, ticket.bytes(), now);
            return true;
        }
        let context = Tokens::new(state.context_tokens());
        if pool.try_grow_to(&mut state.table, context) {
            return true;
        }
        if self.accounted && self.batch.is_empty() {
            // Queued streams hold pool blocks, so the sole-owner hatch
            // cannot open; force the join — decode must drain.
            pool.grow_to_forced(&mut state.table, context);
            return true;
        }
        false
    }

    /// Priority-aware decode-slot revocation for a pick [`Self::try_join`]
    /// refused: only strictly-less-urgent streams can be evicted for it, so
    /// equal priorities wait instead of thrashing — and only when revoking
    /// *all* of them would actually admit the pick, so a victim never pays
    /// the re-prefill recompute for nothing. Evicts the least urgent until
    /// the pick joins (`true`), or evicts nobody when revocation cannot
    /// admit it (`false`; always so under a flat pool). Victims spilled
    /// back to the ready set join `snapshot`.
    fn revoke_for(&mut self, idx: usize, now: Cycles, snapshot: &mut Vec<QueuedRequest>) -> bool {
        let Memory::Paged(pool) = &self.memory else {
            return false;
        };
        let priority = self.states[idx].request.slo.priority;
        let (evictable, freed) = self
            .batch
            .iter()
            .filter(|&&v| self.states[v].request.slo.priority > priority)
            .fold((0usize, 0u64), |(count, blocks), &v| {
                (
                    count + 1,
                    blocks + pool.reclaimable_blocks(&self.states[v].table),
                )
            });
        let needed = match self.states[idx].spill {
            // A spilled pick re-admits by restoring its whole image, not by
            // growing from an empty table.
            Some(ticket) => ticket.blocks(),
            None => pool
                .blocks_for(Tokens::new(self.states[idx].context_tokens()))
                .saturating_sub(self.states[idx].table.blocks()),
        };
        // Evicting the whole batch makes the pick the sole owner (the
        // escape hatch always admits it); otherwise the freed blocks must
        // leave room under the budget.
        let kv_feasible = evictable == self.batch.len()
            || pool
                .block_bytes()
                .checked_mul(pool.occupied_blocks() - freed + needed)
                .unwrap_or(Bytes::MAX)
                <= pool.budget_bytes();
        if !(kv_feasible && self.has_slot(self.batch.len() - evictable)) {
            return false;
        }
        loop {
            let pos = self
                .least_urgent()
                .filter(|&pos| self.states[self.batch[pos]].request.slo.priority > priority)
                // lint:allow(no-unwrap): kv_feasible checked above
                .expect("feasibility guaranteed a victim");
            let victim = self.batch.remove(pos);
            if self.evict(victim, now) {
                snapshot.push(self.states[victim].as_queued());
            }
            if self.try_join(idx, now) {
                return true;
            }
        }
    }

    /// Growth: room in every paged table for the token its stream generates
    /// this step. Under pressure the least-urgent member is evicted —
    /// possibly the grower itself; a sole remaining stream always grows
    /// (the pool's sole-owner escape hatch), so this terminates. Flat
    /// reservations already cover the whole generation.
    fn grow_batch(&mut self, now: Cycles) {
        let mut i = 0;
        while i < self.batch.len() {
            let Memory::Paged(pool) = &mut self.memory else {
                return;
            };
            let state = &mut self.states[self.batch[i]];
            let target = Tokens::new(state.context_tokens() + 1);
            if pool.try_grow_to(&mut state.table, target) {
                i += 1;
                continue;
            }
            if self.accounted && self.batch.len() == 1 {
                // Sole batch member, but CC/ready streams hold accounted
                // blocks so the pool's own sole-owner hatch stays shut: force
                // the growth — decode must always progress.
                pool.grow_to_forced(&mut state.table, target);
                i += 1;
                continue;
            }
            // lint:allow(no-unwrap): loop guard keeps batch non-empty
            let pos = self.least_urgent().expect("non-empty batch");
            let victim = self.batch.remove(pos);
            self.evict(victim, now);
            if pos < i {
                i -= 1;
            }
        }
    }

    /// Position in the batch of the least-urgent member by (priority,
    /// arrival, id): the eviction victim whenever one must be chosen.
    /// Deterministic, so equal-priority pressure always resolves the same
    /// way (the later arrival loses) and cannot ping-pong.
    fn least_urgent(&self) -> Option<usize> {
        self.batch
            .iter()
            .enumerate()
            .max_by_key(|&(_, &v)| {
                let s = &self.states[v];
                (s.request.slo.priority, s.arrival_cycle, s.request.id)
            })
            .map(|(pos, _)| pos)
    }

    /// Take `victim`, already out of the batch, off the MC stage. With room
    /// in the spill area its KV image parks in DRAM and it re-queues on the
    /// ready set with its state intact (`true`); otherwise recompute from
    /// scratch is the fallback — its blocks are freed and it re-queues on
    /// the CC stage for re-prefill over its accumulated context (`false`).
    /// Only paged memory evicts; a flat pool leaves `victim` untouched.
    fn evict(&mut self, victim: usize, now: Cycles) -> bool {
        let Memory::Paged(pool) = &mut self.memory else {
            return false;
        };
        let state = &mut self.states[victim];
        match pool.try_spill(&mut state.table) {
            Some(ticket) => {
                self.step_dma += Self::dma_transfer_cycles(&mut self.dma, ticket.bytes(), now);
                state.spill = Some(ticket);
                self.ready.push(victim);
                true
            }
            None => {
                pool.evict(&mut state.table);
                self.restarted_prefill_tokens += Tokens::new(state.context_tokens());
                self.sim.requeue_for_reprefill(state);
                self.cc_queue.push(victim);
                false
            }
        }
    }

    /// Price a KV image transfer (spill, restore or copy-on-write) on the
    /// serial DMA engine: the cycles from `now` until the transfer
    /// completes, including any queueing behind an earlier transfer still
    /// in flight. Zero when no engine is configured or nothing moves.
    fn dma_transfer_cycles(dma: &mut Option<DmaEngine>, bytes: Bytes, now: Cycles) -> Cycles {
        let Some(engine) = dma.as_mut() else {
            return Cycles::ZERO;
        };
        if bytes.is_zero() {
            return Cycles::ZERO;
        }
        let transcript = engine.submit(DmaRequest::new(bytes, MemTrafficClass::KvCache), now);
        transcript.end_cycle - now
    }

    /// Record the queue depths, the batch size and the KV occupancy at `now`.
    fn sample(&mut self, now: Cycles) {
        self.queue_samples.push(QueueSample {
            time_s: now.seconds_at(self.clock_hz),
            waiting: self.cc_queue.len() + self.ready.len(),
            active: self.batch.len(),
            kv_bytes: match &self.memory {
                Memory::Flat(kv) => kv.reserved_bytes(),
                Memory::Paged(pool) => pool.occupied_bytes(),
            },
        });
    }

    /// Summarise the run into its [`ServeReport`] — one summary for both
    /// drivers, so they can only ever differ in the state they reach, never
    /// in how it is reported — and hand the collections back to `scratch`.
    fn finish(self, scratch: &mut ServeScratch) -> ServeReport {
        let clock_hz = self.clock_hz;
        let states = &self.states;
        debug_assert_eq!(
            self.completed_order.len() + self.rejected_order.len(),
            states.len()
        );
        let completed: Vec<CompletedRequest> = self
            .completed_order
            .iter()
            .map(|&idx| {
                let s = &states[idx];
                CompletedRequest {
                    id: s.request.id,
                    arrival_s: s.arrival_cycle.seconds_at(clock_hz),
                    prefill_start_s: s.prefill_start.seconds_at(clock_hz),
                    prefill_end_s: s.prefill_end.seconds_at(clock_hz),
                    decode_start_s: s.decode_start.seconds_at(clock_hz),
                    finish_s: s.finish.seconds_at(clock_hz),
                    output_tokens: s.request.output_tokens,
                    slo: s.request.slo,
                }
            })
            .collect();
        let rejected: Vec<RejectedRequest> = self
            .rejected_order
            .iter()
            .map(|&(idx, cycle)| {
                let s = &states[idx];
                RejectedRequest {
                    id: s.request.id,
                    arrival_s: s.arrival_cycle.seconds_at(clock_hz),
                    reject_s: cycle.seconds_at(clock_hz),
                    slo: s.request.slo,
                }
            })
            .collect();
        let first_arrival = states
            .iter()
            .map(|s| s.arrival_cycle)
            .min()
            .unwrap_or(Cycles::ZERO);
        // First arrival to *last completion* — a straggler that arrives
        // after the machine drained and is promptly rejected consumed no
        // resources and must not dilute the throughput metrics.
        let makespan_s = self.completed_order.last().map_or(0.0, |&idx| {
            (states[idx].finish - first_arrival).seconds_at(clock_hz)
        });
        let (evictions, spilled_kv_bytes, restored_kv_bytes, peak_kv_bytes) = match &self.memory {
            Memory::Flat(kv) => (0, Bytes::ZERO, Bytes::ZERO, kv.peak_bytes()),
            Memory::Paged(pool) => (
                pool.evictions(),
                pool.spilled_bytes(),
                pool.restored_bytes(),
                pool.peak_bytes(),
            ),
        };
        scratch.samples_hint = self.queue_samples.len();
        let report = ServeReport {
            total_output_tokens: completed.iter().map(|r| Tokens::new(r.output_tokens)).sum(),
            completed,
            rejected,
            queue_samples: self.queue_samples,
            decode_steps: self.decode_steps,
            preemptions: self.preemptions,
            evictions,
            restarted_prefill_tokens: self.restarted_prefill_tokens,
            spilled_kv_bytes,
            restored_kv_bytes,
            peak_kv_bytes,
            makespan_s,
        };
        scratch.states = self.states;
        scratch.order = self.order;
        scratch.cc_queue = self.cc_queue;
        scratch.ready = self.ready;
        scratch.batch = self.batch;
        scratch.completed_order = self.completed_order;
        scratch.rejected_order = self.rejected_order;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{EarliestDeadlineFirst, Fcfs, PolicyKind, ShortestPromptFirst};
    use crate::slo::SloClass;
    use crate::trace::TraceConfig;
    use edgemm_mllm::zoo;
    use edgemm_sim::SimConfig;

    fn machine() -> Machine {
        Machine::new(SimConfig::paper_default())
    }

    fn simulator(machine: &Machine, batch_cap: usize) -> ServeSimulator<'_> {
        ServeSimulator::new(
            machine,
            zoo::sphinx_tiny(),
            ServeConfig::with_batch_cap(batch_cap),
        )
    }

    #[test]
    fn single_request_matches_solo_cost() {
        let m = machine();
        let sim = simulator(&m, 4);
        let request = ServeRequest::new(0, 0.0, 20, 8);
        let report = sim.run(&[request], &Fcfs);
        assert_eq!(report.completed.len(), 1);
        let clock_hz = m.config().chip.clock_mhz as f64 * 1.0e6;
        let expected_s = sim.solo_cycles(&request).seconds_at(clock_hz);
        let got = report.completed[0].latency_s();
        assert!(
            (got - expected_s).abs() / expected_s < 1e-12,
            "solo latency {got} vs expected {expected_s}"
        );
    }

    #[test]
    fn all_requests_complete_exactly_once() {
        let m = machine();
        let sim = simulator(&m, 3);
        let trace = TraceConfig::interactive(12, 50.0, 9).generate();
        let report = sim.run(&trace, &ShortestPromptFirst);
        assert_eq!(report.completed.len(), 12);
        let mut ids: Vec<u64> = report.completed.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..12).collect::<Vec<u64>>());
        assert_eq!(
            report.total_output_tokens,
            trace.iter().map(|r| r.output_tokens).sum::<usize>()
        );
    }

    #[test]
    fn timelines_are_ordered() {
        let m = machine();
        let sim = simulator(&m, 2);
        let trace = TraceConfig::interactive(8, 200.0, 3).generate();
        let report = sim.run(&trace, &Fcfs);
        for r in &report.completed {
            assert!(r.prefill_start_s >= r.arrival_s - 1e-12, "{r:?}");
            assert!(r.prefill_end_s > r.prefill_start_s, "{r:?}");
            assert!(r.decode_start_s >= r.prefill_end_s - 1e-12, "{r:?}");
            assert!(r.finish_s > r.decode_start_s, "{r:?}");
        }
    }

    #[test]
    fn batching_shares_weight_fetches() {
        // A saturated trace decoded with a large cap must finish in far less
        // time than with cap 1: the memory-bound decode steps share the
        // weight stream across the batch.
        let m = machine();
        let trace = TraceConfig::saturated(6, 20, 24).generate();
        let serial = simulator(&m, 1).run(&trace, &Fcfs);
        let batched = simulator(&m, 6).run(&trace, &Fcfs);
        assert!(
            batched.makespan_s < 0.6 * serial.makespan_s,
            "batched {} vs serial {}",
            batched.makespan_s,
            serial.makespan_s
        );
        assert!(batched.mean_batch_occupancy() > 2.0);
        assert!(serial.mean_batch_occupancy() <= 1.0 + 1e-12);
    }

    #[test]
    fn continuous_batching_backfills_the_batch() {
        // With more requests than the cap, finished streams must be replaced
        // without draining: the number of decode steps stays well below the
        // serial step count.
        let m = machine();
        let sim = simulator(&m, 4);
        let trace = TraceConfig::saturated(8, 16, 16).generate();
        let report = sim.run(&trace, &Fcfs);
        let serial_steps: usize = trace.iter().map(|r| r.output_tokens).sum();
        assert!(
            report.decode_steps < serial_steps as u64 / 2,
            "steps = {} vs serial {serial_steps}",
            report.decode_steps
        );
        assert_eq!(report.total_output_tokens, serial_steps);
    }

    #[test]
    fn queue_depth_rises_under_burst_and_drains() {
        let m = machine();
        let sim = simulator(&m, 4);
        let trace = TraceConfig::saturated(10, 16, 8).generate();
        let report = sim.run(&trace, &Fcfs);
        assert!(report.max_queue_depth() >= 8);
        assert_eq!(report.queue_samples.last().unwrap().waiting, 0);
        assert_eq!(report.queue_samples.last().unwrap().active, 0);
    }

    #[test]
    fn policies_reorder_but_serve_everyone() {
        let m = machine();
        let sim = simulator(&m, 4);
        let trace = TraceConfig::saturated(9, 8, 12)
            .generate()
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                // Heterogeneous prompts so the policies actually differ.
                r.text_tokens = 8 + 40 * (i % 3);
                r
            })
            .collect::<Vec<_>>();
        for kind in PolicyKind::ALL {
            let report = sim.run(&trace, kind.policy());
            assert_eq!(report.completed.len(), trace.len(), "{kind:?}");
            assert!(report.rejected.is_empty(), "{kind:?}");
        }
    }

    #[test]
    fn reject_admission_drops_hopeless_requests() {
        // A saturated burst with a TTFT budget only a few prefills deep:
        // the head of the queue completes, the tail is rejected, and
        // completed + rejected account for every submission.
        let m = machine();
        let slo = SloClass::interactive().with_ttft(0.15);
        let trace: Vec<ServeRequest> = TraceConfig::saturated(12, 24, 8)
            .generate()
            .into_iter()
            .map(|r| r.with_slo(slo))
            .collect();
        let config = ServeConfig::with_batch_cap(4).with_admission(AdmissionControl::Reject);
        let sim = ServeSimulator::new(&m, zoo::sphinx_tiny(), config);
        let report = sim.run(&trace, &EarliestDeadlineFirst);
        assert!(!report.rejected.is_empty(), "nothing was rejected");
        assert!(!report.completed.is_empty(), "everything was rejected");
        assert_eq!(report.completed.len() + report.rejected.len(), trace.len());
        // No id in both lists.
        for r in &report.rejected {
            assert!(report.completed.iter().all(|c| c.id != r.id));
            assert!(r.reject_s >= r.arrival_s);
        }
        // Load shedding pays off: every survivor met its TTFT deadline.
        assert!(report.completed.iter().all(|c| c.meets_ttft()));
    }

    #[test]
    fn defer_admission_serves_everyone_but_protects_the_feasible() {
        let m = machine();
        let slo = SloClass::interactive().with_ttft(0.15);
        let trace: Vec<ServeRequest> = TraceConfig::saturated(12, 24, 8)
            .generate()
            .into_iter()
            .map(|r| r.with_slo(slo))
            .collect();
        let defer = ServeConfig::with_batch_cap(4).with_admission(AdmissionControl::Defer);
        let sim = ServeSimulator::new(&m, zoo::sphinx_tiny(), defer);
        let report = sim.run(&trace, &EarliestDeadlineFirst);
        assert_eq!(report.completed.len(), trace.len());
        assert!(report.rejected.is_empty());
        // Deferral cannot drop anyone, so some requests miss...
        assert!(report.deadline_misses() > 0);
        // ...but at least as many meet TTFT as under admit-all FCFS.
        let baseline = ServeSimulator::new(&m, zoo::sphinx_tiny(), ServeConfig::with_batch_cap(4))
            .run(&trace, &Fcfs);
        let met = |r: &ServeReport| r.completed.iter().filter(|c| c.meets_ttft()).count();
        assert!(met(&report) >= met(&baseline));
    }

    #[test]
    fn join_order_follows_the_policy() {
        // Cap 1 and a simultaneous burst (so the CC stage sees all three
        // before choosing): under EDF the interactive stream must take the
        // decode slot before lower-id batch work; under FCFS id order wins.
        let m = machine();
        let requests = [
            ServeRequest::new(0, 0.0, 16, 24).with_slo(SloClass::batch()),
            ServeRequest::new(1, 0.0, 16, 24).with_slo(SloClass::batch()),
            ServeRequest::new(2, 0.0, 16, 24).with_slo(SloClass::interactive().with_tpot(10.0)),
        ];
        let sim = simulator(&m, 1);
        let edf = sim.run(&requests, &EarliestDeadlineFirst);
        let fcfs = sim.run(&requests, &Fcfs);
        let decode_rank = |report: &ServeReport, id: u64| {
            let mut starts: Vec<(f64, u64)> = report
                .completed
                .iter()
                .map(|c| (c.decode_start_s, c.id))
                .collect();
            starts.sort_by(|a, b| edgemm_core::float::total_cmp(a.0, b.0).then(a.1.cmp(&b.1)));
            starts.iter().position(|&(_, i)| i == id).expect("served")
        };
        // EDF prefills the interactive request first (earliest deadline) and
        // its join ordering keeps priority; FCFS leaves it last.
        assert_eq!(decode_rank(&edf, 2), 0);
        assert_eq!(decode_rank(&fcfs, 2), 2);
    }

    #[test]
    fn chunked_single_chunk_reproduces_the_unchunked_run() {
        // chunk_tokens >= the prompt and an unbounded pool: the chunked code
        // path must be byte-for-byte the legacy simulator.
        let m = machine();
        let trace = TraceConfig::interactive(10, 40.0, 17).generate();
        let legacy = simulator(&m, 4).run(&trace, &EarliestDeadlineFirst);
        let chunked = ServeSimulator::new(
            &m,
            zoo::sphinx_tiny(),
            ServeConfig::with_batch_cap(4).with_chunk_tokens(usize::MAX),
        )
        .run(&trace, &EarliestDeadlineFirst);
        assert_eq!(legacy, chunked);
    }

    #[test]
    fn chunking_preempts_a_long_prefill_for_an_urgent_arrival() {
        // A long batch-class prefill is underway when an interactive request
        // arrives. Unchunked, the arrival waits out the whole block; chunked,
        // EDF grabs the CC stage at the next chunk boundary and the
        // interactive TTFT collapses.
        let m = machine();
        let long = ServeRequest::new(0, 0.0, 768, 8).with_slo(SloClass::batch());
        let urgent = ServeRequest::new(1, 0.001, 8, 8).with_slo(SloClass::interactive());
        let run = |config: ServeConfig| {
            ServeSimulator::new(&m, zoo::sphinx_tiny(), config)
                .run(&[long, urgent], &EarliestDeadlineFirst)
        };
        let unchunked = run(ServeConfig::with_batch_cap(4));
        let chunked = run(ServeConfig::with_batch_cap(4).with_chunk_tokens(160));
        let ttft = |report: &ServeReport| {
            report
                .completed
                .iter()
                .find(|c| c.id == 1)
                .expect("served")
                .time_to_first_token_s()
        };
        assert_eq!(unchunked.preemptions, 0);
        assert!(chunked.preemptions > 0, "no chunk-boundary preemption");
        // The urgent request escapes the long block early enough to beat
        // both the unchunked TTFT (by a wide margin — its own prefill now
        // carries chunk overhead, so the win must be structural) and its
        // 250 ms interactive deadline, which the unchunked run misses.
        assert!(
            ttft(&chunked) < 0.8 * ttft(&unchunked),
            "chunked TTFT {} vs unchunked {}",
            ttft(&chunked),
            ttft(&unchunked)
        );
        assert!(chunked.completed.iter().all(|c| c.meets_ttft()));
        assert_eq!(unchunked.deadline_misses(), 1);
    }

    #[test]
    fn fcfs_never_preempts_even_when_chunked() {
        // FCFS picks by arrival, so the in-progress (earliest) prefill wins
        // every chunk boundary: chunking must not change the order.
        let m = machine();
        let long = ServeRequest::new(0, 0.0, 256, 8);
        let late = ServeRequest::new(1, 0.001, 8, 8);
        let report = ServeSimulator::new(
            &m,
            zoo::sphinx_tiny(),
            ServeConfig::with_batch_cap(4).with_chunk_tokens(64),
        )
        .run(&[long, late], &Fcfs);
        assert_eq!(report.preemptions, 0);
        let first_end = report.completed.iter().find(|c| c.id == 0).unwrap();
        let second_start = report.completed.iter().find(|c| c.id == 1).unwrap();
        assert!(second_start.prefill_start_s >= first_end.prefill_end_s - 1e-12);
    }

    #[test]
    fn kv_pool_bounds_the_batch_by_bytes() {
        // Identical requests; a pool sized for ~2 streams must cap the batch
        // at 2 even though no hard cap is set, and peak KV stays in budget.
        let m = machine();
        let trace = TraceConfig::saturated(6, 20, 16).generate();
        let per_stream = zoo::sphinx_tiny().llm.kv_cache_bytes(
            zoo::sphinx_tiny().prompt_tokens(20) + 16,
            m.config().mc_weight_bytes,
        );
        let config =
            ServeConfig::new().with_kv_pool(KvPool::with_budget(Bytes::new(2 * per_stream + 1)));
        let report = ServeSimulator::new(&m, zoo::sphinx_tiny(), config).run(&trace, &Fcfs);
        assert_eq!(report.completed.len(), 6);
        assert!(report.peak_kv_bytes <= 2 * per_stream + 1);
        assert!(report.queue_samples.iter().all(|s| s.active <= 2));
        assert!(report.queue_samples.iter().any(|s| s.active == 2));
    }

    #[test]
    fn unbounded_pool_with_no_cap_batches_everything() {
        let m = machine();
        // Long enough generations that the first stream is still decoding
        // when the last prefill lands: all five must overlap.
        let trace = TraceConfig::saturated(5, 20, 64).generate();
        let report =
            ServeSimulator::new(&m, zoo::sphinx_tiny(), ServeConfig::new()).run(&trace, &Fcfs);
        assert!(report.queue_samples.iter().any(|s| s.active == 5));
        assert_eq!(report.completed.len(), 5);
    }

    #[test]
    fn oversized_request_runs_solo_instead_of_deadlocking() {
        let m = machine();
        let trace = TraceConfig::saturated(3, 20, 16).generate();
        // Budget below a single stream's footprint: the escape hatch admits
        // one stream at a time and the run still drains.
        let config = ServeConfig::new().with_kv_pool(KvPool::with_budget(Bytes::new(1024)));
        let report = ServeSimulator::new(&m, zoo::sphinx_tiny(), config).run(&trace, &Fcfs);
        assert_eq!(report.completed.len(), 3);
        assert!(report.queue_samples.iter().all(|s| s.active <= 1));
    }

    #[test]
    fn onchip_kv_tier_speeds_up_decode_steps() {
        // Same trace, same admission; a pool whose on-chip tier swallows the
        // whole batch's KV drops the KV DRAM traffic and finishes sooner
        // than the all-spill baseline.
        let m = machine();
        let trace = TraceConfig::saturated(4, 20, 32).generate();
        let run = |kv: KvPool| {
            ServeSimulator::new(
                &m,
                zoo::sphinx_tiny(),
                ServeConfig::with_batch_cap(4).with_kv_pool(kv),
            )
            .run(&trace, &Fcfs)
        };
        let spilled = run(KvPool::with_budget(Bytes::new(1 << 40)));
        let onchip = run(KvPool::with_budget(Bytes::new(1 << 40)).with_onchip(Bytes::new(1 << 40)));
        assert_eq!(spilled.completed.len(), onchip.completed.len());
        assert!(
            onchip.makespan_s < spilled.makespan_s,
            "on-chip KV did not help: {} vs {}",
            onchip.makespan_s,
            spilled.makespan_s
        );
    }

    #[test]
    fn spill_penalty_slows_decode_steps() {
        let m = machine();
        let trace = TraceConfig::saturated(4, 20, 32).generate();
        let run = |kv: KvPool| {
            ServeSimulator::new(
                &m,
                zoo::sphinx_tiny(),
                ServeConfig::with_batch_cap(4).with_kv_pool(kv),
            )
            .run(&trace, &Fcfs)
        };
        let neutral = run(KvPool::unbounded());
        let penalised = run(KvPool::with_budget(Bytes::new(1 << 40)).with_spill_penalty(2.0));
        assert!(
            penalised.makespan_s > neutral.makespan_s,
            "spill penalty had no effect"
        );
    }

    #[test]
    fn empty_trace_yields_empty_report() {
        let m = machine();
        let report = simulator(&m, 4).run(&[], &Fcfs);
        assert!(report.completed.is_empty());
        assert!(report.rejected.is_empty());
        assert_eq!(report.makespan_s, 0.0);
        assert_eq!(report.decode_steps, 0);
        assert_eq!(report.preemptions, 0);
        assert_eq!(report.evictions, 0);
        assert_eq!(report.restarted_prefill_tokens, 0);
        assert_eq!(report.spilled_kv_bytes, Bytes::ZERO);
        assert_eq!(report.restored_kv_bytes, Bytes::ZERO);
        assert_eq!(report.peak_kv_bytes, 0);
    }

    fn paged_sim(machine: &Machine, kv: KvPool, block_tokens: usize) -> ServeSimulator<'_> {
        ServeSimulator::new(
            machine,
            zoo::sphinx_tiny(),
            ServeConfig::new()
                .with_kv_pool(kv)
                .with_block_tokens(block_tokens),
        )
    }

    #[test]
    fn paged_single_request_matches_its_solo_cost() {
        let m = machine();
        let sim = paged_sim(&m, KvPool::unbounded(), 16);
        let request = ServeRequest::new(0, 0.0, 20, 8);
        let report = sim.run(&[request], &Fcfs);
        assert_eq!(report.completed.len(), 1);
        let clock_hz = m.config().chip.clock_mhz as f64 * 1.0e6;
        let expected_s = sim.solo_cycles(&request).seconds_at(clock_hz);
        let got = report.completed[0].latency_s();
        assert!(
            (got - expected_s).abs() / expected_s < 1e-12,
            "paged solo latency {got} vs expected {expected_s}"
        );
    }

    #[test]
    fn paged_solo_steps_price_the_actual_context_per_step() {
        // With an unbounded (factor-neutral) pool, a paged solo run must
        // cost exactly prefill + the sum over steps of the cycle-level
        // decode step priced at that step's true context length.
        let m = machine();
        let sim = paged_sim(&m, KvPool::unbounded(), 16);
        let request = ServeRequest::new(0, 0.0, 20, 11);
        let workload = ModelWorkload::new(zoo::sphinx_tiny(), 20, 11);
        let prefill: Cycles = [Phase::VisionEncode, Phase::Projector, Phase::Prefill]
            .iter()
            .map(|&phase| {
                m.run_phase_on(
                    &workload,
                    phase,
                    ClusterKind::ComputeCentric,
                    DecodeOptions::baseline(),
                )
                .cycles
            })
            .sum();
        let decode: Cycles = (0..11)
            .map(|step| {
                m.decode_step_costs_at(
                    &workload,
                    ClusterKind::MemoryCentric,
                    PruningEffect::disabled(),
                    workload.prompt_tokens() + step,
                )
                .iter()
                .map(OpCost::latency_cycles)
                .sum::<Cycles>()
                .max(Cycles::new(1))
            })
            .sum();
        assert_eq!(sim.solo_cycles(&request), prefill + decode);
    }

    #[test]
    fn paged_allocation_fits_more_streams_than_peak_reservation() {
        // A budget sized for ~2 whole-request peak footprints of long
        // generations: peak reservation caps the batch at 2, while lazy
        // block allocation fits more streams (their early contexts are far
        // below peak — the prompt is ~55% of it here).
        let m = machine();
        let trace = TraceConfig::saturated(6, 20, 256).generate();
        let per_stream = zoo::sphinx_tiny().llm.kv_cache_bytes(
            zoo::sphinx_tiny().prompt_tokens(20) + 256,
            m.config().mc_weight_bytes,
        );
        let kv = KvPool::with_budget(Bytes::new(2 * per_stream + 1));
        let reserved =
            ServeSimulator::new(&m, zoo::sphinx_tiny(), ServeConfig::new().with_kv_pool(kv))
                .run(&trace, &Fcfs);
        let paged = paged_sim(&m, kv, 16).run(&trace, &Fcfs);
        let max_active = |r: &ServeReport| r.queue_samples.iter().map(|s| s.active).max().unwrap();
        assert_eq!(reserved.completed.len(), 6);
        assert_eq!(paged.completed.len(), 6);
        assert!(max_active(&reserved) <= 2);
        assert!(
            max_active(&paged) > max_active(&reserved),
            "paged batched {} streams vs reserved {}",
            max_active(&paged),
            max_active(&reserved)
        );
        assert!(paged.peak_kv_bytes <= 2 * per_stream + 1);
    }

    #[test]
    fn paged_join_revokes_a_lower_priority_decode_slot() {
        // A batch-class stream with a long generation owns the pool when an
        // interactive request shows up. Under peak reservation the arrival
        // waits for the full drain; with paged eviction it revokes the
        // batch stream's slot, which re-queues for re-prefill and still
        // completes.
        let m = machine();
        let long = ServeRequest::new(0, 0.0, 64, 200).with_slo(SloClass::batch());
        let urgent = ServeRequest::new(1, 0.05, 8, 16).with_slo(SloClass::interactive());
        let per_token = zoo::sphinx_tiny()
            .llm
            .kv_bytes_per_token(m.config().mc_weight_bytes);
        // Room for the long stream's prefix plus a little growth, not for
        // both streams at once.
        let kv = KvPool::with_budget(Bytes::new(500 * per_token));
        let reserved =
            ServeSimulator::new(&m, zoo::sphinx_tiny(), ServeConfig::new().with_kv_pool(kv))
                .run(&[long, urgent], &EarliestDeadlineFirst);
        let paged = paged_sim(&m, kv, 16).run(&[long, urgent], &EarliestDeadlineFirst);
        assert_eq!(reserved.evictions, 0);
        assert!(paged.evictions >= 1, "no decode-slot revocation");
        assert!(paged.restarted_prefill_tokens > 0);
        assert_eq!(paged.completed.len(), 2, "an evicted request was lost");
        let decode_wait = |r: &ServeReport, id: u64| {
            let c = r.completed.iter().find(|c| c.id == id).expect("served");
            c.decode_start_s - c.prefill_end_s
        };
        // The revocation is what gets the interactive stream its slot
        // early; under peak reservation it waits out the long drain.
        assert!(
            decode_wait(&paged, 1) < 0.25 * decode_wait(&reserved, 1),
            "paged wait {} vs reserved wait {}",
            decode_wait(&paged, 1),
            decode_wait(&reserved, 1)
        );
    }

    #[test]
    fn futile_revocation_is_skipped_entirely() {
        // An interactive pick that would not fit even after revoking every
        // strictly-lower-priority stream must not evict anyone: the victim
        // would pay the full re-prefill recompute for zero admission
        // benefit. Here the batch-class stream's blocks are far fewer than
        // the pick still lacks, so the pick waits instead.
        let m = machine();
        let per_token = zoo::sphinx_tiny()
            .llm
            .kv_bytes_per_token(m.config().mc_weight_bytes);
        // 68 blocks of 16 tokens: holds the two running streams at full
        // growth (43 + 24 blocks) but not the 31-block pick even with the
        // batch stream gone (43 + 31 > 68).
        let kv = KvPool::with_budget(Bytes::new(68 * 16 * per_token));
        let a = ServeRequest::new(0, 0.0, 312, 80).with_slo(SloClass::interactive());
        let b = ServeRequest::new(1, 0.001, 8, 80).with_slo(SloClass::batch());
        let c = ServeRequest::new(2, 0.3, 200, 8).with_slo(SloClass::interactive());
        let report = paged_sim(&m, kv, 16).run(&[a, b, c], &EarliestDeadlineFirst);
        assert_eq!(report.evictions, 0, "futile revocation evicted a stream");
        assert_eq!(report.restarted_prefill_tokens, 0);
        assert_eq!(report.completed.len(), 3);
        assert!(report.peak_kv_bytes <= kv.budget_bytes());
    }

    #[test]
    fn paged_growth_pressure_evicts_the_least_urgent_stream() {
        // Equal-priority saturated streams against a budget that cannot
        // hold both full contexts: growth pressure must evict (the later
        // id, by the deterministic tie-break) and everyone still finishes.
        let m = machine();
        let trace = TraceConfig::saturated(2, 20, 96).generate();
        let model = zoo::sphinx_tiny();
        let prompt = model.prompt_tokens(20);
        let per_token = model.llm.kv_bytes_per_token(m.config().mc_weight_bytes);
        // Both prompts fit; both full contexts (prompt + 96) do not.
        let kv = KvPool::with_budget(Bytes::new((2 * prompt + 96) as u64 * per_token));
        let report = paged_sim(&m, kv, 16).run(&trace, &Fcfs);
        assert!(report.evictions >= 1, "growth pressure never evicted");
        assert_eq!(report.completed.len(), 2);
        // The earlier-id stream survives the tie-break and finishes first.
        let finish = |id: u64| {
            report
                .completed
                .iter()
                .find(|c| c.id == id)
                .expect("served")
                .finish_s
        };
        assert!(finish(0) < finish(1));
        assert!(report.peak_kv_bytes <= kv.budget_bytes());
    }

    #[test]
    fn paged_oversized_request_runs_solo_instead_of_deadlocking() {
        let m = machine();
        let trace = TraceConfig::saturated(3, 20, 16).generate();
        let kv = KvPool::with_budget(Bytes::new(1024));
        let report = paged_sim(&m, kv, 16).run(&trace, &Fcfs);
        assert_eq!(report.completed.len(), 3);
        assert!(report.queue_samples.iter().all(|s| s.active <= 1));
    }

    #[test]
    fn paged_without_pressure_never_evicts() {
        let m = machine();
        let trace = TraceConfig::saturated(5, 20, 32).generate();
        let report = paged_sim(&m, KvPool::unbounded(), 16).run(&trace, &Fcfs);
        assert_eq!(report.evictions, 0);
        assert_eq!(report.restarted_prefill_tokens, 0);
        assert_eq!(report.completed.len(), 5);
        assert!(report.queue_samples.iter().any(|s| s.active == 5));
    }

    #[test]
    fn shared_prefix_metadata_alone_changes_nothing() {
        // With every PR 7 feature off, a trace that merely *declares*
        // shared prefixes must reproduce the stripped trace byte for byte:
        // the metadata is inert until the simulator opts in.
        let m = machine();
        let trace = TraceConfig::multi_tenant(3, 16, 10.0, 5).generate();
        let stripped: Vec<ServeRequest> = trace
            .iter()
            .map(|r| ServeRequest {
                shared_prefix: None,
                ..*r
            })
            .collect();
        let sim = paged_sim(&m, KvPool::unbounded(), 16);
        assert_eq!(sim.run(&trace, &Fcfs), sim.run(&stripped, &Fcfs));
    }

    #[test]
    fn prefix_sharing_deduplicates_tenant_prompts() {
        // Three tenants, one physical copy of each system prompt: sharing
        // lowers the peak KV footprint, and skipping fully-reused prefill
        // chunks lowers the mean TTFT. Everyone still completes.
        let m = machine();
        let trace = TraceConfig::multi_tenant(3, 24, 10.0, 9).generate();
        let config = ServeConfig::new()
            .with_kv_pool(KvPool::unbounded())
            .with_block_tokens(16)
            .with_chunk_tokens(64);
        let base = ServeSimulator::new(&m, zoo::sphinx_tiny(), config).run(&trace, &Fcfs);
        let shared = ServeSimulator::new(&m, zoo::sphinx_tiny(), config.with_prefix_sharing())
            .run(&trace, &Fcfs);
        assert_eq!(base.completed.len(), 24);
        assert_eq!(shared.completed.len(), 24);
        assert!(
            shared.peak_kv_bytes < base.peak_kv_bytes,
            "sharing did not shrink peak KV: {} vs {}",
            shared.peak_kv_bytes,
            base.peak_kv_bytes
        );
        let mean_ttft = |r: &ServeReport| {
            r.completed
                .iter()
                .map(CompletedRequest::time_to_first_token_s)
                .sum::<f64>()
                / r.completed.len() as f64
        };
        assert!(
            mean_ttft(&shared) < mean_ttft(&base),
            "reused prefix chunks did not speed up TTFT: {} vs {}",
            mean_ttft(&shared),
            mean_ttft(&base)
        );
    }

    #[test]
    fn spill_and_restore_replaces_recompute() {
        // The paged_join_revokes scenario with a spill area: the revoked
        // batch stream's KV image swaps out over DMA and back in instead of
        // being recomputed, so restarted prefill collapses to zero while
        // the spilled and restored byte counters balance.
        let m = machine();
        let long = ServeRequest::new(0, 0.0, 64, 200).with_slo(SloClass::batch());
        let urgent = ServeRequest::new(1, 0.05, 8, 16).with_slo(SloClass::interactive());
        let per_token = zoo::sphinx_tiny()
            .llm
            .kv_bytes_per_token(m.config().mc_weight_bytes);
        let kv = KvPool::with_budget(Bytes::new(500 * per_token));
        let config = ServeConfig::new()
            .with_kv_pool(kv)
            .with_block_tokens(16)
            .with_spill_capacity(Bytes::new(1 << 30));
        let report = ServeSimulator::new(&m, zoo::sphinx_tiny(), config)
            .run(&[long, urgent], &EarliestDeadlineFirst);
        assert!(report.evictions >= 1, "no decode-slot revocation");
        assert_eq!(
            report.restarted_prefill_tokens, 0,
            "spill-and-restore still recomputed"
        );
        assert!(report.spilled_kv_bytes > Bytes::ZERO);
        assert_eq!(report.spilled_kv_bytes, report.restored_kv_bytes);
        assert_eq!(report.completed.len(), 2, "a spilled request was lost");
    }

    #[test]
    fn exhausted_spill_area_falls_back_to_recompute() {
        // A spill area too small for a single KV image never admits a
        // spill: eviction degrades to the PR 5 recompute path and the run
        // still drains.
        let m = machine();
        let long = ServeRequest::new(0, 0.0, 64, 200).with_slo(SloClass::batch());
        let urgent = ServeRequest::new(1, 0.05, 8, 16).with_slo(SloClass::interactive());
        let per_token = zoo::sphinx_tiny()
            .llm
            .kv_bytes_per_token(m.config().mc_weight_bytes);
        let kv = KvPool::with_budget(Bytes::new(500 * per_token));
        let config = ServeConfig::new()
            .with_kv_pool(kv)
            .with_block_tokens(16)
            .with_spill_capacity(Bytes::new(1));
        let report = ServeSimulator::new(&m, zoo::sphinx_tiny(), config)
            .run(&[long, urgent], &EarliestDeadlineFirst);
        assert!(report.restarted_prefill_tokens > 0, "never recomputed");
        assert_eq!(report.spilled_kv_bytes, Bytes::ZERO);
        assert_eq!(report.restored_kv_bytes, Bytes::ZERO);
        assert_eq!(report.completed.len(), 2);
    }

    #[test]
    fn eager_accounting_charges_kv_before_the_decode_slot() {
        // With eager accounting, KV written by finished prefill chunks
        // shows up in the pool's account while the stream is still waiting
        // for a decode slot: some sample reports KV bytes with zero active
        // decode streams.
        let m = machine();
        let request = ServeRequest::new(0, 0.0, 64, 8);
        let config = ServeConfig::new()
            .with_kv_pool(KvPool::unbounded())
            .with_block_tokens(16)
            .with_chunk_tokens(32)
            .with_eager_kv_accounting();
        let report = ServeSimulator::new(&m, zoo::sphinx_tiny(), config).run(&[request], &Fcfs);
        assert_eq!(report.completed.len(), 1);
        assert!(
            report
                .queue_samples
                .iter()
                .any(|s| s.active == 0 && !s.kv_bytes.is_zero()),
            "no sample charged queued-prefill KV"
        );
    }

    #[test]
    #[should_panic(expected = "prefix sharing requires paged allocation")]
    fn prefix_sharing_without_paging_rejected() {
        let m = machine();
        ServeSimulator::new(
            &m,
            zoo::sphinx_tiny(),
            ServeConfig::new().with_prefix_sharing(),
        );
    }

    #[test]
    #[should_panic(expected = "spill-and-restore requires paged allocation")]
    fn spill_capacity_without_paging_rejected() {
        let m = machine();
        ServeSimulator::new(
            &m,
            zoo::sphinx_tiny(),
            ServeConfig::new().with_spill_capacity(Bytes::new(1 << 20)),
        );
    }

    #[test]
    #[should_panic(expected = "eager KV accounting requires paged allocation")]
    fn eager_accounting_without_paging_rejected() {
        let m = machine();
        ServeSimulator::new(
            &m,
            zoo::sphinx_tiny(),
            ServeConfig::new().with_eager_kv_accounting(),
        );
    }

    #[test]
    #[should_panic(expected = "KV block size must be at least one token")]
    fn zero_block_tokens_rejected() {
        let m = machine();
        ServeSimulator::new(
            &m,
            zoo::sphinx_tiny(),
            ServeConfig::new().with_block_tokens(0),
        );
    }

    #[test]
    #[should_panic(expected = "request ids must be unique")]
    fn duplicate_ids_rejected() {
        let m = machine();
        let sim = simulator(&m, 2);
        let requests = [
            ServeRequest::new(5, 0.0, 8, 4),
            ServeRequest::new(5, 0.1, 8, 4),
        ];
        sim.run(&requests, &Fcfs);
    }

    #[test]
    #[should_panic(expected = "request ids must be unique")]
    fn duplicate_ids_rejected_by_the_reference_driver() {
        let m = machine();
        let sim = simulator(&m, 2);
        let requests = [
            ServeRequest::new(5, 0.0, 8, 4),
            ServeRequest::new(5, 0.1, 8, 4),
        ];
        sim.run_reference(&requests, &Fcfs);
    }

    #[test]
    #[should_panic(expected = "batch capacity must be at least 1")]
    fn zero_batch_cap_rejected() {
        let m = machine();
        simulator(&m, 0);
    }

    #[test]
    #[should_panic(expected = "chunk budget must be at least one token")]
    fn zero_chunk_budget_rejected() {
        let m = machine();
        ServeSimulator::new(
            &m,
            zoo::sphinx_tiny(),
            ServeConfig::new().with_chunk_tokens(0),
        );
    }

    #[test]
    fn heap_engine_matches_the_reference_engine() {
        // The in-crate differential check: the heap-scheduled `run` and the
        // reference advance-and-scan `run_reference` must produce
        // byte-identical reports across every configuration family. The
        // workspace-level `tests/properties.rs` widens this over
        // proptest-randomized traces.
        let m = machine();
        let per_token = zoo::sphinx_tiny()
            .llm
            .kv_bytes_per_token(m.config().mc_weight_bytes);
        let kv = KvPool::with_budget(Bytes::new(900 * per_token));
        let configs = [
            ServeConfig::with_batch_cap(4),
            ServeConfig::with_batch_cap(4)
                .with_chunk_tokens(64)
                .with_admission(AdmissionControl::Defer),
            ServeConfig::new().with_kv_pool(kv).with_chunk_tokens(64),
            ServeConfig::new()
                .with_kv_pool(kv)
                .with_chunk_tokens(64)
                .with_block_tokens(16),
            ServeConfig::new()
                .with_kv_pool(kv)
                .with_chunk_tokens(64)
                .with_block_tokens(16)
                .with_prefix_sharing()
                .with_eager_kv_accounting()
                .with_spill_capacity(Bytes::new(64 << 20)),
        ];
        let traces = [
            TraceConfig::interactive(10, 40.0, 17).generate(),
            crate::trace::merge(&[
                TraceConfig::multi_tenant(3, 12, 10.0, 5).generate(),
                TraceConfig::background(3, 4.0, 11).generate(),
            ]),
        ];
        // The config × trace × policy combinations are independent
        // simulations; fan them out across the host pool. A divergence
        // panics inside its worker and `par_map` re-raises the smallest
        // combo index, so the reported failure is the same one the old
        // nested loops hit first.
        let combos: Vec<(usize, usize, PolicyKind)> = (0..configs.len())
            .flat_map(|ci| {
                (0..traces.len()).flat_map(move |ti| {
                    [PolicyKind::Fcfs, PolicyKind::EarliestDeadlineFirst]
                        .into_iter()
                        .map(move |kind| (ci, ti, kind))
                })
            })
            .collect();
        edgemm_exec::Pool::from_env().par_map(&combos, |_, &(ci, ti, kind)| {
            let config = configs[ci];
            let sim = ServeSimulator::new(&m, zoo::sphinx_tiny(), config);
            let heap = sim.run(&traces[ti], kind.policy());
            let reference = sim.run_reference(&traces[ti], kind.policy());
            assert_eq!(heap, reference, "engines diverged: {config:?} {kind:?}");
        });
    }

    #[test]
    fn a_reused_scratch_is_byte_identical_to_a_fresh_one() {
        // One scratch threaded through different simulators, traces and
        // policies — the worst case for stale carried state — must
        // reproduce every fresh-scratch report exactly.
        let m = machine();
        let per_token = zoo::sphinx_tiny()
            .llm
            .kv_bytes_per_token(m.config().mc_weight_bytes);
        let kv = KvPool::with_budget(Bytes::new(900 * per_token));
        let configs = [
            ServeConfig::with_batch_cap(4).with_chunk_tokens(64),
            ServeConfig::new()
                .with_kv_pool(kv)
                .with_chunk_tokens(64)
                .with_block_tokens(16),
            ServeConfig::new()
                .with_kv_pool(kv)
                .with_chunk_tokens(64)
                .with_block_tokens(16)
                .with_prefix_sharing()
                .with_eager_kv_accounting()
                .with_spill_capacity(Bytes::new(64 << 20)),
        ];
        let traces = [
            TraceConfig::interactive(8, 40.0, 3).generate(),
            TraceConfig::multi_tenant(2, 8, 10.0, 9).generate(),
        ];
        let mut scratch = ServeScratch::new();
        for _ in 0..2 {
            for config in configs {
                let sim = ServeSimulator::new(&m, zoo::sphinx_tiny(), config);
                for trace in &traces {
                    for kind in [PolicyKind::Fcfs, PolicyKind::EarliestDeadlineFirst] {
                        let reused = sim.run_with_scratch(trace, kind.policy(), &mut scratch);
                        let fresh = sim.run(trace, kind.policy());
                        assert_eq!(reused, fresh, "scratch leaked state: {config:?} {kind:?}");
                    }
                }
            }
        }
    }
}
