//! Continuous-batching request serving over the **paged KV pool** (the
//! paper's §4 decode stage, grown into a memory-aware multi-request
//! scheduler).
//!
//! The chunked prefill of §3.2 exists so prefill work can *share the
//! device* with other in-flight work; this module is where that sharing
//! happens — and, since the paged-KV subsystem landed, where the
//! device's **memory** is shared too. [`LlmNpuEngine::serve`] admits a
//! queue of [`GenerationRequest`]s against one fixed
//! [`BlockPool`] of KV pages and builds one
//! combined [`LaneGraph`] holding, per admitted request *incarnation*:
//!
//! * an **admission task** that reserves the request's worst-case page
//!   budget on top of any prompt prefix it reuses from the **global
//!   radix prefix cache** ([`llmnpu_kv::PrefixCache`]) — full pages are
//!   ref-shared, the sub-page remainder is recovered by a leading-row
//!   copy. The cache is the one prefix-reuse mechanism: pages come from
//!   a request earlier in the *same* planning round (the planner sees
//!   its promised, still-pending pages and gates the reader on that
//!   producer's prefill) or from any earlier round, live or long gone —
//!   the shared system prompt is allocated and prefilled **once**,
//! * the request's **chunked-prefill DAG** over its *unshared suffix*,
//!   writing K/V straight into the pool through the request's block
//!   table (position-addressed, so out-of-order chunks can't reorder
//!   the cache),
//! * its **decode steps** — grouped into cohorts so concurrent
//!   requests' same-position steps run as **one `m = B` batched GEMM**
//!   per linear site instead of B separate GEMVs
//!   ([`ServeOptions::decode_batch`]), attention staying per-request
//!   over each paged history — and
//! * a **release task** returning every page to the pool (the zero-leak
//!   counter [`KvPoolReport::leaked_blocks`] pins this).
//!
//! # Admission is a memory model, not a request count
//!
//! A request is admitted when the pool has pages for its worst case
//! (prompt + decode budget) *and* a slot under
//! [`ServeOptions::max_active`]. When pages run out, the planner either
//! **waits** for the earliest active request to finish, or — under
//! [`PressurePolicy::EvictYoungest`] — **preempts** the youngest active
//! request: its pages are freed, its (so far prefill-only) work is
//! discarded, and it is requeued behind the preemptor to be
//! **recomputed** from scratch. Both the eviction and the second
//! prefill appear in the unified timeline — the preemption witness.
//! Admission decisions are made by a deterministic planner over request
//! order and page arithmetic, so the *structure* of a serving run never
//! depends on wall-clock noise.
//!
//! # Sessions and the global prefix cache
//!
//! [`LlmNpuEngine::serve`] is the transient entry point: it builds a
//! pool and a fresh [`llmnpu_kv::PrefixCache`] for one batch and drains
//! both before returning. A long-running front-end (see
//! [`crate::frontend`]) instead opens a [`ServeSession`] once and calls
//! [`LlmNpuEngine::serve_with_session`] per batch: cached prompt
//! prefixes survive *across* batches, so a later request sharing a
//! system prompt with any earlier one reuses those pages even though
//! the producer is long released.
//!
//! Within a round, every admission promises its full prompt pages to
//! the cache as *pending* nodes, and its prefill-finish task fills them
//! (publishing the pages for later batches too). A later admission
//! whose lookup matches pending pages waits for each producer's
//! prefill; should a producer never publish (failed, cancelled), the
//! reader's admission fails as a contained error and its retry round
//! replans it. The planner never preempts a producer with readers, and
//! takes the pages they read back only as its last resort under
//! pressure, once nothing is active: it hides them from the rest of
//! the round, and the admission that needs them evicts them after the
//! producer and every reader are done — so a reused page is resident
//! from the producer's insert until its readers have retained it.
//!
//! Cached pages are ref-counted residents of the pool; under admission
//! pressure the planner evicts cold cached prefixes (LRU, refusing
//! pages mid-reuse or claimed by the current round) before it resorts
//! to preempting live requests. The zero-leak invariant becomes: used
//! pages minus cache-resident pages is zero after every batch, and
//! exactly zero after a session flush.
//!
//! # Determinism
//!
//! Each request's decode chain stays a serial dependency over its own
//! paged cache and its own seeded [`Sampler`]; paged attention is
//! bit-identical to the contiguous path by construction; and stacking
//! rows into an `m = B` GEMM never changes a row's bits for a row-wise
//! backend — so every request's token stream is **bit-identical** to
//! its solo [`Transformer::generate`] run at every worker count,
//! policy, batch width, pool size, and eviction schedule. Prefix
//! sharing and decode batching silently disable themselves for
//! non-row-wise backends (dynamic whole-batch quantization), where
//! batch composition would legitimately perturb last bits.
//!
//! # Failure containment
//!
//! Serving is a *service*, so one request's failure is never the run's
//! failure. The combined graph executes on `llmnpu-sched`'s
//! fault-contained executor (`execute_lane_graph`): a panic or error in
//! one request's stage closure fails only that request's chain, a
//! dispatch gate skips tasks whose request was cancelled
//! ([`CancelToken`]) or is past its [`GenerationRequest::deadline_ms`],
//! and the Admit / Evicted / Release tasks are containment *barriers*
//! that run on every path — which is how the zero-leak page invariant
//! holds under failure, not just success. Every request ends in exactly
//! one [`RequestStatus`]; transient failures are retried with bounded
//! exponential backoff (a fresh round reusing the eviction-requeue
//! machinery — the retry re-streams from step 0 with the same seeded
//! sampler, so a surviving retry is still bit-identical to the solo
//! run). Deterministic fault injection for all of this lives in
//! [`crate::faults`].
//!
//! [`LaneGraph`]: llmnpu_sched::LaneGraph
//! [`Sampler`]: llmnpu_model::sample::Sampler
//! [`Transformer::generate`]: llmnpu_model::forward::Transformer::generate

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use llmnpu_graph::chunk::ChunkPlan;
use llmnpu_graph::dag::{build_prefill_dag, PrefillDag, TaskRole};
use llmnpu_graph::layer::Stage;
use llmnpu_kv::{
    BlockPool, CachedBlock, CachedPrefix, PoolConfig, PrefixCache, PrefixCacheMetrics,
};
use llmnpu_model::forward::{PagedDecodeEntry, Transformer};
use llmnpu_model::kv::PagedKvCache;
use llmnpu_model::sample::{Sampler, SamplerConfig};
use llmnpu_obs::metrics::LATENCY_BUCKETS_MS;
use llmnpu_obs::{EventKind, MetricsSnapshot, Observability, Plane, TraceSink, TraceSpan};
use llmnpu_sched::{
    execute_lane_graph, GateFn, LaneGraph, LaneTask, PrefillProgram, TaskFn, TaskOutcome,
};
use llmnpu_soc::memory::MemoryModel;
use llmnpu_soc::{Millis, Processor};
use llmnpu_tensor::Tensor;

use crate::decode::DecodeSim;
use crate::engine::LlmNpuEngine;
use crate::faults::{FaultMode, FaultPlan, FaultSite};
use crate::{Error, Result};

/// Modeled duration of bookkeeping tasks (admission, cache assembly,
/// eviction, release — not GEMMs; only used for scheduling priority).
const FINISH_TASK_MS: f64 = 0.05;

/// Fixed buckets for ratio-valued histograms (prefix-cache hit ratio).
const RATIO_BUCKETS: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];

/// Short span-class tag used by the trace exports.
fn kind_class(kind: &ServeTaskKind) -> &'static str {
    match kind {
        ServeTaskKind::Admit => "admit",
        ServeTaskKind::PrefillStage { .. } => "prefill",
        ServeTaskKind::PrefillFinish => "prefill-finish",
        ServeTaskKind::Evicted => "evict",
        ServeTaskKind::Decode { .. } | ServeTaskKind::DecodeBatch { .. } => "decode",
        ServeTaskKind::Release => "release",
    }
}

/// Slack for dispatch-time deadline comparisons (mirrors the executor's
/// release-time epsilon).
const DEADLINE_EPS: f64 = 1e-9;

/// Locks a serving-plane mutex, recovering from poisoning: every guarded
/// value here (generation state, KV-cache slots, terminal-status cells)
/// is plain per-request data whose chain is already poisoned at the task
/// level when its holder panics — recovery contains the failure to that
/// request instead of spreading it to every neighbor sharing the run.
fn plain_lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A shared cancellation handle for one request's stream.
///
/// Cloning shares the flag: keep a clone (via
/// [`GenerationRequest::cancel_handle`]) and flip it from anywhere — an
/// `on_token` sink after enough tokens, a timeout thread, a caller-side
/// disconnect. The serving gate observes it at every dispatch decision:
/// the request's remaining tasks are skipped (never run), its pages are
/// released by the barrier Release task, and its outcome reports
/// [`RequestStatus::Cancelled`]. Cancelling after the stream already
/// finished is a no-op (the request stays `Completed`).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation (idempotent, takes effect at the next
    /// dispatch decision touching the request).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Terminal outcome of one served request — every request ends in
/// exactly one of these, and KV pages are released on *all* of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestStatus {
    /// The full stream was generated (bit-identical to the solo run).
    Completed,
    /// A task of the request panicked or errored and no retry budget was
    /// configured (`max_retries == 0`).
    Failed {
        /// The failing task's error (panic payloads are stringified).
        error: String,
    },
    /// The request's [`CancelToken`] fired before the stream finished.
    Cancelled,
    /// The request blew its [`GenerationRequest::deadline_ms`] (or its
    /// TTFT deadline before producing a first token).
    DeadlineExceeded,
    /// The request failed, was retried `max_retries` times with backoff,
    /// and every attempt failed.
    RetriesExhausted {
        /// The last attempt's error.
        error: String,
    },
}

impl RequestStatus {
    /// Whether the stream completed fully.
    #[must_use]
    pub fn is_completed(&self) -> bool {
        matches!(self, RequestStatus::Completed)
    }

    /// The failure message, if this is a failing status.
    #[must_use]
    pub fn error(&self) -> Option<&str> {
        match self {
            RequestStatus::Failed { error } | RequestStatus::RetriesExhausted { error } => {
                Some(error)
            }
            _ => None,
        }
    }
}

/// One queued generation request.
#[derive(Debug, Clone)]
pub struct GenerationRequest {
    /// Prompt token ids (must be non-empty).
    pub prompt: Vec<u32>,
    /// Number of tokens to generate (must be at least 1).
    pub max_new_tokens: usize,
    /// Sampling strategy and seed for this request's stream.
    pub sampler: SamplerConfig,
    /// Arrival time, ms from the start of the serving run. Tasks of this
    /// request are not dispatched earlier.
    pub arrival_ms: Millis,
    /// Completion deadline, ms *from the request's arrival* (re-armed on
    /// retry attempts). Once the modeled clock passes it, remaining tasks
    /// are skipped and the request reports
    /// [`RequestStatus::DeadlineExceeded`]. `None` = no deadline.
    pub deadline_ms: Option<Millis>,
    /// Time-to-first-token deadline, ms from arrival: enforced only
    /// until the first token is out (a request that already streamed a
    /// token cannot TTFT-expire). `None` = no TTFT deadline.
    pub ttft_deadline_ms: Option<Millis>,
    /// The request's cancellation flag (shared with every clone).
    pub cancel: CancelToken,
}

impl GenerationRequest {
    /// A greedy request arriving at time zero.
    #[must_use]
    pub fn new(prompt: Vec<u32>, max_new_tokens: usize) -> Self {
        GenerationRequest {
            prompt,
            max_new_tokens,
            sampler: SamplerConfig::greedy(),
            arrival_ms: 0.0,
            deadline_ms: None,
            ttft_deadline_ms: None,
            cancel: CancelToken::new(),
        }
    }

    /// The deterministic synthetic request used by the serving demo and
    /// the `BENCH_kernels.json` serving section — one definition so the
    /// two workloads cannot drift apart: prompt token `k` is
    /// `(k·7 + index) % vocab`, sampled top-k(8) at temperature 0.9 with
    /// seed `42 + index`.
    #[must_use]
    pub fn synthetic(index: usize, prompt_len: usize, max_new_tokens: usize, vocab: usize) -> Self {
        let prompt: Vec<u32> = (0..prompt_len as u32)
            .map(|k| (k * 7 + index as u32) % vocab.max(1) as u32)
            .collect();
        GenerationRequest::new(prompt, max_new_tokens).with_sampler(SamplerConfig::top_k(
            8,
            0.9,
            42 + index as u64,
        ))
    }

    /// Sets the sampling configuration.
    #[must_use]
    pub fn with_sampler(mut self, sampler: SamplerConfig) -> Self {
        self.sampler = sampler;
        self
    }

    /// Sets the arrival time (ms from run start).
    #[must_use]
    pub fn with_arrival_ms(mut self, arrival_ms: Millis) -> Self {
        self.arrival_ms = arrival_ms;
        self
    }

    /// Sets the completion deadline (ms from arrival).
    #[must_use]
    pub fn with_deadline_ms(mut self, deadline_ms: Millis) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Sets the time-to-first-token deadline (ms from arrival).
    #[must_use]
    pub fn with_ttft_deadline_ms(mut self, ttft_deadline_ms: Millis) -> Self {
        self.ttft_deadline_ms = Some(ttft_deadline_ms);
        self
    }

    /// A handle that cancels this request when fired (usable from an
    /// `on_token` sink, another thread, or after `serve` was entered).
    #[must_use]
    pub fn cancel_handle(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Worst-case token footprint: prompt plus full decode budget.
    #[must_use]
    pub fn total_tokens(&self) -> usize {
        self.prompt.len() + self.max_new_tokens
    }
}

/// What to do when a request's page budget does not fit the free pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PressurePolicy {
    /// Queue behind the earliest active request until pages free.
    Wait,
    /// Preempt: evict the **youngest** active request (its pages free
    /// immediately, its work is discarded and recomputed after the
    /// preemptor admits). Re-admissions never evict in turn, so
    /// planning always terminates.
    #[default]
    EvictYoungest,
}

/// One token becoming available on a stream, delivered to
/// [`ServeOptions::on_token`] while the batch is still running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenEvent {
    /// Request index (admission order).
    pub request: usize,
    /// Zero-based position in the request's stream.
    pub step: usize,
    /// The sampled token.
    pub token: u32,
}

/// A streaming token callback: invoked from decode tasks as they
/// complete, strictly in stream order *per request* (cross-request
/// interleaving follows the schedule). Must be cheap and non-blocking —
/// it runs on the execution lanes.
pub type TokenSink = Arc<dyn Fn(&TokenEvent) + Send + Sync>;

/// Serving-loop knobs.
#[derive(Clone)]
pub struct ServeOptions {
    /// Maximum number of requests in flight at once (continuous
    /// batching's concurrency cap, layered *on top of* the page-based
    /// admission): request `r` additionally waits for an active slot.
    pub max_active: usize,
    /// Token positions per KV page (the pool's block size).
    pub block_tokens: usize,
    /// Total pool pages. `None` sizes the pool to fit every request's
    /// worst case concurrently (no memory pressure — the compatibility
    /// default); `Some(n)` makes admission a real memory model and can
    /// trigger waiting or eviction.
    pub kv_pool_blocks: Option<usize>,
    /// What to do under memory pressure.
    pub pressure: PressurePolicy,
    /// Maximum decode cohort width B: same-position decode steps of up
    /// to B concurrently admitted requests run as one `m = B` batched
    /// GEMM per linear site. `1` keeps each request's steps separate
    /// GEMVs. Ignored (treated as 1) for non-row-wise backends.
    pub decode_batch: usize,
    /// Share common prompt prefixes through the global prefix cache:
    /// every prefill publishes its full prompt pages, and a later
    /// request — in the same planning round or any later one — whose
    /// prompt starts with them allocates and prefills them once,
    /// ref-counting the pages (any prefix length: full pages ref-shared,
    /// the sub-page tail row-copied). Ignored for non-row-wise backends.
    pub share_prefixes: bool,
    /// Streaming token callback, if any.
    pub on_token: Option<TokenSink>,
    /// How many times a *failed* request (panic or task error) is
    /// requeued into a fresh round before giving up with
    /// [`RequestStatus::RetriesExhausted`]. Cancelled and
    /// deadline-expired requests never retry. Each retry re-streams from
    /// step 0 with the request's seeded sampler, so a surviving retry is
    /// still bit-identical to the solo run (the sink sees the stream
    /// restart).
    pub max_retries: usize,
    /// Base backoff before a retry round, ms: attempt `k`'s round admits
    /// the request at `retry_backoff_ms · 2^(k-1)` on the round's clock.
    pub retry_backoff_ms: Millis,
    /// Deterministic fault-injection script ([`crate::faults`]); `None`
    /// injects nothing.
    pub faults: Option<FaultPlan>,
    /// Observability stack ([`llmnpu_obs`]): the trace sink, metrics
    /// registry, and kernel-calibration table serving should report
    /// into, shared with the caller by `Arc`. `None` skips all
    /// instrumentation (the near-zero-cost default).
    pub obs: Option<Observability>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_active: 2,
            block_tokens: 16,
            kv_pool_blocks: None,
            pressure: PressurePolicy::default(),
            decode_batch: 1,
            share_prefixes: true,
            on_token: None,
            max_retries: 2,
            retry_backoff_ms: 4.0,
            faults: None,
            obs: None,
        }
    }
}

impl fmt::Debug for ServeOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeOptions")
            .field("max_active", &self.max_active)
            .field("block_tokens", &self.block_tokens)
            .field("kv_pool_blocks", &self.kv_pool_blocks)
            .field("pressure", &self.pressure)
            .field("decode_batch", &self.decode_batch)
            .field("share_prefixes", &self.share_prefixes)
            .field("on_token", &self.on_token.as_ref().map(|_| "Fn"))
            .field("max_retries", &self.max_retries)
            .field("retry_backoff_ms", &self.retry_backoff_ms)
            .field("faults", &self.faults)
            .field("obs", &self.obs.as_ref().map(|_| "Observability"))
            .finish()
    }
}

/// What a serving-timeline span implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeTaskKind {
    /// Page reservation (on top of any reused prefix) at admission.
    Admit,
    /// One stage task of the request's chunked-prefill DAG.
    PrefillStage {
        /// Chunk index within the request's (unshared) prompt suffix.
        chunk: usize,
        /// Decoder layer.
        layer: usize,
        /// Host stage.
        stage: Stage,
        /// Pipeline role (main / shadow / merge).
        role: TaskRole,
    },
    /// Last-hidden assembly after the request's prefill (KV already
    /// lives in the pool).
    PrefillFinish,
    /// Memory-pressure preemption: this incarnation's pages return to
    /// the pool and its prefill work is discarded (a later incarnation
    /// recomputes it).
    Evicted,
    /// One decode step of a single request (cohort width 1).
    Decode {
        /// Zero-based position in the request's generated stream.
        step: usize,
    },
    /// One **batched** decode step: `width` requests' same-position
    /// steps stacked into one `m = width` GEMM per linear site.
    DecodeBatch {
        /// Zero-based stream position for every member.
        step: usize,
        /// Cohort members still decoding at this step.
        width: usize,
    },
    /// Pages returned to the pool after the request's last token.
    Release,
}

impl ServeTaskKind {
    /// Whether this span belongs to the prefill phase.
    #[must_use]
    pub fn is_prefill(&self) -> bool {
        matches!(
            self,
            ServeTaskKind::PrefillStage { .. } | ServeTaskKind::PrefillFinish
        )
    }

    /// Whether this span is a decode step (batched or not).
    #[must_use]
    pub fn is_decode(&self) -> bool {
        matches!(
            self,
            ServeTaskKind::Decode { .. } | ServeTaskKind::DecodeBatch { .. }
        )
    }
}

/// One executed span of the batched run, with wall-clock timestamps
/// relative to run start (milliseconds).
#[derive(Debug, Clone)]
pub struct ServeSpan {
    /// Request index (admission order). For a batched decode span, the
    /// first cohort member.
    pub request: usize,
    /// Which incarnation of the request this span belongs to (0 unless
    /// the request was evicted and recomputed).
    pub attempt: usize,
    /// Task label, e.g. `"R1-C0-L2-Ffn"`, `"R1-D3"`, or `"C0-D2"`.
    pub label: String,
    /// What the span implements.
    pub kind: ServeTaskKind,
    /// Lane the task ran on.
    pub processor: Processor,
    /// Wall-clock start, ms from run start.
    pub start_ms: f64,
    /// Wall-clock end, ms from run start.
    pub end_ms: f64,
    /// The task's plan-time modeled duration (the latency model's
    /// figure, before any scheduling), ms.
    pub modeled_ms: f64,
}

/// The unified executed timeline of a batched serving run: every
/// request's admission, prefill stages, decode steps, evictions, and
/// releases on one clock.
#[derive(Debug, Clone, Default)]
pub struct ServeTimeline {
    spans: Vec<ServeSpan>,
}

impl ServeTimeline {
    /// All spans, in completion order.
    #[must_use]
    pub fn entries(&self) -> &[ServeSpan] {
        &self.spans
    }

    /// Wall-clock completion of the last task (ms from run start).
    #[must_use]
    pub fn makespan_ms(&self) -> f64 {
        self.spans.iter().map(|s| s.end_ms).fold(0.0, f64::max)
    }

    /// Total busy time of one lane.
    #[must_use]
    pub fn lane_busy_ms(&self, p: Processor) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.processor == p)
            .map(|s| s.end_ms - s.start_ms)
            .sum()
    }

    /// Spans of one request, in completion order.
    #[must_use]
    pub fn request_entries(&self, request: usize) -> Vec<&ServeSpan> {
        self.spans.iter().filter(|s| s.request == request).collect()
    }

    /// The continuous-batching witness: some decode step of one request
    /// ran *inside* another request's prefill window (between that
    /// request's first prefill dispatch and its last prefill
    /// completion). True wall-clock overlap implies it on multicore
    /// hosts; on a single core it still witnesses task-granular
    /// interleaving — decode work was dispatched before a neighbor's
    /// prefill had drained, which is impossible under one-request-at-a-
    /// time serving.
    #[must_use]
    pub fn decode_interleaved_with_prefill(&self) -> bool {
        let mut windows: std::collections::HashMap<usize, (f64, f64)> =
            std::collections::HashMap::new();
        for s in &self.spans {
            if s.kind.is_prefill() {
                let w = windows
                    .entry(s.request)
                    .or_insert((f64::INFINITY, f64::NEG_INFINITY));
                w.0 = w.0.min(s.start_ms);
                w.1 = w.1.max(s.end_ms);
            }
        }
        self.spans.iter().any(|d| {
            d.kind.is_decode()
                && windows
                    .iter()
                    .any(|(&r, &(lo, hi))| r != d.request && d.start_ms < hi && d.end_ms > lo)
        })
    }

    /// The preemption witness: `request` was evicted and later ran
    /// prefill work again under a higher attempt number.
    #[must_use]
    pub fn evicted_and_recomputed(&self, request: usize) -> bool {
        let evicted = self
            .spans
            .iter()
            .any(|s| s.request == request && s.kind == ServeTaskKind::Evicted);
        let recomputed = self.spans.iter().any(|s| {
            s.request == request
                && s.attempt > 0
                && matches!(s.kind, ServeTaskKind::PrefillStage { .. })
        });
        evicted && recomputed
    }
}

/// Per-request outcome of a serving run.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// Request index (admission order).
    pub request: usize,
    /// The generated token stream. Complete only for
    /// [`RequestStatus::Completed`]; other statuses keep whatever prefix
    /// of the stream was emitted before the request terminated.
    pub tokens: Vec<u32>,
    /// Wall-clock completion time of each generated token (ms from run
    /// start, one entry per token — the "stream").
    pub token_times_ms: Vec<f64>,
    /// The request's arrival time.
    pub arrival_ms: f64,
    /// First dispatch of any of the request's tasks (any incarnation;
    /// the arrival time if nothing ever dispatched).
    pub first_dispatch_ms: f64,
    /// Completion of the request's (final) prefill — KV pages ready.
    /// `0.0` if the request terminated before finishing prefill.
    pub prefill_done_ms: f64,
    /// Completion of the request's last decode step (`0.0` if none ran).
    pub finish_ms: f64,
    /// Incarnations this request ran, counting both memory-pressure
    /// evictions and failure retries (1 = one clean pass).
    pub attempts: usize,
    /// How the request terminated.
    pub status: RequestStatus,
}

impl RequestOutcome {
    /// Time spent queued before the scheduler first touched the request.
    #[must_use]
    pub fn queue_wait_ms(&self) -> f64 {
        self.first_dispatch_ms - self.arrival_ms
    }

    /// Time-to-first-token: arrival until the first generated token.
    #[must_use]
    pub fn ttft_ms(&self) -> f64 {
        self.token_times_ms.first().map_or(0.0, |&t| t) - self.arrival_ms
    }

    /// Decode throughput over the request's own decode window.
    #[must_use]
    pub fn decode_tokens_per_s(&self) -> f64 {
        let window = self.finish_ms - self.prefill_done_ms;
        if window > 0.0 {
            self.tokens.len() as f64 / (window / 1e3)
        } else {
            0.0
        }
    }
}

/// Paged-KV accounting for one serving run.
#[derive(Debug, Clone, Copy)]
pub struct KvPoolReport {
    /// Token positions per page.
    pub block_tokens: usize,
    /// Total pool pages.
    pub pool_blocks: usize,
    /// Total pool bytes (all layers, K+V, f32).
    pub pool_bytes: u64,
    /// High-water mark of pages in use during the run.
    pub peak_used_blocks: usize,
    /// Pages still referenced after every request released — **must be
    /// zero**; pinned by the serving tests.
    pub leaked_blocks: usize,
    /// Memory-pressure evictions (preempted incarnations).
    pub evictions: usize,
    /// Full pages reused from a producer admitted in the *same* round
    /// (pages still pending when the reader was planned) instead of
    /// re-allocated — sum over admissions. The same-round part of
    /// `prefix_cache_hit_blocks`, which also counts pages cached by
    /// earlier rounds.
    pub shared_prefix_blocks: usize,
    /// Copy-on-write page copies the pool performed.
    pub cow_copies: u64,
    /// Global prefix-cache lookups that matched at least one token,
    /// same-round (pending) matches included (this run's share of the
    /// session cache's counters).
    pub prefix_cache_hits: u64,
    /// Prefix-cache lookups that matched nothing.
    pub prefix_cache_misses: u64,
    /// Prompt tokens served from the prefix cache (full pages plus
    /// row-copied tails) instead of being re-prefilled.
    pub prefix_cache_hit_tokens: u64,
    /// Pool pages reused from the prefix cache instead of re-allocated.
    pub prefix_cache_hit_blocks: u64,
    /// Pages newly retained by prefix-cache inserts at prefill
    /// completion.
    pub prefix_cache_inserted_blocks: u64,
    /// Cached-prefix pages evicted under pool pressure: by the planner,
    /// or by the admission that reclaimed a same-round producer's pages.
    pub prefix_cache_evictions: u64,
    /// Pages still resident in the prefix cache when this report was
    /// taken (zero for transient [`LlmNpuEngine::serve`] runs, which
    /// flush; a live [`ServeSession`] keeps them for the next batch).
    pub prefix_cache_resident_blocks: usize,
}

/// Aggregate outcome of one batched serving run.
#[derive(Debug)]
pub struct ServeReport {
    /// Per-request outcomes, in admission order.
    pub requests: Vec<RequestOutcome>,
    /// The unified executed timeline.
    pub timeline: ServeTimeline,
    /// Paged-KV pool accounting.
    pub kv: KvPoolReport,
    /// Static-verification proof sizes, one entry per retry round: every
    /// round's spliced plan was proven clean by `llmnpu-verify` before a
    /// single task ran (a finding aborts the run with
    /// [`Error::PlanRejected`] instead).
    pub verification: Vec<llmnpu_verify::PlanStats>,
    /// Queue depth over time: `(time_ms, depth)` step points, where
    /// depth counts requests that have arrived but not yet reached a
    /// terminal status. Derived from the outcomes and the timeline, so
    /// it is exactly reproducible run to run.
    pub queue_depth: Vec<(f64, usize)>,
    /// Snapshot of the attached metrics registry taken as the report
    /// was assembled (empty when [`ServeOptions::obs`] was `None`).
    /// With a session registry this is cumulative across batches — the
    /// single source report renderers should read counters from.
    pub metrics: MetricsSnapshot,
}

impl ServeReport {
    /// Wall-clock makespan of the whole batch.
    #[must_use]
    pub fn makespan_ms(&self) -> f64 {
        self.timeline.makespan_ms()
    }

    /// Total generated tokens across all requests.
    #[must_use]
    pub fn total_tokens(&self) -> usize {
        self.requests.iter().map(|r| r.tokens.len()).sum()
    }

    /// Aggregate generation throughput (all requests' tokens over the
    /// batch makespan).
    #[must_use]
    pub fn tokens_per_s(&self) -> f64 {
        let ms = self.makespan_ms();
        if ms > 0.0 {
            self.total_tokens() as f64 / (ms / 1e3)
        } else {
            0.0
        }
    }

    /// Mean time-to-first-token across requests.
    #[must_use]
    pub fn mean_ttft_ms(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        self.requests
            .iter()
            .map(RequestOutcome::ttft_ms)
            .sum::<f64>()
            / self.requests.len() as f64
    }

    /// Mean queue wait across requests.
    #[must_use]
    pub fn mean_queue_wait_ms(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        self.requests
            .iter()
            .map(RequestOutcome::queue_wait_ms)
            .sum::<f64>()
            / self.requests.len() as f64
    }

    /// Maximum simultaneous in-flight requests over the run (the peak
    /// of [`ServeReport::queue_depth`]).
    #[must_use]
    pub fn peak_queue_depth(&self) -> usize {
        self.queue_depth.iter().map(|&(_, d)| d).max().unwrap_or(0)
    }
}

/// The queue-depth-over-time series for a set of resolved requests: +1
/// at each arrival, −1 when the request reaches its terminal (its last
/// executed span, or its finish time if later; its arrival if nothing
/// ever ran). Simultaneous events coalesce into one step point, with
/// departures applied before arrivals at equal timestamps.
fn queue_depth_series(outcomes: &[RequestOutcome], timeline: &ServeTimeline) -> Vec<(f64, usize)> {
    let mut last_span: HashMap<usize, f64> = HashMap::new();
    for s in timeline.entries() {
        let e = last_span.entry(s.request).or_insert(f64::NEG_INFINITY);
        *e = e.max(s.end_ms);
    }
    let mut events: Vec<(f64, i64)> = Vec::with_capacity(outcomes.len() * 2);
    for o in outcomes {
        let done = last_span
            .get(&o.request)
            .copied()
            .unwrap_or(f64::NEG_INFINITY)
            .max(o.finish_ms)
            .max(o.arrival_ms);
        events.push((o.arrival_ms, 1));
        events.push((done, -1));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut series: Vec<(f64, usize)> = Vec::new();
    let mut depth: i64 = 0;
    for (t, delta) in events {
        depth += delta;
        let d = depth.max(0) as usize;
        match series.last_mut() {
            Some(last) if last.0 == t => last.1 = d,
            _ => series.push((t, d)),
        }
    }
    series
}

/// A persistent serving context: one paged KV pool plus one global
/// radix prefix cache, shared by every batch served through
/// [`LlmNpuEngine::serve_with_session`]. Prompt prefixes prefilled by an
/// earlier batch stay resident (ref-held by the cache) and are adopted
/// by later requests with matching prompts, with no submit-time
/// declaration. Dropping the session drops the
/// pool slab; call [`ServeSession::flush`] first to assert emptiness.
#[derive(Debug)]
pub struct ServeSession {
    pool: Arc<BlockPool>,
    cache: PrefixCache,
    obs: Option<Observability>,
}

impl ServeSession {
    /// Pages currently held by the global prefix cache.
    #[must_use]
    pub fn cached_blocks(&self) -> usize {
        self.cache.held_blocks()
    }

    /// The observability stack attached when the session was opened
    /// ([`ServeOptions::obs`]), if any.
    #[must_use]
    pub fn observability(&self) -> Option<&Observability> {
        self.obs.as_ref()
    }

    /// Point-in-time snapshot of the session's metrics registry,
    /// cumulative over every batch served so far (empty when no
    /// observability is attached).
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.obs
            .as_ref()
            .map(|o| o.registry.snapshot())
            .unwrap_or_default()
    }

    /// Cumulative prefix-cache counters over the session's lifetime.
    #[must_use]
    pub fn cache_metrics(&self) -> PrefixCacheMetrics {
        self.cache.metrics()
    }

    /// The session pool's page statistics (size, usage, watermarks).
    #[must_use]
    pub fn pool_stats(&self) -> llmnpu_kv::PoolStats {
        self.pool.stats()
    }

    /// Drops every cached prefix and returns its pages to the pool,
    /// then proves the pool is completely empty — the session-wide
    /// zero-leak check.
    ///
    /// # Errors
    ///
    /// Returns an error if releasing cached pages fails or if pages
    /// remain in use after the flush (a leak).
    pub fn flush(&self) -> Result<usize> {
        let freed = self.cache.flush(&self.pool).map_err(kv_err)?;
        let used = self.pool.used_blocks();
        if used != 0 {
            return Err(Error::InvalidConfig {
                what: format!("{used} KV pages leaked after session flush"),
            });
        }
        Ok(freed)
    }
}

// ---------------------------------------------------------------------------
// The deterministic admission planner
// ---------------------------------------------------------------------------

/// How an admission gate anchors to an earlier segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GateKind {
    /// Wait for the segment to be fully done (its pages released):
    /// anchored at its Release task — or its Evicted task, which *is*
    /// the terminal of a preempted incarnation.
    Done,
    /// Wait for the segment's prefill to finish (its prompt pages are
    /// written and published to the prefix cache — what a reader of its
    /// pending pages needs).
    PrefillDone,
}

/// One planned incarnation of a request.
#[derive(Debug)]
struct SegmentPlan {
    req: usize,
    attempt: usize,
    /// Preempted: ends in an Evicted task after prefill; no decode.
    evicted: bool,
    /// Admission gates on earlier segments.
    gates: Vec<(usize, GateKind)>,
    /// Prefix-cache hit reused at admission: its full pages are
    /// retained into the request's table, the partial tail (if any)
    /// row-copied. Pages still pending at plan time belong to earlier
    /// segments of this round, which `gates` waits on (`PrefillDone`).
    hit: Option<CachedPrefix>,
    /// Decode cohort id (`usize::MAX` for evicted segments).
    cohort: usize,
    /// Fresh pages reserved at admission (beyond whole reused pages).
    fresh: usize,
    /// Full prompt pages this segment's prefill leaves resident in the
    /// global prefix cache past its release — the pages it promised as
    /// pending nodes; zeroed if it is preempted or its promise is
    /// withdrawn (the pages then return to the pool at its release).
    retained: usize,
    /// Released in the plan (left the active set): its fresh pages,
    /// minus `retained`, are back in the planner's free count.
    released: bool,
    /// Later admissions whose hit reads this segment's pending pages.
    readers: Vec<usize>,
    /// A later admission takes `retained` back (see `reclaims`).
    reclaimed: bool,
    /// Released segments whose retained pages — read by released
    /// readers — this admission evicts from the cache before it
    /// reserves, once they and their readers are done (`gates`).
    reclaims: Vec<usize>,
}

impl SegmentPlan {
    /// Prompt tokens covered by the reused prefix, including a
    /// row-copied partial tail — where this segment's own prefill
    /// starts.
    fn prefix_tokens(&self) -> usize {
        self.hit.as_ref().map_or(0, CachedPrefix::matched_tokens)
    }

    /// Prefix tokens covered by *whole* reused pages (the part that
    /// costs no fresh blocks; the tail rows live in a fresh page).
    fn prefix_full_tokens(&self) -> usize {
        self.hit.as_ref().map_or(0, |hit| hit.tokens)
    }

    /// Full pages reused from each same-round producer: `(producer,
    /// pages)`, ascending by producer.
    fn reused_pages(&self) -> Vec<(usize, usize)> {
        let mut pages: BTreeMap<usize, usize> = BTreeMap::new();
        for block in self.hit.iter().flat_map(|hit| &hit.blocks) {
            if let CachedBlock::Pending(p) = *block {
                *pages.entry(p).or_default() += 1;
            }
        }
        pages.into_iter().collect()
    }
}

struct Planner<'r> {
    requests: &'r [GenerationRequest],
    pool_cfg: PoolConfig,
    /// The live pool: cached-prefix evictions under planning pressure
    /// release pages physically, before any task executes.
    pool: &'r BlockPool,
    /// The session's global prefix cache. Lookups happen lazily inside
    /// [`Planner::admit`], in admission order, so claim stamps accrue
    /// exactly as the plan consumes hits, unclaimed entries stay
    /// evictable for later admissions, and each admission's own
    /// pending pages are visible to the ones after it.
    cache: &'r PrefixCache,
    max_active: usize,
    pressure: PressurePolicy,
    share: bool,
    /// Original request ids of the round's members (event attribution).
    orig_ids: &'r [usize],
    /// Plan-plane event sink, when observability is attached.
    sink: Option<&'r TraceSink>,
    segments: Vec<SegmentPlan>,
    /// Active segments in admission order.
    active: Vec<usize>,
    /// Latest planned segment of each request — a re-admission must
    /// gate on its evicted predecessor (they share the runtime cache
    /// slot, so the old incarnation's release must precede the new
    /// reservation).
    last_seg_of_req: Vec<Option<usize>>,
    free: usize,
}

impl<'r> Planner<'r> {
    /// Releases an active segment's planned pages: its fresh pages
    /// return to `free`, minus what it retains in the prefix cache.
    fn release_plan(&mut self, seg: usize) {
        let s = &mut self.segments[seg];
        s.released = true;
        self.free += s.fresh - s.retained;
    }

    /// Emits a Plan-plane pressure-ladder event for request `req`.
    /// Planning is single-threaded, so these events are recorded in a
    /// deterministic order and belong to the canonical modeled export.
    fn trace_pressure(&self, req: usize, f: impl FnOnce() -> String) {
        if let Some(sink) = self.sink {
            sink.event(
                Plane::Plan,
                EventKind::Pressure,
                Some(self.orig_ids[req]),
                f,
            );
        }
    }

    /// Plans the admission of one incarnation, returning its segment id.
    fn admit(
        &mut self,
        req: usize,
        attempt: usize,
        pending: &mut VecDeque<(usize, usize)>,
    ) -> Result<usize> {
        // Prefix-cache probe, capped so at least one suffix token
        // remains to prefill. The lookup stamps the matched nodes with
        // the current round — an eviction claim that keeps the hit
        // resident until this admission physically retains it. Pending
        // pages of earlier segments this round match like cached ones.
        let prompt = &self.requests[req].prompt;
        let hit = if self.share && prompt.len() > 1 {
            Some(self.cache.lookup(&prompt[..prompt.len() - 1]))
                .filter(|hit| hit.matched_tokens() > 0)
        } else {
            None
        };
        let producers = hit.as_ref().map_or_else(Vec::new, CachedPrefix::producers);
        let need = self
            .pool_cfg
            .blocks_for(self.requests[req].total_tokens() - hit.as_ref().map_or(0, |h| h.tokens));
        let mut gates: Vec<(usize, GateKind)> = Vec::new();
        let mut reclaims: Vec<usize> = Vec::new();
        if let Some(prev) = self.last_seg_of_req[req] {
            gates.push((prev, GateKind::Done));
        }
        loop {
            if self.active.len() < self.max_active && need <= self.free {
                break;
            }
            if self.active.len() >= self.max_active {
                // Concurrency cap: wait for the earliest active request
                // (continuous batching's "a slot frees, the next joins").
                let seg = self.active.remove(0);
                self.release_plan(seg);
                gates.push((seg, GateKind::Done));
                continue;
            }
            // Memory pressure, stage 1: evict cold cached prefixes —
            // they are reuse opportunities, not admitted work, so they
            // always go before a live request is preempted. The pages
            // free physically right now (planning precedes execution),
            // so the round's budget proof sees them. Claimed (this
            // round) and mid-reuse entries are refused, so a hit relied
            // on above cannot be pulled out from under its admission.
            let evicted = self
                .cache
                .evict_lru(self.pool, need - self.free)
                .map_err(kv_err)?;
            if evicted > 0 {
                self.trace_pressure(req, || format!("stage 1: {evicted} cached page(s) evicted"));
                self.free += evicted;
                continue;
            }
            // Memory pressure, stage 2: take back full prompt pages that
            // earlier admissions of *this* round plan to leave in the
            // cache, where the owner is already released and this
            // admission does not read them. A promise nobody reads is
            // withdrawn: the owner never publishes the pages and they
            // return to the pool at its release. A promise with readers
            // is taken back only as the last resort, once nothing is
            // active (so its readers are released too): it is closed to
            // later lookups, the owner still publishes for its readers,
            // and this admission evicts the pages — with the readers'
            // own retained pages below them — once all of them are
            // done. The Done gates order both.
            let mut reclaimed = 0usize;
            for g in 0..self.segments.len() {
                if self.free + reclaimed >= need {
                    break;
                }
                let s = &self.segments[g];
                if !s.released || s.retained == 0 || s.reclaimed || producers.contains(&g) {
                    continue;
                }
                if s.readers.is_empty() {
                    reclaimed += s.retained;
                    self.segments[g].retained = 0;
                    self.cache.drop_pending(g);
                    gates.push((g, GateKind::Done));
                } else if self.active.is_empty() {
                    let readers = s.readers.clone();
                    for m in std::iter::once(g).chain(readers) {
                        let s = &mut self.segments[m];
                        if s.retained > 0 && !s.reclaimed {
                            s.reclaimed = true;
                            reclaimed += s.retained;
                            reclaims.push(m);
                        }
                        gates.push((m, GateKind::Done));
                    }
                    self.cache.close_pending(g);
                }
            }
            if reclaimed > 0 {
                self.trace_pressure(req, || {
                    format!("stage 2: {reclaimed} retained page(s) reclaimed")
                });
                self.free += reclaimed;
                continue;
            }
            // Memory pressure, stage 3: preempt the youngest active
            // segment nobody (planned, or this admission) reads pages
            // from: a producer's pages must be published for its readers.
            if self.pressure == PressurePolicy::EvictYoungest && attempt == 0 {
                let victim = self
                    .active
                    .iter()
                    .rposition(|&s| self.segments[s].readers.is_empty() && !producers.contains(&s));
                if let Some(i) = victim {
                    let seg = self.active.remove(i);
                    let s = &mut self.segments[seg];
                    s.evicted = true;
                    s.cohort = usize::MAX;
                    // A preempted incarnation never reaches its
                    // prefill-finish insert: nothing stays resident.
                    s.retained = 0;
                    self.cache.drop_pending(seg);
                    self.release_plan(seg);
                    gates.push((seg, GateKind::Done));
                    let (vr, va) = (self.segments[seg].req, self.segments[seg].attempt);
                    self.trace_pressure(req, || {
                        format!("stage 3: R{} attempt {va} preempted", self.orig_ids[vr])
                    });
                    pending.push_front((vr, va + 1));
                    continue;
                }
            }
            // Wait for the earliest active request's pages.
            if self.active.is_empty() {
                return Err(Error::InvalidConfig {
                    what: format!(
                        "request {req} needs {need} KV pages but the pool has only {} total",
                        self.pool_cfg.blocks
                    ),
                });
            }
            let seg = self.active.remove(0);
            self.release_plan(seg);
            gates.push((seg, GateKind::Done));
        }

        let seg = self.segments.len();
        for &p in &producers {
            self.segments[p].readers.push(seg);
            gates.push((p, GateKind::PrefillDone));
        }
        gates.sort_by_key(|&(g, k)| (g, k == GateKind::PrefillDone));
        gates.dedup();
        // Promise this segment's own full prompt pages to later
        // admissions of the round.
        let retained = if self.share {
            self.cache.insert_pending(prompt, seg)
        } else {
            0
        };
        self.free -= need;
        self.segments.push(SegmentPlan {
            req,
            attempt,
            evicted: false,
            gates,
            hit,
            cohort: usize::MAX,
            fresh: need,
            retained,
            released: false,
            readers: Vec::new(),
            reclaimed: false,
            reclaims,
        });
        self.last_seg_of_req[req] = Some(seg);
        self.active.push(seg);
        if let Some(sink) = self.sink {
            let gates = self.segments[seg].gates.len();
            sink.event(
                Plane::Plan,
                EventKind::Admission,
                Some(self.orig_ids[req]),
                || format!("attempt {attempt}: {need} fresh page(s), {gates} gate(s)"),
            );
        }
        Ok(seg)
    }
}

/// Plans every admission, eviction, and decode cohort for a batch.
/// Lookups against (and pressure evictions from) the global prefix
/// cache happen here, at plan time — `pool` must be the live pool so
/// evicted cached pages free physically before any task executes.
/// Returns the segments, the cohort count, and the full pages reused
/// from same-round producers.
#[allow(clippy::too_many_arguments)] // internal plumbing of `serve`
fn plan_batch(
    requests: &[GenerationRequest],
    pool: &BlockPool,
    cache: &PrefixCache,
    max_active: usize,
    pressure: PressurePolicy,
    share: bool,
    decode_batch: usize,
    orig_ids: &[usize],
    sink: Option<&TraceSink>,
) -> Result<(Vec<SegmentPlan>, usize, usize)> {
    let pool_cfg = pool.config().clone();
    let mut planner = Planner {
        requests,
        free: pool.free_blocks(),
        pool_cfg,
        pool,
        cache,
        max_active,
        pressure,
        share,
        orig_ids,
        sink,
        segments: Vec::new(),
        active: Vec::new(),
        last_seg_of_req: vec![None; requests.len()],
    };
    let mut pending: VecDeque<(usize, usize)> = (0..requests.len()).map(|r| (r, 0)).collect();
    while let Some((req, attempt)) = pending.pop_front() {
        planner.admit(req, attempt, &mut pending)?;
    }

    // Decode cohorts: consecutive surviving segments batch together
    // until the width cap, or until a segment *fully waits* on a cohort
    // member (a Done gate inside the cohort would deadlock the step
    // barrier; PrefillDone gates — prefix reuse — are fine). A preempted
    // segment waiting on a member closes the cohort too: its gate needs
    // the member's Release, so the cohort's decode chain is built right
    // there and no later segment can join it.
    let mut cohorts = 0usize;
    let mut current: Vec<usize> = Vec::new();
    let n = planner.segments.len();
    for seg in 0..n {
        let waits_on_member = planner.segments[seg]
            .gates
            .iter()
            .any(|&(g, k)| k == GateKind::Done && current.contains(&g));
        let evicted = planner.segments[seg].evicted;
        if !current.is_empty() && (waits_on_member || (!evicted && current.len() >= decode_batch)) {
            cohorts += 1;
            current.clear();
        }
        if !evicted {
            planner.segments[seg].cohort = cohorts;
            current.push(seg);
        }
    }
    if !current.is_empty() {
        cohorts += 1;
    }

    let shared_blocks: usize = planner
        .segments
        .iter()
        .flat_map(SegmentPlan::reused_pages)
        .map(|(_, pages)| pages)
        .sum();
    Ok((planner.segments, cohorts, shared_blocks))
}

// ---------------------------------------------------------------------------
// Runtime state and graph building
// ---------------------------------------------------------------------------

/// Mutable per-request generation state, touched only by the request's
/// own (serially chained) tasks — plus the cohort decode tasks, which
/// lock every member in a fixed order.
struct ReqState {
    sampler: Sampler,
    last_hidden: Option<Tensor<f32>>,
    tokens: Vec<u32>,
}

/// Build-time record of one segment's task ids.
struct SegBuild {
    admit: usize,
    prefill_finish: usize,
    /// Final decode task of the segment (set when its cohort's decode
    /// chain is flushed; `None` for evicted segments).
    last_decode: Option<usize>,
    release: Option<usize>,
}

/// Live, per-round, per-member fault-containment state: the terminal
/// status cell (first writer wins), the emitted-token counter (TTFT
/// deadline gating), and the request's shared cancel flag.
struct ReqRuntime {
    term: Mutex<Option<RequestStatus>>,
    tokens_out: AtomicUsize,
    cancel: CancelToken,
}

/// Per-graph-task metadata for one round: the owning member (first
/// cohort member for batched decode), the *global* attempt number the
/// task belongs to, the span kind, and every member the task touches
/// (drives the dispatch gate and failure attribution).
struct TaskMeta {
    member: usize,
    attempt: usize,
    kind: ServeTaskKind,
    members: Vec<usize>,
}

/// One cohort member's identity inside a (possibly batched) decode task.
struct DecodeMember {
    /// Round-member index.
    member: usize,
    /// Prompt length (decode position offset).
    prompt_len: usize,
    /// Original request id (sink events, fault keying).
    orig: usize,
    /// Global attempt, 1-based (fault keying).
    attempt: usize,
}

/// One member's result for one retry round (round-local clock).
struct MemberRound {
    status: RequestStatus,
    tokens: Vec<u32>,
    token_times_ms: Vec<f64>,
    first_dispatch_ms: f64,
    prefill_done_ms: f64,
    finish_ms: f64,
    incarnations: usize,
}

/// One retry round's result: per-member outcomes plus the round's spans
/// (already carrying original request ids and global attempt numbers,
/// still on the round-local clock).
struct RoundOutput {
    members: Vec<MemberRound>,
    spans: Vec<ServeSpan>,
    makespan_ms: f64,
    evictions: usize,
    shared_blocks: usize,
    /// The static verifier's (clean) report for the round's spliced
    /// graph — findings would have aborted the round instead.
    verified: llmnpu_verify::Report,
}

/// Whether a round executes its graph or stops after static
/// verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RoundMode {
    /// Verify, then execute (the serving path).
    Execute,
    /// Build and verify the spliced plan, then return without running a
    /// single task (the [`LlmNpuEngine::verify_serve`] path).
    DryRun,
}

/// One retry round's members: arrival-adjusted request clones plus the
/// mapping back to original ids and already-consumed attempt counts.
struct RoundInput {
    requests: Vec<GenerationRequest>,
    orig_ids: Vec<usize>,
    attempt_base: Vec<usize>,
}

/// Wraps a single-member task closure so that any failure — error return
/// or panic — records the member's terminal status *before* the
/// executor sees it. The recorded status is what lets the dispatch gate
/// stop feeding a failed request's downstream chain and what the
/// per-member liveness filter inside batched decode keys on. Panics are
/// re-raised so the executor's unwind containment (the actual isolation
/// boundary) is exercised, not bypassed.
fn contain<'run>(rt: &'run ReqRuntime, f: TaskFn<'run>) -> TaskFn<'run> {
    Box::new(move || {
        let record = |error: String| {
            let mut term = plain_lock(&rt.term);
            if term.is_none() {
                *term = Some(RequestStatus::Failed { error });
            }
        };
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => {
                record(e.clone());
                Err(e)
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "task panicked".to_string());
                record(msg);
                std::panic::resume_unwind(payload)
            }
        }
    })
}

impl LlmNpuEngine {
    /// Serves a queue of generation requests with continuous batching on
    /// this engine's pool: per-request chunked-prefill DAGs and decode
    /// chains interleave on the per-processor lanes under the engine's
    /// scheduling policy, honoring arrival times, the admission cap,
    /// and the page budget of a shared [`BlockPool`], with prefix reuse
    /// through the prefix cache, optional preemption under memory
    /// pressure, and batched decode GEMMs.
    ///
    /// `t` is the numeric transformer the requests run on (its
    /// configuration drives the per-request DAGs, exactly as in
    /// [`LlmNpuEngine::prefill_executed`]). Returns per-request token
    /// streams — bit-identical to solo [`Transformer::generate`] runs
    /// with `chunk_len = self.config().chunk_len` — plus serving
    /// metrics, the unified timeline, and the pool accounting.
    ///
    /// Serving is **fault-contained** (see the module docs): a panic or
    /// error in one request's chain, a fired [`CancelToken`], or a blown
    /// deadline terminates *that request only* — every other stream
    /// completes bit-identical to its solo run. Failed requests are
    /// retried up to [`ServeOptions::max_retries`] times in follow-up
    /// rounds with exponential backoff; every request ends in exactly
    /// one [`RequestStatus`] in its [`RequestOutcome::status`], and the
    /// pool is page-leak-free afterwards no matter which paths failed.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty/invalid request (empty prompt, zero
    /// `max_new_tokens`, bad sampler config, non-finite or negative
    /// arrival or deadline), invalid options (zero caps or page sizes, a
    /// pool too small for some request, a pool exceeding the SoC's
    /// NPU-window budget), or a *structural* execution failure (lane
    /// setup, graph wiring, page leaks). Per-request failures do **not**
    /// surface here — they are reported per request.
    pub fn serve(
        &self,
        t: &Transformer<'_>,
        requests: &[GenerationRequest],
        opts: &ServeOptions,
    ) -> Result<ServeReport> {
        validate_inputs(requests, opts)?;
        let faults = opts.faults.clone().unwrap_or_default();
        let pool_cfg = serve_pool_config(t, requests, opts, &faults)?;
        let pool = Arc::new(BlockPool::new(pool_cfg).map_err(kv_err)?);
        // The pool is one slab in the SoC's NPU-addressable space: the
        // window (and DRAM budget) bound how much KV a device can serve.
        let mut mem = MemoryModel::new(&self.config().soc);
        mem.alloc(Processor::Npu, "paged-kv-pool", pool.bytes())?;
        // Transient run: a fresh cache, flushed (and leak-proven empty)
        // before returning.
        let cache = PrefixCache::new(opts.block_tokens);
        let report =
            self.serve_rounds(t, requests, opts, &pool, &cache, true, opts.obs.as_ref())?;
        mem.free(Processor::Npu, "paged-kv-pool");
        Ok(report)
    }

    /// Opens a persistent serving session: one paged pool plus one
    /// global prefix cache that batches served through
    /// [`LlmNpuEngine::serve_with_session`] share. The pool holds
    /// [`ServeOptions::kv_pool_blocks`] pages (required — a
    /// long-running session cannot autosize to a batch it has not seen
    /// yet) and is checked against the SoC's NPU-window budget.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid options, a missing page budget, or
    /// a pool exceeding the NPU-addressable space.
    pub fn open_serve_session(
        &self,
        t: &Transformer<'_>,
        opts: &ServeOptions,
    ) -> Result<ServeSession> {
        validate_inputs(&[], opts)?;
        let Some(blocks) = opts.kv_pool_blocks else {
            return Err(Error::InvalidConfig {
                what: "a serve session needs an explicit kv_pool_blocks page budget".to_owned(),
            });
        };
        let pool_cfg = PoolConfig {
            layers: t.config().layers,
            kv_dim: t.config().kv_dim(),
            block_tokens: opts.block_tokens,
            blocks,
        };
        let pool = Arc::new(BlockPool::new(pool_cfg).map_err(kv_err)?);
        // Model the allocation so an oversized pool is rejected at open
        // time, exactly as the transient path would reject it.
        let mut mem = MemoryModel::new(&self.config().soc);
        mem.alloc(Processor::Npu, "paged-kv-pool", pool.bytes())?;
        mem.free(Processor::Npu, "paged-kv-pool");
        let cache = PrefixCache::new(opts.block_tokens);
        let obs = opts.obs.clone();
        if let Some(o) = &obs {
            pool.install_trace(Arc::clone(&o.sink));
            cache.install_trace(Arc::clone(&o.sink));
            self.pool().install_metrics(&o.registry);
        }
        Ok(ServeSession { pool, cache, obs })
    }

    /// Serves one batch on a persistent [`ServeSession`]: exactly
    /// [`LlmNpuEngine::serve`], except the pool and the global prefix
    /// cache outlive the call — prompt prefixes prefilled by *earlier
    /// batches* are reused from cache, and the pages this batch's
    /// prefills cache stay resident for later ones. The zero-leak proof
    /// nets out cache residents: used pages beyond the cache's holdings
    /// must be zero on return.
    ///
    /// # Errors
    ///
    /// As [`LlmNpuEngine::serve`], plus a mismatch between the session
    /// pool and this call (`block_tokens`, model geometry, or a request
    /// that cannot fit the session pool even alone).
    pub fn serve_with_session(
        &self,
        t: &Transformer<'_>,
        requests: &[GenerationRequest],
        opts: &ServeOptions,
        session: &ServeSession,
    ) -> Result<ServeReport> {
        validate_inputs(requests, opts)?;
        let cfg = session.pool.config();
        if cfg.block_tokens != opts.block_tokens {
            return Err(Error::InvalidConfig {
                what: format!(
                    "session pool uses {}-token pages, options ask for {}",
                    cfg.block_tokens, opts.block_tokens
                ),
            });
        }
        if cfg.layers != t.config().layers || cfg.kv_dim != t.config().kv_dim() {
            return Err(Error::InvalidConfig {
                what: "session pool geometry does not match the model".to_owned(),
            });
        }
        for (r, req) in requests.iter().enumerate() {
            let need = cfg.blocks_for(req.total_tokens());
            if need > cfg.blocks {
                return Err(Error::InvalidConfig {
                    what: format!(
                        "request {r} needs {need} KV pages, session pool holds {}",
                        cfg.blocks
                    ),
                });
            }
        }
        self.serve_rounds(
            t,
            requests,
            opts,
            &session.pool,
            &session.cache,
            false,
            opts.obs.as_ref().or(session.obs.as_ref()),
        )
    }

    /// The shared serving loop behind [`LlmNpuEngine::serve`] and
    /// [`LlmNpuEngine::serve_with_session`]: retry rounds over one pool
    /// and one prefix cache. `transient` flushes the cache before the
    /// leak proof (the one-shot contract); a session run instead proves
    /// that nothing beyond the cache's residents stayed allocated.
    #[allow(clippy::too_many_arguments)] // internal plumbing of `serve`
    fn serve_rounds(
        &self,
        t: &Transformer<'_>,
        requests: &[GenerationRequest],
        opts: &ServeOptions,
        pool: &Arc<BlockPool>,
        cache: &PrefixCache,
        transient: bool,
        obs: Option<&Observability>,
    ) -> Result<ServeReport> {
        let row_wise = t.backend_row_wise();
        let share = opts.share_prefixes && row_wise;
        let decode_batch = if row_wise { opts.decode_batch } else { 1 };
        let faults = opts.faults.clone().unwrap_or_default();
        let metrics_base = cache.metrics();
        let pool_cfg = pool.config().clone();
        if let Some(o) = obs {
            // First install wins; session paths already installed at
            // open time with (normally) the same sink.
            pool.install_trace(Arc::clone(&o.sink));
            cache.install_trace(Arc::clone(&o.sink));
            self.pool().install_metrics(&o.registry);
        }

        if requests.is_empty() {
            return Ok(ServeReport {
                requests: Vec::new(),
                timeline: ServeTimeline::default(),
                kv: kv_report(pool, opts, 0, 0, cache, &metrics_base),
                verification: Vec::new(),
                queue_depth: Vec::new(),
                metrics: obs.map(|o| o.registry.snapshot()).unwrap_or_default(),
            });
        }

        // ---- Retry rounds -------------------------------------------------
        // Round 1 serves everyone; each later round re-serves only the
        // requests that *failed* (never the cancelled or expired ones),
        // re-admitted with exponential backoff on the new round's clock.
        // Each round drains the pool completely, so rounds compose on
        // one timeline by offsetting with the previous makespan.
        let n = requests.len();
        let mut outcomes: Vec<Option<RequestOutcome>> = (0..n).map(|_| None).collect();
        let mut timeline = ServeTimeline::default();
        let mut evictions = 0usize;
        let mut shared_blocks = 0usize;
        let mut verification: Vec<llmnpu_verify::PlanStats> = Vec::new();
        let mut time_offset = 0.0f64;
        let mut retries_used = vec![0usize; n];
        let mut attempt_base = vec![0usize; n];
        let mut first_dispatch = vec![f64::INFINITY; n];
        let mut members: Vec<usize> = (0..n).collect();
        let mut arrivals: Vec<f64> = requests.iter().map(|r| r.arrival_ms).collect();
        loop {
            let round_requests: Vec<GenerationRequest> = members
                .iter()
                .zip(&arrivals)
                .map(|(&r, &a)| {
                    let mut req = requests[r].clone();
                    req.arrival_ms = a;
                    req
                })
                .collect();
            let input = RoundInput {
                requests: round_requests,
                orig_ids: members.clone(),
                attempt_base: members.iter().map(|&r| attempt_base[r]).collect(),
            };
            let out = self.serve_round(
                t,
                &input,
                opts,
                pool,
                &pool_cfg,
                cache,
                &faults,
                share,
                decode_batch,
                RoundMode::Execute,
                obs,
            )?;
            evictions += out.evictions;
            shared_blocks += out.shared_blocks;
            verification.push(out.verified.stats);
            for mut span in out.spans {
                span.start_ms += time_offset;
                span.end_ms += time_offset;
                if let Some(o) = obs {
                    let s = &span;
                    o.sink.span(|| TraceSpan {
                        request: Some(s.request),
                        attempt: s.attempt,
                        lane: format!("{:?}", s.processor),
                        name: s.label.clone(),
                        class: kind_class(&s.kind).to_owned(),
                        start_ms: s.start_ms,
                        end_ms: s.end_ms,
                        modeled_ms: s.modeled_ms,
                        wall_start_ms: Some(s.start_ms),
                        wall_end_ms: Some(s.end_ms),
                    });
                }
                timeline.spans.push(span);
            }
            let mut next_members = Vec::new();
            let mut next_arrivals = Vec::new();
            for (i, m) in out.members.into_iter().enumerate() {
                let r = members[i];
                attempt_base[r] += m.incarnations;
                if m.first_dispatch_ms.is_finite() {
                    first_dispatch[r] = first_dispatch[r].min(m.first_dispatch_ms + time_offset);
                }
                if matches!(m.status, RequestStatus::Failed { .. })
                    && retries_used[r] < opts.max_retries
                {
                    retries_used[r] += 1;
                    next_members.push(r);
                    let exp = (retries_used[r] - 1).min(30) as u32;
                    let backoff = opts.retry_backoff_ms * f64::from(1u32 << exp);
                    if let Some(o) = obs {
                        let used = retries_used[r];
                        o.sink.event(Plane::Plan, EventKind::Retry, Some(r), || {
                            format!("retry {used} admitted with {backoff:.3} ms backoff")
                        });
                    }
                    next_arrivals.push(backoff);
                    continue;
                }
                let status = match m.status {
                    RequestStatus::Failed { error } if retries_used[r] > 0 => {
                        RequestStatus::RetriesExhausted { error }
                    }
                    other => other,
                };
                outcomes[r] = Some(RequestOutcome {
                    request: r,
                    tokens: m.tokens,
                    token_times_ms: m
                        .token_times_ms
                        .iter()
                        .map(|&tt| tt + time_offset)
                        .collect(),
                    arrival_ms: requests[r].arrival_ms,
                    first_dispatch_ms: f64::INFINITY, // patched below
                    prefill_done_ms: if m.prefill_done_ms > 0.0 {
                        m.prefill_done_ms + time_offset
                    } else {
                        0.0
                    },
                    finish_ms: if m.finish_ms > 0.0 {
                        m.finish_ms + time_offset
                    } else {
                        0.0
                    },
                    attempts: 0, // patched below
                    status,
                });
            }
            time_offset += out.makespan_ms;
            if next_members.is_empty() {
                break;
            }
            members = next_members;
            arrivals = next_arrivals;
        }
        timeline
            .spans
            // lint: allow(panic) — span timestamps come from executed-outcome filtering below, never NaN
            .sort_by(|a, b| a.end_ms.partial_cmp(&b.end_ms).expect("finite timestamps"));
        let outcomes: Vec<RequestOutcome> = outcomes
            .into_iter()
            .enumerate()
            .map(|(r, o)| {
                // lint: allow(panic) — the round loop only exits once every member reached a terminal status
                let mut o = o.expect("every request resolves to a terminal status");
                o.first_dispatch_ms = if first_dispatch[r].is_finite() {
                    first_dispatch[r]
                } else {
                    o.arrival_ms
                };
                o.attempts = attempt_base[r];
                o
            })
            .collect();

        if transient {
            // One-shot contract: nothing survives the call, including
            // cached prefixes. Sessions keep theirs resident instead.
            cache.flush(pool).map_err(kv_err)?;
        }
        let kv = kv_report(pool, opts, evictions, shared_blocks, cache, &metrics_base);
        if kv.leaked_blocks != 0 {
            return Err(Error::InvalidConfig {
                what: format!("{} KV pages leaked after serve", kv.leaked_blocks),
            });
        }
        if let Some(o) = obs {
            let reg = &o.registry;
            reg.counter("serve.batches").inc();
            reg.counter("serve.requests").add(outcomes.len() as u64);
            reg.counter("serve.retries")
                .add(retries_used.iter().sum::<usize>() as u64);
            reg.counter("serve.evictions").add(evictions as u64);
            let ttft = reg.histogram("serve.ttft_ms", &LATENCY_BUCKETS_MS);
            let wait = reg.histogram("serve.queue_wait_ms", &LATENCY_BUCKETS_MS);
            let per_token = reg.histogram("serve.decode_ms_per_token", &LATENCY_BUCKETS_MS);
            for oc in &outcomes {
                let status = match &oc.status {
                    RequestStatus::Completed => "serve.completed",
                    RequestStatus::Cancelled => "serve.cancelled",
                    RequestStatus::DeadlineExceeded => "serve.deadline_exceeded",
                    RequestStatus::Failed { .. } | RequestStatus::RetriesExhausted { .. } => {
                        "serve.failed"
                    }
                };
                reg.counter(status).inc();
                reg.counter("serve.tokens").add(oc.tokens.len() as u64);
                wait.observe(oc.queue_wait_ms());
                if oc.status.is_completed() {
                    ttft.observe(oc.ttft_ms());
                    let window = oc.finish_ms - oc.prefill_done_ms;
                    if !oc.tokens.is_empty() && window > 0.0 {
                        per_token.observe(window / oc.tokens.len() as f64);
                    }
                }
            }
            // Cumulative pool-lifetime figures report as gauges; the
            // prefix-cache numbers below are per-run deltas.
            reg.gauge("kv.cow_copies").set(kv.cow_copies as i64);
            reg.counter("kv.prefix_cache.hits")
                .add(kv.prefix_cache_hits);
            reg.counter("kv.prefix_cache.misses")
                .add(kv.prefix_cache_misses);
            reg.gauge("kv.peak_used_blocks")
                .set(kv.peak_used_blocks as i64);
            let lookups = kv.prefix_cache_hits + kv.prefix_cache_misses;
            if lookups > 0 {
                reg.histogram("serve.prefix_cache_hit_ratio", &RATIO_BUCKETS)
                    .observe(kv.prefix_cache_hits as f64 / lookups as f64);
            }
        }
        let queue_depth = queue_depth_series(&outcomes, &timeline);
        Ok(ServeReport {
            requests: outcomes,
            timeline,
            kv,
            verification,
            queue_depth,
            metrics: obs.map(|o| o.registry.snapshot()).unwrap_or_default(),
        })
    }

    /// Statically verifies the serving plan for `requests` without
    /// executing a single task: plans the batch, builds and splices the
    /// full first-round lane graph exactly as [`LlmNpuEngine::serve`]
    /// would, runs the `llmnpu-verify` checks against it, and returns
    /// the proof. No pool pages are reserved, no model math runs, and no
    /// time passes on any lane.
    ///
    /// A clean [`llmnpu_verify::Report`] means the plan is deadlock-free,
    /// its admissions fit the page budget, every admitted segment's
    /// pages provably return on all outcome paths, and no two tasks race
    /// on KV state — the same gate `serve` itself applies before each
    /// round.
    ///
    /// # Errors
    ///
    /// Returns the same input/option validation errors as
    /// [`LlmNpuEngine::serve`], or [`Error::PlanRejected`] listing the
    /// findings when verification fails.
    pub fn verify_serve(
        &self,
        t: &Transformer<'_>,
        requests: &[GenerationRequest],
        opts: &ServeOptions,
    ) -> Result<llmnpu_verify::Report> {
        validate_inputs(requests, opts)?;
        let row_wise = t.backend_row_wise();
        let share = opts.share_prefixes && row_wise;
        let decode_batch = if row_wise { opts.decode_batch } else { 1 };
        let faults = opts.faults.clone().unwrap_or_default();
        let pool_cfg = serve_pool_config(t, requests, opts, &faults)?;
        if requests.is_empty() {
            return Ok(llmnpu_verify::Report::default());
        }
        let pool = Arc::new(BlockPool::new(pool_cfg.clone()).map_err(kv_err)?);
        let cache = PrefixCache::new(opts.block_tokens);
        let input = RoundInput {
            requests: requests.to_vec(),
            orig_ids: (0..requests.len()).collect(),
            attempt_base: vec![0; requests.len()],
        };
        let out = self.serve_round(
            t,
            &input,
            opts,
            &pool,
            &pool_cfg,
            &cache,
            &faults,
            share,
            decode_batch,
            RoundMode::DryRun,
            opts.obs.as_ref(),
        )?;
        Ok(out.verified)
    }

    /// Plans, builds, and executes one retry round's combined lane graph
    /// (everything the pre-retry `serve` did for the whole batch), with
    /// fault containment: per-task isolation, the cancellation/deadline
    /// dispatch gate, fault injection, and per-member outcome
    /// resolution. The pool must be fully free on entry and is drained
    /// again before returning.
    #[allow(clippy::too_many_arguments)] // internal plumbing of `serve`
    fn serve_round(
        &self,
        t: &Transformer<'_>,
        input: &RoundInput,
        opts: &ServeOptions,
        pool: &Arc<BlockPool>,
        pool_cfg: &PoolConfig,
        cache: &PrefixCache,
        faults: &FaultPlan,
        share: bool,
        decode_batch: usize,
        mode: RoundMode,
        obs: Option<&Observability>,
    ) -> Result<RoundOutput> {
        let requests: &[GenerationRequest] = &input.requests;
        // New planning round: cached prefixes touched from here on are
        // pinned against eviction until the next round begins.
        cache.begin_round();
        let (segments, cohort_count, shared_blocks) = plan_batch(
            requests,
            pool,
            cache,
            opts.max_active,
            opts.pressure,
            share,
            decode_batch,
            &input.orig_ids,
            obs.map(|o| o.sink.as_ref()),
        )?;
        let evictions = segments.iter().filter(|s| s.evicted).count();
        // Any cache eviction the planner needed has already happened, so
        // the page budget the verifier proves against is the pool's free
        // count *now* — capacity is constant for the rest of the round.
        let free_blocks = pool.free_blocks();

        // Decode-task durations come from the shared context-aware decode
        // model, priced for the numeric model actually being served.
        let decode_proc = self.config().decode_processor;
        let dsim = DecodeSim::new(t.config().clone(), self.config().soc.clone(), decode_proc);

        // Per-request paged-cache slots, generation state, and
        // fault-containment runtime.
        let slots: Vec<Mutex<Option<PagedKvCache>>> =
            requests.iter().map(|_| Mutex::new(None)).collect();
        let states: Vec<Mutex<ReqState>> = requests
            .iter()
            .map(|req| {
                Ok(Mutex::new(ReqState {
                    sampler: Sampler::new(&req.sampler)?,
                    last_hidden: None,
                    tokens: Vec::with_capacity(req.max_new_tokens),
                }))
            })
            .collect::<Result<_>>()?;
        let runtime: Vec<ReqRuntime> = requests
            .iter()
            .map(|req| ReqRuntime {
                term: Mutex::new(None),
                tokens_out: AtomicUsize::new(0),
                cancel: req.cancel.clone(),
            })
            .collect();
        // Per-segment prefill machinery over the unshared suffix.
        let mut dags: Vec<PrefillDag> = Vec::with_capacity(segments.len());
        let mut plans: Vec<ChunkPlan> = Vec::with_capacity(segments.len());
        for seg in &segments {
            let shared_tokens = seg.prefix_tokens();
            let suffix_len = requests[seg.req].prompt.len() - shared_tokens;
            let dag_cfg = self.dag_config(suffix_len)?;
            plans.push(dag_cfg.plan.clone());
            dags.push(build_prefill_dag(
                t.config(),
                &dag_cfg,
                self.latency_model(),
            )?);
        }
        let mut programs: Vec<PrefillProgram<'_, '_>> = Vec::with_capacity(segments.len());
        for (s, seg) in segments.iter().enumerate() {
            let shared_tokens = seg.prefix_tokens();
            let suffix = &requests[seg.req].prompt[shared_tokens..];
            programs.push(PrefillProgram::new_paged(
                t,
                suffix,
                &dags[s],
                &plans[s],
                shared_tokens,
                &slots[seg.req],
            )?);
        }

        // ---- Build the combined lane graph --------------------------------
        let mut graph = LaneGraph::new();
        let mut closures: Vec<TaskFn<'_>> = Vec::new();
        let mut meta: Vec<TaskMeta> = Vec::new();
        let mut builds: Vec<SegBuild> = Vec::new();
        // Decode task id per (request, step) — the token stream spans.
        let mut token_tasks: Vec<Vec<usize>> =
            requests.iter().map(|r| vec![0; r.max_new_tokens]).collect();
        // Cohort id -> member segments, flushed when complete.
        let mut cohort_members: Vec<Vec<usize>> = vec![Vec::new(); cohort_count];
        let mut cohort_flushed: Vec<bool> = vec![false; cohort_count];

        // Flushing a cohort emits its batched decode chain + releases.
        // (Closure-free helper: needs many locals, so implemented as a
        // macro-like fn below via explicit parameters.)
        #[allow(clippy::too_many_arguments)]
        fn flush_cohort<'run>(
            c: usize,
            cohort_members: &[Vec<usize>],
            segments: &[SegmentPlan],
            requests: &'run [GenerationRequest],
            orig_ids: &[usize],
            attempt_base: &[usize],
            builds: &mut [SegBuild],
            graph: &mut LaneGraph,
            closures: &mut Vec<TaskFn<'run>>,
            meta: &mut Vec<TaskMeta>,
            token_tasks: &mut [Vec<usize>],
            states: &'run [Mutex<ReqState>],
            slots: &'run [Mutex<Option<PagedKvCache>>],
            runtime: &'run [ReqRuntime],
            faults: &'run FaultPlan,
            t: &'run Transformer<'run>,
            dsim: &DecodeSim,
            decode_proc: Processor,
            on_token: Option<&'run TokenSink>,
        ) -> Result<()> {
            let members = &cohort_members[c];
            let mut chain_prev: Vec<usize> =
                members.iter().map(|&s| builds[s].prefill_finish).collect();
            let max_steps = members
                .iter()
                .map(|&s| requests[segments[s].req].max_new_tokens)
                .max()
                .unwrap_or(0);
            // `step` indexes into each member's per-request token-task
            // vec, not a single container — the range loop is the shape.
            #[allow(clippy::needless_range_loop)]
            for step in 0..max_steps {
                let active: Vec<usize> = (0..members.len())
                    .filter(|&i| step < requests[segments[members[i]].req].max_new_tokens)
                    .collect();
                let width = active.len();
                let mut deps: Vec<usize> = active.iter().map(|&i| chain_prev[i]).collect();
                deps.sort_unstable();
                deps.dedup();
                let duration = active
                    .iter()
                    .map(|&i| {
                        let req = segments[members[i]].req;
                        let factor = faults.duration_factor(
                            orig_ids[req],
                            attempt_base[req] + segments[members[i]].attempt + 1,
                        );
                        dsim.token_ms(requests[req].prompt.len() + step) * factor
                    })
                    .fold(0.0, f64::max);
                let release = active
                    .iter()
                    .map(|&i| requests[segments[members[i]].req].arrival_ms)
                    .fold(0.0, f64::max);
                let first_req = segments[members[active[0]]].req;
                let (label, kind) = if width == 1 {
                    (
                        format!("R{}-D{step}", orig_ids[first_req]),
                        ServeTaskKind::Decode { step },
                    )
                } else {
                    (
                        format!("C{c}-D{step}x{width}"),
                        ServeTaskKind::DecodeBatch { step, width },
                    )
                };
                // Decode tasks are containment barriers: a failed (or
                // skipped) member's chain must not poison the cohort —
                // the task runs for whoever is still live and the
                // per-member filter inside the body excludes the rest.
                let id = graph.push(
                    LaneTask {
                        label,
                        processor: decode_proc,
                        duration_ms: duration,
                        release_ms: release,
                        barrier: true,
                    },
                    deps,
                )?;
                meta.push(TaskMeta {
                    member: first_req,
                    attempt: attempt_base[first_req] + segments[members[active[0]]].attempt,
                    kind,
                    members: active.iter().map(|&i| segments[members[i]].req).collect(),
                });
                let member_info: Vec<DecodeMember> = active
                    .iter()
                    .map(|&i| {
                        let req = segments[members[i]].req;
                        DecodeMember {
                            member: req,
                            prompt_len: requests[req].prompt.len(),
                            orig: orig_ids[req],
                            attempt: attempt_base[req] + segments[members[i]].attempt + 1,
                        }
                    })
                    .collect();
                closures.push(Box::new(move || {
                    decode_step_body(
                        &member_info,
                        step,
                        states,
                        slots,
                        runtime,
                        faults,
                        t,
                        on_token,
                    )
                }));
                for &i in &active {
                    chain_prev[i] = id;
                    token_tasks[segments[members[i]].req][step] = id;
                }
            }
            // Record each member's final decode task; the Release task
            // is emitted separately, when a later segment first gates
            // on it or in the final sweep.
            for (i, &s) in members.iter().enumerate() {
                builds[s].last_decode = Some(chain_prev[i]);
            }
            Ok(())
        }

        /// Emits one segment's Release task: pages go back once the
        /// member's stream is done. Pages a later reader reuses are not
        /// among them — the prefix cache holds its own reference on
        /// every published prompt page.
        #[allow(clippy::too_many_arguments)] // mirrors flush_cohort's plumbing
        fn emit_release<'run>(
            s: usize,
            segments: &[SegmentPlan],
            requests: &'run [GenerationRequest],
            orig_ids: &[usize],
            attempt_base: &[usize],
            builds: &mut [SegBuild],
            graph: &mut LaneGraph,
            closures: &mut Vec<TaskFn<'run>>,
            meta: &mut Vec<TaskMeta>,
            slots: &'run [Mutex<Option<PagedKvCache>>],
            decode_proc: Processor,
        ) -> Result<()> {
            let req = segments[s].req;
            let last_decode = builds[s].last_decode.ok_or_else(|| Error::Internal {
                what: format!("release for segment {s} emitted before its cohort was flushed"),
            })?;
            // Release is a containment barrier and is never gate-skipped:
            // pages must return to the pool on every terminal path.
            let id = graph.push(
                LaneTask {
                    label: format!("R{}-Release", orig_ids[req]),
                    processor: decode_proc,
                    duration_ms: FINISH_TASK_MS,
                    release_ms: requests[req].arrival_ms,
                    barrier: true,
                },
                vec![last_decode],
            )?;
            meta.push(TaskMeta {
                member: req,
                attempt: attempt_base[req] + segments[s].attempt,
                kind: ServeTaskKind::Release,
                members: vec![req],
            });
            let slot = &slots[req];
            closures.push(Box::new(move || release_slot(slot)));
            builds[s].release = Some(id);
            Ok(())
        }

        // Admissions are chained in planned order: the planner's page
        // accounting for segment `s` assumes every earlier-planned
        // segment already reserved (or skipped) its pages, but a fault-
        // poisoned chain can collapse early and let a later-planned
        // Admit's gates resolve first — letting it steal pages the plan
        // earmarked for an earlier one and fail its physical reserve.
        // The chain pins physical reservation order to planned order
        // (Admit is a barrier, so a failed predecessor doesn't poison
        // it; the page-accounting inequality then holds by induction).
        let mut prev_admit: Option<usize> = None;
        for (s, seg) in segments.iter().enumerate() {
            // Any Done gate on a normal segment needs that segment's
            // Release task — flush its cohort's decode chain, then emit
            // just *that* segment's Release.
            for &(g, kind) in &seg.gates {
                if kind == GateKind::Done && !segments[g].evicted {
                    let c = segments[g].cohort;
                    if !cohort_flushed[c] {
                        flush_cohort(
                            c,
                            &cohort_members,
                            &segments,
                            requests,
                            &input.orig_ids,
                            &input.attempt_base,
                            &mut builds,
                            &mut graph,
                            &mut closures,
                            &mut meta,
                            &mut token_tasks,
                            &states,
                            &slots,
                            &runtime,
                            faults,
                            t,
                            &dsim,
                            decode_proc,
                            opts.on_token.as_ref(),
                        )?;
                        cohort_flushed[c] = true;
                    }
                    if builds[g].release.is_none() {
                        emit_release(
                            g,
                            &segments,
                            requests,
                            &input.orig_ids,
                            &input.attempt_base,
                            &mut builds,
                            &mut graph,
                            &mut closures,
                            &mut meta,
                            &slots,
                            decode_proc,
                        )?;
                    }
                }
            }
            let req = seg.req;
            let request = &requests[req];
            let orig = input.orig_ids[req];
            // Attempt numbering is global across rounds: memory-pressure
            // evictions and failure retries share one ladder, so the
            // attempt-numbered spans witness both preemption *and* retry.
            let attempt = input.attempt_base[req] + seg.attempt;
            let fault_attempt = attempt + 1; // 1-based, FaultSpec keying
            let dur_factor = faults.duration_factor(orig, fault_attempt);
            let rlabel = if attempt == 0 {
                format!("R{orig}")
            } else {
                format!("R{orig}.{attempt}")
            };

            // Admission: reserve pages on top of the reused prefix.
            let mut gate_deps: Vec<usize> = Vec::with_capacity(seg.gates.len() + 1);
            for &(g, kind) in &seg.gates {
                gate_deps.push(match kind {
                    GateKind::PrefillDone => builds[g].prefill_finish,
                    GateKind::Done => {
                        if segments[g].evicted {
                            builds[g].prefill_finish
                        } else {
                            builds[g].release.ok_or_else(|| Error::Internal {
                                what: format!(
                                    "segment {s} gates on segment {g}'s release, \
                                     which was never emitted"
                                ),
                            })?
                        }
                    }
                });
            }
            if let Some(prev) = prev_admit {
                gate_deps.push(prev);
            }
            // Admit is a barrier (it must *run* after failed gates so a
            // prefix whose producer never published it fails the reader
            // cleanly), but it is gate-skippable: a request already
            // cancelled or expired reserves nothing.
            let admit = graph.push(
                LaneTask {
                    label: format!("{rlabel}-Admit"),
                    processor: decode_proc,
                    duration_ms: FINISH_TASK_MS,
                    release_ms: request.arrival_ms,
                    barrier: true,
                },
                gate_deps,
            )?;
            meta.push(TaskMeta {
                member: req,
                attempt,
                kind: ServeTaskKind::Admit,
                members: vec![req],
            });
            prev_admit = Some(admit);
            {
                let pool = Arc::clone(pool);
                let slot = &slots[req];
                // The exact pages the plan reuses: the full pages along
                // the prompt, plus a partial tail — resident at plan
                // time, or pending, in which case it is the page below
                // them on its producer's own prompt path.
                let bt = pool_cfg.block_tokens;
                let tail = seg.hit.as_ref().and_then(|hit| hit.tail);
                let path: &[u32] = match (&seg.hit, tail) {
                    (Some(hit), Some((CachedBlock::Pending(p), _))) => {
                        &requests[segments[p].req].prompt[..hit.tokens + bt]
                    }
                    _ => &request.prompt[..seg.prefix_full_tokens()],
                };
                // Pages a stage-2 reclaim counted free: each reclaimed
                // segment's promised pages are the last `retained` of its
                // full-page path, and readers' pages sit below them.
                let reclaim_paths: Vec<&[u32]> = seg
                    .reclaims
                    .iter()
                    .map(|&g| {
                        let prompt = &requests[segments[g].req].prompt;
                        let first = prompt.len() / bt - segments[g].retained;
                        &prompt[..(first + 1) * bt]
                    })
                    .collect();
                let total = request.total_tokens();
                let admit_fault = faults
                    .fault_at(orig, fault_attempt, FaultSite::Admit)
                    .copied();
                let prefix_cache = cache;
                closures.push(contain(
                    &runtime[req],
                    Box::new(move || {
                        if let Some(f) = admit_fault {
                            let msg = format!("injected admit fault: request {orig}");
                            match f.mode {
                                FaultMode::Panic => panic!("{msg}"),
                                FaultMode::Error => return Err(msg),
                            }
                        }
                        // Take back the reclaimed pages: their producers
                        // and readers are done (the gates order that).
                        for path in &reclaim_paths {
                            prefix_cache
                                .evict_subtree(&pool, path)
                                .map_err(|e| e.to_string())?;
                        }
                        // Resolve the planned pages to resident blocks. A
                        // page still pending means its producer never
                        // published it (failed, cancelled, preempted) —
                        // a contained failure the retry round replans.
                        let mut prefix = prefix_cache
                            .resident(path)
                            .ok_or("prefix producer prefill incomplete")?;
                        let tail = match tail {
                            Some((CachedBlock::Filled(block), rows)) => Some((block, rows)),
                            Some((CachedBlock::Pending(_), rows)) => {
                                prefix.pop().map(|block| (block, rows))
                            }
                            None => None,
                        };
                        // Retain the reused full pages, then row-copy the
                        // partial tail into the first fresh page.
                        let c = PagedKvCache::reserve_with_prefix(&pool, &prefix, total)
                            .map_err(|e| e.to_string())?;
                        if let Some((src, rows)) = tail {
                            let dst = c.table().blocks()[prefix.len()];
                            if let Err(e) = pool.copy_rows(src, dst, rows) {
                                let mut c = c;
                                let _ = c.release();
                                return Err(e.to_string());
                            }
                        }
                        *plain_lock(slot) = Some(c);
                        Ok(())
                    }),
                ));
            }

            // The suffix prefill DAG; roots wait on admission.
            let offset = graph.len();
            for (i, task) in dags[s].tasks().iter().enumerate() {
                let mut deps: Vec<usize> = dags[s].deps(i).iter().map(|&d| d + offset).collect();
                if deps.is_empty() {
                    deps.push(admit);
                }
                graph.push(
                    LaneTask {
                        label: format!("{rlabel}-{}", task.label),
                        processor: task.processor,
                        duration_ms: task.duration_ms * dur_factor,
                        release_ms: request.arrival_ms,
                        barrier: false,
                    },
                    deps,
                )?;
                meta.push(TaskMeta {
                    member: req,
                    attempt,
                    kind: ServeTaskKind::PrefillStage {
                        chunk: task.chunk,
                        layer: task.layer,
                        stage: task.stage,
                        role: task.role,
                    },
                    members: vec![req],
                });
            }
            closures.extend(
                programs[s]
                    .closures(&dags[s])
                    .into_iter()
                    .map(|f| contain(&runtime[req], f)),
            );
            // Scripted prefill faults replace the matching stage closure
            // (the Main-path FFN of the targeted chunk/layer — a unique
            // task per site) outright.
            if !faults.faults.is_empty() {
                for (i, task) in dags[s].tasks().iter().enumerate() {
                    if task.role != TaskRole::Main || task.stage != Stage::Ffn {
                        continue;
                    }
                    let site = FaultSite::Prefill {
                        chunk: task.chunk,
                        layer: task.layer,
                    };
                    if let Some(f) = faults.fault_at(orig, fault_attempt, site) {
                        let msg = format!(
                            "injected prefill fault: request {orig} chunk {} layer {}",
                            task.chunk, task.layer
                        );
                        let inner: TaskFn<'_> = match f.mode {
                            FaultMode::Panic => Box::new(move || panic!("{msg}")),
                            FaultMode::Error => Box::new(move || Err(msg)),
                        };
                        closures[offset + i] = contain(&runtime[req], inner);
                    }
                }
            }

            // Prefill terminal: last-hidden assembly — or, for a
            // preempted incarnation, the eviction (pages freed, work
            // discarded).
            let mut finish_deps: Vec<usize> =
                dag_sinks(&dags[s]).iter().map(|&k| k + offset).collect();
            if finish_deps.is_empty() {
                finish_deps.push(admit);
            }
            let (flabel, fkind) = if seg.evicted {
                (format!("{rlabel}-Evicted"), ServeTaskKind::Evicted)
            } else {
                (
                    format!("{rlabel}-PrefillFinish"),
                    ServeTaskKind::PrefillFinish,
                )
            };
            // An eviction is a containment barrier (its page release must
            // run even when the incarnation's prefill failed); a real
            // PrefillFinish is not — a failed prefill poisons it.
            let finish = graph.push(
                LaneTask {
                    label: flabel,
                    processor: decode_proc,
                    duration_ms: FINISH_TASK_MS,
                    release_ms: request.arrival_ms,
                    barrier: seg.evicted,
                },
                finish_deps,
            )?;
            meta.push(TaskMeta {
                member: req,
                attempt,
                kind: fkind,
                members: vec![req],
            });
            if seg.evicted {
                let slot = &slots[req];
                closures.push(Box::new(move || release_slot(slot)));
            } else {
                let program = &programs[s];
                let state = &states[req];
                let pool = Arc::clone(pool);
                let slot = &slots[req];
                let prompt = &requests[req].prompt;
                // Only pages the segment still promises are published: a
                // promise withdrawn at plan time (pages reclaimed to admit
                // another request) means they return to the pool at its
                // release, exactly as the plan counted them.
                let publish = seg.retained > 0;
                closures.push(contain(
                    &runtime[req],
                    Box::new(move || {
                        let last = program.last_hidden_row().map_err(|e| e.to_string())?;
                        plain_lock(state).last_hidden = Some(last);
                        if publish {
                            // Fill this segment's pending pages for
                            // same-round readers and keep them for later
                            // batches. Failure here is a contained request
                            // failure, like any prefill fault.
                            let blocks = {
                                let guard = plain_lock(slot);
                                let c = guard.as_ref().ok_or("prefill cache slot empty")?;
                                c.table().blocks().to_vec()
                            };
                            cache
                                .insert(&pool, prompt, &blocks, s)
                                .map_err(|e| e.to_string())?;
                        }
                        Ok(())
                    }),
                ));
                cohort_members[seg.cohort].push(s);
            }
            builds.push(SegBuild {
                admit,
                prefill_finish: finish,
                last_decode: None,
                release: None,
            });
        }
        for (c, flushed) in cohort_flushed.iter_mut().enumerate() {
            if !*flushed {
                flush_cohort(
                    c,
                    &cohort_members,
                    &segments,
                    requests,
                    &input.orig_ids,
                    &input.attempt_base,
                    &mut builds,
                    &mut graph,
                    &mut closures,
                    &mut meta,
                    &mut token_tasks,
                    &states,
                    &slots,
                    &runtime,
                    faults,
                    t,
                    &dsim,
                    decode_proc,
                    opts.on_token.as_ref(),
                )?;
                *flushed = true;
            }
        }
        // Every surviving segment returns its pages.
        for s in 0..segments.len() {
            if !segments[s].evicted && builds[s].release.is_none() {
                emit_release(
                    s,
                    &segments,
                    requests,
                    &input.orig_ids,
                    &input.attempt_base,
                    &mut builds,
                    &mut graph,
                    &mut closures,
                    &mut meta,
                    &slots,
                    decode_proc,
                )?;
            }
        }
        debug_assert_eq!(graph.len(), closures.len());
        debug_assert_eq!(graph.len(), meta.len());

        // ---- Static plan verification -------------------------------------
        // The spliced graph carries every invariant the round relies on:
        // acyclicity, the pinned admission order, race-free KV writes,
        // the page budget, and poison-proof cleanup. Prove all of them
        // before a single closure runs; a finding aborts the round.
        let vplan = build_verify_plan(
            &graph,
            &meta,
            &segments,
            &builds,
            &plans,
            input,
            pool_cfg,
            free_blocks,
        );
        let verified = llmnpu_verify::verify(&vplan);
        if !verified.is_clean() {
            return Err(Error::PlanRejected {
                findings: verified.findings.iter().map(ToString::to_string).collect(),
            });
        }
        if let Some(o) = obs {
            let st = &verified.stats;
            o.sink
                .event(Plane::Plan, EventKind::PlanVerified, None, || {
                    format!(
                        "{} task(s), {} edge(s), {} segment(s), peak {} page(s)",
                        st.tasks, st.edges, st.segments, st.peak_pages
                    )
                });
        }
        if mode == RoundMode::DryRun {
            // Nothing executed: no spans, no outcomes, pool untouched.
            return Ok(RoundOutput {
                members: Vec::new(),
                spans: Vec::new(),
                makespan_ms: 0.0,
                evictions,
                shared_blocks,
                verified,
            });
        }

        // ---- Run the combined graph on the engine's lanes -----------------
        // Fault-contained: a task failure poisons only its request's
        // chain; the gate skips tasks of cancelled/expired/failed
        // requests at dispatch time. Only *structural* errors surface as
        // Err here.
        let gate_sink: Option<&TraceSink> = obs.map(|o| o.sink.as_ref());
        let gate: GateFn<'_> = Box::new(|task: usize, now: f64| -> bool {
            let m = &meta[task];
            let skippable = !matches!(m.kind, ServeTaskKind::Release | ServeTaskKind::Evicted);
            let mut all_terminal = !m.members.is_empty();
            for &mem in &m.members {
                let rt = &runtime[mem];
                let mut term = plain_lock(&rt.term);
                if term.is_none() {
                    let req = &requests[mem];
                    if rt.cancel.is_cancelled() {
                        *term = Some(RequestStatus::Cancelled);
                        if let Some(sink) = gate_sink {
                            sink.event_at(
                                Plane::Exec,
                                EventKind::Cancel,
                                Some(input.orig_ids[mem]),
                                now,
                                || {
                                    format!(
                                        "cancelled at dispatch of {}",
                                        graph.tasks()[task].label
                                    )
                                },
                            );
                        }
                    } else if req
                        .deadline_ms
                        .is_some_and(|d| now >= req.arrival_ms + d - DEADLINE_EPS)
                        || (rt.tokens_out.load(Ordering::Acquire) == 0
                            && req
                                .ttft_deadline_ms
                                .is_some_and(|d| now >= req.arrival_ms + d - DEADLINE_EPS))
                    {
                        *term = Some(RequestStatus::DeadlineExceeded);
                        if let Some(sink) = gate_sink {
                            sink.event_at(
                                Plane::Exec,
                                EventKind::Deadline,
                                Some(input.orig_ids[mem]),
                                now,
                                || {
                                    format!(
                                        "deadline blown at dispatch of {}",
                                        graph.tasks()[task].label
                                    )
                                },
                            );
                        }
                    }
                }
                if term.is_none() {
                    all_terminal = false;
                }
            }
            skippable && all_terminal
        });
        let task_outcomes = self.pool().install_scope(|| {
            execute_lane_graph(
                &graph,
                closures,
                self.config().policy,
                self.pool(),
                Some(gate),
                gate_sink,
            )
        })?;

        // Belt and braces: whatever a failed path left behind, drain it
        // before accounting (barrier Release tasks already released the
        // normal and most failed paths).
        for slot in &slots {
            let _ = release_slot(slot);
        }

        // Round timeline, completion order (skipped tasks have no span).
        let mut order: Vec<(f64, usize)> = (0..graph.len())
            .filter_map(|i| task_outcomes[i].span().map(|(_, end)| (end, i)))
            .collect();
        // lint: allow(panic) — spans are measured monotonic-clock readings, never NaN
        order.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite timestamps"));
        let mut spans_out: Vec<ServeSpan> = Vec::with_capacity(order.len());
        for (_, i) in order {
            // lint: allow(panic) — `order` was built from exactly the outcomes that carry a span
            let (start_ms, end_ms) = task_outcomes[i].span().expect("filtered to executed");
            let m = &meta[i];
            if let Some(o) = obs {
                // Stage-level calibration samples: executed duration per
                // span class, decode keyed by cohort width.
                let ms = end_ms - start_ms;
                match m.kind {
                    ServeTaskKind::PrefillStage { stage, role, .. } => {
                        o.calibration.record(
                            &format!("serve.stage.{stage:?}.{role:?}"),
                            0,
                            0,
                            0,
                            ms,
                        );
                    }
                    ServeTaskKind::Decode { .. } => {
                        o.calibration.record("serve.decode.token", 1, 0, 0, ms);
                    }
                    ServeTaskKind::DecodeBatch { width, .. } => {
                        o.calibration.record("serve.decode.token", width, 0, 0, ms);
                    }
                    _ => {}
                }
            }
            spans_out.push(ServeSpan {
                request: input.orig_ids[m.member],
                attempt: m.attempt,
                label: graph.tasks()[i].label.clone(),
                kind: m.kind,
                processor: graph.tasks()[i].processor,
                start_ms,
                end_ms,
                modeled_ms: graph.tasks()[i].duration_ms,
            });
        }
        let makespan_ms = spans_out.iter().map(|s| s.end_ms).fold(0.0, f64::max);

        // Per-member resolution: status, stream, metrics.
        let mut members_out = Vec::with_capacity(requests.len());
        for (m, req) in requests.iter().enumerate() {
            let st = plain_lock(&states[m]);
            let term = plain_lock(&runtime[m].term).take();
            let status = if st.tokens.len() == req.max_new_tokens {
                // A complete stream wins even over a recorded terminal: a
                // cancel/deadline that landed after the last token, or a
                // failure confined to a doomed evicted incarnation, did
                // not cost the caller anything.
                RequestStatus::Completed
            } else {
                match term {
                    Some(s) => s,
                    None => {
                        let attributed = (0..graph.len()).find_map(|i| {
                            if meta[i].members.contains(&m) {
                                task_outcomes[i].error().map(str::to_owned)
                            } else {
                                None
                            }
                        });
                        RequestStatus::Failed {
                            error: attributed.unwrap_or_else(|| {
                                format!(
                                    "produced {} of {} tokens",
                                    st.tokens.len(),
                                    req.max_new_tokens
                                )
                            }),
                        }
                    }
                }
            };
            let first_dispatch_ms = (0..graph.len())
                .filter(|&i| meta[i].members.contains(&m))
                .filter_map(|i| task_outcomes[i].span().map(|(start, _)| start))
                .fold(f64::INFINITY, f64::min);
            let prefill_done_ms = segments
                .iter()
                .position(|s| s.req == m && !s.evicted)
                .map(|fs| builds[fs].prefill_finish)
                .and_then(|tid| match &task_outcomes[tid] {
                    TaskOutcome::Completed { end_ms, .. } => Some(*end_ms),
                    _ => None,
                })
                .unwrap_or(0.0);
            let token_times_ms: Vec<f64> = token_tasks[m][..st.tokens.len()]
                .iter()
                .map(|&i| task_outcomes[i].span().map_or(0.0, |(_, end)| end))
                .collect();
            let incarnations = segments.iter().filter(|s| s.req == m).count();
            members_out.push(MemberRound {
                status,
                tokens: st.tokens.clone(),
                finish_ms: token_times_ms.last().copied().unwrap_or(0.0),
                token_times_ms,
                first_dispatch_ms,
                prefill_done_ms,
                incarnations,
            });
        }

        Ok(RoundOutput {
            members: members_out,
            spans: spans_out,
            makespan_ms,
            evictions,
            shared_blocks,
            verified,
        })
    }
}

/// Translates one round's spliced lane graph plus the planner's segment
/// metadata into an [`llmnpu_verify::Plan`] for static verification.
///
/// The structural half (tasks, lanes, edges, barriers, times) comes from
/// [`LaneGraph::verify_plan`]; this function enriches it with what only
/// serve knows:
///
/// - **Gate/fault flags** mirroring the dispatch gate's closure (every
///   kind is gate-skippable except `Release` and `Evicted`) and the
///   `contain` wrapping (admission, prefill, and decode bodies can
///   fail; the slot-draining cleanup tasks cannot).
/// - **KV address spaces**: space `seg * layers + layer` holds segment
///   `seg`'s absolute token positions at one decoder layer. Writers are
///   the KV-appending `QkvLinear` stages (the `Main` role when no shadow
///   split took the stage, the `MergeSync` role when one did) and decode
///   steps ≥ 1 (position `prompt + step − 1`); readers are `Attention`
///   stages (Equation 2's visibility: everything through the chunk's
///   end) and decode steps (everything before the new position).
/// - **Prefix reuse**, keyed per page: a reader's positions in a page
///   that was *pending* at plan time map to the producer's space (the
///   producer computed that page itself, so it is the in-plan writer),
///   and a row-copied tail from a pending page is an Admit read of the
///   producer's rows. Pages that were already resident have no in-plan
///   writer, so their positions are deliberately invisible to the race
///   checker — only the tail's write into the reader's own space is
///   declared. A reader never writes a producer's space (copy-on-write
///   gives it fresh pages).
/// - **The cache-slot space** (one cell per round member, after the KV
///   spaces): admission installs a cache, release/eviction drains it.
/// - **The segment table** for the page-budget and leak proofs: fresh
///   blocks per admission (the planner's own figure), blocks the global
///   prefix cache retains past the terminal, the pages reused from each
///   same-round producer, and each incarnation's terminal (Release, or
///   Evicted for a preempted one).
///
/// `free_blocks` is the pool's free count *after* planning: every cache
/// eviction the planner needed has already happened, so it is the
/// round's true page budget.
#[allow(clippy::too_many_arguments)] // mirrors the serving plumbing
fn build_verify_plan(
    graph: &LaneGraph,
    meta: &[TaskMeta],
    segments: &[SegmentPlan],
    builds: &[SegBuild],
    plans: &[ChunkPlan],
    input: &RoundInput,
    pool_cfg: &PoolConfig,
    free_blocks: usize,
) -> llmnpu_verify::Plan {
    use llmnpu_verify::{Access, Segment, TaskClass};

    let requests: &[GenerationRequest] = &input.requests;
    let mut plan = graph.verify_plan();
    let layers = pool_cfg.layers.max(1);
    let kv_space = |seg: usize, layer: usize| (seg * layers + layer) as u64;
    let slot_space = (segments.len() * layers) as u64;

    // Which (segment, absolute-position range) backs each segment's KV:
    // producers' spaces for pages pending at plan time, nothing for
    // resident cached pages, and its own space from the end of the
    // reused full pages on.
    let bt = pool_cfg.block_tokens.max(1) as u64;
    let coverage: Vec<Vec<(usize, u64, u64)>> = segments
        .iter()
        .enumerate()
        .map(|(s, seg)| {
            let mut cov: Vec<(usize, u64, u64)> = Vec::new();
            let pages = seg.hit.iter().flat_map(|hit| &hit.blocks);
            for (i, block) in (0u64..).zip(pages) {
                if let CachedBlock::Pending(p) = *block {
                    match cov.last_mut() {
                        Some((q, _, hi)) if *q == p && *hi == i * bt => *hi += bt,
                        _ => cov.push((p, i * bt, (i + 1) * bt)),
                    }
                }
            }
            let total = requests[seg.req].total_tokens() as u64;
            cov.push((s, seg.prefix_full_tokens() as u64, total));
            cov
        })
        .collect();

    // Segment of each (member, global attempt); the surviving (non-
    // evicted) segment per member, which decode tasks belong to.
    let mut seg_of: HashMap<(usize, usize), usize> = HashMap::new();
    let mut surviving: Vec<Option<usize>> = vec![None; requests.len()];
    for (s, seg) in segments.iter().enumerate() {
        seg_of.insert((seg.req, input.attempt_base[seg.req] + seg.attempt), s);
        if !seg.evicted {
            surviving[seg.req] = Some(s);
        }
    }

    // Shadow-split sites per segment: their Main QkvLinear computes
    // pre-merge halves only — the MergeSync task is the KV writer.
    let mut split_sets: Vec<HashSet<(usize, Stage)>> = vec![HashSet::new(); segments.len()];
    for m in meta {
        if let ServeTaskKind::PrefillStage {
            layer, stage, role, ..
        } = m.kind
        {
            if role == TaskRole::Shadow {
                if let Some(&s) = seg_of.get(&(m.member, m.attempt)) {
                    split_sets[s].insert((layer, stage));
                }
            }
        }
    }

    for (t, m) in meta.iter().enumerate() {
        let task = &mut plan.tasks[t];
        // The dispatch gate's skippability closure, verbatim.
        task.gated = !matches!(m.kind, ServeTaskKind::Release | ServeTaskKind::Evicted);
        match m.kind {
            ServeTaskKind::Admit => {
                let Some(&s) = seg_of.get(&(m.member, m.attempt)) else {
                    continue;
                };
                task.class = TaskClass::Admit;
                task.serialized = true;
                task.fallible = true;
                task.owner = Some(s);
                task.writes.push(Access::cell(slot_space, m.member as u64));
                // Row-copied tail: written into the reader's own space,
                // read from the producer's rows when the page was
                // pending at plan time.
                if let Some((page, rows)) = segments[s].hit.as_ref().and_then(|hit| hit.tail) {
                    let lo = segments[s].prefix_full_tokens() as u64;
                    let hi = lo + rows as u64;
                    for layer in 0..layers {
                        if let CachedBlock::Pending(p) = page {
                            task.reads.push(Access::range(kv_space(p, layer), lo, hi));
                        }
                        task.writes.push(Access::range(kv_space(s, layer), lo, hi));
                    }
                }
            }
            ServeTaskKind::PrefillStage {
                chunk,
                layer,
                stage,
                role,
            } => {
                let Some(&s) = seg_of.get(&(m.member, m.attempt)) else {
                    continue;
                };
                task.fallible = true;
                task.owner = Some(s);
                task.reads.push(Access::cell(slot_space, m.member as u64));
                let shared = segments[s].prefix_tokens();
                let suffix = requests[segments[s].req].prompt.len() - shared;
                let clen = plans[s].chunk_len;
                let lo = (shared + chunk * clen) as u64;
                let hi = (shared + chunk * clen + clen.min(suffix - chunk * clen)) as u64;
                let writes_kv = match (role, stage) {
                    (TaskRole::Main, Stage::QkvLinear) => {
                        !split_sets[s].contains(&(layer, Stage::QkvLinear))
                    }
                    (TaskRole::MergeSync, Stage::QkvLinear) => true,
                    _ => false,
                };
                if writes_kv {
                    task.writes.push(Access::range(kv_space(s, layer), lo, hi));
                }
                if role == TaskRole::Main && stage == Stage::Attention {
                    for &(cs, clo, chi) in &coverage[s] {
                        let rhi = chi.min(hi);
                        if clo < rhi {
                            task.reads
                                .push(Access::range(kv_space(cs, layer), clo, rhi));
                        }
                    }
                }
            }
            ServeTaskKind::PrefillFinish => {
                let Some(&s) = seg_of.get(&(m.member, m.attempt)) else {
                    continue;
                };
                task.fallible = true;
                task.owner = Some(s);
                task.reads.push(Access::cell(slot_space, m.member as u64));
            }
            ServeTaskKind::Evicted => {
                let Some(&s) = seg_of.get(&(m.member, m.attempt)) else {
                    continue;
                };
                task.class = TaskClass::Evict;
                task.owner = Some(s);
                task.writes.push(Access::cell(slot_space, m.member as u64));
            }
            ServeTaskKind::Decode { step } | ServeTaskKind::DecodeBatch { step, .. } => {
                task.fallible = true;
                task.owner = surviving[m.member];
                for &mem in &m.members {
                    let Some(s) = surviving[mem] else { continue };
                    task.reads.push(Access::cell(slot_space, mem as u64));
                    if step == 0 {
                        // Step 0 samples from the prefill's last hidden
                        // row: no forward pass, no KV traffic.
                        continue;
                    }
                    let prompt = requests[mem].prompt.len();
                    let pos = (prompt + step - 1) as u64;
                    let hi = (prompt + step) as u64;
                    for layer in 0..layers {
                        task.writes.push(Access::cell(kv_space(s, layer), pos));
                        for &(cs, clo, chi) in &coverage[s] {
                            let rhi = chi.min(hi);
                            if clo < rhi {
                                task.reads
                                    .push(Access::range(kv_space(cs, layer), clo, rhi));
                            }
                        }
                    }
                }
            }
            ServeTaskKind::Release => {
                let Some(&s) = seg_of.get(&(m.member, m.attempt)) else {
                    continue;
                };
                task.class = TaskClass::Release;
                task.owner = Some(s);
                task.writes.push(Access::cell(slot_space, m.member as u64));
            }
        }
    }

    plan.page_capacity = Some(free_blocks);
    for (s, seg) in segments.iter().enumerate() {
        plan.segments.push(Segment {
            admit: Some(builds[s].admit),
            terminal: if seg.evicted {
                Some(builds[s].prefill_finish)
            } else {
                builds[s].release
            },
            fresh_blocks: seg.fresh,
            // A surviving prefill publishes its full prompt pages to the
            // global cache: those stay resident past Release (the cache
            // holds a reference) and only return via eviction/flush —
            // the planner's final figure, net of withdrawn promises (a
            // last-resort reclaim credits them at `reclaims` instead).
            retained_blocks: seg.retained,
            reused: seg.reused_pages(),
            reclaims: seg.reclaims.clone(),
        });
    }
    plan
}

/// The numeric body of one (possibly batched) decode step: filter the
/// cohort down to its *live* members, forward every live member's
/// previous token through one `m = B` stacked forward, then project +
/// sample each member's next token, emitting it to the sink.
///
/// Liveness is per member — a cancelled, expired, or failed member is
/// excluded from the stacked GEMM without touching its neighbors (row
/// exclusion is bit-safe for row-wise backends, the only ones that
/// batch), which is what keeps a cohort-mate's failure out of every
/// other stream.
#[allow(clippy::too_many_arguments)] // mirrors the serving plumbing
fn decode_step_body(
    members: &[DecodeMember],
    step: usize,
    states: &[Mutex<ReqState>],
    slots: &[Mutex<Option<PagedKvCache>>],
    runtime: &[ReqRuntime],
    faults: &FaultPlan,
    t: &Transformer<'_>,
    on_token: Option<&TokenSink>,
) -> std::result::Result<(), String> {
    let mut live: Vec<&DecodeMember> = Vec::with_capacity(members.len());
    for dm in members {
        {
            let mut term = plain_lock(&runtime[dm.member].term);
            if term.is_none() && runtime[dm.member].cancel.is_cancelled() {
                *term = Some(RequestStatus::Cancelled);
            }
            if term.is_some() {
                continue;
            }
            let g = plain_lock(&states[dm.member]);
            if g.tokens.len() != step || g.last_hidden.is_none() {
                // The member's chain never reached this step (upstream
                // failure or skip) — not live here.
                continue;
            }
            if let Some(f) = faults.fault_at(dm.orig, dm.attempt, FaultSite::Decode { step }) {
                let msg = format!("injected decode fault: request {} step {step}", dm.orig);
                if f.mode == FaultMode::Panic && members.len() == 1 {
                    drop(g);
                    drop(term);
                    panic!("{msg}");
                }
                // Inside a cohort the blast radius must stay per-member:
                // record the failure and exclude the member; neighbors in
                // the same batched GEMM keep decoding.
                *term = Some(RequestStatus::Failed { error: msg });
                continue;
            }
        }
        live.push(dm);
    }
    if live.is_empty() {
        return Ok(());
    }
    // Lock live members in cohort order (this task is the only holder).
    let mut state_guards: Vec<_> = live
        .iter()
        .map(|dm| plain_lock(&states[dm.member]))
        .collect();
    if step > 0 {
        // Forward every member's token `step - 1`: one batched GEMM per
        // linear site, per-request paged KV appends and attention.
        let tokens: Vec<u32> = state_guards
            .iter()
            .map(|g| {
                g.tokens
                    .get(step - 1)
                    .copied()
                    .ok_or("missing previous token")
            })
            .collect::<std::result::Result<_, _>>()?;
        let mut slot_guards: Vec<_> = live
            .iter()
            .map(|dm| plain_lock(&slots[dm.member]))
            .collect();
        let mut entries: Vec<PagedDecodeEntry<'_>> = Vec::with_capacity(live.len());
        for ((guard, dm), &token) in slot_guards.iter_mut().zip(&live).zip(&tokens) {
            entries.push(PagedDecodeEntry {
                token,
                pos: dm.prompt_len + step - 1,
                kv: guard.as_mut().ok_or("missing kv cache")?,
            });
        }
        let h = t
            .decode_forward_batch(&mut entries)
            .map_err(|e| e.to_string())?;
        let (_, hidden) = h.matrix_dims();
        for (i, g) in state_guards.iter_mut().enumerate() {
            g.last_hidden =
                Some(Tensor::from_vec(h.row(i).to_vec(), [1, hidden]).map_err(|e| e.to_string())?);
        }
    }
    // LM head over the stacked last-hidden rows (one m = B GEMM), then
    // per-member seeded sampling.
    let hidden = t.config().hidden;
    let mut stacked = Vec::with_capacity(live.len() * hidden);
    for g in &state_guards {
        stacked.extend_from_slice(g.last_hidden.as_ref().ok_or("missing hidden state")?.row(0));
    }
    let stacked = Tensor::from_vec(stacked, [live.len(), hidden]).map_err(|e| e.to_string())?;
    let logits = t.logits(&stacked).map_err(|e| e.to_string())?;
    for (i, g) in state_guards.iter_mut().enumerate() {
        let token = g.sampler.sample(logits.row(i)).map_err(|e| e.to_string())?;
        g.tokens.push(token);
        runtime[live[i].member]
            .tokens_out
            .fetch_add(1, Ordering::AcqRel);
        if let Some(sink) = on_token {
            sink(&TokenEvent {
                request: live[i].orig,
                step,
                token,
            });
        }
    }
    Ok(())
}

/// Returns a request's pages to the pool (eviction, completion, or any
/// failed terminal path — the zero-leak invariant's workhorse).
fn release_slot(slot: &Mutex<Option<PagedKvCache>>) -> std::result::Result<(), String> {
    if let Some(mut cache) = plain_lock(slot).take() {
        cache.release().map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn kv_report(
    pool: &BlockPool,
    opts: &ServeOptions,
    evictions: usize,
    shared_blocks: usize,
    cache: &PrefixCache,
    base: &PrefixCacheMetrics,
) -> KvPoolReport {
    let stats = pool.stats();
    let m = cache.metrics();
    KvPoolReport {
        block_tokens: opts.block_tokens,
        pool_blocks: stats.total_blocks,
        pool_bytes: stats.bytes,
        peak_used_blocks: stats.peak_used_blocks,
        // Pages the global cache deliberately keeps resident are not
        // leaks: a leak is anything used beyond the cache's holdings.
        leaked_blocks: stats.used_blocks.saturating_sub(cache.held_blocks()),
        evictions,
        shared_prefix_blocks: shared_blocks,
        cow_copies: stats.cow_copies,
        prefix_cache_hits: m.hits - base.hits,
        prefix_cache_misses: m.misses - base.misses,
        prefix_cache_hit_tokens: m.hit_tokens - base.hit_tokens,
        prefix_cache_hit_blocks: m.hit_blocks - base.hit_blocks,
        prefix_cache_inserted_blocks: m.inserted_blocks - base.inserted_blocks,
        prefix_cache_evictions: m.evicted_blocks - base.evicted_blocks,
        prefix_cache_resident_blocks: cache.held_blocks(),
    }
}

fn validate_inputs(requests: &[GenerationRequest], opts: &ServeOptions) -> Result<()> {
    if opts.max_active == 0 {
        return Err(Error::InvalidConfig {
            what: "max_active must be at least 1".to_owned(),
        });
    }
    if opts.block_tokens == 0 {
        return Err(Error::InvalidConfig {
            what: "block_tokens must be at least 1".to_owned(),
        });
    }
    if opts.decode_batch == 0 {
        return Err(Error::InvalidConfig {
            what: "decode_batch must be at least 1".to_owned(),
        });
    }
    if opts.kv_pool_blocks == Some(0) {
        return Err(Error::InvalidConfig {
            what: "kv_pool_blocks must be at least 1".to_owned(),
        });
    }
    for (r, req) in requests.iter().enumerate() {
        if req.prompt.is_empty() {
            return Err(Error::InvalidConfig {
                what: format!("request {r} has an empty prompt"),
            });
        }
        if req.max_new_tokens == 0 {
            return Err(Error::InvalidConfig {
                what: format!("request {r} asks for zero tokens"),
            });
        }
        if !req.arrival_ms.is_finite() || req.arrival_ms < 0.0 {
            return Err(Error::InvalidConfig {
                what: format!("request {r} has invalid arrival {}", req.arrival_ms),
            });
        }
        for (name, d) in [
            ("deadline_ms", req.deadline_ms),
            ("ttft_deadline_ms", req.ttft_deadline_ms),
        ] {
            if let Some(d) = d {
                if !d.is_finite() || d < 0.0 {
                    return Err(Error::InvalidConfig {
                        what: format!("request {r} has invalid {name} {d}"),
                    });
                }
            }
        }
    }
    if !opts.retry_backoff_ms.is_finite() || opts.retry_backoff_ms < 0.0 {
        return Err(Error::InvalidConfig {
            what: format!("invalid retry_backoff_ms {}", opts.retry_backoff_ms),
        });
    }
    Ok(())
}

fn kv_err(e: llmnpu_kv::Error) -> Error {
    Error::InvalidConfig {
        what: format!("kv pool: {e}"),
    }
}

/// Sizes the shared paged pool for a serving run: auto-sized to the
/// batch (no pressure) unless the caller pinned a page budget, squeezed
/// by a fault-plan pool cap (but never below the largest single request
/// — nothing could ever be admitted), and checked so every request fits
/// the pool on its own.
fn serve_pool_config(
    t: &Transformer<'_>,
    requests: &[GenerationRequest],
    opts: &ServeOptions,
    faults: &FaultPlan,
) -> Result<PoolConfig> {
    let auto_blocks: usize = requests
        .iter()
        .map(|r| r.total_tokens().div_ceil(opts.block_tokens))
        .sum();
    let max_need: usize = requests
        .iter()
        .map(|r| r.total_tokens().div_ceil(opts.block_tokens))
        .max()
        .unwrap_or(0);
    let mut blocks = opts.kv_pool_blocks.unwrap_or(auto_blocks.max(1));
    if let Some(cap) = faults.pool_blocks_cap {
        blocks = blocks.min(cap).max(max_need.max(1));
    }
    let pool_cfg = PoolConfig {
        layers: t.config().layers,
        kv_dim: t.config().kv_dim(),
        block_tokens: opts.block_tokens,
        blocks,
    };
    for (r, req) in requests.iter().enumerate() {
        let need = pool_cfg.blocks_for(req.total_tokens());
        if need > pool_cfg.blocks {
            return Err(Error::InvalidConfig {
                what: format!(
                    "request {r} needs {need} KV pages, pool holds {}",
                    pool_cfg.blocks
                ),
            });
        }
    }
    Ok(pool_cfg)
}

/// Tasks of a DAG with no in-DAG successors (everything a prefill-finish
/// task must wait for).
fn dag_sinks(dag: &PrefillDag) -> Vec<usize> {
    let mut has_successor = vec![false; dag.len()];
    for t in 0..dag.len() {
        for &d in dag.deps(t) {
            has_successor[d] = true;
        }
    }
    (0..dag.len()).filter(|&t| !has_successor[t]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builders_compose() {
        let r = GenerationRequest::new(vec![1, 2, 3], 4)
            .with_sampler(SamplerConfig::top_k(5, 0.8, 7))
            .with_arrival_ms(12.5);
        assert_eq!(r.max_new_tokens, 4);
        assert_eq!(r.sampler.top_k, Some(5));
        assert!((r.arrival_ms - 12.5).abs() < 1e-12);
        assert_eq!(r.total_tokens(), 7);
    }

    #[test]
    fn outcome_metrics_derive() {
        let o = RequestOutcome {
            request: 0,
            tokens: vec![1, 2],
            token_times_ms: vec![30.0, 40.0],
            arrival_ms: 5.0,
            first_dispatch_ms: 10.0,
            prefill_done_ms: 20.0,
            finish_ms: 40.0,
            attempts: 1,
            status: RequestStatus::Completed,
        };
        assert!((o.queue_wait_ms() - 5.0).abs() < 1e-12);
        assert!((o.ttft_ms() - 25.0).abs() < 1e-12);
        assert!((o.decode_tokens_per_s() - 100.0).abs() < 1e-9);
    }

    fn span(request: usize, attempt: usize, kind: ServeTaskKind, lo: f64, hi: f64) -> ServeSpan {
        ServeSpan {
            request,
            attempt,
            label: format!("R{request}"),
            kind,
            processor: Processor::Cpu,
            start_ms: lo,
            end_ms: hi,
            modeled_ms: hi - lo,
        }
    }

    #[test]
    fn interleave_witness_logic() {
        let mut tl = ServeTimeline::default();
        tl.spans.push(ServeSpan {
            request: 1,
            attempt: 0,
            label: "R1-C0-L0-AttnPre".to_owned(),
            kind: ServeTaskKind::PrefillStage {
                chunk: 0,
                layer: 0,
                stage: Stage::AttnPre,
                role: TaskRole::Main,
            },
            processor: Processor::Npu,
            start_ms: 0.0,
            end_ms: 10.0,
            modeled_ms: 10.0,
        });
        // Decode of request 0 strictly after request 1's prefill window:
        // not interleaved.
        tl.spans
            .push(span(0, 0, ServeTaskKind::Decode { step: 0 }, 11.0, 12.0));
        assert!(!tl.decode_interleaved_with_prefill());
        // A decode span inside the window flips the witness — batched
        // spans count too.
        tl.spans.push(span(
            0,
            0,
            ServeTaskKind::DecodeBatch { step: 1, width: 2 },
            4.0,
            6.0,
        ));
        assert!(tl.decode_interleaved_with_prefill());
    }

    #[test]
    fn eviction_witness_logic() {
        let mut tl = ServeTimeline::default();
        tl.spans.push(span(2, 0, ServeTaskKind::Evicted, 5.0, 5.1));
        assert!(!tl.evicted_and_recomputed(2), "no recompute yet");
        tl.spans.push(ServeSpan {
            request: 2,
            attempt: 1,
            label: "R2.1-C0-L0-AttnPre".to_owned(),
            kind: ServeTaskKind::PrefillStage {
                chunk: 0,
                layer: 0,
                stage: Stage::AttnPre,
                role: TaskRole::Main,
            },
            processor: Processor::Npu,
            start_ms: 6.0,
            end_ms: 7.0,
            modeled_ms: 1.0,
        });
        assert!(tl.evicted_and_recomputed(2));
        assert!(!tl.evicted_and_recomputed(0));
    }

    fn reqs(shapes: &[(usize, usize)]) -> Vec<GenerationRequest> {
        shapes
            .iter()
            .map(|&(p, n)| GenerationRequest::new((0..p as u32).collect(), n))
            .collect()
    }

    fn cfg(block_tokens: usize, blocks: usize) -> PoolConfig {
        PoolConfig {
            layers: 2,
            kv_dim: 8,
            block_tokens,
            blocks,
        }
    }

    fn pool(block_tokens: usize, blocks: usize) -> BlockPool {
        BlockPool::new(cfg(block_tokens, blocks)).unwrap()
    }

    #[test]
    fn planner_matches_count_gating_when_pages_ample() {
        // Ample pages: the plan degenerates to the classic
        // `r gates on r - max_active` continuous-batching structure.
        let requests = reqs(&[(8, 4), (8, 4), (8, 4), (8, 4)]);
        let (segs, _, _) = plan_batch(
            &requests,
            &pool(4, 100),
            &PrefixCache::new(4),
            2,
            PressurePolicy::EvictYoungest,
            false,
            1,
            &[],
            None,
        )
        .unwrap();
        assert_eq!(segs.len(), 4);
        assert!(segs.iter().all(|s| !s.evicted));
        assert!(segs[0].gates.is_empty());
        assert!(segs[1].gates.is_empty());
        assert_eq!(segs[2].gates, vec![(0, GateKind::Done)]);
        assert_eq!(segs[3].gates, vec![(1, GateKind::Done)]);
    }

    #[test]
    fn planner_evicts_youngest_and_requeues_with_recompute() {
        // Pool of 6 pages, 4-token pages; each request needs 3 pages
        // (8 + 4 = 12 tokens). Request 2 cannot fit alongside 0 and 1:
        // under EvictYoungest it preempts request 1, which is replanned
        // *after* request 2.
        let requests = reqs(&[(8, 4), (8, 4), (8, 4)]);
        let (segs, _, _) = plan_batch(
            &requests,
            &pool(4, 6),
            &PrefixCache::new(4),
            8,
            PressurePolicy::EvictYoungest,
            false,
            1,
            &[],
            None,
        )
        .unwrap();
        assert_eq!(segs.len(), 4, "one extra incarnation for the victim");
        assert!(segs[1].evicted, "request 1's first incarnation preempted");
        assert_eq!(segs[2].req, 2);
        assert!(
            segs[2].gates.contains(&(1, GateKind::Done)),
            "preemptor waits for the eviction to free pages"
        );
        let requeued = &segs[3];
        assert_eq!((requeued.req, requeued.attempt), (1, 1));
        assert!(!requeued.evicted);
    }

    #[test]
    fn planner_waits_under_wait_policy() {
        let requests = reqs(&[(8, 4), (8, 4), (8, 4)]);
        let (segs, _, _) = plan_batch(
            &requests,
            &pool(4, 6),
            &PrefixCache::new(4),
            8,
            PressurePolicy::Wait,
            false,
            1,
            &[],
            None,
        )
        .unwrap();
        assert_eq!(segs.len(), 3, "no evictions under Wait");
        assert!(segs.iter().all(|s| !s.evicted));
        assert_eq!(segs[2].gates, vec![(0, GateKind::Done)]);
    }

    #[test]
    fn planner_rejects_impossible_requests() {
        let requests = reqs(&[(40, 8)]);
        let err = plan_batch(
            &requests,
            &pool(4, 4),
            &PrefixCache::new(4),
            2,
            PressurePolicy::EvictYoungest,
            false,
            1,
            &[],
            None,
        )
        .unwrap_err();
        assert!(err.to_string().contains("KV pages"));
    }

    #[test]
    fn planner_shares_unaligned_prefixes() {
        // Identical 16-token prompts, 4-token pages → the first 15
        // tokens (leaving ≥1 suffix token, no page alignment required)
        // are reusable from request 0's pending cache pages: 3 full
        // pages ref-shared + a 3-row tail copy from the fourth.
        let mut requests = reqs(&[(16, 4), (16, 4)]);
        requests[1].prompt = requests[0].prompt.clone();
        let (segs, _, shared_blocks) = plan_batch(
            &requests,
            &pool(4, 100),
            &PrefixCache::new(4),
            4,
            PressurePolicy::EvictYoungest,
            true,
            1,
            &[],
            None,
        )
        .unwrap();
        let hit = segs[1]
            .hit
            .as_ref()
            .expect("request 1 reuses request 0's prefix");
        assert_eq!(hit.matched_tokens(), 15);
        assert_eq!(hit.blocks, vec![CachedBlock::Pending(0); 3]);
        assert_eq!(hit.tail, Some((CachedBlock::Pending(0), 3)));
        assert_eq!(shared_blocks, 3, "only full pages are ref-shared");
        assert_eq!(segs[1].reused_pages(), vec![(0, 3)]);
        assert!(segs[1].gates.contains(&(0, GateKind::PrefillDone)));
        assert_eq!(segs[0].readers, vec![1]);
        assert_eq!(segs[0].retained, 4, "all four prompt pages promised");
        assert_eq!(segs[1].retained, 0, "its pages are already promised");
    }

    #[test]
    fn planner_never_preempts_or_reclaims_a_producer_with_readers() {
        // 4-token pages, 6-page pool. R reuses P's two prompt pages; X
        // then needs 3 pages under EvictYoungest.
        let mut requests = reqs(&[(3, 5), (8, 4), (9, 3), (3, 9)]);
        requests[0].prompt = vec![100, 101, 102];
        requests[2].prompt[8] = 50;
        requests[3].prompt = vec![200, 201, 202];
        let (a, p, r) = (0, 1, 2);
        let (segs, _, shared_blocks) = plan_batch(
            &requests,
            &pool(4, 6),
            &PrefixCache::new(4),
            8,
            PressurePolicy::EvictYoungest,
            true,
            1,
            &[],
            None,
        )
        .unwrap();
        // R (youngest) goes first; the next-youngest active is P, which
        // has a reader, so the older A is preempted instead.
        assert!(segs[r].evicted, "reader preempted");
        assert!(
            !segs[p].evicted,
            "a producer with readers is never the victim"
        );
        assert!(segs[a].evicted, "the older bystander is preempted instead");
        // A's re-admission waits for P's release; P's promised pages
        // are not reclaimed to make room, because R still reads them.
        assert_eq!(segs[p].retained, 2, "producer pages never reclaimed");
        let requeued: Vec<&SegmentPlan> = segs.iter().filter(|s| s.attempt == 1).collect();
        assert_eq!(requeued.len(), 2);
        let r2 = requeued.iter().find(|s| s.req == r).unwrap();
        assert!(r2.gates.contains(&(p, GateKind::PrefillDone)));
        assert_eq!(r2.reused_pages(), vec![(p, 2)]);
        assert_eq!(segs[p].readers.len(), 2, "both incarnations of R read P");
        assert_eq!(shared_blocks, 4, "both incarnations of R reuse 2 pages");
    }

    #[test]
    fn planner_reclaims_a_producer_with_readers_as_the_last_resort() {
        // 4-token pages, 6-page pool, Wait policy. R reuses P's two
        // prompt pages; X needs all six. Waiting out P and R frees only
        // four: the last two are P's promised pages, which X takes back
        // once P and R are done — P still publishes them for R.
        let mut requests = reqs(&[(8, 4), (9, 4), (3, 21)]);
        requests[2].prompt = vec![200, 201, 202];
        let (p, r, x) = (0, 1, 2);
        let cache = PrefixCache::new(4);
        let (segs, _, shared_blocks) = plan_batch(
            &requests,
            &pool(4, 6),
            &cache,
            8,
            PressurePolicy::Wait,
            true,
            1,
            &[],
            None,
        )
        .unwrap();
        assert_eq!(segs[r].reused_pages(), vec![(p, 2)]);
        assert_eq!(shared_blocks, 2);
        assert_eq!(segs[x].fresh, 6);
        assert_eq!(segs[x].reclaims, vec![p]);
        assert!(segs[x].gates.contains(&(p, GateKind::Done)));
        assert!(segs[x].gates.contains(&(r, GateKind::Done)));
        assert_eq!(segs[p].retained, 2, "P still publishes for R");
        // Closed for the rest of the round: no later admission reads
        // the pages X evicts.
        assert_eq!(cache.lookup(&requests[r].prompt[..8]).matched_tokens(), 0);
    }

    #[test]
    fn planner_cohorts_respect_width_and_gates() {
        let requests = reqs(&[(8, 4), (8, 4), (8, 4), (8, 4)]);
        // max_active 2 → segment 2 gates Done on 0, breaking its cohort.
        let (segs, cohorts, _) = plan_batch(
            &requests,
            &pool(4, 100),
            &PrefixCache::new(4),
            2,
            PressurePolicy::EvictYoungest,
            false,
            4,
            &[],
            None,
        )
        .unwrap();
        assert_eq!(cohorts, 2);
        assert_eq!(segs[0].cohort, segs[1].cohort);
        assert_ne!(segs[1].cohort, segs[2].cohort);
        assert_eq!(segs[2].cohort, segs[3].cohort);
    }

    #[test]
    fn options_debug_does_not_require_sink_debug() {
        let o = ServeOptions {
            on_token: Some(Arc::new(|_| {})),
            ..ServeOptions::default()
        };
        let s = format!("{o:?}");
        assert!(s.contains("on_token"));
    }
}
