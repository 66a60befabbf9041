//! The numeric out-of-order task executor: runs chunked-prefill DAGs —
//! and, since the serving layer landed, *any* lane-structured task graph
//! (prefill chunks and decode steps of many concurrent requests) —
//! **for real** on the transformer, not just analytically.
//!
//! This is the other half of the unified planes (§3.4): the same
//! [`PrefillDag`] that `crate::exec::schedule` prices on the simulated
//! SoC is executed here with one closure per task over the
//! `Transformer`'s stage functions — quantized main-path projections,
//! shadow-outlier float MatMuls, and the merge/rope/attention stages in
//! between. Tasks are dispatched out-of-order as their dependencies
//! resolve, across one serial *lane* per processor (Equation 4: one task
//! per processor at a time), with the lane loops running on the
//! persistent [`WorkerPool`] so the CPU shadow lane genuinely overlaps
//! the NPU main lane in wall-clock time.
//!
//! # The generic layer
//!
//! The dispatcher itself knows nothing about prefill. It executes a
//! [`LaneGraph`] — tasks with a processor lane, a modeled duration (for
//! the Equation 5 C-value priority), an optional *release time* (a
//! request's arrival: the task may not start earlier), and dependency
//! edges — against one boxed closure per task ([`execute_lane_graph`]).
//! [`execute_chunked_prefill`] is the prefill instantiation;
//! `llmnpu-core`'s continuous-batching scheduler builds a combined
//! graph holding several requests' prefill DAGs *plus their decode
//! chains* and runs it through the same dispatcher, which is how decode
//! steps become first-class tasks on the same lanes as prefill chunks.
//!
//! # Determinism
//!
//! Executed outputs are **bit-identical** to the sequential
//! [`Transformer::prefill_chunked`] at every worker count, every policy,
//! and across repeated runs: each task closure *is* the corresponding
//! stage call of the sequential forward (the sequential path is composed
//! from the same functions), task inputs are fixed by the dependency
//! edges, and the kernel layer is thread-count-invariant. Scheduling
//! order changes only the wall-clock interleaving recorded in the
//! [`ExecutedTimeline`], never a float.
//!
//! # Failure containment
//!
//! [`execute_lane_graph`] is the one entry point, and it is always
//! **fault-contained**: a failing or panicking task becomes a per-task
//! [`TaskOutcome::Failed`] that poisons only its *dependents*
//! ([`TaskOutcome::Skipped`] with [`SkipReason::PoisonedDep`]) — every
//! task not downstream of the failure keeps executing. Tasks flagged as
//! containment *barriers* ([`LaneTask::barrier`]) absorb the poison:
//! they run even when a dependency failed, which is how a request's
//! page-release task is guaranteed on every path. An optional dispatch
//! [`GateFn`] is consulted under the dispatch lock before each task is
//! handed to a lane, so work whose request was cancelled or is past
//! deadline is skipped ([`SkipReason::Gated`]), not run. A caller that
//! wants all-or-nothing semantics maps the first failure itself, as
//! [`execute_chunked_prefill`] does for a single request's prefill.
//!
//! Because a task may panic mid-stage, the data-plane locks here (stage
//! hand-off slots, contiguous KV buffers, paged-KV write slots) recover
//! from poisoning via
//! [`PoisonError::into_inner`](std::sync::PoisonError::into_inner): each
//! guards a plain value slab that a panicking *reader or whole-value
//! writer* cannot leave half-mutated, and a truly torn write only
//! poisons the chain the failed task already poisoned logically. The one
//! lock where poisoning stays fatal is the dispatcher's own bookkeeping
//! mutex — see the field doc on `Dispatcher::state`.

use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use llmnpu_graph::chunk::ChunkPlan;
use llmnpu_graph::dag::{PrefillDag, Task, TaskRole};
use llmnpu_graph::layer::Stage;
use llmnpu_model::forward::{FfnMains, FfnShadows, QkvMains, QkvShadows, Transformer};
use llmnpu_model::kv::{KvCache, PagedKvCache};
use llmnpu_obs::{EventKind, Plane, TraceSink};
use llmnpu_soc::Processor;
use llmnpu_tensor::kernel::parallel::Job;
use llmnpu_tensor::Tensor;

use crate::pool::WorkerPool;
use crate::{Error, Policy, Result};

const EPS: f64 = 1e-9;

/// One executed task, with wall-clock timestamps relative to the start
/// of the run (milliseconds).
#[derive(Debug, Clone)]
pub struct ExecutedTask {
    /// The DAG task's label (matches the simulated timeline's labels).
    pub label: String,
    /// Chunk index.
    pub chunk: usize,
    /// Decoder layer.
    pub layer: usize,
    /// Host stage.
    pub stage: Stage,
    /// Pipeline role (main / shadow / merge).
    pub role: TaskRole,
    /// Lane (processor) the task ran on.
    pub processor: Processor,
    /// Wall-clock start, ms from run start.
    pub start_ms: f64,
    /// Wall-clock end, ms from run start.
    pub end_ms: f64,
}

/// The executed (wall-clock) timeline of one numeric prefill — the
/// measured counterpart of the simulator's analytic timeline.
#[derive(Debug, Clone, Default)]
pub struct ExecutedTimeline {
    tasks: Vec<ExecutedTask>,
}

impl ExecutedTimeline {
    /// All executed tasks, in completion order.
    #[must_use]
    pub fn entries(&self) -> &[ExecutedTask] {
        &self.tasks
    }

    /// Wall-clock completion time of the last task (ms from run start).
    #[must_use]
    pub fn makespan_ms(&self) -> f64 {
        self.tasks.iter().map(|t| t.end_ms).fold(0.0, f64::max)
    }

    /// Total busy time of one lane.
    #[must_use]
    pub fn lane_busy_ms(&self, p: Processor) -> f64 {
        self.tasks
            .iter()
            .filter(|t| t.processor == p)
            .map(|t| t.end_ms - t.start_ms)
            .sum()
    }

    /// Total wall-clock overlap between tasks selected by `a` and tasks
    /// selected by `b` — the direct measurement of "these really ran
    /// concurrently" (e.g. shadow-outlier tasks vs NPU main tasks).
    #[must_use]
    pub fn overlap_ms(
        &self,
        a: impl Fn(&ExecutedTask) -> bool,
        b: impl Fn(&ExecutedTask) -> bool,
    ) -> f64 {
        let xs: Vec<&ExecutedTask> = self.tasks.iter().filter(|t| a(t)).collect();
        let ys: Vec<&ExecutedTask> = self.tasks.iter().filter(|t| b(t)).collect();
        let mut total = 0.0;
        for x in &xs {
            for y in &ys {
                if std::ptr::eq(*x, *y) {
                    continue;
                }
                let lo = x.start_ms.max(y.start_ms);
                let hi = x.end_ms.min(y.end_ms);
                if hi > lo {
                    total += hi - lo;
                }
            }
        }
        total
    }

    /// Cross-checks this executed timeline against the DAG both planes
    /// share: every DAG task ran exactly once, every dependency finished
    /// before its dependent started, and every lane ran one task at a
    /// time.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Exec`] describing the first violation.
    pub fn validate_against(&self, dag: &PrefillDag) -> Result<()> {
        if self.tasks.len() != dag.len() {
            return Err(Error::Exec {
                what: format!("executed {} of {} dag tasks", self.tasks.len(), dag.len()),
            });
        }
        let mut by_label = std::collections::HashMap::new();
        for t in &self.tasks {
            if by_label.insert(t.label.as_str(), t).is_some() {
                return Err(Error::Exec {
                    what: format!("task {} executed twice", t.label),
                });
            }
        }
        for (i, task) in dag.tasks().iter().enumerate() {
            let e = by_label
                .get(task.label.as_str())
                .ok_or_else(|| Error::Exec {
                    what: format!("dag task {} never executed", task.label),
                })?;
            for &d in dag.deps(i) {
                let de = by_label[dag.tasks()[d].label.as_str()];
                if de.end_ms > e.start_ms + EPS {
                    return Err(Error::Exec {
                        what: format!(
                            "{} started at {:.4} before dep {} ended at {:.4}",
                            e.label, e.start_ms, de.label, de.end_ms
                        ),
                    });
                }
            }
        }
        for p in Processor::ALL {
            let mut spans: Vec<(f64, f64)> = self
                .tasks
                .iter()
                .filter(|t| t.processor == p)
                .map(|t| (t.start_ms, t.end_ms))
                .collect();
            // lint: allow(panic) — timestamps come from the validated timeline; NaN is a checker bug
            spans.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite timestamps"));
            for w in spans.windows(2) {
                if w[0].1 > w[1].0 + EPS {
                    return Err(Error::Exec {
                        what: format!("lane {p} ran two tasks at once: {w:?}"),
                    });
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The generic lane graph
// ---------------------------------------------------------------------------

/// One schedulable unit of a [`LaneGraph`]: the dispatcher-facing facts
/// about a task (its numeric body lives in the parallel closure vector).
#[derive(Debug, Clone)]
pub struct LaneTask {
    /// Display label (diagnostics only; need not be unique).
    pub label: String,
    /// The serial lane (processor) this task must run on (Equation 4).
    pub processor: Processor,
    /// Modeled duration, used by the out-of-order policy's Equation 5
    /// C-value — the executor prioritizes with the timing plane's
    /// predictions, exactly as the paper's online scheduler does.
    pub duration_ms: f64,
    /// Earliest wall-clock start, ms from run start (a request's arrival
    /// time in the serving scheduler; 0 for always-available work).
    pub release_ms: f64,
    /// Containment barrier: the task still runs when a dependency failed
    /// or was skipped, instead of being poisoned along with the rest of
    /// the chain. Bookkeeping tasks that must execute on every path —
    /// page releases, evictions, admission gates of *other* requests —
    /// are barriers; numeric tasks, whose inputs genuinely do not exist
    /// after an upstream failure, are not.
    pub barrier: bool,
}

/// A dependency-structured batch of lane tasks — the generic input of
/// [`execute_lane_graph`]. Construction is topological: a task may only
/// depend on already-pushed tasks, which makes cycles unrepresentable.
#[derive(Debug, Clone, Default)]
pub struct LaneGraph {
    tasks: Vec<LaneTask>,
    deps: Vec<Vec<usize>>,
}

impl LaneGraph {
    /// An empty graph.
    #[must_use]
    pub fn new() -> Self {
        LaneGraph::default()
    }

    /// Appends a task depending on the given earlier task ids; returns
    /// the new task's id.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Exec`] if a dependency references this task or a
    /// not-yet-pushed one.
    pub fn push(&mut self, task: LaneTask, deps: Vec<usize>) -> Result<usize> {
        let id = self.tasks.len();
        if let Some(&bad) = deps.iter().find(|&&d| d >= id) {
            return Err(Error::Exec {
                what: format!(
                    "task {id} ({}) depends on non-earlier task {bad}",
                    task.label
                ),
            });
        }
        self.tasks.push(task);
        self.deps.push(deps);
        Ok(id)
    }

    /// All tasks, indexed by id.
    #[must_use]
    pub fn tasks(&self) -> &[LaneTask] {
        &self.tasks
    }

    /// Prerequisites of task `t`.
    #[must_use]
    pub fn deps(&self, t: usize) -> &[usize] {
        &self.deps[t]
    }

    /// Number of tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The distinct lanes present, in fixed NPU/CPU/GPU order.
    #[must_use]
    pub fn lanes(&self) -> Vec<Processor> {
        let mut lanes = Vec::new();
        for p in [Processor::Npu, Processor::Cpu, Processor::Gpu] {
            if self.tasks.iter().any(|t| t.processor == p) {
                lanes.push(p);
            }
        }
        lanes
    }

    /// Translates the graph into the static verifier's structural IR:
    /// same task ids, lanes numbered in the fixed NPU/CPU/GPU order,
    /// every task classified neutrally (no serve-level metadata — the
    /// serving layer enriches its own translation with task classes,
    /// page segments, and KV write sets).
    ///
    /// Structural verification of the result catches dependency damage,
    /// cycles, and infeasible timings; it cannot (by construction)
    /// produce barrier/gate or page findings.
    #[must_use]
    pub fn verify_plan(&self) -> llmnpu_verify::Plan {
        const LANE_ORDER: [Processor; 3] = [Processor::Npu, Processor::Cpu, Processor::Gpu];
        let mut plan = llmnpu_verify::Plan {
            lane_names: LANE_ORDER.iter().map(ToString::to_string).collect(),
            ..llmnpu_verify::Plan::default()
        };
        for (i, task) in self.tasks.iter().enumerate() {
            let lane = LANE_ORDER
                .iter()
                .position(|&p| p == task.processor)
                .unwrap_or(LANE_ORDER.len());
            let mut vt =
                llmnpu_verify::PlanTask::new(task.label.clone(), lane, self.deps[i].clone());
            vt.release_ms = task.release_ms;
            vt.duration_ms = task.duration_ms;
            vt.barrier = task.barrier;
            plan.tasks.push(vt);
        }
        plan
    }

    /// Mirrors a [`PrefillDag`]'s structure (same task ids) with zero
    /// release times.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Exec`] if the DAG is not topologically ordered.
    pub fn from_prefill_dag(dag: &PrefillDag) -> Result<Self> {
        let mut graph = LaneGraph::new();
        for (i, task) in dag.tasks().iter().enumerate() {
            graph.push(
                LaneTask {
                    label: task.label.clone(),
                    processor: task.processor,
                    duration_ms: task.duration_ms,
                    release_ms: 0.0,
                    barrier: false,
                },
                dag.deps(i).to_vec(),
            )?;
        }
        Ok(graph)
    }
}

/// Result of executing a chunked prefill through the DAG runner.
#[derive(Debug)]
pub struct NumericPrefill {
    /// Final hidden states `[prompt_len, hidden]`, row-concatenated in
    /// chunk order — bit-identical to `Transformer::prefill_chunked`.
    pub hidden: Tensor<f32>,
    /// The populated KV cache, ready for decode.
    pub cache: KvCache,
    /// The measured execution timeline.
    pub timeline: ExecutedTimeline,
}

/// Per-chunk activation slots flowing between stage tasks. A chunk's
/// stages form a dependency chain, so at most one task touches a slot
/// at a time; the mutexes exist for `Sync`, not for contention.
struct ChunkSlots {
    h: Mutex<Tensor<f32>>,
    a_in: Mutex<Option<std::sync::Arc<Tensor<f32>>>>,
    q: Mutex<Option<Tensor<f32>>>,
    attn: Mutex<Option<Tensor<f32>>>,
    f_in: Mutex<Option<std::sync::Arc<Tensor<f32>>>>,
    qkv_mains: Mutex<Option<QkvMains>>,
    qkv_shadows: Mutex<Option<QkvShadows>>,
    ffn_mains: Mutex<Option<FfnMains>>,
    ffn_shadows: Mutex<Option<FfnShadows>>,
}

/// Position-addressed K/V storage for one layer: chunk `c` writes rows
/// `[c·chunk_len, c·chunk_len + len_c)`, so append *order* across
/// out-of-order chunks cannot matter — the dependency edges only have to
/// guarantee the rows are present before attention reads them, which is
/// exactly Equation 2.
struct LayerKvBuf {
    k: Mutex<Vec<f32>>,
    v: Mutex<Vec<f32>>,
}

/// Where a prefill program's K/V rows go (and attention reads from).
///
/// `Buffered` is the classic single-request path: private per-layer
/// buffers, later assembled into a contiguous [`KvCache`]. `Paged`
/// writes straight into a request's [`PagedKvCache`] — shared-pool
/// pages behind a block table — which is how the serving scheduler
/// runs prefill: the slot is `None` until the request's admission task
/// reserves its pages, and the dependency edges guarantee admission
/// precedes every write. Both paths address **absolute** positions, so
/// out-of-order chunk completion cannot reorder either cache.
pub enum KvSink<'t> {
    /// Private per-layer buffers; `assemble_cache` is available.
    Buffered,
    /// A request's paged cache, reserved at admission time by the
    /// serving scheduler.
    Paged(&'t Mutex<Option<PagedKvCache>>),
}

enum KvStore<'t> {
    Buffered(Vec<LayerKvBuf>),
    Paged(&'t Mutex<Option<PagedKvCache>>),
}

struct ExecCtx<'t, 'w> {
    t: &'t Transformer<'w>,
    chunks: Vec<ChunkSlots>,
    store: KvStore<'t>,
    /// `(token_start, token_len)` per chunk, **absolute** positions
    /// (token_start includes `base_pos`; last chunk may be short).
    bounds: Vec<(usize, usize)>,
    kv_dim: usize,
    /// Tokens this program computes (the suffix length when resuming
    /// after a shared prefix; `bounds` already folds the base offset
    /// into every start position).
    prompt_len: usize,
}

impl ExecCtx<'_, '_> {
    fn write_kv(
        &self,
        layer: usize,
        chunk: usize,
        k: &Tensor<f32>,
        v: &Tensor<f32>,
    ) -> std::result::Result<(), String> {
        let (start, len) = self.bounds[chunk];
        match &self.store {
            KvStore::Buffered(bufs) => {
                let lo = start * self.kv_dim;
                let hi = (start + len) * self.kv_dim;
                bufs[layer].k.lock().unwrap_or_else(PoisonError::into_inner)[lo..hi]
                    .copy_from_slice(k.as_slice());
                bufs[layer].v.lock().unwrap_or_else(PoisonError::into_inner)[lo..hi]
                    .copy_from_slice(v.as_slice());
            }
            KvStore::Paged(slot) => {
                let mut guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
                let cache = guard.as_mut().ok_or("kv pages not reserved before write")?;
                for r in 0..len {
                    cache
                        .write_position(layer, start + r, k.row(r), v.row(r))
                        .map_err(|e| e.to_string())?;
                }
            }
        }
        Ok(())
    }

    fn read_kv(
        &self,
        bufs: &[LayerKvBuf],
        layer: usize,
        visible_rows: usize,
    ) -> std::result::Result<(Tensor<f32>, Tensor<f32>), String> {
        let hi = visible_rows * self.kv_dim;
        let k = Tensor::from_vec(
            bufs[layer].k.lock().unwrap_or_else(PoisonError::into_inner)[..hi].to_vec(),
            [visible_rows, self.kv_dim],
        )
        .map_err(|e| format!("kv key shape: {e}"))?;
        let v = Tensor::from_vec(
            bufs[layer].v.lock().unwrap_or_else(PoisonError::into_inner)[..hi].to_vec(),
            [visible_rows, self.kv_dim],
        )
        .map_err(|e| format!("kv value shape: {e}"))?;
        Ok((k, v))
    }

    /// Attention over everything visible to `chunk` (Equation 2: all
    /// positions through the chunk's end), from whichever store holds
    /// the rows.
    fn attention(
        &self,
        layer: usize,
        chunk: usize,
        q: &Tensor<f32>,
    ) -> std::result::Result<Tensor<f32>, String> {
        let (start, len) = self.bounds[chunk];
        let visible = start + len;
        let start_pos = start;
        match &self.store {
            KvStore::Buffered(bufs) => {
                let (keys, values) = self.read_kv(bufs, layer, visible)?;
                self.t
                    .stage_attention(q, &keys, &values, start_pos)
                    .map_err(|e| e.to_string())
            }
            KvStore::Paged(slot) => {
                // Snapshot the block table and drop the slot lock
                // before the page walk: attention is the long pole, and
                // holding the owner's mutex across it would serialize
                // this request's independent stage tasks.
                let reader = {
                    let guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
                    guard
                        .as_ref()
                        .ok_or("kv pages not reserved before read")?
                        .reader()
                };
                self.t
                    .stage_attention_reader(layer, q, &reader, visible, start_pos)
                    .map_err(|e| e.to_string())
            }
        }
    }
}

/// The executable body of one lane task. The returned error string is
/// surfaced as [`Error::Exec`] by the dispatcher.
pub type TaskFn<'run> = Box<dyn FnOnce() -> std::result::Result<(), String> + Send + 'run>;

fn take<T>(slot: &Mutex<Option<T>>, what: &str) -> std::result::Result<T, String> {
    slot.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
        .ok_or_else(|| format!("missing {what} input"))
}

/// Builds the executable closure for one DAG task.
fn task_closure<'run>(ctx: &'run ExecCtx<'_, '_>, task: &Task, split: bool) -> TaskFn<'run> {
    let chunk = task.chunk;
    let layer = task.layer;
    let stage = task.stage;
    let role = task.role;
    Box::new(move || {
        let t = ctx.t;
        let slots = &ctx.chunks[chunk];
        let (start_pos, _len) = ctx.bounds[chunk];
        let err = |e: llmnpu_model::Error| e.to_string();
        match (role, stage) {
            (TaskRole::Main, Stage::AttnPre) => {
                let a_in = {
                    let h = slots.h.lock().unwrap_or_else(PoisonError::into_inner);
                    t.stage_attn_pre(layer, &h).map_err(err)?
                };
                *slots.a_in.lock().unwrap_or_else(PoisonError::into_inner) =
                    Some(std::sync::Arc::new(a_in));
            }
            (TaskRole::Main, Stage::QkvLinear) => {
                let a_in = slots
                    .a_in
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone()
                    .ok_or("missing a_in input")?;
                if split {
                    // Shadow task attached: compute the quantized mains
                    // only; the merge task finishes the stage.
                    let mains = t.stage_qkv_main(layer, &a_in).map_err(err)?;
                    *slots
                        .qkv_mains
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner) = Some(mains);
                } else {
                    let (q, k, v) = t.stage_qkv(layer, &a_in, start_pos).map_err(err)?;
                    *slots.a_in.lock().unwrap_or_else(PoisonError::into_inner) = None;
                    ctx.write_kv(layer, chunk, &k, &v)?;
                    *slots.q.lock().unwrap_or_else(PoisonError::into_inner) = Some(q);
                }
            }
            (TaskRole::Shadow, Stage::QkvLinear) => {
                let a_in = slots
                    .a_in
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone()
                    .ok_or("missing a_in input")?;
                let shadows = t.stage_qkv_shadow(layer, &a_in).map_err(err)?;
                *slots
                    .qkv_shadows
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner) = Some(shadows);
            }
            (TaskRole::MergeSync, Stage::QkvLinear) => {
                let mains = take(&slots.qkv_mains, "qkv mains")?;
                let shadows = take(&slots.qkv_shadows, "qkv shadows")?;
                let (q, k, v) = t.stage_qkv_finish(mains, shadows, start_pos).map_err(err)?;
                *slots.a_in.lock().unwrap_or_else(PoisonError::into_inner) = None;
                ctx.write_kv(layer, chunk, &k, &v)?;
                *slots.q.lock().unwrap_or_else(PoisonError::into_inner) = Some(q);
            }
            (TaskRole::Main, Stage::Attention) => {
                let q = take(&slots.q, "q")?;
                // Equation 2's visibility: all positions through this
                // chunk's end (including any shared prefix before
                // base_pos), from whichever store holds the rows.
                let attn = ctx.attention(layer, chunk, &q)?;
                *slots.attn.lock().unwrap_or_else(PoisonError::into_inner) = Some(attn);
            }
            (TaskRole::Main, Stage::OProj) => {
                let attn = take(&slots.attn, "attention output")?;
                let mut h = slots.h.lock().unwrap_or_else(PoisonError::into_inner);
                *h = t.stage_attn_out(layer, &h, &attn).map_err(err)?;
            }
            (TaskRole::Main, Stage::FfnPre) => {
                let f_in = {
                    let h = slots.h.lock().unwrap_or_else(PoisonError::into_inner);
                    t.stage_ffn_pre(layer, &h).map_err(err)?
                };
                *slots.f_in.lock().unwrap_or_else(PoisonError::into_inner) =
                    Some(std::sync::Arc::new(f_in));
            }
            (TaskRole::Main, Stage::Ffn) => {
                let f_in = slots
                    .f_in
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone()
                    .ok_or("missing f_in input")?;
                if split {
                    let mains = t.stage_ffn_mid_main(layer, &f_in).map_err(err)?;
                    *slots
                        .ffn_mains
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner) = Some(mains);
                } else {
                    let mid = t.stage_ffn_mid(layer, &f_in).map_err(err)?;
                    *slots.f_in.lock().unwrap_or_else(PoisonError::into_inner) = None;
                    let mut h = slots.h.lock().unwrap_or_else(PoisonError::into_inner);
                    *h = t.stage_ffn_down(layer, &h, &mid).map_err(err)?;
                }
            }
            (TaskRole::Shadow, Stage::Ffn) => {
                let f_in = slots
                    .f_in
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone()
                    .ok_or("missing f_in input")?;
                let shadows = t.stage_ffn_mid_shadow(layer, &f_in).map_err(err)?;
                *slots
                    .ffn_shadows
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner) = Some(shadows);
            }
            (TaskRole::MergeSync, Stage::Ffn) => {
                let mains = take(&slots.ffn_mains, "ffn mains")?;
                let shadows = take(&slots.ffn_shadows, "ffn shadows")?;
                let mid = t.stage_ffn_mid_finish(mains, shadows).map_err(err)?;
                *slots.f_in.lock().unwrap_or_else(PoisonError::into_inner) = None;
                let mut h = slots.h.lock().unwrap_or_else(PoisonError::into_inner);
                *h = t.stage_ffn_down(layer, &h, &mid).map_err(err)?;
            }
            (role, stage) => {
                return Err(format!("unexecutable task: {role:?} on {stage:?}"));
            }
        }
        Ok(())
    })
}

/// One request's prefill, prepared for execution: the per-chunk
/// activation slots, position-addressed KV buffers, and the mapping from
/// DAG tasks to stage closures.
///
/// [`execute_chunked_prefill`] drives one of these through the
/// dispatcher on its own; the serving scheduler in `llmnpu-core`
/// prepares one per admitted request and splices all their closures into
/// a single combined [`LaneGraph`] together with decode tasks.
pub struct PrefillProgram<'t, 'w> {
    ctx: ExecCtx<'t, 'w>,
    /// (layer, stage) pairs with a shadow task attached: their main
    /// tasks compute pre-merge halves only.
    split: std::collections::HashSet<(usize, Stage)>,
}

impl<'t, 'w> PrefillProgram<'t, 'w> {
    /// Validates the DAG/plan/model agreement and seeds the per-chunk
    /// slots with the embedded hidden states. K/V rows go to private
    /// buffers ([`PrefillProgram::assemble_cache`] is available).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Exec`] on a plan/DAG/model mismatch.
    pub fn new(
        t: &'t Transformer<'w>,
        tokens: &[u32],
        dag: &PrefillDag,
        plan: &ChunkPlan,
    ) -> Result<Self> {
        Self::with_sink(t, tokens, dag, plan, 0, KvSink::Buffered)
    }

    /// A prefill program writing K/V into a **paged** cache slot,
    /// starting at absolute position `base_pos` (non-zero when `tokens`
    /// is the suffix after a shared, already-cached prompt prefix). The
    /// slot is filled by the serving scheduler's admission task; every
    /// DAG task that touches K/V must depend (transitively) on it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Exec`] on a plan/DAG/model mismatch.
    pub fn new_paged(
        t: &'t Transformer<'w>,
        tokens: &[u32],
        dag: &PrefillDag,
        plan: &ChunkPlan,
        base_pos: usize,
        slot: &'t Mutex<Option<PagedKvCache>>,
    ) -> Result<Self> {
        Self::with_sink(t, tokens, dag, plan, base_pos, KvSink::Paged(slot))
    }

    /// Shared constructor body behind the two public entry points.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Exec`] on a plan/DAG/model mismatch.
    pub fn with_sink(
        t: &'t Transformer<'w>,
        tokens: &[u32],
        dag: &PrefillDag,
        plan: &ChunkPlan,
        base_pos: usize,
        sink: KvSink<'t>,
    ) -> Result<Self> {
        if base_pos != 0 && matches!(sink, KvSink::Buffered) {
            return Err(Error::Exec {
                what: "buffered prefill cannot resume at a non-zero base position".to_owned(),
            });
        }
        if tokens.len() != plan.prompt_len {
            return Err(Error::Exec {
                what: format!(
                    "plan is for {} tokens, got {}",
                    plan.prompt_len,
                    tokens.len()
                ),
            });
        }
        let cfg = t.config();
        if let Some(bad) = dag.tasks().iter().find(|task| task.layer >= cfg.layers) {
            return Err(Error::Exec {
                what: format!(
                    "dag task {} references layer {} of a {}-layer model",
                    bad.label, bad.layer, cfg.layers
                ),
            });
        }
        dag.validate().map_err(|e| Error::Exec {
            what: format!("invalid dag: {e}"),
        })?;

        let split: std::collections::HashSet<(usize, Stage)> = dag
            .tasks()
            .iter()
            .filter(|task| task.role == TaskRole::Shadow)
            .map(|task| (task.layer, task.stage))
            .collect();

        let chunk_len = plan.chunk_len;
        let mut bounds = Vec::with_capacity(plan.chunks);
        let mut chunks = Vec::with_capacity(plan.chunks);
        for (c, chunk_tokens) in tokens.chunks(chunk_len).enumerate() {
            bounds.push((base_pos + c * chunk_len, chunk_tokens.len()));
            chunks.push(ChunkSlots {
                h: Mutex::new(t.embed(chunk_tokens).map_err(exec_err)?),
                a_in: Mutex::new(None),
                q: Mutex::new(None),
                attn: Mutex::new(None),
                f_in: Mutex::new(None),
                qkv_mains: Mutex::new(None),
                qkv_shadows: Mutex::new(None),
                ffn_mains: Mutex::new(None),
                ffn_shadows: Mutex::new(None),
            });
        }
        if bounds.len() != plan.chunks {
            return Err(Error::Exec {
                what: format!(
                    "plan expects {} chunks, tokens produce {}",
                    plan.chunks,
                    bounds.len()
                ),
            });
        }
        let kv_dim = cfg.kv_dim();
        let store = match sink {
            KvSink::Buffered => KvStore::Buffered(
                (0..cfg.layers)
                    .map(|_| LayerKvBuf {
                        k: Mutex::new(vec![0.0; tokens.len() * kv_dim]),
                        v: Mutex::new(vec![0.0; tokens.len() * kv_dim]),
                    })
                    .collect(),
            ),
            KvSink::Paged(slot) => KvStore::Paged(slot),
        };
        Ok(PrefillProgram {
            ctx: ExecCtx {
                t,
                chunks,
                store,
                bounds,
                kv_dim,
                prompt_len: tokens.len(),
            },
            split,
        })
    }

    /// Builds one executable closure per DAG task (same indices as
    /// `dag.tasks()`). The closures borrow this program, so it must
    /// outlive the execution.
    #[must_use]
    pub fn closures<'run>(&'run self, dag: &PrefillDag) -> Vec<TaskFn<'run>> {
        dag.tasks()
            .iter()
            .map(|task| {
                let is_split = self.split.contains(&(task.layer, task.stage));
                task_closure(&self.ctx, task, is_split)
            })
            .collect()
    }

    /// Assembles the final hidden states `[prompt_len, hidden]` in chunk
    /// order (valid once every task has run).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Exec`] on a shape inconsistency.
    pub fn assemble_hidden(&self) -> Result<Tensor<f32>> {
        let hidden_w = self.ctx.t.config().hidden;
        let mut out = Vec::with_capacity(self.ctx.prompt_len * hidden_w);
        for slots in &self.ctx.chunks {
            out.extend_from_slice(
                slots
                    .h
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .as_slice(),
            );
        }
        Tensor::from_vec(out, [self.ctx.prompt_len, hidden_w]).map_err(|e| Error::Exec {
            what: format!("hidden assembly: {e}"),
        })
    }

    /// The last token's hidden state as a `[1, hidden]` tensor — the
    /// LM-head input of the first decode step.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Exec`] on a shape inconsistency.
    pub fn last_hidden_row(&self) -> Result<Tensor<f32>> {
        let hidden_w = self.ctx.t.config().hidden;
        let last = self.ctx.chunks.last().ok_or(Error::Exec {
            what: "empty prefill program".to_owned(),
        })?;
        let h = last.h.lock().unwrap_or_else(PoisonError::into_inner);
        let (rows, _) = h.matrix_dims();
        Tensor::from_vec(h.row(rows - 1).to_vec(), [1, hidden_w]).map_err(|e| Error::Exec {
            what: format!("last hidden row: {e}"),
        })
    }

    /// Assembles the populated KV cache (valid once every task has run)
    /// — bit-identical to the cache `Transformer::prefill_chunked`
    /// produces.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Exec`] on a shape inconsistency.
    pub fn assemble_cache(&self) -> Result<KvCache> {
        let cfg = self.ctx.t.config();
        let KvStore::Buffered(bufs) = &self.ctx.store else {
            return Err(Error::Exec {
                what: "paged prefill keeps its cache in the pool; nothing to assemble".to_owned(),
            });
        };
        let mut cache = KvCache::new(cfg.layers);
        for (layer, buf) in bufs.iter().enumerate() {
            let k = Tensor::from_vec(
                buf.k.lock().unwrap_or_else(PoisonError::into_inner).clone(),
                [self.ctx.prompt_len, self.ctx.kv_dim],
            )
            .map_err(|e| Error::Exec {
                what: format!("kv assembly: {e}"),
            })?;
            let v = Tensor::from_vec(
                buf.v.lock().unwrap_or_else(PoisonError::into_inner).clone(),
                [self.ctx.prompt_len, self.ctx.kv_dim],
            )
            .map_err(|e| Error::Exec {
                what: format!("kv assembly: {e}"),
            })?;
            cache
                .layer_mut(layer)
                .map_err(exec_err)?
                .append(&k, &v)
                .map_err(exec_err)?;
        }
        Ok(cache)
    }
}

/// Why a run skipped a task without executing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// A (transitive) dependency failed or was itself skipped, so the
    /// task's inputs will never exist.
    PoisonedDep,
    /// The dispatch gate refused the task — its request was cancelled or
    /// past its deadline at dispatch time.
    Gated,
}

/// Terminal state of one task after [`execute_lane_graph`].
#[derive(Debug, Clone)]
pub enum TaskOutcome {
    /// Ran to completion; timestamps are ms from run start.
    Completed {
        /// Wall-clock start.
        start_ms: f64,
        /// Wall-clock end.
        end_ms: f64,
    },
    /// Ran and failed — the closure returned an error or panicked. Only
    /// the task's non-barrier dependents were poisoned; everything else
    /// kept executing.
    Failed {
        /// Wall-clock start.
        start_ms: f64,
        /// Wall-clock end (when the failure was recorded).
        end_ms: f64,
        /// The closure's error string (or a panic notice).
        error: String,
    },
    /// Never ran.
    Skipped {
        /// When the skip was decided, ms from run start.
        at_ms: f64,
        /// Why the dispatcher refused it.
        reason: SkipReason,
    },
}

impl TaskOutcome {
    /// The executed wall-clock span, if the task actually ran.
    #[must_use]
    pub fn span(&self) -> Option<(f64, f64)> {
        match *self {
            TaskOutcome::Completed { start_ms, end_ms }
            | TaskOutcome::Failed {
                start_ms, end_ms, ..
            } => Some((start_ms, end_ms)),
            TaskOutcome::Skipped { .. } => None,
        }
    }

    /// Whether the task ran to completion.
    #[must_use]
    pub fn is_completed(&self) -> bool {
        matches!(self, TaskOutcome::Completed { .. })
    }

    /// The failure message, if the task failed.
    #[must_use]
    pub fn error(&self) -> Option<&str> {
        match self {
            TaskOutcome::Failed { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// A dispatch-time gate, consulted under the dispatch lock for every
/// dependency-ready task before it can be handed to a lane:
/// `gate(task_id, now_ms)` returning `true` skips the task
/// ([`SkipReason::Gated`]) and poisons its non-barrier dependents. The
/// serving layer uses this for release-aware cancellation and deadline
/// checks — a task whose request is already terminal is never run. Must
/// be cheap: it runs with the dispatch lock held.
pub type GateFn<'run> = Box<dyn Fn(usize, f64) -> bool + Send + Sync + 'run>;

/// Shared dispatch state for the lane loops.
struct DispatchState {
    scheduled: Vec<bool>,
    done: Vec<bool>,
    remaining: usize,
    in_flight: usize,
    aborted: bool,
    error: Option<String>,
    outcomes: Vec<Option<TaskOutcome>>,
}

struct Dispatcher<'d> {
    graph: &'d LaneGraph,
    successors: Vec<Vec<usize>>,
    policy: Policy,
    gate: Option<GateFn<'d>>,
    /// The dispatcher's own bookkeeping mutex (`state`) is the one lock
    /// in this module where poisoning IS fatal: closures run *outside*
    /// it, so it can only be poisoned by a panic inside the dispatcher's
    /// own accounting — and `scheduled`/`remaining`/`in_flight`
    /// invariants cannot be re-validated after a partial update. Every
    /// `.expect("dispatch mutex")` below is deliberate.
    state: Mutex<DispatchState>,
    cv: Condvar,
    started: Instant,
    /// Optional trace recorder for dispatch/completion/skip events
    /// (Exec plane: emission order follows the live interleaving).
    sink: Option<&'d TraceSink>,
}

impl<'d> Dispatcher<'d> {
    fn new(
        graph: &'d LaneGraph,
        policy: Policy,
        gate: Option<GateFn<'d>>,
        sink: Option<&'d TraceSink>,
    ) -> Self {
        let n = graph.len();
        let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n];
        for t in 0..n {
            for &d in graph.deps(t) {
                successors[d].push(t);
            }
        }
        Dispatcher {
            graph,
            successors,
            policy,
            gate,
            state: Mutex::new(DispatchState {
                scheduled: vec![false; n],
                done: vec![false; n],
                remaining: n,
                in_flight: 0,
                aborted: false,
                error: None,
                outcomes: vec![None; n],
            }),
            cv: Condvar::new(),
            started: Instant::now(),
            sink,
        }
    }

    /// Emit an Exec-plane event for task `t` when tracing is on.
    fn trace_task(&self, kind: EventKind, t: usize, wall_ms: f64, note: &str) {
        if let Some(sink) = self.sink {
            let task = &self.graph.tasks()[t];
            sink.event_at(Plane::Exec, kind, None, wall_ms, || {
                if note.is_empty() {
                    format!("{} on {}", task.label, task.processor)
                } else {
                    format!("{} on {} ({note})", task.label, task.processor)
                }
            });
        }
    }

    /// Dependency-readiness (release times not considered).
    fn deps_done(&self, st: &DispatchState, t: usize) -> bool {
        self.graph.deps(t).iter().all(|&d| st.done[d])
    }

    /// Dispatchability at wall-clock `now`: deps done *and* released.
    fn ready(&self, st: &DispatchState, t: usize, now: f64) -> bool {
        self.graph.tasks()[t].release_ms <= now + EPS && self.deps_done(st, t)
    }

    /// Any task dep-ready on any lane (released or not)?
    fn any_deps_done(&self, st: &DispatchState) -> bool {
        (0..self.graph.len()).any(|t| !st.scheduled[t] && self.deps_done(st, t))
    }

    /// Milliseconds until the earliest pending release among dep-ready
    /// tasks, or `None` when every dep-ready task is already released.
    fn next_release_in(&self, st: &DispatchState, now: f64) -> Option<f64> {
        (0..self.graph.len())
            .filter(|&t| !st.scheduled[t] && self.deps_done(st, t))
            .map(|t| self.graph.tasks()[t].release_ms - now)
            .filter(|&dt| dt > EPS)
            .fold(None, |acc, dt| Some(acc.map_or(dt, |a: f64| a.min(dt))))
    }

    /// Equation 5's C-value over boolean completion state: successors
    /// that become ready once `g` completes, weighted by their *modeled*
    /// duration (the executor prioritizes with the timing plane's
    /// predictions, exactly as the paper's online scheduler does).
    fn c_value(&self, st: &DispatchState, g: usize) -> f64 {
        let tasks = self.graph.tasks();
        let mut total = 0.0;
        for &s in &self.successors[g] {
            if st.scheduled[s] {
                continue;
            }
            let others_ready = self.graph.deps(s).iter().all(|&d| d == g || st.done[d]);
            if others_ready {
                total += tasks[s].duration_ms;
            }
        }
        if tasks[g].processor == Processor::Npu {
            -total
        } else {
            total
        }
    }

    /// Picks the next task for lane `p` under the policy, or `None`.
    fn pick(&self, st: &DispatchState, p: Processor, now: f64) -> Option<usize> {
        let tasks = self.graph.tasks();
        match self.policy {
            Policy::Serial => {
                let next = st.scheduled.iter().position(|&s| !s)?;
                (tasks[next].processor == p && self.ready(st, next, now) && st.in_flight == 0)
                    .then_some(next)
            }
            Policy::FifoQueues => {
                let head =
                    (0..tasks.len()).find(|&t| !st.scheduled[t] && tasks[t].processor == p)?;
                self.ready(st, head, now).then_some(head)
            }
            Policy::OutOfOrder => {
                let mut best: Option<(f64, usize)> = None;
                for (t, task) in tasks.iter().enumerate() {
                    if st.scheduled[t] || task.processor != p || !self.ready(st, t, now) {
                        continue;
                    }
                    let c = self.c_value(st, t);
                    let better = match best {
                        None => true,
                        Some((bc, bt)) => c > bc + EPS || ((c - bc).abs() <= EPS && t < bt),
                    };
                    if better {
                        best = Some((c, t));
                    }
                }
                best.map(|(_, t)| t)
            }
        }
    }

    fn now_ms(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e3
    }

    /// Marks every not-yet-scheduled, non-barrier transitive dependent
    /// of `t` as skipped ([`SkipReason::PoisonedDep`]). Barrier tasks
    /// stop the cascade: they still run (cleanup paths must execute even
    /// when the work they clean up after failed), and their own
    /// dependents are reached through them only if they fail too.
    fn poison_dependents(&self, st: &mut DispatchState, t: usize, at_ms: f64) {
        let tasks = self.graph.tasks();
        let mut stack: Vec<usize> = self.successors[t].clone();
        while let Some(s) = stack.pop() {
            if st.scheduled[s] || tasks[s].barrier {
                continue;
            }
            st.scheduled[s] = true;
            st.done[s] = true;
            st.remaining -= 1;
            st.outcomes[s] = Some(TaskOutcome::Skipped {
                at_ms,
                reason: SkipReason::PoisonedDep,
            });
            self.trace_task(EventKind::TaskSkipped, s, at_ms, "poisoned dep");
            stack.extend(self.successors[s].iter().copied());
        }
    }

    /// Applies the dispatch gate: every unscheduled task whose
    /// dependencies are settled is offered to the gate; a `true` verdict
    /// skips it ([`SkipReason::Gated`]) — regardless of its release
    /// time, so cancelled queued work is retired immediately — and
    /// poisons its non-barrier dependents. Returns whether
    /// anything changed, in which case the caller must wake the other
    /// lanes (a barrier may have become ready elsewhere).
    fn apply_gate(&self, st: &mut DispatchState, now: f64) -> bool {
        let Some(gate) = self.gate.as_deref() else {
            return false;
        };
        let mut changed = false;
        let mut t = 0;
        while t < self.graph.len() {
            if !st.scheduled[t] && self.deps_done(st, t) && gate(t, now) {
                st.scheduled[t] = true;
                st.done[t] = true;
                st.remaining -= 1;
                st.outcomes[t] = Some(TaskOutcome::Skipped {
                    at_ms: now,
                    reason: SkipReason::Gated,
                });
                self.trace_task(EventKind::TaskSkipped, t, now, "gated");
                self.poison_dependents(st, t, now);
                changed = true;
                // A skip settles deps, which can expose earlier-indexed
                // tasks to the gate: rescan from the top.
                t = 0;
            } else {
                t += 1;
            }
        }
        changed
    }

    /// Runs one task inline, recording timestamps and completion. A
    /// panicking closure is converted into a task failure, which poisons
    /// only the task's non-barrier dependency chain; everything else
    /// keeps executing.
    fn run_task(&self, closures: &[Mutex<Option<TaskFn<'_>>>], t: usize) {
        let closure = closures[t]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            // lint: allow(panic) — `scheduled[t]` under the dispatch lock makes double dispatch unreachable
            .expect("task dispatched twice");
        let t0 = self.now_ms();
        self.trace_task(EventKind::Dispatch, t, t0, "");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(closure))
            .unwrap_or_else(|payload| {
                // Preserve the payload text (fault injection and asserts
                // carry their diagnosis there) — `task N panicked` alone
                // is useless to the caller attributing the failure.
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque payload".to_string());
                Err(format!("task {t} panicked: {msg}"))
            });
        let t1 = self.now_ms();
        // lint: allow(panic) — task panics are caught before this lock, so poisoning is unreachable
        let mut st = self.state.lock().expect("dispatch mutex");
        st.done[t] = true;
        st.remaining -= 1;
        st.in_flight -= 1;
        match result {
            Ok(()) => {
                st.outcomes[t] = Some(TaskOutcome::Completed {
                    start_ms: t0,
                    end_ms: t1,
                });
                self.trace_task(EventKind::TaskDone, t, t1, "");
            }
            Err(e) => {
                st.outcomes[t] = Some(TaskOutcome::Failed {
                    start_ms: t0,
                    end_ms: t1,
                    error: e.clone(),
                });
                self.trace_task(EventKind::TaskFailed, t, t1, &e);
                self.poison_dependents(&mut st, t, t1);
            }
        }
        drop(st);
        self.cv.notify_all();
    }

    /// The blocking lane loop for processor `p` (one OS thread per lane).
    fn lane_loop(&self, closures: &[Mutex<Option<TaskFn<'_>>>], p: Processor) {
        loop {
            let picked = {
                // lint: allow(panic) — task panics are caught before this lock, so poisoning is unreachable
                let mut st = self.state.lock().expect("dispatch mutex");
                loop {
                    if st.aborted || st.remaining == 0 {
                        return;
                    }
                    let now = self.now_ms();
                    if self.apply_gate(&mut st, now) {
                        self.cv.notify_all();
                        continue;
                    }
                    if let Some(t) = self.pick(&st, p, now) {
                        st.scheduled[t] = true;
                        st.in_flight += 1;
                        break t;
                    }
                    // A dep-ready task may just be awaiting its release
                    // (request arrival): sleep until then, not forever.
                    let pending_release = self.next_release_in(&st, now);
                    if st.in_flight == 0 && !self.any_deps_done(&st) && pending_release.is_none() {
                        st.aborted = true;
                        st.error
                            .get_or_insert_with(|| "dispatch deadlock".to_owned());
                        drop(st);
                        self.cv.notify_all();
                        return;
                    }
                    st = match pending_release {
                        Some(wait_ms) => {
                            let timeout = Duration::from_secs_f64((wait_ms / 1e3).max(1e-5));
                            // lint: allow(panic) — condvar wait only errs on a poisoned lock, unreachable here
                            self.cv.wait_timeout(st, timeout).expect("dispatch mutex").0
                        }
                        // lint: allow(panic) — condvar wait only errs on a poisoned lock, unreachable here
                        None => self.cv.wait(st).expect("dispatch mutex"),
                    };
                }
            };
            self.run_task(closures, picked);
        }
    }

    /// Single-threaded fallback: interleaves the lanes in NPU-first
    /// order on the calling thread. Numerically identical to the
    /// concurrent dispatcher; only the wall-clock overlap is lost.
    fn sequential(&self, closures: &[Mutex<Option<TaskFn<'_>>>], lanes: &[Processor]) -> bool {
        loop {
            let picked = {
                // lint: allow(panic) — task panics are caught before this lock, so poisoning is unreachable
                let mut st = self.state.lock().expect("dispatch mutex");
                if st.aborted || st.remaining == 0 {
                    return true;
                }
                let now = self.now_ms();
                if self.apply_gate(&mut st, now) {
                    continue;
                }
                let mut found = None;
                for &p in lanes {
                    if let Some(t) = self.pick(&st, p, now) {
                        st.scheduled[t] = true;
                        st.in_flight += 1;
                        found = Some(t);
                        break;
                    }
                }
                match found {
                    Some(found) => found,
                    None => {
                        // Nothing dispatchable right now: if something is
                        // only waiting on its release time, sleep it in;
                        // otherwise the graph is stuck.
                        let Some(wait_ms) = self.next_release_in(&st, now) else {
                            st.aborted = true;
                            st.error
                                .get_or_insert_with(|| "dispatch deadlock".to_owned());
                            return false;
                        };
                        drop(st);
                        std::thread::sleep(Duration::from_secs_f64((wait_ms / 1e3).max(1e-5)));
                        continue;
                    }
                }
            };
            self.run_task(closures, picked);
        }
    }
}

/// Executes a [`LaneGraph`] — one closure per task — out-of-order across
/// per-processor serial lanes on the persistent pool, honoring release
/// times and the scheduling policy, with request-level fault
/// containment: a task body that fails or panics produces
/// [`TaskOutcome::Failed`] and poisons only its own non-barrier
/// dependency chain ([`TaskOutcome::Skipped`]) — every other task keeps
/// executing. Tasks with [`LaneTask::barrier`] set still run after a
/// failed dependency (cleanup must happen on all paths). The optional
/// `gate` is consulted under the dispatch lock before any
/// dependency-ready task is handed to a lane; returning `true` skips the
/// task ([`SkipReason::Gated`]) — this is how the serving layer retires
/// cancelled and past-deadline requests without running them. With a
/// `sink`, the dispatcher emits Exec-plane dispatch / completion /
/// failure / skip events (with wall timestamps) as tasks move through
/// the lanes; emission happens strictly outside task bodies, so traced
/// and untraced runs are numerically identical.
///
/// Returns one [`TaskOutcome`] per task, indexed like the graph.
///
/// # Errors
///
/// Returns [`Error::Exec`] only for structural problems: closure and
/// task counts disagreeing, or dispatch unable to make progress. Task
/// failures are reported in the outcomes, not as errors.
pub fn execute_lane_graph<'run>(
    graph: &LaneGraph,
    closures: Vec<TaskFn<'run>>,
    policy: Policy,
    pool: &WorkerPool,
    gate: Option<GateFn<'run>>,
    sink: Option<&TraceSink>,
) -> Result<Vec<TaskOutcome>> {
    if closures.len() != graph.len() {
        return Err(Error::Exec {
            what: format!(
                "graph has {} tasks but {} closures",
                graph.len(),
                closures.len()
            ),
        });
    }
    if graph.is_empty() {
        return Ok(Vec::new());
    }
    // Debug builds statically verify every graph they execute: the
    // structural half of the plan checks (dependency sanity, cycles,
    // timing feasibility) runs before a single task is dispatched, so
    // every integration test doubles as a verifier fixture.
    #[cfg(debug_assertions)]
    {
        let report = llmnpu_verify::verify(&graph.verify_plan());
        debug_assert!(
            report.is_clean(),
            "lane graph failed static verification:\n{}",
            report
                .findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
    let closures: Vec<Mutex<Option<TaskFn<'_>>>> =
        closures.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let lanes = graph.lanes();
    let dispatcher = Dispatcher::new(graph, policy, gate, sink);
    let concurrent = {
        let mut jobs: Vec<Job<'_>> = lanes
            .iter()
            .map(|&p| {
                let dispatcher = &dispatcher;
                let closures = &closures;
                Job::new(move || dispatcher.lane_loop(closures, p))
            })
            .collect();
        pool.run_concurrent(&mut jobs)
    };
    if !concurrent {
        dispatcher.sequential(&closures, &lanes);
    }

    // lint: allow(panic) — all lane threads have joined; nothing can hold or poison the lock
    let st = dispatcher.state.into_inner().expect("dispatch mutex");
    if let Some(e) = st.error {
        return Err(Error::Exec { what: e });
    }
    Ok(st
        .outcomes
        .into_iter()
        // lint: allow(panic) — `remaining == 0` implies every outcome slot was filled
        .map(|o| o.expect("all tasks accounted for"))
        .collect())
}

/// Executes a chunked prefill by running the DAG's tasks out-of-order
/// across per-processor lanes on the persistent pool.
///
/// The DAG must have been built (`llmnpu_graph::dag::build_prefill_dag`)
/// for `t.config()` and for `plan` (`plan.prompt_len == tokens.len()`).
/// Returns the final hidden states — bit-identical to
/// [`Transformer::prefill_chunked`] with the same chunk length — plus
/// the populated KV cache and the measured execution timeline.
///
/// # Errors
///
/// Returns [`Error::Exec`] on a plan/DAG/model mismatch or a stage
/// failure (the first failed task, in task order), and
/// [`Error::Deadlock`] never (the DAG's topological validation precedes
/// execution).
pub fn execute_chunked_prefill(
    t: &Transformer<'_>,
    tokens: &[u32],
    dag: &PrefillDag,
    plan: &ChunkPlan,
    policy: Policy,
    pool: &WorkerPool,
) -> Result<NumericPrefill> {
    let program = PrefillProgram::new(t, tokens, dag, plan)?;
    let graph = LaneGraph::from_prefill_dag(dag)?;
    let outcomes = execute_lane_graph(&graph, program.closures(dag), policy, pool, None, None)?;
    // A prefill is all-or-nothing: the first failed stage fails the run
    // (its poisoned dependents never produced anything to assemble).
    let spans = outcomes
        .iter()
        .map(|o| match o {
            TaskOutcome::Completed { start_ms, end_ms } => Ok((*start_ms, *end_ms)),
            TaskOutcome::Failed { error, .. } => Err(Error::Exec {
                what: error.clone(),
            }),
            TaskOutcome::Skipped { .. } => Err(Error::Exec {
                what: "prefill task skipped".to_owned(),
            }),
        })
        .collect::<Result<Vec<_>>>()?;

    // Assemble the timeline in completion order.
    let mut timeline = ExecutedTimeline::default();
    let mut order: Vec<usize> = (0..dag.len()).collect();
    order.sort_by(|&a, &b| {
        spans[a]
            .1
            .partial_cmp(&spans[b].1)
            // lint: allow(panic) — spans are measured monotonic-clock readings, never NaN
            .expect("finite timestamps")
    });
    for i in order {
        let task = &dag.tasks()[i];
        let (start_ms, end_ms) = spans[i];
        timeline.tasks.push(ExecutedTask {
            label: task.label.clone(),
            chunk: task.chunk,
            layer: task.layer,
            stage: task.stage,
            role: task.role,
            processor: task.processor,
            start_ms,
            end_ms,
        });
    }

    Ok(NumericPrefill {
        hidden: program.assemble_hidden()?,
        cache: program.assemble_cache()?,
        timeline,
    })
}

fn exec_err(e: llmnpu_model::Error) -> Error {
    Error::Exec {
        what: e.to_string(),
    }
}
