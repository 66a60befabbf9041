//! Static plan verification for lane graphs.
//!
//! Every guarantee the serving stack makes — deadlock-free lane-graph
//! execution, zero leaked KV pages, poison containment through
//! barriers, one-task-per-lane serialization (Equation 4 of the source
//! paper) — is enforced dynamically by the executor and pinned by
//! integration suites. This crate proves the *plan-level* half of those
//! guarantees statically, before a single task runs: a [`Plan`] is a
//! dependency-free description of a spliced lane graph (tasks, lanes,
//! ordering edges, barrier/gate flags, memory accesses, and page
//! accounting), and [`verify`] returns a typed list of [`Finding`]s.
//!
//! The checks, in order:
//!
//! 1. **Structure and feasibility** — dependency indices in range, no
//!    self-edges, finite non-negative release times and durations
//!    ([`FindingKind::InvalidDep`], [`FindingKind::InvalidTime`]), and
//!    cycle detection via Kahn's algorithm ([`FindingKind::Cycle`]).
//!    A cyclic plan would deadlock the dispatcher's progress loop.
//! 2. **Lane serialization** — tasks marked [`TaskFacts::serialized`]
//!    mutate shared pool state in an order the plan's accounting relies
//!    on; any two of them on one processor lane must be totally ordered
//!    by dependency edges, not just serialized at runtime by the lane
//!    loop ([`FindingKind::UnorderedLanePair`]). This is the static
//!    face of the Equation 4 invariant: the lane guarantees *mutual
//!    exclusion*, only edges guarantee *order*.
//! 3. **KV write aliasing** — two tasks touching overlapping `[lo, hi)`
//!    intervals of one address space, at least one writing, without an
//!    ordering edge either way is a plan-level data race
//!    ([`FindingKind::KvWriteRace`]). Spaces are opaque: callers encode
//!    `(segment, layer)` KV position ranges, pool block ids, or cache
//!    slot cells as they see fit.
//! 4. **Page budget and leak proof** — symbolic accounting over the
//!    [`Segment`] table proves the planner never over-commits pool
//!    capacity ([`FindingKind::PageOverCommit`]) and that every
//!    admitted segment's pages provably return on *all* outcome paths
//!    ([`FindingKind::PageLeak`]): the terminal release must exist, be
//!    ordered after the admission, be a poison-absorbing barrier, and
//!    never be gate-skippable. This is `leaked_blocks == 0` proven
//!    statically. Prefix reuse is checked alongside: a segment may only
//!    reuse pages of an earlier producer, and only pages that producer
//!    retains past its terminal; an admission may only take retained
//!    pages back once their producer and every reader of them are
//!    done.
//! 5. **Barrier/gate coverage** — cleanup tasks (release/evict) must be
//!    barriers and must not be gate-skippable
//!    ([`FindingKind::UnbarrieredCleanup`]), and every request-owned
//!    non-cleanup task must be consulted by the dispatch gate
//!    ([`FindingKind::UngatedTask`]) so cancelled/expired/failed
//!    requests stop consuming lanes.
//!
//! The crate is dependency-free by design (it is the auditor, not the
//! audited). `llmnpu-sched`'s `LaneGraph::verify_plan` is the one
//! translation into a [`Plan`]: each lane task carries its own
//! [`TaskFacts`], recorded by whoever built it, and a graph may carry
//! its page accounting (capacity and [`Segment`] table). Bare prefill
//! graphs keep neutral facts and prove only the structural checks;
//! `llmnpu-core`'s serving rounds attach task classes, gating, KV
//! accesses and segments as they push each task, so serving proves the
//! graph it runs — before every round, and again in the executor's
//! debug-build hook.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checks;

/// Classification of a task for plan-level accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TaskClass {
    /// Reserves a segment's KV pages (optionally on top of reused
    /// prefix pages). The page-budget proof walks these in plan order.
    Admit,
    /// Returns a completed segment's pages to the pool.
    Release,
    /// Returns a preempted segment's pages to the pool (the terminal of
    /// an evicted incarnation).
    Evict,
    /// Any other task: compute stages, decode steps, bookkeeping.
    #[default]
    Other,
}

/// One memory access a task performs: the half-open interval
/// `[lo, hi)` inside an opaque address space.
///
/// The verifier treats spaces as uninterpreted ids; the plan builder
/// chooses the encoding (per-segment-per-layer KV position ranges,
/// cache-slot cells, block ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Opaque address-space id.
    pub space: u64,
    /// Inclusive lower bound.
    pub lo: u64,
    /// Exclusive upper bound.
    pub hi: u64,
}

impl Access {
    /// A single-cell access at `pos` in `space`.
    #[must_use]
    pub fn cell(space: u64, pos: u64) -> Self {
        Access {
            space,
            lo: pos,
            hi: pos + 1,
        }
    }

    /// A range access covering `[lo, hi)` in `space`.
    #[must_use]
    pub fn range(space: u64, lo: u64, hi: u64) -> Self {
        Access { space, lo, hi }
    }
}

/// What a task's builder knows about it beyond its lane, times and
/// edges: ownership, gating, failure and KV accesses. Recorded where
/// the task is created, so the verifier proves the graph that runs.
///
/// The default is neutral: unowned, ungated, infallible,
/// unserialized, [`TaskClass::Other`], no accesses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaskFacts {
    /// Consulted by the dispatch gate: may be skipped once its owner is
    /// terminal (cancelled, expired, failed).
    pub gated: bool,
    /// The task body can fail or panic (fault containment applies).
    pub fallible: bool,
    /// Must be totally ordered with other serialized tasks on its lane
    /// (its side effects on shared pool state are order-sensitive).
    pub serialized: bool,
    /// Owning segment, for request-owned tasks.
    pub owner: Option<usize>,
    /// Accounting classification.
    pub class: TaskClass,
    /// Address ranges the task reads.
    pub reads: Vec<Access>,
    /// Address ranges the task writes.
    pub writes: Vec<Access>,
}

/// One task of a plan under verification.
#[derive(Debug, Clone)]
pub struct PlanTask {
    /// Human-readable label, echoed in findings.
    pub label: String,
    /// Processor lane the task dispatches on.
    pub lane: usize,
    /// Earliest dispatch time (arrival release).
    pub release_ms: f64,
    /// Modeled duration.
    pub duration_ms: f64,
    /// Prerequisite task ids.
    pub deps: Vec<usize>,
    /// Poison-absorbing barrier: runs even when a dependency failed or
    /// was skipped (the executor's containment boundary).
    pub barrier: bool,
    /// Ownership, gating, failure and access facts.
    pub facts: TaskFacts,
}

impl PlanTask {
    /// A task with the given label, lane, and dependencies; every other
    /// field starts at its neutral default (non-barrier, zero times,
    /// default [`TaskFacts`]).
    #[must_use]
    pub fn new(label: impl Into<String>, lane: usize, deps: Vec<usize>) -> Self {
        PlanTask {
            label: label.into(),
            lane,
            release_ms: 0.0,
            duration_ms: 0.0,
            deps,
            barrier: false,
            facts: TaskFacts::default(),
        }
    }
}

/// One admitted incarnation's page accounting: which task reserves its
/// pages, which terminal task provably returns them, how many fresh
/// blocks it takes from the pool, and which same-round producers'
/// pages it reuses.
///
/// Each segment's fresh allocation returns at its own terminal. Reused
/// prefix pages are never part of a reader's allocation: they are the
/// producer's *retained* pages, which stay resident past the
/// producer's terminal — so the proof only needs every producer to
/// retain at least the pages each of its readers reuses.
#[derive(Debug, Clone)]
pub struct Segment {
    /// The [`TaskClass::Admit`] task that reserves the pages.
    pub admit: Option<usize>,
    /// The [`TaskClass::Release`] or [`TaskClass::Evict`] task that
    /// returns them.
    pub terminal: Option<usize>,
    /// Fresh blocks drawn from the pool at admission (beyond any reused
    /// prefix).
    pub fresh_blocks: usize,
    /// Blocks of the fresh allocation that stay resident past the
    /// terminal (e.g. full prompt blocks retained by a global prefix
    /// cache at prefill completion). The budget walk credits only
    /// `fresh_blocks - retained_blocks` back when the terminal is
    /// proven done; retained pages return through a separate channel
    /// (cache eviction/flush) the plan does not model.
    pub retained_blocks: usize,
    /// Same-round prefix reuse: `(producer, pages)` — the admission
    /// reuses `pages` full pages that the earlier segment `producer`
    /// retains.
    pub reused: Vec<(usize, usize)>,
    /// Earlier segments whose retained pages this admission evicts
    /// from the cache before it reserves, counting them free again:
    /// each such segment's terminal, and the terminal of every segment
    /// reusing its pages, must be ordered before the admission.
    pub reclaims: Vec<usize>,
}

/// A complete plan under verification.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// The tasks, in construction order (dependencies point backwards).
    pub tasks: Vec<PlanTask>,
    /// Display names per lane id (indexes may exceed this length; extra
    /// lanes print as numbers).
    pub lane_names: Vec<String>,
    /// Total pool blocks, enabling the page-budget proof.
    pub page_capacity: Option<usize>,
    /// Admission segments in planned (admission-chain) order.
    pub segments: Vec<Segment>,
}

impl Plan {
    /// Display name of a lane.
    #[must_use]
    pub fn lane_name(&self, lane: usize) -> String {
        self.lane_names
            .get(lane)
            .cloned()
            .unwrap_or_else(|| format!("lane{lane}"))
    }
}

/// The category of an invariant violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FindingKind {
    /// A dependency index is out of range or self-referential.
    InvalidDep,
    /// The dependency relation contains a cycle (dispatch would
    /// deadlock).
    Cycle,
    /// A release time or duration is non-finite or negative.
    InvalidTime,
    /// Two serialized tasks on one processor lane have no ordering
    /// edge: the lane serializes them, but in an order the plan's
    /// accounting cannot rely on (Equation 4 gives exclusion, only
    /// edges give order).
    UnorderedLanePair,
    /// Two tasks access overlapping addresses, at least one writing,
    /// with no ordering edge either way — a plan-level data race on KV
    /// state.
    KvWriteRace,
    /// The admission chain can exceed pool capacity: at some admission,
    /// guaranteed-returned pages plus free pages fall short.
    PageOverCommit,
    /// An admitted segment's pages are not provably returned on every
    /// outcome path (missing, unordered, or unreachable release).
    PageLeak,
    /// A cleanup or admission task is not poison-proof: not a barrier,
    /// or skippable by the dispatch gate.
    UnbarrieredCleanup,
    /// A request-owned task is not consulted by the dispatch gate, so a
    /// cancelled or failed request would keep consuming lane time.
    UngatedTask,
}

impl std::fmt::Display for FindingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FindingKind::InvalidDep => "invalid-dep",
            FindingKind::Cycle => "cycle",
            FindingKind::InvalidTime => "invalid-time",
            FindingKind::UnorderedLanePair => "unordered-lane-pair",
            FindingKind::KvWriteRace => "kv-write-race",
            FindingKind::PageOverCommit => "page-over-commit",
            FindingKind::PageLeak => "page-leak",
            FindingKind::UnbarrieredCleanup => "unbarriered-cleanup",
            FindingKind::UngatedTask => "ungated-task",
        };
        f.write_str(s)
    }
}

/// One verified invariant violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// What class of invariant broke.
    pub kind: FindingKind,
    /// The offending task ids (order matters per kind).
    pub tasks: Vec<usize>,
    /// Human-readable explanation with labels and quantities.
    pub detail: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} (tasks {:?})",
            self.kind, self.detail, self.tasks
        )
    }
}

/// What the verifier proved, sized: the denominators behind a clean
/// report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Tasks analyzed.
    pub tasks: usize,
    /// Dependency edges analyzed.
    pub edges: usize,
    /// Distinct processor lanes.
    pub lanes: usize,
    /// Serialized same-lane pairs proven totally ordered.
    pub serialized_pairs: usize,
    /// Overlapping access pairs proven race-free.
    pub alias_pairs: usize,
    /// Admission segments accounted.
    pub segments: usize,
    /// Pool capacity the budget proof ran against.
    pub page_capacity: Option<usize>,
    /// Worst-case concurrently-held pages proven across the admission
    /// chain.
    pub peak_pages: usize,
}

/// The verifier's output: findings (empty means every check passed) and
/// the proof sizes.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Invariant violations, in check order.
    pub findings: Vec<Finding>,
    /// Sizes of what was proven.
    pub stats: PlanStats,
}

impl Report {
    /// Whether every check passed.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Runs every check against `plan` and returns the findings.
///
/// Structural damage (bad dependency indices, cycles) short-circuits
/// the order-dependent checks — reachability over a cyclic relation
/// proves nothing — but gate/barrier classification findings are still
/// reported.
#[must_use]
pub fn verify(plan: &Plan) -> Report {
    checks::run(plan)
}
