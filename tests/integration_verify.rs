//! Static-verification tests: every serving plan the current tree
//! builds — prefix sharing, eviction under memory pressure, batched
//! decode, fault injection — must verify clean through
//! [`LlmNpuEngine::verify_serve`] without executing a task, the
//! structural translation of bare prefill lane graphs must verify clean
//! too, and a real `serve` run must carry the per-round proof stats it
//! was gated on.

use llmnpu::core::engine::{EngineConfig, LlmNpuEngine};
use llmnpu::core::faults::{FaultMode, FaultPlan, FaultSite, FaultSpec};
use llmnpu::core::serve::{GenerationRequest, PressurePolicy, ServeOptions};
use llmnpu::graph::dag::{build_prefill_dag, DagConfig};
use llmnpu::model::backend::FloatBackend;
use llmnpu::model::config::ModelConfig;
use llmnpu::model::forward::Transformer;
use llmnpu::model::weights::{synthesize, ModelWeights, OutlierSpec};
use llmnpu::sched::LaneGraph;
use llmnpu::soc::latency::LatencyModel;
use llmnpu::soc::spec::SocSpec;
use llmnpu::verify::{verify, PlanStats, Report};
use llmnpu::workloads::traces::{ArrivalTrace, LengthMix};
use proptest::prelude::*;

mod common;
use common::assert_golden;

fn mini_model() -> ModelWeights {
    let cfg = ModelConfig::qwen15_18b().scaled_down(48, 3, 96).unwrap();
    synthesize(&cfg, 7, OutlierSpec::default()).unwrap()
}

fn tokens(n: usize, stride: u32) -> Vec<u32> {
    (0..n as u32).map(|i| (i * stride + 3) % 96).collect()
}

fn engine(chunk_len: usize) -> LlmNpuEngine {
    let mut cfg = EngineConfig::llmnpu(ModelConfig::qwen15_18b(), SocSpec::snapdragon_8gen3());
    cfg.chunk_len = chunk_len;
    LlmNpuEngine::new(cfg).unwrap()
}

fn assert_clean(name: &str, report: &Report) {
    assert!(
        report.is_clean(),
        "{name}: expected a clean plan, got:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// A batch to serve: the requests and the options to serve them with.
type Batch = (Vec<GenerationRequest>, ServeOptions);

fn plain_batch() -> Batch {
    let requests = vec![
        GenerationRequest::new(tokens(10, 7), 4),
        GenerationRequest::new(tokens(4, 5), 6),
        GenerationRequest::new(tokens(7, 11), 5),
    ];
    (requests, ServeOptions::default())
}

/// Three requests off one 6-token common prefix (block- and
/// chunk-aligned), so the later requests provably reuse the first
/// one's pending prefix pages.
fn prefix_sharing_batch() -> Batch {
    let base = tokens(6, 7);
    let mk = |extra: &[u32], new| {
        let mut p = base.clone();
        p.extend_from_slice(extra);
        GenerationRequest::new(p, new)
    };
    let requests = vec![
        mk(&[50, 51, 52], 4),
        mk(&[60, 61, 62], 3),
        mk(&[70, 71, 72], 3),
    ];
    let opts = ServeOptions {
        block_tokens: 3,
        share_prefixes: true,
        ..ServeOptions::default()
    };
    (requests, opts)
}

/// Half the pages the batch needs: the plan must preempt.
fn eviction_batch() -> Batch {
    let requests: Vec<GenerationRequest> = (0..5)
        .map(|i| GenerationRequest::new(tokens(9 + 3 * (i % 3), 7 + i as u32), 4))
        .collect();
    let block_tokens = 3usize;
    let needs: Vec<usize> = requests
        .iter()
        .map(|r| r.total_tokens().div_ceil(block_tokens))
        .collect();
    let pool_blocks = (needs.iter().sum::<usize>() / 2).max(*needs.iter().max().unwrap());
    let opts = ServeOptions {
        max_active: requests.len(),
        block_tokens,
        kv_pool_blocks: Some(pool_blocks),
        pressure: PressurePolicy::EvictYoungest,
        decode_batch: 2,
        ..ServeOptions::default()
    };
    (requests, opts)
}

fn faulty_batch() -> Batch {
    let requests = vec![
        GenerationRequest::new(tokens(9, 7), 3),
        GenerationRequest::new(tokens(6, 5), 4),
    ];
    let plan = FaultPlan::default().with_fault(FaultSpec {
        request: 0,
        attempt: 1,
        site: FaultSite::Prefill { chunk: 0, layer: 0 },
        mode: FaultMode::Panic,
        permanent: false,
    });
    let opts = ServeOptions {
        max_retries: 2,
        retry_backoff_ms: 1.0,
        faults: Some(plan),
        ..ServeOptions::default()
    };
    (requests, opts)
}

fn small_batch() -> Batch {
    let requests = vec![
        GenerationRequest::new(tokens(8, 7), 3),
        GenerationRequest::new(tokens(5, 5), 3),
    ];
    (requests, ServeOptions::default())
}

#[test]
fn plain_batch_plan_verifies_clean() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let (requests, opts) = plain_batch();
    let report = engine(3).verify_serve(&t, &requests, &opts).unwrap();
    assert_clean("plain batch", &report);
    assert_eq!(report.stats.segments, 3);
    assert!(report.stats.tasks > 0);
    assert!(report.stats.alias_pairs > 0, "KV accesses must be modeled");
    assert!(report.stats.peak_pages > 0);
    assert!(Some(report.stats.peak_pages) <= report.stats.page_capacity);
}

#[test]
fn prefix_sharing_plan_verifies_clean() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let (requests, opts) = prefix_sharing_batch();
    let report = engine(3).verify_serve(&t, &requests, &opts).unwrap();
    assert_clean("prefix sharing", &report);
    assert_eq!(report.stats.segments, 3);
}

#[test]
fn eviction_and_batched_decode_plan_verifies_clean() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let (requests, opts) = eviction_batch();
    let pool_blocks = opts.kv_pool_blocks.unwrap();
    let report = engine(3).verify_serve(&t, &requests, &opts).unwrap();
    assert_clean("eviction + batched decode", &report);
    assert!(
        report.stats.segments > requests.len(),
        "an undersized pool must plan evicted incarnations \
         ({} segments for {} requests)",
        report.stats.segments,
        requests.len()
    );
    assert!(report.stats.peak_pages <= pool_blocks);
}

#[test]
fn faulty_plan_verifies_clean_and_matches_execution() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let engine = engine(3);
    let (requests, opts) = faulty_batch();
    let verified = engine.verify_serve(&t, &requests, &opts).unwrap();
    assert_clean("faulty batch", &verified);

    // The real run gates every retry round on the same proof and
    // reports the stats it was gated on: the transient fault forces at
    // least two rounds, the first of which analyzed the same plan the
    // dry run did.
    let report = engine.serve(&t, &requests, &opts).unwrap();
    assert!(
        report.verification.len() >= 2,
        "a retried run must carry one proof per round, got {}",
        report.verification.len()
    );
    assert_eq!(report.verification[0].tasks, verified.stats.tasks);
    assert_eq!(report.verification[0].edges, verified.stats.edges);
    assert_eq!(report.verification[0].segments, verified.stats.segments);
    assert_eq!(report.kv.leaked_blocks, 0);
}

#[test]
fn verify_serve_reserves_no_pages_and_is_idempotent() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let engine = engine(3);
    let (requests, opts) = small_batch();
    let a = engine.verify_serve(&t, &requests, &opts).unwrap();
    let b = engine.verify_serve(&t, &requests, &opts).unwrap();
    assert_clean("first dry run", &a);
    assert_eq!(a.stats.tasks, b.stats.tasks);
    assert_eq!(a.stats.edges, b.stats.edges);
    assert_eq!(a.stats.peak_pages, b.stats.peak_pages);
    // The dry runs left no trace: a real serve on the same engine still
    // completes leak-free with the same plan shape.
    let report = engine.serve(&t, &requests, &opts).unwrap();
    assert_eq!(report.kv.leaked_blocks, 0);
    assert_eq!(report.verification.len(), 1);
    assert_eq!(report.verification[0].tasks, a.stats.tasks);
}

#[test]
fn empty_batch_verifies_clean() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let engine = engine(3);
    let report = engine
        .verify_serve(&t, &[], &ServeOptions::default())
        .unwrap();
    assert_clean("empty batch", &report);
    assert_eq!(report.stats.tasks, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Planner-fed plans: random prompt lengths, a shared prefix at any
    /// page alignment, pools small enough to force waiting or eviction,
    /// decode batches of 1-4, and both pressure policies. Every plan
    /// the planner emits proves clean, serving it completes every
    /// request and leaks no page, and the served first round proves
    /// exactly what the dry run proved.
    #[test]
    fn planner_fed_plans_verify_clean_and_match_serve(
        shapes in prop::collection::vec((1usize..12, 1usize..5), 2..5),
        prefix_len in 0usize..11,
        block_tokens in 2usize..5,
        pool_div in 1usize..4,
        decode_batch in 1usize..5,
        evict in prop::bool::ANY,
    ) {
        let prefix = tokens(prefix_len, 13);
        let requests: Vec<GenerationRequest> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(suffix_len, max_new))| {
                let mut prompt = prefix.clone();
                prompt.extend(tokens(suffix_len, 5 + 2 * i as u32));
                GenerationRequest::new(prompt, max_new)
            })
            .collect();
        let needs: Vec<usize> = requests
            .iter()
            .map(|r| r.total_tokens().div_ceil(block_tokens))
            .collect();
        let opts = ServeOptions {
            max_active: requests.len(),
            block_tokens,
            kv_pool_blocks: Some((needs.iter().sum::<usize>() / pool_div).max(*needs.iter().max().unwrap())),
            pressure: if evict { PressurePolicy::EvictYoungest } else { PressurePolicy::Wait },
            decode_batch,
            ..ServeOptions::default()
        };
        let w = mini_model();
        let be = FloatBackend::new(w.clone());
        let t = Transformer::new(&w, &be);
        let engine = engine(3);
        let dry = engine.verify_serve(&t, &requests, &opts).unwrap();
        assert_clean("planner-fed batch", &dry);
        let report = engine.serve(&t, &requests, &opts).unwrap();
        prop_assert_eq!(report.kv.leaked_blocks, 0);
        prop_assert!(report.requests.iter().all(|r| r.status.is_completed()));
        prop_assert_eq!(report.verification[0], dry.stats);
    }
}

const PREFILL_SHAPES: [(usize, usize, f64); 3] = [(9, 3, 0.0), (12, 4, 0.5), (10, 5, 1.0)];

fn prefill_graph(prompt: usize, chunk: usize, shadow: f64) -> LaneGraph {
    let cfg = ModelConfig::qwen15_18b().scaled_down(48, 3, 96).unwrap();
    let lat = LatencyModel::new(&SocSpec::snapdragon_8gen3());
    let mut dc = DagConfig::llmnpu_default(prompt, chunk).unwrap();
    dc.shadow_fraction = shadow;
    let dag = build_prefill_dag(&cfg, &dc, &lat).unwrap();
    LaneGraph::from_prefill_dag(&dag).unwrap()
}

#[test]
fn structural_prefill_graphs_verify_clean() {
    // The sched-layer translation: bare prefill lane graphs (what the
    // executor's debug hook verifies on every run) are structurally
    // clean at several prompt/chunk shapes and shadow fractions.
    for (prompt, chunk, shadow) in PREFILL_SHAPES {
        let graph = prefill_graph(prompt, chunk, shadow);
        let report = verify(&graph.verify_plan());
        assert_clean(&format!("prefill dag {prompt}/{chunk}/{shadow}"), &report);
        assert_eq!(report.stats.tasks, graph.len());
        assert!(report.stats.lanes >= 2, "prefill must span CPU and NPU");
    }
}

// ---------------------------------------------------------------------------
// Proof-size golden
// ---------------------------------------------------------------------------
//
// Every `PlanStats` field of every batch above, plus the three serving
// plans of `examples/verify_plan.rs`, pinned byte for byte: a refactor of
// how the serving graph is built or translated for the verifier must
// prove exactly the same plan. Regenerate only for an intended plan
// change: `LLMNPU_BLESS_GOLDEN=1 cargo test --test integration_verify golden`.

/// The `serving`, `memory_pressure` and `chaos` batches of
/// `examples/verify_plan.rs`, for its 48-wide 2-layer model.
fn example_batches(vocab: usize) -> Vec<(&'static str, Vec<GenerationRequest>, ServeOptions)> {
    let synthetic = |shapes: &[(usize, usize)], arrivals: &[f64]| -> Vec<GenerationRequest> {
        shapes
            .iter()
            .zip(arrivals)
            .enumerate()
            .map(|(i, (&(prompt_len, max_new), &arrival))| {
                GenerationRequest::synthetic(i, prompt_len, max_new, vocab).with_arrival_ms(arrival)
            })
            .collect()
    };
    let pool_share = |requests: &[GenerationRequest], block_tokens: usize, div: usize| {
        let needs: Vec<usize> = requests
            .iter()
            .map(|r| r.total_tokens().div_ceil(block_tokens))
            .collect();
        (needs.iter().sum::<usize>() / div).max(*needs.iter().max().unwrap())
    };

    let serving = synthetic(
        &[(24, 6), (6, 10), (30, 4), (12, 8), (8, 8), (36, 3)],
        &ArrivalTrace::poisson(11, 200.0, 6).arrivals_ms,
    );
    let serving_opts = ServeOptions {
        max_active: 3,
        ..ServeOptions::default()
    };

    let mix = LengthMix::heavy_tail(11, 7, 6, 30);
    let pressure = synthetic(
        &mix.shapes,
        &ArrivalTrace::heavy_tail(11, 2.0, 1.1, mix.len()).arrivals_ms,
    );
    let pressure_opts = ServeOptions {
        max_active: pressure.len(),
        block_tokens: 4,
        kv_pool_blocks: Some(pool_share(&pressure, 4, 2)),
        pressure: PressurePolicy::EvictYoungest,
        decode_batch: 2,
        ..ServeOptions::default()
    };

    let mix = LengthMix::heavy_tail(11, 24, 5, 24);
    let chaos = synthetic(
        &mix.shapes,
        &ArrivalTrace::heavy_tail(11, 1.5, 1.1, mix.len()).arrivals_ms,
    );
    let faults = FaultPlan::seeded(2025, chaos.len(), 0.7)
        .with_fault(FaultSpec {
            request: 0,
            attempt: 1,
            site: FaultSite::Prefill { chunk: 0, layer: 0 },
            mode: FaultMode::Panic,
            permanent: false,
        })
        .with_fault(FaultSpec {
            request: 1,
            attempt: 1,
            site: FaultSite::Decode { step: 0 },
            mode: FaultMode::Error,
            permanent: true,
        });
    let chaos_opts = ServeOptions {
        max_active: 6,
        block_tokens: 4,
        kv_pool_blocks: Some(pool_share(&chaos, 4, 5)),
        pressure: PressurePolicy::EvictYoungest,
        decode_batch: 2,
        share_prefixes: true,
        max_retries: 2,
        retry_backoff_ms: 1.0,
        faults: Some(faults),
        ..ServeOptions::default()
    };
    vec![
        ("serving", serving, serving_opts),
        ("memory_pressure", pressure, pressure_opts),
        ("chaos", chaos, chaos_opts),
    ]
}

fn proof_line(name: &str, stats: &PlanStats) -> String {
    format!("{name}: {stats:?}\n")
}

#[test]
fn golden_proof_sizes() {
    let mut out = String::new();

    let cfg = ModelConfig::qwen15_18b().scaled_down(48, 2, 96).unwrap();
    let w = synthesize(&cfg, 7, OutlierSpec::default()).unwrap();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let e = engine(6);
    for (name, requests, opts) in example_batches(cfg.vocab) {
        let report = e.verify_serve(&t, &requests, &opts).unwrap();
        assert_clean(name, &report);
        out += &proof_line(&format!("example/{name}"), &report.stats);
    }

    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let e = engine(3);
    for (name, (requests, opts)) in [
        ("plain", plain_batch()),
        ("prefix_sharing", prefix_sharing_batch()),
        ("eviction", eviction_batch()),
        ("faulty", faulty_batch()),
        ("small", small_batch()),
        ("empty", (Vec::new(), ServeOptions::default())),
    ] {
        let report = e.verify_serve(&t, &requests, &opts).unwrap();
        assert_clean(name, &report);
        out += &proof_line(name, &report.stats);
    }

    for (prompt, chunk, shadow) in PREFILL_SHAPES {
        let report = verify(&prefill_graph(prompt, chunk, shadow).verify_plan());
        out += &proof_line(&format!("prefill/{prompt}x{chunk}/{shadow}"), &report.stats);
    }
    assert_golden("verify_proof_sizes.txt", &out);
}
