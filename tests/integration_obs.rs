//! Observability integration: tracing must never perturb served
//! streams, the canonical modeled export must be a byte-identical
//! function of the workload (runs, worker counts), the Chrome export
//! must validate and cover every request, and the report's metrics
//! snapshot must agree with the report itself.

use llmnpu::core::engine::{EngineConfig, LlmNpuEngine};
use llmnpu::core::serve::{GenerationRequest, ServeOptions};
use llmnpu::model::backend::FloatBackend;
use llmnpu::model::config::ModelConfig;
use llmnpu::model::forward::Transformer;
use llmnpu::model::weights::{synthesize, ModelWeights, OutlierSpec};
use llmnpu::obs::chrome::{chrome_trace_json, modeled_trace_json, validate_chrome_trace};
use llmnpu::obs::flight::flight_recorder;
use llmnpu::obs::trace::Plane;
use llmnpu::obs::Observability;
use llmnpu::soc::spec::SocSpec;

fn mini_model() -> ModelWeights {
    let cfg = ModelConfig::qwen15_18b().scaled_down(48, 2, 96).unwrap();
    synthesize(&cfg, 7, OutlierSpec::default()).unwrap()
}

fn engine(chunk_len: usize, pool_workers: usize) -> LlmNpuEngine {
    let mut cfg = EngineConfig::llmnpu(ModelConfig::qwen15_18b(), SocSpec::snapdragon_8gen3());
    cfg.chunk_len = chunk_len;
    cfg.pool_workers = pool_workers;
    LlmNpuEngine::new(cfg).unwrap()
}

fn tokens(n: usize, stride: u32) -> Vec<u32> {
    (0..n as u32).map(|i| (i * stride + 3) % 96).collect()
}

fn mixed_requests() -> Vec<GenerationRequest> {
    vec![
        GenerationRequest::new(tokens(10, 7), 4).with_arrival_ms(0.0),
        GenerationRequest::new(tokens(4, 5), 5).with_arrival_ms(1.5),
        GenerationRequest::new(tokens(7, 11), 3).with_arrival_ms(3.0),
        GenerationRequest::new(tokens(12, 3), 2).with_arrival_ms(4.0),
    ]
}

fn opts_with(obs: Option<Observability>) -> ServeOptions {
    ServeOptions {
        max_active: 3,
        decode_batch: 2,
        obs,
        ..ServeOptions::default()
    }
}

/// Serve the mixed batch on a fresh engine + sink; return (modeled
/// export bytes, per-request token streams).
fn run_traced(workers: usize) -> (String, Vec<Vec<u32>>) {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let e = engine(3, workers);
    let obs = Observability::enabled();
    let report = e
        .serve(&t, &mixed_requests(), &opts_with(Some(obs.clone())))
        .unwrap();
    let streams = report.requests.iter().map(|r| r.tokens.clone()).collect();
    (modeled_trace_json(&obs.sink.snapshot()), streams)
}

#[test]
fn tracing_on_is_invisible_to_served_streams() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);

    let off = engine(3, 2)
        .serve(&t, &mixed_requests(), &opts_with(None))
        .unwrap();
    let on = engine(3, 2)
        .serve(
            &t,
            &mixed_requests(),
            &opts_with(Some(Observability::enabled())),
        )
        .unwrap();
    for (a, b) in off.requests.iter().zip(&on.requests) {
        assert_eq!(a.tokens, b.tokens, "tracing changed request {}", a.request);
        assert_eq!(a.status, b.status);
    }
}

#[test]
fn modeled_export_byte_identical_across_runs_and_worker_counts() {
    let (first, streams_first) = run_traced(1);
    let (again, streams_again) = run_traced(1);
    let (wide, streams_wide) = run_traced(4);
    assert_eq!(first, again, "same workload, same workers: bytes diverged");
    assert_eq!(first, wide, "worker count leaked into the modeled export");
    assert_eq!(streams_first, streams_again);
    assert_eq!(streams_first, streams_wide);
    assert!(first.contains("llmnpu-modeled-trace/v1"));
}

#[test]
fn chrome_export_validates_and_covers_every_request() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let obs = Observability::enabled();
    let report = engine(3, 2)
        .serve(&t, &mixed_requests(), &opts_with(Some(obs.clone())))
        .unwrap();

    let log = obs.sink.snapshot();
    let text = chrome_trace_json(&log);
    let check = validate_chrome_trace(&text).expect("exporter must emit a valid trace");
    assert!(check.slices > 0, "no slices recorded");
    assert!(check.tracks >= 2, "Npu and Cpu lanes expected");
    assert_eq!(check.async_pairs, report.requests.len());
    for outcome in &report.requests {
        assert!(
            log.spans.iter().any(|s| s.request == Some(outcome.request)),
            "request {} has no spans",
            outcome.request
        );
    }
    // Admissions are Plan-plane (deterministic) and per-request.
    let admissions = log
        .events
        .iter()
        .filter(|e| e.plane == Plane::Plan && e.kind.name() == "admission")
        .count();
    assert!(admissions >= report.requests.len());

    let dump = flight_recorder(&log, 2);
    assert!(
        dump.contains("== request R3 =="),
        "most recent request kept"
    );
    assert!(dump.contains("span"));
}

#[test]
fn report_metrics_agree_with_the_report() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let requests = mixed_requests();
    let report = engine(3, 2)
        .serve(&t, &requests, &opts_with(Some(Observability::default())))
        .unwrap();

    let m = &report.metrics;
    assert_eq!(m.counter("serve.requests"), requests.len() as u64);
    assert_eq!(
        m.counter("serve.completed"),
        report
            .requests
            .iter()
            .filter(|o| o.status.is_completed())
            .count() as u64
    );
    assert_eq!(m.counter("serve.tokens"), report.total_tokens() as u64);
    assert_eq!(
        m.histograms["serve.ttft_ms"].count,
        m.counter("serve.completed")
    );
    assert_eq!(
        m.gauges["kv.peak_used_blocks"],
        report.kv.peak_used_blocks as i64
    );
}

// ---------------------------------------------------------------------------
// Golden modeled exports
// ---------------------------------------------------------------------------
//
// The canonical modeled export is a pure function of the workload, so a
// refactor of the serving planner that claims "same behaviour" must leave
// it byte-identical. These goldens pin two batches: the mixed batch above
// (no prompt shares a page with another) and a warm-session batch served
// entirely from prefix-cache hits. Regenerate deliberately with
// `LLMNPU_BLESS_GOLDEN=1 cargo test --test integration_obs golden`.

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("LLMNPU_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert!(
        expected == actual,
        "modeled export drifted from {} (rerun with LLMNPU_BLESS_GOLDEN=1 only if the \
         change is intended)",
        path.display()
    );
}

#[test]
fn golden_modeled_export_mixed_batch() {
    let (export, _) = run_traced(2);
    assert_golden("mixed_requests.modeled.json", &export);
}

#[test]
fn golden_modeled_export_warm_session_cache_hits() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let e = engine(3, 2);
    let opts = ServeOptions {
        max_active: 3,
        block_tokens: 4,
        kv_pool_blocks: Some(32),
        decode_batch: 2,
        ..ServeOptions::default()
    };
    let session = e.open_serve_session(&t, &opts).unwrap();
    // A 12-token system prompt (three full pages); suffixes shorter
    // than a page so the warm batch creates no new cacheable pages.
    let system = tokens(12, 5);
    let with_suffix = |suffix: &[u32], max_new: usize| {
        let mut p = system.clone();
        p.extend_from_slice(suffix);
        GenerationRequest::new(p, max_new)
    };
    // Cold batch (untraced): one request prefills and caches the system
    // prompt.
    let cold = e
        .serve_with_session(&t, &[with_suffix(&[1, 2], 2)], &opts, &session)
        .unwrap();
    assert!(cold.requests[0].status.is_completed());

    // Warm batch (traced): every request reuses the cached pages.
    let obs = Observability::enabled();
    let warm_opts = ServeOptions {
        obs: Some(obs.clone()),
        ..opts.clone()
    };
    let warm = vec![
        with_suffix(&[40, 41, 42], 3),
        with_suffix(&[50], 2).with_arrival_ms(1.0),
        with_suffix(&[60, 61], 3).with_arrival_ms(2.0),
    ];
    let report = e
        .serve_with_session(&t, &warm, &warm_opts, &session)
        .unwrap();
    assert_eq!(report.kv.prefix_cache_hits, warm.len() as u64);
    assert_eq!(report.kv.shared_prefix_blocks, 0);
    assert!(report.requests.iter().all(|r| r.status.is_completed()));
    assert_golden(
        "warm_session.modeled.json",
        &modeled_trace_json(&obs.sink.snapshot()),
    );
    session.flush().unwrap();
}
