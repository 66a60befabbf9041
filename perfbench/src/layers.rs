//! The traced run's per-layer metrics and its self-time breakdown of
//! wall time.
//!
//! Wall time of the traced phase is split on the client's lane first:
//! time outside serving calls (`harness`; in the open loop, time with
//! no request outstanding), time inside a call but outside the
//! executor (`core`: planning, proof, graph build, dispatch set-up,
//! result assembly), and executor makespan. The makespan is shared by
//! the executor's processor lanes, so each lane's time is split by
//! interval containment into kernel self time (`tensor`), projection
//! self time (`model`, or `quant` for the shadow-outlier backend), the
//! rest of each task (`model`: attention, norms, RoPE, sampling), page
//! bookkeeping tasks (`kv`) and idle gaps (`sched`), and the lane
//! average is the layer's share of wall time.

use std::collections::BTreeSet;

use llmnpu::core::engine::LlmNpuEngine;
use llmnpu::model::forward::Transformer;

use crate::run::{Batch, Phase};
use crate::stats::{percentile_any, spearman};
use crate::trace::{
    link_parents, thread_spans, KernelSite, KernelSpan, LinearMethod, LinearSpan, OutSpan,
};
use crate::workload::Kind;
use crate::{Metric, Res};

/// Layer self times must each be at least `-TOLERANCE` of wall, and the
/// unattributed residual within `±TOLERANCE` of wall.
pub const TOLERANCE: f64 = 0.02;

/// Batches whose plans are re-proven for `verify.*` (bounds the cost on
/// workloads with thousands of small batches).
const MAX_PROVEN_BATCHES: usize = 200;

/// What the traced run measured.
pub struct Input<'a> {
    /// The workload.
    pub kind: Kind,
    /// The untraced pass over the same requests.
    pub untraced: &'a Phase,
    /// The traced pass.
    pub traced: &'a Phase,
    /// Probe spans of the traced pass.
    pub kernels: &'a [KernelSpan],
    /// Wrapper spans of the traced pass.
    pub linears: &'a [LinearSpan],
    /// B-operand packs during the traced pass.
    pub pack_b_calls: u64,
    /// Kernel thread spawns on the client thread during the traced pass.
    pub thread_spawns: u64,
    /// Model vocabulary (the LM head's output width).
    pub vocab: usize,
}

/// The self-time table and whether it accounts for wall time.
pub struct Table {
    /// Printable rows.
    pub lines: Vec<String>,
    /// Why the breakdown failed its tolerance, if it did.
    pub failure: Option<String>,
}

fn sum(it: impl Iterator<Item = f64>) -> f64 {
    it.fold(0.0, |a, b| a + b)
}

/// Total length of the union of intervals.
pub fn union_len(mut iv: Vec<(f64, f64)>) -> f64 {
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0.0, |(s, e)| e - s)
}

/// Length of the time where both interval sets are active.
fn both_busy(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    let la = union_len(a.to_vec());
    let lb = union_len(b.to_vec());
    let lab = union_len(a.iter().chain(b).copied().collect());
    (la + lb - lab).max(0.0)
}

/// Kernel spans that run inside a wrapper span on the same thread.
fn kernels_inside_linears(kernels: &[KernelSpan], linears: &[LinearSpan]) -> Vec<bool> {
    let mut by_lane: std::collections::HashMap<usize, Vec<(f64, f64)>> = Default::default();
    for l in linears {
        by_lane.entry(l.lane).or_default().push((l.start, l.end));
    }
    for v in by_lane.values_mut() {
        v.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    kernels
        .iter()
        .map(|k| {
            by_lane.get(&k.lane).is_some_and(|v| {
                let i = v.partition_point(|&(s, _)| s <= k.start);
                i > 0 && v[i - 1].1 >= k.end
            })
        })
        .collect()
}

/// Re-proves batch plans with `verify_serve` outside the timed window:
/// mean milliseconds per proof and mean proven tasks.
pub fn prove_plans(
    engine: &LlmNpuEngine,
    t: &Transformer<'_>,
    kind: Kind,
    batches: &[Batch],
) -> Res<(f64, f64)> {
    let opts = kind.options();
    let mut ms = Vec::new();
    let mut tasks = Vec::new();
    for b in batches
        .iter()
        .filter(|b| !b.requests.is_empty())
        .take(MAX_PROVEN_BATCHES)
    {
        let t0 = crate::trace::now_ms();
        let report = engine.verify_serve(t, &b.requests, &opts)?;
        ms.push(crate::trace::now_ms() - t0);
        if !report.is_clean() {
            return Err(format!("plan proof found {} finding(s)", report.findings.len()).into());
        }
        tasks.push(report.stats.tasks as f64);
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    Ok((mean(&ms), mean(&tasks)))
}

/// Per-layer metrics and the self-time table of the traced pass.
pub fn per_layer(inp: &Input<'_>, plan: (f64, f64)) -> (Vec<Metric>, Table) {
    let ph = inp.traced;
    let shadow = inp.kind.shadow();
    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str, n: usize| {
        m.push(Metric::new(name, value, unit, n));
    };
    let dur = |s: f64, e: f64| e - s;

    // ---- tensor ----
    let head: Vec<&KernelSpan> = inp
        .kernels
        .iter()
        .filter(|k| k.site == KernelSite::GemmF32 && k.n == inp.vocab)
        .collect();
    let f32k: Vec<&KernelSpan> = inp
        .kernels
        .iter()
        .filter(|k| {
            matches!(
                k.site,
                KernelSite::GemmF32Prepacked | KernelSite::GemvF32Rows
            )
        })
        .collect();
    let f32_ms = sum(f32k.iter().map(|k| dur(k.start, k.end)));
    let f32_flops = sum(f32k.iter().map(|k| 2.0 * (k.m * k.n * k.k) as f64));
    let gen_tokens: usize = ph.served.iter().map(|s| s.client.tokens.len()).sum();
    let linear_bytes = sum(inp
        .linears
        .iter()
        .filter(|l| l.method != LinearMethod::Shadow)
        .map(|l| (l.n * l.k) as f64 * if shadow { 1.0 } else { 4.0 }));
    let head_bytes = sum(head.iter().map(|k| (k.n * k.k) as f64 * 4.0));
    put(
        "tensor.lm_head_ms",
        sum(head.iter().map(|k| dur(k.start, k.end))),
        "ms",
        head.len(),
    );
    put(
        "tensor.lm_head_calls",
        head.len() as f64,
        "count",
        head.len(),
    );
    put("tensor.gemm_f32_ms", f32_ms, "ms", f32k.len());
    put(
        "tensor.gemm_f32_calls",
        f32k.len() as f64,
        "count",
        f32k.len(),
    );
    put(
        "tensor.gemm_f32_gflops",
        if f32_ms > 0.0 {
            f32_flops / (f32_ms * 1e6)
        } else {
            0.0
        },
        "GFLOP/s",
        f32k.len(),
    );
    put(
        "tensor.weight_mb_per_token",
        (linear_bytes + head_bytes) / 1e6 / gen_tokens.max(1) as f64,
        "MB/token",
        gen_tokens,
    );
    put("tensor.pack_b_calls", inp.pack_b_calls as f64, "count", 1);
    put("tensor.thread_spawns", inp.thread_spawns as f64, "count", 1);

    // ---- model / quant ----
    let of = |method: LinearMethod| -> Vec<&LinearSpan> {
        inp.linears.iter().filter(|l| l.method == method).collect()
    };
    let (full, main, shadow_half) = (
        of(LinearMethod::Full),
        of(LinearMethod::Main),
        of(LinearMethod::Shadow),
    );
    let linear_total = sum(inp.linears.iter().map(|l| dur(l.start, l.end)));
    let inside = kernels_inside_linears(inp.kernels, inp.linears);
    let kernel_total = sum(inp.kernels.iter().map(|k| dur(k.start, k.end)));
    let kernel_in = sum(inp
        .kernels
        .iter()
        .zip(&inside)
        .filter(|(_, &i)| i)
        .map(|(k, _)| dur(k.start, k.end)));
    let kernel_out = kernel_total - kernel_in;
    let spans = || ph.batches.iter().flat_map(|b| b.spans.iter());
    let model_task = sum(spans().filter(|s| !s.kv).map(|s| dur(s.start, s.end)));
    let kv_task = sum(spans().filter(|s| s.kv).map(|s| dur(s.start, s.end)));
    let task_other = model_task - linear_total - kernel_out;
    put(
        "model.linear_ms",
        sum(full.iter().map(|l| dur(l.start, l.end))),
        "ms",
        full.len(),
    );
    put("model.linear_calls", full.len() as f64, "count", full.len());
    put(
        "model.linear_rows_mean",
        sum(full.iter().map(|l| l.rows as f64)) / full.len().max(1) as f64,
        "rows",
        full.len(),
    );
    put(
        "model.linear_main_ms",
        sum(main.iter().map(|l| dur(l.start, l.end))),
        "ms",
        main.len(),
    );
    put(
        "model.linear_shadow_ms",
        sum(shadow_half.iter().map(|l| dur(l.start, l.end))),
        "ms",
        shadow_half.len(),
    );
    put(
        "model.shadow_nonempty_frac",
        shadow_half.iter().filter(|l| l.nonempty).count() as f64 / shadow_half.len().max(1) as f64,
        "ratio",
        shadow_half.len(),
    );
    put("model.task_other_ms", task_other, "ms", 1);

    // ---- sched ----
    let exec: f64 = ph.batches.iter().map(|b| b.makespan_ms).sum();
    let lanes: BTreeSet<&str> = spans().map(|s| s.lane.as_str()).collect();
    let lane_count = lanes.len().max(1) as f64;
    let busy = |lane: &str| {
        sum(spans()
            .filter(|s| s.lane == lane)
            .map(|s| dur(s.start, s.end)))
    };
    let busy_total = sum(lanes.iter().map(|l| busy(l)));
    let overlap = sum(ph.batches.iter().map(|b| {
        let on = |lane: &str| -> Vec<(f64, f64)> {
            b.spans
                .iter()
                .filter(|s| s.lane == lane)
                .map(|s| (s.start, s.end))
                .collect()
        };
        both_busy(&on("Npu"), &on("Cpu"))
    }));
    let idle_lane = lane_count * exec - busy_total;
    let requests = ph.served.len().max(1) as f64;
    put("sched.lane_busy_ms.npu", busy("Npu"), "ms", 1);
    put("sched.lane_busy_ms.cpu", busy("Cpu"), "ms", 1);
    put(
        "sched.overlap_frac",
        overlap / exec.max(1e-9),
        "ratio",
        ph.batches.len(),
    );
    put(
        "sched.idle_frac",
        idle_lane / (lane_count * exec).max(1e-9),
        "ratio",
        ph.batches.len(),
    );
    put(
        "sched.kernel_batches",
        ph.metrics.counter("pool.kernel_batches") as f64,
        "count",
        1,
    );
    put(
        "sched.kernel_jobs_inline",
        ph.metrics.counter("pool.kernel_jobs_inline") as f64,
        "count",
        1,
    );
    put(
        "sched.tasks_per_request",
        spans().count() as f64 / requests,
        "tasks",
        ph.served.len(),
    );

    // ---- soc ----
    let prefill: Vec<_> = spans().filter(|s| s.prefill_stage).collect();
    let measured: Vec<f64> = prefill.iter().map(|s| dur(s.start, s.end)).collect();
    let modeled: Vec<f64> = prefill.iter().map(|s| s.modeled).collect();
    put(
        "soc.rank_corr",
        spearman(&modeled, &measured),
        "ratio",
        prefill.len(),
    );
    put(
        "soc.measured_over_modeled",
        sum(measured.iter().copied()) / sum(modeled.iter().copied()).max(1e-9),
        "ratio",
        prefill.len(),
    );

    // ---- kv ----
    let prompt_tokens: usize = ph
        .served
        .iter()
        .map(|s| s.planned.request.prompt.len())
        .sum();
    put(
        "kv.prefix_hit_token_frac",
        ph.kv.hit_tokens as f64 / prompt_tokens.max(1) as f64,
        "ratio",
        ph.served.len(),
    );
    put(
        "kv.cache_inserted_blocks",
        ph.kv.inserted as f64,
        "count",
        1,
    );
    put("kv.cache_evicted_blocks", ph.kv.evicted as f64, "count", 1);
    put("kv.peak_used_blocks", ph.kv.peak_used as f64, "count", 1);
    put("kv.preemptions", ph.kv.preemptions as f64, "count", 1);
    put("kv.cow_copies", ph.kv.cow as f64, "count", 1);

    // ---- core ----
    let closed = inp.kind != Kind::ChatSession;
    let calls: f64 = ph.batches.iter().filter_map(|b| b.call_ms).sum();
    let (harness_ms, core_ms) = if closed {
        (ph.wall_ms - calls, calls - exec)
    } else {
        (ph.idle_ms, ph.wall_ms - ph.idle_ms - exec)
    };
    let batches = ph.batches.len().max(1) as f64;
    put(
        "core.orchestration_ms",
        core_ms / batches,
        "ms",
        ph.batches.len(),
    );
    put(
        "core.queue_wait_p90_ms",
        percentile_any(&ph.queue_waits, 0.9).map_or(0.0, |p| p.value),
        "ms",
        ph.queue_waits.len(),
    );
    put("core.batches", ph.batches.len() as f64, "count", 1);
    put(
        "core.batch_width_mean",
        requests / batches,
        "requests",
        ph.batches.len(),
    );
    put("core.retries", ph.retries as f64, "count", 1);

    // ---- verify ----
    put(
        "verify.plan_prove_ms",
        plan.0,
        "ms",
        ph.batches.len().min(MAX_PROVEN_BATCHES),
    );
    put(
        "verify.plan_tasks",
        plan.1,
        "tasks",
        ph.batches.len().min(MAX_PROVEN_BATCHES),
    );

    // ---- obs / harness ----
    let engine_time = |p: &Phase| {
        if closed {
            p.wall_ms
        } else {
            p.wall_ms - p.idle_ms
        }
    };
    put(
        "obs.trace_overhead_frac",
        engine_time(ph) / engine_time(inp.untraced).max(1e-9) - 1.0,
        "ratio",
        1,
    );
    let late: Vec<f64> = ph.served.iter().map(|s| s.client.late_ms()).collect();
    put(
        "harness.gen_late_p99_ms",
        percentile_any(&late, 0.99).map_or(0.0, |p| p.value),
        "ms",
        late.len(),
    );

    // ---- self time ----
    let linear_self = linear_total - kernel_in;
    let parts: [(&str, f64); 7] = [
        ("harness", harness_ms),
        ("core", core_ms),
        ("sched", idle_lane / lane_count),
        ("kv", kv_task / lane_count),
        (
            "model",
            (task_other + if shadow { 0.0 } else { linear_self }) / lane_count,
        ),
        (
            "quant",
            if shadow {
                linear_self / lane_count
            } else {
                0.0
            },
        ),
        ("tensor", kernel_total / lane_count),
    ];
    let wall = ph.wall_ms.max(1e-9);
    let attributed: f64 = parts.iter().map(|p| p.1).sum();
    let residual = (wall - attributed) / wall;
    put("harness.residual_frac", residual, "ratio", 1);
    let mut lines = Vec::new();
    let mut failure = None;
    for (layer, ms) in parts {
        put(&format!("self.{layer}_frac"), ms / wall, "ratio", 1);
        lines.push(format!(
            "{layer:<10} {ms:>12.2} ms  {:>7.2}%",
            100.0 * ms / wall
        ));
        if ms < -TOLERANCE * wall {
            failure = Some(format!("layer {layer} has negative self time ({ms:.2} ms)"));
        }
    }
    lines.push(format!(
        "{:<10} {:>12.2} ms  {:>7.2}%   (lanes: {}; tolerance ±{:.0}%)",
        "residual",
        wall - attributed,
        100.0 * residual,
        lanes.iter().copied().collect::<Vec<_>>().join("+"),
        100.0 * TOLERANCE
    ));
    if residual.abs() > TOLERANCE {
        failure = Some(format!(
            "self times leave {:.2}% of wall unattributed (tolerance {:.0}%)",
            100.0 * residual,
            100.0 * TOLERANCE
        ));
    }
    (m, Table { lines, failure })
}

/// Every span of the traced pass, with parents linked by containment
/// on each lane: wrapper and probe spans on their threads, client
/// requests, serve calls, and executor tasks on each batch's clock.
pub fn written_spans(ph: &Phase, kernels: &[KernelSpan], linears: &[LinearSpan]) -> Vec<OutSpan> {
    let mut spans = thread_spans(kernels, linears);
    for (i, s) in ph.served.iter().enumerate() {
        spans.push(OutSpan {
            name: "harness.request".to_owned(),
            lane: format!("client.request{i}"),
            start: s.client.due_ms,
            end: s.client.recv_ms.last().copied().unwrap_or(s.client.due_ms),
            parent: None,
            request: Some(i),
        });
    }
    for (b, batch) in ph.batches.iter().enumerate() {
        for s in &batch.spans {
            spans.push(OutSpan {
                name: if s.kv { "kv.task" } else { "model.task" }.to_owned(),
                lane: format!("batch{b}.{}", s.lane),
                start: s.start,
                end: s.end,
                parent: None,
                request: Some(s.request),
            });
        }
    }
    // Parents start no later than their children, so after this sort
    // every parent precedes its children and any prefix is closed.
    spans.sort_by(|a, b| a.start.total_cmp(&b.start).then(b.end.total_cmp(&a.end)));
    link_parents(&mut spans);
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_is_the_intersection_of_lane_unions() {
        let a = [(0.0, 4.0), (6.0, 8.0)];
        let b = [(2.0, 7.0)];
        assert!((both_busy(&a, &b) - 3.0).abs() < 1e-12);
        assert_eq!(union_len(vec![(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]), 3.0);
    }
}
