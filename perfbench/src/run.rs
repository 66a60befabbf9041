//! Replaying a workload against the public serving API: closed-loop
//! `serve` calls, or open-loop arrivals into the streaming front-end
//! (which serves them through `serve_with_session` on one session). A phase records what the client saw and what
//! each serving batch reported.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use llmnpu::core::frontend::{frontend, FrontendReport, StreamEvent};
use llmnpu::core::serve::{
    GenerationRequest, RequestOutcome, RequestStatus, ServeOptions, ServeReport, ServeTaskKind,
    TokenEvent,
};
use llmnpu::model::forward::Transformer;
use llmnpu::obs::{EventKind, MetricsSnapshot, Observability};

use crate::layers::union_len;
use crate::stats::{ClientRequest, Ending};
use crate::trace::now_ms;
use crate::workload::{closed_op, Kind, Planned, Setup};
use crate::Res;

/// One sent request and what came back.
#[derive(Debug, Clone)]
pub struct Served {
    /// What was sent.
    pub planned: Planned,
    /// What the client saw.
    pub client: ClientRequest,
}

/// One executor span of a serving batch, on that batch's clock.
#[derive(Debug, Clone)]
pub struct ExecSpan {
    /// Processor lane (`"Npu"`, `"Cpu"`).
    pub lane: String,
    /// Page bookkeeping (admit, release, evict) rather than model work.
    pub kv: bool,
    /// A stage of the chunked-prefill DAG.
    pub prefill_stage: bool,
    /// Start, ms.
    pub start: f64,
    /// End, ms.
    pub end: f64,
    /// The latency model's duration for the task, ms.
    pub modeled: f64,
    /// Request index within the batch.
    pub request: usize,
}

/// One serving batch: a `serve` call, or one round of the front-end.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Client-observed call wall, ms (closed loop only).
    pub call_ms: Option<f64>,
    /// Executor makespan, ms.
    pub makespan_ms: f64,
    /// Executor spans.
    pub spans: Vec<ExecSpan>,
    /// The batch's requests, for re-proving its plan.
    pub requests: Vec<GenerationRequest>,
}

/// Page-pool and prefix-cache counters over a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct KvTotals {
    /// Prompt tokens served from the prefix cache.
    pub hit_tokens: u64,
    /// Pages newly cached.
    pub inserted: u64,
    /// Cached pages evicted.
    pub evicted: u64,
    /// High-water mark of pages in use.
    pub peak_used: usize,
    /// Live-request preemptions.
    pub preemptions: u64,
    /// Copy-on-write page copies.
    pub cow: u64,
}

/// Everything one measured phase recorded.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall time of the phase, ms.
    pub wall_ms: f64,
    /// Requests in send order.
    pub served: Vec<Served>,
    /// Serving batches in order.
    pub batches: Vec<Batch>,
    /// Open loop: time with no request outstanding, ms.
    pub idle_ms: f64,
    /// Page and cache counters.
    pub kv: KvTotals,
    /// Failed-request retries.
    pub retries: u64,
    /// Client-side queue wait per request, ms.
    pub queue_waits: Vec<f64>,
    /// Final metrics-registry snapshot (traced phases).
    pub metrics: MetricsSnapshot,
    /// Every batch returned with zero leaked pages and the session
    /// flushed clean.
    pub leak_free: bool,
}

fn ending(status: &RequestStatus) -> Ending {
    if status.is_completed() {
        Ending::Completed
    } else {
        Ending::Failed
    }
}

fn exec_spans(report: &ServeReport) -> Vec<ExecSpan> {
    report
        .timeline
        .entries()
        .iter()
        .map(|s| ExecSpan {
            lane: format!("{:?}", s.processor),
            kv: matches!(
                s.kind,
                ServeTaskKind::Admit | ServeTaskKind::Release | ServeTaskKind::Evicted
            ),
            prefill_stage: matches!(s.kind, ServeTaskKind::PrefillStage { .. }),
            start: s.start_ms,
            end: s.end_ms,
            modeled: s.modeled_ms,
            request: s.request,
        })
        .collect()
}

/// When a closed-loop phase stops issuing ops.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Send ops while less than this much time has passed.
    Seconds(f64),
    /// Send exactly this many ops.
    Ops(usize),
}

/// Closed loop, one client: each op is one `serve` call, issued when
/// the previous one returned. Every request of an op is due at the call.
pub fn closed_phase(
    kind: Kind,
    seed: u64,
    setup: &Setup,
    t: &Transformer<'_>,
    limit: Limit,
    obs: Option<&Observability>,
) -> Res<Phase> {
    let mut phase = Phase {
        leak_free: true,
        ..Phase::default()
    };
    let start = now_ms();
    let mut i = 0;
    loop {
        let more = match limit {
            Limit::Seconds(s) => now_ms() - start < s * 1e3,
            Limit::Ops(n) => i < n,
        };
        if !more {
            break;
        }
        let planned = closed_op(kind, seed, i);
        let requests: Vec<GenerationRequest> = planned.iter().map(|p| p.request.clone()).collect();
        let recv: Arc<Mutex<Vec<TokenEvent>>> = Arc::default();
        let recv_at: Arc<Mutex<Vec<f64>>> = Arc::default();
        let mut opts = kind.options();
        opts.obs = obs.cloned();
        let (sink, sink_at) = (Arc::clone(&recv), Arc::clone(&recv_at));
        opts.on_token = Some(Arc::new(move |ev: &TokenEvent| {
            let at = now_ms();
            sink.lock().expect("token log").push(*ev);
            sink_at.lock().expect("token log").push(at);
        }));
        let due = now_ms();
        let report = setup.engine.serve(t, &requests, &opts)?;
        let end = now_ms();
        let events = recv.lock().expect("token log").clone();
        let times = recv_at.lock().expect("token log").clone();

        let mut clients: Vec<ClientRequest> =
            planned.iter().map(|_| ClientRequest::new(due)).collect();
        for (ev, at) in events.iter().zip(times) {
            let c = &mut clients[ev.request];
            // A retry re-streams from step 0.
            c.recv_ms.truncate(ev.step);
            c.recv_ms.push(at);
        }
        phase.leak_free &= report.kv.leaked_blocks == 0;
        phase.kv.hit_tokens += report.kv.prefix_cache_hit_tokens;
        phase.kv.inserted += report.kv.prefix_cache_inserted_blocks;
        phase.kv.evicted += report.kv.prefix_cache_evictions;
        phase.kv.peak_used = phase.kv.peak_used.max(report.kv.peak_used_blocks);
        phase.kv.preemptions += report.kv.evictions as u64;
        phase.kv.cow = report.kv.cow_copies;
        phase.batches.push(Batch {
            call_ms: Some(end - due),
            makespan_ms: report.makespan_ms(),
            spans: exec_spans(&report),
            requests,
        });
        for outcome in &report.requests {
            let c = &mut clients[outcome.request];
            c.ending = ending(&outcome.status);
            c.tokens = outcome.tokens.clone();
            phase.retries += outcome.attempts.saturating_sub(1) as u64;
            phase.queue_waits.push(outcome.queue_wait_ms());
        }
        for (planned, client) in planned.into_iter().zip(clients) {
            phase.served.push(Served { planned, client });
        }
        phase.metrics = report.metrics;
        i += 1;
    }
    phase.wall_ms = now_ms() - start;
    Ok(phase)
}

/// Open loop: one generator thread sends each request at its due time
/// into the streaming front-end, and a blocked receiver per stream
/// timestamps its events; the front-end serves on a thread of its own.
pub fn open_phase(
    setup: &Setup,
    t: &Transformer<'_>,
    warmup: &[GenerationRequest],
    planned: &[Planned],
    obs: Option<&Observability>,
    on_start: &mut dyn FnMut(),
) -> Res<Phase> {
    let mut opts: ServeOptions = Kind::ChatSession.options();
    opts.obs = obs.cloned();
    let (client, fe) = frontend(opts);
    let n = planned.len();
    let mut clients: Vec<ClientRequest> = Vec::with_capacity(n);
    let mut outcomes: Vec<Option<RequestOutcome>> = (0..n).map(|_| None).collect();
    let mut idle_ms = 0.0;
    let mut wall_ms = 0.0;
    let report: Res<FrontendReport> = std::thread::scope(|s| {
        let engine = &setup.engine;
        let server = s.spawn(move || fe.run(engine, t));
        // Warm-up (not measured): served one at a time, before the clock.
        for w in warmup {
            let done = client.submit(w.clone())?.wait();
            if !done.is_some_and(|o| o.status.is_completed()) {
                return Err("a warm-up request did not complete".into());
            }
        }
        on_start();
        let t0 = now_ms();
        clients.extend(planned.iter().map(|p| ClientRequest::new(t0 + p.due_ms)));
        // One blocked receiver per stream timestamps each event as it
        // arrives, so the client side never spins for CPU the lanes need.
        let mut receivers = Vec::with_capacity(n);
        for (c, p) in clients.iter_mut().zip(planned) {
            let wait_ms = c.due_ms - now_ms();
            if wait_ms > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait_ms / 1e3));
            }
            c.sent_ms = now_ms();
            let handle = client.submit(p.request.clone())?;
            receivers.push(s.spawn(move || {
                std::iter::from_fn(|| handle.recv().map(|ev| (ev, now_ms()))).collect::<Vec<_>>()
            }));
        }
        let mut busy: Vec<(f64, f64)> = Vec::with_capacity(n);
        for ((c, receiver), outcome) in clients.iter_mut().zip(receivers).zip(&mut outcomes) {
            for (ev, at) in receiver.join().expect("stream receiver panicked") {
                match ev {
                    StreamEvent::Token { step, .. } => {
                        // A retry re-streams from step 0.
                        c.recv_ms.truncate(step);
                        c.recv_ms.push(at);
                    }
                    StreamEvent::Finished { outcome: o } => {
                        c.ending = ending(&o.status);
                        c.tokens = o.tokens.clone();
                        busy.push((c.sent_ms, at));
                        *outcome = Some(o);
                    }
                }
            }
        }
        let end = busy.iter().map(|b| b.1).fold(now_ms(), f64::max);
        idle_ms = (end - t0) - union_len(busy);
        wall_ms = end - t0;
        client.shutdown();
        drop(client);
        server
            .join()
            .expect("front-end thread panicked")
            .map_err(Into::into)
    });
    let report = report?;

    let mut phase = Phase {
        wall_ms,
        idle_ms,
        leak_free: true, // `Frontend::run` returns Ok only after a clean flush
        kv: KvTotals {
            hit_tokens: report.cache.hit_tokens,
            inserted: report.cache.inserted_blocks,
            evicted: report.cache.evicted_blocks,
            peak_used: report.peak_used_blocks,
            preemptions: report.metrics.counter("serve.evictions"),
            cow: report
                .metrics
                .gauges
                .get("kv.cow_copies")
                .map_or(0, |&v| v.max(0) as u64),
        },
        retries: report.metrics.counter("serve.retries"),
        metrics: report.metrics.clone(),
        ..Phase::default()
    };
    for ((p, client), outcome) in planned.iter().zip(clients).zip(outcomes) {
        if let (Some(o), Some(first)) = (&outcome, client.recv_ms.first()) {
            // Time before the request's first task ran: the client's
            // TTFT less the executor's own first-token latency.
            let exec_ttft = o
                .token_times_ms
                .first()
                .map_or(0.0, |t| t - o.first_dispatch_ms);
            phase
                .queue_waits
                .push((first - client.due_ms - exec_ttft).max(0.0));
        }
        phase.served.push(Served {
            planned: p.clone(),
            client,
        });
    }
    phase.batches = frontend_batches(obs, warmup.len(), planned);
    Ok(phase)
}

/// Splits a traced front-end run into its batches: the front-end takes
/// requests in submission order, and each batch's executor spans are
/// recorded together, ending at the release of its last request. The
/// batches of the first `skip` (warm-up) requests are left out.
fn frontend_batches(obs: Option<&Observability>, skip: usize, planned: &[Planned]) -> Vec<Batch> {
    let Some(obs) = obs else {
        return Vec::new();
    };
    let log = obs.sink.snapshot();
    let widths: Vec<usize> = log
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Batch)
        .filter_map(|e| {
            e.detail
                .split_once(": ")
                .and_then(|(_, w)| w.split_whitespace().next())
                .and_then(|w| w.parse().ok())
        })
        .collect();
    let mut out: Vec<Batch> = Vec::with_capacity(widths.len());
    let mut spans = log.spans.iter();
    // Index of the batch's first request among all submissions.
    let mut first = 0;
    for &width in &widths {
        let mut batch_spans = Vec::new();
        let mut released = 0;
        while released < width {
            let Some(s) = spans.next() else { break };
            if s.class == "release" {
                released += 1;
            }
            batch_spans.push(ExecSpan {
                lane: s.lane.clone(),
                kv: matches!(s.class.as_str(), "admit" | "release" | "evict"),
                prefill_stage: s.class == "prefill",
                start: s.start_ms,
                end: s.end_ms,
                modeled: s.modeled_ms,
                request: s.request.unwrap_or(0),
            });
        }
        if first >= skip {
            let members = first - skip..(first - skip + width).min(planned.len());
            out.push(Batch {
                call_ms: None,
                makespan_ms: batch_spans.iter().map(|s| s.end).fold(0.0, f64::max),
                spans: batch_spans,
                requests: planned[members].iter().map(|p| p.request.clone()).collect(),
            });
        }
        first += width;
    }
    out
}

/// Counts completed streams that differ from their solo
/// `Transformer::generate` run (computed once per distinct request).
pub fn solo_mismatches(
    t: &Transformer<'_>,
    chunk_len: usize,
    served: &[Served],
    cache: &mut HashMap<u64, Vec<u32>>,
) -> Res<usize> {
    let mut bad = 0;
    for s in served {
        if s.client.ending != Ending::Completed {
            continue;
        }
        let req = &s.planned.request;
        let solo = match cache.entry(s.planned.key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(t.generate(
                &req.prompt,
                Some(chunk_len),
                req.max_new_tokens,
                &req.sampler,
            )?),
        };
        if *solo != s.client.tokens || s.client.recv_ms.len() != s.client.tokens.len() {
            bad += 1;
        }
    }
    Ok(bad)
}
