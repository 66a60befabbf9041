//! Serving benchmark for llmnpu: replays one seeded workload against
//! the public serving API and prints its metrics.
//!
//! ```sh
//! python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` replays the same requests twice, untraced and then
//! traced (kernel probe, `LinearBackend` wrapper, `ServeOptions::obs`),
//! and prints the per-layer breakdown of the traced pass. Either mode
//! checks every completed stream against its solo
//! `Transformer::generate` run, that every request reached a terminal
//! status and that no KV page leaked, and exits non-zero if a check
//! fails. The last line of standard output is the JSON result.

mod layers;
mod run;
mod stats;
mod trace;
mod workload;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use llmnpu::model::forward::Transformer;
use llmnpu::obs::Observability;
use llmnpu::tensor::kernel::{pack, parallel, probe};

use crate::run::{closed_phase, open_phase, solo_mismatches, Limit, Phase};
use crate::stats::{median, percentile, slo_ok_frac, Ending, Slo};
use crate::trace::{now_ms, Recorder, TracedBackend};
use crate::workload::{chat_requests, setup, Kind, CHUNK_LEN};

/// The benchmark's error type.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Set-ups timed per `--trace 0` run: at least this many, and more
/// (up to [`SETUP_MAX_REPEATS`]) until [`SETUP_MIN_SECONDS`] have been
/// spent, so that the reported median is steady for fast set-ups too.
const SETUP_REPEATS: usize = 5;
const SETUP_MAX_REPEATS: usize = 50;
const SETUP_MIN_SECONDS: f64 = 2.0;

/// Marks a gated metric the run could not report; the run then fails.
const UNSUPPORTED_GATED: &str = " [gated: run fails]";

/// Spans written to the trace file, at most.
const MAX_WRITTEN_SPANS: usize = 100_000;

/// Latency limits of `chat_session`'s SLO share: about twice the p90
/// TTFT (73 ms) and p99 gap (9.8 ms) of a 60 s run (120 requests) on
/// the 2-vCPU host the benchmark was written on.
const CHAT_SLO: Slo = Slo {
    ttft_ms: 150.0,
    gap_ms: 20.0,
};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement).
    pub n: usize,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &'static str, n: usize) -> Self {
        Metric {
            name: name.to_owned(),
            value,
            unit,
            n,
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Res<Args> {
    let mut it = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = value.parse()?,
            "--seconds" => seconds = value.parse()?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}").into()),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// Host and build facts every result records.
fn environment(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned());
    format!(
        "workload={} seed={} seconds={} trace={} nproc={} cpu=\"{}\" rustflags=\"{}\" git_rev={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
        cpu,
        env!("PERFBENCH_RUSTFLAGS"),
        rev
    )
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Requests sent, completed, and failed or never finished.
fn counts(phase: &Phase) -> (usize, usize, usize) {
    let sent = phase.served.len();
    let ok = phase
        .served
        .iter()
        .filter(|s| s.client.ending == Ending::Completed)
        .count();
    (sent, ok, sent - ok)
}

/// Runs one measured phase of the workload.
fn measure(
    kind: Kind,
    seed: u64,
    s: &workload::Setup,
    t: &Transformer<'_>,
    limit: Limit,
    obs: Option<&Observability>,
    on_start: &mut dyn FnMut(),
) -> Res<Phase> {
    if kind == Kind::ChatSession {
        let secs = match limit {
            Limit::Seconds(secs) => secs,
            Limit::Ops(_) => unreachable!("open loop runs on a schedule"),
        };
        let (warmup, planned) = chat_requests(seed, secs);
        return open_phase(s, t, &warmup, &planned, obs, on_start);
    }
    // Warm-up op (not measured): fills pools, packs and caches.
    closed_phase(kind, seed ^ 0xffff, s, t, Limit::Ops(1), None)?;
    on_start();
    closed_phase(kind, seed, s, t, limit, obs)
}

/// End-to-end metrics of an untraced phase.
fn end_to_end(kind: Kind, phase: &Phase, setup_s: &[f64]) -> (Vec<Metric>, Vec<String>) {
    let done: Vec<_> = phase
        .served
        .iter()
        .filter(|s| s.client.ending == Ending::Completed)
        .collect();
    let ttft: Vec<f64> = done.iter().filter_map(|s| s.client.ttft_ms()).collect();
    let gaps: Vec<f64> = done.iter().flat_map(|s| s.client.gaps_ms()).collect();
    let prompt_tokens: usize = done.iter().map(|s| s.planned.request.prompt.len()).sum();
    let out_tokens: usize = done.iter().map(|s| s.client.tokens.len()).sum();
    let wall_s = phase.wall_ms / 1e3;
    let (sent, ok, failed) = counts(phase);

    let mut gated = vec![Metric::new("setup_s", median(setup_s), "s", setup_s.len())];
    let mut notes = Vec::new();
    let mut pct = |name: &str, samples: &[f64], q: f64, gate: bool| match percentile(samples, q) {
        Some(p) => {
            let m = Metric::new(name, p.value, "ms", p.n);
            if gate {
                gated.push(m);
            } else {
                notes.push(format!(
                    "{name:<18} {:>12.4} ms      n={} ({} beyond)",
                    p.value, p.n, p.beyond
                ));
            }
        }
        None => notes.push(format!(
            "{name:<18} {:>12} ms      n={} (fewer than 10 samples beyond; not reported){}",
            "-",
            samples.len(),
            if gate { UNSUPPORTED_GATED } else { "" }
        )),
    };
    pct("ttft_p50_ms", &ttft, 0.50, false);
    pct("itl_p50_ms", &gaps, 0.50, true);
    pct("ttft_p90_ms", &ttft, 0.90, false);
    pct("itl_p99_ms", &gaps, 0.99, false);
    gated.push(Metric::new(
        "output_tok_s",
        out_tokens as f64 / wall_s,
        "tok/s",
        ok,
    ));
    gated.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1));
    let ttft_sum_s: f64 = ttft.iter().sum::<f64>() / 1e3;
    notes.push(format!(
        "{:<18} {:>12.4} tok/s   n={} (prompt tokens / TTFT, summed)",
        "prefill_tok_s",
        prompt_tokens as f64 / ttft_sum_s.max(1e-9),
        ttft.len()
    ));
    notes.push(format!(
        "{:<18} {:>12.4} req/s   n={ok}",
        "req_s",
        ok as f64 / wall_s
    ));
    if kind == Kind::ChatSession {
        let clients: Vec<_> = phase.served.iter().map(|s| s.client.clone()).collect();
        notes.push(format!(
            "{:<18} {:>12.4} ratio   n={sent} (TTFT <= {} ms and every gap <= {} ms)",
            "slo_ok_frac",
            slo_ok_frac(&clients, CHAT_SLO),
            CHAT_SLO.ttft_ms,
            CHAT_SLO.gap_ms
        ));
        let late: Vec<f64> = phase.served.iter().map(|s| s.client.late_ms()).collect();
        if let Some(p) = stats::percentile_any(&late, 0.99) {
            notes.push(format!(
                "{:<18} {:>12.4} ms      n={}",
                "gen_late_p99_ms", p.value, p.n
            ));
        }
    }
    notes.push(format!(
        "{:<18} {:>12.4} ratio   n={sent}",
        "failed_frac",
        failed as f64 / sent.max(1) as f64
    ));
    notes.push(format!(
        "requests: sent={sent} succeeded={ok} failed={failed}"
    ));
    (gated, notes)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    );
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("--- {title} ---");
    for m in metrics {
        println!("{:<32} {:>14.4} {:<8} n={}", m.name, m.value, m.unit, m.n);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match bench(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs the benchmark; `Ok(false)` when an output check failed.
fn bench(args: &Args) -> Res<bool> {
    let kind = args.kind;
    let env = environment(args);
    println!("env: {env}");

    // Set-up, timed whole: weights, calibration, backend packing,
    // `Transformer::new`, engine and session open.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut built = None;
    while setup_s.is_empty()
        || (!args.trace
            && (setup_s.len() < SETUP_REPEATS
                || (setup_s.len() < SETUP_MAX_REPEATS
                    && setup_s.iter().sum::<f64>() < SETUP_MIN_SECONDS)))
    {
        drop(built.take()); // free the previous set-up before timing the next
        let t0 = now_ms();
        let s = setup(kind)?;
        {
            let t = Transformer::new(&s.weights, s.backend.as_ref());
            if kind == Kind::ChatSession {
                s.engine.open_serve_session(&t, &kind.options())?.flush()?;
            }
        }
        setup_s.push((now_ms() - t0) / 1e3);
        built = Some(s);
    }
    let s = built.expect("at least one set-up");
    let t = Transformer::new(&s.weights, s.backend.as_ref());
    let mut solo_cache = HashMap::new();

    if !args.trace {
        let t_measure = now_ms();
        let phase = measure(
            kind,
            args.seed,
            &s,
            &t,
            Limit::Seconds(args.seconds),
            None,
            &mut || {},
        )?;
        let t_check = now_ms();
        let mismatches = s
            .engine
            .pool()
            .install_scope(|| solo_mismatches(&t, CHUNK_LEN, &phase.served, &mut solo_cache))?;
        eprintln!(
            "timing: setup {:.2} s, measure {:.2} s, checks {:.2} s",
            setup_s.iter().sum::<f64>(),
            (t_check - t_measure) / 1e3,
            (now_ms() - t_check) / 1e3
        );
        let (sent, ok, failed) = counts(&phase);
        let (metrics, notes) = end_to_end(kind, &phase, &setup_s);
        print_table(
            &format!("{} end to end (tracing off)", kind.name()),
            &metrics,
        );
        for n in &notes {
            println!("{n}");
        }
        let unfinished = phase
            .served
            .iter()
            .filter(|r| r.client.ending == Ending::Unfinished)
            .count();
        let unsupported: Vec<String> = notes
            .iter()
            .filter(|n| n.ends_with(UNSUPPORTED_GATED))
            .map(|n| format!("too few samples for a gated metric: {n}"))
            .collect();
        let correct = report_checks(mismatches, unfinished, phase.leak_free, &unsupported);
        println!("checks: solo-identical {}/{ok}", ok - mismatches.min(ok));
        print_result(correct, sent, failed, &metrics);
        return Ok(correct);
    }

    // Traced run: the same requests untraced, then traced.
    let half = args.seconds / 2.0;
    let plain = measure(
        kind,
        args.seed,
        &s,
        &t,
        Limit::Seconds(half),
        None,
        &mut || {},
    )?;
    let rec = Arc::new(Recorder::default());
    let wrapped = TracedBackend {
        inner: s.backend.as_ref(),
        rec: &rec,
    };
    let traced_t = Transformer::new(&s.weights, &wrapped);
    let obs = Observability::enabled();
    let ops = Limit::Ops(plain.batches.len());
    let limit = if kind == Kind::ChatSession {
        Limit::Seconds(half)
    } else {
        ops
    };
    // Counters and spans start after the warm-up op.
    let mut base = (0, 0);
    let traced = measure(
        kind,
        args.seed,
        &s,
        &traced_t,
        limit,
        Some(&obs),
        &mut || {
            let _ = rec.take();
            base = (pack::pack_b_calls_global(), parallel::thread_spawns());
            probe::install(Arc::clone(&rec) as Arc<dyn probe::KernelProbe>);
        },
    );
    probe::uninstall();
    let traced = traced?;
    let counters = (
        pack::pack_b_calls_global() - base.0,
        parallel::thread_spawns() - base.1,
    );
    let (kernels, linears) = rec.take();

    let mut extra_failures = Vec::new();
    let identical =
        plain.served.len() == traced.served.len()
            && plain.served.iter().zip(&traced.served).all(|(a, b)| {
                a.client.tokens == b.client.tokens && a.client.ending == b.client.ending
            });
    if !identical {
        extra_failures.push("traced streams differ from untraced streams".to_owned());
    }

    let layer_input = layers::Input {
        kind,
        untraced: &plain,
        traced: &traced,
        kernels: &kernels,
        linears: &linears,
        pack_b_calls: counters.0,
        thread_spawns: counters.1,
        vocab: s.weights.config.vocab,
    };
    let plan = layers::prove_plans(&s.engine, &t, kind, &traced.batches)?;
    let (metrics, table) = layers::per_layer(&layer_input, plan);
    print_table(&format!("{} per layer (traced)", kind.name()), &metrics);
    println!(
        "--- {} self time by layer (traced wall {:.1} ms) ---",
        kind.name(),
        traced.wall_ms
    );
    for line in &table.lines {
        println!("{line}");
    }
    if let Some(why) = &table.failure {
        extra_failures.push(why.clone());
    }
    let out = std::path::Path::new("perfbench/out").join(format!(
        "{}-seed{}.spans.jsonl",
        kind.name(),
        args.seed
    ));
    let mut spans = layers::written_spans(&traced, &kernels, &linears);
    let total_spans = spans.len();
    // Keep the file small on workloads with millions of kernel calls:
    // the earliest spans (parents stay within the kept prefix).
    spans.truncate(MAX_WRITTEN_SPANS);
    match trace::write_spans(
        &out,
        &format!("{{\"env\":\"{}\"}}", env.replace('"', "'")),
        &spans,
    ) {
        Ok(()) => println!(
            "spans: {} of {total_spans} written to {}",
            spans.len(),
            out.display()
        ),
        Err(e) => println!("spans: not written ({e})"),
    }

    let mismatches = s.engine.pool().install_scope(|| -> Res<usize> {
        Ok(
            solo_mismatches(&t, CHUNK_LEN, &plain.served, &mut solo_cache)?
                + solo_mismatches(&t, CHUNK_LEN, &traced.served, &mut solo_cache)?,
        )
    })?;
    let unfinished = plain
        .served
        .iter()
        .chain(&traced.served)
        .filter(|r| r.client.ending == Ending::Unfinished)
        .count();
    let correct = report_checks(
        mismatches,
        unfinished,
        plain.leak_free && traced.leak_free,
        &extra_failures,
    );
    let (sent_a, _, failed_a) = counts(&plain);
    let (sent_b, _, failed_b) = counts(&traced);
    println!(
        "requests: sent={} failed={}",
        sent_a + sent_b,
        failed_a + failed_b
    );
    print_result(correct, sent_a + sent_b, failed_a + failed_b, &metrics);
    Ok(correct)
}

fn report_checks(mismatches: usize, unfinished: usize, leak_free: bool, extra: &[String]) -> bool {
    let mut ok = true;
    if mismatches > 0 {
        println!("CHECK FAILED: {mismatches} stream(s) differ from solo generate");
        ok = false;
    }
    if unfinished > 0 {
        println!("CHECK FAILED: {unfinished} request(s) never reached a terminal status");
        ok = false;
    }
    if !leak_free {
        println!("CHECK FAILED: KV pages leaked");
        ok = false;
    }
    for e in extra {
        println!("CHECK FAILED: {e}");
        ok = false;
    }
    ok
}
