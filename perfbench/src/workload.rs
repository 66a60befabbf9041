//! The four workloads: model, backend, serving options and the seeded
//! requests each one sends.

use llmnpu::core::engine::{EngineConfig, LlmNpuEngine};
use llmnpu::core::serve::{GenerationRequest, PressurePolicy, ServeOptions};
use llmnpu::model::backend::{FloatBackend, LinearBackend, ShadowBackend};
use llmnpu::model::config::ModelConfig;
use llmnpu::model::forward::Transformer;
use llmnpu::model::sample::SamplerConfig;
use llmnpu::model::weights::{synthesize, ModelWeights, OutlierSpec};
use llmnpu::soc::spec::SocSpec;
use llmnpu::workloads::traces::{ArrivalTrace, ChatTrace};

use crate::Res;

/// Which workload a run replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One user, one long prompt per `serve` call, shadow-outlier backend.
    PrefillLong,
    /// Bursts of 24 requests decoded together, float backend.
    DecodeBatch,
    /// Open-loop Poisson chat traffic into the streaming front-end.
    ChatSession,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "prefill_long" => Some(Kind::PrefillLong),
            "decode_batch" => Some(Kind::DecodeBatch),
            "chat_session" => Some(Kind::ChatSession),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PrefillLong => "prefill_long",
            Kind::DecodeBatch => "decode_batch",
            Kind::ChatSession => "chat_session",
        }
    }

    /// Numeric model: (hidden, layers, vocab) of Qwen1.5-1.8B scaled down.
    fn model(self) -> (usize, usize, usize) {
        match self {
            Kind::PrefillLong | Kind::DecodeBatch => (512, 4, 2816),
            Kind::ChatSession => (512, 2, 2816),
        }
    }

    /// Whether the workload serves the shadow-outlier backend.
    pub fn shadow(self) -> bool {
        self == Kind::PrefillLong
    }

    /// Serving options (without observability or token sink).
    pub fn options(self) -> ServeOptions {
        match self {
            Kind::PrefillLong => ServeOptions {
                max_active: 1,
                ..ServeOptions::default()
            },
            Kind::DecodeBatch => ServeOptions {
                max_active: 8,
                decode_batch: 8,
                ..ServeOptions::default()
            },
            Kind::ChatSession => ServeOptions {
                max_active: 8,
                decode_batch: 8,
                block_tokens: 16,
                kv_pool_blocks: Some(160),
                pressure: PressurePolicy::Wait,
                ..ServeOptions::default()
            },
        }
    }
}

/// Prefill chunk length of every workload.
pub const CHUNK_LEN: usize = 64;

/// Prompt lengths of `prefill_long`, tokens (2 to 6 chunks).
const PROMPT_MIN: usize = 128;
const PROMPT_MAX: usize = 384;

/// Open-loop arrival rate of `chat_session`, requests per second.
pub const CHAT_RATE_PER_S: f64 = 2.0;

/// Seed of `chat_session`'s arrival schedule.
const CHAT_SCHEDULE_SEED: u64 = 0x5eed;

/// Requests per `decode_batch` op: three admission waves of
/// `max_active` 8, so the median TTFT falls inside the middle wave
/// rather than on the edge between two.
const DECODE_BURST: usize = 24;

/// Everything a workload sets up before it serves: weights,
/// calibration, backend packing and the engine with its worker pool.
pub struct Setup {
    /// Model weights.
    pub weights: ModelWeights,
    /// The serving backend.
    pub backend: Box<dyn LinearBackend>,
    /// The engine.
    pub engine: LlmNpuEngine,
}

/// Builds the workload's model, backend and engine.
pub fn setup(kind: Kind) -> Res<Setup> {
    let (hidden, layers, vocab) = kind.model();
    let cfg = ModelConfig::qwen15_18b().scaled_down(hidden, layers, vocab)?;
    let weights = synthesize(&cfg, 7, OutlierSpec::default())?;
    let backend: Box<dyn LinearBackend> = if kind.shadow() {
        let float = FloatBackend::new(weights.clone());
        let calibration = Transformer::new(&weights, &float)
            .calibrate(&[seeded_tokens(1, 64, vocab), seeded_tokens(2, 64, vocab)])?;
        Box::new(ShadowBackend::new(&weights, &calibration, 0.997, 0.85)?)
    } else {
        Box::new(FloatBackend::new(weights.clone()))
    };
    let mut ecfg = EngineConfig::llmnpu(ModelConfig::qwen15_18b(), SocSpec::snapdragon_8gen3());
    ecfg.chunk_len = CHUNK_LEN;
    // Two lanes (NPU main, CPU float) on every host, so runs compare.
    ecfg.pool_workers = 2;
    let engine = LlmNpuEngine::new(ecfg)?;
    Ok(Setup {
        weights,
        backend,
        engine,
    })
}

/// SplitMix64: the benchmark's seeded generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xd1b5_4a32_d192_ed03)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// The `i`-th of a seeded low-discrepancy sequence of lengths in
/// `[lo, hi]`: a golden-ratio walk from a seeded start, so any run of
/// consecutive ops covers the range evenly whatever the seed (the seed
/// then changes which lengths come first, not their mix).
fn spread(seed: u64, i: usize, lo: usize, hi: usize) -> usize {
    lo + ((even_fraction(seed, i) * (hi - lo + 1) as f64) as usize).min(hi - lo)
}

/// The `i`-th point in `[0, 1)` of the seeded golden-ratio walk behind
/// [`spread`].
fn even_fraction(seed: u64, i: usize) -> f64 {
    const PHI_FRAC: f64 = 0.618_033_988_749_894_9;
    let start = (Rng::new(seed, 0x1e57).next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    (start + i as f64 * PHI_FRAC).fract()
}

fn seeded_tokens(seed: u64, len: usize, vocab: usize) -> Vec<u32> {
    let mut rng = Rng::new(seed, 0);
    (0..len).map(|_| rng.range(0, vocab - 1) as u32).collect()
}

/// One request to send, with a key naming its content (requests with
/// equal keys are identical, so their solo reference runs once).
#[derive(Debug, Clone)]
pub struct Planned {
    /// The request.
    pub request: GenerationRequest,
    /// Content key.
    pub key: u64,
    /// Scheduled arrival, ms from the start of the measured phase
    /// (open loop only).
    pub due_ms: f64,
}

/// The requests of closed-loop op `i`.
pub fn closed_op(kind: Kind, seed: u64, i: usize) -> Vec<Planned> {
    let (_, _, vocab) = kind.model();
    match kind {
        Kind::PrefillLong => {
            let mut rng = Rng::new(seed, i as u64);
            let len = spread(seed, i, PROMPT_MIN, PROMPT_MAX);
            let prompt = (0..len).map(|_| rng.range(0, vocab - 1) as u32).collect();
            let request = GenerationRequest::new(prompt, 2).with_sampler(SamplerConfig::top_k(
                8,
                0.9,
                rng.next_u64(),
            ));
            vec![Planned {
                request,
                key: i as u64,
                due_ms: 0.0,
            }]
        }
        Kind::DecodeBatch => {
            // Every op sends the same burst (`serve` is transient, so
            // each call starts from a cold cache).
            let base = Rng::new(seed, 0).range(0, 1 << 20);
            (0..DECODE_BURST)
                .map(|j| Planned {
                    request: GenerationRequest::synthetic(
                        base + j,
                        spread(seed, j, 16, 32),
                        48,
                        vocab,
                    ),
                    key: j as u64,
                    due_ms: 0.0,
                })
                .collect()
        }
        Kind::ChatSession => unreachable!("chat_session is open loop"),
    }
}

/// The open-loop chat requests of a `seconds`-long window: prompts from
/// `ChatTrace` (shared system prompts) drawn from `seed`, sent on one
/// fixed Poisson schedule at [`CHAT_RATE_PER_S`] conditioned on its
/// count, `rate × seconds` (given the count, Poisson arrival times are
/// uniform over the window). The schedule does not depend on the seed:
/// a seed changes what users ask, not when they ask it, so queueing
/// delay compares across seeds.
///
/// Also returns one warm-up request per system prompt: a long-running
/// assistant has its system prompts cached, so the measured phase starts
/// with them in the prefix cache.
pub fn chat_requests(seed: u64, seconds: f64) -> (Vec<GenerationRequest>, Vec<Planned>) {
    let (_, _, vocab) = Kind::ChatSession.model();
    let n = ((CHAT_RATE_PER_S * seconds).round() as usize).max(1);
    let trace = ChatTrace::shared_system_prompts(seed, n, 4, 96, 8, 64, vocab as u32, 50.0);
    let warmup = trace
        .system_prompts
        .iter()
        .map(|p| GenerationRequest::new([p.as_slice(), &[0]].concat(), 1))
        .collect();
    let arrivals = ArrivalTrace::poisson(CHAT_SCHEDULE_SEED, CHAT_RATE_PER_S, n + 1).arrivals_ms;
    let scale = seconds * 1e3 / arrivals[n].max(1e-9);
    let mut rng = Rng::new(seed, 0xc4a7);
    let planned = trace
        .prompts
        .iter()
        .zip(arrivals.iter().map(|a| a * scale))
        .enumerate()
        .map(|(i, (p, due_ms))| {
            // The trace's heavy-tailed suffix length (Pareto, α = 1.1,
            // 8 to 64 tokens), drawn at evenly spread quantiles: TTFT
            // grows steeply with the uncached suffix, so independent
            // draws would make the median TTFT a property of the seed.
            let u = even_fraction(seed, i);
            let suffix = ((8.0 * (1.0 - u).powf(-1.0 / 1.1)) as usize).clamp(8, 64);
            let mut prompt = trace.system_prompts[p.system].clone();
            prompt.extend((0..suffix).map(|_| rng.range(0, vocab - 1) as u32));
            Planned {
                request: GenerationRequest::new(prompt, 16).with_sampler(SamplerConfig::top_k(
                    8,
                    0.9,
                    rng.next_u64(),
                )),
                key: i as u64,
                due_ms,
            }
        })
        .collect();
    (warmup, planned)
}
