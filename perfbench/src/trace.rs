//! Benchmark-owned hooks for the traced run: a kernel probe installed
//! through `tensor::kernel::probe::install`, and a `LinearBackend`
//! wrapper. Both record spans in memory on the benchmark's clock; the
//! program itself is unchanged.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use llmnpu::model::backend::{LinearBackend, LinearKind};
use llmnpu::model::Result as ModelResult;
use llmnpu::tensor::kernel::probe::KernelProbe;
use llmnpu::tensor::Tensor;

/// Milliseconds since the benchmark's clock origin.
pub fn now_ms() -> f64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e3
}

/// A small per-thread id (the lane a span was recorded on).
pub fn thread_lane() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static LANE: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    LANE.with(|l| *l)
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("span buffer poisoned by a panicking recorder")
}

/// Which instrumented kernel site a probe span came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelSite {
    /// `gemm.f32`: the unpacked f32 GEMM (the LM head).
    GemmF32,
    /// `gemm.f32.prepacked`: f32 projections on prepacked weights.
    GemmF32Prepacked,
    /// `gemv.f32.rows`: row-wise f32 GEMV on prepacked weights.
    GemvF32Rows,
    /// Any other instrumented kernel (i8, LUT).
    Other,
}

impl KernelSite {
    fn of(site: &str) -> Self {
        match site {
            "gemm.f32" => KernelSite::GemmF32,
            "gemm.f32.prepacked" => KernelSite::GemmF32Prepacked,
            "gemv.f32.rows" => KernelSite::GemvF32Rows,
            _ => KernelSite::Other,
        }
    }

    fn name(self) -> &'static str {
        match self {
            KernelSite::GemmF32 => "gemm.f32",
            KernelSite::GemmF32Prepacked => "gemm.f32.prepacked",
            KernelSite::GemvF32Rows => "gemv.f32.rows",
            KernelSite::Other => "kernel.other",
        }
    }
}

/// One kernel call seen by the probe.
#[derive(Debug, Clone, Copy)]
pub struct KernelSpan {
    /// Recording thread.
    pub lane: usize,
    /// Start, ms.
    pub start: f64,
    /// End, ms.
    pub end: f64,
    /// Kernel site.
    pub site: KernelSite,
    /// Rows of the activation operand.
    pub m: usize,
    /// Output columns.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
}

/// Which `LinearBackend` method a wrapper span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinearMethod {
    /// `linear`: the whole projection.
    Full,
    /// `linear_main`: the quantized half.
    Main,
    /// `linear_shadow`: the float outlier half.
    Shadow,
}

impl LinearMethod {
    fn name(self) -> &'static str {
        match self {
            LinearMethod::Full => "linear",
            LinearMethod::Main => "linear_main",
            LinearMethod::Shadow => "linear_shadow",
        }
    }
}

/// One projection call seen by the wrapper.
#[derive(Debug, Clone, Copy)]
pub struct LinearSpan {
    /// Recording thread.
    pub lane: usize,
    /// Start, ms.
    pub start: f64,
    /// End, ms.
    pub end: f64,
    /// Method.
    pub method: LinearMethod,
    /// Activation rows.
    pub rows: usize,
    /// Inner dimension (activation columns).
    pub k: usize,
    /// Output columns (0 when a shadow call returned nothing).
    pub n: usize,
    /// Whether the call returned work (always true except for an empty
    /// shadow half).
    pub nonempty: bool,
}

/// In-memory span store shared by the probe and the wrapper.
#[derive(Debug, Default)]
pub struct Recorder {
    kernels: Mutex<Vec<KernelSpan>>,
    linears: Mutex<Vec<LinearSpan>>,
}

impl Recorder {
    /// Everything recorded so far, emptying the store.
    pub fn take(&self) -> (Vec<KernelSpan>, Vec<LinearSpan>) {
        (
            std::mem::take(&mut *lock(&self.kernels)),
            std::mem::take(&mut *lock(&self.linears)),
        )
    }

    fn linear(&self, method: LinearMethod, start: f64, x: &Tensor<f32>, out: Option<&Tensor<f32>>) {
        let end = now_ms();
        let (rows, k) = x.matrix_dims();
        let n = out.map_or(0, |o| o.matrix_dims().1);
        lock(&self.linears).push(LinearSpan {
            lane: thread_lane(),
            start,
            end,
            method,
            rows,
            k,
            n,
            nonempty: out.is_some(),
        });
    }
}

impl KernelProbe for Recorder {
    fn begin(&self) -> u64 {
        (now_ms() * 1e6) as u64
    }

    fn end(&self, token: u64, site: &str, m: usize, n: usize, k: usize) {
        let end = now_ms();
        lock(&self.kernels).push(KernelSpan {
            lane: thread_lane(),
            start: token as f64 / 1e6,
            end,
            site: KernelSite::of(site),
            m,
            n,
            k,
        });
    }
}

/// A `LinearBackend` that times every projection call of the backend it
/// wraps and forwards every trait method, `row_wise` included (dropping
/// it would silently turn off batched decode and prefix sharing).
pub struct TracedBackend<'a> {
    /// The wrapped backend.
    pub inner: &'a dyn LinearBackend,
    /// Where spans go.
    pub rec: &'a Recorder,
}

impl LinearBackend for TracedBackend<'_> {
    fn linear(&self, layer: usize, kind: LinearKind, x: &Tensor<f32>) -> ModelResult<Tensor<f32>> {
        let t0 = now_ms();
        let out = self.inner.linear(layer, kind, x)?;
        self.rec.linear(LinearMethod::Full, t0, x, Some(&out));
        Ok(out)
    }

    fn linear_main(
        &self,
        layer: usize,
        kind: LinearKind,
        x: &Tensor<f32>,
    ) -> ModelResult<Tensor<f32>> {
        let t0 = now_ms();
        let out = self.inner.linear_main(layer, kind, x)?;
        self.rec.linear(LinearMethod::Main, t0, x, Some(&out));
        Ok(out)
    }

    fn linear_shadow(
        &self,
        layer: usize,
        kind: LinearKind,
        x: &Tensor<f32>,
    ) -> ModelResult<Option<Tensor<f32>>> {
        let t0 = now_ms();
        let out = self.inner.linear_shadow(layer, kind, x)?;
        self.rec.linear(LinearMethod::Shadow, t0, x, out.as_ref());
        Ok(out)
    }

    fn has_shadow(&self, layer: usize, kind: LinearKind) -> bool {
        self.inner.has_shadow(layer, kind)
    }

    fn row_wise(&self) -> bool {
        self.inner.row_wise()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// One span of the written trace: name, start, end, parent, request.
#[derive(Debug, Clone)]
pub struct OutSpan {
    /// Span name (`layer.what`).
    pub name: String,
    /// Lane: a recording thread, or an executor processor lane.
    pub lane: String,
    /// Start, ms on the span's clock.
    pub start: f64,
    /// End, ms.
    pub end: f64,
    /// Index of the enclosing span on the same lane, if any.
    pub parent: Option<usize>,
    /// Request id, when the span belongs to one.
    pub request: Option<usize>,
}

/// Spans recorded from the probe and the wrapper, as written spans on
/// their thread lanes.
pub fn thread_spans(kernels: &[KernelSpan], linears: &[LinearSpan]) -> Vec<OutSpan> {
    let mut out: Vec<OutSpan> = Vec::with_capacity(kernels.len() + linears.len());
    out.extend(linears.iter().map(|l| OutSpan {
        name: format!("model.{}", l.method.name()),
        lane: format!("thread{}", l.lane),
        start: l.start,
        end: l.end,
        parent: None,
        request: None,
    }));
    out.extend(kernels.iter().map(|k| OutSpan {
        name: format!("tensor.{}", k.site.name()),
        lane: format!("thread{}", k.lane),
        start: k.start,
        end: k.end,
        parent: None,
        request: None,
    }));
    out
}

/// Sets each span's parent to the innermost span on its lane whose
/// interval contains it.
pub fn link_parents(spans: &mut [OutSpan]) {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by(|&a, &b| {
        spans[a]
            .lane
            .cmp(&spans[b].lane)
            .then(spans[a].start.total_cmp(&spans[b].start))
            .then(spans[b].end.total_cmp(&spans[a].end))
    });
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        while let Some(&top) = stack.last() {
            let same_lane = spans[top].lane == spans[i].lane;
            if same_lane && spans[i].start >= spans[top].start && spans[i].end <= spans[top].end {
                break;
            }
            stack.pop();
        }
        spans[i].parent = stack.last().copied();
        stack.push(i);
    }
}

/// Writes spans as one JSON object per line.
pub fn write_spans(path: &std::path::Path, header: &str, spans: &[OutSpan]) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{header}")?;
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"lane\":\"{}\",\"start_ms\":{:.6},\"end_ms\":{:.6},\"parent\":{},\"request\":{}}}",
            s.name,
            s.lane,
            s.start,
            s.end,
            s.parent.map_or("null".to_owned(), |p| p.to_string()),
            s.request.map_or("null".to_owned(), |r| r.to_string()),
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(lane: &str, start: f64, end: f64) -> OutSpan {
        OutSpan {
            name: String::new(),
            lane: lane.to_owned(),
            start,
            end,
            parent: None,
            request: None,
        }
    }

    #[test]
    fn parents_are_innermost_containing_spans_on_the_same_lane() {
        let mut spans = vec![
            span("a", 0.0, 10.0),
            span("a", 1.0, 5.0),
            span("a", 2.0, 3.0),
            span("a", 6.0, 7.0),
            span("b", 2.0, 3.0),
        ];
        link_parents(&mut spans);
        let parents: Vec<Option<usize>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0), None]);
    }
}
