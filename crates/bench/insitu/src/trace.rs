//! Spans recorded by the benchmark around each call it makes into a layer.
//!
//! Spans are kept in memory and written once, at exit, as Chrome
//! trace-event JSON (it opens in Perfetto). Spans of one cycle or query
//! share its `op` identifier; `parent` names the span that caused them.

use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: &'static str,
    pub op: u64,
    pub start_s: f64,
    pub seconds: f64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    /// Time `f` as one span and return its result with the span's seconds.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let t0 = Instant::now();
        let r = f();
        let seconds = t0.elapsed().as_secs_f64();
        let start_s = t0.duration_since(self.origin).as_secs_f64();
        self.spans.push(Span { name, parent, op, start_s, seconds });
        (r, seconds)
    }

    /// Record a span timed elsewhere (another thread's span log).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: &'static str,
        op: u64,
        start: Instant,
        seconds: f64,
    ) {
        let start_s = start.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.push(Span { name, parent, op, start_s, seconds });
    }

    /// Render the spans as Chrome trace-event JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"parent\":\"{}\"}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_s * 1e6,
                s.seconds * 1e6,
                s.op,
                s.parent
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Write the spans to `dir/trace.json` on a traced run.
pub fn write_trace(dir: &std::path::Path, tracer: &Tracer, trace: bool) -> Result<(), String> {
    if trace {
        let path = dir.join("trace.json");
        std::fs::write(&path, tracer.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}
