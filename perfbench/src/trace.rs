//! The traced pass's plumbing: the benchmark's own span recorder around
//! the public calls it makes, the derivation of layer times from the
//! engine's batch-stage spans, and the span file.

use crate::stats::median;
use selnet_obs::{Span, SpanRecorder};
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Capacity of each span ring the traced pass arms (the engine's, the
/// process-global one and the benchmark's); the rings keep the newest.
pub const RING: usize = 1 << 17;

/// Runs `f`, recording a `kind` span on `rec` when it is armed, and
/// returns the result with the call's duration in microseconds (0 when
/// `rec` is disarmed, so untraced passes pay one relaxed load).
pub fn timed<R>(
    rec: &SpanRecorder,
    kind: &'static str,
    trace: u64,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    if !rec.is_enabled() {
        return (f(), 0.0);
    }
    let started = Instant::now();
    let out = f();
    let us = started.elapsed().as_secs_f64() * 1e6;
    rec.record_since(kind, trace, started, 0, 0);
    (out, us)
}

/// Durations in microseconds of every span of `kind`.
pub fn durations_us(spans: &[Span], kind: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| s.dur_ns as f64 / 1e3)
        .collect()
}

/// Layer times of the engine's coalesced batches, from its span ring.
#[derive(Debug, Default)]
pub struct BatchLayers {
    /// Median time a traced request waited between enqueue and drain.
    pub queue_wait_us: f64,
    /// Mean `(x, t)` rows per plan replay.
    pub batch_rows: f64,
    /// Median self time of the `coalesce` span (its duration minus the
    /// bind, replay and reply spans it encloses).
    pub coalesce_us: f64,
    pub generation_bind_us: f64,
    pub reply_us: f64,
    /// Total replay time over total replayed rows.
    pub plan_replay_us_per_row: f64,
}

impl BatchLayers {
    /// Derives the layers from one engine's spans (one worker, so batches
    /// never overlap in time).
    pub fn from_spans(spans: &[Span]) -> BatchLayers {
        let end = |s: &Span| s.start_ns + s.dur_ns;
        let children: Vec<&Span> = spans
            .iter()
            .filter(|s| matches!(s.kind, "generation_bind" | "plan_replay" | "reply"))
            .collect();
        let coalesce_self: Vec<f64> = spans
            .iter()
            .filter(|s| s.kind == "coalesce")
            .map(|c| {
                let inner: u64 = children
                    .iter()
                    .filter(|s| s.start_ns >= c.start_ns && end(s) <= end(c))
                    .map(|s| s.dur_ns)
                    .sum();
                c.dur_ns.saturating_sub(inner) as f64 / 1e3
            })
            .collect();
        let replays: Vec<&Span> = spans.iter().filter(|s| s.kind == "plan_replay").collect();
        let rows: u64 = replays.iter().map(|s| s.a).sum();
        let replay_ns: u64 = replays.iter().map(|s| s.dur_ns).sum();
        BatchLayers {
            queue_wait_us: median(&durations_us(spans, "queue_wait")),
            batch_rows: if replays.is_empty() {
                0.0
            } else {
                rows as f64 / replays.len() as f64
            },
            coalesce_us: median(&coalesce_self),
            generation_bind_us: median(&durations_us(spans, "generation_bind")),
            reply_us: median(&durations_us(spans, "reply")),
            plan_replay_us_per_row: if rows == 0 {
                0.0
            } else {
                replay_ns as f64 / 1e3 / rows as f64
            },
        }
    }
}

/// Writes spans as tab-separated lines `source trace_id kind start_ns
/// dur_ns a b`. Each source's `start_ns` counts from its own recorder's
/// epoch.
pub fn write_spans(path: &Path, sources: &[(&str, Vec<Span>)]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "source\ttrace_id\tkind\tstart_ns\tdur_ns\ta\tb")?;
    for (source, spans) in sources {
        for s in spans {
            writeln!(
                out,
                "{source}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.trace_id, s.kind, s.start_ns, s.dur_ns, s.a, s.b
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: &'static str, start_ns: u64, dur_ns: u64, a: u64) -> Span {
        Span {
            trace_id: 0,
            kind,
            start_ns,
            dur_ns,
            a,
            b: 0,
        }
    }

    #[test]
    fn coalesce_self_time_excludes_enclosed_stages() {
        let spans = vec![
            span("generation_bind", 1_000, 1_000, 0),
            span("plan_replay", 3_000, 64_000, 64),
            span("reply", 70_000, 2_000, 0),
            span("coalesce", 0, 80_000, 0),
            span("plan_replay", 100_000, 32_000, 32),
            span("coalesce", 90_000, 50_000, 0),
        ];
        let l = BatchLayers::from_spans(&spans);
        // self times 80 − 67 = 13 µs and 50 − 32 = 18 µs; nearest-rank median
        assert_eq!(l.coalesce_us, 13.0);
        assert_eq!(l.batch_rows, 48.0);
        assert_eq!(l.plan_replay_us_per_row, 1.0);
        assert_eq!(l.generation_bind_us, 1.0);
    }
}
