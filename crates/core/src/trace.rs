//! Structured execution tracing for the serving simulators.
//!
//! Detailed simulators earn their keep through event-level observability:
//! a throughput number says *what* happened, a trace says *why*. Every
//! serving layer emits [`Span`]s into a [`TraceRecorder`] — request
//! lifecycles, prefill/decode engine steps, preemptions, fault edges and
//! routing decisions — and the merged [`Trace`] exports to two formats:
//!
//! * [`Trace::to_chrome_json`] — the Chrome `trace_event` format, loadable
//!   in `chrome://tracing` or <https://ui.perfetto.dev>. Each replica is a
//!   thread row (`tid` = replica index; the router uses the next index),
//!   durations are complete events (`ph: "X"`), point events (preemption,
//!   fault, route) are instants (`ph: "i"`).
//! * [`Trace::request_csv`] — one row per completed request (id, replica,
//!   arrival, finish, latency, output tokens, TTFT), for spreadsheet-level
//!   analysis of per-request behaviour.
//!
//! Tracing is observational only: a disabled recorder records nothing and
//! a run with tracing enabled must produce a bit-identical report to the
//! same run without (property-pinned in `tests/tests/prop_trace.rs`).
//! Span fields are numeric (`&'static str` keys, `f64` values), so export
//! needs no string escaping and recording stays allocation-light.

/// What a span describes. The set mirrors what the serving layers can
/// observe: request lifecycle, engine step phases, scheduler events,
/// fault-timeline edges and routing decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A request's whole lifetime: arrival to completion (duration span).
    Request,
    /// One prefill admission on an engine (duration span).
    Prefill,
    /// One batched decode iteration on an engine (duration span).
    Decode,
    /// A sequence was preempted — KV blocks reclaimed (instant).
    Preemption,
    /// A fault-timeline edge: crash, recovery, slowdown start/end
    /// (instant).
    Fault,
    /// A router decision: dispatch, shed or fail (instant).
    Route,
}

impl SpanKind {
    /// Chrome `trace_event` category string.
    #[must_use]
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Prefill | SpanKind::Decode => "engine",
            SpanKind::Preemption => "scheduler",
            SpanKind::Fault => "fault",
            SpanKind::Route => "router",
        }
    }

    /// Whether the kind is a zero-duration point event.
    #[must_use]
    pub fn is_instant(self) -> bool {
        matches!(
            self,
            SpanKind::Preemption | SpanKind::Fault | SpanKind::Route
        )
    }
}

/// One observed span: a named interval (or instant) on a track, with
/// optional request attribution and numeric arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What the span describes.
    pub kind: SpanKind,
    /// Short detail name (e.g. `"prefill"`, `"crash"`, `"dispatch"`).
    pub detail: &'static str,
    /// Track the span belongs to — replica index; the router track is one
    /// past the last replica.
    pub track: u32,
    /// Start time in simulated seconds.
    pub start_s: f64,
    /// Duration in simulated seconds (0 for instants).
    pub dur_s: f64,
    /// The request this span is attributed to, if any.
    pub request: Option<u64>,
    /// Numeric arguments (e.g. `("batch", 7.0)`).
    pub args: Vec<(&'static str, f64)>,
}

/// Collects spans for one track. Disabled recorders are free: every
/// record call returns before touching its arguments' heap.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    enabled: bool,
    track: u32,
    spans: Vec<Span>,
}

impl TraceRecorder {
    /// A recorder that drops everything — the default for untraced runs.
    #[must_use]
    pub fn disabled() -> Self {
        TraceRecorder::default()
    }

    /// A recorder collecting spans on `track`.
    #[must_use]
    pub fn enabled(track: u32) -> Self {
        TraceRecorder {
            enabled: true,
            track,
            spans: Vec::new(),
        }
    }

    /// Record a duration span. Inlined, so a disabled recorder costs its
    /// caller one branch; the recording itself stays out of line.
    #[inline]
    pub fn span(
        &mut self,
        kind: SpanKind,
        detail: &'static str,
        start_s: f64,
        dur_s: f64,
        request: Option<u64>,
        args: &[(&'static str, f64)],
    ) {
        if self.enabled {
            self.record(kind, detail, start_s, dur_s, request, args);
        }
    }

    /// Record a zero-duration point event.
    #[inline]
    pub fn instant(
        &mut self,
        kind: SpanKind,
        detail: &'static str,
        at_s: f64,
        request: Option<u64>,
        args: &[(&'static str, f64)],
    ) {
        self.span(kind, detail, at_s, 0.0, request, args);
    }

    /// Append a span: the part of [`span`](Self::span) a traced run
    /// pays, kept out of every caller.
    #[inline(never)]
    fn record(
        &mut self,
        kind: SpanKind,
        detail: &'static str,
        start_s: f64,
        dur_s: f64,
        request: Option<u64>,
        args: &[(&'static str, f64)],
    ) {
        // dcm-lint: allow(A1) only an enabled recorder gets here: a traced run keeps every span by design, an untraced one never calls this
        self.spans.push(Span {
            kind,
            detail,
            track: self.track,
            start_s,
            dur_s,
            request,
            // dcm-lint: allow(A1) only an enabled recorder gets here (see the push above)
            args: args.to_vec(),
        });
    }

    /// Spans recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Move the recorded spans out, leaving the recorder empty.
    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// A completed run's merged spans, ready for export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Build a trace from merged spans, sorting by `(start, track, seq)`
    /// so exports are stable regardless of merge order.
    #[must_use]
    pub fn new(mut spans: Vec<Span>) -> Self {
        spans.sort_by(|a, b| {
            a.start_s
                .total_cmp(&b.start_s)
                .then_with(|| a.track.cmp(&b.track))
        });
        Trace { spans }
    }

    /// All spans, in start-time order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans of `kind`.
    #[must_use]
    pub fn count_of(&self, kind: SpanKind) -> usize {
        self.spans.iter().filter(|s| s.kind == kind).count()
    }

    /// Serialize as Chrome `trace_event` JSON (the object form, with a
    /// `traceEvents` array), loadable in `chrome://tracing` and Perfetto.
    /// Times are exported in microseconds, as the format expects.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            out.push_str(s.detail);
            out.push_str("\",\"cat\":\"");
            out.push_str(s.kind.category());
            out.push_str("\",\"ph\":\"");
            out.push_str(if s.kind.is_instant() { "i" } else { "X" });
            out.push_str("\",\"ts\":");
            push_json_number(&mut out, s.start_s * 1e6);
            if s.kind.is_instant() {
                // Thread-scoped instant.
                out.push_str(",\"s\":\"t\"");
            } else {
                out.push_str(",\"dur\":");
                push_json_number(&mut out, s.dur_s * 1e6);
            }
            out.push_str(",\"pid\":0,\"tid\":");
            out.push_str(&s.track.to_string());
            out.push_str(",\"args\":{");
            let mut first = true;
            if let Some(id) = s.request {
                out.push_str("\"request\":");
                out.push_str(&id.to_string());
                first = false;
            }
            for (k, v) in &s.args {
                if !first {
                    out.push(',');
                }
                out.push('"');
                out.push_str(k);
                out.push_str("\":");
                push_json_number(&mut out, *v);
                first = false;
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// One CSV row per completed request (from its lifecycle span):
    /// `request,replica,arrival_s,finish_s,latency_s,output_tokens,ttft_s`.
    #[must_use]
    pub fn request_csv(&self) -> String {
        let mut out =
            String::from("request,replica,arrival_s,finish_s,latency_s,output_tokens,ttft_s\n");
        for s in self.spans.iter().filter(|s| s.kind == SpanKind::Request) {
            let arg = |key: &str| {
                s.args
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map_or(f64::NAN, |(_, v)| *v)
            };
            out.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                s.request.map_or(-1, i128::from),
                s.track,
                s.start_s,
                s.start_s + s.dur_s,
                s.dur_s,
                arg("output_tokens"),
                arg("ttft_s"),
            ));
        }
        out
    }
}

/// Append `v` as a JSON-legal number: finite values in Rust's shortest
/// round-trip form (which is JSON-compatible), non-finite as null.
fn push_json_number(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut r = TraceRecorder::enabled(0);
        r.span(
            SpanKind::Prefill,
            "prefill",
            0.0,
            0.5,
            Some(1),
            &[("tokens", 128.0)],
        );
        r.span(
            SpanKind::Decode,
            "decode",
            0.5,
            0.25,
            None,
            &[("batch", 3.0)],
        );
        r.instant(SpanKind::Preemption, "preempt", 0.75, Some(2), &[]);
        r.span(
            SpanKind::Request,
            "request",
            0.0,
            1.0,
            Some(1),
            &[("output_tokens", 16.0), ("ttft_s", 0.5)],
        );
        let mut router = TraceRecorder::enabled(1);
        router.instant(
            SpanKind::Route,
            "dispatch",
            0.0,
            Some(1),
            &[("replica", 0.0)],
        );
        let mut spans = r.take_spans();
        spans.extend(router.take_spans());
        Trace::new(spans)
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = TraceRecorder::disabled();
        r.span(SpanKind::Prefill, "prefill", 0.0, 1.0, None, &[]);
        r.instant(SpanKind::Fault, "crash", 1.0, None, &[]);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn spans_sort_by_start_time() {
        let t = sample_trace();
        let starts: Vec<f64> = t.spans().iter().map(|s| s.start_s).collect();
        let mut sorted = starts.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(starts, sorted);
        assert_eq!(t.count_of(SpanKind::Request), 1);
        assert_eq!(t.count_of(SpanKind::Preemption), 1);
    }

    #[test]
    fn chrome_json_shape() {
        let json = sample_trace().to_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.ends_with("]}"));
        // Duration spans are complete events in microseconds.
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"dur\":500000"), "{json}");
        // Instants carry a scope, not a duration.
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(json.contains("\"s\":\"t\""), "{json}");
        // Request attribution and numeric args flow through.
        assert!(json.contains("\"request\":1"), "{json}");
        assert!(json.contains("\"batch\":3"), "{json}");
        // Balanced braces/brackets (cheap structural sanity).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{json}"
        );
    }

    #[test]
    fn request_csv_has_one_row_per_request_span() {
        let csv = sample_trace().request_csv();
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), 2, "{csv}");
        assert_eq!(
            lines[0],
            "request,replica,arrival_s,finish_s,latency_s,output_tokens,ttft_s"
        );
        assert_eq!(lines[1], "1,0,0,1,1,16,0.5");
    }

    #[test]
    fn non_finite_args_export_as_null() {
        let mut r = TraceRecorder::enabled(0);
        r.instant(
            SpanKind::Fault,
            "crash",
            0.0,
            None,
            &[("bad", f64::INFINITY)],
        );
        let json = Trace::new(r.take_spans()).to_chrome_json();
        assert!(json.contains("\"bad\":null"), "{json}");
    }
}
