//! Host-time spans around the benchmark's own calls into each layer,
//! written out as Chrome `trace_event` JSON (loads in Perfetto and
//! `chrome://tracing`). Spans are kept in memory and written once, when
//! the benchmark ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span, in microseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub dur_us: f64,
    /// Chrome-trace thread: 0 is the parent process, 1 a rep's child
    /// process.
    pub tid: u32,
}

/// Collects spans when enabled; when disabled it still times every call,
/// because the end-to-end metrics are those same timings.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Call `f`, keep its span under `name`, and return its result with
    /// the host seconds it took.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        if self.enabled {
            self.spans.push(Span {
                name: name.to_owned(),
                start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
                dur_us: dur.as_secs_f64() * 1e6,
                tid: 0,
            });
        }
        (out, dur.as_secs_f64())
    }

    /// Adopt spans recorded elsewhere (a child process), shifted by
    /// `offset_us` onto this recorder's clock and placed on `tid`.
    pub fn adopt(&mut self, spans: Vec<Span>, offset_us: f64, tid: u32) {
        if self.enabled {
            self.spans.extend(spans.into_iter().map(|s| Span {
                start_us: s.start_us + offset_us,
                tid,
                ..s
            }));
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a Chrome `trace_event` document.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"dcmbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{}}}",
                s.name.escape_default(),
                s.start_us,
                s.dur_us,
                s.tid
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// One span as a line of the child-to-parent protocol.
pub fn to_line(s: &Span) -> String {
    format!("span\t{}\t{}\t{}", s.name, s.start_us, s.dur_us)
}

/// Parse a line written by [`to_line`].
pub fn from_line(line: &str) -> Option<Span> {
    let mut f = line.strip_prefix("span\t")?.split('\t');
    let name = f.next()?.to_owned();
    let start_us = f.next()?.parse().ok()?;
    let dur_us = f.next()?.parse().ok()?;
    Some(Span {
        name,
        start_us,
        dur_us,
        tid: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_still_times() {
        let mut s = Spans::new(false);
        let (v, secs) = s.span("x", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(s.spans().is_empty());
    }

    #[test]
    fn spans_round_trip_through_the_child_protocol() {
        let mut s = Spans::new(true);
        let _ = s.span("vllm.cluster.run", || ());
        let line = to_line(&s.spans()[0]);
        assert_eq!(from_line(&line).as_ref(), Some(&s.spans()[0]));
        assert!(from_line("rep\tx").is_none());
    }

    #[test]
    fn chrome_json_has_complete_events() {
        let mut s = Spans::new(true);
        let _ = s.span("a", || ());
        s.adopt(s.spans().to_vec(), 5.0, 1);
        let j = s.chrome_json();
        assert!(j.starts_with("{\"displayTimeUnit\""));
        assert_eq!(j.matches("\"ph\":\"X\"").count(), 2);
        assert!(j.contains("\"tid\":1"));
    }
}
