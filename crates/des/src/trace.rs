//! Execution-span traces and the ASCII Gantt renderer.
//!
//! The paper's Figures 1, 2 and 5 are NVIDIA Visual Profiler timeline
//! screenshots: one lane per CUDA stream, dark boxes for HtoD copies,
//! light boxes for kernel execution. [`TraceLog`] collects the same
//! information from the simulator and [`TraceLog::render_gantt`] draws
//! it as text so the figures can be regenerated in a terminal or diffed
//! in CI.

use crate::json::Json;
use crate::time::{Dur, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What kind of operation a span represents (controls the glyph used by
/// the Gantt renderer, mirroring the paper's dark/light shading).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SpanKind {
    /// Host-to-device DMA transfer (dark boxes in the paper's figures).
    CopyHtoD,
    /// Device-to-host DMA transfer.
    CopyDtoH,
    /// Kernel execution (light boxes in the paper's figures).
    Kernel,
    /// Host-side activity (mutex hold, driver call, CPU compute).
    Host,
}

impl SpanKind {
    /// Glyph used when rendering this kind in a Gantt chart.
    pub fn glyph(self) -> char {
        match self {
            SpanKind::CopyHtoD => '#',
            SpanKind::CopyDtoH => '%',
            SpanKind::Kernel => '=',
            SpanKind::Host => '.',
        }
    }
}

/// One completed operation on one lane (stream) of the timeline.
#[derive(Clone, Debug)]
pub struct Span {
    /// Lane index (CUDA stream id in the GPU model).
    pub lane: u32,
    /// Operation kind.
    pub kind: SpanKind,
    /// Human-readable operation label (kernel name, `HtoD 1.0MB`, ...).
    pub label: String,
    /// Start of the operation.
    pub start: SimTime,
    /// End of the operation (`end >= start`).
    pub end: SimTime,
}

impl Span {
    /// Span duration.
    pub fn dur(&self) -> Dur {
        self.end - self.start
    }
}

/// A collection of spans, appendable in any order.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    spans: Vec<Span>,
    enabled: bool,
}

impl TraceLog {
    /// A trace log that records spans.
    pub fn enabled() -> Self {
        TraceLog {
            spans: Vec::new(),
            enabled: true,
        }
    }

    /// A trace log that drops everything (zero overhead for big sweeps).
    pub fn disabled() -> Self {
        TraceLog {
            spans: Vec::new(),
            enabled: false,
        }
    }

    /// Whether spans are being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record a completed span.
    pub fn push(&mut self, span: Span) {
        debug_assert!(span.end >= span.start, "span ends before it starts");
        if self.enabled {
            self.spans.push(span);
        }
    }

    /// Record a completed span from parts.
    pub fn record(
        &mut self,
        lane: u32,
        kind: SpanKind,
        label: impl Into<String>,
        start: SimTime,
        end: SimTime,
    ) {
        if self.enabled {
            self.push(Span {
                lane,
                kind,
                label: label.into(),
                start,
                end,
            });
        }
    }

    /// All recorded spans, in insertion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans on one lane, sorted by start time.
    pub fn lane_spans(&self, lane: u32) -> Vec<&Span> {
        let mut v: Vec<&Span> = self.spans.iter().filter(|s| s.lane == lane).collect();
        v.sort_by_key(|s| (s.start, s.end));
        v
    }

    /// End of the last span (simulation makespan), or `t=0` when empty.
    pub fn makespan(&self) -> SimTime {
        self.spans
            .iter()
            .map(|s| s.end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// CSV export: `lane,kind,label,start_ns,end_ns`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("lane,kind,label,start_ns,end_ns\n");
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{},{:?},{},{},{}",
                s.lane,
                s.kind,
                s.label.replace(',', ";"),
                s.start.as_ns(),
                s.end.as_ns()
            );
        }
        out
    }

    /// Render an ASCII Gantt chart, one row per lane, `width` columns of
    /// simulated time. Overlapping glyph cells keep the *latest-drawn*
    /// span's glyph; spans shorter than one cell still paint one cell so
    /// small transfers remain visible (as in the paper's figures).
    pub fn render_gantt(&self, width: usize) -> String {
        let width = width.max(10);
        if self.spans.is_empty() {
            return String::from("(empty trace)\n");
        }
        let t0 = self
            .spans
            .iter()
            .map(|s| s.start)
            .min()
            .unwrap_or(SimTime::ZERO);
        let t1 = self.makespan();
        let total = (t1 - t0).as_ns().max(1);
        let mut lanes: BTreeMap<u32, Vec<char>> = BTreeMap::new();
        for s in &self.spans {
            let row = lanes.entry(s.lane).or_insert_with(|| vec![' '; width]);
            let a = ((s.start - t0).as_ns() as u128 * width as u128 / total as u128) as usize;
            let b = ((s.end - t0).as_ns() as u128 * width as u128 / total as u128) as usize;
            let b = b.min(width - 1).max(a);
            for cell in row.iter_mut().take(b + 1).skip(a) {
                *cell = s.kind.glyph();
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "time: {} .. {}  (# HtoD, % DtoH, = kernel, . host)",
            t0, t1
        );
        for (lane, row) in &lanes {
            let _ = writeln!(out, "lane {:>3} |{}|", lane, row.iter().collect::<String>());
        }
        out
    }

    /// Merge another trace into this one (used when composing traces
    /// from device and host sides).
    pub fn extend(&mut self, other: &TraceLog) {
        if self.enabled {
            self.spans.extend(other.spans.iter().cloned());
        }
    }

    /// Export in Chrome trace-event JSON (load via `chrome://tracing`
    /// or [Perfetto](https://ui.perfetto.dev)): one complete event
    /// (`ph: "X"`) per span, lanes mapped to thread ids so each stream
    /// renders as its own row — the closest interactive equivalent to
    /// the paper's Visual Profiler timelines.
    pub fn to_chrome_json(&self) -> String {
        let events = self.spans.iter().map(|s| {
            let cat = match s.kind {
                SpanKind::CopyHtoD => "memcpy_htod",
                SpanKind::CopyDtoH => "memcpy_dtoh",
                SpanKind::Kernel => "kernel",
                SpanKind::Host => "host",
            };
            Json::obj([
                ("name", s.label.as_str().into()),
                ("cat", cat.into()),
                ("ph", "X".into()),
                ("ts", (s.start.as_ns() as f64 / 1e3).into()),
                ("dur", (s.dur().as_ns() as f64 / 1e3).into()),
                ("pid", 0u32.into()),
                ("tid", s.lane.into()),
            ])
        });
        Json::Arr(events.collect()).compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::disabled();
        log.record(0, SpanKind::Kernel, "k", t(0), t(10));
        assert!(log.spans().is_empty());
        assert!(!log.is_enabled());
    }

    #[test]
    fn makespan_and_lane_filter() {
        let mut log = TraceLog::enabled();
        log.record(1, SpanKind::CopyHtoD, "a", t(0), t(5));
        log.record(2, SpanKind::Kernel, "b", t(5), t(20));
        log.record(1, SpanKind::Kernel, "c", t(6), t(9));
        assert_eq!(log.makespan(), t(20));
        let lane1 = log.lane_spans(1);
        assert_eq!(lane1.len(), 2);
        assert_eq!(lane1[0].label, "a");
        assert_eq!(lane1[1].label, "c");
    }

    #[test]
    fn gantt_renders_each_lane_once() {
        let mut log = TraceLog::enabled();
        log.record(0, SpanKind::CopyHtoD, "copy", t(0), t(50));
        log.record(3, SpanKind::Kernel, "k", t(50), t(100));
        let g = log.render_gantt(40);
        assert_eq!(g.matches("lane").count(), 2);
        assert!(g.contains('#'), "HtoD glyph missing:\n{g}");
        assert!(g.contains('='), "kernel glyph missing:\n{g}");
    }

    #[test]
    fn gantt_tiny_spans_still_visible() {
        let mut log = TraceLog::enabled();
        log.record(0, SpanKind::CopyHtoD, "tiny", t(0), t(1));
        log.record(0, SpanKind::Kernel, "big", t(1), t(1_000_000));
        let g = log.render_gantt(50);
        assert!(g.contains('#'), "1ns span must still paint a cell:\n{g}");
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        assert_eq!(TraceLog::enabled().render_gantt(80), "(empty trace)\n");
    }

    #[test]
    fn csv_roundtrip_fields() {
        let mut log = TraceLog::enabled();
        log.record(7, SpanKind::CopyDtoH, "x,y", t(3), t(9));
        let csv = log.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "lane,kind,label,start_ns,end_ns");
        assert_eq!(lines.next().unwrap(), "7,CopyDtoH,x;y,3,9");
    }

    #[test]
    fn extend_merges_spans() {
        let mut a = TraceLog::enabled();
        let mut b = TraceLog::enabled();
        a.record(0, SpanKind::Host, "h", t(0), t(1));
        b.record(1, SpanKind::Host, "g", t(1), t(2));
        a.extend(&b);
        assert_eq!(a.spans().len(), 2);
    }
}

#[cfg(test)]
mod chrome_tests {
    use super::*;

    #[test]
    fn chrome_json_is_valid_shape() {
        let mut log = TraceLog::enabled();
        log.record(
            2,
            SpanKind::Kernel,
            "Fan\"2\"",
            SimTime::from_ns(1_000),
            SimTime::from_ns(3_500),
        );
        let json = log.to_chrome_json();
        assert_eq!(
            json,
            "[{\"name\":\"Fan\\\"2\\\"\",\"cat\":\"kernel\",\"ph\":\"X\",\"ts\":1,\"dur\":2.5,\"pid\":0,\"tid\":2}]"
        );
        let events = crate::json::parse_json(&json).unwrap();
        let Json::Arr(events) = events else {
            panic!("not an array: {json}")
        };
        assert_eq!(events[0].str_field("name"), Ok("Fan\"2\""));
    }

    #[test]
    fn chrome_json_empty_trace() {
        assert_eq!(TraceLog::enabled().to_chrome_json(), "[]");
    }
}
