//! In-memory span recorder for the traced runs.
//!
//! The benchmark records a span around each call it makes into a layer's
//! public functions. Spans are kept in memory and written out once the run
//! ends. The program itself is not instrumented, so a layer that cannot be
//! timed inside a call is timed by calling its public function again on the
//! same input right after; such a span is recorded as a child of the call
//! it breaks down, though its interval lies after the parent's. A span's
//! self time is therefore its duration minus the summed durations of its
//! children, and the self time of a top-level call is the part of it that
//! no layer accounts for.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// The round or request the span belongs to.
    pub group: u64,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        group: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            group,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span and returns its result with the span's id.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        group: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        (value, self.record(name, parent, group, start, end))
    }

    /// When span `id` started.
    pub fn span_start(&self, id: usize) -> Instant {
        self.origin + self.spans[id].start
    }

    /// Appends another thread's spans, keeping parent links intact.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration());
            }
        }
        own
    }

    /// Per group, the summed duration (or self time) of the spans named
    /// `name`, in seconds, ordered by group.
    pub fn per_group(&self, name: &str, self_time: bool) -> Vec<f64> {
        let own = self.self_times();
        let mut totals: BTreeMap<u64, f64> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            if span.name == name {
                let d = if self_time { own[i] } else { span.duration() };
                *totals.entry(span.group).or_default() += d.as_secs_f64();
            }
        }
        totals.into_values().collect()
    }

    /// Writes every span as one tab-separated line:
    /// `id parent group name start_ns end_ns self_ns`.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let own = self.self_times();
        let mut text = String::from("id\tparent\tgroup\tname\tstart_ns\tend_ns\tself_ns\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                span.group,
                span.name,
                span.start.as_nanos(),
                span.end.as_nanos(),
                own[i].as_nanos()
            );
        }
        fs::write(path, text)
    }
}
