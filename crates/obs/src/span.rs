//! Scoped monotonic-clock stage timing.
//!
//! A [`Span`] is entered at the top of a pipeline stage and measures
//! wall time until its guard drops. While a [`crate::trace::TraceContext`]
//! is installed on the thread, the completed span is also appended to
//! that request's stage list with its nesting depth, so the flight
//! record reconstructs the stage tree. When the spine is disabled
//! ([`crate::enabled`] is false) entering a span is a branch and nothing
//! else — no clock read, no TLS write.
//!
//! A clock read is the largest part of a span's cost, so stages that
//! follow one another share their boundary: [`SpanGuard::then`] ends one
//! stage and begins the next at the same instant, and [`SpanGuard::end`]
//! hands the caller the instant it read, so a request's last stage and
//! its latency sample are one read.

use crate::metric::Histogram;
use crate::trace;
use std::time::Instant;

/// Entry points for scoped stage timing.
pub struct Span;

impl Span {
    /// Enter a stage; timing stops when the guard drops.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard<'static> {
        Span::begin(name, None)
    }

    /// Enter a stage and also record its duration into `hist` (in
    /// microseconds) when the guard drops. The guard borrows the
    /// histogram — no refcount traffic on the hot path.
    #[inline]
    pub fn enter_with<'a>(name: &'static str, hist: &'a Histogram) -> SpanGuard<'a> {
        Span::begin(name, Some(hist))
    }

    /// [`Span::enter_with`] for a stage that began at `start`, an
    /// instant the caller has already read: no clock read on entry.
    #[inline]
    pub fn enter_at<'a>(name: &'static str, hist: &'a Histogram, start: Instant) -> SpanGuard<'a> {
        if !crate::enabled() {
            return SpanGuard::inert(name);
        }
        SpanGuard::open(name, Some(hist), start)
    }

    /// Run `f` inside a span named `name`.
    #[inline]
    pub fn in_span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
        let _guard = Span::enter(name);
        f()
    }

    /// Run `f` inside a span named `name`, recording the duration into
    /// `hist`.
    #[inline]
    pub fn in_span_with<R>(name: &'static str, hist: &Histogram, f: impl FnOnce() -> R) -> R {
        let _guard = Span::enter_with(name, hist);
        f()
    }

    fn begin<'a>(name: &'static str, hist: Option<&'a Histogram>) -> SpanGuard<'a> {
        if !crate::enabled() {
            return SpanGuard::inert(name);
        }
        SpanGuard::open(name, hist, Instant::now())
    }
}

/// Live span; completes (and records) when dropped.
pub struct SpanGuard<'a> {
    name: &'static str,
    hist: Option<&'a Histogram>,
    /// `None` when the spine was disabled at entry — drop is a no-op.
    start: Option<Instant>,
    depth: u8,
}

impl<'a> SpanGuard<'a> {
    fn inert(name: &'static str) -> SpanGuard<'a> {
        SpanGuard {
            name,
            hist: None,
            start: None,
            depth: 0,
        }
    }

    fn open(name: &'static str, hist: Option<&'a Histogram>, start: Instant) -> SpanGuard<'a> {
        let depth = trace::stack_push(name);
        SpanGuard {
            name,
            hist,
            start: Some(start),
            depth,
        }
    }

    /// End this stage and begin `name` (recorded into `hist`) at the same
    /// instant: one clock read for the boundary instead of two. A guard
    /// entered while the spine was disabled hands on an inert one.
    #[inline]
    pub fn then<'b>(mut self, name: &'static str, hist: &'b Histogram) -> SpanGuard<'b> {
        match self.close() {
            Some(now) => SpanGuard::open(name, Some(hist), now),
            None => SpanGuard::inert(name),
        }
    }

    /// End this stage now and return the instant it ended, or `None`
    /// for a guard entered while the spine was disabled.
    #[inline]
    pub fn end(mut self) -> Option<Instant> {
        self.close()
    }

    /// Record the stage as ending now; afterwards the guard is inert.
    fn close(&mut self) -> Option<Instant> {
        let start = self.start.take()?;
        let now = Instant::now();
        let dur = now.saturating_duration_since(start);
        if let Some(h) = self.hist {
            h.record_duration(dur);
        }
        trace::stack_pop_record(self.name, self.depth, start, dur);
        Some(now)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceContext;
    use std::time::Duration;

    #[test]
    fn nested_spans_record_depths_into_the_active_trace() {
        let _on = crate::tests::spine_on();
        trace::install(TraceContext::start(5, Instant::now()).expect("enabled"));
        {
            let _outer = Span::enter("request");
            Span::in_span("decode", || {
                std::thread::sleep(Duration::from_micros(200));
            });
        }
        let t = trace::uninstall().expect("installed");
        // Inner span completes (and is pushed) before the outer one.
        assert_eq!(t.stages.len(), 2);
        assert_eq!((t.stages[0].name, t.stages[0].depth), ("decode", 1));
        assert_eq!((t.stages[1].name, t.stages[1].depth), ("request", 0));
        assert!(t.stages[0].dur_us > 0, "sleep must register");
        assert!(t.stages[1].dur_us >= t.stages[0].dur_us);
    }

    #[test]
    fn enter_with_records_into_the_histogram() {
        let _on = crate::tests::spine_on();
        let h = Histogram::log2("span_us");
        Span::in_span_with("stage", &h, || {
            std::thread::sleep(Duration::from_micros(100));
        });
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert!(s.sum > 0);
    }

    #[test]
    fn chained_stages_share_their_boundaries() {
        let _on = crate::tests::spine_on();
        let h = Histogram::log2("chain_us");
        let origin = Instant::now();
        trace::install(TraceContext::start(6, origin).expect("enabled"));
        let first = Span::enter_at("session", &h, origin);
        std::thread::sleep(Duration::from_micros(200));
        let second = first.then("cache", &h);
        std::thread::sleep(Duration::from_micros(200));
        let end = second.end().expect("enabled");
        let t = trace::uninstall().expect("installed");
        let names: Vec<(&str, u8)> = t.stages.iter().map(|s| (s.name, s.depth)).collect();
        assert_eq!(names, [("session", 0), ("cache", 0)]);
        assert_eq!(t.stages[0].start_us, 0, "entered at the origin");
        // One instant ends the first stage and begins the second.
        assert!(t.stages[0].dur_us >= 200);
        assert!(t.stages[1].start_us >= t.stages[0].dur_us);
        assert!(t.stages[1].start_us <= t.stages[0].dur_us + 1);
        let span_us = end.duration_since(origin).as_micros() as u64;
        assert!(t.stages[1].start_us + t.stages[1].dur_us <= span_us);
        assert_eq!(h.snapshot().count, 2);
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _switch = crate::tests::spine_exclusive();
        crate::set_enabled(false);
        let h = Histogram::log2("off_us");
        trace::install(Box::new(TraceContext::blank(1, Instant::now())));
        Span::in_span_with("stage", &h, || {});
        let chained = Span::enter_at("first", &h, Instant::now()).then("second", &h);
        assert_eq!(chained.end(), None, "a disabled chain reads no clock");
        let t = trace::uninstall().expect("installed");
        crate::set_enabled(true);
        assert!(t.stages.is_empty(), "disabled span must not record stages");
        assert_eq!(h.snapshot().count, 0);
    }
}
