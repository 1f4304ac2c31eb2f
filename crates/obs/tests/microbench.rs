//! Component-level cost attribution for the tracing hot path.
//!
//! Ignored by default (it times, it doesn't assert); run it when tuning
//! the spine to see where the per-request nanoseconds go:
//!
//! ```text
//! cargo test --release -p qrec-obs --test microbench -- --ignored --nocapture
//! ```
//!
//! The "full request path" row is the per-request cost ceiling the
//! serving overhead gate (`bench_obs`) budgets against; clock reads
//! (`Instant::now`, two per span) dominate it.

use qrec_obs::{flight, trace, Span, TraceContext};
use std::time::{Duration, Instant};

fn time_n(label: &str, n: usize, mut f: impl FnMut()) {
    // warmup
    for _ in 0..n / 10 {
        f();
    }
    let t0 = Instant::now();
    for _ in 0..n {
        f();
    }
    let per = t0.elapsed().as_nanos() as f64 / n as f64;
    println!("{label:<40} {per:>10.1} ns/iter");
}

#[test]
#[ignore]
fn microbench() {
    qrec_obs::set_enabled(true);
    let n = 200_000;
    let hist = qrec_obs::global().histogram_log2("mb.stage_us");

    time_n("Instant::now", n, || {
        std::hint::black_box(Instant::now());
    });
    time_n("Instant::now + elapsed", n, || {
        let t0 = Instant::now();
        std::hint::black_box(t0.elapsed());
    });
    time_n("hist.record", n, || {
        hist.record(std::hint::black_box(1234));
    });
    time_n("note_decode_step (no trace)", n, || {
        trace::note_decode_step();
    });
    time_n("start+install+uninstall", n, || {
        if let Some(ctx) = TraceContext::start(qrec_obs::next_request_id(), Instant::now()) {
            trace::install(ctx);
        }
        std::hint::black_box(trace::uninstall());
    });

    time_n("span (no trace installed)", n, || {
        Span::in_span_with("stage", &hist, || std::hint::black_box(1u64));
    });

    time_n("full request path (5 spans+flight)", n, || {
        let t0 = Instant::now();
        if let Some(mut ctx) = TraceContext::start(qrec_obs::next_request_id(), Instant::now()) {
            ctx.queue_depth = 3;
            trace::install(ctx);
        }
        Span::in_span_with("session", &hist, || std::hint::black_box(1u64));
        let ctx = trace::uninstall();
        // simulate worker-side hand-off
        if let Some(ctx) = ctx {
            trace::install(ctx);
        }
        trace::record_stage("batch_wait", t0, Duration::from_micros(1));
        trace::note_batch(1, 0);
        trace::note_strategy("beam", 4);
        Span::in_span_with("cache", &hist, || std::hint::black_box(1u64));
        trace::note_cache_hit(true);
        Span::in_span_with("decode", &hist, || {
            for _ in 0..8 {
                trace::note_decode_step();
            }
        });
        Span::in_span_with("rank", &hist, || std::hint::black_box(1u64));
        let ctx = trace::uninstall();
        if let Some(ctx) = ctx {
            flight::global().record(ctx, t0.elapsed());
        }
    });

    time_n("disabled request path", n, || {
        qrec_obs::set_enabled(false);
        let t0 = Instant::now();
        if let Some(ctx) = TraceContext::start(qrec_obs::next_request_id(), Instant::now()) {
            trace::install(ctx);
        }
        Span::in_span_with("session", &hist, || std::hint::black_box(1u64));
        let ctx = trace::uninstall();
        if let Some(ctx) = ctx {
            flight::global().record(ctx, t0.elapsed());
        }
        qrec_obs::set_enabled(true);
    });
}
