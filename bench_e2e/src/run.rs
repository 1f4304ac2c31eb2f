//! One run of one workload: set-up, warm-up, timed segments, checks.

use crate::client::{Client, Segment, Source};
use crate::layers;
use crate::report::Report;
use crate::server::ServerHandle;
use crate::stats::{median, quantile, ratio};
use crate::workloads::{bench_catalog, segments_for, Plan, Scale, Workload, CONNS};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// Where the bench keeps what it writes: `out/` beside its manifest,
/// inside the checkout whatever the working directory is.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A directory removed when the value is dropped.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn create(tag: &str) -> Result<TempDir, String> {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = out_dir().join(format!("tmp-{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A server that is up, warm, and connected.
struct Ready<'p> {
    handle: ServerHandle,
    client: Client<'p>,
    setup_s: f64,
    /// The data directory of `durable_churn`, removed on drop.
    data: Option<TempDir>,
}

/// Everything between "no server" and "ready for the first timed
/// request": child spawn → `READY` (workload generation, training,
/// `Server::start`; on `durable_churn` also populate + restart +
/// recovery) → warm-up segment finished.
fn set_up<'p>(plan: &'p Plan, scale: &Scale, failed: &mut usize) -> Result<Ready<'p>, String> {
    let w = plan.workload;
    let t0 = Instant::now();
    let data = if w.is_durable() {
        Some(TempDir::create("data")?)
    } else {
        None
    };
    let restarts = usize::from(w.is_durable());
    let mut handle = ServerHandle::spawn(w, scale, data.as_ref().map(|d| d.0.as_path()), restarts)?;
    if w.is_durable() {
        let epoch = handle.stats()?.model_epoch;
        let mut client = Client::connect(&handle.addr, plan, epoch)?;
        let seg = client.run_segment(Source::Populate, plan.populate_len(), false)?;
        *failed += seg.failed + client.checker.violations();
        drop(client);
        handle.stop()?;
        handle.await_ready()?;
    }
    let epoch = handle.stats()?.model_epoch;
    let mut client = Client::connect(&handle.addr, plan, epoch)?;
    let warm = client.run_segment(Source::Timed, plan.warmup_len(scale.segment(w)), false)?;
    *failed += warm.failed;
    Ok(Ready {
        handle,
        client,
        setup_s: t0.elapsed().as_secs_f64(),
        data,
    })
}

/// Whether timed segment `k` records client spans. A traced run
/// alternates plain and traced segments, so the two see the same drift
/// and the ratio of their latencies is the tracing overhead.
fn traced(opts: &RunOptions, k: usize) -> bool {
    opts.trace && k % 2 == 1
}

/// Run one workload once and report.
pub fn run(opts: &RunOptions) -> Result<Report, String> {
    let w = opts.workload;
    let scale = &opts.scale;
    let per_conn = scale.segment(w);
    let catalog = bench_catalog(scale);
    let segment_count = segments_for(opts.seconds, scale);
    let plan = Plan::build(w, opts.seed, segment_count, scale, &catalog);
    let mut report = Report::new(opts);
    report.stream_hash = format!("{:016x}", plan.stream_hash(per_conn * 2));

    // Set-up, several times over in an end-to-end run so `setup_s` is a
    // median; the last server stays up for the timed segments.
    let setups = if opts.trace { 1 } else { scale.setups };
    let mut failed = 0usize;
    let mut setup_times = Vec::new();
    let mut ready = None;
    for k in 0..setups {
        let mut r = set_up(&plan, scale, &mut failed)?;
        setup_times.push(r.setup_s);
        if k + 1 < setups {
            r.handle.stop()?;
            r.handle.wait_exit()?;
        } else {
            ready = Some(r);
        }
    }
    let Ready {
        mut handle,
        mut client,
        data,
        ..
    } = ready.expect("at least one set-up");
    report.env.pool_threads = handle.ready.pool_threads;
    report.env.data_dir_fs = data.as_ref().map(|d| filesystem_of(&d.0));

    // Timed segments. Counters are read while the server is idle, before
    // the first and after the last.
    let dump0 = if opts.trace {
        handle.dump()?
    } else {
        String::new()
    };
    let before = handle.stats()?;
    let mut segments: Vec<Segment> = Vec::new();
    let mut cpu_ms_per_req = Vec::new();
    client.checker.scoring = true;
    if opts.trace {
        client.sample_wanted = scale.layer_sample;
    }
    let timed0 = Instant::now();
    for k in 0..segment_count {
        let cpu0 = handle.cpu_seconds()?;
        let seg = client.run_segment(Source::Timed, per_conn, traced(opts, k))?;
        let cpu1 = handle.cpu_seconds()?;
        cpu_ms_per_req.push((cpu1 - cpu0) * 1e3 / seg.requests.max(1) as f64);
        segments.push(seg);
    }
    let timed_wall_s = timed0.elapsed().as_secs_f64();
    let after = handle.stats()?;
    let resident_mib = handle.resident_hwm_mib()?;
    let (dump1, ping_p50_us) = if opts.trace {
        (handle.dump()?, ping_p50_us(&handle)?)
    } else {
        (String::new(), 0.0)
    };
    let timed_positions = client.timed_positions();
    let checker = std::mem::take(&mut client.checker);
    let spans = std::mem::take(&mut client.spans);
    let sample = std::mem::take(&mut client.sample);
    drop(client);
    let ready_info = handle.ready.clone();
    let rehydrated = handle.stop()?;
    handle.wait_exit()?;
    drop(data);

    // ---- end-to-end numbers: per segment, then the median of segments.
    let rps: Vec<f64> = segments
        .iter()
        .map(|s| s.requests as f64 / s.wall_s)
        .collect();
    let p50: Vec<f64> = segments
        .iter()
        .map(|s| quantile(&s.latencies_ms, 0.50))
        .collect();
    let p90: Vec<f64> = segments
        .iter()
        .map(|s| quantile(&s.latencies_ms, 0.90))
        .collect();
    report.attempted = segments.iter().map(|s| s.requests).sum();
    report.failed = failed + segments.iter().map(|s| s.failed).sum::<usize>();
    let f1 = checker.scorer.f1();
    // A traced run reports the per-layer metrics instead: end-to-end
    // numbers always come from an untraced run.
    if !opts.trace {
        report.metric("setup_s", median(&setup_times), "s");
        report.metric("recommend_rps", median(&rps), "1/s");
        report.metric("recommend_p50_ms", median(&p50), "ms");
        report.metric("recommend_p90_ms", median(&p90), "ms");
        report.metric("cpu_ms_per_req", median(&cpu_ms_per_req), "ms");
        report.metric("resident_mb", resident_mib, "MiB");
        report.metric("next_fragment_f1", f1, "ratio");
    }
    report.series("setup_s", &setup_times);
    report.series("recommend_rps", &rps);
    report.series("recommend_p50_ms", &p50);
    report.series("recommend_p90_ms", &p90);
    report.series("cpu_ms_per_req", &cpu_ms_per_req);

    // ---- counts over the timed segments, exact for a seed. (The
    // server's GEMM call totals are not among them: an encoder-cache hit
    // skips the encoder's GEMMs, and which worker's cache saw a source
    // first depends on scheduling. The traced run counts GEMM calls per
    // decode in-process instead.)
    let counted = CONNS * per_conn * segment_count;
    let (m0, m1) = (&before.metrics, &after.metrics);
    let hits = m1.cache_hits - m0.cache_hits;
    let misses = m1.cache_misses - m0.cache_misses;
    let hit_ratio = ratio(hits, hits + misses);
    let wal_appends = m1.store.wal_appends - m0.store.wal_appends;
    for (name, v) in [
        ("serve.cache_hits", hits),
        ("serve.cache_misses", misses),
        ("nn.decode_steps", m1.decode.steps - m0.decode.steps),
        ("store.wal_appends", wal_appends),
        ("store.flushes", m1.store.flushes - m0.store.flushes),
        ("serve.sessions_rehydrated", rehydrated),
    ] {
        report.counts.insert(name.into(), v);
    }

    // ---- checks.
    report.check(
        "replies",
        checker.violations() == 0 && report.failed == 0,
        format!(
            "not ok {}, over {} fragments {}, wrong epoch {}, two rankings for one window {}, unparsable {}, failed {}",
            checker.not_ok,
            crate::workloads::TOP_N,
            checker.too_many_fragments,
            checker.wrong_epoch,
            checker.inconsistent,
            checker.unparsable,
            report.failed
        ),
    );
    report.check(
        "server_counts",
        m1.errors == 0 && m1.overloaded == 0,
        format!("errors {}, overloaded {}", m1.errors, m1.overloaded),
    );
    report.check(
        "answers_scored",
        checker.scorer.predicted() > 0 && f1 > 0.0,
        format!("next_fragment_f1 {f1:.4}"),
    );
    match w {
        Workload::ExploreDecode | Workload::ExploreDecodeInt8 => report.check(
            "explore_misses_the_cache",
            hit_ratio <= 0.10,
            format!("hit ratio {hit_ratio:.4} (limit 0.10)"),
        ),
        Workload::ScriptedWarm => report.check(
            "scripted_hits_the_cache",
            hit_ratio >= 0.99,
            format!("hit ratio {hit_ratio:.4} (floor 0.99)"),
        ),
        Workload::DurableChurn => {
            report.check(
                "every_request_is_a_wal_append",
                wal_appends == counted as u64,
                format!("wal_appends {wal_appends}, requests {counted}"),
            );
            let touched = plan.old_touched(timed_positions) as u64;
            report.check(
                "old_sessions_rehydrate_once",
                rehydrated == touched && touched > 0,
                format!("rehydrated {rehydrated}, old sessions touched {touched}"),
            );
        }
    }
    report.check(
        "quant_mode",
        after.model_quantized == (w == Workload::ExploreDecodeInt8),
        format!("model_quantized {}", after.model_quantized),
    );

    if opts.trace {
        let spans_path = out_dir().join(format!("{}.spans.jsonl", w.name()));
        std::fs::create_dir_all(out_dir()).map_err(|e| format!("create out dir: {e}"))?;
        // The file is for reading, not for the record: keep it small.
        let keep = spans.len().min(20_000);
        crate::client::write_spans(&spans_path, &spans[..keep])
            .map_err(|e| format!("write {}: {e}", spans_path.display()))?;

        let all = |pick: fn(&Segment) -> &Vec<f64>| -> Vec<f64> {
            segments
                .iter()
                .flat_map(|s| pick(s).iter().copied())
                .collect()
        };
        let lat = all(|s| &s.latencies_ms);
        let half = |with_spans: bool| -> f64 {
            let v: Vec<f64> = p50
                .iter()
                .enumerate()
                .filter(|&(k, _)| traced(opts, k) == with_spans)
                .map(|(_, &x)| x)
                .collect();
            median(&v)
        };
        let plain_p50 = half(false);
        let client_side = layers::ClientSide {
            p50_ms: median(&p50),
            p99_ms: quantile(&lat, 0.99),
            hit_p50_ms: quantile(&all(|s| &s.hit_ms), 0.50),
            miss_p50_ms: quantile(&all(|s| &s.miss_ms), 0.50),
            segment_spread: rps.iter().cloned().fold(f64::MIN, f64::max)
                / rps.iter().cloned().fold(f64::MAX, f64::min),
            whole_run_rps: report.attempted as f64 / timed_wall_s,
            ping_p50_us,
            trace_overhead_share: if plain_p50 > 0.0 {
                half(true) / plain_p50 - 1.0
            } else {
                0.0
            },
            samples: lat.len(),
        };
        let server_side = layers::ServerSide {
            before: &before,
            after: &after,
            dump_before: &dump0,
            dump_after: &dump1,
            ready: &ready_info,
            rehydrated,
            store_gets: plan
                .first_touches(timed_positions - per_conn * segment_count, timed_positions),
        };
        layers::per_layer(
            &plan,
            scale,
            &sample,
            &checker,
            &client_side,
            &server_side,
            &spans_path,
            &mut report,
        )?;
    }
    Ok(report)
}

/// `PING` round trips on a connection of their own: socket, event loop
/// and framing, no engine.
fn ping_p50_us(handle: &ServerHandle) -> Result<f64, String> {
    let mut control = handle.control()?;
    let mut times = Vec::with_capacity(200);
    for _ in 0..200 {
        let t = Instant::now();
        control.ping().map_err(|e| format!("PING: {e}"))?;
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&times))
}

/// The filesystem type a path lives on, from `/proc/mounts` (longest
/// mount-point prefix wins).
pub fn filesystem_of(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let path = path.to_string_lossy();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_ascii_whitespace();
            let (_dev, mount, fs) = (f.next()?, f.next()?, f.next()?);
            let under = path.starts_with(mount)
                && (mount == "/"
                    || path.len() == mount.len()
                    || path[mount.len()..].starts_with('/'));
            under.then_some((mount.len(), fs.to_string()))
        })
        .max_by_key(|&(len, _)| len)
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".into())
}
