//! The four workloads: their profiles, the fixed bench model, and the
//! seeded request plans the client replays.
//!
//! One catalog and one trained model serve every workload and every
//! seed (`MODEL_SEED`), so the server's set-up work and its vocabulary
//! never depend on the request seed; `--seed` only draws the sessions
//! that are replayed over that catalog. The program under test receives
//! nothing but the generated requests.

use qrec_core::{Arch, Recommender, RecommenderConfig, SeqMode};
use qrec_serve::{QuantMode, Request};
use qrec_store::{FsyncPolicy, StoreConfig};
use qrec_workload::gen::{generate, generate_with_catalog, Catalog, WorkloadProfile};
use qrec_workload::{QueryRecord, Session, Split};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Seed of the catalog, the training workload, the split and the model.
pub const MODEL_SEED: u64 = 7;
/// Fragments per kind asked of every `RECOMMEND`.
pub const TOP_N: usize = 5;
/// Closed-loop connections, all driven by one client thread. The
/// protocol allows one in-flight `RECOMMEND` per connection, and the
/// box has two cores: more connections than cores would measure the
/// scheduler.
pub const CONNS: usize = 2;
/// Timed segments of a run: one per second asked for with `--seconds`,
/// each a fixed number of requests sized to take about a second on the
/// two-core reference box. The count comes from the argument, never
/// from the clock, so a run's requests — and with them every count,
/// `next_fragment_f1` and `resident_mb` — repeat exactly for a seed
/// however fast the machine or the program is.
pub fn segments_for(seconds: f64, scale: &Scale) -> usize {
    (seconds.round() as usize).clamp(scale.min_segments, 60)
}
/// One old session is first-touched every this many requests of a
/// connection on `durable_churn`.
pub const OLD_EVERY: usize = 100;

/// A benchmark workload; the names are the contract with
/// `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ExploreDecode,
    ScriptedWarm,
    DurableChurn,
    ExploreDecodeInt8,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ExploreDecode,
        Workload::ScriptedWarm,
        Workload::DurableChurn,
        Workload::ExploreDecodeInt8,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExploreDecode => "explore_decode",
            Workload::ScriptedWarm => "scripted_warm",
            Workload::DurableChurn => "durable_churn",
            Workload::ExploreDecodeInt8 => "explore_decode_int8",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Exploratory traffic: every window is new to the cache.
    pub fn is_explore(self) -> bool {
        matches!(self, Workload::ExploreDecode | Workload::ExploreDecodeInt8)
    }

    /// Sessions are written through to a data directory.
    pub fn is_durable(self) -> bool {
        self == Workload::DurableChurn
    }

    pub fn quant(self) -> QuantMode {
        match self {
            Workload::ExploreDecodeInt8 => QuantMode::Int8,
            _ => QuantMode::F32,
        }
    }
}

/// The durable tier's configuration on `durable_churn`: the default
/// but for the fsync policy. The data directory has to live inside the
/// checkout, on whatever disk that is; with `FsyncPolicy::Always` a
/// request is mostly that device's fsync (about 150 µs of a 420 µs
/// median on the reference box, and run-to-run spreads of 10–20 %), and
/// the benchmark is for the program's write path — WAL framing and
/// append, memtable, flushes, bloom probes, run reads — which stays.
pub fn store_config() -> StoreConfig {
    StoreConfig {
        fsync: FsyncPolicy::Never,
        ..StoreConfig::default()
    }
}

/// Sizes of one run. `full()` is what `BENCHMARK.json` measures;
/// `smoke()` walks the same code with tiny counts.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub smoke: bool,
    /// Sessions of the training workload.
    pub train_sessions: usize,
    pub epochs: usize,
    /// Sessions drawn for the replayed stream.
    pub explore_sessions: usize,
    pub scripted_sessions: usize,
    /// Requests per connection in one segment, by workload. Fixed
    /// counts, never derived from the clock; sized so a segment takes
    /// about a second on the two-core reference box — about half a
    /// second on `scripted_warm`, where one server process must stay
    /// under some 130 000 requests in all: past 160 000 to 220 000
    /// (resident set near 450 MiB: sessions are never dropped within a
    /// run) its CPU per request steps up by a third, and a run that
    /// straddles the step measures where the step fell.
    pub explore_segment: usize,
    pub scripted_segment: usize,
    pub durable_segment: usize,
    /// Fewest timed segments a run makes, however short `--seconds`.
    pub min_segments: usize,
    /// Set-ups per `--trace 0` run; `setup_s` is their median.
    pub setups: usize,
    /// Requests replayed through the layers in the traced run.
    pub layer_sample: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            smoke: false,
            train_sessions: 100,
            epochs: 2,
            explore_sessions: 3000,
            scripted_sessions: 1600,
            explore_segment: 275,
            scripted_segment: 4000,
            durable_segment: 4000,
            min_segments: 4,
            setups: 3,
            layer_sample: 200,
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            smoke: true,
            train_sessions: 30,
            epochs: 1,
            explore_sessions: 60,
            scripted_sessions: 40,
            explore_segment: 20,
            scripted_segment: 200,
            durable_segment: 150,
            min_segments: 2,
            setups: 1,
            layer_sample: 20,
        }
    }

    pub fn segment(&self, w: Workload) -> usize {
        match w {
            Workload::ExploreDecode | Workload::ExploreDecodeInt8 => self.explore_segment,
            Workload::ScriptedWarm => self.scripted_segment,
            Workload::DurableChurn => self.durable_segment,
        }
    }
}

/// The one profile every workload derives from: `sdss()` scaled down so
/// the bench Transformer trains in about two seconds and the vocabulary
/// is a couple of hundred tokens.
pub fn base_profile(scale: &Scale) -> WorkloadProfile {
    let mut p = WorkloadProfile::sdss();
    p.name = "bench_e2e".into();
    p.sessions = scale.train_sessions;
    p.tables_per_dataset = (24, 24);
    p.columns_per_table = (8, 16);
    p.function_pool = 12;
    p.literal_pool = 40;
    p
}

/// Train the fixed bench model: `Arch::Transformer`, `SeqMode::Aware`,
/// the `Small` preset (d_model 48, two layers), fixed seeds throughout.
/// Returns the model, the catalog the request streams are drawn over,
/// and how long generation and training took.
pub fn train_bench_model(scale: &Scale) -> (Recommender, Catalog, f64, f64) {
    let t0 = std::time::Instant::now();
    let (workload, catalog) = generate(&base_profile(scale), MODEL_SEED);
    let generate_s = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let split = Split::paper(workload.pairs(), &mut rng);
    let mut cfg = RecommenderConfig::new(Arch::Transformer, SeqMode::Aware);
    cfg.train.epochs = scale.epochs;
    cfg.train.patience = 0;
    cfg.max_decode_len = 32;
    let (model, _report) =
        Recommender::try_train(&split, &workload, cfg).expect("the bench model trains");
    (model, catalog, generate_s, t1.elapsed().as_secs_f64())
}

/// The catalog alone (what the load generator needs), without training.
pub fn bench_catalog(scale: &Scale) -> Catalog {
    generate(&base_profile(scale), MODEL_SEED).1
}

/// Which session a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionRef {
    /// Session `id` of the stream, replayed for the `lap`-th time under
    /// a fresh id.
    Fresh { lap: u32, id: u32 },
    /// An old session that set-up populated before the restart.
    Old(u32),
}

impl SessionRef {
    pub fn wire_id(self) -> String {
        match self {
            SessionRef::Fresh { lap, id } => format!("s{lap}-{id}"),
            SessionRef::Old(i) => format!("old-{i}"),
        }
    }
}

/// One request of a plan: the query to send, the query the analyst ran
/// next (the F1 target), and the canonical window it will be keyed on.
#[derive(Debug, Clone, Copy)]
pub struct Slot<'a> {
    pub session: SessionRef,
    pub query: &'a QueryRecord,
    pub next: Option<&'a QueryRecord>,
    /// Dense id of the query's canonical token window: two requests
    /// with the same id must get the same ranking.
    pub window: u32,
}

impl Slot<'_> {
    /// The request line, newline included.
    pub fn wire(&self) -> Vec<u8> {
        let req = Request::recommend(&self.session.wire_id(), &self.query.sql, TOP_N);
        let mut line = serde_json::to_vec(&req).expect("a Request serialises");
        line.push(b'\n');
        line
    }
}

/// A step of one connection's lap: query `query` of session `session`.
#[derive(Debug, Clone, Copy)]
struct Step {
    session: u32,
    query: u32,
}

/// The seeded request plan of one workload.
pub struct Plan {
    pub workload: Workload,
    sessions: Vec<Session>,
    /// `windows[s][q]` — canonical-window id of query `q` of session `s`.
    windows: Vec<Vec<u32>>,
    /// Per connection, the steps of one lap over its share of sessions.
    laps: Vec<Vec<Step>>,
    /// Old sessions (`durable_churn`): populated with their first two
    /// queries at set-up, continued with the third in the timed run.
    old: Vec<Session>,
    old_windows: Vec<Vec<u32>>,
    pub distinct_windows: usize,
}

/// Queries of an old session sent at set-up; the next one is its
/// continuation after the restart.
pub const OLD_PREFIX: usize = 2;

impl Plan {
    /// Draw the plan of a run of `segments` timed segments.
    pub fn build(
        workload: Workload,
        seed: u64,
        segments: usize,
        scale: &Scale,
        catalog: &Catalog,
    ) -> Plan {
        let mut profile = base_profile(scale);
        profile.p_singleton_session = 0.0;
        if workload.is_explore() {
            profile.p_scripted = 0.0;
            profile.p_repeat = 0.0;
            profile.p_literal_only = 0.05;
            profile.sessions = scale.explore_sessions;
        } else {
            profile.p_scripted = 1.0;
            profile.sessions = scale.scripted_sessions;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let sessions = generate_with_catalog(&profile, catalog, &mut rng).sessions;

        let mut ids: HashMap<Vec<String>, u32> = HashMap::new();
        let mut window_of = |q: &QueryRecord| -> (u32, bool) {
            let next = ids.len() as u32;
            match ids.get(&q.tokens) {
                Some(&id) => (id, false),
                None => {
                    ids.insert(q.tokens.clone(), next);
                    (next, true)
                }
            }
        };

        let mut windows = Vec::with_capacity(sessions.len());
        let mut laps = vec![Vec::new(); CONNS];
        for (s, session) in sessions.iter().enumerate() {
            let mut ws = Vec::with_capacity(session.queries.len());
            for (q, query) in session.queries.iter().enumerate() {
                let (id, novel) = window_of(query);
                ws.push(id);
                // Exploratory replay sends each canonical window once:
                // a token-identical re-run (numeric literals collapse to
                // <NUM>) would be answered from the cache, and this
                // workload exists to reach the decoder. The skipped
                // query is still the F1 target of the one before it.
                if novel || !workload.is_explore() {
                    laps[s % CONNS].push(Step {
                        session: s as u32,
                        query: q as u32,
                    });
                }
            }
            windows.push(ws);
        }

        let (old, old_windows) = if workload.is_durable() {
            // One old session per `OLD_EVERY` positions of the warm-up
            // and of every timed segment.
            let need = CONNS * ((segments + 1) * scale.durable_segment).div_ceil(OLD_EVERY);
            profile.sessions = need * 2;
            let mut old: Vec<Session> = generate_with_catalog(&profile, catalog, &mut rng)
                .sessions
                .into_iter()
                .filter(|s| s.queries.len() > OLD_PREFIX)
                .take(need)
                .collect();
            for (i, s) in old.iter_mut().enumerate() {
                s.id = i as u64;
            }
            let ow = old
                .iter()
                .map(|s| s.queries.iter().map(|q| window_of(q).0).collect())
                .collect();
            (old, ow)
        } else {
            (Vec::new(), Vec::new())
        };

        Plan {
            workload,
            sessions,
            windows,
            laps,
            old,
            old_windows,
            distinct_windows: ids.len(),
        }
    }

    /// The `pos`-th request of connection `conn` in the timed plan
    /// (warm-up included: it is simply the first segment's worth).
    pub fn slot(&self, conn: usize, pos: usize) -> Slot<'_> {
        if self.workload.is_durable() && pos % OLD_EVERY == OLD_EVERY - 1 {
            let i = (pos / OLD_EVERY) * CONNS + conn;
            if let Some(s) = self.old.get(i) {
                return Slot {
                    session: SessionRef::Old(i as u32),
                    query: &s.queries[OLD_PREFIX],
                    next: s.queries.get(OLD_PREFIX + 1),
                    window: self.old_windows[i][OLD_PREFIX],
                };
            }
        }
        let lap = &self.laps[conn];
        let step = lap[pos % lap.len()];
        let session = &self.sessions[step.session as usize];
        let q = step.query as usize;
        Slot {
            session: SessionRef::Fresh {
                lap: (pos / lap.len()) as u32,
                id: step.session,
            },
            query: &session.queries[q],
            next: session.queries.get(q + 1),
            window: self.windows[step.session as usize][q],
        }
    }

    /// Requests per connection of the warm-up that ends set-up: one
    /// segment's worth — on `scripted_warm` at least one whole lap, so
    /// that every window has been decoded and cached before the first
    /// timed request and the decoder stays idle from there on.
    pub fn warmup_len(&self, segment: usize) -> usize {
        match self.workload {
            Workload::ScriptedWarm => self.laps.iter().map(Vec::len).fold(segment, usize::max),
            _ => segment,
        }
    }

    /// Old sessions the timed plan first-touches within the first
    /// `per_conn` positions of every connection.
    pub fn old_touched(&self, per_conn: usize) -> usize {
        (0..CONNS)
            .flat_map(|c| (0..per_conn).map(move |pos| (c, pos)))
            .filter(|&(c, pos)| matches!(self.slot(c, pos).session, SessionRef::Old(_)))
            .count()
    }

    /// Sessions first touched within positions `from..to` of every
    /// connection. On the durable tier each is one `Store::get`: the
    /// probe for a persisted copy before the session is created.
    pub fn first_touches(&self, from: usize, to: usize) -> usize {
        let mut n = 0;
        for conn in 0..CONNS {
            let lap = &self.laps[conn];
            for pos in from..to {
                n += match self.slot(conn, pos).session {
                    SessionRef::Old(_) => 1,
                    SessionRef::Fresh { id, .. } => {
                        let i = pos % lap.len();
                        usize::from(i == 0 || lap[i - 1].session != id)
                    }
                };
            }
        }
        n
    }

    /// Requests per connection of the populate phase.
    pub fn populate_len(&self) -> usize {
        self.old.len().div_ceil(CONNS) * OLD_PREFIX
    }

    /// The `pos`-th populate request of connection `conn`: the first
    /// `OLD_PREFIX` queries of each old session, session by session.
    pub fn populate_slot(&self, conn: usize, pos: usize) -> Option<Slot<'_>> {
        let i = (pos / OLD_PREFIX) * CONNS + conn;
        let q = pos % OLD_PREFIX;
        let s = self.old.get(i)?;
        Some(Slot {
            session: SessionRef::Old(i as u32),
            query: &s.queries[q],
            next: s.queries.get(q + 1),
            window: self.old_windows[i][q],
        })
    }

    /// Requests of one lap, over all connections.
    pub fn lap_requests(&self) -> usize {
        self.laps.iter().map(Vec::len).sum()
    }

    /// FNV-1a hash of the request bytes of the first `per_conn`
    /// positions of every connection — the identity of the stream, so a
    /// traced and an untraced run can show they replayed the same one.
    pub fn stream_hash(&self, per_conn: usize) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for conn in 0..CONNS {
            for pos in 0..per_conn {
                for b in self.slot(conn, pos).wire() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(w: Workload, seed: u64) -> Plan {
        let scale = Scale::smoke();
        Plan::build(w, seed, 2, &scale, &bench_catalog(&scale))
    }

    fn bytes(p: &Plan, per_conn: usize) -> Vec<u8> {
        (0..CONNS)
            .flat_map(|c| (0..per_conn).flat_map(move |i| p.slot(c, i).wire()))
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in Workload::ALL {
            let a = plan(w, 1);
            let b = plan(w, 1);
            let c = plan(w, 2);
            assert_eq!(bytes(&a, 300), bytes(&b, 300), "{w:?}");
            assert_ne!(bytes(&a, 300), bytes(&c, 300), "{w:?}");
            assert_eq!(a.stream_hash(300), b.stream_hash(300));
            assert_ne!(a.stream_hash(300), c.stream_hash(300));
        }
    }

    #[test]
    fn explore_sends_each_window_once_per_lap() {
        let p = plan(Workload::ExploreDecode, 3);
        let mut seen = std::collections::HashSet::new();
        for c in 0..CONNS {
            for pos in 0..p.laps[c].len() {
                assert!(seen.insert(p.slot(c, pos).window), "window sent twice");
            }
        }
        assert_eq!(seen.len(), p.lap_requests());
        assert_eq!(seen.len(), p.distinct_windows);
    }

    #[test]
    fn laps_wrap_under_fresh_session_ids() {
        let p = plan(Workload::ScriptedWarm, 1);
        let len = p.laps[0].len();
        let first = p.slot(0, 0);
        let again = p.slot(0, len);
        assert_eq!(first.query.sql, again.query.sql);
        assert_eq!(first.window, again.window);
        assert_ne!(first.session.wire_id(), again.session.wire_id());
        // Sessions stay on one connection, in order.
        for pos in 1..len {
            let (a, b) = (p.slot(0, pos - 1), p.slot(0, pos));
            if a.session == b.session {
                assert_eq!(a.next.map(|q| &q.sql), Some(&b.query.sql));
            }
        }
    }

    #[test]
    fn durable_plan_touches_each_old_session_once_after_populating_it() {
        let p = plan(Workload::DurableChurn, 1);
        let per_conn = 4 * OLD_EVERY;
        let mut touched = Vec::new();
        for c in 0..CONNS {
            for pos in 0..per_conn {
                if let SessionRef::Old(i) = p.slot(c, pos).session {
                    touched.push(i);
                }
            }
        }
        assert_eq!(touched.len(), p.old_touched(per_conn));
        assert_eq!(touched.len(), 4 * CONNS);
        let unique: std::collections::HashSet<_> = touched.iter().collect();
        assert_eq!(unique.len(), touched.len());
        // Every touched session was populated with exactly its prefix.
        let mut populated = HashMap::new();
        for c in 0..CONNS {
            for pos in 0..p.populate_len() {
                if let Some(s) = p.populate_slot(c, pos) {
                    if let SessionRef::Old(i) = s.session {
                        *populated.entry(i).or_insert(0) += 1;
                    }
                }
            }
        }
        for i in touched {
            assert_eq!(populated.get(&i), Some(&OLD_PREFIX));
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
