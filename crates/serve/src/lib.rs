//! # qrec-serve — online serving for the query recommender
//!
//! The paper targets *interactive* data exploration: SQL Share and SDSS
//! analysts get next-query suggestions while they work. This crate adds
//! the missing online half of the reproduction — a serving layer that
//! keeps trained [`Recommender`](qrec_core::Recommender)s hot behind a
//! small JSON-lines-over-TCP protocol:
//!
//! * [`session_store`] — sharded, RwLock-per-shard store of live
//!   [`SessionContext`](qrec_core::SessionContext)s with TTL eviction;
//!   its pushes parse through a bounded table of repeated statements
//!   (`statements`), so a statement seen before is not parsed again.
//! * [`batcher`] — decode engine: a bounded queue feeds worker
//!   threads, one job per hand-off; a full queue is typed backpressure
//!   ([`ServeError::Overloaded`]).
//! * [`cache`] — LRU cache keyed on *(model epoch, normalized input
//!   window)*, so repeated windows skip the decoder entirely.
//! * [`registry`] — atomic hot-swap of the serving model; in-flight
//!   requests finish on the model they started with.
//! * [`server`] / [`client`] / [`protocol`] — the TCP front end
//!   (`RECOMMEND` / `STATS` / `PING` / `SHUTDOWN`), graceful shutdown,
//!   and an in-process client. The front end is a readiness-based
//!   event loop — one thread, thousands of connections; see `eventloop`
//!   and DESIGN.md §16.
//! * [`framing`] — incremental JSONL frame reassembly for non-blocking
//!   reads: partial lines accumulate across reads, oversized lines are
//!   typed errors instead of unbounded buffers.
//! * [`metrics`] — atomic counters and fixed-bucket latency histograms
//!   behind the `STATS` verb.
//! * [`telemetry`] — the time-series engine (DESIGN.md §17): sliding
//!   windows of metric deltas, a SpaceSaving sketch of query-template
//!   ids, and drift scores per sealed window, served via `HISTORY`
//!   (the in-memory ring, durable across restarts through a capped
//!   telemetry log), `WATCH` (one streamed line per sealed window),
//!   and `PROF` (sampling profiler report).
//! * [`zoo`] — versioned on-disk model persistence: each hot-swap writes
//!   a checksummed weight blob plus an atomically-updated `CURRENT`
//!   pointer, so a restarted server resumes serving the exact model (and
//!   epoch) it last swapped in. Together with the write-through durable
//!   session tier in [`session_store`] (backed by `qrec-store`'s WAL +
//!   sorted runs), a SIGKILL loses no acknowledged session write.
//!
//! ```no_run
//! use qrec_serve::{Client, Server, ServerConfig};
//! # fn model() -> qrec_core::Recommender { unimplemented!() }
//! let server = Server::start(model(), "127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let reply = client.recommend("alice", "SELECT name FROM star", 5).unwrap();
//! println!("suggested tables: {:?}", reply.fragments.unwrap().table);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batcher;
pub mod cache;
pub mod client;
pub mod error;
mod eventloop;
pub mod framing;
pub mod metrics;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod session_store;
mod statements;
pub mod telemetry;
pub mod zoo;

pub use batcher::{DecodeEngine, DecodeRequest, EngineConfig, Recommendation};
pub use cache::{CacheKey, RecCache};
pub use client::Client;
pub use error::ServeError;
pub use eventloop::LOOP_PARSE_MAX_BYTES;
pub use framing::{FrameBuf, FrameError};
pub use metrics::{ComputeSnapshot, FrontendSnapshot, Metrics, MetricsSnapshot, WindowSummary};
pub use protocol::{HistoryReply, Request, Response, StatsReply};
pub use registry::ModelRegistry;
pub use server::{QuantMode, Server, ServerConfig};
pub use session_store::{PendingPush, SessionStore};
pub use statements::{StatementStats, STATEMENT_TABLE_BYTES};
pub use telemetry::{Telemetry, WindowFrame};
pub use zoo::ModelZoo;
