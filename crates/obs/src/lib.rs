#![warn(missing_docs)]
//! Unified observability for the Varuna reproduction.
//!
//! Every subsystem — the discrete-event emulator (`varuna-exec`), the spot
//! cluster substrate (`varuna-cluster`), the manager (`varuna` core), and
//! the miniature training engine (`varuna-train`) — reports what it does
//! through one structured [`Event`] stream instead of each keeping its own
//! ad-hoc recorder. Consumers plug [`EventSink`]s into an [`EventBus`]:
//!
//! - [`VecSink`] buffers events in memory (tests, exporters),
//! - [`RingBufferSink`] keeps only the newest `N` (flight recorder),
//! - [`JsonlSink`] streams one JSON object per line to a writer,
//! - [`NullSink`] discards everything while keeping the wiring in place.
//!
//! With no enabled sink attached the bus is inert: producers guard every
//! emission with [`EventBus::emit_with`], so no payload is even
//! constructed and the emulator's hot loop stays within noise of its
//! bus-free wall-clock (verified by the criterion benches).
//!
//! On top of the event stream sit a [`MetricsRegistry`] (counters, gauges,
//! fixed-bucket histograms, snapshot-able to one JSON document), a
//! `chrome://tracing` exporter ([`chrome_trace_json`]) whose output loads
//! directly in Perfetto, the [`BenchReport`] schema the bench binaries
//! emit as `BENCH_*.json`, and the time-attribution profiler
//! ([`profile()`]) that decomposes any captured stream into compute,
//! communication, bubble, and downtime — with a critical-path pass that
//! names the bottleneck stage (`varuna-profile` is its CLI front-end).
//! There is one attribution engine, the [`StreamingProfiler`]: fed live
//! through a [`StreamSink`] it attributes a run as it happens, in bounded
//! memory and across mergeable shards, and `profile()` is that profiler
//! fed a captured stream and sealed once.
//!
//! Every view is derived from the one [`Event`] schema rather than kept as
//! a hand-written copy. A chrome-trace marker carries its event's serde
//! form (`args` is the [`EventKind`], `cat` the [`Source`]), the same
//! encoding a [`JsonlSink`] line holds, so both importers
//! ([`events_from_chrome_trace`], [`events_from_jsonl`]) decode through
//! serde and return an error, never a panic, on malformed input or on a
//! stage index beyond [`MAX_STAGE`]. Per-op
//! spans are [`ProfileSpan`]s rebuilt by [`profile::spans`], the only
//! span type in the workspace.

pub mod attrib;
pub mod bus;
pub mod chrome_trace;
pub mod event;
pub mod metrics;
pub mod profile;
pub mod report;
pub mod stream;

pub use attrib::{downtime, CriticalPath, DowntimeProfile};
pub use bus::{
    allreduce_owner, shard_route, EventBus, EventSink, JsonlSink, NullSink, OverflowPolicy,
    RingBufferSink, ShardRoute, ShardedSink, VecSink,
};
pub use chrome_trace::{chrome_trace_json, events_from_chrome_trace};
pub use event::{Event, EventKind, Source, MAX_STAGE};
pub use metrics::{Histogram, MetricsRegistry};
pub use profile::{
    event_from_jsonl, events_from_jsonl, profile, LaneProfile, ProfileReport, ProfileSpan,
    StageProfile, PROFILE_SCHEMA,
};
pub use report::{BenchReport, REPORT_SCHEMA};
pub use stream::{
    merge_partials, spawn_http, PartialReport, StreamConfig, StreamCounters, StreamSink,
    StreamingProfiler,
};
