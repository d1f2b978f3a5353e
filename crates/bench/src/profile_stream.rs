//! Streaming-profiler bench: bounded resident state and near-sink-speed
//! throughput on a million-event pipeline trace.
//!
//! Builds a large time-ordered trace by tiling a dependency-consistent
//! GPipe mini-batch (micro-batch indices offset per tile so op keys stay
//! unique), then pushes it through four consumers:
//!
//! - a boxed [`NullSink`] (the floor: one dynamic dispatch per event),
//! - one windowed [`StreamingProfiler`] (the tentpole path),
//! - a [`ShardedSink`] fanning out to per-shard [`StreamSink`]s over
//!   bounded channels, merged at the end,
//! - `profile()` over the full vector (the reference): the same engine
//!   with an unbounded window, sealed once after the whole capture.
//!
//! The gates CI holds (`--smoke` in the binary): the windowed and the
//! sharded reports byte-identical to `profile()`, zero stream-counter
//! violations, zero channel overflow, resident state a small fraction of
//! the stream, and windowed throughput within [`MAX_SLOWDOWN_VS_POSTHOC`]
//! of the sealed-once pass (the like-for-like attribution baseline; the
//! null sink is reported for context only). The `posthoc` names in the
//! report keys refer to that sealed-once `profile()` call.

use std::time::Instant;

use varuna_obs::{
    merge_partials, profile, Event, EventKind, EventSink, NullSink, OverflowPolicy, ShardedSink,
    StreamConfig, StreamSink, StreamingProfiler,
};

/// Pipeline depth of the tiled workload.
pub const P: usize = 4;
/// Data-parallel replicas.
pub const D: usize = 4;
/// Micro-batches per tile.
pub const N_MICRO: usize = 32;
/// Shards for the fan-out run.
pub const SHARDS: usize = 4;
/// Reorder window for the streaming runs, seconds. The trace is sorted
/// by event time and no interval lasts longer than ~1 s, so this window
/// is exact while keeping pending state to a few tiles.
pub const WINDOW_SECONDS: f64 = 5.0;
/// Throughput gate: the windowed streaming profiler does the same O(n)
/// attribution work as `profile()` (the same engine, window unbounded,
/// sealed once), so folding as it goes may cost at most this factor over
/// the sealed-once pass. (The null-sink floor is reported too, but a
/// no-op virtual call measures dispatch, not attribution, so it is not a
/// stable gate.)
pub const MAX_SLOWDOWN_VS_POSTHOC: f64 = 4.0;
/// Resident-state gate: peak resident entries over stream length.
pub const MAX_RESIDENT_RATIO: f64 = 0.05;

/// Outcome of one streaming bench run.
#[derive(Debug, Clone)]
pub struct StreamBench {
    /// Events in the tiled trace.
    pub events: usize,
    /// Tiles the trace was built from.
    pub tiles: usize,
    /// Null-sink floor, events per second.
    pub null_eps: f64,
    /// Single windowed streaming profiler, events per second (including
    /// the final seal).
    pub stream_eps: f64,
    /// Sharded fan-out run, events per second (including flush + merge).
    pub sharded_eps: f64,
    /// `profile()` over the full vector (sealed once), events per second.
    pub posthoc_eps: f64,
    /// Peak resident entries of the single streaming run.
    pub peak_resident: usize,
    /// `peak_resident / events`.
    pub resident_ratio: f64,
    /// Stream-counter violations across the single and merged runs.
    pub violations: usize,
    /// Events dropped by the sharded sink's bounded channels.
    pub dropped: u64,
    /// Whether the single streamed report equals `profile()` byte-for-byte.
    pub stream_matches: bool,
    /// Whether the merged sharded report equals `profile()` byte-for-byte.
    pub sharded_matches: bool,
}

impl StreamBench {
    /// `null_eps / stream_eps`.
    pub fn slowdown_vs_null(&self) -> f64 {
        self.null_eps / self.stream_eps
    }

    /// `posthoc_eps / stream_eps` — the cost of windowed folding over the
    /// sealed-once pass doing the same attribution.
    pub fn slowdown_vs_posthoc(&self) -> f64 {
        self.posthoc_eps / self.stream_eps
    }

    /// Whether every gate holds.
    pub fn is_clean(&self) -> bool {
        self.stream_matches
            && self.sharded_matches
            && self.violations == 0
            && self.dropped == 0
            && self.resident_ratio <= MAX_RESIDENT_RATIO
            && self.slowdown_vs_posthoc() <= MAX_SLOWDOWN_VS_POSTHOC
    }
}

/// Builds `tiles` back-to-back dependency-consistent GPipe mini-batches,
/// sorted by event time, with micro indices offset per tile so every op
/// key in the stream is unique.
pub fn tiled_trace(tiles: usize) -> Vec<Event> {
    let fwd: Vec<f64> = (0..P).map(|s| 0.010 + 0.002 * s as f64).collect();
    let bwd: Vec<f64> = (0..P).map(|s| 0.021 + 0.003 * s as f64).collect();

    // One tile, replica by replica (same construction the obs property
    // tests pin): forwards chain down, backwards chain back up, every op
    // starting exactly when its latest prerequisite ends.
    let mut tile: Vec<Event> = Vec::new();
    let mut tile_end = 0.0f64;
    for r in 0..D {
        let mut lane_free = [0.0f64; P];
        let mut f_end = vec![vec![0.0f64; P]; N_MICRO];
        let mut b_end = vec![vec![0.0f64; P]; N_MICRO];
        for (m, f_row) in f_end.iter_mut().enumerate() {
            for s in 0..P {
                let dep = if s == 0 { 0.0 } else { f_row[s - 1] };
                let start = lane_free[s].max(dep);
                let end = start + fwd[s];
                lane_free[s] = end;
                f_row[s] = end;
                tile.push(Event::exec(
                    end,
                    EventKind::OpEnd {
                        stage: s,
                        replica: r,
                        op: 'F',
                        micro: m,
                        start,
                    },
                ));
            }
        }
        for m in 0..N_MICRO {
            for s in (0..P).rev() {
                let dep = if s == P - 1 {
                    f_end[m][s]
                } else {
                    b_end[m][s + 1]
                };
                let start = lane_free[s].max(dep);
                let end = start + bwd[s];
                lane_free[s] = end;
                b_end[m][s] = end;
                tile.push(Event::exec(
                    end,
                    EventKind::OpEnd {
                        stage: s,
                        replica: r,
                        op: 'B',
                        micro: m,
                        start,
                    },
                ));
            }
        }
        tile_end = tile_end.max(lane_free.iter().cloned().fold(0.0, f64::max));
    }
    for s in 0..P {
        tile.push(Event::exec(
            tile_end + 0.1 + 0.01 * s as f64,
            EventKind::Allreduce {
                stage: s,
                bytes: 1e9,
                ring: D,
                seconds: 0.2,
            },
        ));
    }
    let stride = tile_end + 0.5;

    let mut events = Vec::with_capacity(tile.len() * tiles);
    for k in 0..tiles {
        let dt = k as f64 * stride;
        let dm = k * N_MICRO;
        for e in &tile {
            let kind = match &e.kind {
                EventKind::OpEnd {
                    stage,
                    replica,
                    op,
                    micro,
                    start,
                } => EventKind::OpEnd {
                    stage: *stage,
                    replica: *replica,
                    op: *op,
                    micro: micro + dm,
                    start: start + dt,
                },
                other => other.clone(),
            };
            let mut shifted = Event::exec(e.t_sim + dt, kind);
            shifted.source = e.source;
            events.push(shifted);
        }
    }
    events.sort_by(|a, b| a.t_sim.total_cmp(&b.t_sim));
    events
}

/// Runs the bench on a trace of at least `target_events` events.
pub fn run(target_events: usize) -> StreamBench {
    let per_tile = D * 2 * P * N_MICRO + P;
    let tiles = target_events.div_ceil(per_tile);
    let events = tiled_trace(tiles);
    let n = events.len();

    // Reference: `profile()` over the full vector, sealed once.
    let t0 = Instant::now();
    let posthoc = profile(&events).to_json();
    let posthoc_eps = n as f64 / t0.elapsed().as_secs_f64();

    // Floor: one boxed dynamic dispatch per event, no work. black_box
    // keeps the optimizer from deleting the loop outright.
    let mut null: Box<dyn EventSink> = Box::new(NullSink);
    let t0 = Instant::now();
    for e in &events {
        null.record(std::hint::black_box(e));
    }
    null.flush();
    let null_eps = n as f64 / t0.elapsed().as_secs_f64();

    // Tentpole path: one windowed streaming profiler.
    let cfg = StreamConfig::windowed(WINDOW_SECONDS, usize::MAX);
    let mut prof = StreamingProfiler::new(cfg);
    let t0 = Instant::now();
    for e in &events {
        prof.observe(e);
    }
    let partial = prof.into_partial();
    let counters = *partial.counters();
    let streamed = partial.into_report().to_json();
    let stream_eps = n as f64 / t0.elapsed().as_secs_f64();

    // Fan-out path: bounded channels, one streaming shard per worker.
    let shard_sinks: Vec<StreamSink> = (0..SHARDS)
        .map(|k| StreamSink::for_shard(k, SHARDS, cfg))
        .collect();
    let boxed: Vec<Box<dyn EventSink + Send>> = shard_sinks
        .iter()
        .map(|s| Box::new(s.clone()) as Box<dyn EventSink + Send>)
        .collect();
    let mut fan = ShardedSink::new(boxed, 8192, OverflowPolicy::Block);
    let t0 = Instant::now();
    for e in &events {
        fan.record(e);
    }
    fan.flush();
    let dropped = fan.dropped();
    drop(fan);
    let merged = merge_partials(shard_sinks.iter().map(|s| s.take_partial()).collect())
        .expect("at least one shard");
    let merged_violations = merged.counters().violations();
    let sharded = merged.into_report().to_json();
    let sharded_eps = n as f64 / t0.elapsed().as_secs_f64();

    StreamBench {
        events: n,
        tiles,
        null_eps,
        stream_eps,
        sharded_eps,
        posthoc_eps,
        peak_resident: counters.peak_resident,
        resident_ratio: counters.peak_resident as f64 / n as f64,
        violations: counters.violations() + merged_violations,
        dropped,
        stream_matches: streamed == posthoc,
        sharded_matches: sharded == posthoc,
    }
}

/// Packages a run as a [`varuna_obs::BenchReport`]
/// (`BENCH_profile_stream.json`).
pub fn report(b: &StreamBench) -> varuna_obs::BenchReport {
    varuna_obs::BenchReport::new("profile_stream")
        .param("p", P as f64)
        .param("d", D as f64)
        .param("n_micro_per_tile", N_MICRO as f64)
        .param("tiles", b.tiles as f64)
        .param("shards", SHARDS as f64)
        .param("window_seconds", WINDOW_SECONDS)
        .param("max_slowdown_vs_posthoc", MAX_SLOWDOWN_VS_POSTHOC)
        .param("max_resident_ratio", MAX_RESIDENT_RATIO)
        .result("events", b.events as f64)
        .result("null_events_per_sec", b.null_eps)
        .result("stream_events_per_sec", b.stream_eps)
        .result("sharded_events_per_sec", b.sharded_eps)
        .result("posthoc_events_per_sec", b.posthoc_eps)
        .result("slowdown_vs_null", b.slowdown_vs_null())
        .result("slowdown_vs_posthoc", b.slowdown_vs_posthoc())
        .result("peak_resident", b.peak_resident as f64)
        .result("resident_ratio", b.resident_ratio)
        .result("violations", b.violations as f64)
        .result("dropped", b.dropped as f64)
        .result(
            "stream_matches_posthoc",
            if b.stream_matches { 1.0 } else { 0.0 },
        )
        .result(
            "sharded_matches_posthoc",
            if b.sharded_matches { 1.0 } else { 0.0 },
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_exact_bounded_and_lossless() {
        // Same size the CI smoke gate runs: resident state is set by the
        // window (not the stream length), so the ratio gate needs a
        // stream long enough to amortize it.
        let b = run(120_000);
        assert!(b.is_clean(), "{b:?}");
        assert!(b.events >= 120_000);
        assert!(
            b.peak_resident < b.events / 10,
            "resident {} vs {} events",
            b.peak_resident,
            b.events
        );
    }

    #[test]
    fn tiled_trace_has_unique_op_keys_and_is_time_sorted() {
        let events = tiled_trace(3);
        let mut keys = std::collections::BTreeSet::new();
        for w in events.windows(2) {
            assert!(w[0].t_sim <= w[1].t_sim);
        }
        for e in &events {
            if let EventKind::OpEnd {
                stage,
                replica,
                op,
                micro,
                ..
            } = e.kind
            {
                assert!(keys.insert((stage, replica, op, micro)), "dup op key");
            }
        }
    }

    #[test]
    fn the_report_carries_the_gates() {
        let b = run(10_000);
        let r = report(&b);
        assert!(r.is_current_schema());
        assert_eq!(r.summary["stream_matches_posthoc"], 1.0);
        assert_eq!(r.summary["dropped"], 0.0);
        assert!(r.summary["stream_events_per_sec"] > 0.0);
    }
}
