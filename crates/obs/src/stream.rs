//! The attribution engine: incremental, bounded-memory time attribution.
//!
//! [`profile`](crate::profile()) is one [`StreamingProfiler`] fed every
//! event and sealed once, so the lane sweep, the critical-path walk and
//! report assembly exist here and nowhere else. Fed live instead, the
//! same profiler folds events as they arrive — a week-long fleet sweep at
//! emulator speeds emits tens of millions of them — holding `O(stages ×
//! replicas)` lane state plus a bounded reorder window instead of
//! `O(events)`, and its mergeable [`PartialReport`] lets per-shard
//! streams folded in *any* grouping reproduce `profile()` of the whole
//! stream **byte-for-byte**.
//!
//! # Why sharding and windowing stay exact
//!
//! Three observations carry the whole design:
//!
//! 1. **The lane sweep needs the makespan only at the end.** Each lane
//!    folds its busy intervals in `(start, end)` order; the cursor never
//!    passes an interval's own end, and only the drain term reads the
//!    makespan, when the report is assembled after all shards merged.
//! 2. **Every critical-path dependency is replica-local.** An op's
//!    candidate predecessors are the previous op on its own `(stage,
//!    replica)` lane, the same-micro forward one stage upstream (same
//!    replica), and the same-micro backward one stage downstream (same
//!    replica). Sharding by replica keeps the whole dependency walk
//!    shard-local.
//! 3. **Order-sensitive `f64` sums route to one shard.** Control-plane
//!    events and transfers accumulate on shard 0 in arrival order (see
//!    [`shard_route`](crate::shard_route)); merging adds exact zeros
//!    from every other shard, and `x + 0.0 == x` bytewise for the
//!    non-negative sums involved.
//!
//! Everything the stream cannot prove incrementally is *counted, never
//! silent*: late arrivals, duplicate op keys, lane collisions, split
//! degraded episodes, irregular intervals ([`StreamCounters`]). The
//! proptests pin that when [`StreamCounters::violations`] is zero the
//! merged report is byte-identical to `profile()` of the whole stream.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};

use serde::Serialize;

use crate::attrib::{CriticalPath, DowntimeAcc, DowntimeProfile};
use crate::bus::{allreduce_owner, EventSink};
use crate::event::{Event, EventKind};
use crate::profile::{LaneProfile, ProfileReport, ProfileSpan, StageProfile, PROFILE_SCHEMA};

const EPS: f64 = 1e-9;

/// Tuning knobs for the streaming profiler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Reorder window, seconds of stream time. A pending interval folds
    /// once its start falls `window_seconds` behind the high-water mark.
    /// The default (`f64::INFINITY`) folds everything at seal time —
    /// exact for *any* input order, at `O(events)` pending cost; any
    /// finite window larger than the stream's worst-case interval length
    /// plus reordering is exact for time-ordered streams and bounds the
    /// pending buffer.
    pub window_seconds: f64,
    /// Hard cap on the pending buffer; the oldest entries are force-
    /// folded (and counted) past it. `usize::MAX` disables.
    pub max_pending: usize,
    /// Horizon, seconds, after which unconsumed critical-path
    /// predecessor summaries are pruned (and counted). Bounds the
    /// dependency table on endless streams; `f64::INFINITY` disables.
    pub prune_inflight_after: f64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            window_seconds: f64::INFINITY,
            max_pending: usize::MAX,
            prune_inflight_after: f64::INFINITY,
        }
    }
}

impl StreamConfig {
    /// A bounded-memory configuration: reorder window of
    /// `window_seconds`, pending cap scaled to it, and an inflight prune
    /// horizon of four windows.
    pub fn windowed(window_seconds: f64, max_pending: usize) -> Self {
        StreamConfig {
            window_seconds,
            max_pending,
            prune_inflight_after: window_seconds * 4.0,
        }
    }
}

/// Accounting the streaming pass keeps about itself.
///
/// `violations()` totals the conditions under which a windowed or
/// sharded fold is no longer guaranteed to equal `profile()` of the whole
/// stream — the CI smoke gate pins it at zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct StreamCounters {
    /// Events this shard owns (ghost broadcast copies excluded); merged
    /// reports sum to the whole stream's event count.
    pub events: usize,
    /// Intervals that arrived after their window had already folded.
    pub late_events: usize,
    /// Lanes first seen after one of their stage's allreduces folded.
    pub late_allreduce_lanes: usize,
    /// Duplicate `(stage, replica, op, micro)` op keys observed.
    pub dup_op_keys: usize,
    /// Lane keys present on both sides of a merge (impossible under
    /// canonical replica routing).
    pub lane_collisions: usize,
    /// Degraded episodes left open on both sides of a merge (control
    /// events split across shards).
    pub split_control: usize,
    /// Intervals with non-finite or negative-start bounds.
    pub irregular_intervals: usize,
    /// Pending entries folded early by the `max_pending` cap.
    pub force_folded: usize,
    /// Unconsumed predecessor summaries dropped by the prune horizon
    /// (memory bound; identity still holds unless a pruned entry would
    /// have been referenced).
    pub pruned_inflight: usize,
    /// Peak pending-buffer size.
    pub peak_pending: usize,
    /// Peak dependency-table size.
    pub peak_inflight: usize,
    /// Peak total resident state ([`StreamingProfiler::resident`]).
    pub peak_resident: usize,
}

impl StreamCounters {
    /// Conditions under which the fold is no longer guaranteed to equal
    /// `profile()` of the whole stream.
    pub fn violations(&self) -> usize {
        self.late_events
            + self.late_allreduce_lanes
            + self.dup_op_keys
            + self.lane_collisions
            + self.split_control
            + self.irregular_intervals
            + self.force_folded
    }

    fn absorb(&mut self, o: &StreamCounters) {
        self.events += o.events;
        self.late_events += o.late_events;
        self.late_allreduce_lanes += o.late_allreduce_lanes;
        self.dup_op_keys += o.dup_op_keys;
        self.lane_collisions += o.lane_collisions;
        self.split_control += o.split_control;
        self.irregular_intervals += o.irregular_intervals;
        self.force_folded += o.force_folded;
        self.pruned_inflight += o.pruned_inflight;
        self.peak_pending = self.peak_pending.max(o.peak_pending);
        self.peak_inflight = self.peak_inflight.max(o.peak_inflight);
        self.peak_resident = self.peak_resident.max(o.peak_resident);
    }
}

/// What a busy interval was doing, for attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BusyKind {
    /// Forward op compute.
    Forward,
    /// Recompute (activation rematerialization).
    Recompute,
    /// Backward op compute.
    Backward,
    /// Sender-blocked serialization.
    Send,
    /// Data-parallel gradient allreduce.
    Allreduce,
}

/// Incremental cursor sweep over one lane's busy intervals: the lane
/// decomposition. Intervals must be pushed in `(start, end)` order (the
/// pending buffer drains in key order).
#[derive(Debug, Clone, PartialEq, Default)]
struct LaneFold {
    /// Seconds attributed to forward ops so far.
    forward: f64,
    /// Seconds attributed to recompute ops so far.
    recompute: f64,
    /// Seconds attributed to backward ops so far.
    backward: f64,
    /// Seconds attributed to blocked sends so far.
    send: f64,
    /// Seconds attributed to allreduces so far.
    allreduce: f64,
    /// Idle seconds before the first busy interval.
    warmup: f64,
    /// Idle seconds between busy intervals.
    stall: f64,
    /// Sweep cursor: the latest attributed instant.
    cursor: f64,
    /// False until the first interval is pushed (gap → warmup).
    started: bool,
    /// Intervals pushed (used by the merge to pick between redundant
    /// synthetic-lane copies).
    pushes: usize,
}

impl LaneFold {
    /// Folds the next busy interval (in sorted order), clipping its start
    /// to the cursor so overlaps never double-count.
    fn push(&mut self, start: f64, end: f64, kind: BusyKind) {
        let gap = start - self.cursor;
        if gap > 0.0 {
            if self.started {
                self.stall += gap;
            } else {
                self.warmup += gap;
            }
            self.cursor = start;
        }
        self.started = true;
        let contrib = end - start.max(self.cursor);
        if contrib > 0.0 {
            match kind {
                BusyKind::Forward => self.forward += contrib,
                BusyKind::Recompute => self.recompute += contrib,
                BusyKind::Backward => self.backward += contrib,
                BusyKind::Send => self.send += contrib,
                BusyKind::Allreduce => self.allreduce += contrib,
            }
        }
        self.cursor = self.cursor.max(end);
        self.pushes += 1;
    }

    /// Closes the sweep at `makespan`: everything after the cursor is
    /// drain.
    fn finish(&self, stage: usize, replica: usize, ops: usize, makespan: f64) -> LaneProfile {
        LaneProfile {
            stage,
            replica,
            forward: self.forward,
            recompute: self.recompute,
            backward: self.backward,
            send: self.send,
            allreduce: self.allreduce,
            warmup: self.warmup,
            stall: self.stall,
            drain: (makespan - self.cursor).max(0.0),
            ops,
        }
    }
}

/// Running decomposition of one dependency chain, folded op by op in
/// chain order (chain start first): the critical-path walk's state.
#[derive(Debug, Clone, PartialEq)]
struct ChainSummary {
    /// End time of the chain's latest op, seconds.
    end: f64,
    /// Compute seconds summed along the chain, in chain order.
    compute: f64,
    /// Wait seconds (initial warmup + inter-op gaps), in chain order.
    wait: f64,
    /// Ops on the chain.
    ops: usize,
    /// Per-stage compute seconds (grown on demand; padded at finish).
    stage_seconds: Vec<f64>,
}

impl ChainSummary {
    /// A one-op chain starting from scratch: the op's start time is
    /// charged as initial wait.
    fn leaf(s: &ProfileSpan) -> Self {
        let mut c = ChainSummary {
            end: s.end,
            compute: 0.0,
            wait: s.start.max(0.0),
            ops: 0,
            stage_seconds: Vec::new(),
        };
        c.charge(s);
        c
    }

    /// Extends the chain by one dependent op: the gap since the chain's
    /// previous end is charged as wait, the op's duration as compute.
    fn extend(&self, s: &ProfileSpan) -> Self {
        let mut c = self.clone();
        c.wait += (s.start - self.end).max(0.0);
        c.end = s.end;
        c.charge(s);
        c
    }

    fn charge(&mut self, s: &ProfileSpan) {
        let dur = s.duration();
        self.compute += dur;
        if self.stage_seconds.len() <= s.stage {
            self.stage_seconds.resize(s.stage + 1, 0.0);
        }
        self.stage_seconds[s.stage] += dur;
        self.ops += 1;
    }

    /// Turns the terminal chain into a [`CriticalPath`], padding the
    /// per-stage vector to `max_stage` (the highest stage over *all* ops,
    /// on or off the path) and naming the bottleneck.
    fn finish(self, length: f64, max_stage: usize) -> CriticalPath {
        let mut stage_seconds = self.stage_seconds;
        if stage_seconds.len() <= max_stage {
            stage_seconds.resize(max_stage + 1, 0.0);
        }
        // Strict `>` keeps the first (lowest) stage on ties.
        let mut bottleneck_stage = 0;
        for (s, &v) in stage_seconds.iter().enumerate() {
            if v > stage_seconds[bottleneck_stage] {
                bottleneck_stage = s;
            }
        }
        CriticalPath {
            length,
            compute_seconds: self.compute,
            wait_seconds: self.wait,
            ops: self.ops,
            bottleneck_stage,
            stage_seconds,
        }
    }
}

/// `f64` with a total order, usable as a `BTreeMap` key.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Tf64(f64);

impl Eq for Tf64 {}

impl PartialOrd for Tf64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tf64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Pending-buffer key: the order each lane folds its intervals in.
/// `(start, end, class, seq)` puts data intervals (`class` 0) before
/// allreduces (`class` 1) on equal bounds, and `seq` keeps arrival order
/// among the rest, so the fold does not depend on how the events were
/// interleaved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct PendKey {
    start: Tf64,
    end: Tf64,
    class: u8,
    seq: u64,
}

#[derive(Debug, Clone)]
enum Pend {
    /// An op interval (`OpEnd`): lane fold + critical-path walk. `start`
    /// in the key is clamped to 0 (lane-sweep semantics); `raw_start`
    /// keeps the unclamped value the critical path charges.
    Op {
        stage: usize,
        replica: usize,
        kind: BusyKind,
        raw_start: f64,
        op: char,
        micro: usize,
    },
    /// A blocked-send interval: lane fold only.
    Send { stage: usize, replica: usize },
    /// A per-stage allreduce: folds into every known lane of the stage
    /// plus the stage's synthetic-lane candidate.
    Allreduce { stage: usize },
}

/// Per-lane streaming state: the cursor sweep plus the last op's
/// chain summary (the lane-predecessor candidate for the next op).
#[derive(Debug, Clone, PartialEq, Default)]
struct LaneState {
    fold: LaneFold,
    ops: usize,
    last_op: Option<ChainSummary>,
}

/// The terminal candidate for the critical path: the last op to finish,
/// ties broken toward the lowest `(stage, replica, micro)` — a total
/// order, hence order- and merge-invariant.
#[derive(Debug, Clone, PartialEq)]
struct Terminal {
    end: f64,
    stage: usize,
    replica: usize,
    micro: usize,
    chain: ChainSummary,
}

/// A mergeable shard of streaming profiler state.
///
/// `merge` is associative: folding any grouping of per-shard partials
/// produces the same final [`ProfileReport`]. `report`/`into_report`
/// close the stream at the current makespan, so every intermediate
/// partial satisfies the same sum-to-makespan and downtime identities
/// the sealed report does.
#[derive(Debug, Clone)]
pub struct PartialReport {
    cfg: StreamConfig,
    makespan: f64,
    pipeline_end: f64,
    high_water: f64,
    max_op_stage: usize,
    seq: u64,
    frontier: Option<PendKey>,
    pending: BTreeMap<PendKey, Pend>,
    lanes: BTreeMap<(usize, usize), LaneState>,
    /// Each stage's synthetic replica-0 lane candidate (its allreduces
    /// alone), used at finish only if the stage ended up with no real
    /// lanes, so an allreduce-only stage's time is still visible.
    synth: BTreeMap<usize, LaneFold>,
    folded_ars: BTreeMap<usize, usize>,
    inflight: BTreeMap<(usize, usize, char, usize), ChainSummary>,
    prune_watermark: usize,
    terminal: Option<Terminal>,
    transfer_seconds: f64,
    transfer_out: BTreeMap<usize, f64>,
    downtime: DowntimeAcc,
    counters: StreamCounters,
}

impl PartialReport {
    fn new(cfg: StreamConfig) -> Self {
        PartialReport {
            cfg,
            makespan: 0.0,
            pipeline_end: 0.0,
            high_water: 0.0,
            max_op_stage: 0,
            seq: 0,
            frontier: None,
            pending: BTreeMap::new(),
            lanes: BTreeMap::new(),
            synth: BTreeMap::new(),
            folded_ars: BTreeMap::new(),
            inflight: BTreeMap::new(),
            prune_watermark: 64,
            terminal: None,
            transfer_seconds: 0.0,
            transfer_out: BTreeMap::new(),
            downtime: DowntimeAcc::default(),
            counters: StreamCounters::default(),
        }
    }

    /// The streaming counters accumulated so far.
    pub fn counters(&self) -> &StreamCounters {
        &self.counters
    }

    /// The stream's makespan so far.
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// Owned events consumed so far.
    pub fn events(&self) -> usize {
        self.counters.events
    }

    /// Resident state entries (pending + dependency table + lanes +
    /// synthetic lanes) — the quantity that stays bounded.
    pub fn resident(&self) -> usize {
        self.pending.len() + self.inflight.len() + self.lanes.len() + self.synth.len()
    }

    fn touch_lane(&mut self, stage: usize, replica: usize) -> &mut LaneState {
        if !self.lanes.contains_key(&(stage, replica))
            && self.folded_ars.get(&stage).copied().unwrap_or(0) > 0
        {
            self.counters.late_allreduce_lanes += 1;
        }
        self.lanes.entry((stage, replica)).or_default()
    }

    fn push_pend(&mut self, start: f64, end: f64, class: u8, pend: Pend) {
        let key = PendKey {
            start: Tf64(start),
            end: Tf64(end),
            class,
            seq: self.seq,
        };
        self.seq += 1;
        if let Some(f) = &self.frontier {
            if key < *f {
                self.counters.late_events += 1;
            }
        }
        self.pending.insert(key, pend);
    }

    fn ingest_allreduce(&mut self, e: &Event) {
        let EventKind::Allreduce { stage, seconds, .. } = &e.kind else {
            return;
        };
        if e.t_sim.is_finite() {
            self.makespan = self.makespan.max(e.t_sim);
            self.high_water = self.high_water.max(e.t_sim);
        }
        let start = (e.t_sim - seconds).max(0.0);
        let end = e.t_sim;
        if !(start.is_finite() && end.is_finite()) {
            self.counters.irregular_intervals += 1;
            return;
        }
        self.push_pend(start, end, 1, Pend::Allreduce { stage: *stage });
    }

    fn observe(&mut self, e: &Event) {
        self.counters.events += 1;
        match &e.kind {
            EventKind::OpEnd {
                stage,
                replica,
                op,
                micro,
                start,
            } => {
                let end = e.t_sim;
                if end.is_finite() {
                    self.makespan = self.makespan.max(end);
                    self.high_water = self.high_water.max(end);
                    self.pipeline_end = self.pipeline_end.max(end);
                }
                self.max_op_stage = self.max_op_stage.max(*stage);
                if !(start.is_finite() && end.is_finite()) {
                    self.counters.irregular_intervals += 1;
                } else {
                    if *start < 0.0 {
                        self.counters.irregular_intervals += 1;
                    }
                    let kind = match op {
                        'F' => BusyKind::Forward,
                        'R' => BusyKind::Recompute,
                        _ => BusyKind::Backward,
                    };
                    self.touch_lane(*stage, *replica).ops += 1;
                    self.push_pend(
                        start.max(0.0),
                        end,
                        0,
                        Pend::Op {
                            stage: *stage,
                            replica: *replica,
                            kind,
                            raw_start: *start,
                            op: *op,
                            micro: *micro,
                        },
                    );
                }
            }
            EventKind::SendBusy {
                stage,
                replica,
                seconds,
                ..
            } => {
                let start = e.t_sim.max(0.0);
                let end = e.t_sim + seconds;
                if e.t_sim.is_finite() {
                    self.high_water = self.high_water.max(e.t_sim);
                }
                if end.is_finite() {
                    self.makespan = self.makespan.max(end);
                }
                if !(start.is_finite() && end.is_finite()) {
                    self.counters.irregular_intervals += 1;
                } else {
                    if e.t_sim < 0.0 {
                        self.counters.irregular_intervals += 1;
                    }
                    self.touch_lane(*stage, *replica);
                    self.push_pend(
                        start,
                        end,
                        0,
                        Pend::Send {
                            stage: *stage,
                            replica: *replica,
                        },
                    );
                }
            }
            EventKind::Allreduce { .. } => {
                self.ingest_allreduce(e);
            }
            EventKind::Transfer {
                from_stage,
                seconds,
                ..
            } => {
                if e.t_sim.is_finite() {
                    self.high_water = self.high_water.max(e.t_sim);
                }
                let end = e.t_sim + seconds;
                if end.is_finite() {
                    self.makespan = self.makespan.max(end);
                }
                self.transfer_seconds += seconds;
                *self.transfer_out.entry(*from_stage).or_default() += seconds;
            }
            _ => {
                if e.t_sim.is_finite() {
                    self.makespan = self.makespan.max(e.t_sim);
                    self.high_water = self.high_water.max(e.t_sim);
                }
                self.downtime.observe(e);
            }
        }
        self.advance();
    }

    fn observe_ghost(&mut self, e: &Event) {
        if matches!(e.kind, EventKind::Allreduce { .. }) {
            self.ingest_allreduce(e);
            self.advance();
        }
    }

    /// Folds pending intervals whose window has passed and enforces the
    /// pending cap, then updates peaks.
    fn advance(&mut self) {
        if self.cfg.window_seconds.is_finite() {
            let cut = self.high_water - self.cfg.window_seconds;
            while self
                .pending
                .first_key_value()
                .is_some_and(|(k, _)| k.start.0 <= cut)
            {
                let (k, p) = self.pending.pop_first().expect("checked non-empty");
                self.fold_pend(k, p);
            }
        }
        while self.pending.len() > self.cfg.max_pending {
            let (k, p) = self.pending.pop_first().expect("len > cap >= 0");
            self.counters.force_folded += 1;
            self.fold_pend(k, p);
        }
        self.counters.peak_pending = self.counters.peak_pending.max(self.pending.len());
        self.counters.peak_inflight = self.counters.peak_inflight.max(self.inflight.len());
        self.counters.peak_resident = self.counters.peak_resident.max(self.resident());
    }

    /// Folds every pending interval (stream end / pre-merge barrier).
    fn seal(&mut self) {
        while let Some((k, p)) = self.pending.pop_first() {
            self.fold_pend(k, p);
        }
        self.counters.peak_inflight = self.counters.peak_inflight.max(self.inflight.len());
        self.counters.peak_resident = self.counters.peak_resident.max(self.resident());
    }

    fn fold_pend(&mut self, key: PendKey, pend: Pend) {
        self.frontier = Some(key);
        match pend {
            Pend::Op {
                stage,
                replica,
                kind,
                raw_start,
                op,
                micro,
            } => {
                let lane = self
                    .lanes
                    .get_mut(&(stage, replica))
                    .expect("lane created at pend time");
                lane.fold.push(key.start.0, key.end.0, kind);
                self.walk_op(ProfileSpan {
                    stage,
                    replica,
                    op,
                    micro,
                    start: raw_start,
                    end: key.end.0,
                });
            }
            Pend::Send { stage, replica } => {
                let lane = self
                    .lanes
                    .get_mut(&(stage, replica))
                    .expect("lane created at pend time");
                lane.fold.push(key.start.0, key.end.0, BusyKind::Send);
            }
            Pend::Allreduce { stage } => {
                let keys: Vec<(usize, usize)> = self
                    .lanes
                    .range((stage, 0)..(stage + 1, 0))
                    .map(|(k, _)| *k)
                    .collect();
                for k in keys {
                    self.lanes
                        .get_mut(&k)
                        .expect("ranged key exists")
                        .fold
                        .push(key.start.0, key.end.0, BusyKind::Allreduce);
                }
                self.synth.entry(stage).or_default().push(
                    key.start.0,
                    key.end.0,
                    BusyKind::Allreduce,
                );
                *self.folded_ars.entry(stage).or_default() += 1;
            }
        }
    }

    /// One step of the critical-path walk (see [`CriticalPath`] for the
    /// dependency model): bind the op to its latest-finishing candidate
    /// predecessor that ended by the op's start (ties toward the lowest
    /// `(stage, replica)`) and extend that predecessor's chain summary,
    /// or start a new chain when there is none.
    fn walk_op(&mut self, s: ProfileSpan) {
        // Consume-on-lookup: each F/B key has exactly one possible
        // dependent (this op), so the entry is dead after this lookup
        // whether or not it wins.
        let fpred = if s.op == 'F' && s.stage > 0 {
            self.inflight
                .remove(&(s.stage - 1, s.replica, 'F', s.micro))
        } else {
            None
        };
        let bpred = if s.op == 'B' {
            self.inflight
                .remove(&(s.stage + 1, s.replica, 'B', s.micro))
        } else {
            None
        };
        let lane_pred = self
            .lanes
            .get(&(s.stage, s.replica))
            .and_then(|l| l.last_op.as_ref());

        let mut best: Option<(f64, (usize, usize), &ChainSummary)> = None;
        let candidates = [
            (lane_pred, (s.stage, s.replica)),
            (fpred.as_ref(), (s.stage.wrapping_sub(1), s.replica)),
            (bpred.as_ref(), (s.stage + 1, s.replica)),
        ];
        for (cand, sr) in candidates {
            let Some(c) = cand else { continue };
            if c.end <= s.start + EPS {
                let better = match &best {
                    None => true,
                    Some((be, bsr, _)) => c.end > *be || (c.end == *be && sr < *bsr),
                };
                if better {
                    best = Some((c.end, sr, c));
                }
            }
        }
        let chain = match best {
            Some((_, _, c)) => c.extend(&s),
            None => ChainSummary::leaf(&s),
        };

        if (s.op == 'F' || (s.op == 'B' && s.stage > 0))
            && self
                .inflight
                .insert((s.stage, s.replica, s.op, s.micro), chain.clone())
                .is_some()
        {
            self.counters.dup_op_keys += 1;
        }
        self.lanes
            .get_mut(&(s.stage, s.replica))
            .expect("lane created at pend time")
            .last_op = Some(chain.clone());

        let better = match &self.terminal {
            None => true,
            Some(t) => {
                s.end > t.end
                    || (s.end == t.end
                        && (s.stage, s.replica, s.micro) < (t.stage, t.replica, t.micro))
            }
        };
        if better {
            self.terminal = Some(Terminal {
                end: s.end,
                stage: s.stage,
                replica: s.replica,
                micro: s.micro,
                chain,
            });
        }

        // Amortized prune of never-consumed predecessors (last-stage
        // forwards, truncated streams) — the dependency table's memory
        // bound on endless streams.
        if self.cfg.prune_inflight_after.is_finite() && self.inflight.len() >= self.prune_watermark
        {
            let cutoff = s.start - self.cfg.prune_inflight_after;
            let before = self.inflight.len();
            self.inflight.retain(|_, c| c.end >= cutoff);
            self.counters.pruned_inflight += before - self.inflight.len();
            self.prune_watermark = (self.inflight.len() * 2).max(64);
        }
    }

    /// Merges two shards. Associative: any fold order over a set of
    /// shards yields the same finished report. Both sides' pending
    /// buffers are sealed first (safe because every lane's intervals
    /// live entirely on one shard, so each side folds its own lanes in
    /// their full sorted order).
    pub fn merge(mut self, mut other: PartialReport) -> PartialReport {
        self.seal();
        other.seal();

        self.makespan = self.makespan.max(other.makespan);
        self.pipeline_end = self.pipeline_end.max(other.pipeline_end);
        self.high_water = self.high_water.max(other.high_water);
        self.max_op_stage = self.max_op_stage.max(other.max_op_stage);
        self.seq += other.seq;
        self.frontier = match (self.frontier, other.frontier) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.transfer_seconds += other.transfer_seconds;
        for (k, v) in other.transfer_out {
            *self.transfer_out.entry(k).or_default() += v;
        }

        for (k, ls) in other.lanes {
            match self.lanes.entry(k) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(ls);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    // Impossible under canonical routing; counted and
                    // merged numerically so nothing is silently lost.
                    self.counters.lane_collisions += 1;
                    let mine = e.get_mut();
                    mine.ops += ls.ops;
                    mine.fold.forward += ls.fold.forward;
                    mine.fold.recompute += ls.fold.recompute;
                    mine.fold.backward += ls.fold.backward;
                    mine.fold.send += ls.fold.send;
                    mine.fold.allreduce += ls.fold.allreduce;
                    mine.fold.warmup += ls.fold.warmup;
                    mine.fold.stall += ls.fold.stall;
                    mine.fold.cursor = mine.fold.cursor.max(ls.fold.cursor);
                    mine.fold.pushes += ls.fold.pushes;
                    mine.fold.started = mine.fold.started || ls.fold.started;
                    if match (&mine.last_op, &ls.last_op) {
                        (None, Some(_)) => true,
                        (Some(a), Some(b)) => b.end > a.end,
                        _ => false,
                    } {
                        mine.last_op = ls.last_op;
                    }
                }
            }
        }

        // Every shard that saw a stage's allreduces built the same
        // synthetic candidate; keep the more complete one (left-biased),
        // which is associative because equal push-counts are identical.
        for (stage, sy) in other.synth {
            match self.synth.entry(stage) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(sy);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    if sy.pushes > e.get().pushes {
                        *e.get_mut() = sy;
                    }
                }
            }
        }
        for (stage, n) in other.folded_ars {
            let mine = self.folded_ars.entry(stage).or_default();
            *mine = (*mine).max(n);
        }

        for (k, c) in other.inflight {
            if self.inflight.insert(k, c).is_some() {
                self.counters.dup_op_keys += 1;
            }
        }

        self.terminal = match (self.terminal.take(), other.terminal) {
            (None, t) => t,
            (t, None) => t,
            (Some(a), Some(b)) => Some(
                if b.end > a.end
                    || (b.end == a.end
                        && (b.stage, b.replica, b.micro) < (a.stage, a.replica, a.micro))
                {
                    b
                } else {
                    a
                },
            ),
        };

        // Downtime: field-wise add (non-owning shards contribute exact
        // zeros under canonical routing).
        {
            let d = &mut self.downtime.d;
            let o = other.downtime.d;
            d.morphs += o.morphs;
            d.reconfigurations += o.reconfigurations;
            d.migrations += o.migrations;
            d.checkpoints += o.checkpoints;
            d.delta_checkpoints += o.delta_checkpoints;
            d.checkpoint_write_failures += o.checkpoint_write_failures;
            d.checkpoints_torn += o.checkpoints_torn;
            d.recovery_replays += o.recovery_replays;
            d.preemptions += o.preemptions;
            d.degraded_episodes += o.degraded_episodes;
            d.faults_injected += o.faults_injected;
            d.lost_minibatches += o.lost_minibatches;
            d.degraded_seconds += o.degraded_seconds;
            d.morph_restart_seconds += o.morph_restart_seconds;
            d.migration_seconds += o.migration_seconds;
            d.checkpoint_write_seconds += o.checkpoint_write_seconds;
            d.checkpoint_overlapped_seconds += o.checkpoint_overlapped_seconds;
            d.lost_work_seconds += o.lost_work_seconds;
            d.recovery_replay_seconds += o.recovery_replay_seconds;
            self.downtime.open_degraded =
                match (self.downtime.open_degraded, other.downtime.open_degraded) {
                    (Some(x), Some(y)) => {
                        self.counters.split_control += 1;
                        Some(x.max(y))
                    }
                    (x, y) => x.or(y),
                };
        }

        self.counters.absorb(&other.counters);
        self
    }

    /// Closes the stream at the current makespan and produces the full
    /// report. Byte-identical to `profile(&events)` over the same events
    /// whenever [`StreamCounters::violations`] is zero.
    pub fn into_report(mut self) -> ProfileReport {
        self.seal();
        let makespan = self.makespan;

        // Real lanes, plus each allreduce-only stage's synthetic
        // replica-0 lane.
        let mut all: BTreeMap<(usize, usize), (LaneFold, usize)> = self
            .lanes
            .into_iter()
            .map(|(k, ls)| (k, (ls.fold, ls.ops)))
            .collect();
        for (stage, sy) in self.synth {
            if all.range((stage, 0)..(stage + 1, 0)).next().is_none() {
                all.insert((stage, 0), (sy, 0));
            }
        }
        let lanes: Vec<LaneProfile> = all
            .into_iter()
            .map(|((stage, replica), (fold, ops))| fold.finish(stage, replica, ops, makespan))
            .collect();

        let critical_path = self
            .terminal
            .map(|t| t.chain.finish(t.end, self.max_op_stage));

        assemble_report(
            self.counters.events,
            makespan,
            self.pipeline_end,
            lanes,
            self.transfer_seconds,
            &self.transfer_out,
            critical_path,
            self.downtime.finish(makespan),
        )
    }

    /// Non-destructive [`PartialReport::into_report`] (clones the state;
    /// the live `--follow` surface calls this per poll).
    pub fn report(&self) -> ProfileReport {
        self.clone().into_report()
    }
}

/// Assembles finished lanes into a [`ProfileReport`]: per-stage
/// aggregation, straggler scores, and the bubble fraction, summed in
/// lane-sorted order.
#[allow(clippy::too_many_arguments)]
fn assemble_report(
    events: usize,
    makespan: f64,
    pipeline_end: f64,
    lanes: Vec<LaneProfile>,
    transfer_seconds: f64,
    transfer_out: &BTreeMap<usize, f64>,
    critical_path: Option<CriticalPath>,
    downtime: DowntimeProfile,
) -> ProfileReport {
    let mut stages: Vec<StageProfile> = Vec::new();
    let mut i = 0;
    while i < lanes.len() {
        let stage = lanes[i].stage;
        let mut j = i;
        while j < lanes.len() && lanes[j].stage == stage {
            j += 1;
        }
        let group = &lanes[i..j];
        let n = group.len() as f64;
        let busy_mean = group.iter().map(|l| l.busy()).sum::<f64>() / n;
        let busy_max = group.iter().map(|l| l.busy()).fold(0.0f64, f64::max);
        stages.push(StageProfile {
            stage,
            replicas: group.len(),
            compute: group.iter().map(|l| l.compute()).sum::<f64>() / n,
            send: group.iter().map(|l| l.send).sum::<f64>() / n,
            allreduce: group.iter().map(|l| l.allreduce).sum::<f64>() / n,
            warmup: group.iter().map(|l| l.warmup).sum::<f64>() / n,
            stall: group.iter().map(|l| l.stall).sum::<f64>() / n,
            drain: group.iter().map(|l| l.drain).sum::<f64>() / n,
            transfer_out: transfer_out.get(&stage).copied().unwrap_or(0.0),
            busy_mean,
            busy_max,
            straggler: if busy_mean > 0.0 {
                busy_max / busy_mean
            } else {
                0.0
            },
            utilization: if makespan > 0.0 {
                busy_mean / makespan
            } else {
                0.0
            },
        });
        i = j;
    }

    let bubble_fraction = if !lanes.is_empty() && makespan > 0.0 {
        lanes.iter().map(|l| l.bubble()).sum::<f64>() / (lanes.len() as f64 * makespan)
    } else {
        0.0
    };

    ProfileReport {
        schema: PROFILE_SCHEMA.to_string(),
        events,
        makespan,
        pipeline_end,
        lanes,
        stages,
        bubble_fraction,
        transfer_seconds,
        critical_path,
        downtime,
    }
}

/// Incremental profiler over one event stream (one shard).
///
/// Feed events with [`observe`](StreamingProfiler::observe) (or
/// [`observe_ghost`](StreamingProfiler::observe_ghost) for broadcast
/// copies this shard does not own), then take the [`PartialReport`] and
/// merge it with the other shards'. A single profiler observing the full
/// stream and sealed once is [`profile`](crate::profile()).
#[derive(Debug, Clone)]
pub struct StreamingProfiler {
    part: PartialReport,
}

impl Default for StreamingProfiler {
    fn default() -> Self {
        StreamingProfiler::new(StreamConfig::default())
    }
}

impl StreamingProfiler {
    /// A profiler with the given window/bounds configuration.
    pub fn new(cfg: StreamConfig) -> Self {
        StreamingProfiler {
            part: PartialReport::new(cfg),
        }
    }

    /// Consumes one owned event.
    pub fn observe(&mut self, e: &Event) {
        self.part.observe(e);
    }

    /// Consumes a broadcast (allreduce) event this shard does *not* own:
    /// the interval still attributes to this shard's lanes, but the
    /// event is not counted (the owning shard counts it once).
    pub fn observe_ghost(&mut self, e: &Event) {
        self.part.observe_ghost(e);
    }

    /// Resident state entries — bounded by the window, not the stream.
    pub fn resident(&self) -> usize {
        self.part.resident()
    }

    /// The streaming counters accumulated so far.
    pub fn counters(&self) -> &StreamCounters {
        self.part.counters()
    }

    /// Clones the current state as a mergeable partial.
    pub fn snapshot(&self) -> PartialReport {
        self.part.clone()
    }

    /// Consumes the profiler, yielding its partial.
    pub fn into_partial(self) -> PartialReport {
        self.part
    }

    /// The report as of now (non-destructive).
    pub fn report(&self) -> ProfileReport {
        self.part.report()
    }
}

/// An [`EventSink`] wrapping a shared [`StreamingProfiler`] — clone it
/// before boxing into a bus (or a [`ShardedSink`](crate::ShardedSink)
/// shard), then read the partial back through the clone.
///
/// Constructed with [`StreamSink::for_shard`], it resolves broadcast
/// ownership itself: allreduces whose [`allreduce_owner`] is another
/// shard are observed as ghosts.
#[derive(Debug, Clone)]
pub struct StreamSink {
    inner: Arc<Mutex<StreamingProfiler>>,
    cfg: StreamConfig,
    shard: usize,
    shards: usize,
}

impl StreamSink {
    /// A single-shard (full-stream) streaming sink.
    pub fn new(cfg: StreamConfig) -> Self {
        StreamSink::for_shard(0, 1, cfg)
    }

    /// The sink for shard `shard` of `shards`.
    pub fn for_shard(shard: usize, shards: usize, cfg: StreamConfig) -> Self {
        assert!(shard < shards, "shard index out of range");
        StreamSink {
            inner: Arc::new(Mutex::new(StreamingProfiler::new(cfg))),
            cfg,
            shard,
            shards,
        }
    }

    /// Takes the accumulated partial, leaving a fresh profiler behind.
    pub fn take_partial(&self) -> PartialReport {
        std::mem::replace(
            &mut *self.inner.lock().expect("stream sink lock"),
            StreamingProfiler::new(self.cfg),
        )
        .into_partial()
    }

    /// Clones the current partial without draining.
    pub fn snapshot(&self) -> PartialReport {
        self.inner.lock().expect("stream sink lock").snapshot()
    }

    /// Current resident-state entries.
    pub fn resident(&self) -> usize {
        self.inner.lock().expect("stream sink lock").resident()
    }
}

impl Default for StreamSink {
    fn default() -> Self {
        StreamSink::new(StreamConfig::default())
    }
}

impl EventSink for StreamSink {
    fn record(&mut self, event: &Event) {
        let mut p = self.inner.lock().expect("stream sink lock");
        match &event.kind {
            EventKind::Allreduce { stage, .. } => {
                if allreduce_owner(*stage, self.shards) == self.shard {
                    p.observe(event);
                } else {
                    p.observe_ghost(event);
                }
            }
            _ => p.observe(event),
        }
    }
}

/// Merges per-shard partials in shard order (a convenience left fold —
/// any grouping gives the same report).
pub fn merge_partials(parts: Vec<PartialReport>) -> Option<PartialReport> {
    let mut it = parts.into_iter();
    let first = it.next()?;
    Some(it.fold(first, PartialReport::merge))
}

/// Spawns the live HTTP surface: a std-only `TcpListener` serving the
/// shared partial's current state as JSON. Routes:
///
/// - `/report` — the full [`ProfileReport`]
/// - `/downtime` — just the downtime profile
/// - `/counters` — the [`StreamCounters`]
/// - `/healthz` — liveness
///
/// Returns the bound address (bind to port 0 for an ephemeral port). The
/// accept loop runs on a detached thread for the life of the process.
///
/// # Errors
///
/// Propagates bind failures.
pub fn spawn_http(addr: &str, state: Arc<Mutex<PartialReport>>) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                let _ = serve_one(stream, &state);
            });
        }
    });
    Ok(local)
}

fn serve_one(stream: TcpStream, state: &Mutex<PartialReport>) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers so the client can reuse well-formed HTTP.
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, body) = match path {
        "/report" => {
            let body = state.lock().expect("http state lock").report().to_json();
            ("200 OK", body)
        }
        "/downtime" => {
            let report = state.lock().expect("http state lock").report();
            let mut body =
                serde_json::to_string_pretty(&report.downtime).expect("downtime serializes");
            body.push('\n');
            ("200 OK", body)
        }
        "/counters" => {
            let mut body =
                serde_json::to_string_pretty(state.lock().expect("http state lock").counters())
                    .expect("counters serialize");
            body.push('\n');
            ("200 OK", body)
        }
        "/healthz" => ("200 OK", "{\"ok\": true}\n".to_string()),
        _ => ("404 Not Found", "{\"error\": \"not found\"}\n".to_string()),
    };
    let mut stream = reader.into_inner();
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile;

    fn op(stage: usize, replica: usize, op: char, micro: usize, start: f64, end: f64) -> Event {
        Event::exec(
            end,
            EventKind::OpEnd {
                stage,
                replica,
                op,
                micro,
                start,
            },
        )
    }

    #[test]
    fn allreduce_only_stage_gets_a_synthetic_lane() {
        let events = vec![Event::exec(
            2.0,
            EventKind::Allreduce {
                stage: 3,
                bytes: 1e9,
                ring: 4,
                seconds: 0.5,
            },
        )];
        let r = profile(&events);
        assert_eq!(r.lanes.len(), 1);
        assert_eq!((r.lanes[0].stage, r.lanes[0].replica), (3, 0));
        assert_eq!(r.lanes[0].allreduce, 0.5);
    }

    #[test]
    fn sharded_merge_matches_the_sealed_profile() {
        let mut events = Vec::new();
        for r in 0..3usize {
            for m in 0..4usize {
                let t0 = m as f64 + r as f64 * 0.125;
                events.push(op(0, r, 'F', m, t0, t0 + 0.5));
                events.push(op(1, r, 'F', m, t0 + 0.5, t0 + 1.0));
                events.push(op(1, r, 'B', m, t0 + 1.0, t0 + 1.5));
                events.push(op(0, r, 'B', m, t0 + 1.5, t0 + 2.0));
            }
        }
        events.push(Event::exec(
            8.0,
            EventKind::Allreduce {
                stage: 0,
                bytes: 1e9,
                ring: 3,
                seconds: 0.5,
            },
        ));
        events.push(Event::exec(
            8.25,
            EventKind::Allreduce {
                stage: 1,
                bytes: 1e9,
                ring: 3,
                seconds: 0.25,
            },
        ));
        events.push(Event::manager(
            9.0,
            EventKind::DegradedEnter {
                gpus: 0,
                reason: "spot crunch".into(),
            },
        ));

        for shards in [1usize, 2, 3, 5] {
            let mut sinks: Vec<StreamSink> = (0..shards)
                .map(|k| StreamSink::for_shard(k, shards, StreamConfig::default()))
                .collect();
            for e in &events {
                match crate::bus::shard_route(e, shards) {
                    crate::bus::ShardRoute::One(k) => sinks[k].record(e),
                    crate::bus::ShardRoute::Broadcast => {
                        for s in &mut sinks {
                            s.record(e);
                        }
                    }
                }
            }
            let parts: Vec<PartialReport> = sinks.iter().map(|s| s.take_partial()).collect();
            let merged = merge_partials(parts).unwrap();
            assert_eq!(merged.counters().violations(), 0, "shards={shards}");
            assert_eq!(
                merged.into_report().to_json(),
                profile(&events).to_json(),
                "shards={shards}"
            );
        }
    }

    #[test]
    fn merge_is_associative_on_the_report() {
        let mk = |r: usize| {
            let mut p = StreamingProfiler::default();
            for m in 0..3usize {
                let t0 = m as f64;
                p.observe(&op(0, r, 'F', m, t0, t0 + 0.5));
                p.observe(&op(0, r, 'B', m, t0 + 0.5, t0 + 1.0));
            }
            p.into_partial()
        };
        let (a, b, c) = (mk(0), mk(1), mk(2));
        let left = a.clone().merge(b.clone()).merge(c.clone());
        let right = a.merge(b.merge(c));
        assert_eq!(left.into_report().to_json(), right.into_report().to_json());
    }

    #[test]
    fn finite_window_bounds_pending_and_stays_exact_on_ordered_streams() {
        let mut events = Vec::new();
        for m in 0..200usize {
            let t0 = m as f64 * 0.5;
            events.push(op(0, 0, 'F', m, t0, t0 + 0.25));
        }
        let mut p = StreamingProfiler::new(StreamConfig::windowed(2.0, usize::MAX));
        for e in &events {
            p.observe(e);
        }
        let peak = p.counters().peak_pending;
        assert!(peak <= 8, "window must bound pending, got {peak}");
        assert_eq!(p.counters().violations(), 0);
        assert_eq!(
            p.into_partial().into_report().to_json(),
            profile(&events).to_json()
        );
    }

    #[test]
    fn intermediate_partials_keep_the_identities() {
        let events = vec![
            op(0, 0, 'F', 0, 0.0, 1.0),
            op(1, 0, 'F', 0, 1.0, 2.0),
            op(1, 0, 'B', 0, 2.0, 3.0),
            op(0, 0, 'B', 0, 3.0, 4.0),
        ];
        let mut p = StreamingProfiler::default();
        for e in &events {
            p.observe(e);
            let r = p.report();
            for lane in &r.lanes {
                assert!(
                    (lane.total() - r.makespan).abs() <= 1e-9 * r.makespan.max(1.0),
                    "intermediate lane identity"
                );
            }
            let dt = &r.downtime;
            assert!(
                (dt.useful_seconds + dt.downtime_seconds() - r.makespan).abs()
                    <= 1e-9 * r.makespan.max(1.0),
                "intermediate downtime identity"
            );
        }
    }

    #[test]
    fn late_events_are_counted_not_silent() {
        let mut p = StreamingProfiler::new(StreamConfig::windowed(1.0, usize::MAX));
        p.observe(&op(0, 0, 'F', 0, 0.0, 0.5));
        p.observe(&op(0, 0, 'F', 1, 5.0, 5.5)); // folds the first
        p.observe(&op(0, 0, 'F', 2, 10.0, 10.5)); // folds the second
        p.observe(&op(0, 0, 'F', 3, 1.0, 1.5)); // behind the frontier
        assert_eq!(p.counters().late_events, 1);
        assert!(p.counters().violations() > 0);
    }

    #[test]
    fn http_surface_serves_report_and_downtime() {
        let mut p = StreamingProfiler::default();
        p.observe(&op(0, 0, 'F', 0, 0.0, 1.0));
        let state = Arc::new(Mutex::new(p.snapshot()));
        let addr = spawn_http("127.0.0.1:0", Arc::clone(&state)).unwrap();

        let get = |path: &str| -> (String, String) {
            let mut s = TcpStream::connect(addr).unwrap();
            write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut buf = String::new();
            use std::io::Read;
            s.read_to_string(&mut buf).unwrap();
            let (head, body) = buf.split_once("\r\n\r\n").unwrap();
            (head.to_string(), body.to_string())
        };

        let (head, body) = get("/report");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let report: ProfileReport = serde_json::from_str(&body).unwrap();
        assert_eq!(report.events, 1);
        let (head, _) = get("/downtime");
        assert!(head.starts_with("HTTP/1.1 200"));
        let (head, body) = get("/healthz");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert!(body.contains("ok"));
        let (head, _) = get("/nope");
        assert!(head.starts_with("HTTP/1.1 404"));
    }
}
