//! Time attribution over an [`Event`] stream: the report types.
//!
//! [`profile`] consumes any capture of the event bus — an in-memory
//! [`VecSink`](crate::VecSink) buffer, a JSONL file, or an imported
//! chrome trace — and answers the question the paper's analysis sections
//! keep asking: *where did the time go?* Every GPU lane (one `(stage,
//! replica)` pair) gets its wall-clock decomposed into
//!
//! - **compute** — forward / recompute / backward durations from `OpEnd`,
//! - **send** — sender-blocked serialization from `SendBusy` (emitted
//!   only under blocking sends),
//! - **allreduce** — the per-stage data-parallel gradient reduction,
//! - **bubble** — idle gaps, classified as *warmup* (before the lane's
//!   first busy interval), *dependency stall* (between busy intervals),
//!   or *drain* (after the last busy interval, waiting for the rest of
//!   the pipeline and the sync tail).
//!
//! The components of every lane sum to the stream's makespan exactly (one
//! cursor sweep over the sorted busy intervals; overlaps are clipped), so
//! nothing is lost or double-counted — the property the proptest suite
//! pins. On top of the lanes sit a critical-path pass that names the
//! bottleneck stage, per-stage straggler scores (max/mean busy over
//! replicas), and — for manager / spot-trace streams — downtime
//! accounting that prices morph restarts, checkpoint writes, degraded
//! pauses, and lost work (see [`crate::attrib`]).
//!
//! There is one attribution engine, [`crate::stream`]: [`profile`] feeds
//! a [`StreamingProfiler`] every event and seals it once. This module
//! holds the report it produces, the per-op span view ([`spans`]) and the
//! JSONL decoder.

use serde::{Deserialize, Serialize};

use crate::attrib::{CriticalPath, DowntimeProfile};
use crate::event::{Event, EventKind};
use crate::stream::StreamingProfiler;

/// Schema tag stamped into every [`ProfileReport`].
pub const PROFILE_SCHEMA: &str = "varuna-profile/v1";

/// One op interval rebuilt from an `OpEnd` event: the workspace's only
/// span type, behind the Gantt charts, the Figure 7 CSV and the profiler.
///
/// The op is the one-letter code (`'F'`/`'R'`/`'B'`) of
/// `varuna_sched::op::OpKind::code` because `varuna-obs` sits below the
/// scheduling layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProfileSpan {
    /// Pipeline stage.
    pub stage: usize,
    /// Data-parallel replica.
    pub replica: usize,
    /// Op code: `'F'`, `'R'`, or `'B'`.
    pub op: char,
    /// Micro-batch index.
    pub micro: usize,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
}

impl ProfileSpan {
    /// Duration of the span, seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Extracts op spans from a stream, in event-arrival order.
///
/// Only `OpEnd` events are consulted (they carry the full interval;
/// `OpStart` is redundant and may have been filtered out, as the chrome
/// exporter does). The emulator emits `OpEnd` as each op finishes, so on
/// a captured emulator stream this is completion order — the row order
/// of the Figure 7 CSV.
pub fn spans(events: &[Event]) -> Vec<ProfileSpan> {
    events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::OpEnd {
                stage,
                replica,
                op,
                micro,
                start,
            } => Some(ProfileSpan {
                stage: *stage,
                replica: *replica,
                op: *op,
                micro: *micro,
                start: *start,
                end: e.t_sim,
            }),
            _ => None,
        })
        .collect()
}

/// Wall-clock decomposition of one GPU lane (`(stage, replica)`).
///
/// `warmup + forward + recompute + backward + send + allreduce + stall +
/// drain` equals the report's makespan exactly: the lane's time is fully
/// attributed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LaneProfile {
    /// Pipeline stage.
    pub stage: usize,
    /// Data-parallel replica.
    pub replica: usize,
    /// Seconds in forward ops.
    pub forward: f64,
    /// Seconds in recompute ops.
    pub recompute: f64,
    /// Seconds in backward ops.
    pub backward: f64,
    /// Seconds the GPU was blocked serializing sends (blocking sends
    /// only; zero when communication overlaps compute).
    pub send: f64,
    /// Seconds in the data-parallel gradient allreduce.
    pub allreduce: f64,
    /// Idle seconds before the lane's first busy interval (pipeline
    /// fill).
    pub warmup: f64,
    /// Idle seconds between busy intervals (dependency stalls: waiting
    /// for activations, gradients, or jittered neighbors).
    pub stall: f64,
    /// Idle seconds after the lane's last busy interval (pipeline drain
    /// plus the sync tail of other stages).
    pub drain: f64,
    /// Ops executed on this lane.
    pub ops: usize,
}

impl LaneProfile {
    /// Compute seconds (forward + recompute + backward).
    pub fn compute(&self) -> f64 {
        self.forward + self.recompute + self.backward
    }

    /// Busy seconds (compute + send + allreduce).
    pub fn busy(&self) -> f64 {
        self.compute() + self.send + self.allreduce
    }

    /// Bubble seconds (warmup + stall + drain).
    pub fn bubble(&self) -> f64 {
        self.warmup + self.stall + self.drain
    }

    /// All components summed — equals the report makespan by
    /// construction (modulo float rounding).
    pub fn total(&self) -> f64 {
        self.busy() + self.bubble()
    }
}

/// Per-stage aggregation over the stage's replica lanes.
///
/// Time fields are means over the stage's lanes (per-GPU seconds), so
/// the sum-to-makespan identity survives aggregation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageProfile {
    /// Pipeline stage.
    pub stage: usize,
    /// Lanes (replicas) observed for this stage.
    pub replicas: usize,
    /// Mean compute seconds per lane.
    pub compute: f64,
    /// Mean send-blocked seconds per lane.
    pub send: f64,
    /// Mean allreduce seconds per lane.
    pub allreduce: f64,
    /// Mean warmup seconds per lane.
    pub warmup: f64,
    /// Mean dependency-stall seconds per lane.
    pub stall: f64,
    /// Mean drain seconds per lane.
    pub drain: f64,
    /// Seconds of outbound inter-stage transfer attributed to this stage
    /// (informational: transfers overlap compute unless sends block, so
    /// this is *not* part of the sum-to-makespan identity).
    pub transfer_out: f64,
    /// Mean busy seconds over the stage's lanes.
    pub busy_mean: f64,
    /// Max busy seconds over the stage's lanes.
    pub busy_max: f64,
    /// Straggler score: `busy_max / busy_mean` (1.0 = perfectly
    /// balanced replicas; 0.0 when the stage never ran).
    pub straggler: f64,
    /// `busy_mean / makespan` (0.0 for an empty stream).
    pub utilization: f64,
}

impl StageProfile {
    /// Mean bubble seconds per lane.
    pub fn bubble(&self) -> f64 {
        self.warmup + self.stall + self.drain
    }
}

/// The full time-attribution report for one event stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Schema tag ([`PROFILE_SCHEMA`]).
    pub schema: String,
    /// Events consumed.
    pub events: usize,
    /// Stream makespan: the latest time touched by any event (op end,
    /// allreduce end, send end, or control-plane timestamp), seconds.
    pub makespan: f64,
    /// End of the pipeline phase: the last `OpEnd`, seconds (0 for
    /// streams with no ops, e.g. a pure manager replay).
    pub pipeline_end: f64,
    /// Per-lane decompositions, sorted by `(stage, replica)`.
    pub lanes: Vec<LaneProfile>,
    /// Per-stage aggregates, sorted by stage.
    pub stages: Vec<StageProfile>,
    /// Mean bubble fraction over all lanes:
    /// `sum(lane bubble) / (lanes * makespan)`.
    pub bubble_fraction: f64,
    /// Total inter-stage transfer seconds observed (informational; see
    /// [`StageProfile::transfer_out`]).
    pub transfer_seconds: f64,
    /// Critical-path pass over the op dependency graph (`None` when the
    /// stream has no ops).
    pub critical_path: Option<CriticalPath>,
    /// Downtime accounting over manager / cluster events.
    pub downtime: DowntimeProfile,
}

impl ProfileReport {
    /// The critical path's bottleneck stage, if any ops were profiled.
    pub fn bottleneck_stage(&self) -> Option<usize> {
        self.critical_path.as_ref().map(|c| c.bottleneck_stage)
    }

    /// Pretty JSON rendering (stable field order; what `varuna-profile`
    /// writes and the fig7 golden test pins).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("reports always serialize");
        s.push('\n');
        s
    }

    /// A per-stage utilization summary table (the `varuna-profile` CLI
    /// output), aligned, one row per stage.
    pub fn stage_table(&self) -> String {
        self.stage_table_top(None)
    }

    /// Like [`ProfileReport::stage_table`] but truncated to the `top`
    /// busiest stages (by `busy_mean`) when `top` is `Some` — the CLI's
    /// `--top N`. Rows keep stage order; a trailing line notes how many
    /// stages were elided.
    pub fn stage_table_top(&self, top: Option<usize>) -> String {
        let keep: Vec<&StageProfile> = match top {
            Some(n) if n < self.stages.len() => {
                let mut by_busy: Vec<&StageProfile> = self.stages.iter().collect();
                by_busy.sort_by(|a, b| {
                    b.busy_mean
                        .total_cmp(&a.busy_mean)
                        .then(a.stage.cmp(&b.stage))
                });
                let mut keep: Vec<&StageProfile> = by_busy.into_iter().take(n).collect();
                keep.sort_by_key(|s| s.stage);
                keep
            }
            _ => self.stages.iter().collect(),
        };
        let elided = self.stages.len() - keep.len();
        let mut out = String::new();
        out.push_str(&format!(
            "{:>5} {:>4} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8} {:>9}\n",
            "stage",
            "reps",
            "compute_s",
            "send_s",
            "allred_s",
            "warmup_s",
            "stall_s",
            "drain_s",
            "util",
            "straggler"
        ));
        for s in keep {
            out.push_str(&format!(
                "{:>5} {:>4} {:>12.6} {:>10.6} {:>10.6} {:>10.6} {:>10.6} {:>10.6} {:>7.1}% {:>9.3}\n",
                s.stage,
                s.replicas,
                s.compute,
                s.send,
                s.allreduce,
                s.warmup,
                s.stall,
                s.drain,
                s.utilization * 100.0,
                s.straggler
            ));
        }
        if elided > 0 {
            out.push_str(&format!("... {elided} more stage(s) elided\n"));
        }
        out
    }
}

/// Profiles an event stream into a [`ProfileReport`]: one
/// [`StreamingProfiler`] fed every event in order and sealed once.
///
/// The stream may come from any sink. Each lane's intervals are folded in
/// `(start, end)` order, not arrival order, so a `VecSink` capture and its
/// JSONL round trip profile identically.
pub fn profile(events: &[Event]) -> ProfileReport {
    let mut profiler = StreamingProfiler::default();
    for e in events {
        profiler.observe(e);
    }
    profiler.into_partial().into_report()
}

/// Decodes one JSONL capture line (as written by
/// [`JsonlSink`](crate::JsonlSink)) into an event. The one decoder behind
/// [`events_from_jsonl`] and `varuna-profile --follow`.
///
/// # Errors
///
/// A line that is not an `Event`, or whose event names a stage beyond
/// [`MAX_STAGE`](crate::MAX_STAGE), is an error.
pub fn event_from_jsonl(line: &str) -> Result<Event, String> {
    serde_json::from_str::<Event>(line)
        .map_err(|err| err.to_string())?
        .within_bounds()
}

/// Parses a JSONL capture (one `Event` per line, as written by
/// [`JsonlSink`](crate::JsonlSink)) back into events.
///
/// # Errors
///
/// Returns the 1-based line number and error of the first line
/// [`event_from_jsonl`] rejects.
pub fn events_from_jsonl(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        events.push(event_from_jsonl(line).map_err(|err| format!("line {}: {err}", i + 1))?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn empty_stream_profiles_to_zeroes() {
        let r = profile(&[]);
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.pipeline_end, 0.0);
        assert!(r.lanes.is_empty());
        assert!(r.stages.is_empty());
        assert_eq!(r.bubble_fraction, 0.0);
        assert!(r.critical_path.is_none());
        assert_eq!(r.schema, PROFILE_SCHEMA);
    }

    #[test]
    fn lane_components_sum_to_makespan() {
        // Two stages, one replica: a classic 2-deep pipeline with gaps.
        let events = vec![
            op(0, 0, 'F', 0, 0.0, 1.0),
            op(0, 0, 'F', 1, 1.0, 2.0),
            op(1, 0, 'F', 0, 1.5, 2.5),
            op(1, 0, 'B', 0, 2.5, 4.5),
            op(0, 0, 'B', 0, 5.0, 7.0),
        ];
        let r = profile(&events);
        assert_eq!(r.makespan, 7.0);
        assert_eq!(r.lanes.len(), 2);
        for lane in &r.lanes {
            assert!(
                (lane.total() - r.makespan).abs() < 1e-9,
                "lane ({}, {}) sums to {} not {}",
                lane.stage,
                lane.replica,
                lane.total(),
                r.makespan
            );
        }
        // Stage 0: F 2s, B 2s, stall 3s (2..5), drain 0, warmup 0.
        let s0 = &r.lanes[0];
        assert_eq!(s0.forward, 2.0);
        assert_eq!(s0.backward, 2.0);
        assert_eq!(s0.warmup, 0.0);
        assert_eq!(s0.stall, 3.0);
        assert_eq!(s0.drain, 0.0);
        // Stage 1: warmup 1.5, F 1s, B 2s, drain 2.5 (4.5..7).
        let s1 = &r.lanes[1];
        assert_eq!(s1.warmup, 1.5);
        assert_eq!(s1.stall, 0.0);
        assert_eq!(s1.drain, 2.5);
    }

    #[test]
    fn allreduce_and_sends_are_attributed() {
        let events = vec![
            op(0, 0, 'F', 0, 0.0, 1.0),
            Event::exec(
                1.0,
                EventKind::SendBusy {
                    stage: 0,
                    replica: 0,
                    micro: 0,
                    seconds: 0.5,
                },
            ),
            op(0, 0, 'B', 0, 2.0, 3.0),
            Event::exec(
                4.0,
                EventKind::Allreduce {
                    stage: 0,
                    bytes: 1e9,
                    ring: 2,
                    seconds: 0.75,
                },
            ),
        ];
        let r = profile(&events);
        assert_eq!(r.makespan, 4.0);
        let lane = &r.lanes[0];
        assert_eq!(lane.send, 0.5);
        assert_eq!(lane.allreduce, 0.75);
        // Gaps: 1.5..2.0 stall, 3.0..3.25 stall; no drain (allreduce
        // ends at makespan).
        assert!((lane.stall - 0.75).abs() < 1e-9, "stall {}", lane.stall);
        assert_eq!(lane.drain, 0.0);
        assert!((lane.total() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn overlapping_intervals_are_clipped_not_double_counted() {
        // A send that overlaps the allreduce window: attribution clips.
        let events = vec![
            op(1, 0, 'B', 0, 0.0, 1.0),
            Event::exec(
                1.0,
                EventKind::SendBusy {
                    stage: 1,
                    replica: 0,
                    micro: 0,
                    seconds: 1.0,
                },
            ),
            Event::exec(
                2.5,
                EventKind::Allreduce {
                    stage: 1,
                    bytes: 1e9,
                    ring: 2,
                    seconds: 1.5, // starts at 1.0, overlapping the send
                },
            ),
        ];
        let r = profile(&events);
        let lane = &r.lanes[0];
        assert!((lane.total() - r.makespan).abs() < 1e-9);
        assert_eq!(lane.send, 1.0);
        assert!((lane.allreduce - 0.5).abs() < 1e-9, "clipped to 2.0..2.5");
    }

    #[test]
    fn straggler_score_flags_the_slow_replica() {
        let events = vec![
            op(0, 0, 'F', 0, 0.0, 1.0),
            op(0, 1, 'F', 0, 0.0, 3.0), // replica 1 is 3x slower
        ];
        let r = profile(&events);
        assert_eq!(r.stages.len(), 1);
        let s = &r.stages[0];
        assert_eq!(s.replicas, 2);
        assert!((s.busy_mean - 2.0).abs() < 1e-9);
        assert!((s.busy_max - 3.0).abs() < 1e-9);
        assert!((s.straggler - 1.5).abs() < 1e-9);
    }

    #[test]
    fn spans_match_arrival_order() {
        let events = vec![
            op(1, 0, 'F', 1, 1.0, 2.0),
            op(0, 0, 'F', 0, 0.0, 1.0), // out of time order on purpose
        ];
        let s = spans(&events);
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].stage, s[0].micro), (1, 1));
        assert_eq!((s[1].stage, s[1].micro), (0, 0));
    }

    #[test]
    fn jsonl_round_trip_profiles_identically() {
        let events = vec![
            op(0, 0, 'F', 0, 0.0, 1.25),
            op(0, 0, 'B', 0, 1.25, 3.5),
            Event::exec(
                4.0,
                EventKind::Allreduce {
                    stage: 0,
                    bytes: 0.123456789e9,
                    ring: 4,
                    seconds: 0.5,
                },
            ),
        ];
        let jsonl: String = events
            .iter()
            .map(|e| serde_json::to_string(e).unwrap() + "\n")
            .collect();
        let back = events_from_jsonl(&jsonl).unwrap();
        assert_eq!(profile(&events), profile(&back));
    }

    #[test]
    fn bad_jsonl_reports_the_line() {
        let err = events_from_jsonl("{\"nope\": 1}").unwrap_err();
        assert!(err.starts_with("line 1"), "{err}");
    }

    #[test]
    fn stage_table_has_one_row_per_stage() {
        let events = vec![op(0, 0, 'F', 0, 0.0, 1.0), op(1, 0, 'F', 0, 1.0, 2.0)];
        let table = profile(&events).stage_table();
        assert_eq!(table.lines().count(), 3, "header + 2 stages:\n{table}");
        assert!(table.contains("straggler"));
    }
}
