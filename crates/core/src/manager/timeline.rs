//! Timeline samples (Figure 8) and the recovery machine's states.

use serde::{Deserialize, Serialize};
use varuna_obs::{Event, EventKind};

/// What happened at a timeline point.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimelineEvent {
    /// The job reconfigured to a new `P x D` shape.
    Morph {
        /// New pipeline depth.
        p: usize,
        /// New data-parallel width.
        d: usize,
    },
    /// Capacity changed but the best shape did not (the paper's `p`
    /// markers: a preempted VM was replaced).
    Replacement,
    /// A periodic checkpoint (the paper's throughput spikes).
    Checkpoint,
}

/// One sample of the dynamic training timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelinePoint {
    /// Hours since job start.
    pub t_hours: f64,
    /// GPUs currently granted by the cloud.
    pub gpus_held: usize,
    /// GPUs the active configuration actually uses (`P x D`).
    pub gpus_used: usize,
    /// Active pipeline depth.
    pub p: usize,
    /// Active data-parallel width.
    pub d: usize,
    /// Training throughput at this point, examples/sec (0 during
    /// reconfiguration downtime).
    pub ex_per_sec: f64,
    /// Per-GPU throughput over the GPUs in use.
    pub ex_per_sec_per_gpu: f64,
    /// What this sample marks.
    pub event: TimelineEvent,
}

impl TimelinePoint {
    /// The timeline sample a manager event marks, if any: one `Morph` or
    /// `Checkpoint` event becomes exactly one point, and every other kind
    /// none. Both kinds carry their full context (held/used GPUs, shape,
    /// throughputs), so the Figure 8 timeline is a stateless view over
    /// the event stream.
    pub fn from_event(event: &Event) -> Option<TimelinePoint> {
        let t_hours = event.t_sim / 3600.0;
        match event.kind {
            EventKind::Morph {
                p,
                d,
                gpus_held,
                gpus_used,
                examples_per_sec,
                examples_per_sec_per_gpu,
                reconfigured,
                ..
            } => Some(TimelinePoint {
                t_hours,
                gpus_held,
                gpus_used,
                p,
                d,
                ex_per_sec: examples_per_sec,
                ex_per_sec_per_gpu: examples_per_sec_per_gpu,
                event: if reconfigured {
                    TimelineEvent::Morph { p, d }
                } else {
                    TimelineEvent::Replacement
                },
            }),
            EventKind::Checkpoint {
                gpus_held,
                gpus_used,
                p,
                d,
                examples_per_sec,
                examples_per_sec_per_gpu,
                ..
            } => Some(TimelinePoint {
                t_hours,
                gpus_held,
                gpus_used,
                p,
                d,
                ex_per_sec: examples_per_sec,
                ex_per_sec_per_gpu: examples_per_sec_per_gpu,
                event: TimelineEvent::Checkpoint,
            }),
            _ => None,
        }
    }
}

/// Where the manager's recovery machine currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ManagerState {
    /// A configuration is active and training progresses.
    Running,
    /// No feasible configuration: the job is paused and replanning
    /// retries follow the morph backoff schedule.
    Degraded,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_morph_and_checkpoint_events_are_points() {
        let events = [
            Event::manager(3600.0, EventKind::Preemption { vm: 4 }),
            Event::manager(
                3600.0,
                EventKind::Morph {
                    p: 7,
                    d: 5,
                    gpus_held: 40,
                    gpus_used: 35,
                    examples_per_sec: 20.0,
                    examples_per_sec_per_gpu: 20.0 / 35.0,
                    reconfigured: true,
                    restart_seconds: 60.0,
                    migration_seconds: 0.0,
                },
            ),
            Event::manager(
                7200.0,
                EventKind::Morph {
                    p: 7,
                    d: 5,
                    gpus_held: 41,
                    gpus_used: 35,
                    examples_per_sec: 20.0,
                    examples_per_sec_per_gpu: 20.0 / 35.0,
                    reconfigured: false,
                    restart_seconds: 0.0,
                    migration_seconds: 1.0,
                },
            ),
            Event::manager(
                9000.0,
                EventKind::Checkpoint {
                    step: 1000,
                    gpus_held: 41,
                    gpus_used: 35,
                    p: 7,
                    d: 5,
                    examples_per_sec: 20.0,
                    examples_per_sec_per_gpu: 20.0 / 35.0,
                    write_seconds: 0.5,
                    overlapped_seconds: 0.0,
                    full: true,
                },
            ),
        ];
        let timeline: Vec<TimelinePoint> = events
            .iter()
            .filter_map(TimelinePoint::from_event)
            .collect();
        assert_eq!(timeline.len(), 3, "preemption events are not points");
        assert_eq!(timeline[0].t_hours, 1.0);
        assert_eq!(timeline[0].event, TimelineEvent::Morph { p: 7, d: 5 });
        assert_eq!(timeline[1].event, TimelineEvent::Replacement);
        assert_eq!(timeline[2].event, TimelineEvent::Checkpoint);
        assert_eq!(timeline[2].t_hours, 2.5);
        assert_eq!(timeline[2].gpus_held, 41);
    }
}
