//! The fleet's combined write-ahead log.
//!
//! One shared, sequence-numbered log multiplexes every externally-visible
//! fleet control decision — arbiter allocations, preemptions, on-demand
//! fallback provisioning — with each job manager's own plan-attempt
//! records ([`varuna::WalRecord`]), tagged by job index. Killing the
//! fleet control plane at any record boundary and recovering from the
//! surviving prefix reproduces the uninterrupted run exactly, because
//! [`crate::sim::run_fleet_walled`] replays pending records instead of
//! recomputing them and the loop itself is deterministic.

use serde::{Deserialize, Serialize};
use varuna::wal::{is_plan_attempt_record, Wal};
use varuna::{WalIo, WalRecord};
use varuna_obs::{Event, EventKind};

/// One fleet control decision, logged before its event is emitted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FleetWalRecord {
    /// The arbiter settled a job's capacity (logged when it changed).
    Allocation {
        /// Decision time, hours since trace start.
        t_hours: f64,
        /// Job index in submission order.
        job: u64,
        /// Spot GPUs leased to the job.
        spot_gpus: usize,
        /// On-demand GPUs provisioned for the job.
        on_demand_gpus: usize,
        /// Instantaneous market capacity, GPUs.
        market_gpus: usize,
    },
    /// A job lost GPUs to the market or an arbiter revocation.
    Preempted {
        /// Decision time, hours since trace start.
        t_hours: f64,
        /// Job index in submission order.
        job: u64,
        /// GPUs revoked in this episode.
        gpus_revoked: usize,
        /// Why: `market`, `fair_share`, or `starvation_boost`.
        reason: String,
    },
    /// On-demand fallback topped a job up toward its floor.
    Fallback {
        /// Decision time, hours since trace start.
        t_hours: f64,
        /// Job index in submission order.
        job: u64,
        /// GPUs added by this provisioning step.
        gpus: usize,
        /// Total on-demand GPUs the job now holds.
        total_on_demand: usize,
    },
    /// One job-manager plan-attempt record, tagged with its job.
    Job {
        /// Job index in submission order.
        job: u64,
        /// The manager's own decision record.
        rec: WalRecord,
    },
}

impl FleetWalRecord {
    /// The decision's timestamp, hours since trace start.
    pub fn t_hours(&self) -> f64 {
        match self {
            FleetWalRecord::Allocation { t_hours, .. }
            | FleetWalRecord::Preempted { t_hours, .. }
            | FleetWalRecord::Fallback { t_hours, .. } => *t_hours,
            FleetWalRecord::Job { rec, .. } => rec.t_hours(),
        }
    }

    /// The fleet event this decision stands for, or `None` for a job
    /// record — its event ([`WalRecord::event`]) belongs on that job's
    /// own bus, emitted by the job's manager.
    pub fn event(&self) -> Option<Event> {
        let kind = match *self {
            FleetWalRecord::Allocation {
                job,
                spot_gpus,
                on_demand_gpus,
                market_gpus,
                ..
            } => EventKind::FleetAllocation {
                job,
                spot_gpus,
                on_demand_gpus,
                market_gpus,
            },
            FleetWalRecord::Preempted {
                job,
                gpus_revoked,
                ref reason,
                ..
            } => EventKind::JobPreempted {
                job,
                gpus_revoked,
                reason: reason.clone(),
            },
            FleetWalRecord::Fallback {
                job,
                gpus,
                total_on_demand,
                ..
            } => EventKind::FallbackProvisioned {
                job,
                gpus,
                total_on_demand,
            },
            FleetWalRecord::Job { .. } => return None,
        };
        Some(Event::fleet(self.t_hours() * 3600.0, kind))
    }
}

/// The fleet control plane's write-ahead log.
pub type FleetWal = Wal<FleetWalRecord>;

/// A per-job [`WalIo`] view into the combined fleet log for one plan
/// attempt at `t_hours`: replay consumes only this job's plan-attempt
/// records logged at that time, and appended decisions are wrapped in
/// [`FleetWalRecord::Job`] so many jobs interleave into one shared
/// sequence. A live append while records are still pending is a
/// divergence ([`Wal::check`]).
pub struct JobWalView<'w> {
    /// The shared fleet log.
    pub wal: &'w mut FleetWal,
    /// The job this view belongs to.
    pub job: u64,
    /// The attempt's decision time, hours.
    pub t_hours: f64,
}

impl WalIo for JobWalView<'_> {
    fn replay_next_attempt(&mut self) -> Option<WalRecord> {
        let (job, t) = (self.job, self.t_hours);
        match self.wal.replay_next_if(|r| {
            matches!(r, FleetWalRecord::Job { job: j, rec }
                if *j == job && is_plan_attempt_record(rec) && rec.t_hours() == t)
        })? {
            FleetWalRecord::Job { rec, .. } => Some(rec),
            _ => None,
        }
    }

    fn append_record(&mut self, record: WalRecord) {
        self.wal.append(FleetWalRecord::Job {
            job: self.job,
            rec: record,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(t: f64, job: u64) -> FleetWalRecord {
        FleetWalRecord::Allocation {
            t_hours: t,
            job,
            spot_gpus: 4,
            on_demand_gpus: 0,
            market_gpus: 8,
        }
    }

    #[test]
    fn fleet_records_round_trip_through_bytes() {
        let mut wal = FleetWal::new();
        wal.append(alloc(0.0, 0));
        wal.append(FleetWalRecord::Job {
            job: 1,
            rec: WalRecord::LostWork {
                t_hours: 0.5,
                minibatches: 3,
                seconds: 12.0,
            },
        });
        wal.append(FleetWalRecord::Preempted {
            t_hours: 1.0,
            job: 0,
            gpus_revoked: 2,
            reason: "market".to_string(),
        });
        let loaded = FleetWal::from_bytes(&wal.to_bytes()).unwrap();
        assert_eq!(loaded.records(), wal.records());
        assert!(loaded.torn().is_none());
    }

    #[test]
    fn job_view_replays_only_its_own_attempt_records() {
        let mut wal = FleetWal::new();
        let lost = |job| FleetWalRecord::Job {
            job,
            rec: WalRecord::LostWork {
                t_hours: 0.25,
                minibatches: 1,
                seconds: 4.0,
            },
        };
        wal.append(lost(0));
        wal.append(lost(1));
        let mut wal = FleetWal::from_bytes(&wal.to_bytes()).unwrap();

        // Job 1's view does not consume job 0's pending record.
        assert!(JobWalView {
            wal: &mut wal,
            job: 1,
            t_hours: 0.25,
        }
        .replay_next_attempt()
        .is_none());
        assert!(JobWalView {
            wal: &mut wal,
            job: 0,
            t_hours: 0.25,
        }
        .replay_next_attempt()
        .is_some());
        assert!(JobWalView {
            wal: &mut wal,
            job: 1,
            t_hours: 0.25,
        }
        .replay_next_attempt()
        .is_some());
        assert_eq!(wal.remaining(), 0);
    }

    #[test]
    fn job_view_appends_tagged_records() {
        let mut wal = FleetWal::new();
        JobWalView {
            wal: &mut wal,
            job: 7,
            t_hours: 2.0,
        }
        .append_record(WalRecord::DegradedEnter {
            t_hours: 2.0,
            gpus: 0,
            reason: "test".to_string(),
        });
        assert!(
            matches!(wal.records(), [FleetWalRecord::Job { job: 7, .. }]),
            "{:?}",
            wal.records()
        );
        assert!((wal.records()[0].t_hours() - 2.0).abs() < 1e-12);
    }
}
