//! The structured event model shared by every subsystem.

use serde::{Deserialize, Serialize};

/// Which subsystem emitted an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Source {
    /// The discrete-event execution emulator (`varuna-exec`).
    Exec,
    /// The spot-VM cluster substrate (`varuna-cluster`).
    Cluster,
    /// The manager / morph controller (`varuna` core).
    Manager,
    /// The miniature training engine (`varuna-train`).
    Train,
    /// A benchmark harness binary (`varuna-bench`).
    Bench,
    /// The fault injector (`varuna-chaos`).
    Chaos,
    /// The multi-job fleet control plane (`varuna-fleet`).
    Fleet,
    /// Control-plane crash recovery (WAL replay in `varuna` core /
    /// `varuna-fleet`).
    Recovery,
}

/// What happened, with the payload inline.
///
/// Op events carry the one-letter op code of
/// `varuna_exec::op::OpKind::code` (`'F'`/`'R'`/`'B'`) rather than the
/// enum itself: `varuna-exec` depends on this crate, so the event model
/// stays at the bottom of the crate graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A GPU op was dispatched.
    OpStart {
        /// Pipeline stage.
        stage: usize,
        /// Data-parallel replica.
        replica: usize,
        /// Op code: `'F'`, `'R'`, or `'B'`.
        op: char,
        /// Micro-batch index.
        micro: usize,
    },
    /// A GPU op completed. `t_sim` is the end time.
    OpEnd {
        /// Pipeline stage.
        stage: usize,
        /// Data-parallel replica.
        replica: usize,
        /// Op code: `'F'`, `'R'`, or `'B'`.
        op: char,
        /// Micro-batch index.
        micro: usize,
        /// When the op started, seconds.
        start: f64,
    },
    /// An inter-stage activation or gradient message was sent.
    Transfer {
        /// Sending stage.
        from_stage: usize,
        /// Receiving stage.
        to_stage: usize,
        /// Data-parallel replica the message belongs to.
        replica: usize,
        /// Micro-batch index.
        micro: usize,
        /// Message size, bytes.
        bytes: f64,
        /// Delivery delay (latency + jitter + serialization), seconds.
        seconds: f64,
    },
    /// A sender GPU is busy serializing an outgoing message (emitted only
    /// under blocking sends, where communication does not overlap
    /// compute). `t_sim` is when the send starts; the GPU is occupied for
    /// `seconds`. Together with `OpEnd` this makes every GPU-busy interval
    /// visible, so the profiler can classify idle gaps exactly.
    SendBusy {
        /// Sending stage.
        stage: usize,
        /// Data-parallel replica.
        replica: usize,
        /// Micro-batch index of the message.
        micro: usize,
        /// Serialization time the sender is blocked for, seconds.
        seconds: f64,
    },
    /// A per-stage data-parallel gradient allreduce finished. `t_sim` is
    /// the completion time.
    Allreduce {
        /// Pipeline stage.
        stage: usize,
        /// Gradient bytes reduced.
        bytes: f64,
        /// Ring size (data-parallel width).
        ring: usize,
        /// Duration, seconds.
        seconds: f64,
    },
    /// The cloud preempted a VM.
    Preemption {
        /// The preempted VM.
        vm: u64,
    },
    /// A VM went silent past the heartbeat timeout (presumed preempted).
    HeartbeatMiss {
        /// The silent VM.
        vm: u64,
    },
    /// The manager reconfigured (or re-placed) the job. Self-contained so
    /// a timeline can be derived from the event stream alone.
    Morph {
        /// New pipeline depth.
        p: usize,
        /// New data-parallel width.
        d: usize,
        /// GPUs granted by the cloud at this point.
        gpus_held: usize,
        /// GPUs the configuration uses (`p * d`).
        gpus_used: usize,
        /// Training throughput, examples/sec.
        examples_per_sec: f64,
        /// Per-GPU throughput over the GPUs in use.
        examples_per_sec_per_gpu: f64,
        /// `true` when the `P x D` shape changed; `false` for a
        /// same-shape replacement (the paper's `p` markers).
        reconfigured: bool,
        /// Fixed restart overhead charged for this transition (process
        /// restart, NCCL re-setup, resume), seconds. Zero when the
        /// transition is a live stage migration. Lost work is priced
        /// separately by the accompanying `LostWork` event, so the two
        /// never double-count.
        restart_seconds: f64,
        /// Seconds spent streaming one stage's state to a replacement VM
        /// while the rest of the pipeline drains in place. Non-zero only
        /// for a same-shape replacement under live migration, and
        /// exclusive with `restart_seconds`.
        migration_seconds: f64,
    },
    /// A periodic checkpoint completed (paper §4.5).
    Checkpoint {
        /// Mini-batch step at the checkpoint.
        step: u64,
        /// GPUs granted by the cloud at this point.
        gpus_held: usize,
        /// GPUs the configuration uses.
        gpus_used: usize,
        /// Active pipeline depth.
        p: usize,
        /// Active data-parallel width.
        d: usize,
        /// Training throughput, examples/sec.
        examples_per_sec: f64,
        /// Per-GPU throughput over the GPUs in use.
        examples_per_sec_per_gpu: f64,
        /// Foreground pause for the sharded local-SSD write, seconds
        /// (the checkpoint policy's cost model). Under overlapped writes
        /// this is only the background lane's back-pressure.
        write_seconds: f64,
        /// Seconds of the write hidden behind compute on the background
        /// lane — informational, never priced as downtime (zero when
        /// writes are foreground-only).
        overlapped_seconds: f64,
        /// Whether the write carried full state (`false` for a delta
        /// against the last full checkpoint).
        full: bool,
    },
    /// A configuration was rejected because a stage does not fit GPU
    /// memory.
    OomKill {
        /// The stage that does not fit (0 when unknown).
        stage: usize,
        /// Bytes the stage needs.
        needed_bytes: f64,
        /// Bytes available.
        capacity_bytes: f64,
        /// Human-readable context.
        what: String,
    },
    /// One real training mini-batch finished (`varuna-train`).
    EpochLoss {
        /// Mini-batch step (after this batch).
        step: u64,
        /// Mean loss over the mini-batch.
        loss: f64,
        /// Examples per wall-clock second for this batch.
        examples_per_sec: f64,
    },
    /// The cloud announced an upcoming preemption of a VM (the spot
    /// eviction notice some providers send ahead of the kill).
    EvictionNotice {
        /// The VM about to be preempted.
        vm: u64,
        /// Seconds of warning before the preemption lands.
        lead_seconds: f64,
    },
    /// A VM stopped sending heartbeats while still holding its grant
    /// (network partition / heartbeat loss — possibly a false positive).
    SilenceStart {
        /// The VM that went quiet.
        vm: u64,
    },
    /// A silent VM resumed sending heartbeats.
    SilenceEnd {
        /// The VM that recovered.
        vm: u64,
    },
    /// A periodic checkpoint write failed (storage outage); the durable
    /// resume point did not advance.
    CheckpointWriteFailed {
        /// The mini-batch step the failed checkpoint would have covered.
        step: u64,
    },
    /// The manager fell back to an older durable checkpoint because the
    /// newest one was lost or corrupt.
    CheckpointFallback {
        /// Durable step before the fallback.
        from_step: u64,
        /// Durable step after the fallback.
        to_step: u64,
    },
    /// The manager excluded a VM from scheduling after its grace window
    /// expired (fail-stutter outlier or sustained heartbeat silence).
    VmExcluded {
        /// The excluded VM.
        vm: u64,
        /// Consecutive bad observations that triggered the exclusion.
        consecutive_misses: u32,
    },
    /// A previously excluded VM was re-admitted after recovering.
    VmReadmitted {
        /// The re-admitted VM.
        vm: u64,
    },
    /// A morph planning attempt failed; the manager will retry after a
    /// backoff delay.
    MorphRetry {
        /// 1-based attempt number within the current degraded episode.
        attempt: u32,
        /// Seconds until the next retry.
        backoff_seconds: f64,
        /// GPUs that were available for the failed attempt.
        gpus: usize,
    },
    /// Capacity fell below the minimum feasible configuration; training
    /// is paused, not failed.
    DegradedEnter {
        /// GPUs available when the job degraded.
        gpus: usize,
        /// Why the last planning attempt failed.
        reason: String,
    },
    /// Capacity returned and planning succeeded; training resumes.
    DegradedExit {
        /// GPUs available at recovery.
        gpus: usize,
        /// Seconds spent paused in the degraded state.
        paused_seconds: f64,
    },
    /// Work lost to a restart was priced into downtime (re-run from the
    /// durable checkpoint).
    LostWork {
        /// Mini-batches that must be re-run.
        minibatches: u64,
        /// Seconds of re-run time charged.
        seconds: f64,
    },
    /// A simulator-in-the-loop planning event completed (one morph's
    /// candidate search). Carries only deterministic counters — plan
    /// wall-clock latency lives in the metrics registry, never in the
    /// event stream, so same-seed replays stay byte-identical.
    PlanSearch {
        /// Candidates the sweep produced.
        candidates: u64,
        /// Candidates scored by a fresh emulation.
        simulated: u64,
        /// Candidates served from the memo table.
        memo_hits: u64,
        /// Candidates left on their analytic estimate (budget exhausted
        /// or emulator error).
        analytic_fallbacks: u64,
    },
    /// The fleet arbiter (re)allocated shared-market capacity to one job.
    /// Emitted once per job per arbitration round, so the full allocation
    /// vector can be rebuilt from the stream.
    FleetAllocation {
        /// The job the allocation applies to.
        job: u64,
        /// Spot GPUs leased to the job after this round.
        spot_gpus: usize,
        /// On-demand fallback GPUs provisioned for the job.
        on_demand_gpus: usize,
        /// Total spot GPUs the shared market held at this instant.
        market_gpus: usize,
    },
    /// The arbiter revoked spot capacity from a job — preemption of the
    /// preemptible, ahead of (and instead of) a market eviction.
    JobPreempted {
        /// The job losing capacity.
        job: u64,
        /// Spot GPUs revoked by this decision.
        gpus_revoked: usize,
        /// Short machine-readable reason (e.g. `"fair_share"`,
        /// `"starvation_boost"`).
        reason: String,
    },
    /// The provisioner topped a job up with on-demand capacity because its
    /// throughput floor (or deadline) was at risk on spot alone.
    FallbackProvisioned {
        /// The job being topped up.
        job: u64,
        /// On-demand GPUs added by this decision.
        gpus: usize,
        /// On-demand GPUs the job holds after this decision.
        total_on_demand: usize,
    },
    /// A checkpoint write was torn: the process died (or the volume
    /// vanished) mid-write, leaving fewer bytes on disk than the full
    /// state needs. Distinct from `CheckpointWriteFailed` (nothing
    /// written, durable point simply does not advance) and from a later
    /// corruption — a torn write is detected at resume validation and
    /// forces a `CheckpointFallback` to the previous durable step.
    CheckpointTorn {
        /// The durable step whose checkpoint proved torn.
        step: u64,
        /// Bytes actually on disk.
        bytes_written: u64,
        /// Bytes a complete checkpoint needs.
        bytes_expected: u64,
    },
    /// The control plane restarted and rebuilt its state by replaying a
    /// write-ahead log prefix. `t_sim` is the crash point; the replay
    /// itself is priced as downtime (`replay_seconds`).
    RecoveryReplay {
        /// WAL records replayed to rebuild state.
        wal_records: u64,
        /// Whether the log ended in a torn (checksum-failing) frame that
        /// recovery truncated.
        torn: bool,
        /// Bytes dropped by torn-frame truncation.
        dropped_bytes: u64,
        /// Modeled wall-clock cost of the replay, seconds.
        replay_seconds: f64,
    },
    /// The chaos harness injected a fault into a trace replay.
    FaultInjected {
        /// Short machine-readable fault label (e.g. `"preemption_burst"`).
        fault: String,
        /// The VM the fault targets (`u64::MAX` when not VM-specific).
        vm: u64,
    },
}

/// The highest pipeline stage index an imported capture may name.
///
/// The profiler keeps per-stage state indexed by stage, so the importers
/// ([`events_from_jsonl`](crate::events_from_jsonl),
/// [`events_from_chrome_trace`](crate::events_from_chrome_trace)) reject
/// an event naming a deeper stage instead of sizing that state to it.
/// The deepest model in the zoo has 100 layers, one stage each at most.
pub const MAX_STAGE: usize = 4096;

impl EventKind {
    /// The deepest pipeline stage the event names (0 for kinds that name
    /// none).
    fn max_stage(&self) -> usize {
        match self {
            EventKind::OpStart { stage, .. }
            | EventKind::OpEnd { stage, .. }
            | EventKind::SendBusy { stage, .. }
            | EventKind::Allreduce { stage, .. }
            | EventKind::OomKill { stage, .. } => *stage,
            EventKind::Transfer {
                from_stage,
                to_stage,
                ..
            } => (*from_stage).max(*to_stage),
            _ => 0,
        }
    }
}

/// One timestamped observation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Simulation (or wall-clock, for `varuna-train`) time in seconds.
    pub t_sim: f64,
    /// Emitting subsystem.
    pub source: Source,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// An event from the execution emulator.
    pub fn exec(t_sim: f64, kind: EventKind) -> Self {
        Event {
            t_sim,
            source: Source::Exec,
            kind,
        }
    }

    /// An event from the cluster substrate.
    pub fn cluster(t_sim: f64, kind: EventKind) -> Self {
        Event {
            t_sim,
            source: Source::Cluster,
            kind,
        }
    }

    /// An event from the manager.
    pub fn manager(t_sim: f64, kind: EventKind) -> Self {
        Event {
            t_sim,
            source: Source::Manager,
            kind,
        }
    }

    /// An event from the training engine.
    pub fn train(t_sim: f64, kind: EventKind) -> Self {
        Event {
            t_sim,
            source: Source::Train,
            kind,
        }
    }

    /// An event from the fault injector.
    pub fn chaos(t_sim: f64, kind: EventKind) -> Self {
        Event {
            t_sim,
            source: Source::Chaos,
            kind,
        }
    }

    /// An event from the fleet control plane.
    pub fn fleet(t_sim: f64, kind: EventKind) -> Self {
        Event {
            t_sim,
            source: Source::Fleet,
            kind,
        }
    }

    /// An event from control-plane crash recovery.
    pub fn recovery(t_sim: f64, kind: EventKind) -> Self {
        Event {
            t_sim,
            source: Source::Recovery,
            kind,
        }
    }

    /// The importers' bound check: passes the event through unless it
    /// names a stage deeper than [`MAX_STAGE`].
    pub(crate) fn within_bounds(self) -> Result<Self, String> {
        let stage = self.kind.max_stage();
        if stage > MAX_STAGE {
            return Err(format!("stage {stage} exceeds MAX_STAGE ({MAX_STAGE})"));
        }
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_json() {
        let events = vec![
            Event::exec(
                1.25,
                EventKind::OpEnd {
                    stage: 3,
                    replica: 1,
                    op: 'B',
                    micro: 7,
                    start: 1.0,
                },
            ),
            Event::exec(
                2.5,
                EventKind::SendBusy {
                    stage: 3,
                    replica: 1,
                    micro: 7,
                    seconds: 0.125,
                },
            ),
            Event::cluster(60.0, EventKind::Preemption { vm: 42 }),
            Event::manager(
                3600.0,
                EventKind::Morph {
                    p: 9,
                    d: 8,
                    gpus_held: 80,
                    gpus_used: 72,
                    examples_per_sec: 120.5,
                    examples_per_sec_per_gpu: 1.67,
                    reconfigured: true,
                    restart_seconds: 60.0,
                    migration_seconds: 0.0,
                },
            ),
            Event::manager(
                7200.0,
                EventKind::Checkpoint {
                    step: 1600,
                    gpus_held: 80,
                    gpus_used: 72,
                    p: 9,
                    d: 8,
                    examples_per_sec: 120.5,
                    examples_per_sec_per_gpu: 1.67,
                    write_seconds: 0.55,
                    overlapped_seconds: 0.12,
                    full: true,
                },
            ),
            Event::train(
                2.0,
                EventKind::EpochLoss {
                    step: 5,
                    loss: 3.5,
                    examples_per_sec: 4.0,
                },
            ),
        ];
        for e in events {
            let json = serde_json::to_string(&e).unwrap();
            let back: Event = serde_json::from_str(&json).unwrap();
            assert_eq!(e, back, "round trip failed for {json}");
        }
    }

    #[test]
    fn fault_and_recovery_events_round_trip() {
        let events = vec![
            Event::cluster(
                10.0,
                EventKind::EvictionNotice {
                    vm: 3,
                    lead_seconds: 30.0,
                },
            ),
            Event::cluster(11.0, EventKind::SilenceStart { vm: 9 }),
            Event::cluster(12.0, EventKind::SilenceEnd { vm: 9 }),
            Event::manager(13.0, EventKind::CheckpointWriteFailed { step: 48 }),
            Event::manager(
                14.0,
                EventKind::CheckpointFallback {
                    from_step: 48,
                    to_step: 32,
                },
            ),
            Event::manager(
                15.0,
                EventKind::VmExcluded {
                    vm: 9,
                    consecutive_misses: 3,
                },
            ),
            Event::manager(16.0, EventKind::VmReadmitted { vm: 9 }),
            Event::manager(
                17.0,
                EventKind::MorphRetry {
                    attempt: 2,
                    backoff_seconds: 60.0,
                    gpus: 4,
                },
            ),
            Event::manager(
                18.0,
                EventKind::DegradedEnter {
                    gpus: 4,
                    reason: "no feasible depth".into(),
                },
            ),
            Event::manager(
                19.0,
                EventKind::DegradedExit {
                    gpus: 40,
                    paused_seconds: 3600.0,
                },
            ),
            Event::manager(
                20.0,
                EventKind::LostWork {
                    minibatches: 7,
                    seconds: 91.0,
                },
            ),
            Event::chaos(
                21.0,
                EventKind::FaultInjected {
                    fault: "preemption_burst".into(),
                    vm: u64::MAX,
                },
            ),
            Event::fleet(
                22.5,
                EventKind::FleetAllocation {
                    job: 3,
                    spot_gpus: 24,
                    on_demand_gpus: 4,
                    market_gpus: 120,
                },
            ),
            Event::fleet(
                22.6,
                EventKind::JobPreempted {
                    job: 7,
                    gpus_revoked: 8,
                    reason: "fair_share".into(),
                },
            ),
            Event::fleet(
                22.7,
                EventKind::FallbackProvisioned {
                    job: 3,
                    gpus: 4,
                    total_on_demand: 4,
                },
            ),
            Event::manager(
                23.0,
                EventKind::CheckpointTorn {
                    step: 48,
                    bytes_written: 1_000,
                    bytes_expected: 4_000,
                },
            ),
            Event::recovery(
                24.0,
                EventKind::RecoveryReplay {
                    wal_records: 37,
                    torn: true,
                    dropped_bytes: 11,
                    replay_seconds: 0.074,
                },
            ),
            Event::manager(
                22.0,
                EventKind::PlanSearch {
                    candidates: 12,
                    simulated: 5,
                    memo_hits: 6,
                    analytic_fallbacks: 1,
                },
            ),
        ];
        for e in events {
            let json = serde_json::to_string(&e).unwrap();
            let back: Event = serde_json::from_str(&json).unwrap();
            assert_eq!(e, back, "round trip failed for {json}");
        }
    }

    #[test]
    fn oom_kill_carries_context() {
        let e = Event::exec(
            0.0,
            EventKind::OomKill {
                stage: 2,
                needed_bytes: 20e9,
                capacity_bytes: 16e9,
                what: "PipeDream stage".to_string(),
            },
        );
        let json = serde_json::to_string(&e).unwrap();
        assert!(json.contains("PipeDream stage"));
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }
}
