//! Replayable cluster event traces.
//!
//! Every morphing experiment is driven by a trace of VM grants and
//! preemptions. Traces can be generated from the [`crate::spot`] market
//! (stochastic but seeded) or scripted by hand, and serialize to JSON so an
//! exact run can be replayed.

use serde::{Deserialize, Serialize};
use varuna_obs::{Event, EventBus, EventKind};

use crate::error::ClusterError;
use crate::spot::SpotMarket;

/// What happened to a VM.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ClusterEventKind {
    /// The cloud granted us a VM with this many GPUs.
    Granted {
        /// GPUs on the granted VM.
        gpus: usize,
    },
    /// The cloud preempted a VM we held.
    Preempted,
    /// The VM began fail-stutter behavior: its compute slowed by `factor`
    /// (paper §4.6: "often by as much as 30%"). Detected by the manager
    /// through heartbeat timing outliers.
    StutterStart {
        /// Compute slowdown factor (> 1.0).
        factor: f64,
    },
    /// The VM recovered to full speed.
    StutterEnd,
    /// The cloud announced the VM will be preempted `lead_hours` from now
    /// (the advance eviction notice some spot markets send). The manager
    /// can use the warning to checkpoint proactively.
    EvictionNotice {
        /// Hours of warning before the preemption lands.
        lead_hours: f64,
    },
    /// The VM stopped sending heartbeats while still holding its grant
    /// (network partition / heartbeat loss). From the manager's viewpoint
    /// this is indistinguishable from a preemption until either the grace
    /// window expires or heartbeats resume.
    SilenceStart,
    /// The silent VM resumed sending heartbeats.
    SilenceEnd,
    /// Checkpoint storage became unreachable: checkpoint writes fail until
    /// the matching [`ClusterEventKind::StorageOutageEnd`]. The `vm` field
    /// of the carrying event is ignored.
    StorageOutageStart,
    /// Checkpoint storage recovered.
    StorageOutageEnd,
    /// The most recent durable checkpoint turned out stale or corrupt; a
    /// resume must fall back to the previous durable one. The `vm` field
    /// of the carrying event is ignored.
    CheckpointCorrupt,
    /// The most recent checkpoint write stopped short mid-write (writer
    /// died or its volume vanished): only `fraction` of the payload
    /// landed. Distinct from [`ClusterEventKind::CheckpointCorrupt`] —
    /// the bytes that landed are fine, there are just not enough of
    /// them — but the consequence is the same fallback to the previous
    /// durable checkpoint. The `vm` field of the carrying event is
    /// ignored.
    CheckpointTorn {
        /// Fraction of the payload that landed, in `[0, 1)`.
        fraction: f64,
    },
    /// The newest *delta* checkpoint stopped short mid-write. Only
    /// meaningful under a delta-checkpointing policy: the torn frame is
    /// detected (never silently restored) and the durable point falls
    /// back to the delta's anchoring full checkpoint, not a whole
    /// interval. The `vm` field of the carrying event is ignored.
    DeltaTorn {
        /// Fraction of the delta payload that landed, in `[0, 1)`.
        fraction: f64,
    },
}

/// One timestamped cluster event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterEvent {
    /// Time in hours since trace start.
    pub time_hours: f64,
    /// VM identifier, unique within the trace.
    pub vm: u64,
    /// What happened.
    pub kind: ClusterEventKind,
}

/// A time-ordered sequence of cluster events.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClusterTrace {
    /// Events sorted by time.
    pub events: Vec<ClusterEvent>,
    /// Total duration covered by the trace, hours.
    pub duration_hours: f64,
}

impl ClusterTrace {
    /// Generates a trace by running a job that greedily holds up to
    /// `target_gpus` worth of 1-GPU spot VMs against a seeded market for
    /// `hours`, polling every `poll_minutes`.
    ///
    /// This is the workload of the paper's Figure 8: the manager
    /// "periodically keeps trying to grow the cluster" while the market
    /// preempts VMs as background demand rises.
    ///
    /// The trace is empty (covering `hours`) when the pool has no hosts or
    /// when `hours / poll_minutes` is not a finite number of polls: an
    /// infinite horizon, or a zero or NaN poll interval.
    pub fn generate_spot_1gpu(
        hosts: usize,
        target_gpus: usize,
        hours: f64,
        poll_minutes: f64,
        seed: u64,
    ) -> Self {
        let dt = poll_minutes / 60.0;
        let steps = (hours / dt).ceil();
        // A zero-host pool can neither grant nor preempt, and a step count
        // that is not finite cannot be walked (as a `usize` it would
        // saturate to `usize::MAX` polls): the honest trace for both is an
        // empty one, which downstream replay handles gracefully.
        let mut market = match SpotMarket::new(hosts, seed) {
            Ok(market) if steps.is_finite() => market,
            _ => {
                return ClusterTrace {
                    events: Vec::new(),
                    duration_hours: hours,
                }
            }
        };
        let steps = steps as usize;
        let mut events = Vec::new();
        let mut next_vm: u64 = 0;
        // Host -> list of (vm id) we hold there, to map preemptions back.
        let mut held: Vec<Vec<u64>> = vec![Vec::new(); hosts];
        // Fail-stutter injection: a held VM goes ~30% slow for a while.
        use rand::{Rng, SeedableRng};
        let mut stutter_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x57A7);
        let mut stuttering: Option<(u64, usize)> = None; // (vm, steps left)

        for step in 0..steps {
            let t = step as f64 * dt;
            // Resolve or start stutter episodes (~one VM slow at a time,
            // episodes of ~1h, starting with ~2%/poll probability).
            match &mut stuttering {
                Some((vm, left)) => {
                    *left -= 1;
                    if *left == 0 {
                        events.push(ClusterEvent {
                            time_hours: t,
                            vm: *vm,
                            kind: ClusterEventKind::StutterEnd,
                        });
                        stuttering = None;
                    }
                }
                None => {
                    if stutter_rng.gen_bool(0.02) {
                        if let Some(vm) = held.iter().flat_map(|v| v.iter()).copied().next() {
                            let episode = (1.0 / dt).ceil() as usize;
                            events.push(ClusterEvent {
                                time_hours: t,
                                vm,
                                kind: ClusterEventKind::StutterStart { factor: 1.3 },
                            });
                            stuttering = Some((vm, episode.max(1)));
                        }
                    }
                }
            }
            // Background demand moves first; it may preempt us.
            for p in market.step(dt) {
                for _ in 0..p.gpus {
                    if let Some(vm) = held[p.host].pop() {
                        if stuttering.map(|(sv, _)| sv) == Some(vm) {
                            stuttering = None;
                        }
                        events.push(ClusterEvent {
                            time_hours: t,
                            vm,
                            kind: ClusterEventKind::Preempted,
                        });
                    }
                }
            }
            // Then we try to grow back to target.
            while market.held() < target_gpus {
                match market.request_1gpu() {
                    Some(h) => {
                        let vm = next_vm;
                        next_vm += 1;
                        held[h].push(vm);
                        events.push(ClusterEvent {
                            time_hours: t,
                            vm,
                            kind: ClusterEventKind::Granted { gpus: 1 },
                        });
                    }
                    None => break,
                }
            }
        }
        ClusterTrace {
            events,
            duration_hours: hours,
        }
    }

    /// A scripted trace from explicit `(time_hours, vm, kind)` triples.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidConfig`] if the events are not
    /// time-ordered or any timestamp is non-finite.
    pub fn scripted(events: Vec<ClusterEvent>, duration_hours: f64) -> Result<Self, ClusterError> {
        if let Some(e) = events.iter().find(|e| !e.time_hours.is_finite()) {
            return Err(ClusterError::InvalidConfig(format!(
                "trace timestamps must be finite, got {} for vm {}",
                e.time_hours, e.vm
            )));
        }
        for w in events.windows(2) {
            if w[0].time_hours > w[1].time_hours {
                return Err(ClusterError::InvalidConfig(format!(
                    "trace must be time-ordered: {} follows {}",
                    w[1].time_hours, w[0].time_hours
                )));
            }
        }
        Ok(ClusterTrace {
            events,
            duration_hours,
        })
    }

    /// Merges traces into one, shifting each by its offset (hours) before
    /// concatenating — the way fleet benches synthesize correlated
    /// multi-day, multi-job spot markets from the existing single-job
    /// traces.
    ///
    /// VM ids are renumbered so different parts never collide (each part's
    /// ids land after every id of the parts before it); the `u64::MAX`
    /// sentinel used by storage-fault events is preserved as-is. Events
    /// are stably sorted by shifted timestamp, so ties keep part order,
    /// and the merged duration covers the farthest-reaching part.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidConfig`] for a negative or
    /// non-finite offset.
    pub fn merge_shifted(parts: &[(f64, &ClusterTrace)]) -> Result<Self, ClusterError> {
        for (off, _) in parts {
            if !(off.is_finite() && *off >= 0.0) {
                return Err(ClusterError::InvalidConfig(format!(
                    "merge offset must be finite and >= 0, got {off}"
                )));
            }
        }
        let mut events = Vec::new();
        let mut duration_hours: f64 = 0.0;
        let mut vm_base: u64 = 0;
        for (off, part) in parts {
            let mut next_base = vm_base;
            for e in &part.events {
                let vm = if e.vm == u64::MAX {
                    u64::MAX
                } else {
                    next_base = next_base.max(vm_base + e.vm + 1);
                    vm_base + e.vm
                };
                events.push(ClusterEvent {
                    time_hours: e.time_hours + off,
                    vm,
                    kind: e.kind,
                });
            }
            vm_base = next_base;
            duration_hours = duration_hours.max(off + part.duration_hours);
        }
        events.sort_by(|a, b| a.time_hours.total_cmp(&b.time_hours));
        Ok(ClusterTrace {
            events,
            duration_hours,
        })
    }

    /// Number of GPUs held at time `t` (after applying all events ≤ `t`).
    pub fn gpus_at(&self, t: f64) -> usize {
        let mut held: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for e in &self.events {
            if e.time_hours > t {
                break;
            }
            match e.kind {
                ClusterEventKind::Granted { gpus } => {
                    held.insert(e.vm, gpus);
                }
                ClusterEventKind::Preempted => {
                    held.remove(&e.vm);
                }
                // Health and storage faults do not change what the cloud
                // has granted — only what the manager can schedule on.
                _ => {}
            }
        }
        held.values().sum()
    }

    /// Count of preemption events in the trace.
    pub fn preemptions(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, ClusterEventKind::Preempted))
            .count()
    }

    /// Reports every preemption in the trace as a
    /// [`EventKind::Preemption`] on `bus` (source `Cluster`, `t_sim` in
    /// seconds since trace start).
    pub fn emit_preemptions(&self, bus: &mut EventBus) {
        for e in &self.events {
            if matches!(e.kind, ClusterEventKind::Preempted) {
                bus.emit_with(|| {
                    Event::cluster(e.time_hours * 3600.0, EventKind::Preemption { vm: e.vm })
                });
            }
        }
    }

    /// Serializes the trace to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trace serialization cannot fail")
    }

    /// Parses a trace from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_trace_is_time_ordered_and_reproducible() {
        let a = ClusterTrace::generate_spot_1gpu(60, 100, 8.0, 5.0, 13);
        let b = ClusterTrace::generate_spot_1gpu(60, 100, 8.0, 5.0, 13);
        assert_eq!(a, b);
        for w in a.events.windows(2) {
            assert!(w[0].time_hours <= w[1].time_hours);
        }
        assert!(!a.events.is_empty());
    }

    #[test]
    fn long_trace_contains_preemptions_and_regrowth() {
        let t = ClusterTrace::generate_spot_1gpu(60, 120, 60.0, 5.0, 21);
        assert!(t.preemptions() > 5, "60h of spot should see preemptions");
        // The job should hold a meaningful number of GPUs most of the time.
        let samples = [5.0, 15.0, 25.0, 35.0, 45.0, 55.0];
        let min = samples.iter().map(|&t0| t.gpus_at(t0)).min().unwrap();
        let max = samples.iter().map(|&t0| t.gpus_at(t0)).max().unwrap();
        assert!(min > 0, "cluster dropped to zero GPUs");
        assert!(max > min, "trace shows no capacity variation");
    }

    #[test]
    fn gpus_at_applies_grants_and_preemptions() {
        let t = ClusterTrace::scripted(
            vec![
                ClusterEvent {
                    time_hours: 0.0,
                    vm: 0,
                    kind: ClusterEventKind::Granted { gpus: 4 },
                },
                ClusterEvent {
                    time_hours: 1.0,
                    vm: 1,
                    kind: ClusterEventKind::Granted { gpus: 1 },
                },
                ClusterEvent {
                    time_hours: 2.0,
                    vm: 0,
                    kind: ClusterEventKind::Preempted,
                },
            ],
            3.0,
        )
        .unwrap();
        assert_eq!(t.gpus_at(0.5), 4);
        assert_eq!(t.gpus_at(1.5), 5);
        assert_eq!(t.gpus_at(2.5), 1);
    }

    #[test]
    fn emit_preemptions_mirrors_trace_events() {
        use varuna_obs::{EventBus, EventKind, Source, VecSink};
        let t = ClusterTrace::generate_spot_1gpu(60, 120, 60.0, 5.0, 21);
        let sink = VecSink::new();
        let mut bus = EventBus::with_sink(Box::new(sink.clone()));
        t.emit_preemptions(&mut bus);
        let events = sink.take();
        assert_eq!(events.len(), t.preemptions());
        for e in &events {
            assert_eq!(e.source, Source::Cluster);
            assert!(matches!(e.kind, EventKind::Preemption { .. }));
            assert!(e.t_sim <= t.duration_hours * 3600.0);
        }
    }

    #[test]
    fn json_round_trip() {
        let t = ClusterTrace::generate_spot_1gpu(20, 30, 2.0, 10.0, 5);
        let j = t.to_json();
        let back = ClusterTrace::from_json(&j).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn unordered_scripted_trace_is_a_typed_error() {
        let r = ClusterTrace::scripted(
            vec![
                ClusterEvent {
                    time_hours: 1.0,
                    vm: 0,
                    kind: ClusterEventKind::Preempted,
                },
                ClusterEvent {
                    time_hours: 0.0,
                    vm: 1,
                    kind: ClusterEventKind::Preempted,
                },
            ],
            2.0,
        );
        assert!(matches!(r, Err(ClusterError::InvalidConfig(_))));
    }

    #[test]
    fn non_finite_timestamp_is_a_typed_error() {
        let r = ClusterTrace::scripted(
            vec![ClusterEvent {
                time_hours: f64::NAN,
                vm: 0,
                kind: ClusterEventKind::Preempted,
            }],
            2.0,
        );
        assert!(matches!(r, Err(ClusterError::InvalidConfig(_))));
    }

    #[test]
    fn zero_host_generation_yields_an_empty_trace() {
        let t = ClusterTrace::generate_spot_1gpu(0, 10, 4.0, 5.0, 1);
        assert!(t.events.is_empty());
        assert_eq!(t.duration_hours, 4.0);
        assert_eq!(t.gpus_at(2.0), 0);
    }

    /// Each of these once asked for `usize::MAX` polls (or, for NaN, none
    /// by accident); all must return at once.
    #[test]
    fn a_step_count_that_is_not_finite_yields_an_empty_trace() {
        for (hours, poll_minutes) in [
            (f64::INFINITY, 10.0),
            (4.0, 0.0),
            (4.0, f64::NAN),
            (f64::NAN, 10.0),
            (0.0, 0.0),
        ] {
            let t = ClusterTrace::generate_spot_1gpu(8, 8, hours, poll_minutes, 3);
            assert!(t.events.is_empty(), "{hours} h every {poll_minutes} min");
            assert!(t.duration_hours.total_cmp(&hours).is_eq());
        }
    }

    #[test]
    fn fault_events_do_not_change_granted_capacity() {
        let t = ClusterTrace::scripted(
            vec![
                ClusterEvent {
                    time_hours: 0.0,
                    vm: 0,
                    kind: ClusterEventKind::Granted { gpus: 4 },
                },
                ClusterEvent {
                    time_hours: 0.5,
                    vm: 0,
                    kind: ClusterEventKind::EvictionNotice { lead_hours: 0.1 },
                },
                ClusterEvent {
                    time_hours: 1.0,
                    vm: 0,
                    kind: ClusterEventKind::SilenceStart,
                },
                ClusterEvent {
                    time_hours: 1.2,
                    vm: 0,
                    kind: ClusterEventKind::SilenceEnd,
                },
                ClusterEvent {
                    time_hours: 1.5,
                    vm: u64::MAX,
                    kind: ClusterEventKind::StorageOutageStart,
                },
                ClusterEvent {
                    time_hours: 1.8,
                    vm: u64::MAX,
                    kind: ClusterEventKind::StorageOutageEnd,
                },
                ClusterEvent {
                    time_hours: 2.0,
                    vm: u64::MAX,
                    kind: ClusterEventKind::CheckpointCorrupt,
                },
            ],
            3.0,
        )
        .unwrap();
        assert_eq!(t.gpus_at(2.5), 4, "faults must not alter grants");
    }

    #[test]
    fn merge_shifted_is_time_ordered_with_disjoint_vms() {
        let a = ClusterTrace::generate_spot_1gpu(20, 30, 4.0, 10.0, 5);
        let b = ClusterTrace::generate_spot_1gpu(20, 30, 4.0, 10.0, 9);
        let merged = ClusterTrace::merge_shifted(&[(0.0, &a), (2.0, &b)]).unwrap();
        assert_eq!(merged.events.len(), a.events.len() + b.events.len());
        assert_eq!(merged.duration_hours, 6.0);
        for w in merged.events.windows(2) {
            assert!(
                w[0].time_hours <= w[1].time_hours,
                "merged trace must stay monotone: {} after {}",
                w[1].time_hours,
                w[0].time_hours
            );
        }
        // Part B's VM ids land strictly after part A's: the merged events
        // above A's id range are exactly B's (shifted into [2, 6]), while
        // A keeps its own ids — including re-grants inside the overlap.
        let max_a = a.events.iter().map(|e| e.vm).max().unwrap();
        let b_remapped: Vec<&ClusterEvent> =
            merged.events.iter().filter(|e| e.vm > max_a).collect();
        assert_eq!(b_remapped.len(), b.events.len());
        assert!(b_remapped.iter().all(|e| e.time_hours >= 2.0));
        assert!(b_remapped
            .iter()
            .any(|e| matches!(e.kind, ClusterEventKind::Granted { .. })));
        // The merged trace is a valid scripted trace (re-validates order).
        assert!(ClusterTrace::scripted(merged.events.clone(), merged.duration_hours).is_ok());
    }

    #[test]
    fn merge_shifted_interleaves_overlapping_parts_stably() {
        let mk = |t: f64, vm: u64| ClusterEvent {
            time_hours: t,
            vm,
            kind: ClusterEventKind::Granted { gpus: 1 },
        };
        let a = ClusterTrace::scripted(vec![mk(0.0, 0), mk(1.0, 1)], 2.0).unwrap();
        let b = ClusterTrace::scripted(vec![mk(0.5, 0), mk(1.0, 1)], 2.0).unwrap();
        let m = ClusterTrace::merge_shifted(&[(0.0, &a), (0.0, &b)]).unwrap();
        let times: Vec<f64> = m.events.iter().map(|e| e.time_hours).collect();
        assert_eq!(times, vec![0.0, 0.5, 1.0, 1.0]);
        // The tie at t=1.0 keeps part order: part A's vm 1, then part B's
        // remapped vm 3.
        assert_eq!(m.events[2].vm, 1);
        assert_eq!(m.events[3].vm, 3);
        // Determinism: merging twice gives the identical trace.
        assert_eq!(
            m,
            ClusterTrace::merge_shifted(&[(0.0, &a), (0.0, &b)]).unwrap()
        );
    }

    #[test]
    fn merge_shifted_preserves_the_storage_sentinel_vm() {
        let a = ClusterTrace::scripted(
            vec![ClusterEvent {
                time_hours: 0.5,
                vm: u64::MAX,
                kind: ClusterEventKind::StorageOutageStart,
            }],
            1.0,
        )
        .unwrap();
        let b = ClusterTrace::scripted(
            vec![ClusterEvent {
                time_hours: 0.0,
                vm: 0,
                kind: ClusterEventKind::Granted { gpus: 1 },
            }],
            1.0,
        )
        .unwrap();
        let m = ClusterTrace::merge_shifted(&[(0.0, &a), (1.0, &b)]).unwrap();
        assert_eq!(m.events[0].vm, u64::MAX, "sentinel must not be renumbered");
        assert_eq!(m.events[1].vm, 0, "no real VMs before part B");
    }

    #[test]
    fn merge_shifted_rejects_bad_offsets() {
        let a = ClusterTrace::generate_spot_1gpu(4, 4, 1.0, 10.0, 1);
        assert!(matches!(
            ClusterTrace::merge_shifted(&[(-1.0, &a)]),
            Err(ClusterError::InvalidConfig(_))
        ));
        assert!(matches!(
            ClusterTrace::merge_shifted(&[(f64::NAN, &a)]),
            Err(ClusterError::InvalidConfig(_))
        ));
        // Empty merge is a valid empty trace.
        let empty = ClusterTrace::merge_shifted(&[]).unwrap();
        assert!(empty.events.is_empty());
        assert_eq!(empty.duration_hours, 0.0);
    }

    #[test]
    fn fault_events_round_trip_through_json() {
        let t = ClusterTrace::scripted(
            vec![
                ClusterEvent {
                    time_hours: 0.0,
                    vm: 3,
                    kind: ClusterEventKind::EvictionNotice { lead_hours: 0.25 },
                },
                ClusterEvent {
                    time_hours: 0.1,
                    vm: 3,
                    kind: ClusterEventKind::SilenceStart,
                },
                ClusterEvent {
                    time_hours: 0.2,
                    vm: u64::MAX,
                    kind: ClusterEventKind::CheckpointCorrupt,
                },
            ],
            1.0,
        )
        .unwrap();
        let back = ClusterTrace::from_json(&t.to_json()).unwrap();
        assert_eq!(t, back);
    }
}
