//! Externally driven morphs: the fleet-arbiter hook.
//!
//! In a single-job deployment the manager discovers capacity changes by
//! replaying a cluster trace ([`Manager::replay_on_bus`]). Under a fleet
//! control plane the *arbiter* owns capacity: it leases and revokes VMs
//! across jobs, and drives each job's grow/shrink morphs by calling
//! [`Manager::on_external_capacity_walled`] with the capacity it decided.
//! The hook runs the same plan/degrade/recover machine as trace replay
//! and emits the same event vocabulary, so downstream consumers (timeline
//! collectors, the profiler, the chaos invariant checkers) cannot tell
//! the two drivers apart.

use varuna_obs::EventBus;

use super::Manager;
use crate::morph::MorphDecision;
use crate::wal::WalIo;

impl Manager<'_> {
    /// Applies an externally arbitrated capacity level of `gpus` at
    /// `t_hours`, re-planning the job and emitting the same
    /// `Morph`/`LostWork`/`PlanSearch`/`Degraded*` events a trace replay
    /// would. `step` is the job's current mini-batch step and
    /// `durable_step` its durable checkpoint.
    ///
    /// Returns the morph decision when planning succeeded, `None` when
    /// the job is (still) degraded — infeasible capacity parks the job in
    /// [`super::ManagerState::Degraded`] exactly like trace replay; the
    /// caller retries by calling again at a later `t_hours`.
    ///
    /// The attempt runs through a write-ahead log: pending plan-attempt
    /// records for this job replay from the log (crash recovery), and
    /// fresh decisions are appended to it before their events are
    /// emitted. `wal` is any [`WalIo`] view — a [`crate::ManagerWal`] for
    /// a single job (a fresh one when no recovery is needed), or a fleet
    /// log's per-job view that interleaves records from many jobs into
    /// one shared sequence. A log that disagrees with the call sequence
    /// records the divergence in the log itself ([`crate::Wal::check`]).
    ///
    /// The method is deterministic: same call sequence, same events.
    pub fn on_external_capacity_walled<W: WalIo>(
        &mut self,
        t_hours: f64,
        gpus: usize,
        step: u64,
        durable_step: u64,
        bus: &mut EventBus,
        wal: &mut W,
    ) -> Option<MorphDecision> {
        self.walled_plan_attempt(
            t_hours,
            gpus,
            (step, durable_step),
            "arbiter allocated zero GPUs",
            wal,
            bus,
        )
        .decision
    }
}

#[cfg(test)]
mod tests {
    use varuna_models::ModelZoo;
    use varuna_obs::{EventBus, EventKind, VecSink};

    use crate::calibrate::Calibration;
    use crate::manager::{Manager, ManagerState};
    use crate::wal::ManagerWal;
    use crate::VarunaCluster;

    fn calib() -> Calibration {
        Calibration::profile(&ModelZoo::gpt2_2_5b(), &VarunaCluster::commodity_1gpu(128))
    }

    #[test]
    fn external_capacity_drives_morphs_and_degradation() {
        let c = calib();
        let mut mgr = Manager::new(&c, 8192, 4).with_fallback();
        let sink = VecSink::new();
        let mut bus = EventBus::with_sink(Box::new(sink.clone()));
        let mut wal = ManagerWal::new();

        let d1 = mgr.on_external_capacity_walled(0.0, 64, 0, 0, &mut bus, &mut wal);
        assert!(d1.as_ref().is_some_and(|d| d.reconfigured));
        assert_eq!(mgr.state(), ManagerState::Running);
        assert!(mgr.current_config().is_some());

        // The arbiter takes everything away: degraded, job suspended.
        assert!(mgr
            .on_external_capacity_walled(1.0, 0, 10, 8, &mut bus, &mut wal)
            .is_none());
        assert_eq!(mgr.state(), ManagerState::Degraded);
        assert!(mgr.current_config().is_none());

        // Still degraded on a second zero-capacity round: one enter event,
        // two retries.
        assert!(mgr
            .on_external_capacity_walled(1.5, 0, 10, 8, &mut bus, &mut wal)
            .is_none());

        // Capacity returns: exit prices the full pause.
        let d2 = mgr.on_external_capacity_walled(2.0, 36, 10, 8, &mut bus, &mut wal);
        assert!(d2.is_some());
        assert_eq!(mgr.state(), ManagerState::Running);

        let events = sink.take();
        let enters = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::DegradedEnter { .. }))
            .count();
        let retries = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::MorphRetry { .. }))
            .count();
        assert_eq!(enters, 1);
        assert_eq!(retries, 2);
        let exit = events
            .iter()
            .find_map(|e| match e.kind {
                EventKind::DegradedExit { paused_seconds, .. } => Some(paused_seconds),
                _ => None,
            })
            .expect("an exit event");
        assert!((exit - 3600.0).abs() < 1e-9, "paused 1.0h..2.0h");
        // Lost work was priced on the recovery morph (step 10, durable 8).
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::LostWork { minibatches: 2, .. })));
    }

    #[test]
    fn external_driving_is_deterministic() {
        let c = calib();
        let run = || {
            let mut mgr = Manager::new(&c, 8192, 4).with_fallback();
            let sink = VecSink::new();
            let mut bus = EventBus::with_sink(Box::new(sink.clone()));
            let mut wal = ManagerWal::new();
            for (i, &g) in [64usize, 40, 0, 0, 72, 36].iter().enumerate() {
                mgr.on_external_capacity_walled(
                    i as f64 * 0.5,
                    g,
                    i as u64 * 4,
                    i as u64 * 2,
                    &mut bus,
                    &mut wal,
                );
            }
            sink.take()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn same_shape_external_round_is_not_a_reconfiguration() {
        let c = calib();
        let mut mgr = Manager::new(&c, 8192, 4);
        let sink = VecSink::new();
        let mut bus = EventBus::with_sink(Box::new(sink.clone()));
        let mut wal = ManagerWal::new();
        mgr.on_external_capacity_walled(0.0, 64, 0, 0, &mut bus, &mut wal);
        let again = mgr
            .on_external_capacity_walled(0.5, 64, 4, 4, &mut bus, &mut wal)
            .unwrap();
        assert!(!again.reconfigured);
        let morphs: Vec<bool> = sink
            .take()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Morph { reconfigured, .. } => Some(reconfigured),
                _ => None,
            })
            .collect();
        assert_eq!(morphs, vec![true, false]);
    }
}
