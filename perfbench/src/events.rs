//! Counters and simulated outcomes read off a run's event streams.

use std::collections::BTreeSet;

use varuna_obs::{Event, EventKind};

/// What one manager event stream says about its decisions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ManagerCounts {
    /// Planning attempts: committed morphs plus failed attempts.
    pub decisions: u64,
    /// Morphs that changed the `P x D` shape.
    pub morphs: u64,
    /// Degraded episodes entered.
    pub degraded_entries: u64,
    /// Decisions at a GPU count this stream had already planned for.
    pub seen_level_decisions: u64,
    /// `PlanSearch` candidates, summed.
    pub candidates: u64,
    /// `PlanSearch` fresh emulations, summed.
    pub simulated: u64,
    /// `PlanSearch` memo hits, summed.
    pub memo_hits: u64,
    /// `PlanSearch` analytic fallbacks, summed.
    pub analytic_fallbacks: u64,
    /// Committed configurations that use more GPUs than were offered.
    pub oversized_configs: u64,
}

impl ManagerCounts {
    /// Reads one manager's stream.
    pub fn of(events: &[Event]) -> Self {
        let mut c = ManagerCounts::default();
        let mut seen = BTreeSet::new();
        for e in events {
            match &e.kind {
                EventKind::Morph {
                    gpus_held,
                    gpus_used,
                    reconfigured,
                    ..
                } => {
                    c.decisions += 1;
                    c.seen_level_decisions += u64::from(!seen.insert(*gpus_held));
                    c.morphs += u64::from(*reconfigured);
                    c.oversized_configs += u64::from(gpus_used > gpus_held);
                }
                EventKind::MorphRetry { gpus, .. } => {
                    c.decisions += 1;
                    c.seen_level_decisions += u64::from(!seen.insert(*gpus));
                }
                EventKind::DegradedEnter { .. } => c.degraded_entries += 1,
                EventKind::PlanSearch {
                    candidates,
                    simulated,
                    memo_hits,
                    analytic_fallbacks,
                } => {
                    c.candidates += candidates;
                    c.simulated += simulated;
                    c.memo_hits += memo_hits;
                    c.analytic_fallbacks += analytic_fallbacks;
                }
                _ => {}
            }
        }
        c
    }

    /// Adds another stream's counts.
    pub fn add(&mut self, o: &ManagerCounts) {
        self.decisions += o.decisions;
        self.morphs += o.morphs;
        self.degraded_entries += o.degraded_entries;
        self.seen_level_decisions += o.seen_level_decisions;
        self.candidates += o.candidates;
        self.simulated += o.simulated;
        self.memo_hits += o.memo_hits;
        self.analytic_fallbacks += o.analytic_fallbacks;
        self.oversized_configs += o.oversized_configs;
    }
}

/// `num / den`, or 0 when there is nothing to divide.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// GPU counts the stream's committed morphs planned for, distinct.
pub fn morph_levels(events: &[Event]) -> Vec<usize> {
    let set: BTreeSet<usize> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Morph { gpus_held, .. } => Some(gpus_held),
            _ => None,
        })
        .collect();
    set.into_iter().collect()
}

/// Simulated examples per second of the chosen configurations, weighted
/// by how long each was in force between `t = 0` and `end_sec`; a
/// degraded job trains at zero.
pub fn time_weighted_ex_per_s(events: &[Event], end_sec: f64) -> f64 {
    let mut rate = 0.0;
    let mut since = 0.0;
    let mut area = 0.0;
    for e in events {
        let next = match e.kind {
            EventKind::Morph {
                examples_per_sec, ..
            } => examples_per_sec,
            EventKind::DegradedEnter { .. } => 0.0,
            _ => continue,
        };
        let t = e.t_sim.clamp(since, end_sec);
        area += rate * (t - since);
        since = t;
        rate = next;
    }
    area += rate * (end_sec - since).max(0.0);
    ratio(area, end_sec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn morph(t: f64, held: usize, used: usize, eps: f64) -> Event {
        Event::manager(
            t,
            EventKind::Morph {
                p: 1,
                d: used,
                gpus_held: held,
                gpus_used: used,
                examples_per_sec: eps,
                examples_per_sec_per_gpu: eps / used as f64,
                reconfigured: true,
                restart_seconds: 1.0,
                migration_seconds: 0.0,
            },
        )
    }

    #[test]
    fn counts_decisions_revisits_and_oversize() {
        let ev = vec![
            morph(0.0, 8, 8, 10.0),
            morph(10.0, 4, 4, 5.0),
            morph(20.0, 8, 9, 10.0),
        ];
        let c = ManagerCounts::of(&ev);
        assert_eq!(c.decisions, 3);
        assert_eq!(c.seen_level_decisions, 1);
        assert_eq!(c.oversized_configs, 1);
        assert_eq!(morph_levels(&ev), vec![4, 8]);
    }

    #[test]
    fn throughput_is_weighted_by_dwell_time() {
        let ev = vec![
            morph(0.0, 8, 8, 10.0),
            morph(30.0, 4, 4, 4.0),
            Event::manager(
                40.0,
                EventKind::DegradedEnter {
                    gpus: 0,
                    reason: String::new(),
                },
            ),
        ];
        let got = time_weighted_ex_per_s(&ev, 60.0);
        assert!((got - (10.0 * 30.0 + 4.0 * 10.0) / 60.0).abs() < 1e-12);
    }
}
