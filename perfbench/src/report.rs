//! Metric registry, the human report, and the final JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::host::Host;

/// End-to-end metrics, reported by every workload with tracing off.
/// Must match `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("recover_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_ex_per_s", "ex/s"),
];

/// Per-layer metrics, reported by every workload with tracing on. Must
/// match `per_layer` in `BENCHMARK.json`. Layers a workload never enters
/// read zero.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("calibrate.ms", "ms"),
    ("trace.gen_ms", "ms"),
    ("trace.events", "count"),
    ("partition.calls", "count"),
    ("partition.ms", "ms"),
    ("analytic.calls", "count"),
    ("analytic.ms", "ms"),
    ("analytic.us_per_call", "us"),
    ("planner.sweeps", "count"),
    ("planner.configs", "count"),
    ("planner.ms", "ms"),
    ("emulator.calls", "count"),
    ("emulator.ms", "ms"),
    ("emulator.ops", "count"),
    ("emulator.ops_per_s", "1/s"),
    ("plansearch.candidates", "count"),
    ("plansearch.simulated", "count"),
    ("plansearch.memo_hits", "count"),
    ("plansearch.memo_hit_ratio", "ratio"),
    ("plansearch.analytic_fallbacks", "count"),
    ("manager.decisions", "count"),
    ("manager.morphs", "count"),
    ("manager.degraded_entries", "count"),
    ("manager.plan_cache_hit_ratio", "ratio"),
    ("manager.self_ms", "ms"),
    ("wal.appends", "count"),
    ("wal.append_ms", "ms"),
    ("wal.bytes", "bytes"),
    ("wal.encode_ms", "ms"),
    ("wal.decode_ms", "ms"),
    ("wal.replayed_records", "count"),
    ("wal.torn_detected", "count"),
    ("obs.events", "count"),
    ("obs.sink_ms", "ms"),
    ("obs.profile_ms", "ms"),
    ("obs.stream_fold_ms", "ms"),
    ("fleet.allocations", "count"),
    ("fleet.preemptions", "count"),
    ("fleet.fallbacks", "count"),
    ("fleet.self_ms", "ms"),
    ("iteration.ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
    ("retime.share_of_parent", "ratio"),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Value {
    /// The number.
    pub value: f64,
    /// Samples behind it (1 for a single measurement or a count).
    pub n: usize,
    /// How it was obtained, when that needs saying (`re-timed`, `p90`).
    pub note: String,
}

/// Everything one run measured and checked.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Host identity.
    pub host: Host,
    /// `SimSearch` worker threads the workload configured.
    pub sim_threads: usize,
    values: BTreeMap<&'static str, Value>,
    extras: BTreeMap<&'static str, Value>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or failed an output check.
    pub failed: u64,
    failures: Vec<String>,
    notes: Vec<String>,
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

impl Report {
    /// An empty report.
    pub fn new(workload: &str, seed: u64, traced: bool, host: Host, sim_threads: usize) -> Self {
        Report {
            workload: workload.to_string(),
            seed,
            traced,
            host,
            sim_threads,
            values: BTreeMap::new(),
            extras: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Records metric `name` (one of [`END_TO_END`] or [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64, n: usize, note: impl Into<String>) {
        assert!(unit_of(name).is_some(), "unregistered metric {name}");
        self.values.insert(
            name,
            Value {
                value,
                n,
                note: note.into(),
            },
        );
    }

    /// Records a value printed for people but not gated, such as a
    /// simulated outcome that only one workload has.
    pub fn extra(&mut self, name: &'static str, value: f64, n: usize, note: impl Into<String>) {
        self.extras.insert(
            name,
            Value {
                value,
                n,
                note: note.into(),
            },
        );
    }

    /// Counts one operation; it failed when `problems` is non-empty.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures.extend(problems);
        }
    }

    /// A line for the human report.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The metric names this run must report.
    fn required(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Counts a missing or non-finite required metric as a failure.
    pub fn validate(&mut self) {
        let mut problems = Vec::new();
        for (name, _) in self.required() {
            match self.values.get(name) {
                None => problems.push(format!("metric {name} was not measured")),
                Some(v) if !v.value.is_finite() => {
                    problems.push(format!("metric {name} is not finite ({})", v.value))
                }
                _ => {}
            }
        }
        if !problems.is_empty() {
            self.op(problems);
        }
    }

    /// Whether every operation passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable report.
    pub fn human(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perfbench workload={} seed={} trace={} sim_threads={}",
            self.workload, self.seed, self.traced as u8, self.sim_threads
        );
        let _ = writeln!(
            out,
            "host: nproc={} cpu=\"{}\" commit={}",
            self.host.nproc, self.host.cpu, self.host.commit
        );
        let section = |out: &mut String, title: &str, list: &[(&'static str, &'static str)]| {
            let _ = writeln!(out, "{title}");
            for (name, unit) in list {
                if let Some(v) = self.values.get(name) {
                    let _ = writeln!(
                        out,
                        "  {name:<30} {:>16.6} {unit:<6} n={:<6} {}",
                        v.value, v.n, v.note
                    );
                }
            }
        };
        if self.traced {
            section(&mut out, "per-layer (traced run):", &PER_LAYER);
        } else {
            section(&mut out, "end-to-end (tracing off):", &END_TO_END);
        }
        if !self.extras.is_empty() {
            let _ = writeln!(out, "also measured (not gated):");
            for (name, v) in &self.extras {
                let _ = writeln!(
                    out,
                    "  {name:<30} {:>16.6}        n={:<6} {}",
                    v.value, v.n, v.note
                );
            }
        }
        for n in &self.notes {
            let _ = writeln!(out, "{n}");
        }
        let failed_frac = if self.attempted > 0 {
            self.failed as f64 / self.attempted as f64
        } else {
            1.0
        };
        let _ = writeln!(
            out,
            "failed_frac = {failed_frac} ({} of {} operations)",
            self.failed, self.attempted
        );
        for f in self.failures.iter().take(20) {
            let _ = writeln!(out, "  FAILED: {f}");
        }
        out
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`, and
    /// the metrics this mode reports.
    pub fn json(&self) -> String {
        let mut metrics = Vec::new();
        for (name, unit) in self.required() {
            if let Some(v) = self.values.get(name) {
                let value = if v.value.is_finite() { v.value } else { 0.0 };
                metrics.push(format!(
                    "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
                ));
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Host {
        Host {
            nproc: 2,
            cpu: "test".to_string(),
            commit: "abc".to_string(),
        }
    }

    #[test]
    fn json_carries_exactly_the_mode_metrics() {
        let mut r = Report::new("w", 1, false, host(), 1);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.set(name, 1.5 + i as f64, 1, "");
        }
        r.set("planner.ms", 9.0, 1, "");
        r.op(Vec::new());
        r.validate();
        let j = r.json();
        assert!(j.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(j.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!j.contains("planner.ms"));
    }

    #[test]
    fn missing_metrics_and_failed_checks_make_the_run_incorrect() {
        let mut r = Report::new("w", 1, true, host(), 1);
        r.op(Vec::new());
        r.validate();
        assert!(!r.correct());
        let mut r = Report::new("w", 1, false, host(), 1);
        for (name, _) in END_TO_END {
            r.set(name, 1.0, 1, "");
        }
        r.op(vec!["digest mismatch".to_string()]);
        r.op(Vec::new());
        r.validate();
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (2, 1));
    }
}
