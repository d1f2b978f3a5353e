//! Pieces every workload shares: WAL tearing, digests, and the
//! end-to-end figures computed the same way everywhere.

use std::time::Instant;

use varuna::wal::FRAME_HEADER_BYTES;
use varuna_obs::Event;

use crate::report::Report;
use crate::stats::{median, tail};

/// Seconds one set-up round may take once its minimum repetitions ran.
const SETUP_ROUND_S: f64 = 0.02;

/// Times repeated set-ups for `setup_s`: one round before the measured
/// phase and one after every iteration, each of the same length, so
/// that the set-up samples see the host over the whole run, as every
/// other metric does. A shared host's speed drifts over tens of
/// seconds; one long round before the measured phase made the median
/// follow whichever speed the run started at.
#[derive(Debug, Default)]
pub struct SetupClock {
    samples: Vec<f64>,
}

impl SetupClock {
    /// Runs `f` at least `min_reps` times, and again while the round has
    /// taken less than [`SETUP_ROUND_S`]; records each repetition's
    /// seconds and returns the last result.
    pub fn round<T>(&mut self, min_reps: usize, mut f: impl FnMut() -> T) -> T {
        let start = Instant::now();
        let mut reps = 0;
        loop {
            let t0 = Instant::now();
            let out = std::hint::black_box(f());
            self.samples.push(t0.elapsed().as_secs_f64());
            reps += 1;
            if reps >= min_reps && start.elapsed().as_secs_f64() >= SETUP_ROUND_S {
                return out;
            }
        }
    }

    /// Seconds of every repetition so far.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// The first set-up round: at least five repetitions.
pub fn first_setup_round<T>(clock: &mut SetupClock, f: impl FnMut() -> T) -> T {
    clock.round(5, f)
}

/// The round after each iteration: at least one repetition.
pub fn later_setup_round<T>(clock: &mut SetupClock, f: impl FnMut() -> T) {
    clock.round(1, f);
}

/// The log image of `bytes` killed inside its last frame: every frame
/// before it intact, then half of the last one. `None` for an empty log.
pub fn tear_last_frame(bytes: &[u8]) -> Option<Vec<u8>> {
    let mut pos = 0usize;
    let mut last = None;
    while pos + FRAME_HEADER_BYTES <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().ok()?) as usize;
        let frame = FRAME_HEADER_BYTES + len;
        last = Some((pos, frame));
        pos += frame;
    }
    let (start, frame) = last?;
    Some(bytes[..start + frame / 2].to_vec())
}

/// FNV-1a over the debug rendering of every event: equal digests mean
/// byte-identical streams.
pub fn digest(events: &[Event]) -> u64 {
    varuna_chaos::digest_events(events)
}

/// Records the latency metrics every workload reports from its
/// per-operation samples (`op_ms.*`) and its set-up repetitions.
pub fn set_latencies(rep: &mut Report, what: &str, op_ms: &[f64], setup_s: &[f64]) {
    let p50 = median(op_ms).unwrap_or(f64::NAN);
    rep.set("op_ms.p50", p50, op_ms.len(), format!("median {what}"));
    if let Some(t) = tail(op_ms) {
        rep.set(
            "op_ms.tail",
            t.value,
            t.n,
            format!(
                "p{:.1} {what} (highest percentile with >=10 samples above)",
                t.percentile
            ),
        );
    }
    rep.set(
        "setup_s",
        median(setup_s).unwrap_or(f64::NAN),
        setup_s.len(),
        "median of repeated set-ups",
    );
}

/// `ms` values as a mean, or 0 for none.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use varuna::{ManagerWal, WalRecord};

    #[test]
    fn a_torn_last_frame_loses_exactly_one_record() {
        let mut wal = ManagerWal::new();
        for i in 0..4 {
            wal.append(WalRecord::VmReadmitted {
                t_hours: i as f64,
                vm: i,
            });
        }
        let bytes = wal.to_bytes();
        let torn = tear_last_frame(&bytes).unwrap();
        assert!(torn.len() > wal.truncated_bytes(3).len());
        assert!(torn.len() < bytes.len());
        let back = ManagerWal::from_bytes(&torn).unwrap();
        assert_eq!(back.len(), 3);
        assert!(back.torn().is_some());
        assert_eq!(tear_last_frame(&[]), None);
    }
}
