//! Write-ahead logging for the control plane.
//!
//! The manager (and, one level up, the fleet control plane) is a single
//! process: the paper treats it as reliable, but on the spot markets it
//! targets nothing is. This module makes every externally visible
//! control decision durable *before it takes effect*: morph commits and
//! aborts, degraded entry/exit, checkpoint triggers and fallbacks,
//! heartbeat exclusion and re-admission, and (in `varuna-fleet`)
//! allocation decisions are appended to a [`Wal`] as typed records.
//!
//! A crashed control plane recovers by loading the log
//! ([`Wal::from_bytes`]) and re-running its decision loop with the log
//! as an oracle: at each decision site the loop *consumes* the next
//! logged record instead of recomputing the decision, then switches
//! seamlessly to live operation (appending new records) when the log
//! runs out — even mid-decision. A pending record that is not the site's
//! decision (wrong kind, or logged at another time) means the log belongs
//! to another run: [`WalError::Diverged`], never a panic or a silent skip.
//! Each record maps to its event through one pure function
//! ([`WalRecord::event`]), so replayed and live decisions emit the same
//! stream. Because every input to the loop is
//! deterministic, a run killed at **any** record boundary and recovered
//! this way produces a byte-identical event stream — and a byte-identical
//! final log — to the uninterrupted run. The chaos harness
//! (`varuna-chaos`) enforces exactly that invariant at every boundary.
//!
//! # Frame format
//!
//! Each record is framed as
//!
//! ```text
//! seq: u64 LE | len: u32 LE | fnv1a(payload): u64 LE | payload (JSON)
//! ```
//!
//! Sequence numbers are contiguous from zero and the checksum covers the
//! payload, so a *torn* final frame — the kill landed mid-write — is
//! detected (short frame or checksum mismatch at the tail) and truncated
//! away, reported as a [`PartialWrite`]: the same partial-write
//! vocabulary torn checkpoints use ([`crate::checkpoint`]).

use std::fmt;

use serde::{Deserialize, Serialize};
use varuna_obs::{Event, EventBus, EventKind};

use crate::checkpoint::{CheckpointKind, PartialWrite};
use crate::morph::MorphDecision;

/// Bytes of framing ahead of each record payload: sequence number (8),
/// payload length (4), payload checksum (8).
pub const FRAME_HEADER_BYTES: usize = 20;

/// Modeled wall-clock cost of replaying one WAL record during recovery,
/// seconds. Deterministic by construction — recovery emits
/// `records * this` as `RecoveryReplay::replay_seconds`, never a
/// measured latency, so recovered runs stay byte-identical.
pub const REPLAY_SECONDS_PER_RECORD: f64 = 0.002;

/// 64-bit FNV-1a over `bytes` — the frame checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Errors loading a serialized log.
#[derive(Debug, Clone, PartialEq)]
pub enum WalError {
    /// A complete frame failed its checksum with more data after it —
    /// not a torn tail (which is silently truncated) but corruption in
    /// the middle of the log.
    Corrupt {
        /// Sequence number of the bad frame.
        seq: u64,
    },
    /// Frame sequence numbers are not contiguous from zero.
    SequenceGap {
        /// The sequence number found.
        found: u64,
        /// The sequence number expected.
        expected: u64,
    },
    /// A checksum-valid payload failed to decode (version skew).
    Decode {
        /// Sequence number of the undecodable frame.
        seq: u64,
        /// Decoder diagnostic.
        reason: String,
    },
    /// A well-formed log disagrees with the decision loop replaying it:
    /// the pending record is not of the kind (or not at the time) the
    /// loop's next decision site produces, or the loop went live while
    /// records were still pending. The log belongs to another run.
    Diverged {
        /// Sequence number of the first record the loop could not replay.
        seq: u64,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Corrupt { seq } => write!(f, "wal frame {seq} failed its checksum"),
            WalError::SequenceGap { found, expected } => {
                write!(
                    f,
                    "wal frame sequence gap: found {found}, expected {expected}"
                )
            }
            WalError::Decode { seq, reason } => {
                write!(f, "wal frame {seq} payload does not decode: {reason}")
            }
            WalError::Diverged { seq } => {
                write!(
                    f,
                    "wal record {seq} diverges from the decision loop replaying it"
                )
            }
        }
    }
}

impl std::error::Error for WalError {}

/// What one recovery replay did, for reporting and pricing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryReport {
    /// Records replayed from the log prefix.
    pub replayed_records: usize,
    /// The torn final frame truncation, if the log ended mid-write.
    pub torn: Option<PartialWrite>,
    /// Bytes dropped by torn-frame truncation.
    pub dropped_bytes: u64,
    /// Modeled replay cost, seconds ([`REPLAY_SECONDS_PER_RECORD`] per
    /// record).
    pub replay_seconds: f64,
}

/// A write-ahead log of typed records with a replay cursor.
///
/// The same object serves both modes of the decision loop:
///
/// - **live**: [`Wal::append`] logs a fresh decision (the cursor rides
///   the tail, so nothing is pending replay);
/// - **recovery**: a log loaded by [`Wal::from_bytes`] starts with its
///   cursor at zero, and [`Wal::step`] hands logged decisions back to the
///   loop until the prefix is exhausted, after which it resumes live
///   logging.
///
/// A pending record the loop cannot replay is a divergence: [`Wal::step`]
/// returns [`WalError::Diverged`], and [`Wal::append`] records it for
/// [`Wal::check`].
#[derive(Debug, Clone)]
pub struct Wal<R> {
    records: Vec<R>,
    cursor: usize,
    torn: Option<PartialWrite>,
    dropped_bytes: u64,
    diverged: Option<u64>,
}

impl<R> Default for Wal<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R> Wal<R> {
    /// An empty log in live mode.
    pub fn new() -> Self {
        Wal {
            records: Vec::new(),
            cursor: 0,
            torn: None,
            dropped_bytes: 0,
            diverged: None,
        }
    }

    /// Records in the log (replayed and pending alike).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records, in sequence order.
    pub fn records(&self) -> &[R] {
        &self.records
    }

    /// Appends a live decision. Appending means the decision loop is
    /// live, so nothing may still be pending replay: a log with pending
    /// records has diverged from the loop (it went live before the log
    /// ran out), so the record is refused and the divergence kept for
    /// [`Wal::check`] instead of silently skipping the pending records.
    pub fn append(&mut self, record: R) {
        if self.replaying() {
            self.diverge();
        } else {
            self.records.push(record);
            self.cursor = self.records.len();
        }
    }

    /// Whether records are still pending replay.
    pub fn replaying(&self) -> bool {
        self.cursor < self.records.len()
    }

    /// Records still pending replay.
    pub fn remaining(&self) -> usize {
        self.records.len() - self.cursor
    }

    /// The torn-final-frame truncation detected at load, if any.
    pub fn torn(&self) -> Option<PartialWrite> {
        self.torn
    }

    /// Bytes dropped by torn-frame truncation at load.
    pub fn dropped_bytes(&self) -> u64 {
        self.dropped_bytes
    }

    /// Consumes and returns the next pending record.
    pub fn replay_next(&mut self) -> Option<R>
    where
        R: Clone,
    {
        let r = self.records.get(self.cursor)?.clone();
        self.cursor += 1;
        Some(r)
    }

    /// Consumes the next pending record only when `pred` accepts it;
    /// a mismatch (or an exhausted log) returns `None` and leaves the
    /// cursor alone.
    pub fn replay_next_if(&mut self, pred: impl FnOnce(&R) -> bool) -> Option<R>
    where
        R: Clone,
    {
        if pred(self.records.get(self.cursor)?) {
            return self.replay_next();
        }
        None
    }

    /// Replays or logs one decision: the decision loop's single entry
    /// into the log.
    ///
    /// While records are pending, the next one must be this site's
    /// decision: `site` checks its kind (and its time, where the site
    /// knows it), and the accepted record is consumed and returned. Once
    /// the prefix is exhausted, `live` computes the decision and it is
    /// appended before the caller acts on it.
    ///
    /// # Errors
    ///
    /// [`WalError::Diverged`] when `site` rejects the pending record, or
    /// when the log already diverged.
    pub fn step(
        &mut self,
        site: impl FnOnce(&R) -> bool,
        live: impl FnOnce() -> R,
    ) -> Result<R, WalError>
    where
        R: Clone,
    {
        self.check()?;
        if !self.replaying() {
            let rec = live();
            self.append(rec.clone());
            return Ok(rec);
        }
        self.replay_next_if(site).ok_or_else(|| self.diverge())
    }

    /// Whether the decision loop has stayed in step with the log.
    ///
    /// # Errors
    ///
    /// [`WalError::Diverged`] naming the first record the loop could not
    /// replay.
    pub fn check(&self) -> Result<(), WalError> {
        match self.diverged {
            Some(seq) => Err(WalError::Diverged { seq }),
            None => Ok(()),
        }
    }

    fn diverge(&mut self) -> WalError {
        let seq = *self.diverged.get_or_insert(self.cursor as u64);
        WalError::Diverged { seq }
    }

    /// What recovering from this freshly loaded log replays.
    pub fn recovery_report(&self) -> RecoveryReport {
        RecoveryReport {
            replayed_records: self.remaining(),
            torn: self.torn,
            dropped_bytes: self.dropped_bytes,
            replay_seconds: self.remaining() as f64 * REPLAY_SECONDS_PER_RECORD,
        }
    }

    /// Announces a recovery on `bus` before the loop re-runs: a
    /// [`varuna_obs::Source::Recovery`] `RecoveryReplay` event at the last
    /// logged decision's time (`t_hours`), pricing the replay as
    /// control-plane downtime. A fresh log (nothing pending, no torn
    /// tail) announces nothing.
    pub fn announce_recovery(&self, bus: &mut EventBus, t_hours: impl Fn(&R) -> f64) {
        if self.remaining() == 0 && self.torn.is_none() {
            return;
        }
        let crash_t_sec = self.records.last().map_or(0.0, t_hours) * 3600.0;
        let report = self.recovery_report();
        bus.emit_with(|| {
            Event::recovery(
                crash_t_sec,
                EventKind::RecoveryReplay {
                    wal_records: report.replayed_records as u64,
                    torn: report.torn.is_some(),
                    dropped_bytes: report.dropped_bytes,
                    replay_seconds: report.replay_seconds,
                },
            )
        });
    }
}

impl<R: Serialize> Wal<R> {
    fn frame(seq: u64, record: &R, out: &mut Vec<u8>) {
        let payload = serde_json::to_string(record)
            .expect("wal records serialize infallibly")
            .into_bytes();
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }

    /// Serializes every record as a checksummed frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.bytes_of_prefix(self.records.len())
    }

    /// The byte image of the first `n` frames — a log killed exactly at
    /// a record boundary.
    pub fn truncated_bytes(&self, n: usize) -> Vec<u8> {
        self.bytes_of_prefix(n.min(self.records.len()))
    }

    /// The byte image of the first `n` frames plus a *torn* fragment of
    /// frame `n` — a log killed mid-write. `fraction` (clamped to
    /// `(0, 1)`) picks how much of the final frame landed. When `n` is
    /// past the last record the image is simply the whole log.
    pub fn torn_bytes(&self, n: usize, fraction: f64) -> Vec<u8> {
        let n = n.min(self.records.len());
        let mut out = self.bytes_of_prefix(n);
        if n < self.records.len() {
            let mut tail = Vec::new();
            Self::frame(n as u64, &self.records[n], &mut tail);
            let keep = ((tail.len() as f64) * fraction.clamp(0.01, 0.99)).floor() as usize;
            let keep = keep.clamp(1, tail.len() - 1);
            out.extend_from_slice(&tail[..keep]);
        }
        out
    }

    fn bytes_of_prefix(&self, n: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for (seq, record) in self.records.iter().take(n).enumerate() {
            Self::frame(seq as u64, record, &mut out);
        }
        out
    }
}

impl<R: Deserialize> Wal<R> {
    /// Loads a log from its byte image, validating sequence contiguity
    /// and per-frame checksums. A short or checksum-failing *final*
    /// frame is a torn write: it is truncated away and reported via
    /// [`Wal::torn`] / [`Wal::dropped_bytes`]. The loaded log starts in
    /// recovery mode (cursor at zero).
    ///
    /// # Errors
    ///
    /// [`WalError::Corrupt`] / [`WalError::SequenceGap`] /
    /// [`WalError::Decode`] for damage that is *not* explainable as a
    /// torn tail — mid-log corruption or version skew.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WalError> {
        let mut records = Vec::new();
        let mut pos = 0usize;
        let mut torn: Option<PartialWrite> = None;
        let mut dropped = 0u64;
        while pos < bytes.len() {
            let left = bytes.len() - pos;
            if left < FRAME_HEADER_BYTES {
                torn = Some(PartialWrite {
                    bytes_written: left as u64,
                    bytes_expected: FRAME_HEADER_BYTES as u64,
                });
                dropped = left as u64;
                break;
            }
            let seq = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8 bytes"));
            let len =
                u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().expect("4 bytes")) as usize;
            let sum = u64::from_le_bytes(bytes[pos + 12..pos + 20].try_into().expect("8 bytes"));
            let expected = records.len() as u64;
            if seq != expected {
                return Err(WalError::SequenceGap {
                    found: seq,
                    expected,
                });
            }
            let frame_len = FRAME_HEADER_BYTES + len;
            if left < frame_len {
                torn = Some(PartialWrite {
                    bytes_written: left as u64,
                    bytes_expected: frame_len as u64,
                });
                dropped = left as u64;
                break;
            }
            let payload = &bytes[pos + FRAME_HEADER_BYTES..pos + frame_len];
            if fnv1a(payload) != sum {
                if pos + frame_len == bytes.len() {
                    // A complete-length final frame with a bad checksum:
                    // garbage (or zeros) padded a torn write out to its
                    // intended length. Truncate like any other torn tail.
                    torn = Some(PartialWrite {
                        bytes_written: left as u64,
                        bytes_expected: frame_len as u64,
                    });
                    dropped = left as u64;
                    break;
                }
                return Err(WalError::Corrupt { seq });
            }
            let text = std::str::from_utf8(payload).map_err(|e| WalError::Decode {
                seq,
                reason: e.to_string(),
            })?;
            let record: R = serde_json::from_str(text).map_err(|e| WalError::Decode {
                seq,
                reason: e.to_string(),
            })?;
            records.push(record);
            pos += frame_len;
        }
        Ok(Wal {
            records,
            cursor: 0,
            torn,
            dropped_bytes: dropped,
            diverged: None,
        })
    }
}

/// One durable control decision. Every variant carries the full event
/// payload the decision produced, so recovery re-emits the exact event
/// without recomputing anything.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalRecord {
    /// A checkpoint was committed (periodic, or proactive on an eviction
    /// notice) and the durable step advanced.
    Checkpoint {
        /// Decision time, hours since trace start.
        t_hours: f64,
        /// The mini-batch step made durable.
        step: u64,
        /// GPUs granted at the decision.
        gpus_held: usize,
        /// GPUs the active configuration uses.
        gpus_used: usize,
        /// Active pipeline depth.
        p: usize,
        /// Active data-parallel width.
        d: usize,
        /// Active throughput, examples/sec.
        examples_per_sec: f64,
        /// Per-GPU throughput.
        examples_per_sec_per_gpu: f64,
        /// Foreground write pause, seconds. Under overlapped writes this
        /// is only the background lane's back-pressure; the write itself
        /// is `overlapped_seconds`.
        write_seconds: f64,
        /// Seconds of the write hidden behind compute on the background
        /// lane (zero when writes are foreground-only).
        overlapped_seconds: f64,
        /// Full state or a delta against the last full checkpoint.
        kind: CheckpointKind,
        /// Whether an eviction notice (not the periodic schedule)
        /// triggered the write.
        proactive: bool,
    },
    /// A delta checkpoint flushed ahead of a planning attempt so a
    /// reconfiguration restarts from "now" instead of re-running work
    /// since the periodic schedule's last write (zero-downtime morphing).
    DeltaFlush {
        /// Decision time, hours.
        t_hours: f64,
        /// The mini-batch step made durable.
        step: u64,
        /// Step of the full checkpoint the delta applies on top of.
        base_step: u64,
        /// GPUs granted at the decision.
        gpus_held: usize,
        /// GPUs the active configuration uses.
        gpus_used: usize,
        /// Active pipeline depth.
        p: usize,
        /// Active data-parallel width.
        d: usize,
        /// Active throughput, examples/sec.
        examples_per_sec: f64,
        /// Per-GPU throughput.
        examples_per_sec_per_gpu: f64,
        /// Foreground write pause, seconds (the flush gates the morph,
        /// so it is never overlapped).
        write_seconds: f64,
    },
    /// A periodic checkpoint write failed (storage outage); the durable
    /// step did not advance.
    CheckpointFailed {
        /// Decision time, hours.
        t_hours: f64,
        /// The step the failed write would have covered.
        step: u64,
    },
    /// A checkpoint proved torn (partial write) at validation.
    CheckpointTorn {
        /// Decision time, hours.
        t_hours: f64,
        /// The durable step whose checkpoint is torn.
        step: u64,
        /// The partial write observed.
        partial: PartialWrite,
    },
    /// The durable step fell back to an older checkpoint (corruption or
    /// a torn write).
    CheckpointFallback {
        /// Decision time, hours.
        t_hours: f64,
        /// Durable step before the fallback.
        from_step: u64,
        /// Durable step after the fallback.
        to_step: u64,
    },
    /// A silent VM's grace window expired: excluded from scheduling.
    VmExcluded {
        /// Decision time, hours.
        t_hours: f64,
        /// The excluded VM.
        vm: u64,
        /// Consecutive misses charged to it.
        consecutive_misses: u32,
    },
    /// A previously excluded VM resumed heartbeats: re-admitted.
    VmReadmitted {
        /// Decision time, hours.
        t_hours: f64,
        /// The re-admitted VM.
        vm: u64,
    },
    /// Planning failed with capacity below feasibility: the job paused.
    DegradedEnter {
        /// Decision time, hours.
        t_hours: f64,
        /// GPUs available at the failure.
        gpus: usize,
        /// The planner's diagnostic.
        reason: String,
    },
    /// Planning succeeded after a degraded episode: the job resumed.
    DegradedExit {
        /// Decision time, hours.
        t_hours: f64,
        /// GPUs available at recovery.
        gpus: usize,
        /// Seconds the episode paused the job.
        paused_seconds: f64,
    },
    /// A planning attempt failed; retry after backoff.
    MorphRetry {
        /// Decision time, hours.
        t_hours: f64,
        /// 1-based attempt number within the episode.
        attempt: u32,
        /// Seconds until the next retry.
        backoff_seconds: f64,
        /// GPUs available for the failed attempt.
        gpus: usize,
    },
    /// Work beyond the durable checkpoint was priced as lost.
    LostWork {
        /// Decision time, hours.
        t_hours: f64,
        /// Mini-batches to re-run.
        minibatches: u64,
        /// Seconds of re-run time charged.
        seconds: f64,
    },
    /// A simulator-in-the-loop plan search completed (counters only —
    /// logged so recovery re-emits the exact `PlanSearch` event without
    /// re-running the search against a cold memo table).
    PlanSearch {
        /// Decision time, hours.
        t_hours: f64,
        /// Candidates scored (`simulated + memo_hits +
        /// analytic_fallbacks`); pruned candidates are not logged.
        candidates: u64,
        /// Candidates scored by fresh emulation.
        simulated: u64,
        /// Candidates served from the memo table.
        memo_hits: u64,
        /// Candidates left on their analytic estimate.
        analytic_fallbacks: u64,
    },
    /// A morph decision committed.
    Morph {
        /// Decision time, hours.
        t_hours: f64,
        /// GPUs granted at the decision.
        gpus_held: usize,
        /// The committed decision (configuration, reconfiguration flag,
        /// priced downtime, fallback level).
        decision: MorphDecision,
    },
}

impl WalRecord {
    /// The decision's timestamp, hours since trace start.
    pub fn t_hours(&self) -> f64 {
        match self {
            WalRecord::Checkpoint { t_hours, .. }
            | WalRecord::DeltaFlush { t_hours, .. }
            | WalRecord::CheckpointFailed { t_hours, .. }
            | WalRecord::CheckpointTorn { t_hours, .. }
            | WalRecord::CheckpointFallback { t_hours, .. }
            | WalRecord::VmExcluded { t_hours, .. }
            | WalRecord::VmReadmitted { t_hours, .. }
            | WalRecord::DegradedEnter { t_hours, .. }
            | WalRecord::DegradedExit { t_hours, .. }
            | WalRecord::MorphRetry { t_hours, .. }
            | WalRecord::LostWork { t_hours, .. }
            | WalRecord::PlanSearch { t_hours, .. }
            | WalRecord::Morph { t_hours, .. } => *t_hours,
        }
    }

    /// The control event this decision stands for. Pure and total: a
    /// live decision and its replay emit exactly this, so the manager's
    /// logged control stream is the image of its log under this map.
    pub fn event(&self) -> Event {
        let kind = match *self {
            WalRecord::Checkpoint {
                step,
                gpus_held,
                gpus_used,
                p,
                d,
                examples_per_sec,
                examples_per_sec_per_gpu,
                write_seconds,
                overlapped_seconds,
                kind,
                ..
            } => EventKind::Checkpoint {
                step,
                gpus_held,
                gpus_used,
                p,
                d,
                examples_per_sec,
                examples_per_sec_per_gpu,
                write_seconds,
                overlapped_seconds,
                full: kind.is_full(),
            },
            // A delta flush gates the morph, so it is never overlapped.
            WalRecord::DeltaFlush {
                step,
                gpus_held,
                gpus_used,
                p,
                d,
                examples_per_sec,
                examples_per_sec_per_gpu,
                write_seconds,
                ..
            } => EventKind::Checkpoint {
                step,
                gpus_held,
                gpus_used,
                p,
                d,
                examples_per_sec,
                examples_per_sec_per_gpu,
                write_seconds,
                overlapped_seconds: 0.0,
                full: false,
            },
            WalRecord::CheckpointFailed { step, .. } => EventKind::CheckpointWriteFailed { step },
            WalRecord::CheckpointTorn { step, partial, .. } => EventKind::CheckpointTorn {
                step,
                bytes_written: partial.bytes_written,
                bytes_expected: partial.bytes_expected,
            },
            WalRecord::CheckpointFallback {
                from_step, to_step, ..
            } => EventKind::CheckpointFallback { from_step, to_step },
            WalRecord::VmExcluded {
                vm,
                consecutive_misses,
                ..
            } => EventKind::VmExcluded {
                vm,
                consecutive_misses,
            },
            WalRecord::VmReadmitted { vm, .. } => EventKind::VmReadmitted { vm },
            WalRecord::DegradedEnter {
                gpus, ref reason, ..
            } => EventKind::DegradedEnter {
                gpus,
                reason: reason.clone(),
            },
            WalRecord::DegradedExit {
                gpus,
                paused_seconds,
                ..
            } => EventKind::DegradedExit {
                gpus,
                paused_seconds,
            },
            WalRecord::MorphRetry {
                attempt,
                backoff_seconds,
                gpus,
                ..
            } => EventKind::MorphRetry {
                attempt,
                backoff_seconds,
                gpus,
            },
            WalRecord::LostWork {
                minibatches,
                seconds,
                ..
            } => EventKind::LostWork {
                minibatches,
                seconds,
            },
            WalRecord::PlanSearch {
                candidates,
                simulated,
                memo_hits,
                analytic_fallbacks,
                ..
            } => EventKind::PlanSearch {
                candidates,
                simulated,
                memo_hits,
                analytic_fallbacks,
            },
            // The restart/migration pricing travels inside the decision,
            // so a replayed morph prices identically.
            WalRecord::Morph {
                gpus_held,
                ref decision,
                ..
            } => {
                let cfg = &decision.config;
                EventKind::Morph {
                    p: cfg.p,
                    d: cfg.d,
                    gpus_held,
                    gpus_used: cfg.gpus_used(),
                    examples_per_sec: cfg.throughput(),
                    examples_per_sec_per_gpu: cfg.throughput_per_gpu(),
                    reconfigured: decision.reconfigured,
                    restart_seconds: decision.restart_seconds,
                    migration_seconds: decision.migration_seconds,
                }
            }
        };
        Event::manager(self.t_hours() * 3600.0, kind)
    }
}

/// Whether a record belongs to a *plan attempt* — the cluster of
/// decisions one call into the plan/degrade/recover machine can produce
/// (`DegradedExit`/`LostWork`/`PlanSearch`/`Morph` on success,
/// `DegradedEnter`/`MorphRetry` on failure).
pub fn is_plan_attempt_record(r: &WalRecord) -> bool {
    matches!(
        r,
        WalRecord::DegradedEnter { .. }
            | WalRecord::DegradedExit { .. }
            | WalRecord::MorphRetry { .. }
            | WalRecord::LostWork { .. }
            | WalRecord::PlanSearch { .. }
            | WalRecord::Morph { .. }
    )
}

/// The WAL the manager's plan-attempt machinery reads and writes.
/// Implemented by the manager's own [`ManagerWal`] and by the fleet's
/// per-job view into its combined log, so the same walled decision code
/// serves both control planes.
pub trait WalIo {
    /// Consumes the next pending record if it is a plan-attempt record
    /// (this consumer's own, for multiplexed logs).
    fn replay_next_attempt(&mut self) -> Option<WalRecord>;
    /// Appends a live decision.
    fn append_record(&mut self, record: WalRecord);
}

/// The manager's write-ahead log.
pub type ManagerWal = Wal<WalRecord>;

impl WalIo for ManagerWal {
    fn replay_next_attempt(&mut self) -> Option<WalRecord> {
        self.replay_next_if(is_plan_attempt_record)
    }

    fn append_record(&mut self, record: WalRecord) {
        self.append(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> ManagerWal {
        let mut wal = ManagerWal::new();
        for i in 0..n {
            wal.append(WalRecord::Checkpoint {
                t_hours: i as f64 * 0.25,
                step: 16 * (i as u64 + 1),
                gpus_held: 40 - i,
                gpus_used: 36,
                p: 9,
                d: 4,
                examples_per_sec: 120.5,
                examples_per_sec_per_gpu: 3.35,
                write_seconds: 0.44,
                overlapped_seconds: 0.0,
                kind: crate::checkpoint::CheckpointKind::Full,
                proactive: i % 3 == 0,
            });
        }
        wal.append(WalRecord::DegradedEnter {
            t_hours: n as f64,
            gpus: 2,
            reason: "no feasible depth".to_string(),
        });
        wal
    }

    #[test]
    fn append_then_replay_round_trips() {
        let wal = sample(4);
        assert_eq!(wal.len(), 5);
        assert!(!wal.replaying(), "appends keep the cursor at the tail");
        let mut loaded = ManagerWal::from_bytes(&wal.to_bytes()).unwrap();
        assert_eq!(loaded.len(), 5);
        assert!(loaded.replaying());
        assert_eq!(loaded.torn(), None);
        let mut replayed = Vec::new();
        while let Some(r) = loaded.replay_next() {
            replayed.push(r);
        }
        assert_eq!(replayed, wal.records());
        assert_eq!(loaded.to_bytes(), wal.to_bytes());
    }

    #[test]
    fn boundary_truncation_keeps_a_clean_prefix() {
        let wal = sample(4);
        for n in 0..=wal.len() {
            let loaded = ManagerWal::from_bytes(&wal.truncated_bytes(n)).unwrap();
            assert_eq!(loaded.len(), n);
            assert_eq!(loaded.torn(), None);
            assert_eq!(loaded.records(), &wal.records()[..n]);
        }
    }

    #[test]
    fn torn_final_frames_are_detected_and_truncated() {
        let wal = sample(4);
        for n in 0..wal.len() {
            for fraction in [0.1, 0.5, 0.9] {
                let bytes = wal.torn_bytes(n, fraction);
                assert!(bytes.len() > wal.truncated_bytes(n).len());
                let loaded = ManagerWal::from_bytes(&bytes).unwrap();
                assert_eq!(loaded.len(), n, "torn frame must not surface");
                let partial = loaded.torn().expect("torn tail detected");
                assert!(partial.bytes_written < partial.bytes_expected);
                assert_eq!(loaded.dropped_bytes(), partial.bytes_written);
            }
        }
    }

    #[test]
    fn garbage_padded_torn_tail_is_truncated() {
        let wal = sample(3);
        let mut bytes = wal.torn_bytes(2, 0.5);
        // Pad the torn frame out to a plausible length with zeros: the
        // checksum still fails, and it is still the final frame.
        bytes.resize(bytes.len() + 64, 0);
        // Force the declared length to cover the padding so the frame is
        // "complete" but checksum-failing.
        let prefix = wal.truncated_bytes(2).len();
        let declared = (bytes.len() - prefix - FRAME_HEADER_BYTES) as u32;
        bytes[prefix + 8..prefix + 12].copy_from_slice(&declared.to_le_bytes());
        let loaded = ManagerWal::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.len(), 2);
        assert!(loaded.torn().is_some());
    }

    #[test]
    fn mid_log_corruption_is_a_typed_error() {
        let wal = sample(4);
        let mut bytes = wal.to_bytes();
        // Flip a payload byte in the first frame (past its header).
        bytes[FRAME_HEADER_BYTES + 2] ^= 0x40;
        assert_eq!(
            ManagerWal::from_bytes(&bytes).unwrap_err(),
            WalError::Corrupt { seq: 0 }
        );
    }

    #[test]
    fn sequence_gaps_are_a_typed_error() {
        let wal = sample(2);
        let mut bytes = wal.to_bytes();
        bytes[0..8].copy_from_slice(&7u64.to_le_bytes());
        assert_eq!(
            ManagerWal::from_bytes(&bytes).unwrap_err(),
            WalError::SequenceGap {
                found: 7,
                expected: 0
            }
        );
    }

    #[test]
    fn replay_next_if_leaves_mismatches_pending() {
        let wal = sample(1);
        let mut loaded = ManagerWal::from_bytes(&wal.to_bytes()).unwrap();
        assert!(loaded
            .replay_next_if(|r| matches!(r, WalRecord::Morph { .. }))
            .is_none());
        assert_eq!(loaded.remaining(), 2, "mismatch must not consume");
        assert!(loaded
            .replay_next_if(|r| matches!(r, WalRecord::Checkpoint { .. }))
            .is_some());
        assert_eq!(loaded.remaining(), 1);
    }

    #[test]
    fn walio_only_consumes_plan_attempt_records() {
        let wal = sample(1); // Checkpoint, then DegradedEnter.
        let mut loaded = ManagerWal::from_bytes(&wal.to_bytes()).unwrap();
        assert!(
            loaded.replay_next_attempt().is_none(),
            "a checkpoint is not a plan-attempt record"
        );
        loaded.replay_next().unwrap();
        assert!(matches!(
            loaded.replay_next_attempt(),
            Some(WalRecord::DegradedEnter { .. })
        ));
    }

    #[test]
    fn appending_after_replay_extends_the_same_log() {
        let wal = sample(2);
        let mut loaded = ManagerWal::from_bytes(&wal.truncated_bytes(2)).unwrap();
        while loaded.replay_next().is_some() {}
        loaded.append(WalRecord::VmReadmitted {
            t_hours: 9.0,
            vm: 3,
        });
        let full = ManagerWal::from_bytes(&loaded.to_bytes()).unwrap();
        assert_eq!(full.len(), 3);
        assert_eq!(full.records()[..2], wal.records()[..2]);
    }

    #[test]
    fn empty_logs_round_trip() {
        let wal = ManagerWal::new();
        assert!(wal.is_empty());
        let loaded = ManagerWal::from_bytes(&wal.to_bytes()).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(loaded.torn(), None);
    }
}
