//! Hostile write-ahead-log bytes. Real `ManagerWal` and `FleetWal` images
//! are flipped, truncated and spliced, and frames are re-checksummed over
//! mutated JSON payloads so the record decoder itself is reached. Every
//! input must load to `Ok` or a typed `WalError`, never a panic; the
//! direct reader (`serde_json::from_str`) must agree with the `Value`
//! tree (`from_value` of `parse_value`) on every mutated payload; and a
//! spliced log of real records that loads must recover to `Ok` or
//! `WalError::Diverged`, never another error and never a panic.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use proptest::prelude::*;
use serde::Deserialize;
use varuna::manager::Manager;
use varuna::wal::{fnv1a, Wal, FRAME_HEADER_BYTES};
use varuna::{Calibration, ManagerWal, VarunaCluster, VarunaError, WalError, WalRecord};
use varuna_cluster::trace::ClusterTrace;
use varuna_fleet::{
    recover_fleet, run_fleet_walled, FleetConfig, FleetError, FleetWal, FleetWalRecord, JobSpec,
};
use varuna_models::ModelZoo;
use varuna_obs::EventBus;

fn calib() -> &'static Calibration {
    static CALIB: OnceLock<Calibration> = OnceLock::new();
    CALIB.get_or_init(|| {
        Calibration::profile(&ModelZoo::gpt2_355m(), &VarunaCluster::commodity_1gpu(8))
    })
}

fn manager_trace() -> &'static ClusterTrace {
    static TRACE: OnceLock<ClusterTrace> = OnceLock::new();
    TRACE.get_or_init(|| ClusterTrace::generate_spot_1gpu(8, 8, 3.0, 10.0, 5))
}

/// Replays the manager trace against `wal`, recovering when it holds
/// records.
fn run_manager(wal: &mut ManagerWal) -> Result<(), VarunaError> {
    Manager::new(calib(), 512, 4)
        .with_fallback()
        .recover_on_bus(manager_trace(), &mut EventBus::new(), wal)
        .map(|_| ())
}

/// The uninterrupted manager run's log.
fn manager_log() -> &'static [WalRecord] {
    static LOG: OnceLock<Vec<WalRecord>> = OnceLock::new();
    LOG.get_or_init(|| {
        let mut wal = ManagerWal::new();
        run_manager(&mut wal).expect("reference manager run");
        wal.records().to_vec()
    })
}

fn fleet() -> &'static (FleetConfig, ClusterTrace) {
    static FLEET: OnceLock<(FleetConfig, ClusterTrace)> = OnceLock::new();
    FLEET.get_or_init(|| {
        let job = |name: &str, demand_gpus, floor_gpus| JobSpec {
            name: name.to_string(),
            model: ModelZoo::gpt2_355m(),
            m_total: 512,
            micro: 4,
            weight: 1.0,
            demand_gpus,
            floor_gpus,
        };
        let cfg = FleetConfig::new(vec![job("a", 6, 2), job("b", 4, 0)]);
        (cfg, ClusterTrace::generate_spot_1gpu(8, 4, 2.0, 15.0, 3))
    })
}

/// The uninterrupted fleet run's log.
fn fleet_log() -> &'static [FleetWalRecord] {
    static LOG: OnceLock<Vec<FleetWalRecord>> = OnceLock::new();
    LOG.get_or_init(|| {
        let (cfg, market) = fleet();
        let mut wal = FleetWal::new();
        run_fleet_walled(cfg, market, &mut wal).expect("reference fleet run");
        wal.records().to_vec()
    })
}

/// A log holding exactly `records`.
fn log_of<R: Clone>(records: &[R]) -> Wal<R> {
    let mut wal = Wal::new();
    for r in records {
        wal.append(r.clone());
    }
    wal
}

/// Applies one byte-level mutation to `bytes`: flip the bits of one byte,
/// truncate, or overwrite a run with a chunk copied from elsewhere in the
/// image (which duplicates or drops frame headers and payload text).
fn mutate(bytes: &[u8], op: usize, at: usize, from: usize, len: usize, mask: u8) -> Vec<u8> {
    let n = bytes.len();
    let at = at % (n + 1);
    let mut out = bytes.to_vec();
    match op {
        0 => {
            if at < n {
                out[at] ^= mask.max(1);
            }
        }
        1 => out.truncate(at),
        _ => {
            let from = from % n;
            let chunk = bytes[from..(from + len).min(n)].to_vec();
            out.splice(at..(at + len).min(n), chunk);
        }
    }
    out
}

/// Mutates the JSON payload of frame `frame` (modulo the frame count) of
/// a well-formed image and re-frames it with a matching length and
/// checksum, so the loader gets past its framing checks to the decoder.
/// Returns the image and the mutated payload.
fn mutate_payload(
    image: &[u8],
    frame: usize,
    op: usize,
    at: usize,
    from: usize,
    len: usize,
    mask: u8,
) -> (Vec<u8>, Vec<u8>) {
    let mut frames = Vec::new();
    let mut pos = 0;
    while pos < image.len() {
        let len = u32::from_le_bytes(image[pos + 8..pos + 12].try_into().unwrap()) as usize;
        frames.push(pos..pos + FRAME_HEADER_BYTES + len);
        pos += FRAME_HEADER_BYTES + len;
    }
    let target = frames[frame % frames.len()].clone();
    let payload = mutate(
        &image[target.start + FRAME_HEADER_BYTES..target.end],
        op,
        at,
        from,
        len,
        mask,
    );
    let mut out = image[..target.start].to_vec();
    out.extend_from_slice(&image[target.start..target.start + 8]);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&image[target.end..]);
    (out, payload)
}

/// Whether the direct reader and the `Value` tree decode `payload` alike
/// as an `R`: both `Ok` with equal records, or both `Err`. Payloads that
/// are not UTF-8 never reach either reader.
fn readers_agree<R: Deserialize + PartialEq + Debug>(payload: &[u8]) -> Result<(), String> {
    let Ok(text) = std::str::from_utf8(payload) else {
        return Ok(());
    };
    let direct = serde_json::from_str::<R>(text);
    let tree = serde_json::parse_value(text)
        .map_err(|e| e.to_string())
        .and_then(|v| R::from_value(&v).map_err(|e| e.to_string()));
    match (&direct, &tree) {
        (Ok(a), Ok(b)) if a == b => Ok(()),
        (Err(_), Err(_)) => Ok(()),
        _ => Err(format!("{text:?}: direct {direct:?}, tree {tree:?}")),
    }
}

/// Whether loading `bytes` as both log kinds returns without a panic.
fn loads_without_panic(bytes: &[u8]) -> bool {
    catch_unwind(|| {
        let _ = ManagerWal::from_bytes(bytes);
        let _ = FleetWal::from_bytes(bytes);
    })
    .is_ok()
}

/// The first `keep` records of `log` (modulo its length plus one), then
/// records `[from, from + len)` (clamped to its end): a real prefix
/// followed by dropped, duplicated or reordered real records.
fn splice<R: Clone>(log: &[R], keep: usize, from: usize, len: usize) -> Vec<R> {
    let keep = keep % (log.len() + 1);
    let from = from % log.len();
    let mut out = log[..keep].to_vec();
    out.extend_from_slice(&log[from..(from + len).min(log.len())]);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Flipped, truncated and self-spliced images, and images whose
    /// mutated payloads were re-checksummed, load to `Ok` or a typed
    /// `WalError` as either log kind.
    #[test]
    fn mutated_wal_images_never_panic_the_decoder(
        fleet_image in any::<bool>(),
        op in 0usize..3,
        frame in 0usize..1_000,
        at in 0usize..1_000_000,
        from in 0usize..1_000_000,
        len in 1usize..64,
        mask in any::<u8>(),
    ) {
        let image = if fleet_image {
            log_of(fleet_log()).to_bytes()
        } else {
            log_of(manager_log()).to_bytes()
        };
        let bytes = mutate(&image, op, at, from, len, mask);
        prop_assert!(loads_without_panic(&bytes), "loader panicked on {bytes:?}");
        let (bytes, payload) = mutate_payload(&image, frame, op, at, from, len, mask);
        prop_assert!(
            loads_without_panic(&bytes),
            "decoder panicked on {:?}",
            String::from_utf8_lossy(&bytes)
        );
        let agree = readers_agree::<WalRecord>(&payload)
            .and_then(|()| readers_agree::<FleetWalRecord>(&payload));
        prop_assert!(agree.is_ok(), "readers disagree on {}", agree.unwrap_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A log spliced from windows of the run's own records loads, and
    /// recovering the run from it either succeeds or reports the first
    /// record that does not belong as `WalError::Diverged`.
    #[test]
    fn spliced_logs_of_real_records_recover_or_diverge(
        keep in 0usize..1_000,
        from in 0usize..1_000,
        len in 1usize..8,
    ) {
        let records = splice(manager_log(), keep, from, len);
        let mut wal = ManagerWal::from_bytes(&log_of(&records).to_bytes())
            .expect("a well-formed manager log loads");
        let got = catch_unwind(AssertUnwindSafe(|| run_manager(&mut wal)));
        prop_assert!(
            matches!(got, Ok(Ok(())) | Ok(Err(VarunaError::Wal(WalError::Diverged { .. })))),
            "manager recovery from {records:?} gave {got:?}"
        );

        let records = splice(fleet_log(), keep, from, len);
        let mut wal = FleetWal::from_bytes(&log_of(&records).to_bytes())
            .expect("a well-formed fleet log loads");
        let (cfg, market) = fleet();
        let got = catch_unwind(AssertUnwindSafe(|| {
            recover_fleet(cfg, market, &mut wal).map(|_| ())
        }));
        prop_assert!(
            matches!(got, Ok(Ok(())) | Ok(Err(FleetError::Wal(WalError::Diverged { .. })))),
            "fleet recovery from {records:?} gave {got:?}"
        );
    }
}
