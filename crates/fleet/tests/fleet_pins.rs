//! Byte-level pins of whole fleet runs: the outcome digest, the FNV of
//! the fleet write-ahead log and every job's event count, for a
//! `fleet_market`-shaped fleet of identical jobs and for a mixed fleet
//! whose jobs differ in model, `m_total` and micro-batch. How a job comes
//! by its plans (planned fresh, served from a cache, restored from the
//! log) must not move any of them, and a recovery from a mid-log kill
//! must reproduce them as well.

use varuna_cluster::trace::ClusterTrace;
use varuna_fleet::{
    recover_fleet, run_fleet_walled, FleetConfig, FleetRun, FleetWal, JobSpec, ProvisionPolicy,
};
use varuna_models::{ModelZoo, TransformerConfig};

/// FNV-1a over raw bytes.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn job(name: String, model: TransformerConfig, m_total: usize, micro: usize) -> JobSpec {
    JobSpec {
        name,
        model,
        m_total,
        micro,
        weight: 1.0,
        demand_gpus: 24,
        floor_gpus: 12,
    }
}

/// Twelve identical GPT-2 355M jobs, spot only: the `fleet_market` fleet.
fn identical_fleet() -> FleetConfig {
    let jobs = (0..12)
        .map(|i| job(format!("gpt2-355m-{i}"), ModelZoo::gpt2_355m(), 1024, 4))
        .collect();
    FleetConfig::new(jobs).with_policy(ProvisionPolicy::SpotOnly)
}

/// Jobs that differ in model, `m_total` or micro-batch, with a repeat of
/// each so that identical jobs also sit beside different ones.
fn mixed_fleet() -> FleetConfig {
    let shapes = [
        (ModelZoo::gpt2_355m(), 1024, 4),
        (ModelZoo::gpt2_355m(), 512, 4),
        (ModelZoo::bert_large(), 1024, 4),
        (ModelZoo::gpt2_355m(), 1024, 2),
    ];
    let jobs = (0..8)
        .map(|i| {
            let (model, m_total, micro) = shapes[i % shapes.len()].clone();
            job(
                format!("{}-{m_total}-{micro}-{i}", model.name),
                model,
                m_total,
                micro,
            )
        })
        .collect();
    FleetConfig::new(jobs).with_policy(ProvisionPolicy::SpotOnly)
}

/// A contended market: hosts for 45% of the fleet's demand, as in the
/// fleet sweep.
fn market(cfg: &FleetConfig, hours: f64, seed: u64) -> ClusterTrace {
    let hosts = cfg.jobs.iter().map(|j| j.demand_gpus).sum::<usize>() * 9 / 20;
    ClusterTrace::generate_spot_1gpu(hosts, hosts, hours, 10.0, seed)
}

/// What a fleet run is pinned by: the outcome digest, the log's FNV and
/// the per-job event counts.
fn pins(run: &FleetRun, wal: &FleetWal) -> (u64, u64, Vec<usize>) {
    let events = run.outcome.per_job.iter().map(|j| j.events).collect();
    (run.outcome.digest, fnv(&wal.to_bytes()), events)
}

/// Runs `cfg` on `market`, checks the pins, then kills the run halfway
/// through its log and checks that recovery lands on the same pins.
fn check(cfg: &FleetConfig, market: &ClusterTrace, expected: (u64, u64, &[usize])) {
    let mut wal = FleetWal::new();
    let run = run_fleet_walled(cfg, market, &mut wal).expect("valid fleet");
    assert_eq!(run.outcome.capacity_violations, 0);
    assert_eq!(run.outcome.fairness_violations, 0);
    assert!(run.stream.all_clean(), "a bus streamed unclean");
    let got = pins(&run, &wal);
    assert_eq!(
        (got.0, got.1, got.2.as_slice()),
        expected,
        "fleet pins moved: digest {:#018x}, wal {:#018x}, events {:?}",
        got.0,
        got.1,
        got.2
    );

    let half = wal.len() / 2;
    let mut recovered = FleetWal::from_bytes(&wal.truncated_bytes(half)).expect("prefix loads");
    let (again, report) = recover_fleet(cfg, market, &mut recovered).expect("recovery");
    assert_eq!(report.replayed_records, half);
    assert_eq!(again.job_events, run.job_events);
    assert_eq!(pins(&again, &recovered), got, "recovery moved the pins");
}

#[test]
fn a_fleet_of_identical_jobs_is_pinned() {
    let cfg = identical_fleet();
    let market = market(&cfg, 96.0, 5);
    let events = [558, 558, 558, 558, 558, 849, 849, 849, 849, 559, 874, 850];
    check(
        &cfg,
        &market,
        (0x7e64_81d1_4028_b94d, 0xe1b1_7cb2_980b_271c, &events),
    );
}

#[test]
fn a_mixed_fleet_is_pinned() {
    let cfg = mixed_fleet();
    let market = market(&cfg, 96.0, 3);
    let events = [560, 557, 558, 557, 859, 859, 554, 852];
    check(
        &cfg,
        &market,
        (0x51b4_e06e_fab9_1ad5, 0x3e81_2557_cf54_e838, &events),
    );
}
