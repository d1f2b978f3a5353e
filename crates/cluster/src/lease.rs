//! Shared-market capacity accounting: per-job VM leases.
//!
//! When many jobs share one contended spot pool, the cloud grants VMs to
//! the *fleet*, and a control plane decides which job each VM works for.
//! [`LeaseBook`] is that ledger: it tracks every granted VM, which job (if
//! any) holds its lease, and enforces the conservation invariant that
//! leased capacity can never exceed granted capacity. All state lives in
//! `BTreeMap`s so iteration — and therefore every allocation decision
//! derived from it — is deterministic.
//!
//! # Cost
//!
//! The per-VM entries are the ledger; next to them the book keeps the
//! granted and leased GPU totals, each job's GPUs and VM set, and the free
//! VM set, and every update ([`LeaseBook::grant`], [`LeaseBook::preempt`],
//! [`LeaseBook::lease`], [`LeaseBook::release`]) keeps them current in
//! O(log V + log J) for V granted VMs and J jobs holding leases. So the
//! queries an arbitration round makes do not scan the other VMs:
//!
//! - [`LeaseBook::capacity_gpus`] and [`LeaseBook::leased_gpus`]: O(1);
//! - [`LeaseBook::job_gpus`]: O(log J);
//! - [`LeaseBook::job_vms`]: O(log J + k) for the job's k VMs;
//! - [`LeaseBook::free_vms`]: O(f) for the f unleased VMs.
//!
//! [`LeaseBook::check_conservation`] is the one full scan, O(V log V): it
//! recounts every total from the entries and fails if a kept one
//! disagrees.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use crate::error::ClusterError;

/// A fleet job identifier (dense, assigned by the control plane).
pub type JobId = u64;

/// One granted VM's ledger entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseEntry {
    /// GPUs on the VM.
    pub gpus: usize,
    /// The job currently leasing the VM, if any.
    pub holder: Option<JobId>,
}

/// One job's leases: its GPUs and its VMs. A job holding nothing has no
/// `JobLeases`, so equal ledgers are equal books.
#[derive(Debug, Clone, Default, PartialEq)]
struct JobLeases {
    gpus: usize,
    vms: BTreeSet<u64>,
}

/// The fleet's ledger of granted VMs and per-job leases.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LeaseBook {
    vms: BTreeMap<u64, LeaseEntry>,
    /// Sum of every entry's GPUs.
    capacity: usize,
    /// Sum of the leased entries' GPUs.
    leased: usize,
    /// Unleased VMs and their GPUs.
    free: BTreeMap<u64, usize>,
    jobs: BTreeMap<JobId, JobLeases>,
}

impl LeaseBook {
    /// An empty ledger.
    pub fn new() -> Self {
        LeaseBook::default()
    }

    /// Records a market grant of `vm` with `gpus` GPUs (unleased).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidConfig`] if the VM is already
    /// granted or has zero GPUs.
    pub fn grant(&mut self, vm: u64, gpus: usize) -> Result<(), ClusterError> {
        if gpus == 0 {
            return Err(ClusterError::InvalidConfig(format!(
                "vm {vm} granted with zero GPUs"
            )));
        }
        if self.vms.contains_key(&vm) {
            return Err(ClusterError::InvalidConfig(format!(
                "vm {vm} granted twice without an intervening preemption"
            )));
        }
        self.vms.insert(vm, LeaseEntry { gpus, holder: None });
        self.capacity += gpus;
        self.free.insert(vm, gpus);
        Ok(())
    }

    /// Records a market preemption of `vm`, returning its entry: the GPUs
    /// that left the market and the job whose lease died with them, if
    /// any. Unknown VMs are ignored (`None`) — the market can preempt
    /// capacity the fleet already lost track of.
    pub fn preempt(&mut self, vm: u64) -> Option<LeaseEntry> {
        let e = self.vms.remove(&vm)?;
        self.capacity -= e.gpus;
        match e.holder {
            Some(job) => self.drop_lease(vm, e.gpus, job),
            None => {
                self.free.remove(&vm);
            }
        }
        Some(e)
    }

    /// Leases `vm` to `job`.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidConfig`] if the VM is unknown or
    /// already leased to another job.
    pub fn lease(&mut self, vm: u64, job: JobId) -> Result<(), ClusterError> {
        let Some(e) = self.vms.get_mut(&vm) else {
            return Err(ClusterError::InvalidConfig(format!(
                "cannot lease unknown vm {vm}"
            )));
        };
        match e.holder {
            Some(j) if j == job => Ok(()),
            Some(j) => Err(ClusterError::InvalidConfig(format!(
                "vm {vm} already leased to job {j}"
            ))),
            None => {
                e.holder = Some(job);
                let gpus = e.gpus;
                self.free.remove(&vm);
                self.leased += gpus;
                let l = self.jobs.entry(job).or_default();
                l.gpus += gpus;
                l.vms.insert(vm);
                Ok(())
            }
        }
    }

    /// Releases `vm` back to the unleased pool (arbiter revocation).
    /// Returns the previous holder and the GPUs it gave up, `None` if the
    /// VM was unleased or unknown.
    pub fn release(&mut self, vm: u64) -> Option<(JobId, usize)> {
        let e = self.vms.get_mut(&vm)?;
        let job = e.holder.take()?;
        let gpus = e.gpus;
        self.free.insert(vm, gpus);
        self.drop_lease(vm, gpus, job);
        Some((job, gpus))
    }

    /// Removes `vm` (with `gpus`) from `job`'s leases and the leased total.
    fn drop_lease(&mut self, vm: u64, gpus: usize, job: JobId) {
        self.leased -= gpus;
        if let Entry::Occupied(mut o) = self.jobs.entry(job) {
            let l = o.get_mut();
            l.gpus -= gpus;
            l.vms.remove(&vm);
            if l.vms.is_empty() {
                o.remove();
            }
        }
    }

    /// Total GPUs the market currently grants the fleet.
    pub fn capacity_gpus(&self) -> usize {
        self.capacity
    }

    /// Total GPUs leased out to jobs.
    pub fn leased_gpus(&self) -> usize {
        self.leased
    }

    /// GPUs currently leased to `job`.
    pub fn job_gpus(&self, job: JobId) -> usize {
        self.jobs.get(&job).map_or(0, |l| l.gpus)
    }

    /// VMs currently leased to `job`, ascending by VM id.
    pub fn job_vms(&self, job: JobId) -> Vec<u64> {
        self.jobs
            .get(&job)
            .map_or_else(Vec::new, |l| l.vms.iter().copied().collect())
    }

    /// Unleased VMs as `(vm, gpus)`, ascending by VM id.
    pub fn free_vms(&self) -> Vec<(u64, usize)> {
        self.free.iter().map(|(&vm, &gpus)| (vm, gpus)).collect()
    }

    /// The conservation invariant: leased capacity never exceeds granted
    /// capacity, and every total and set the book keeps equals a recount
    /// over the entries. Callers check it once per arbitration round, so
    /// an update that forgets an index cannot silently skew an
    /// allocation.
    pub fn check_conservation(&self) -> Result<(), ClusterError> {
        let drift = |what: &str| {
            Err(ClusterError::InvalidConfig(format!(
                "lease book drift: {what} disagrees with its entries"
            )))
        };
        let (mut capacity, mut leased, mut indexed) = (0usize, 0usize, 0usize);
        let mut by_job: BTreeMap<JobId, usize> = BTreeMap::new();
        for (vm, e) in &self.vms {
            capacity += e.gpus;
            let in_index = match e.holder {
                Some(j) => {
                    leased += e.gpus;
                    *by_job.entry(j).or_insert(0) += e.gpus;
                    self.jobs.get(&j).is_some_and(|l| l.vms.contains(vm))
                }
                None => self.free.get(vm) == Some(&e.gpus),
            };
            if !in_index {
                return drift(&format!("the index of vm {vm}"));
            }
        }
        if leased > capacity {
            return Err(ClusterError::InvalidConfig(format!(
                "lease conservation violated: {leased} GPUs leased of {capacity} granted"
            )));
        }
        if capacity != self.capacity {
            return drift("the granted GPU total");
        }
        if leased != self.leased {
            return drift("the leased GPU total");
        }
        for (j, l) in &self.jobs {
            if by_job.remove(j) != Some(l.gpus) {
                return drift(&format!("job {j}'s GPU total"));
            }
            indexed += l.vms.len();
        }
        if !by_job.is_empty() {
            return drift("the set of jobs holding leases");
        }
        if indexed + self.free.len() != self.vms.len() {
            return drift("the VM indices' size");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    #[test]
    fn grant_lease_release_preempt_lifecycle() {
        let mut book = LeaseBook::new();
        book.grant(0, 1).unwrap();
        book.grant(1, 4).unwrap();
        assert_eq!(book.capacity_gpus(), 5);
        assert_eq!(book.leased_gpus(), 0);

        book.lease(0, 7).unwrap();
        book.lease(1, 7).unwrap();
        assert_eq!(book.job_gpus(7), 5);
        assert_eq!(book.job_vms(7), vec![0, 1]);
        book.check_conservation().unwrap();

        assert_eq!(book.release(1), Some((7, 4)));
        assert_eq!(book.job_gpus(7), 1);
        assert_eq!(book.free_vms(), vec![(1, 4)]);

        let leased = LeaseEntry {
            gpus: 1,
            holder: Some(7),
        };
        assert_eq!(book.preempt(0), Some(leased), "market kills the leased VM");
        let free = LeaseEntry {
            gpus: 4,
            holder: None,
        };
        assert_eq!(book.preempt(1), Some(free), "unleased VM dies quietly");
        assert_eq!(book.preempt(1), None, "unknown VM is ignored");
        assert_eq!(book.capacity_gpus(), 0);
        assert_eq!(book, LeaseBook::new(), "an emptied book is a new book");
    }

    #[test]
    fn double_grant_and_foreign_lease_are_typed_errors() {
        let mut book = LeaseBook::new();
        book.grant(3, 1).unwrap();
        assert!(book.grant(3, 1).is_err());
        assert!(book.grant(4, 0).is_err());
        book.lease(3, 1).unwrap();
        assert!(book.lease(3, 2).is_err(), "no lease theft");
        book.lease(3, 1).unwrap(); // re-lease to the same job is idempotent
        assert_eq!(book.job_gpus(1), 1);
        assert!(book.lease(99, 1).is_err(), "unknown vm");
    }

    #[test]
    fn conservation_recounts_the_entries() {
        let mut book = LeaseBook::new();
        for vm in 0..6 {
            book.grant(vm, 1).unwrap();
            book.lease(vm, vm % 2).unwrap();
        }
        book.check_conservation().unwrap();

        // Each kept total or set, skewed alone, is caught.
        let mut skewed = book.clone();
        skewed.capacity += 1;
        assert!(skewed.check_conservation().is_err(), "capacity");
        let mut skewed = book.clone();
        skewed.leased -= 1;
        assert!(skewed.check_conservation().is_err(), "leased");
        let mut skewed = book.clone();
        skewed.jobs.get_mut(&1).unwrap().gpus += 1;
        assert!(skewed.check_conservation().is_err(), "per-job GPUs");
        let mut skewed = book.clone();
        skewed.jobs.get_mut(&1).unwrap().vms.insert(0);
        assert!(skewed.check_conservation().is_err(), "per-job VM set");
        let mut skewed = book.clone();
        skewed.free.insert(2, 1);
        assert!(skewed.check_conservation().is_err(), "free set");
    }

    /// Every query, recounted over the entries the way the book answered
    /// before it kept totals.
    fn assert_queries_match_entries(book: &LeaseBook) -> Result<(), TestCaseError> {
        let held = |j: JobId| book.vms.iter().filter(move |(_, e)| e.holder == Some(j));
        prop_assert_eq!(
            book.capacity_gpus(),
            book.vms.values().map(|e| e.gpus).sum::<usize>()
        );
        prop_assert_eq!(
            book.leased_gpus(),
            book.vms
                .values()
                .filter(|e| e.holder.is_some())
                .map(|e| e.gpus)
                .sum::<usize>()
        );
        for j in 0..JOBS {
            prop_assert_eq!(
                book.job_gpus(j),
                held(j).map(|(_, e)| e.gpus).sum::<usize>()
            );
            prop_assert_eq!(
                book.job_vms(j),
                held(j).map(|(&vm, _)| vm).collect::<Vec<_>>()
            );
        }
        let free: Vec<(u64, usize)> = book
            .vms
            .iter()
            .filter(|(_, e)| e.holder.is_none())
            .map(|(&vm, e)| (vm, e.gpus))
            .collect();
        prop_assert_eq!(book.free_vms(), free);
        prop_assert!(book.check_conservation().is_ok());
        Ok(())
    }

    const VMS: u64 = 6;
    const JOBS: u64 = 3;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random grant/preempt/lease/release sequences over a few VMs
        /// and jobs, error paths included (zero-GPU grant, double grant,
        /// foreign lease, unknown VM): every query equals a recount over
        /// the entries after every step, and a rejected update leaves
        /// the book as it was.
        #[test]
        fn queries_always_equal_a_recount(ops in proptest::collection::vec(any::<u64>(), 0..80)) {
            let mut book = LeaseBook::new();
            for &op in &ops {
                // An op often names a VM that is not granted (unknown);
                // zero GPUs come up one draw in four.
                let vm = (op >> 2) % VMS;
                let job = (op >> 8) % JOBS;
                let gpus = ((op >> 16) % 4) as usize;
                let before = book.clone();
                match op % 4 {
                    0 => {
                        let known = book.vms.contains_key(&vm);
                        let r = book.grant(vm, gpus);
                        prop_assert_eq!(r.is_ok(), gpus > 0 && !known);
                        if r.is_err() {
                            prop_assert_eq!(&book, &before);
                        }
                    }
                    1 => {
                        let r = book.preempt(vm);
                        prop_assert_eq!(r, before.vms.get(&vm).copied());
                    }
                    2 => {
                        let holder = book.vms.get(&vm).map(|e| e.holder);
                        let r = book.lease(vm, job);
                        let ok = matches!(holder, Some(None)) || holder == Some(Some(job));
                        prop_assert_eq!(r.is_ok(), ok);
                        if r.is_err() || holder == Some(Some(job)) {
                            prop_assert_eq!(&book, &before);
                        }
                    }
                    _ => {
                        let r = book.release(vm);
                        let lost = before
                            .vms
                            .get(&vm)
                            .and_then(|e| e.holder.map(|j| (j, e.gpus)));
                        prop_assert_eq!(r, lost);
                        if r.is_none() {
                            prop_assert_eq!(&book, &before);
                        }
                    }
                }
                assert_queries_match_entries(&book)?;
            }
        }
    }
}
