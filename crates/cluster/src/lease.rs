//! Shared-market capacity accounting: per-job VM leases.
//!
//! When many jobs share one contended spot pool, the cloud grants VMs to
//! the *fleet*, and a control plane decides which job each VM works for.
//! [`LeaseBook`] is that ledger: it tracks every granted VM, which job (if
//! any) holds its lease, and enforces the conservation invariant that
//! leased capacity can never exceed granted capacity. Every list in it is
//! kept sorted by id, so iteration — and therefore every allocation
//! decision derived from it — is deterministic.
//!
//! # Cost
//!
//! The per-VM entries are the ledger, a vector sorted by VM id. Next to
//! them the book keeps the granted and leased GPU totals, the free VMs in
//! a vector sorted by VM id, and each job's GPUs and sorted VM list in a
//! small vector sorted by [`JobId`] (a job id is any `u64`, so jobs are
//! found by binary search, never indexed by id). Every update
//! ([`LeaseBook::grant`], [`LeaseBook::preempt`], [`LeaseBook::lease`],
//! [`LeaseBook::release`]) is a binary search in each list it touches
//! plus a `memmove` of that list's tail: O(log V + log J) comparisons for
//! V granted VMs and J jobs holding leases, and at most V words moved on
//! a contiguous array. Releasing a job's newest VM, as the arbiter does,
//! moves nothing in the job's list. The queries do not scan the other
//! VMs:
//!
//! - [`LeaseBook::capacity_gpus`] and [`LeaseBook::leased_gpus`]: O(1);
//! - [`LeaseBook::job_gpus`]: O(log J);
//! - [`LeaseBook::job_vms`]: O(log J), a slice of the job's VMs;
//! - [`LeaseBook::free_vms`]: O(1), a slice of the unleased VMs.
//!
//! [`LeaseBook::check_conservation`] is the one full scan,
//! O(V (log J + log V)): it checks that every list is sorted, checks
//! every entry against its index, recounts every total from the entries,
//! and fails if a kept one or an index size disagrees.

use crate::error::ClusterError;

/// A fleet job identifier, assigned by the control plane. Any `u64`.
pub type JobId = u64;

/// One granted VM's ledger entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseEntry {
    /// GPUs on the VM.
    pub gpus: usize,
    /// The job currently leasing the VM, if any.
    pub holder: Option<JobId>,
}

/// One job's leases: its GPUs and its VMs, ascending. A job holding
/// nothing has no `JobLeases`, so equal ledgers are equal books.
#[derive(Debug, Clone, PartialEq)]
struct JobLeases {
    job: JobId,
    gpus: usize,
    vms: Vec<u64>,
}

/// The fleet's ledger of granted VMs and per-job leases.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LeaseBook {
    /// Every granted VM and its entry, ascending by VM id.
    vms: Vec<(u64, LeaseEntry)>,
    /// Sum of every entry's GPUs.
    capacity: usize,
    /// Sum of the leased entries' GPUs.
    leased: usize,
    /// Unleased VMs and their GPUs, ascending by VM id.
    free: Vec<(u64, usize)>,
    /// Jobs holding at least one lease, ascending by job id.
    jobs: Vec<JobLeases>,
}

/// Inserts `item` into `list`, which is sorted by `key`, unless an item
/// with its key is already there.
fn insert_sorted<T>(list: &mut Vec<T>, item: T, key: impl Fn(&T) -> u64) {
    if let Err(at) = list.binary_search_by_key(&key(&item), &key) {
        list.insert(at, item);
    }
}

/// Removes the item keyed `k` from `list`, which is sorted by `key`.
fn remove_sorted<T>(list: &mut Vec<T>, k: u64, key: impl Fn(&T) -> u64) {
    if let Ok(at) = list.binary_search_by_key(&k, key) {
        list.remove(at);
    }
}

/// Whether `list`'s keys strictly ascend.
fn ascending<T>(list: &[T], key: impl Fn(&T) -> u64) -> bool {
    list.windows(2).all(|w| key(&w[0]) < key(&w[1]))
}

impl LeaseBook {
    /// An empty ledger.
    pub fn new() -> Self {
        LeaseBook::default()
    }

    /// Where `vm`'s entry is, or would be inserted.
    fn find(&self, vm: u64) -> Result<usize, usize> {
        self.vms.binary_search_by_key(&vm, |&(id, _)| id)
    }

    /// Where `job`'s leases are, or would be inserted.
    fn find_job(&self, job: JobId) -> Result<usize, usize> {
        self.jobs.binary_search_by_key(&job, |l| l.job)
    }

    /// Records a market grant of `vm` with `gpus` GPUs (unleased).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidConfig`] and leaves the book
    /// unchanged if the VM is already granted, has zero GPUs, or would
    /// overflow the granted GPU total.
    pub fn grant(&mut self, vm: u64, gpus: usize) -> Result<(), ClusterError> {
        if gpus == 0 {
            return Err(ClusterError::InvalidConfig(format!(
                "vm {vm} granted with zero GPUs"
            )));
        }
        let Err(at) = self.find(vm) else {
            return Err(ClusterError::InvalidConfig(format!(
                "vm {vm} granted twice without an intervening preemption"
            )));
        };
        let Some(capacity) = self.capacity.checked_add(gpus) else {
            return Err(ClusterError::InvalidConfig(format!(
                "vm {vm}'s {gpus} GPUs overflow the {} GPUs already granted",
                self.capacity
            )));
        };
        self.vms.insert(at, (vm, LeaseEntry { gpus, holder: None }));
        self.capacity = capacity;
        insert_sorted(&mut self.free, (vm, gpus), |&(id, _)| id);
        Ok(())
    }

    /// Records a market preemption of `vm`, returning its entry: the GPUs
    /// that left the market and the job whose lease died with them, if
    /// any. Unknown VMs are ignored (`None`) — the market can preempt
    /// capacity the fleet already lost track of.
    pub fn preempt(&mut self, vm: u64) -> Option<LeaseEntry> {
        let (_, e) = self.vms.remove(self.find(vm).ok()?);
        self.capacity -= e.gpus;
        match e.holder {
            Some(job) => self.drop_lease(vm, e.gpus, job),
            None => remove_sorted(&mut self.free, vm, |&(id, _)| id),
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
        let Ok(i) = self.find(vm) else {
            return Err(ClusterError::InvalidConfig(format!(
                "cannot lease unknown vm {vm}"
            )));
        };
        let e = &mut self.vms[i].1;
        match e.holder {
            Some(j) if j == job => Ok(()),
            Some(j) => Err(ClusterError::InvalidConfig(format!(
                "vm {vm} already leased to job {j}"
            ))),
            None => {
                e.holder = Some(job);
                let gpus = e.gpus;
                remove_sorted(&mut self.free, vm, |&(id, _)| id);
                self.leased += gpus;
                let at = self.find_job(job).unwrap_or_else(|at| {
                    let l = JobLeases {
                        job,
                        gpus: 0,
                        vms: Vec::new(),
                    };
                    self.jobs.insert(at, l);
                    at
                });
                let l = &mut self.jobs[at];
                l.gpus += gpus;
                insert_sorted(&mut l.vms, vm, |&id| id);
                Ok(())
            }
        }
    }

    /// Releases `vm` back to the unleased pool (arbiter revocation).
    /// Returns the previous holder and the GPUs it gave up, `None` if the
    /// VM was unleased or unknown.
    pub fn release(&mut self, vm: u64) -> Option<(JobId, usize)> {
        let i = self.find(vm).ok()?;
        let e = &mut self.vms[i].1;
        let job = e.holder.take()?;
        let gpus = e.gpus;
        insert_sorted(&mut self.free, (vm, gpus), |&(id, _)| id);
        self.drop_lease(vm, gpus, job);
        Some((job, gpus))
    }

    /// Removes `vm` (with `gpus`) from `job`'s leases and the leased total.
    fn drop_lease(&mut self, vm: u64, gpus: usize, job: JobId) {
        self.leased -= gpus;
        if let Ok(at) = self.find_job(job) {
            let l = &mut self.jobs[at];
            l.gpus -= gpus;
            remove_sorted(&mut l.vms, vm, |&id| id);
            if l.vms.is_empty() {
                self.jobs.remove(at);
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
        self.find_job(job).map_or(0, |at| self.jobs[at].gpus)
    }

    /// VMs currently leased to `job`, ascending by VM id.
    pub fn job_vms(&self, job: JobId) -> &[u64] {
        self.find_job(job).map_or(&[], |at| &self.jobs[at].vms)
    }

    /// Unleased VMs as `(vm, gpus)`, ascending by VM id.
    pub fn free_vms(&self) -> &[(u64, usize)] {
        &self.free
    }

    /// The conservation invariant: leased capacity never exceeds granted
    /// capacity, and every total and list the book keeps equals a recount
    /// over the entries. Callers check it once per arbitration round, so
    /// an update that forgets an index cannot silently skew an
    /// allocation.
    pub fn check_conservation(&self) -> Result<(), ClusterError> {
        let drift = |what: &str| {
            Err(ClusterError::InvalidConfig(format!(
                "lease book drift: {what} disagrees with its entries"
            )))
        };
        if !ascending(&self.vms, |&(vm, _)| vm) {
            return drift("the order of the entries");
        }
        if !ascending(&self.free, |&(vm, _)| vm) {
            return drift("the order of the free list");
        }
        if !ascending(&self.jobs, |l| l.job) {
            return drift("the order of the jobs");
        }
        let (mut capacity, mut leased) = (0usize, 0usize);
        let mut by_job = vec![0usize; self.jobs.len()];
        for &(vm, e) in &self.vms {
            let Some(c) = capacity.checked_add(e.gpus) else {
                return drift("the granted GPU total");
            };
            capacity = c;
            let in_index = match e.holder {
                Some(j) => {
                    leased += e.gpus;
                    self.find_job(j).is_ok_and(|at| {
                        by_job[at] += e.gpus;
                        self.jobs[at].vms.binary_search(&vm).is_ok()
                    })
                }
                None => self
                    .free
                    .binary_search_by_key(&vm, |&(id, _)| id)
                    .is_ok_and(|at| self.free[at].1 == e.gpus),
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
        let mut indexed = 0usize;
        for (l, &gpus) in self.jobs.iter().zip(&by_job) {
            if l.vms.is_empty() {
                return drift("the set of jobs holding leases");
            }
            if !ascending(&l.vms, |&vm| vm) {
                return drift(&format!("the order of job {}'s VMs", l.job));
            }
            if gpus != l.gpus {
                return drift(&format!("job {}'s GPU total", l.job));
            }
            indexed += l.vms.len();
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
        assert_eq!(book.job_vms(7), [0, 1]);
        book.check_conservation().unwrap();

        assert_eq!(book.release(1), Some((7, 4)));
        assert_eq!(book.job_gpus(7), 1);
        assert_eq!(book.free_vms(), [(1, 4)]);

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
    fn a_grant_that_overflows_the_gpu_total_is_refused_unchanged() {
        let mut book = LeaseBook::new();
        book.grant(5, usize::MAX).unwrap();
        let before = book.clone();
        assert!(book.grant(6, 1).is_err());
        assert_eq!(book, before);
        book.lease(5, 1 << 40).unwrap();
        assert_eq!(book.leased_gpus(), usize::MAX);
        book.check_conservation().unwrap();
    }

    /// A book over sparse VM ids granted out of order, with two jobs of
    /// sparse ids holding two and three VMs and two VMs free.
    fn sparse_book() -> LeaseBook {
        let mut book = LeaseBook::new();
        for vm in [40, 2, 1 << 33, 0, 31, 5, 9] {
            book.grant(vm, 1 + (vm % 3) as usize).unwrap();
        }
        for (vm, job) in [(40, 7), (0, 7), (31, 1 << 40), (2, 1 << 40), (9, 1 << 40)] {
            book.lease(vm, job).unwrap();
        }
        book
    }

    #[test]
    fn conservation_recounts_the_entries() {
        let book = sparse_book();
        book.check_conservation().unwrap();
        assert_eq!(book.job_vms(7), [0, 40]);
        assert_eq!(book.job_vms(1 << 40), [2, 9, 31]);
        assert_eq!(book.free_vms(), [(5, 3), (1 << 33, 3)]);

        // Each kept total, each per-job list and the free list, skewed
        // alone, is caught.
        type Skew = fn(&mut LeaseBook);
        let skews: [(&str, Skew); 17] = [
            ("capacity", |b| b.capacity += 1),
            ("leased", |b| b.leased -= 1),
            ("a job's GPUs", |b| b.jobs[0].gpus += 1),
            ("the other job's GPUs", |b| b.jobs[1].gpus -= 1),
            ("a job's VM list loses one", |b| {
                b.jobs[0].vms.pop();
            }),
            ("the other job's loses one", |b| {
                b.jobs[1].vms.remove(0);
            }),
            ("a job lists another's VM", |b| b.jobs[0].vms.insert(1, 2)),
            ("a job lists a free VM", |b| b.jobs[1].vms.insert(1, 5)),
            ("a job's VMs out of order", |b| b.jobs[1].vms.reverse()),
            ("a job holding nothing", |b| {
                b.jobs.insert(
                    0,
                    JobLeases {
                        job: 3,
                        gpus: 0,
                        vms: Vec::new(),
                    },
                )
            }),
            ("jobs out of order", |b| b.jobs.reverse()),
            ("the free list loses one", |b| {
                b.free.pop();
            }),
            ("the free list gains a leased VM", |b| {
                b.free.insert(0, (0, 1))
            }),
            ("a free VM's GPUs", |b| b.free[0].1 += 1),
            ("the free list out of order", |b| b.free.reverse()),
            ("the entries out of order", |b| b.vms.swap(0, 1)),
            ("an entry's holder", |b| b.vms[0].1.holder = Some(1 << 40)),
        ];
        for (what, skew) in skews {
            let mut skewed = book.clone();
            skew(&mut skewed);
            assert_ne!(skewed, book, "{what}");
            assert!(skewed.check_conservation().is_err(), "{what}");
        }
    }

    /// The entry of `vm`, looked up by a scan.
    fn entry(book: &LeaseBook, vm: u64) -> Option<LeaseEntry> {
        book.vms.iter().find(|&&(id, _)| id == vm).map(|&(_, e)| e)
    }

    /// Every query, recounted over the entries the way the book answered
    /// before it kept totals.
    fn assert_queries_match_entries(book: &LeaseBook) -> Result<(), TestCaseError> {
        let held = |j: JobId| book.vms.iter().filter(move |(_, e)| e.holder == Some(j));
        prop_assert_eq!(
            book.capacity_gpus(),
            book.vms.iter().map(|(_, e)| e.gpus).sum::<usize>()
        );
        prop_assert_eq!(
            book.leased_gpus(),
            book.vms
                .iter()
                .filter(|(_, e)| e.holder.is_some())
                .map(|(_, e)| e.gpus)
                .sum::<usize>()
        );
        // Job 1 never leases: its queries must read empty.
        for j in JOBS.into_iter().chain([1]) {
            prop_assert_eq!(
                book.job_gpus(j),
                held(j).map(|(_, e)| e.gpus).sum::<usize>()
            );
            let mut vms: Vec<u64> = held(j).map(|&(vm, _)| vm).collect();
            vms.sort_unstable();
            prop_assert_eq!(book.job_vms(j), &vms[..]);
        }
        let mut free: Vec<(u64, usize)> = book
            .vms
            .iter()
            .filter(|(_, e)| e.holder.is_none())
            .map(|&(vm, e)| (vm, e.gpus))
            .collect();
        free.sort_unstable();
        prop_assert_eq!(book.free_vms(), &free[..]);
        prop_assert!(book.check_conservation().is_ok());
        Ok(())
    }

    /// Sparse VM ids, drawn (and so granted) in no particular order.
    const VMS: [u64; 6] = [41, 3, u64::MAX, 1 << 33, 0, 17];
    /// Job ids that are not `0..n`: a book indexed by job id fails.
    const JOBS: [JobId; 3] = [0, 7, 1 << 40];
    /// GPU counts, the zero and overflowing ones included.
    const GPUS: [usize; 4] = [0, 1, 4, usize::MAX];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random grant/preempt/lease/release sequences over a few VMs
        /// and jobs, error paths included (zero-GPU grant, double grant,
        /// overflowing grant, foreign lease, unknown VM): every query
        /// equals a recount over the entries after every step, and a
        /// rejected update leaves the book as it was.
        #[test]
        fn queries_always_equal_a_recount(ops in proptest::collection::vec(any::<u64>(), 0..80)) {
            let mut book = LeaseBook::new();
            for &op in &ops {
                // An op often names a VM that is not granted (unknown);
                // zero GPUs come up one draw in four, and so does a
                // count that overflows the total once anything is
                // granted.
                let vm = VMS[((op >> 2) % VMS.len() as u64) as usize];
                let job = JOBS[((op >> 8) % JOBS.len() as u64) as usize];
                let gpus = GPUS[((op >> 16) % GPUS.len() as u64) as usize];
                let before = book.clone();
                match op % 4 {
                    0 => {
                        let known = entry(&book, vm).is_some();
                        let fits = book.capacity_gpus().checked_add(gpus).is_some();
                        let r = book.grant(vm, gpus);
                        prop_assert_eq!(r.is_ok(), gpus > 0 && !known && fits);
                        if r.is_err() {
                            prop_assert_eq!(&book, &before);
                        }
                    }
                    1 => {
                        let r = book.preempt(vm);
                        prop_assert_eq!(r, entry(&before, vm));
                    }
                    2 => {
                        let holder = entry(&book, vm).map(|e| e.holder);
                        let r = book.lease(vm, job);
                        let ok = matches!(holder, Some(None)) || holder == Some(Some(job));
                        prop_assert_eq!(r.is_ok(), ok);
                        if r.is_err() || holder == Some(Some(job)) {
                            prop_assert_eq!(&book, &before);
                        }
                    }
                    _ => {
                        let r = book.release(vm);
                        let lost = entry(&before, vm).and_then(|e| e.holder.map(|j| (j, e.gpus)));
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
