//! Pins the unit-time Varuna schedules' output, bit for bit.
//!
//! An FNV-1a digest over `(p, n_micro, window, per_stage,
//! makespan.to_bits())` of every Varuna schedule (the kernel at unit
//! times) for `p ≤ 8`, `n ≤ 16` and six stash windows. A refactor of the
//! kernel that moves a single op or makespan bit changes the digest. The
//! GPipe half, rendered by the emulator, is pinned in `varuna-exec`'s
//! `unit_schedules` tests.

use varuna_sched::schedule::{generate_schedule, StaticSchedule};

const WINDOWS: [usize; 6] = [1, 2, 3, 4, 8, usize::MAX];

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

fn fold(h: &mut u64, window: usize, s: &StaticSchedule) {
    for x in [s.p, s.n_micro, window] {
        fnv(h, &(x as u64).to_le_bytes());
    }
    for ops in &s.per_stage {
        fnv(h, &(ops.len() as u64).to_le_bytes());
        for op in ops {
            fnv(h, &[op.kind.code() as u8]);
            fnv(h, &(op.micro as u64).to_le_bytes());
        }
    }
    fnv(h, &s.makespan.to_bits().to_le_bytes());
}

#[test]
fn offline_schedules_match_their_pinned_digests() {
    let mut varuna = (0usize, 0xcbf2_9ce4_8422_2325u64);
    for p in 1..=8 {
        for n in 1..=16 {
            for w in WINDOWS {
                fold(&mut varuna.1, w, &generate_schedule(p, n, w));
                varuna.0 += 1;
            }
        }
    }
    assert_eq!(varuna, (768, 0xa711_159b_742a_32f0), "varuna digest moved");
}
