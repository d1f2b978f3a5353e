//! Tier-1 pin of the baseline policies' unit-time renders.
//!
//! Every GPipe, 1F1B and PipeDream schedule (PipeDream stores activations,
//! so it renders without recompute) is rendered at unit times
//! (`F = R = 1`, `B = 2`, zero network latency) for `p ≤ 8`, `n ≤ 16` and
//! six stash windows. Each render folds `(p, n_micro, window, per_stage,
//! makespan bits)` into an FNV-1a digest; a shape where the policy wedges
//! folds a fixed marker instead. Any change to how a policy's schedule is
//! rendered, or to which shapes wedge, moves a digest.

use varuna_baselines::{GPipePolicy, OneF1BPolicy, PipeDreamPolicy};
use varuna_exec::pipeline::{render_unit_schedule, SimError};
use varuna_sched::policy::PolicyFactory;
use varuna_sched::schedule::StaticSchedule;

const WINDOWS: [usize; 6] = [1, 2, 3, 4, 8, usize::MAX];

/// Folded in place of a schedule when the policy wedges.
const WEDGE: u64 = 0x5745_4447_4544_2121;

/// The unit-time render of one shape, or `None` when the policy wedges.
fn render(
    p: usize,
    n: usize,
    w: usize,
    recompute: bool,
    factory: &PolicyFactory<'_>,
) -> Option<StaticSchedule> {
    render_unit_schedule(p, n, w, recompute, factory)
        .map_err(|SimError::Deadlock { .. }| ())
        .ok()
}

/// FNV-1a, folded one word at a time.
fn word(h: &mut u64, w: u64) {
    for b in w.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Renders every shape under one policy: `(shapes, wedges, digest)`.
fn digest(recompute: bool, factory: &PolicyFactory<'_>) -> (usize, usize, u64) {
    let (mut shapes, mut wedges, mut h) = (0, 0, 0xcbf2_9ce4_8422_2325);
    for p in 1..=8 {
        for n in 1..=16 {
            for w in WINDOWS {
                shapes += 1;
                for x in [p, n, w] {
                    word(&mut h, x as u64);
                }
                let Some(s) = render(p, n, w, recompute, factory) else {
                    wedges += 1;
                    word(&mut h, WEDGE);
                    continue;
                };
                for ops in &s.per_stage {
                    word(&mut h, ops.len() as u64);
                    for op in ops {
                        word(&mut h, u64::from(op.kind.code()));
                        word(&mut h, op.micro as u64);
                    }
                }
                word(&mut h, s.makespan.to_bits());
            }
        }
    }
    (shapes, wedges, h)
}

#[test]
fn baseline_unit_time_renders_are_pinned() {
    let gpipe = digest(true, &|_, _| Box::new(GPipePolicy));
    let onef1b = digest(true, &|_, _| Box::new(OneF1BPolicy));
    let pipedream = digest(false, &|_, _| Box::new(PipeDreamPolicy));
    assert_eq!(gpipe, (768, 0, 0x7b52_503a_fbd7_00fa), "gpipe");
    assert_eq!(onef1b, (768, 302, 0xd010_4cc9_14e0_4c98), "1f1b");
    assert_eq!(pipedream, (768, 0, 0x0c3b_e094_dfd0_5d60), "pipedream");
}
