//! Prints Figure 10: stale-update (PipeDream-2BW-style) destabilization.
//!
//! Takes no arguments: any argument prints usage and exits 2 before
//! anything runs.

use varuna_bench::util::smoke_flag;

fn main() {
    smoke_flag("fig10_2bw", false);
    let r = varuna_bench::fig9_fig10::run_fig10();
    println!("Figure 10 analog: synchronous vs 1-step-stale updates (same lr + momentum)\n");
    println!("{:>5} {:>12} {:>12}", "step", "sync loss", "stale loss");
    for (i, (s, st)) in r.sync_curve.iter().zip(&r.stale_curve).enumerate() {
        if i % 5 == 0 {
            println!("{i:>5} {s:>12.4} {st:>12.4}");
        }
    }
    let tail = |v: &[f32]| v[v.len() - 10..].iter().sum::<f32>() / 10.0;
    println!(
        "\nlast-10 mean: sync {:.3} vs stale {:.3} — stale updates destabilize where \
         synchronous SGD trains fine (the paper's PipeDream-2BW divergence).",
        tail(&r.sync_curve),
        tail(&r.stale_curve)
    );
}
