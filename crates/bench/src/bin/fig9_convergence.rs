//! Prints Figure 9: large-batch convergence on the real training engine.
//!
//! Takes no arguments: any argument prints usage and exits 2 before
//! anything runs.

use varuna_bench::util::smoke_flag;

fn main() {
    smoke_flag("fig9_convergence", false);
    let r = varuna_bench::fig9_fig10::run_fig9();
    println!("Figure 9 analog: small-batch vs 16x-batch training, equal examples\n");
    println!("large-batch (16x) loss curve:");
    for (i, l) in r.large_curve.iter().enumerate() {
        if i % 3 == 0 {
            println!("  step {i:>3}: {l:.4}");
        }
    }
    println!("\nunigram-entropy floor (context-free): {:.3}", r.unigram);
    println!(
        "small-batch final eval loss:          {:.3}",
        r.small_batch_loss
    );
    println!(
        "16x-batch final eval loss:            {:.3}",
        r.large_batch_loss
    );
    println!(
        "gap: {:.1}% (paper: 2.5B GPT-2 at 16x batch matches baseline perplexity)",
        (r.large_batch_loss / r.small_batch_loss - 1.0) * 100.0
    );
}
