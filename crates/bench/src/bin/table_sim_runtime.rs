//! Prints §7.2's simulator-runtime measurement.
//!
//! Takes no arguments: any argument prints usage and exits 2 before
//! anything runs.

use varuna_bench::util::smoke_flag;

fn main() {
    smoke_flag("table_sim_runtime", false);
    println!("Simulator runtime: 8.3B, 128 GPUs, mini-batch 8192 (paper: 660/376/391 ms)\n");
    for (p, ms) in varuna_bench::tables_misc::simulator_runtime() {
        println!("  P = {p:>2}: {ms:>7.1} ms per configuration");
    }
    println!("\nFast enough to re-plan on every spot preemption.");
}
