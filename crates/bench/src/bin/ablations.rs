//! Prints the design-choice ablations (DESIGN.md §7).
//!
//! Takes no arguments: any argument prints usage and exits 2 before
//! anything runs.

use varuna_bench::util::smoke_flag;

fn main() {
    smoke_flag("ablations", false);
    println!("Ablations: each Varuna mechanism on vs off\n");
    for a in varuna_bench::ablations::run_all() {
        println!(
            "{:<42} {:>10.3} vs {:>10.3} {:<42} ({:+.1}%)",
            a.name,
            a.with_mechanism,
            a.without_mechanism,
            a.metric,
            a.gain() * 100.0
        );
    }
}
