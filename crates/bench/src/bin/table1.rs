//! Prints Table 1: the feature matrix of systems for training massive
//! models.
//!
//! Takes no arguments: any argument prints usage and exits 2 before
//! anything runs.

use varuna_bench::util::smoke_flag;

fn main() {
    smoke_flag("table1", false);
    println!("Table 1: Systems for training massive models — features");
    for row in varuna_bench::tables_misc::table1() {
        println!(
            "{:<18} {:>11} {:>11} {:>8} {:>9} {:>7}",
            row[0], row[1], row[2], row[3], row[4], row[5]
        );
    }
    println!("\n(*) added later / partial, as annotated in the paper.");
}
