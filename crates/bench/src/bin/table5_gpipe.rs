//! Prints Table 5: Varuna vs GPipe.
//!
//! Takes no arguments: any argument prints usage and exits 2 before
//! anything runs.

use varuna_bench::util::{f3, print_table, smoke_flag};

fn main() {
    smoke_flag("table5_gpipe", false);
    let rows: Vec<Vec<String>> = varuna_bench::table5::run()
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                f3(r.varuna),
                f3(r.gpipe),
                format!("{:+.0}%", (r.varuna / r.gpipe - 1.0) * 100.0),
            ]
        })
        .collect();
    print_table(
        "Table 5: Varuna vs GPipe, 4-stage BERT-72 and simulated 8.3B (19x3), mini-batch 8192",
        &[
            "workload",
            "Varuna ex/s/GPU",
            "GPipe ex/s/GPU",
            "Varuna lead",
        ],
        &rows,
    );
    println!(
        "\nShape checks (paper): GPipe suffers more at small micro-batches (15-70% gap) \
         and the gap widens as the network slows (9% -> 38% at 2x slower)."
    );
}
