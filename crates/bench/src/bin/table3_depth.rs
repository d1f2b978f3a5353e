//! Prints Table 3: sensitivity to pipeline depth (GPT-2 2.5B).
//!
//! Takes no arguments: any argument prints usage and exits 2 before
//! anything runs.

use varuna_bench::util::{f3, print_table, smoke_flag};

fn main() {
    smoke_flag("table3_depth", false);
    let rows: Vec<Vec<String>> = varuna_bench::table3::run()
        .iter()
        .map(|r| {
            vec![
                r.num_gpus.to_string(),
                format!("{}x{}", r.p, r.d),
                format!("{:.2}", r.total_ex_s),
                f3(r.ex_s_gpu),
                format!("{:.2}", r.paper_total_ex_s),
            ]
        })
        .collect();
    print_table(
        "Table 3: pipeline-depth sensitivity, GPT-2 2.5B (mini-batch 8192)",
        &["GPUs", "PxD", "Total Ex/s", "Ex/s/GPU", "paper Ex/s"],
        &rows,
    );
    println!(
        "\nShape check: the 18-deep pipeline loses at both scales, and at 100 GPUs \
         9x11 (99 GPUs) competes with 6x16 (96 GPUs) — the paper's Observation 2."
    );
}
