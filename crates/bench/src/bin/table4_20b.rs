//! Prints Table 4: the 20B model — Varuna vs Megatron, low-priority vs
//! hypercluster.
//!
//! Takes no arguments: any argument prints usage and exits 2 before
//! anything runs.

use varuna_bench::util::{f3, print_table, smoke_flag};

fn main() {
    smoke_flag("table4_20b", false);
    let rows: Vec<Vec<String>> = varuna_bench::table4::run()
        .iter()
        .map(|r| {
            vec![
                r.system.clone(),
                r.gpus.to_string(),
                f3(r.ex_s_gpu),
                format!("{:.1}", r.tflops_gpu),
                f3(r.paper_ex_s_gpu),
            ]
        })
        .collect();
    print_table(
        "Table 4: 20B-parameter comparison (mini-batch 8192)",
        &[
            "system",
            "GPUs",
            "Ex/s/GPU",
            "TFlops/s/GPU",
            "paper Ex/s/GPU",
        ],
        &rows,
    );
    println!(
        "\nShape checks: Varuna on spot beats 16-way Megatron on the hypercluster; \
         forcing Megatron across the DGX-2 boundary (18-way) cliffs ~10x."
    );
}
