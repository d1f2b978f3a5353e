//! Prints Figure 5: Varuna vs Megatron on GPT-2 8.3B.
//!
//! Takes no arguments: any argument prints usage and exits 2 before
//! anything runs.

use varuna_bench::util::{f3, print_table, smoke_flag};

fn main() {
    smoke_flag("fig5_gpt2_8b", false);
    let fig = varuna_bench::fig5_fig6::run_fig5();
    let rows: Vec<Vec<String>> = fig
        .points
        .iter()
        .map(|p| vec![p.system.clone(), p.gpus.to_string(), f3(p.ex_s_gpu)])
        .collect();
    print_table(
        "Figure 5: GPT-2 8.3B, mini-batch 8192 (paper: Varuna LP 0.56, Megatron HC 0.48)",
        &["system", "GPUs", "Ex/s/GPU"],
        &rows,
    );
    let v = varuna_bench::fig5_fig6::point(&fig, "Varuna LP 18x16").ex_s_gpu;
    let m = varuna_bench::fig5_fig6::point(&fig, "Megatron LP 16-way x18").ex_s_gpu;
    let mh = varuna_bench::fig5_fig6::point(&fig, "Megatron HC").ex_s_gpu;
    println!(
        "\nVaruna / Megatron on commodity VMs: {:.1}x (paper ~18x)\n\
         Varuna on spot vs Megatron on hypercluster: {:+.0}% (paper +17%)",
        v / m,
        (v / mh - 1.0) * 100.0
    );
}
