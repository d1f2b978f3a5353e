//! Prints Figure 6: Varuna vs Megatron on GPT-2 2.5B.
//!
//! Takes no arguments: any argument prints usage and exits 2 before
//! anything runs.

use varuna_bench::util::{f3, print_table, smoke_flag};

fn main() {
    smoke_flag("fig6_gpt2_2b", false);
    let fig = varuna_bench::fig5_fig6::run_fig6();
    let rows: Vec<Vec<String>> = fig
        .points
        .iter()
        .map(|p| vec![p.system.clone(), p.gpus.to_string(), f3(p.ex_s_gpu)])
        .collect();
    print_table(
        "Figure 6: GPT-2 2.5B, mini-batch 8192 (paper: Varuna 4.1x Megatron on commodity)",
        &["system", "GPUs", "Ex/s/GPU"],
        &rows,
    );
    let v = varuna_bench::fig5_fig6::point(&fig, "Varuna LP 9x28").ex_s_gpu;
    let m = varuna_bench::fig5_fig6::point(&fig, "Megatron LP 4-way").ex_s_gpu;
    let vh = varuna_bench::fig5_fig6::point(&fig, "Varuna HC").ex_s_gpu;
    println!(
        "\nVaruna / Megatron on commodity VMs: {:.1}x (paper 4.1x)\n\
         Varuna LP vs Varuna HC: {:.1}% gap (paper ~4%)",
        v / m,
        (vh / v - 1.0) * 100.0
    );
}
