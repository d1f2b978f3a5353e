//! Prints the §7.1.1 headline runs: BERT-large and the 200B model.
//!
//! Takes no arguments: any argument prints usage and exits 2 before
//! anything runs.

use varuna_bench::util::smoke_flag;

fn main() {
    smoke_flag("table_bert_200b", false);
    let (varuna, dp) = varuna_bench::tables_misc::bert_large();
    println!("BERT-large (340M), sequence 512, mini-batch 32K, 32 commodity GPUs:");
    println!("  Varuna 4x8:        {varuna:.0} ex/s  (paper: 710 ex/s, vs NVIDIA's 700 on DGX-1)");
    println!("  data-parallel x32: {dp:.0} ex/s");

    let (ex, tflops) = varuna_bench::tables_misc::run_200b();
    println!("\nGPT-2 200B (100 layers, hidden 12960), 100x1, m=1, batch 512,");
    println!("optimizer state offloaded to CPU (cost included):");
    println!("  {ex:.4} ex/s/GPU, {tflops:.1} TFLOP/s/GPU  (paper: 0.022 ex/s/GPU, 27.3 TFLOP/s)");

    let (one, four) = varuna_bench::tables_misc::vm_granularity();
    println!("\nGPT-2 2.5B on 72 GPUs (9x8): 1-GPU VMs {one:.2} vs 4-GPU VMs {four:.2} ex/s/GPU");
    println!(
        "  penalty for all-Ethernet 1-GPU VMs: {:.1}% (paper: ~2%)",
        (1.0 - one / four) * 100.0
    );
}
