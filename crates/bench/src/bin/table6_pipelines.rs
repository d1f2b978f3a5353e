//! Prints Table 6: Varuna vs DeepSpeed vs Megatron-1F1B vs PipeDream.
//!
//! Takes no arguments: any argument prints usage and exits 2 before
//! anything runs.

use varuna_bench::util::{f3, print_table, smoke_flag};

fn main() {
    smoke_flag("table6_pipelines", false);
    let rows: Vec<Vec<String>> = varuna_bench::table6::run()
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                f3(r.varuna),
                f3(r.deepspeed),
                f3(r.megatron_1f1b),
                r.pipedream.map_or("OOM".to_string(), f3),
            ]
        })
        .collect();
    print_table(
        "Table 6: pipeline systems on 1-GPU VMs, mini-batch 2400 (ex/s/GPU)",
        &[
            "workload",
            "Varuna",
            "DeepSpeed",
            "Megatron-1F1B",
            "PipeDream",
        ],
        &rows,
    );
    println!(
        "\nShape checks (paper): Varuna leads DeepSpeed by 20-26% and Megatron-1F1B by \
         13-14%; PipeDream OOMs on both models (P weight copies + stored activations)."
    );
}
