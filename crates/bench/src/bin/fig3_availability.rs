//! Prints Figure 3: spot availability of 1-GPU vs 4-GPU VMs over 16 hours.
//!
//! Takes no arguments: any argument prints usage and exits 2 before
//! anything runs.

use varuna_bench::util::{print_table, smoke_flag};

fn main() {
    smoke_flag("fig3_availability", false);
    let r = varuna_bench::fig3::run();
    let rows: Vec<Vec<String>> = r
        .series
        .iter()
        .step_by(6) // Every 30 minutes, for readability.
        .map(|s| {
            vec![
                format!("{:.1}", s.t_hours),
                s.avail_1gpu.to_string(),
                s.avail_4gpu.to_string(),
            ]
        })
        .collect();
    print_table(
        "Figure 3: aggregate GPU availability (100-host pool)",
        &["t (h)", "1-GPU VMs", "4-GPU VMs"],
        &rows,
    );
    println!(
        "\nmeans over 16h: 1-GPU {:.1} GPUs vs 4-GPU {:.1} GPUs ({:.1}x more capacity \
         as single-GPU VMs — paper Observation 4)",
        r.mean_1gpu,
        r.mean_4gpu,
        r.mean_1gpu / r.mean_4gpu
    );
}
