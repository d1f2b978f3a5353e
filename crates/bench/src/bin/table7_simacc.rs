//! Prints Table 7: fast-simulator estimates vs emulated mini-batch times.
//!
//! Takes no arguments: any argument prints usage and exits 2 before
//! anything runs.

use varuna_bench::util::{print_table, smoke_flag};

fn main() {
    smoke_flag("table7_simacc", false);
    let rows_data = varuna_bench::table7::run();
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                format!("{}x{}", r.config.0, r.config.1),
                format!("{:.1}", r.estimated),
                format!("{:.1}", r.actual),
                format!("{:.1}%", r.error * 100.0),
            ]
        })
        .collect();
    print_table(
        "Table 7: simulator estimate vs emulated time (mini-batch 8192)",
        &["model", "PxD", "estimated (s)", "actual (s)", "error"],
        &rows,
    );
    let mean = rows_data.iter().map(|r| r.error).sum::<f64>() / rows_data.len() as f64;
    let max = rows_data.iter().map(|r| r.error).fold(0.0f64, f64::max);
    println!(
        "\nmean error {:.1}%, max {:.1}% (paper: within 5%)",
        mean * 100.0,
        max * 100.0
    );
}
