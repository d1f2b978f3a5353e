//! Prints Table 2: the calibrated primitive parameters.
//!
//! Takes no arguments: any argument prints usage and exits 2 before
//! anything runs.

use varuna::calibrate::Calibration;
use varuna_bench::util::{print_table, smoke_flag};

fn main() {
    smoke_flag("table2_calibration", false);
    let c = varuna_bench::tables_misc::table2();
    println!(
        "Table 2: calibrated primitives for {} on NC6_v3 spot VMs\n",
        c.model.name
    );
    let mid = c.graph.len() / 2;
    let rows: Vec<Vec<String>> =
        c.ms.iter()
            .enumerate()
            .map(|(mi, &m)| {
                vec![
                    m.to_string(),
                    format!("{:.2}", c.fwd[mid][mi] * 1e3),
                    format!("{:.2}", c.bwd[mid][mi] * 1e3),
                    format!("{:.2}", c.act_intra[mi] * 1e3),
                    format!("{:.2}", c.act_inter[mi] * 1e3),
                ]
            })
            .collect();
    print_table(
        "per cut-point, by micro-batch size m",
        &[
            "m",
            "F_i(m) ms",
            "B_i(m) ms",
            "Act_intra ms",
            "Act_inter ms",
        ],
        &rows,
    );
    let ar_rows: Vec<Vec<String>> = Calibration::AR_RINGS
        .iter()
        .zip(&c.ar_probe)
        .map(|(&d, &t)| vec![d.to_string(), format!("{:.1}", t * 1e3)])
        .collect();
    print_table(
        "AR_i(D): 256 MiB allreduce by ring size",
        &["D", "time (ms)"],
        &ar_rows,
    );
    println!(
        "\nfitted inter-node: {:.2} Gbps, {:.3} ms latency (incl. mean jitter); \
         k-in-flight contention factor {:.2}; m* = {}",
        c.inter_bw * 8.0 / 1e9,
        c.inter_lat * 1e3,
        c.ar_contention,
        c.pick_m(0.05)
    );
}
