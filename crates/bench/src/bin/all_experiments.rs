//! Runs every table and figure of the evaluation in sequence.
//!
//! ```console
//! $ cargo run --release -p varuna-bench --bin all_experiments
//! ```
//!
//! Takes no arguments: any argument prints usage and exits 2 before
//! anything runs.

use varuna_bench::util::{f3, print_table, smoke_flag};

fn main() {
    smoke_flag("all_experiments", false);
    banner("Table 1: feature matrix");
    for row in varuna_bench::tables_misc::table1() {
        println!(
            "{:<18} {:>11} {:>11} {:>8} {:>9} {:>7}",
            row[0], row[1], row[2], row[3], row[4], row[5]
        );
    }

    banner("Figure 3: spot availability");
    let f3r = varuna_bench::fig3::run();
    println!(
        "16h means: 1-GPU VMs {:.1} GPUs vs 4-GPU VMs {:.1} GPUs ({:.1}x)",
        f3r.mean_1gpu,
        f3r.mean_4gpu,
        f3r.mean_1gpu / f3r.mean_4gpu
    );

    banner("Figure 4: schedule comparison");
    let f4 = varuna_bench::fig4::run();
    println!(
        "offline makespan: Varuna {} vs GPipe {} units; under jitter {:.2}s vs {:.2}s",
        f4.varuna.makespan, f4.gpipe.makespan, f4.varuna_jitter_time, f4.gpipe_jitter_time
    );

    banner("Table 3: pipeline-depth sensitivity (2.5B)");
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
        "",
        &["GPUs", "PxD", "Total Ex/s", "Ex/s/GPU", "paper"],
        &rows,
    );

    banner("Figure 5: 8.3B Varuna vs Megatron");
    for p in &varuna_bench::fig5_fig6::run_fig5().points {
        println!(
            "{:<28} {:>4} GPUs  {:>8} ex/s/GPU",
            p.system,
            p.gpus,
            f3(p.ex_s_gpu)
        );
    }

    banner("Figure 6: 2.5B Varuna vs Megatron");
    for p in &varuna_bench::fig5_fig6::run_fig6().points {
        println!(
            "{:<28} {:>4} GPUs  {:>8} ex/s/GPU",
            p.system,
            p.gpus,
            f3(p.ex_s_gpu)
        );
    }

    banner("Figure 7: 20B Gantt (49x6)");
    let f7 = varuna_bench::fig7::run();
    println!(
        "pipeline {:.1}s + sync {:.1}s = {:.1}s total; {} trace spans",
        f7.pipeline_time,
        f7.total_time - f7.pipeline_time,
        f7.total_time,
        f7.trace.len()
    );

    banner("Table 4: 20B comparisons");
    for r in varuna_bench::table4::run() {
        println!(
            "{:<22} {:>4} GPUs  {:>8} ex/s/GPU  {:>6.1} TFLOP/s (paper {})",
            r.system,
            r.gpus,
            f3(r.ex_s_gpu),
            r.tflops_gpu,
            f3(r.paper_ex_s_gpu)
        );
    }

    banner("BERT-large, 200B and VM granularity (§7.1.1/§7.2)");
    let (bl, dp) = varuna_bench::tables_misc::bert_large();
    println!("BERT-large: Varuna {bl:.0} ex/s (paper 710), data-parallel {dp:.0} ex/s");
    let (e200, t200) = varuna_bench::tables_misc::run_200b();
    println!("200B: {e200:.4} ex/s/GPU, {t200:.1} TFLOP/s/GPU (paper 0.022 / 27.3)");
    let (g1, g4) = varuna_bench::tables_misc::vm_granularity();
    println!("2.5B on 72 GPUs: 1-GPU VMs {g1:.2} vs 4-GPU VMs {g4:.2} ex/s/GPU (paper 1.77/1.81)");

    banner("Table 5: Varuna vs GPipe");
    for r in varuna_bench::table5::run() {
        println!(
            "{:<36} Varuna {:>7} vs GPipe {:>7} ex/s/GPU",
            r.workload,
            f3(r.varuna),
            f3(r.gpipe)
        );
    }

    banner("Table 6: pipeline systems (mini-batch 2400)");
    for r in varuna_bench::table6::run() {
        println!(
            "{:<14} Varuna {:>6}  DeepSpeed {:>6}  Megatron-1F1B {:>6}  PipeDream {}",
            r.workload,
            f3(r.varuna),
            f3(r.deepspeed),
            f3(r.megatron_1f1b),
            r.pipedream.map_or("OOM".into(), f3)
        );
    }

    banner("Table 7: simulator accuracy");
    let t7 = varuna_bench::table7::run();
    for r in &t7 {
        println!(
            "{:<10} {:>5}  est {:>7.1}s  actual {:>7.1}s  err {:>4.1}%",
            r.model,
            format!("{}x{}", r.config.0, r.config.1),
            r.estimated,
            r.actual,
            r.error * 100.0
        );
    }
    let mean = t7.iter().map(|r| r.error).sum::<f64>() / t7.len() as f64;
    println!("mean error {:.1}% (paper: within 5%)", mean * 100.0);

    banner("Simulator runtime (§7.2)");
    for (p, ms) in varuna_bench::tables_misc::simulator_runtime() {
        println!("P = {p:>2}: {ms:.1} ms");
    }

    banner("Figure 8: 60h morphing timeline");
    let f8 = varuna_bench::fig8::run();
    println!(
        "{} morphs, {} replacements, {} checkpoints; throughput spread {:.1}x total vs \
         {:.2}x per-GPU",
        f8.morphs, f8.replacements, f8.checkpoints, f8.total_spread, f8.per_gpu_spread
    );

    banner("Figure 9: large-batch convergence (real training)");
    let f9 = varuna_bench::fig9_fig10::run_fig9();
    println!(
        "small-batch loss {:.3} vs 16x-batch loss {:.3} (unigram floor {:.3})",
        f9.small_batch_loss, f9.large_batch_loss, f9.unigram
    );

    banner("Figure 10: stale updates (real training)");
    let f10 = varuna_bench::fig9_fig10::run_fig10();
    let tail = |v: &[f32]| v[v.len() - 10..].iter().sum::<f32>() / 10.0;
    println!(
        "last-10 mean loss: sync {:.3} vs stale {:.3}",
        tail(&f10.sync_curve),
        tail(&f10.stale_curve)
    );

    banner("Chaos sweep: recovery invariants under injected faults");
    let cs = varuna_bench::chaos_sweep::run(4);
    println!(
        "{} seeds, {} faults injected, {} panics, {} invariant violations",
        cs.rows.len(),
        cs.total_faults(),
        cs.panics,
        cs.total_violations()
    );
    assert!(cs.is_clean(), "chaos sweep must uphold every invariant");

    println!("\nAll experiments complete. See EXPERIMENTS.md for paper-vs-measured notes.");
}

fn banner(s: &str) {
    println!("\n{}\n{s}\n{}", "=".repeat(72), "-".repeat(72));
}
