//! Prints Figure 4: Varuna's micro-batch schedule vs GPipe's. Takes no
//! arguments; CI diffs the output against
//! `crates/bench/tests/goldens/fig4_schedule.txt`.

use varuna_bench::util::smoke_flag;

fn main() {
    smoke_flag("fig4_schedule", false);
    let r = varuna_bench::fig4::run();
    println!("Figure 4: 4-stage pipeline, 5 micro-batches (F=R=1 unit, B=2)");
    println!("\nVaruna schedule (makespan {} units):", r.varuna.makespan);
    print_schedule(&r.varuna);
    println!("\nGPipe schedule (makespan {} units):", r.gpipe.makespan);
    print_schedule(&r.gpipe);
    println!(
        "\nVaruna is {} unit(s) shorter offline (paper: 1 unit, 30 vs 31; the planner's \
         schedule kernel runs a ready forward before a recompute whose gradient is not in hand).",
        r.gpipe.makespan - r.varuna.makespan
    );
    println!(
        "Executed on the emulator with Ethernet jitter (BERT-72, 4x16): \
         Varuna {:.2}s vs GPipe {:.2}s ({:+.1}%).",
        r.varuna_jitter_time,
        r.gpipe_jitter_time,
        (r.gpipe_jitter_time / r.varuna_jitter_time - 1.0) * 100.0
    );

    println!("\nAll-discipline smoke (same workload, via varuna-sched policies):");
    for (name, t) in varuna_bench::fig4::smoke_all_disciplines() {
        println!("  {name:<9} {t:.2}s");
    }
}

fn print_schedule(s: &varuna_sched::schedule::StaticSchedule) {
    for (stage, ops) in s.per_stage.iter().enumerate().rev() {
        let line: Vec<String> = ops
            .iter()
            .map(|o| format!("{}{}", o.kind.code(), o.micro + 1))
            .collect();
        println!("  S{}: {}", stage + 1, line.join(" "));
    }
}
