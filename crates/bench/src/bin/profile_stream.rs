//! Benchmarks the streaming profiler on a tiled million-event trace and
//! writes `BENCH_profile_stream.json`.
//!
//! ```console
//! $ cargo run --release -p varuna-bench --bin profile_stream            # ~1.2M events
//! $ cargo run --release -p varuna-bench --bin profile_stream -- --smoke # ~120k events
//! ```
//!
//! Exits nonzero if either streamed report (single windowed profiler, or
//! sharded fan-out merged) diverges from `profile()` of the whole trace
//! (the same engine sealed once) by a single byte, if any stream counter
//! flags a violation, if the bounded channels dropped an event, if
//! resident state grew past a small fraction of the stream, or if
//! windowed streaming fell more than a constant factor below the
//! sealed-once pass — the gates CI holds with `--smoke`.
//!
//! Any other argument prints usage and exits 2 before anything runs.

use varuna_bench::profile_stream::{self, MAX_RESIDENT_RATIO, MAX_SLOWDOWN_VS_POSTHOC};
use varuna_bench::util::{print_table, smoke_flag};

fn main() {
    let smoke = smoke_flag("profile_stream [--smoke]", true);
    let target = if smoke { 120_000 } else { 1_200_000 };
    println!(
        "Streaming profiler bench{}: target {target} events\n",
        if smoke { " (smoke)" } else { "" }
    );
    let b = profile_stream::run(target);

    let rows = vec![
        vec![
            "null sink (floor)".to_string(),
            format!("{:.3e}", b.null_eps),
            "-".to_string(),
        ],
        vec![
            "streaming profiler".to_string(),
            format!("{:.3e}", b.stream_eps),
            format!("{:.1}x", b.slowdown_vs_null()),
        ],
        vec![
            format!("sharded x{}", profile_stream::SHARDS),
            format!("{:.3e}", b.sharded_eps),
            format!("{:.1}x", b.null_eps / b.sharded_eps),
        ],
        vec![
            "post-hoc profile()".to_string(),
            format!("{:.3e}", b.posthoc_eps),
            format!("{:.1}x", b.null_eps / b.posthoc_eps),
        ],
    ];
    print_table(
        &format!("{} events, {} tiles", b.events, b.tiles),
        &["consumer", "events/s", "vs null"],
        &rows,
    );

    println!(
        "\nresident: peak {} entries over {} events (ratio {:.5}, gate {MAX_RESIDENT_RATIO})",
        b.peak_resident, b.events, b.resident_ratio
    );
    println!(
        "exactness: single {} | sharded {} | violations {} | dropped {}",
        if b.stream_matches {
            "byte-identical"
        } else {
            "DIVERGED"
        },
        if b.sharded_matches {
            "byte-identical"
        } else {
            "DIVERGED"
        },
        b.violations,
        b.dropped
    );

    profile_stream::report(&b)
        .write(std::path::Path::new("BENCH_profile_stream.json"))
        .expect("write BENCH_profile_stream.json");
    println!("machine-readable report written to BENCH_profile_stream.json");

    let mut failed = false;
    if !b.stream_matches || !b.sharded_matches {
        eprintln!("FAIL: streamed report diverged from post-hoc");
        failed = true;
    }
    if b.violations > 0 {
        eprintln!("FAIL: {} stream-counter violation(s)", b.violations);
        failed = true;
    }
    if b.dropped > 0 {
        eprintln!("FAIL: sharded sink dropped {} event(s)", b.dropped);
        failed = true;
    }
    if b.resident_ratio > MAX_RESIDENT_RATIO {
        eprintln!(
            "FAIL: resident ratio {:.5} above gate {MAX_RESIDENT_RATIO}",
            b.resident_ratio
        );
        failed = true;
    }
    if b.slowdown_vs_posthoc() > MAX_SLOWDOWN_VS_POSTHOC {
        eprintln!(
            "FAIL: streaming {:.2}x slower than post-hoc (gate {MAX_SLOWDOWN_VS_POSTHOC}x)",
            b.slowdown_vs_posthoc()
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
