//! The repository benchmark: one command, three workloads, every
//! end-to-end metric by name and unit, output checks that fail the run,
//! and a separate traced run for the per-layer metrics.
//!
//! ```text
//! sdd-perfbench --workload campaign-cold|serve-distinct|serve-shared
//!               --seed N --seconds S --trace 0|1
//!               --server-bin PATH --out-dir DIR
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A failed output check prints `"correct": false` and
//! exits with code 1; a run that cannot measure prints no result and
//! exits with code 2.

mod campaign;
mod chips;
mod common;
mod serve;
mod stats;
mod trace;

use common::RunResult;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics: every run with `--trace 0` reports each one.
const END_TO_END: &[(&str, &str)] = &[
    ("campaign_chips_per_s", "chips/s"),
    ("serve_rps", "1/s"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
    ("hit_rate_pct", "%"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cpu_ms_per_op", "ms"),
];

/// Per-layer metrics of the traced run; a layer the workload does not
/// exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.generate_ms", "ms"),
    ("timing.characterize_ms", "ms"),
    ("timing.tested_delay_ms", "ms"),
    ("observe.capture_ms", "ms"),
    ("atpg.k_longest_ms", "ms"),
    ("atpg.justify_ms", "ms"),
    ("atpg.justify_tried", "count"),
    ("atpg.justify_yield", "ratio"),
    ("atpg.podem_ms", "ms"),
    ("atpg.podem_tried", "count"),
    ("atpg.podem_yield", "ratio"),
    ("atpg.fill_ms", "ms"),
    ("atpg.patterns_per_site", "count"),
    ("dictionary.build_ms", "ms"),
    ("dictionary.suspects_per_op", "count"),
    ("dictionary.cone_evals_per_op", "count"),
    ("dictionary.samples_per_op", "count"),
    ("dictionary.cache_hit_ratio", "ratio"),
    ("rank.ms", "ms"),
    ("server.session_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("server.busy_pct", "%"),
    ("server.metrics_invalid", "count"),
    ("trace.serve_rps_untraced", "1/s"),
    ("trace.serve_rps_traced", "1/s"),
    ("trace.overhead_pct", "%"),
    ("campaign.patterns_ms", "ms"),
    ("campaign.observe_ms", "ms"),
    ("campaign.dictionary_ms", "ms"),
    ("campaign.rank_ms", "ms"),
    ("replay.patterns_ms", "ms"),
    ("replay.observe_ms", "ms"),
    ("replay.dictionary_ms", "ms"),
    ("replay.rank_ms", "ms"),
    ("replay.mismatches", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace is 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload: get("--workload")?,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1) as f64,
        trace,
        server_bin: get("--server-bin")?.into(),
        out_dir: get("--out-dir")?.into(),
    })
}

fn run(args: &Args, tracer: &trace::Tracer) -> Result<RunResult, String> {
    use serve::Mix;
    let mix = match args.workload.as_str() {
        "campaign-cold" => None,
        "serve-distinct" => Some(Mix::Distinct),
        "serve-shared" => Some(Mix::Shared),
        other => return Err(format!("unknown workload {other:?}")),
    };
    let memo = args.out_dir.join("inputs");
    match (mix, args.trace) {
        (None, false) => campaign::run(args.seconds),
        (None, true) => campaign::run_traced(tracer),
        (Some(mix), false) => serve::run(mix, args.seed, args.seconds, &args.server_bin, &memo),
        (Some(mix), true) => serve::run_traced(mix, args.seed, &args.server_bin, &memo, tracer),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sdd-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = trace::Tracer::new();
    let mut result = match run(&args, &tracer) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sdd-perfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, _) in table {
        if !result.metrics.contains_key(name) {
            if args.trace {
                result.set(name, 0.0);
            } else {
                eprintln!("sdd-perfbench: {} did not measure {name}", args.workload);
                return ExitCode::from(2);
            }
        }
    }
    if args.trace {
        let path = args
            .out_dir
            .join(format!("spans-{}-{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&args.out_dir).and_then(|()| tracer.write(&path));
        match written {
            Ok(()) => result.note(format!("spans written to {}", path.display())),
            Err(e) => result.note(format!("spans not written: {e}")),
        }
    }

    let correct = result.check_failures.is_empty();
    println!(
        "workload {} seed {} ({} run, {} cores)",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for note in &result.notes {
        println!("  {note}");
    }
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = result.metrics[name];
        println!("  {name:<30} {value:>14.4} {unit}");
        if !value.is_finite() {
            eprintln!("sdd-perfbench: {name} is {value}");
            return ExitCode::from(2);
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "  {:<30} {:>14.4} %",
        "failed_pct",
        stats::failed_pct(result.attempted, result.failed)
    );
    for failure in result.check_failures.iter().take(10) {
        println!("  CHECK FAILED: {failure}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted,
        result.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
