//! Benchmark driver: runs one workload of the `repro` CLI end to end, or
//! its traced in-process run, and prints the result as one JSON object on
//! the last line of stdout. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload paper|sweep-wide|storm-shards|all --repro PATH
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```

mod proc;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Tally, Workload};

/// End-to-end metrics: (name, unit, better). Every workload reports each.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cycle_corners_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics of the traced run: (name, unit, better). A layer a
/// workload never runs reports 0.
pub const PER_LAYER: [(&str, &str, &str); 50] = [
    ("gen.generate_ms", "ms", "lower"),
    ("gen.programs", "count", "lower"),
    ("pipeline.predecode.lower_ms", "ms", "lower"),
    ("pipeline.predecode.micro_ops", "count", "lower"),
    ("pipeline.simulate.core_ms", "ms", "lower"),
    ("pipeline.simulate.cycles", "count", "lower"),
    ("pipeline.simulate.retired", "count", "lower"),
    ("pipeline.simulate.mcycles_per_s", "Mcycles/s", "higher"),
    ("pipeline.digest.capture_ms", "ms", "lower"),
    ("pipeline.digest.unique_entries", "count", "lower"),
    ("pipeline.digest.unique_frac", "ratio", "lower"),
    ("pipeline.digest.runs_per_cycle", "ratio", "lower"),
    ("pipeline.digest.bytes", "B", "lower"),
    ("pipeline.digest.encode_ms", "ms", "lower"),
    ("pipeline.digest.decode_ms", "ms", "lower"),
    ("pipeline.irq.entries", "count", "lower"),
    ("pipeline.irq.handler_cycles", "count", "lower"),
    ("timing.bank.walk_ms", "ms", "lower"),
    ("timing.bank.lanes_ms", "ms", "lower"),
    ("timing.bank.cycle_corners", "count", "lower"),
    ("timing.fault.self_ms", "ms", "lower"),
    ("timing.fault.faulted_cycles", "count", "lower"),
    ("timing.irq.surge_ms", "ms", "lower"),
    ("timing.irq.entry_cycles", "count", "lower"),
    ("core.policy_bank.self_ms", "ms", "lower"),
    ("core.adaptive.self_ms", "ms", "lower"),
    ("core.adaptive.warmup_frac", "ratio", "lower"),
    ("bench.paper.prepare_ms", "ms", "lower"),
    ("bench.paper.figures_ms", "ms", "lower"),
    ("bench.paper.fig8_ms", "ms", "lower"),
    ("bench.paper.ablations_ms", "ms", "lower"),
    ("bench.paper.power_ms", "ms", "lower"),
    ("bench.paper.speedup_pct", "%", "higher"),
    ("bench.paper.speedup_err_pct", "%", "lower"),
    ("bench.sweep.lib_ms", "ms", "lower"),
    ("bench.sweep.unaccounted_ms", "ms", "lower"),
    ("bench.sweep.cache_hit_frac", "ratio", "higher"),
    ("bench.sweep.cache_io_ms", "ms", "lower"),
    ("bench.sweep.render_ms", "ms", "lower"),
    ("bench.shard.encode_ms", "ms", "lower"),
    ("bench.shard.decode_ms", "ms", "lower"),
    ("bench.shard.report_bytes", "B", "lower"),
    ("bench.shard.merge_ms", "ms", "lower"),
    ("bench.serve.ingest_ms", "ms", "lower"),
    ("bench.serve.query_us", "us", "lower"),
    ("bench.serve.queries", "count", "higher"),
    ("bench.serve.pipe_p50_us", "us", "lower"),
    ("bench.serve.pipe_p99_us", "us", "lower"),
    ("trace.total_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    repro: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 7,
        seconds: 10,
        trace: false,
        repro: PathBuf::new(),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("`{flag}` requires a value"))?;
        let number = |what: &str| {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{what}` expects an unsigned integer, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number("--seed")?,
            "--seconds" => args.seconds = number("--seconds")?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` expects 0 or 1, got `{value}`")),
                }
            }
            "--repro" => args.repro = PathBuf::from(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !args.repro.is_file() {
        return Err(format!("--repro {} is not a file", args.repro.display()));
    }
    Ok(args)
}

/// One metric as a JSON member; a non-finite value is a failed check.
fn member(name: &str, value: f64, unit: &str, tally: &mut Tally) -> String {
    if !value.is_finite() {
        tally.check(false, || format!("metric {name} is {value}"));
    }
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn result_line(members: Vec<String>, tally: Tally) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        members.join(", ")
    )
}

/// One end-to-end metric: (value, name, unit).
type Row = (f64, &'static str, &'static str);

fn end_to_end(args: &Args, workload: Workload) -> std::io::Result<(workloads::E2e, Vec<Row>)> {
    eprintln!("perfbench: {}: computing the oracle", workload.name());
    let oracle = workloads::oracle(workload, args.seed);
    let work = workloads::work_dir(workload)?;
    eprintln!(
        "perfbench: {}: set-up and {} s of iterations",
        workload.name(),
        args.seconds
    );
    let e2e = workloads::run_e2e(
        workload,
        args.seed,
        args.seconds,
        &args.repro,
        &work,
        &oracle,
    );
    workloads::remove_work_dir(&work)?;
    let e2e = e2e?;
    let values = [
        e2e.setup_s,
        e2e.wall_s,
        e2e.cycle_corners_per_s,
        e2e.peak_rss_mb,
    ];
    let rows = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), value)| (value, name, unit))
        .collect();
    Ok((e2e, rows))
}

fn run(args: &Args) -> Result<(), String> {
    let io = |error: std::io::Error| error.to_string();
    if args.workload == "all" {
        // Human-readable table of every end-to-end figure of every workload.
        for workload in Workload::ALL {
            let (e2e, rows) = end_to_end(args, workload).map_err(io)?;
            println!("{}: {} iterations", workload.name(), e2e.iterations);
            for (value, name, unit) in rows {
                println!("  {name:<22} {value:>14.6} {unit}");
            }
            if let (Some(p50), Some(p99)) = (e2e.serve_p50_us, e2e.serve_p99_us) {
                println!(
                    "  {:<22} {p50:>14.3} us  ({} queries)",
                    "serve_query_p50_us", e2e.queries
                );
                println!("  {:<22} {p99:>14.3} us", "serve_query_p99_us");
            }
            println!(
                "  {:<22} {:>14.6} ratio ({} failed of {})",
                "failed_frac",
                e2e.tally.failed_frac(),
                e2e.tally.failed,
                e2e.tally.attempted
            );
        }
        return Ok(());
    }
    let workload = Workload::parse(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload `{}` (paper, sweep-wide, storm-shards or all)",
            args.workload
        )
    })?;
    let mut tally = Tally::default();
    let members = if args.trace {
        let oracle = workloads::oracle(workload, args.seed);
        let work = workloads::work_dir(workload).map_err(io)?;
        let traced = traced::run(
            workload,
            args.seed,
            args.seconds,
            &args.repro,
            &work,
            &oracle,
        );
        workloads::remove_work_dir(&work).map_err(io)?;
        let traced = traced.map_err(io)?;
        eprintln!("perfbench: {} traced repetitions", traced.repetitions);
        tally.add(traced.tally);
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| member(name, traced.metrics[name], unit, &mut tally))
            .collect()
    } else {
        let (e2e, rows) = end_to_end(args, workload).map_err(io)?;
        eprintln!(
            "perfbench: {} iterations, failed_frac {} ({} of {})",
            e2e.iterations,
            e2e.tally.failed_frac(),
            e2e.tally.failed,
            e2e.tally.attempted
        );
        if let (Some(p50), Some(p99)) = (e2e.serve_p50_us, e2e.serve_p99_us) {
            eprintln!(
                "perfbench: serve query p50 {p50:.3} us, p99 {p99:.3} us over {} queries",
                e2e.queries
            );
        }
        tally.add(e2e.tally);
        rows.into_iter()
            .map(|(value, name, unit)| member(name, value, unit, &mut tally))
            .collect()
    };
    println!("{}", result_line(members, tally));
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics the driver prints.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit, better) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for workload in Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", workload.name())));
        }
    }
}
