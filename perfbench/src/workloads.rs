//! The three workloads, their independent oracles and their end-to-end
//! runs through the `repro` CLI.

use crate::proc::{self, Finished, ServeSession};
use crate::stats::{median, nearest_rank};
use idca_bench::{
    sweep::pvt_sweep_direct, Corpus, Experiments, FaultSpec, InterruptSpec, SweepConfig,
    SweepReport,
};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Line every correct `repro` paper run prints.
pub const PAPER_CHECK: &str = "timing violations across the suite: 0";
/// Interrupt storm of `storm-shards`.
pub const STORM_INTERRUPTS: &str = "seed=1,rate=0.002,timer=150,penalty=4,surge=0.25";
/// Fault scenario of `storm-shards`.
pub const STORM_FAULTS: &str =
    "seed=1,droop-rate=0.3,spike-rate=0.01,droop-mag=0.15,spike-mag=0.25,penalty=8,detect-window=0.1";
/// Closed-loop queries per `repro serve` session.
pub const SERVE_QUERIES: usize = 2000;
/// Untimed set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Timed iterations per run, at least, however short `--seconds` is.
const MIN_ITERATIONS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Paper,
    SweepWide,
    StormShards,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Paper, Workload::SweepWide, Workload::StormShards];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::SweepWide => "sweep-wide",
            Workload::StormShards => "storm-shards",
        }
    }

    /// `RAYON_NUM_THREADS` of the workload's commands.
    pub fn threads(self) -> u32 {
        match self {
            Workload::SweepWide => 2,
            Workload::Paper | Workload::StormShards => 1,
        }
    }
}

/// The sweep shape of a sweep workload, from the workload seed.
pub fn sweep_config(workload: Workload, seed: u64) -> SweepConfig {
    match workload {
        Workload::SweepWide => SweepConfig {
            seeds: 100,
            corners: 128,
            master_seed: seed,
            ..SweepConfig::default()
        },
        Workload::StormShards => SweepConfig {
            seeds: 400,
            corners: 16,
            master_seed: seed,
            faults: Some(FaultSpec::parse(STORM_FAULTS).expect("valid fault spec")),
            interrupts: Some(InterruptSpec::parse(STORM_INTERRUPTS).expect("valid interrupt spec")),
            ..SweepConfig::default()
        },
        Workload::Paper => unreachable!("paper has no sweep"),
    }
}

/// The digest-cache fill of `storm-shards`: the same programs and storm on
/// one corner and without faults. The cache key holds neither corners nor
/// faults, so this fills exactly the entries the shards read.
pub fn fill_config(seed: u64) -> SweepConfig {
    SweepConfig {
        corners: 1,
        faults: None,
        ..sweep_config(Workload::StormShards, seed)
    }
}

/// Sets the worker-thread count of this process's own parallel regions.
pub fn set_threads(threads: u32) {
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
}

/// Operations attempted and failed; a failure is a nonzero exit, an output
/// that differs from the oracle's, or an `error:` reply to a valid query.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        /// Failures described on stderr; the rest are only counted.
        const SHOWN: u64 = 20;
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= SHOWN {
                eprintln!("perfbench: FAILED: {}", what());
            } else if self.failed == SHOWN + 1 {
                eprintln!("perfbench: further failures are counted, not shown");
            }
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Checks a finished command: exit code 0 and, when given, stdout equal to
/// the expected bytes.
pub fn check_command(tally: &mut Tally, what: &str, run: &Finished, expected: Option<&str>) {
    let matches = expected.is_none_or(|text| run.stdout == text.as_bytes());
    tally.check(run.success && matches, || {
        format!(
            "{what}: exit ok = {}, stdout matches oracle = {matches}; stderr: {}",
            run.success,
            String::from_utf8_lossy(&run.stderr).trim()
        )
    });
}

/// The seed-derived query script of one serve session: valid queries only,
/// one line each.
pub fn serve_script(seed: u64) -> Vec<String> {
    const POLICIES: [&str; 8] = [
        "static",
        "instruction-based",
        "execute-only",
        "adaptive",
        "0",
        "1",
        "2",
        "3",
    ];
    let mut state = seed ^ 0x5EB5_C0DE_0000_0001;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..SERVE_QUERIES)
        .map(|_| {
            let verb = next() % 7;
            let policy = POLICIES[(next() % POLICIES.len() as u64) as usize];
            match verb {
                0 => "corpus".to_string(),
                1 => format!("speedup {policy}"),
                2 => format!("quantile {policy} {}", (next() % 21) as f64 / 20.0),
                3 => format!("violations {policy}"),
                4 => format!("hist {policy}"),
                5 => "recovery".to_string(),
                _ => format!("risk {policy}"),
            }
        })
        .collect()
}

/// Expected replies to `script` over a corpus of `report`, computed in
/// process on the oracle's report: no codec, no merge, no CLI.
pub fn expected_replies(report: &SweepReport, script: &[String]) -> Vec<String> {
    let mut corpus = Corpus::new();
    corpus
        .ingest(report.clone())
        .expect("a single report always ingests");
    let session = idca_bench::ServeSession::new(corpus, None);
    script
        .iter()
        .map(|query| match session.query(query) {
            Ok(reply) => reply,
            Err(error) => format!("error: {error}"),
        })
        .collect()
}

/// Runs one closed-loop serve session over `corpus`, checking every reply
/// against `expected`; returns per-query latencies in microseconds.
pub fn serve_session(
    repro: &Path,
    corpus: &Path,
    script: &[String],
    expected: &[String],
    tally: &mut Tally,
) -> io::Result<(Vec<f64>, Finished)> {
    let mut session = ServeSession::start(repro, corpus)?;
    let mut latencies = Vec::with_capacity(script.len());
    for (query, want) in script.iter().zip(expected) {
        let (reply, latency) = match session.ask(query, want.lines().count().max(1)) {
            Ok(answer) => answer,
            Err(error) => {
                // The server is gone: this query fails and the session ends.
                tally.check(false, || format!("serve `{query}`: {error}"));
                break;
            }
        };
        latencies.push(latency.as_secs_f64() * 1e6);
        tally.check(&reply == want, || {
            format!("serve `{query}` replied {reply:?}, expected {want:?}")
        });
    }
    let finished = session.finish()?;
    check_command(tally, "serve session", &finished, Some(""));
    Ok((latencies, finished))
}

/// What the oracle expects of one workload's outputs.
#[derive(Default)]
pub struct Oracle {
    /// Expected stdout of the timed sweep command (`sweep-wide`) or of
    /// `repro merge` (`storm-shards`).
    pub render: String,
    /// Expected stdout of the `storm-shards` cache fill.
    pub fill_render: String,
    /// Cycles × corners the workload's evaluation covers per iteration.
    pub cycle_corners: u64,
    /// The serve query script and its expected replies (`storm-shards`).
    pub script: Vec<String>,
    pub replies: Vec<String>,
}

/// Computes the oracle of `workload`: for the sweeps the single-phase
/// `pvt_sweep_direct` engine (live simulation, scalar observers, no corner
/// bank, no digest, no codec). Runs with two threads; its time is excluded
/// from every metric.
pub fn oracle(workload: Workload, seed: u64) -> Oracle {
    set_threads(2);
    let direct = |config: &SweepConfig| pvt_sweep_direct(config).expect("oracle sweep runs");
    let mut oracle = Oracle::default();
    match workload {
        Workload::Paper => {
            // The paper evaluates one nominal corner: its cycle count is
            // the characterization run plus the 14 suite kernels.
            let experiments = Experiments::prepare();
            oracle.cycle_corners = experiments.characterization.cycles
                + experiments
                    .suite_digests
                    .iter()
                    .map(|d| d.cycles())
                    .sum::<u64>();
        }
        Workload::SweepWide | Workload::StormShards => {
            let report = direct(&sweep_config(workload, seed));
            oracle.render = report.render();
            oracle.cycle_corners = report.total_cycles();
            if workload == Workload::StormShards {
                oracle.fill_render = direct(&fill_config(seed)).render();
                oracle.script = serve_script(seed);
                oracle.replies = expected_replies(&report, &oracle.script);
            }
        }
    }
    oracle
}

/// Metrics of one end-to-end run.
pub struct E2e {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cycle_corners_per_s: f64,
    pub peak_rss_mb: f64,
    pub serve_p50_us: Option<f64>,
    pub serve_p99_us: Option<f64>,
    pub iterations: usize,
    pub queries: usize,
    pub tally: Tally,
}

fn arg(path: &Path) -> &str {
    path.to_str().expect("work paths are UTF-8")
}

fn reset_dir(dir: &Path) -> io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}

/// Runs `workload` end to end for `seconds` after its set-up, checking each
/// output against `oracle`. `work` is a scratch directory inside the
/// checkout.
pub fn run_e2e(
    workload: Workload,
    seed: u64,
    seconds: u64,
    repro: &Path,
    work: &Path,
    oracle: &Oracle,
) -> io::Result<E2e> {
    let threads = workload.threads();
    let seed_arg = seed.to_string();
    let mut tally = Tally::default();
    let mut setups = Vec::with_capacity(SETUPS);

    let sweep_args: Vec<String>;
    let mut paper_reference: Option<Vec<u8>> = None;
    let cache = work.join("cache");
    let parts = work.join("parts");
    let corpus = work.join("corpus");
    match workload {
        Workload::Paper => {
            sweep_args = Vec::new();
            for _ in 0..SETUPS {
                let run = proc::run(repro, &[], threads)?;
                setups.push(run.wall.as_secs_f64());
                let stdout = String::from_utf8_lossy(&run.stdout);
                tally.check(run.success && stdout.contains(PAPER_CHECK), || {
                    format!("repro (set-up) did not print `{PAPER_CHECK}`")
                });
                paper_reference.get_or_insert(run.stdout);
            }
        }
        Workload::SweepWide => {
            let config = sweep_config(workload, seed);
            sweep_args = vec![
                "sweep".into(),
                "--seeds".into(),
                config.seeds.to_string(),
                "--corners".into(),
                config.corners.to_string(),
                "--seed".into(),
                seed_arg.clone(),
            ];
            let args: Vec<&str> = sweep_args.iter().map(String::as_str).collect();
            for _ in 0..SETUPS {
                let run = proc::run(repro, &args, threads)?;
                setups.push(run.wall.as_secs_f64());
                check_command(&mut tally, "sweep (set-up)", &run, Some(&oracle.render));
            }
        }
        Workload::StormShards => {
            sweep_args = Vec::new();
            let fill = fill_config(seed);
            for _ in 0..SETUPS {
                reset_dir(&cache)?;
                let args = [
                    "sweep",
                    "--seeds",
                    &fill.seeds.to_string(),
                    "--corners",
                    &fill.corners.to_string(),
                    "--seed",
                    &seed_arg,
                    "--interrupts",
                    STORM_INTERRUPTS,
                    "--digest-cache",
                    arg(&cache),
                ];
                let run = proc::run(repro, &args, threads)?;
                setups.push(run.wall.as_secs_f64());
                check_command(
                    &mut tally,
                    "cache fill (set-up)",
                    &run,
                    Some(&oracle.fill_render),
                );
            }
            reset_dir(&parts)?;
            reset_dir(&corpus)?;
        }
    }

    // Per iteration, the wall time of each command in order; the first
    // `sweeps` commands are the ones `cycle_corners_per_s` divides by.
    let mut walls: Vec<Vec<f64>> = Vec::new();
    let sweeps = if workload == Workload::StormShards {
        2
    } else {
        1
    };
    let mut peaks = Vec::new();
    let mut latencies = Vec::new();
    let started = Instant::now();
    while walls.len() < MIN_ITERATIONS || started.elapsed() < Duration::from_secs(seconds) {
        let mut commands = Vec::new();
        let mut peak = 0;
        match workload {
            Workload::Paper => {
                let run = proc::run(repro, &[], threads)?;
                let stdout = String::from_utf8_lossy(&run.stdout);
                let same = paper_reference.as_deref() == Some(&run.stdout[..]);
                tally.check(run.success && stdout.contains(PAPER_CHECK) && same, || {
                    format!("repro printed no `{PAPER_CHECK}` or differed from its set-up run")
                });
                commands.push(run.wall.as_secs_f64());
                peak = run.peak_rss_kib;
            }
            Workload::SweepWide => {
                let args: Vec<&str> = sweep_args.iter().map(String::as_str).collect();
                let run = proc::run(repro, &args, threads)?;
                check_command(&mut tally, "sweep", &run, Some(&oracle.render));
                commands.push(run.wall.as_secs_f64());
                peak = run.peak_rss_kib;
            }
            Workload::StormShards => {
                let config = sweep_config(workload, seed);
                let mut outputs = Vec::new();
                for shard in ["1/2", "2/2"] {
                    let out = parts.join(format!("shard-{}.sweep", &shard[..1]));
                    let args = [
                        "sweep",
                        "--seeds",
                        &config.seeds.to_string(),
                        "--corners",
                        &config.corners.to_string(),
                        "--seed",
                        &seed_arg,
                        "--interrupts",
                        STORM_INTERRUPTS,
                        "--faults",
                        STORM_FAULTS,
                        "--digest-cache",
                        arg(&cache),
                        "--shard",
                        shard,
                        "--out",
                        arg(&out),
                    ];
                    let run = proc::run(repro, &args, threads)?;
                    check_command(&mut tally, &format!("sweep shard {shard}"), &run, Some(""));
                    commands.push(run.wall.as_secs_f64());
                    peak = peak.max(run.peak_rss_kib);
                    outputs.push(out);
                }
                let merged = corpus.join("merged.sweep");
                let run = proc::run(
                    repro,
                    &["merge", arg(&merged), arg(&outputs[0]), arg(&outputs[1])],
                    threads,
                )?;
                check_command(&mut tally, "merge", &run, Some(&oracle.render));
                commands.push(run.wall.as_secs_f64());
                peak = peak.max(run.peak_rss_kib);
                let (session, served) =
                    serve_session(repro, &corpus, &oracle.script, &oracle.replies, &mut tally)?;
                latencies.extend(session);
                commands.push(served.wall.as_secs_f64());
                peak = peak.max(served.peak_rss_kib);
            }
        }
        walls.push(commands);
        peaks.push(peak as f64);
    }

    // The host's speed moves in phases, by up to 1.5x, and briefly runs
    // fast within slow phases. Each command's fastest run is the steadiest
    // estimate of its own cost: across 20 s windows its interquartile
    // spread was about 4 %, against about 10 % for the median (28 % on
    // `paper`). An iteration's time is the sum of its commands' fastest
    // runs, since a whole multi-command iteration rarely fits in one fast
    // stretch.
    let fastest = |commands: std::ops::Range<usize>| -> f64 {
        commands
            .map(|k| walls.iter().map(|w| w[k]).fold(f64::INFINITY, f64::min))
            .sum()
    };
    let has_serve = !latencies.is_empty();
    Ok(E2e {
        setup_s: median(&setups),
        wall_s: fastest(0..walls[0].len()),
        cycle_corners_per_s: oracle.cycle_corners as f64 / fastest(0..sweeps),
        peak_rss_mb: median(&peaks) * 1024.0 / 1e6,
        serve_p50_us: has_serve.then(|| nearest_rank(&latencies, 50.0)),
        serve_p99_us: has_serve.then(|| nearest_rank(&latencies, 99.0)),
        iterations: walls.len(),
        queries: latencies.len(),
        tally,
    })
}

/// Removes a run's scratch directory, and its parent once no other run
/// uses it.
pub fn remove_work_dir(dir: &Path) -> io::Result<()> {
    std::fs::remove_dir_all(dir)?;
    if let Some(parent) = dir.parent() {
        // Fails while another run's directory is still there.
        let _ = std::fs::remove_dir(parent);
    }
    Ok(())
}

/// A fresh scratch directory for one run inside the checkout.
pub fn work_dir(workload: Workload) -> io::Result<PathBuf> {
    let dir = PathBuf::from(".perfbench-work").join(format!(
        "{}-{}",
        workload.name(),
        std::process::id()
    ));
    reset_dir(&dir)?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_expected_output_counts_as_failed() {
        let run = Finished {
            stdout: b"pvt_sweep.version=1\npolicy.static.violations=0\n".to_vec(),
            stderr: Vec::new(),
            wall: Duration::ZERO,
            peak_rss_kib: 0,
            success: true,
        };
        let expected = "pvt_sweep.version=1\npolicy.static.violations=0\n";
        let corrupted = expected.replace("=0\n", "=1\n");
        let mut tally = Tally::default();
        check_command(&mut tally, "intact", &run, Some(expected));
        assert_eq!((tally.attempted, tally.failed), (1, 0));
        check_command(&mut tally, "corrupted", &run, Some(&corrupted));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.failed_frac(), 0.5);
        // A nonzero exit fails even with matching output.
        let crashed = Finished {
            success: false,
            ..run
        };
        check_command(&mut tally, "crashed", &crashed, Some(expected));
        assert_eq!(tally.failed, 2);
    }

    #[test]
    fn the_serve_script_derives_from_the_seed() {
        let script = serve_script(7);
        assert_eq!(script.len(), SERVE_QUERIES);
        assert_eq!(script, serve_script(7));
        assert_ne!(script, serve_script(8));
        assert!(script.iter().any(|q| q.starts_with("hist ")));
        assert!(script
            .iter()
            .all(|q| !q.trim().is_empty() && !q.contains('\n')));
    }
}
