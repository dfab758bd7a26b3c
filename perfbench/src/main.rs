//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload in this process, generating every input from
//! `--seed`, and prints one JSON object as the last line of stdout:
//! `{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
//! metrics are the end-to-end ones of [`report::END_TO_END`]; with
//! `--trace 1` the run records spans around its calls into each layer and
//! prints the per-layer metrics of [`report::PER_LAYER`] instead (plus its
//! own `traced.*` end-to-end numbers, so tracing overhead shows).  Span
//! records go to `.perfbench/spans-<workload>-<seed>.jsonl`.
//!
//! Each workload sets itself up [`SETUP_REPS`] times (`setup_s` is the
//! median), then repeats its operations until `--seconds` have passed and
//! reports the median time of one unit of work as `wall_s`.  Every
//! operation is checked; a failed check counts the operation as failed and
//! its time is never reported.  Load stays within two cores: one process,
//! at most two worker threads.

mod hostile_checkpoint;
mod million_relax;
mod paper_estimate;
mod report;
mod sys;
mod tick_profile;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{Outcome, END_TO_END, PER_LAYER};
use trace::Tracer;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The workloads, each with the reason it is in the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperEstimate,
    MillionRelax,
    HostileCheckpoint,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperEstimate,
        Workload::MillionRelax,
        Workload::HostileCheckpoint,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperEstimate => "paper-estimate",
            Workload::MillionRelax => "million-relax",
            Workload::HostileCheckpoint => "hostile-checkpoint",
        }
    }

    /// Why the workload is in the benchmark (also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperEstimate => paper_estimate::WHY,
            Workload::MillionRelax => million_relax::WHY,
            Workload::HostileCheckpoint => hostile_checkpoint::WHY,
        }
    }

    fn run(self, ctx: &Context, out: &mut Outcome) -> Result<(), String> {
        match self {
            Workload::PaperEstimate => paper_estimate::run(ctx, out),
            Workload::MillionRelax => million_relax::run(ctx, out),
            Workload::HostileCheckpoint => hostile_checkpoint::run(ctx, out),
        }
    }
}

/// What every workload gets: its seed, its time budget and the tracer.
pub struct Context {
    pub seed: u64,
    pub seconds: Duration,
    pub tracer: Tracer,
}

impl Context {
    /// A seed for stream `stream`, item `index`, derived from the run's
    /// seed (splitmix64), so every input is a pure function of `--seed`.
    pub fn derive(&self, stream: u64, index: u64) -> u64 {
        derive_seed(self.seed, stream, index)
    }

    /// Repeats `op` until `--seconds` have passed since the first call
    /// started; `op` always runs at least once.
    pub fn repeat(&self, mut op: impl FnMut(u64) -> Result<(), String>) -> Result<(), String> {
        let start = Instant::now();
        let mut index = 0;
        loop {
            op(index)?;
            index += 1;
            if start.elapsed() >= self.seconds {
                return Ok(());
            }
        }
    }
}

pub fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03)
        ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <paper-estimate|million-relax|hostile-checkpoint> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    let s: u64 = value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad seconds {value:?}"))?;
                    seconds = Some(Duration::from_secs(s));
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad trace {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(reason) => {
            eprintln!("perfbench: {reason}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ctx = Context {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
    };
    let mut out = Outcome::default();
    let started = Instant::now();
    if let Err(reason) = args.workload.run(&ctx, &mut out) {
        eprintln!("perfbench: {}: {reason}", args.workload.name());
        return ExitCode::FAILURE;
    }
    out.finish();
    eprintln!(
        "perfbench: set-up samples {:?} s; unit samples {:?} s",
        out.setup, out.wall
    );
    if let Some(peak) = sys::peak_rss_mib() {
        out.set("peak_rss_mib", peak);
    }
    eprintln!(
        "perfbench: {} seed {} took {:.1} s; {} of {} operations failed",
        args.workload.name(),
        args.seed,
        started.elapsed().as_secs_f64(),
        out.failed,
        out.attempted
    );
    if let Some(reason) = &out.broken {
        eprintln!("perfbench: {reason}");
    }
    let line = if args.trace {
        for (traced, plain) in [("traced.setup_s", "setup_s"), ("traced.wall_s", "wall_s")] {
            if let Some(v) = out.get(plain) {
                out.set(traced, v);
            }
        }
        if let Err(e) = write_spans(&ctx.tracer, args.workload, args.seed) {
            eprintln!("perfbench: could not write spans: {e}");
        }
        out.to_json(PER_LAYER, true)
    } else {
        out.to_json(END_TO_END, false)
    };
    println!("{line}");
    ExitCode::SUCCESS
}

fn write_spans(tracer: &Tracer, workload: Workload, seed: u64) -> std::io::Result<()> {
    std::fs::create_dir_all(".perfbench")?;
    let path = format!(".perfbench/spans-{}-{seed}.jsonl", workload.name());
    std::fs::write(&path, tracer.to_jsonl())?;
    eprintln!("perfbench: spans written to {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_malformed_invocations_are_rejected() {
        let args = parse("--workload million-relax --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(args.workload, Workload::MillionRelax);
        assert_eq!(
            (args.seed, args.seconds.as_secs(), args.trace),
            (7, 10, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload paper-estimate --seed -1 --seconds 1 --trace 0",
            "--workload paper-estimate --seed 1 --seconds 0 --trace 0",
            "--workload paper-estimate --seed 1 --seconds 1 --trace 2",
            "--workload paper-estimate --seed 1 --seconds 1",
            "--workload paper-estimate --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse(bad).is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn derived_seeds_differ_across_streams_and_items() {
        let seeds: std::collections::BTreeSet<u64> = (0..4)
            .flat_map(|stream| (0..64).map(move |i| derive_seed(42, stream, i)))
            .collect();
        assert_eq!(seeds.len(), 256);
        assert_eq!(derive_seed(42, 1, 2), derive_seed(42, 1, 2));
    }

    #[test]
    fn benchmark_json_lists_every_workload_with_its_reason() {
        use gossip_store::ValueExt;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .map(|w| {
                (
                    w.field_str("name").expect("name").to_string(),
                    w.field_str("why").expect("why").to_string(),
                )
            })
            .collect();
        let ours: Vec<(String, String)> = Workload::ALL
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        assert_eq!(listed, ours);
        for (_, why) in &ours {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {why}"
            );
        }
    }
}
