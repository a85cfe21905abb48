//! Benchmark of the CaMDN simulator: how fast it simulates, and what it
//! simulates.
//!
//! ```text
//! perfbench --workload <contention|camdn_closed|serve_replay>
//!           [--seed <n>] [--workload-seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! One invocation runs one workload (see `workload.rs`) on one thread.
//! It sets up, checks the simulator's outputs, times repeats of the
//! workload for `--seconds`, and prints one JSON line last on stdout:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! * `--trace 0` reports the end-to-end metrics: host set-up time,
//!   simulated cycles and requests per host second (medians over the
//!   set-ups, which run between the repeats, and over the timed
//!   repeats, scaled to a reference host speed by a fixed compute probe
//!   run before every repeat), the peak live heap, and the
//!   simulated outcomes (`sim_*`), which are deterministic per seed.
//! * `--trace 1` reports per-layer metrics instead (see `layers.rs`):
//!   spans timed from outside around calls into each crate, replays of
//!   the workload's own memory transfers through the cache, DRAM, NEC
//!   and allocator, and a paper-check line on stdout.
//!
//! `--seed` is the engine seed of every run (dispatch jitter, NPU
//! choice, the per-window seeds of the replay). `--workload-seed`
//! generates `serve_replay`'s trace and fault plan; it is part of the
//! workload's definition, like the closed loops' tenant set, so the
//! simulated outcomes differ little between engine seeds. Both default
//! to the engine's default seed, 13253953 (0xCA3D41).
//! Every invocation runs the output check: each repeat must reproduce
//! the first bit for bit, and a shortened run must equal the same run
//! under the per-line reference model. A mismatch or an engine or trace
//! error counts as a failed operation.

mod layers;
mod report;
mod workload;

use workload::{BoxErr, Closed, Kind, Serve};

#[global_allocator]
static ALLOC: report::PeakAlloc = report::PeakAlloc;

const USAGE: &str = "usage: perfbench --workload <contention|camdn_closed|serve_replay> \
                     [--seed <n>] [--workload-seed <n>] [--seconds <s>] [--trace <0|1>]";

/// The engine's default seed.
const DEFAULT_SEED: u64 = 0xCA3D41;

struct Args {
    kind: Kind,
    seed: u64,
    workload_seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut kind = None;
        let mut seed = DEFAULT_SEED;
        let mut workload_seed = DEFAULT_SEED;
        let mut seconds: f64 = 10.0;
        let mut trace = false;
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("bad {what}: {value:?}");
            match flag.as_str() {
                "--workload" => kind = Some(Kind::parse(&value).ok_or_else(|| bad("workload"))?),
                "--seed" => seed = value.parse().map_err(|_| bad("seed"))?,
                "--workload-seed" => {
                    workload_seed = value.parse().map_err(|_| bad("workload seed"))?
                }
                "--seconds" => {
                    seconds = value.parse().map_err(|_| bad("seconds"))?;
                    if !(seconds >= 0.0 && seconds.is_finite()) {
                        return Err(bad("seconds"));
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("trace flag")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            kind: kind.ok_or("--workload is required")?,
            seed,
            workload_seed,
            seconds,
            trace,
        })
    }
}

fn run(args: &Args) -> Result<report::Report, BoxErr> {
    match (args.kind, args.trace) {
        (Kind::ServeReplay, false) => {
            Serve::new(args.seed, args.workload_seed)?.end_to_end(args.seconds)
        }
        (kind, false) => Closed::new(kind, args.seed).end_to_end(args.seconds),
        (kind, true) => layers::traced(kind, args.seed, args.workload_seed, args.seconds),
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} workload seed {} seconds {} trace {}",
        args.kind.name(),
        args.seed,
        args.workload_seed,
        args.seconds,
        u8::from(args.trace)
    );
    match run(&args)
        .map_err(|e| e.to_string())
        .and_then(|r| r.to_json())
    {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
