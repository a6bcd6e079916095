//! `keybench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Prints notes to stderr and, as the last line of stdout, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

use relock_keybench::run::{result_json, run};
use relock_keybench::workload::{Workload, DEFAULT_SEED, WORKLOADS};
use std::process::ExitCode;

const USAGE: &str =
    "usage: keybench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 50.0, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value:?}: want a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("keybench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    eprintln!(
        "keybench: {} seed {} for {} s, trace {}",
        w.name, args.seed, args.seconds, args.trace
    );
    let report = run(w, args.seed, args.seconds, args.trace);
    eprint!("{}", report.notes);
    for m in &report.metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}
