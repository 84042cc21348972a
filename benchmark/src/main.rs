//! `cargo run --release --manifest-path benchmark/Cargo.toml --
//! --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric and, as the last line, the JSON result.
//! Exits 2 on bad arguments and 1 when the workload cannot be set up.

use psbi_benchmark::workloads::{self, Params, Workload, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Params, String> {
    let mut p = Params {
        workload: Workload::ExactS9234,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        tiny: false,
        work_dir: PathBuf::from(".bench_out"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => p.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                p.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(p.seconds.is_finite() && p.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                p.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    p.workload = workload.ok_or("--workload is required")?;
    Ok(p)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let p = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark: {e}");
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("workloads: {}", names.join(", "));
            return ExitCode::from(2);
        }
    };
    match workloads::run(&p) {
        Ok(out) => {
            print!("{}", out.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark: {} cannot run: {e}", p.workload.name());
            ExitCode::from(1)
        }
    }
}
