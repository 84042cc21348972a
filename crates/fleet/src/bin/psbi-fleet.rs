//! `psbi-fleet` — run sharded buffer-insertion campaigns from the shell.
//!
//! ```text
//! psbi-fleet init   [--out campaign.json] [--circuits a,b] [--sigma 0,1,2]
//!                   [--samples N] [--yield-samples N] [--seed S] [--name X]
//! psbi-fleet plan   --spec campaign.json
//! psbi-fleet run    --spec campaign.json --journal c.journal
//!                   [--workers N] [--max-jobs K] [--report out.json]
//!                   [--with-timings] [--quiet] [--progress]
//!                   [--retries N] [--verify]
//! psbi-fleet report --spec campaign.json --journal c.journal
//!                   [--json out.json] [--with-timings]
//! psbi-fleet serve  [--addr HOST:PORT] [--max-campaigns N] [--lease-jobs K]
//!                   [--lease-ms MS] [--heartbeat-ms MS]
//!                   [--inline-grace-ms MS] [--once] [--addr-file PATH]
//!                   [--quiet] [--progress]
//! psbi-fleet worker [--addr HOST:PORT] [--name X] [--backoff-min-ms MS]
//!                   [--backoff-max-ms MS] [--max-idle-ms MS] [--quiet]
//!                   [--progress]
//! psbi-fleet submit --spec campaign.json --journal c.journal
//!                   [--addr HOST:PORT] [--retries N] [--verify] [--quiet]
//!                   [--progress]
//! ```
//!
//! `serve`/`worker`/`submit` are the distributed front-end: a dispatcher
//! partitions the job grid into leases executed by worker processes and
//! merges their results into the same append-only journal `run` writes —
//! byte-identical for any worker count or kill pattern.  `--addr`
//! defaults to `PSBI_DISPATCH_ADDR` (then 127.0.0.1:7171); `--journal`
//! on `submit` is a **dispatcher-side** path.
//!
//! Unless `--quiet`, progress goes to stderr as one line per finished
//! job plus a periodic summary (jobs committed / total, quarantines,
//! elapsed, ETA) read from the campaign ledger; `--progress` re-enables
//! it over `--quiet`.  Process modes are environment variables and apply
//! alike to `run`, `serve` and `worker`: `PSBI_TRACE=<path>` writes a
//! Chrome trace-event JSON file of the process's work (sampling batches,
//! flow passes, solver stages, job lifecycle; load it at
//! <https://ui.perfetto.dev>), `PSBI_METRICS=<path>` a metrics snapshot,
//! and `PSBI_NO_SEARCH_PRUNE=1` runs the unpruned reference search.
//! None of them changes a single canonical byte (see the README).
//!
//! `run` resumes automatically: jobs already present in the journal are
//! never re-executed, and an interrupted campaign continues exactly where
//! its journal ends (`--max-jobs` bounds how many new jobs one invocation
//! executes, which is also how the CI smoke test simulates a kill).
//!
//! A flag the subcommand does not take, a flag given twice or without
//! its value, or a value that does not parse is a usage error (exit 2);
//! nothing runs.  Every other failure class maps to a distinct exit code:
//! spec=3, io=4, journal=5, circuit=6, corrupt journal=7, worker crash=8,
//! verification failure=9, dispatch error=10 — see `FleetError::code`.

use psbi_fleet::{
    run_campaign, run_worker, serve, submit_campaign, CampaignReport, CampaignSpec, FleetError,
    FleetOptions, Journal, ServeOptions, SubmitOptions, WorkerOptions,
};
use psbi_netlist::bench_suite::CircuitRef;
use std::path::PathBuf;
use std::process::ExitCode;

/// Why a subcommand failed: a campaign failure whose class names the
/// exit code (see `FleetError::code`), or a command-line mistake — an
/// unknown command or flag, a flag given twice or without its value, or
/// a value that does not parse — reported with the usage text, exit 2.
#[derive(Debug)]
enum CliError {
    Usage(String),
    Fleet(FleetError),
}

impl CliError {
    fn code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Fleet(e) => e.code(),
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => f.write_str(m),
            CliError::Fleet(e) => e.fmt(f),
        }
    }
}

impl From<FleetError> for CliError {
    fn from(e: FleetError) -> Self {
        CliError::Fleet(e)
    }
}

/// The flags each subcommand takes: `(command, flags taking a value,
/// switches)`, space-separated.  Anything else is a usage error.
const COMMANDS: &[(&str, &str, &str)] = &[
    (
        "init",
        "out circuits sigma samples yield-samples seed name",
        "",
    ),
    ("plan", "spec", ""),
    (
        "run",
        "spec journal workers max-jobs report retries",
        "with-timings quiet progress verify",
    ),
    ("report", "spec journal json", "with-timings"),
    (
        "serve",
        "addr max-campaigns lease-jobs lease-ms heartbeat-ms inline-grace-ms addr-file",
        "once quiet progress",
    ),
    (
        "worker",
        "addr name backoff-min-ms backoff-max-ms max-idle-ms",
        "quiet progress",
    ),
    (
        "submit",
        "spec journal addr retries",
        "verify quiet progress",
    ),
];

/// One subcommand's `--key value` / `--flag` arguments, checked against
/// its entry in [`COMMANDS`] when parsed.
struct Args {
    /// Flag name (without `--`) and its value; switches carry `None`.
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses the arguments after `command`, refusing anything the
    /// command does not take.
    fn from_vec(command: &str, raw: Vec<String>) -> Result<Self, CliError> {
        let usage = |m: String| Err(CliError::Usage(m));
        let Some(&(_, valued, switches)) = COMMANDS.iter().find(|(name, _, _)| *name == command)
        else {
            return usage(format!("unknown command `{command}`"));
        };
        let takes = |list: &str, key: &str| list.split_whitespace().any(|f| f == key);
        let mut flags: Vec<(String, Option<String>)> = Vec::new();
        let mut raw = raw.into_iter();
        while let Some(arg) = raw.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return usage(format!("unexpected argument `{arg}`"));
            };
            if flags.iter().any(|(k, _)| k == key) {
                return usage(format!("--{key} given twice"));
            }
            let value = if takes(valued, key) {
                match raw.next() {
                    Some(v) if !v.starts_with("--") => Some(v),
                    _ => return usage(format!("--{key} needs a value")),
                }
            } else if takes(switches, key) {
                None
            } else {
                return usage(format!("`{command}` does not take --{key}"));
            };
            flags.push((key.to_string(), value));
        }
        Ok(Self { flags })
    }

    /// The value of `--key`, parsed; a value that does not parse is a
    /// usage error rather than a silent default.
    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, CliError> {
        let Some(v) = self
            .flags
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
        else {
            return Ok(None);
        };
        v.parse()
            .map(Some)
            .map_err(|_| CliError::Usage(format!("invalid value `{v}` for --{key}")))
    }

    fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|(k, _)| k == key)
    }

    fn list(&self, key: &str) -> Result<Option<Vec<String>>, CliError> {
        Ok(self
            .get::<String>(key)?
            .map(|s| s.split(',').map(|x| x.trim().to_string()).collect()))
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "psbi-fleet: sharded multi-circuit campaign runner\n\
         \n\
         usage:\n\
         \x20 psbi-fleet init   [--out campaign.json] [--circuits a,b] [--sigma 0,1,2]\n\
         \x20                   [--samples N] [--yield-samples N] [--seed S] [--name X]\n\
         \x20 psbi-fleet plan   --spec campaign.json\n\
         \x20 psbi-fleet run    --spec campaign.json --journal c.journal\n\
         \x20                   [--workers N] [--max-jobs K] [--report out.json]\n\
         \x20                   [--with-timings] [--quiet] [--progress]\n\
         \x20                   [--retries N] [--verify]\n\
         \x20 psbi-fleet report --spec campaign.json --journal c.journal\n\
         \x20                   [--json out.json] [--with-timings]\n\
         \x20 psbi-fleet serve  [--addr HOST:PORT] [--max-campaigns N] [--lease-jobs K]\n\
         \x20                   [--lease-ms MS] [--heartbeat-ms MS]\n\
         \x20                   [--inline-grace-ms MS] [--once] [--addr-file PATH]\n\
         \x20                   [--quiet] [--progress]\n\
         \x20 psbi-fleet worker [--addr HOST:PORT] [--name X] [--backoff-min-ms MS]\n\
         \x20                   [--backoff-max-ms MS] [--max-idle-ms MS] [--quiet]\n\
         \x20                   [--progress]\n\
         \x20 psbi-fleet submit --spec campaign.json --journal c.journal\n\
         \x20                   [--addr HOST:PORT] [--retries N] [--verify] [--quiet]\n\
         \x20                   [--progress]\n\
         \n\
         circuits: paper suite names (s9234, ...), demo classes\n\
         (tiny_demo:SEED, small_demo:SEED, medium_demo:SEED) or\n\
         sized:NAME:FFS:GATES:SEED\n\
         \n\
         --addr defaults to PSBI_DISPATCH_ADDR, then 127.0.0.1:7171\n\
         PSBI_TRACE / PSBI_METRICS write trace and metrics files;\n\
         PSBI_NO_SEARCH_PRUNE=1 runs the unpruned reference search\n\
         \n\
         exit codes: 2 usage, 3 spec, 4 io, 5 journal, 6 circuit,\n\
         7 corrupt journal, 8 worker crash, 9 verification failure,\n\
         10 dispatch error"
    );
    ExitCode::from(2)
}

fn load_spec(args: &Args) -> Result<CampaignSpec, CliError> {
    let path: String = args
        .get("spec")?
        .ok_or_else(|| FleetError::Spec("--spec <campaign.json> is required".into()))?;
    let text = std::fs::read_to_string(&path).map_err(|e| {
        FleetError::Io(std::io::Error::new(
            e.kind(),
            format!("reading `{path}`: {e}"),
        ))
    })?;
    Ok(CampaignSpec::from_json(&text)?)
}

fn journal_path(args: &Args) -> Result<PathBuf, CliError> {
    let journal: String = args
        .get("journal")?
        .ok_or_else(|| FleetError::Spec("--journal <path> is required".into()))?;
    Ok(PathBuf::from(journal))
}

fn cmd_init(args: &Args) -> Result<(), CliError> {
    let mut spec = CampaignSpec::example();
    if let Some(name) = args.get::<String>("name")? {
        spec.name = name;
    }
    if let Some(circuits) = args.list("circuits")? {
        spec.circuits = circuits
            .iter()
            .map(|c| CircuitRef::parse(c))
            .collect::<Result<_, _>>()
            .map_err(FleetError::Spec)?;
    }
    if let Some(sigmas) = args.list("sigma")? {
        spec.sigma_factors = sigmas
            .iter()
            .map(|s| {
                s.parse::<f64>()
                    .map_err(|_| FleetError::Spec(format!("bad sigma `{s}`")))
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(samples) = args.get("samples")? {
        spec.samples = samples;
        spec.calibration_samples = spec.samples.max(300);
    }
    if let Some(ys) = args.get("yield-samples")? {
        spec.yield_samples = ys;
    }
    if let Some(seed) = args.get("seed")? {
        spec.seed = seed;
    }
    spec.validate()?;
    let out: String = args.get("out")?.unwrap_or_else(|| "campaign.json".into());
    std::fs::write(&out, spec.to_json()).map_err(|e| {
        FleetError::Io(std::io::Error::new(
            e.kind(),
            format!("writing `{out}`: {e}"),
        ))
    })?;
    println!(
        "wrote `{out}`: {} circuits x {} targets = {} jobs (fingerprint {})",
        spec.circuits.len(),
        spec.sigma_factors.len(),
        spec.jobs().len(),
        spec.fingerprint()
    );
    Ok(())
}

fn cmd_plan(args: &Args) -> Result<(), CliError> {
    let spec = load_spec(args)?;
    println!(
        "campaign `{}` (fingerprint {}): {} jobs",
        spec.name,
        spec.fingerprint(),
        spec.jobs().len()
    );
    for job in spec.jobs() {
        let size = job.circuit.size().map_or_else(
            || "size unknown".to_string(),
            |(ns, ng)| format!("{ns} FFs, {ng} gates"),
        );
        println!(
            "  job {:>3}: {} ({size}) at T = muT + {}*sigmaT",
            job.index,
            job.circuit.id(),
            job.sigma_factor
        );
    }
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), CliError> {
    let opts = FleetOptions {
        workers: args.get("workers")?.unwrap_or(0),
        max_jobs: args.get("max-jobs")?,
        // On by default; --quiet silences it, --progress overrides --quiet.
        progress: args.has("progress") || !args.has("quiet"),
        retries: args.get("retries")?.unwrap_or(2),
        // PSBI_VERIFY=1 force-enables verification inside the flow even
        // without the flag.
        verify: args.has("verify"),
    };
    let spec = load_spec(args)?;
    let journal = journal_path(args)?;
    let outcome = run_campaign(&spec, &journal, &opts)?;
    let report = CampaignReport::from_outcome(&spec, &outcome);
    print!("{}", report.text());
    if let Some(out) = args.get::<String>("report")? {
        std::fs::write(&out, report.json(args.has("with-timings"))).map_err(|e| {
            FleetError::Io(std::io::Error::new(
                e.kind(),
                format!("writing `{out}`: {e}"),
            ))
        })?;
        println!("report written to `{out}`");
    }
    if !outcome.complete() {
        // Deliberately exit 0: stopping at a checkpoint (--max-jobs) is a
        // successful invocation, and the CI smoke's interrupted leg
        // depends on that.  Failures surface through Err.
        println!(
            "campaign incomplete ({}/{} jobs journaled); run again to resume",
            outcome.records.len(),
            outcome.total_jobs
        );
    }
    Ok(())
}

fn cmd_report(args: &Args) -> Result<(), CliError> {
    let spec = load_spec(args)?;
    let journal = journal_path(args)?;
    let records = Journal::replay(&journal, &spec)?;
    let report = CampaignReport::from_records(&spec, records);
    print!("{}", report.text());
    if let Some(out) = args.get::<String>("json")? {
        std::fs::write(&out, report.json(args.has("with-timings"))).map_err(|e| {
            FleetError::Io(std::io::Error::new(
                e.kind(),
                format!("writing `{out}`: {e}"),
            ))
        })?;
        println!("report written to `{out}`");
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), CliError> {
    let mut opts = ServeOptions::default();
    if let Some(addr) = args.get::<String>("addr")? {
        opts.addr = addr;
    }
    if let Some(n) = args.get("max-campaigns")? {
        opts.max_campaigns = n;
    }
    if let Some(k) = args.get("lease-jobs")? {
        opts.lease_jobs = k;
    }
    if let Some(ms) = args.get("lease-ms")? {
        opts.lease_ms = ms;
        opts.heartbeat_ms = (ms / 4).max(1);
    }
    if let Some(ms) = args.get("heartbeat-ms")? {
        opts.heartbeat_ms = ms;
    }
    if let Some(ms) = args.get("inline-grace-ms")? {
        opts.inline_grace_ms = ms;
    }
    opts.once = args.has("once");
    opts.progress = args.has("progress") || !args.has("quiet");
    opts.addr_file = args.get::<String>("addr-file")?.map(PathBuf::from);
    Ok(serve(opts)?)
}

fn cmd_worker(args: &Args) -> Result<(), CliError> {
    let mut opts = WorkerOptions::default();
    if let Some(addr) = args.get::<String>("addr")? {
        opts.addr = addr;
    }
    if let Some(name) = args.get::<String>("name")? {
        opts.name = name;
    }
    if let Some(ms) = args.get("backoff-min-ms")? {
        opts.backoff_min_ms = ms;
    }
    if let Some(ms) = args.get("backoff-max-ms")? {
        opts.backoff_max_ms = ms;
    }
    opts.max_idle_ms = args.get("max-idle-ms")?;
    opts.progress = args.has("progress") || !args.has("quiet");
    Ok(run_worker(&opts)?)
}

fn cmd_submit(args: &Args) -> Result<(), CliError> {
    let spec_path: String = args
        .get("spec")?
        .ok_or_else(|| FleetError::Spec("--spec <campaign.json> is required".into()))?;
    let spec_text = std::fs::read_to_string(&spec_path).map_err(|e| {
        FleetError::Io(std::io::Error::new(
            e.kind(),
            format!("reading `{spec_path}`: {e}"),
        ))
    })?;
    let journal = journal_path(args)?;
    let mut opts = SubmitOptions::default();
    if let Some(addr) = args.get::<String>("addr")? {
        opts.addr = addr;
    }
    if let Some(retries) = args.get("retries")? {
        opts.retries = retries;
    }
    opts.verify = args.has("verify");
    opts.progress = args.has("progress") || !args.has("quiet");
    let outcome = submit_campaign(&spec_text, &journal.display().to_string(), &opts)?;
    println!(
        "campaign {} complete: {}/{} jobs journaled ({} quarantined, {} resumed)",
        outcome.campaign, outcome.committed, outcome.total, outcome.quarantined, outcome.resumed
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = match argv.next() {
        Some(c) if !matches!(c.as_str(), "--help" | "-h" | "help") => c,
        _ => return usage(),
    };
    let result = Args::from_vec(&command, argv.collect()).and_then(|args| match command.as_str() {
        "init" => cmd_init(&args),
        "plan" => cmd_plan(&args),
        "run" => cmd_run(&args),
        "report" => cmd_report(&args),
        "serve" => cmd_serve(&args),
        "worker" => cmd_worker(&args),
        "submit" => cmd_submit(&args),
        _ => unreachable!("Args::from_vec accepts only known commands"),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(e)) => {
            eprintln!("psbi-fleet: {e}\n");
            usage()
        }
        Err(e) => {
            // One line per failure, and the exit code names the class so
            // scripts need not parse stderr.
            eprintln!("psbi-fleet: {e}");
            ExitCode::from(e.code())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(command: &str, list: &[&str]) -> Args {
        Args::from_vec(command, list.iter().map(|s| s.to_string()).collect())
            .expect("valid command line")
    }

    /// Parses a whitespace-separated command line.
    fn parse(command: &str, line: &str) -> Result<Args, CliError> {
        Args::from_vec(command, line.split_whitespace().map(String::from).collect())
    }

    fn usage_error(command: &str, line: &str) -> String {
        match parse(command, line) {
            Err(CliError::Usage(m)) => m,
            _ => panic!("`{command} {line}` must be refused as a usage error"),
        }
    }

    #[test]
    fn known_flags_parse_with_typed_values() {
        let line = "--spec c.json --journal c.journal --workers 8 --max-jobs 1 --quiet --verify";
        let a = parse("run", line).unwrap();
        assert_eq!(a.get::<String>("spec").unwrap().as_deref(), Some("c.json"));
        assert_eq!(a.get::<usize>("workers").unwrap(), Some(8));
        assert_eq!(a.get::<usize>("max-jobs").unwrap(), Some(1));
        assert_eq!(a.get::<usize>("retries").unwrap(), None);
        assert!(a.has("quiet") && a.has("verify") && !a.has("progress"));
        let a = parse("init", "--sigma -1,0,2").unwrap();
        assert_eq!(
            a.list("sigma").unwrap(),
            Some(vec!["-1".into(), "0".into(), "2".into()])
        );
    }

    #[test]
    fn unparsable_values_are_usage_errors() {
        let a = parse("run", "--spec c.json --max-jobs 1O --workers abc").unwrap();
        let m = a.get::<usize>("max-jobs").unwrap_err().to_string();
        assert!(m.contains("`1O`") && m.contains("--max-jobs"), "{m}");
        assert!(a.get::<usize>("workers").is_err());
        // The command stops there, before it reads the (missing) spec.
        let e = cmd_run(&a).unwrap_err();
        assert_eq!(e.code(), 2, "unexpected error {e}");
    }

    #[test]
    fn unknown_flags_and_stray_arguments_are_usage_errors() {
        let m = usage_error("run", "--spec c.json --no-such-flag --quiet");
        assert!(m.contains("--no-such-flag"), "{m}");
        // A flag of one subcommand is not accepted by another.
        assert!(usage_error("plan", "--spec c.json --workers 2").contains("--workers"));
        assert!(usage_error("report", "--quiet").contains("--quiet"));
        assert!(usage_error("run", "c.json").contains("`c.json`"));
        assert!(usage_error("launch", "").contains("`launch`"));
    }

    #[test]
    fn retired_mode_flags_are_usage_errors() {
        // Search pruning and tracing are set through PSBI_NO_SEARCH_PRUNE
        // and PSBI_TRACE only, alike for every subcommand.
        let m = usage_error("run", "--spec c.json --journal c.journal --no-search-prune");
        assert!(m.contains("--no-search-prune"), "{m}");
        let m = usage_error("run", "--spec c.json --journal c.journal --trace t.json");
        assert!(m.contains("--trace"), "{m}");
        for command in ["serve", "worker", "submit"] {
            assert!(usage_error(command, "--trace t.json").contains("--trace"));
        }
        match parse("run", "--no-search-prune") {
            Err(e) => assert_eq!(e.code(), 2),
            Ok(_) => panic!("--no-search-prune must be refused"),
        }
    }

    #[test]
    fn missing_or_repeated_values_are_usage_errors() {
        assert!(usage_error("run", "--spec").contains("needs a value"));
        assert!(usage_error("run", "--journal --quiet").contains("needs a value"));
        assert!(usage_error("serve", "--once --once").contains("twice"));
        assert!(usage_error("init", "--seed 1 --seed 2").contains("twice"));
    }

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("psbi_fleet_cli_test_{tag}_{}", std::process::id()))
    }

    #[test]
    fn malformed_spec_json_is_a_spec_error() {
        let path = tmp_path("badspec");
        std::fs::write(&path, "{not json").unwrap();
        let e = cmd_plan(&args("plan", &["--spec", path.to_str().unwrap()])).unwrap_err();
        assert_eq!(e.code(), 3, "unexpected error {e}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_spec_flag_is_a_spec_error() {
        let e = cmd_plan(&args("plan", &[])).unwrap_err();
        assert_eq!(e.code(), 3);
        assert!(e.to_string().contains("--spec"));
    }

    #[test]
    fn unreadable_journal_is_an_io_error() {
        let spec_path = tmp_path("iospec");
        std::fs::write(&spec_path, CampaignSpec::example().to_json()).unwrap();
        let missing = tmp_path("no_such_journal");
        let _ = std::fs::remove_file(&missing);
        let e = cmd_report(&args(
            "report",
            &[
                "--spec",
                spec_path.to_str().unwrap(),
                "--journal",
                missing.to_str().unwrap(),
            ],
        ))
        .unwrap_err();
        assert_eq!(e.code(), 4, "unexpected error {e}");
        let _ = std::fs::remove_file(&spec_path);
    }

    #[test]
    fn fingerprint_mismatch_is_a_journal_error() {
        // A journal written for spec A, reported against spec B.
        let spec_a = CampaignSpec::example();
        let mut spec_b = spec_a.clone();
        spec_b.samples += 1;
        let journal_path = tmp_path("fpjournal");
        let _ = std::fs::remove_file(&journal_path);
        let (journal, _) = Journal::open(&journal_path, &spec_a).unwrap();
        drop(journal);
        let spec_path = tmp_path("fpspec");
        std::fs::write(&spec_path, spec_b.to_json()).unwrap();
        let e = cmd_report(&args(
            "report",
            &[
                "--spec",
                spec_path.to_str().unwrap(),
                "--journal",
                journal_path.to_str().unwrap(),
            ],
        ))
        .unwrap_err();
        assert_eq!(e.code(), 5, "unexpected error {e}");
        assert!(e.to_string().contains("fingerprint"));
        for p in [&journal_path, &spec_path] {
            let _ = std::fs::remove_file(p);
        }
    }
}
