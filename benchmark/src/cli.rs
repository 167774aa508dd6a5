//! Command-line front end.

use crate::json::Json;
use crate::{metrics, run, suite, trial, workloads};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// `--key value` pairs after the subcommand, plus positional words.
struct Cli {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            flags: Vec::new(),
            words: Vec::new(),
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(key) => {
                    let value = args.next().ok_or(format!("--{key} needs a value"))?;
                    cli.flags.push((key.to_string(), value));
                }
                None => cli.words.push(arg),
            }
        }
        Ok(cli)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value {v:?}")),
        }
    }

    fn spec(&self) -> Result<&'static workloads::Spec, String> {
        let name = self.get("workload").ok_or("--workload is required")?;
        workloads::spec(name).ok_or_else(|| {
            let names: Vec<&str> = workloads::SPECS.iter().map(|s| s.name).collect();
            format!("unknown workload {name:?}; one of {names:?}")
        })
    }

    fn out(&self) -> PathBuf {
        PathBuf::from(self.get("out").unwrap_or("benchmark/out"))
    }
}

fn real_main(started: Instant) -> Result<bool, String> {
    // Clock-bearing telemetry stays off whatever `OROCHI_OBS` says.
    orochi_obs::set_enabled(false);
    let mut args = std::env::args().skip(1).peekable();
    let sub = match args.peek() {
        Some(first) if !first.starts_with("--") => args.next().expect("peeked"),
        _ => "run".to_string(),
    };
    let cli = Cli::parse(args)?;
    match sub.as_str() {
        "run" => {
            let args = run::RunArgs {
                spec: cli.spec()?,
                seed: cli.number("seed", 42)?,
                seconds: cli.number("seconds", 14.0)?,
                // Three fit the driver's time cap for 92 runs.
                setups: 3,
                scale_mult: cli.number("scale-mult", 1.0)?,
                out: cli.out(),
            };
            std::fs::create_dir_all(&args.out)
                .map_err(|e| format!("{}: {e}", args.out.display()))?;
            let traced = cli.number("trace", 0u8)? != 0;
            let report = if traced {
                run::run_traced(&args)
            } else {
                run::run_untraced(&args)
            };
            let kind = if traced { "per-layer" } else { "end-to-end" };
            suite::print_report(args.spec.name, kind, &report);
            let line = Json::obj([
                ("correct", Json::Bool(report.correct())),
                ("attempted", Json::Num(report.attempted as f64)),
                ("failed", Json::Num(report.failed as f64)),
                ("metrics", metrics::contract_metrics(&report.summaries)),
            ]);
            println!("{}", line.render());
            Ok(report.correct())
        }
        "suite" => {
            let out = cli.out();
            std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
            let results = cli
                .get("results")
                .map_or_else(|| out.join("results.json"), PathBuf::from);
            Ok(suite::run_suite(
                cli.number("seed", 42)?,
                cli.number("seconds", suite::SUITE_SECONDS)?,
                cli.number("scale-mult", 1.0)?,
                &out,
                &results,
            ))
        }
        "compare" => match cli.words.as_slice() {
            [a, b] => suite::compare(a.as_ref(), b.as_ref()),
            _ => Err("usage: compare A.json B.json".to_string()),
        },
        "trial" => {
            let arm = cli.get("arm").and_then(trial::Arm::parse).ok_or("--arm")?;
            let args = trial::TrialArgs {
                arm,
                spec: cli.spec()?,
                scale_mult: cli.number("scale-mult", 1.0)?,
                store: cli.get("store").ok_or("--store is required")?.into(),
                threads: cli.number("threads", 1)?,
                traced: cli.number("traced", 0u8)? != 0,
            };
            println!("{}", trial::run_child(&args, started).render());
            Ok(true)
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

/// The binary's entry point: parses the command line, runs, and maps
/// the outcome to an exit code (0 ok, 1 a wrong verdict or a failed
/// comparison, 2 a usage or I/O error).
pub fn main() -> ExitCode {
    let started = Instant::now();
    match real_main(started) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("orochi-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
