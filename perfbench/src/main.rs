//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark workload from the repository root and prints, as
//! its last line, one JSON object: `correct`, `attempted`, `failed` and
//! the metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! Labels and diagnostics are printed before it as `# key: value` lines
//! and written, with the spans of a traced run, under `.bench_out/`.

use perfbench::report::{labels, pin_threads, record, result_line};
use perfbench::run::{run, RunArgs};
use perfbench::workload::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <serve-paper16|steady-aiot4096|repair-aiot256> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or(format!("--seconds: bad value {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunArgs {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: workload.full_size(),
        out_dir: PathBuf::from(".bench_out"),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    pin_threads();
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("cannot create {}: {e}", args.out_dir.display());
        return ExitCode::FAILURE;
    }
    let labels = labels(&args);
    let result = run(&args);
    for (key, value) in labels.iter().chain(&result.diagnostics) {
        println!("# {key}: {value}");
    }
    for failure in &result.failures {
        println!("# FAILED: {failure}");
    }
    for failure in &result.decision_failures {
        println!("# FAILED decision: {failure}");
    }
    let name = format!(
        "record-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = std::fs::write(args.out_dir.join(name), record(&labels, &result)) {
        eprintln!("cannot write the run record: {e}");
    }
    println!("{}", result_line(&result));
    ExitCode::SUCCESS
}
