//! Command line of the benchmark:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <shared-loop|churn-history|wire-poll> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name and unit, writes a run record (and, traced, the
//! spans) under `perfbench/out/`, and ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

use kspot_perfbench::{run, Config, Outcome, Size, WorkloadName};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

struct Args {
    workload: WorkloadName,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadName::parse(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(outcome: &Outcome) -> String {
    let entries: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

/// Writes the run record and the spans under `perfbench/out/`; a failure to
/// write is reported but does not fail the run.
fn write_record(args: &Args, outcome: &Outcome, correct: bool) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.as_str(),
        args.seed,
        u8::from(args.trace)
    );
    let mut fields = vec![
        ("workload".to_string(), json_string(args.workload.as_str())),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), args.trace.to_string()),
        (
            "nproc".to_string(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "rustc".to_string(),
            json_string(&command_line("rustc", &["-V"])),
        ),
        (
            "git_head".to_string(),
            json_string(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("correct".to_string(), correct.to_string()),
        ("attempted".to_string(), outcome.attempted.to_string()),
        ("failed".to_string(), outcome.failed.to_string()),
        ("error_rate".to_string(), json_number(outcome.error_rate())),
        ("metrics".to_string(), metrics_json(outcome)),
    ];
    fields.extend(
        outcome
            .record
            .iter()
            .map(|(k, v)| (k.clone(), json_string(v))),
    );
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  {}: {v}", json_string(k)))
        .collect();
    let record = format!("{{\n{}\n}}\n", body.join(",\n"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(dir.join(format!("{stem}.json")), record))
        .and_then(|_| match outcome.spans.is_empty() {
            true => Ok(()),
            false => std::fs::write(
                dir.join(format!("{stem}.spans.jsonl")),
                outcome.spans.join("\n") + "\n",
            ),
        });
    if let Err(e) = written {
        eprintln!("warning: could not write the run record: {e}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload <shared-loop|churn-history|wire-poll> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let config = Config {
        workload: args.workload,
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        trace: args.trace,
        size: Size::FULL,
        corrupt_expected: false,
    };
    let outcome = match run(&config) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let correct = outcome.failed == 0;
    write_record(&args, &outcome, correct);
    for m in &outcome.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<28} {:>16.6} fraction ({} of {} operations failed)",
        "error_rate",
        outcome.error_rate(),
        outcome.failed,
        outcome.attempted
    );
    for (key, value) in &outcome.record {
        println!("  {key}: {value}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome)
    );
    ExitCode::SUCCESS
}
