//! `payless-sockbench --workload NAME --seed N --seconds S --trace 0|1
//! --server PATH`: one benchmark run. Prints context lines, then the result
//! as one JSON object on the last line. Exits 0 when every answer and check
//! held, 1 when one did not, 2 when the run could not be made.

use std::path::PathBuf;

use payless_sockbench::load::Workload;
use payless_sockbench::run::{run, Config};

fn parse_args() -> Result<Config, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--server" => server = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        server: server.ok_or("--server is required")?,
    })
}

fn main() {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("payless-sockbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("payless-sockbench: run failed: {e}");
            std::process::exit(2);
        }
    };
    for note in &out.notes {
        println!("# {note}");
    }
    for c in &out.checks {
        let verdict = if c.passed { "ok" } else { "FAILED" };
        println!("# check {}: {verdict} ({})", c.name, c.detail);
    }
    println!("{}", out.result_line(cfg.trace));
    if !out.correct() {
        std::process::exit(1);
    }
}
