//! `perfbench`: run one benchmark workload and print its metrics.
//!
//! ```text
//! perfbench --workload <build_ingest|serve_point|serve_scan|serve_socket>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (catalogs go under
//! `.bench_work/run-<pid>/`, the traced run's spans under `.bench_out/`).
//! The last line of stdout is the result object; the line before it
//! records the host and run.
//! Exit codes: 0 for a correct run, 1 for a failed or incorrect run,
//! 2 for a usage error.
//!
//! `perfbench shard-server --dir <catalog> --shard <k>` is the shard
//! server mode the benchmark starts its own server processes in.

use std::io::Read as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::run::{Options, Workload};

const USAGE: &str =
    "usage: perfbench --workload <build_ingest|serve_point|serve_scan|serve_socket> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    let mut opts = Options::new(
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.unwrap_or(false),
    );
    opts.server_exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    Ok(opts)
}

/// Serve one shard until stdin closes.
fn shard_server(args: &[String]) -> Result<(), String> {
    let (mut dir, mut shard) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--dir" => dir = Some(PathBuf::from(value)),
            "--shard" => shard = Some(value.parse::<usize>().map_err(|_| "bad --shard")?),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    let server = perfbench::layers::serve_shard(
        &dir.ok_or("--dir is required")?,
        shard.ok_or("--shard is required")?,
    )?;
    let mut out = std::io::stdout();
    writeln!(out, "LISTENING {}", server.local_addr()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    // The parent holds our stdin open for as long as we should serve.
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    drop(server);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("shard-server") {
        return match shard_server(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("shard-server: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match perfbench::run::run(&opts) {
        Ok(outcome) => {
            println!("{}", perfbench::record_line(&outcome));
            println!("{}", perfbench::result_line(&outcome));
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("{} of {} checked operations failed", outcome.failed, outcome.attempted);
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
