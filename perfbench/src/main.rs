//! Command-line front end of the benchmark:
//!
//! ```text
//! perfbench --workload <verify|serve|threshold|native> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints every metric by name with its unit on stderr, then one JSON
//! line on stdout: `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 1 when any check failed, 2 on a usage or input error. A traced
//! run also writes its spans to `perfbench/out/`.

use std::process::ExitCode;

use perfbench::runner::{run, Opts, Report};

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts: Option<Opts> = None;
    let mut rest: Vec<(String, String)> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        if flag == "--workload" {
            opts = Some(Opts::new(&value));
        } else {
            rest.push((flag.clone(), value));
        }
    }
    let mut opts = opts.ok_or("--workload is required")?;
    for (flag, value) in rest {
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(opts.seconds >= 0.0 && opts.seconds <= 3600.0) {
                    return Err(bad(&"must be within 0..=3600"));
                }
            }
            "--trace" => opts.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

fn result_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .0
        .iter()
        .map(|(name, (v, unit))| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.tally.failed == 0,
        r.tally.attempted,
        r.tally.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} window {} s trace {} jobs {} (available parallelism {})",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.jobs,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("  {:<34} {:>16} {:>16}", "metric", "value", "host (raw)");
    for (name, (v, unit)) in &report.metrics.0 {
        let raw = report.raw.get(name).unwrap_or(*v);
        eprintln!("  {name:<34} {v:>16.6} {raw:>16.6} {unit}");
    }
    eprintln!(
        "  host speed factor {:.4} (reference loop time / this host's)",
        report.host_factor
    );
    eprintln!(
        "  checks: {} attempted, {} failed",
        report.tally.attempted, report.tally.failed
    );
    for note in &report.tally.notes {
        eprintln!("  FAILED: {note}");
    }
    if let Some(doc) = &report.chrome_trace {
        let dir = perfbench::pins::repo_root().join("perfbench").join("out");
        let path = dir.join(format!("trace-{}-seed{}.json", opts.workload, opts.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc)) {
            Ok(()) => eprintln!("  spans: {}", path.display()),
            Err(e) => eprintln!("  spans not written: {e}"),
        }
    }
    println!("{}", result_line(&report));
    if report.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
