//! Two-clock, layer-by-layer benchmark of the CrossPrefetch reproduction.
//!
//! `--workload W --seed N --seconds S --trace 0|1` measures one workload in
//! this process and prints one JSON object as the last line of stdout (the
//! driver's contract). Without `--trace` the program is the front end: it
//! runs each selected workload's untraced and traced measurement in child
//! processes of itself, so that peak memory is each workload's own, and
//! prints every metric by name. See `README.md`.

mod catalog;
mod gen;
mod layers;
mod measure;
mod spans;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use catalog::{Clock, END_TO_END, PER_LAYER, RUN_SECONDS};
use measure::{Outcome, Values};
use workload::Kind;

pub const PAGE: u64 = 4096;

const USAGE: &str = "\
usage: cp-benchmark [--all | --workload NAME] [--seed N] [--seconds S] [--quick]
                    [--trace 0|1] [--json PATH] [--check-repeat]
                    [--emit-benchmark-json]
  --workload NAME   seq_stream | kv_probe | fleet_open | tier_rw
  --all             every workload (the default without --workload)
  --seed N          seed of the generated op streams (default 42)
  --seconds S       host seconds of timed repeats per workload (default 12)
  --quick           op counts divided by 10, for smoke runs
  --trace 0|1       measure in this process and print the driver's JSON line:
                    0 = end-to-end metrics, 1 = per-layer metrics and spans
  --json PATH       also write every metric of the run to PATH
  --check-repeat    run twice and fail unless the two sets agree";

struct Args {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: f64,
    quick: bool,
    trace: Option<bool>,
    json: Option<PathBuf>,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: RUN_SECONDS as f64,
        quick: false,
        trace: None,
        json: None,
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--all" => args.workloads = Kind::all().to_vec(),
            "--workload" => {
                let name = value("a workload name")?;
                args.workloads = vec![Kind::parse(&name).ok_or(format!("unknown workload {name}"))?];
            }
            "--seed" => args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--json" => args.json = Some(value("a path")?.into()),
            "--quick" => args.quick = true,
            "--check-repeat" => args.check_repeat = true,
            "--emit-benchmark-json" => {
                print!("{}", catalog::benchmark_json());
                std::process::exit(0);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.trace.is_some() && args.workloads.len() != 1 {
        return Err("--trace measures one workload: name it with --workload".into());
    }
    if args.workloads.is_empty() {
        args.workloads = Kind::all().to_vec();
    }
    Ok(args)
}

/// Where trace files go: `out/` in the crate directory this binary was
/// built from.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn unit_of(name: &str) -> (&'static str, Clock) {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.clock))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.clock)))
        .find(|m| m.0 == name)
        .map_or(("", Clock::Count), |m| (m.1, m.2))
}

/// The driver's result line.
fn result_line(out: &Outcome) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.findings.is_empty(),
        out.attempted.max(1),
        out.failed
    );
    for (i, (name, value)) in out.values.iter().enumerate() {
        let _ = write!(
            line,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            unit_of(name).0
        );
    }
    line.push_str("}}");
    line
}

fn print_values(values: &Values) {
    for (name, value) in values {
        let (unit, clock) = unit_of(name);
        println!("  {name:<44} {value:>18.4} {unit:<8} [{}]", clock.label());
    }
}

/// `--trace` given: measure here, print the report and the result line.
fn measure_here(args: &Args, traced: bool) -> ExitCode {
    let kind = args.workloads[0];
    let divisor = if args.quick { 10 } else { 1 };
    let out = if traced {
        layers::per_layer(kind, args.seed, divisor, &out_dir())
    } else {
        measure::end_to_end(kind, args.seed, args.seconds, divisor)
    };
    println!(
        "== {} seed {} {} ==",
        kind.name(),
        args.seed,
        if traced { "traced run + layer probes" } else { "end to end, tracing off" }
    );
    for note in &out.notes {
        println!("  {note}");
    }
    print_values(&out.values);
    println!(
        "  failed_ops_share {} / {} = {}",
        out.failed,
        out.attempted,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for finding in &out.findings {
        println!("  FINDING: {finding}");
    }
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, format!("{}\n", result_line(&out))) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result_line(&out));
    exit_code(out.findings.is_empty())
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ----- front end ------------------------------------------------------------------

/// One workload's two child runs, parsed back from their result lines.
struct Set {
    kind: Kind,
    values: Values,
    ok: bool,
}

/// Pulls `"name": {"value": X` out of a result line this program wrote.
fn value_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

fn run_child(args: &Args, kind: Kind, traced: bool) -> (Values, bool) {
    let exe = std::env::current_exe().expect("path of this program");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name(), "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().expect("start a child measurement");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("{line}");
    }
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let names: Vec<&'static str> = if traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let values: Values = names.iter().filter_map(|n| value_in(last, n).map(|v| (*n, v))).collect();
    let ok = output.status.success() && values.len() == names.len() && last.contains("\"correct\": true");
    (values, ok)
}

fn run_set(args: &Args) -> Vec<Set> {
    args.workloads
        .iter()
        .map(|&kind| {
            let (mut values, ok0) = run_child(args, kind, false);
            let (layer, ok1) = run_child(args, kind, true);
            values.extend(layer);
            Set { kind, values, ok: ok0 && ok1 }
        })
        .collect()
}

/// Do two sets of the same code agree? Virtual metrics and counts must be
/// identical; gated host metrics must agree within their own bound
/// (`setup_s`: or within 0.05 s). Layer host timings carry no bound and
/// are printed, not judged.
fn compare(a: &[Set], b: &[Set]) -> bool {
    let mut agree = true;
    for (sa, sb) in a.iter().zip(b) {
        println!("== {}: first set | second set ==", sa.kind.name());
        for ((name, va), (_, vb)) in sa.values.iter().zip(&sb.values) {
            let (unit, clock) = unit_of(name);
            let bound = END_TO_END.iter().find(|m| m.name == *name).map(|m| m.bound);
            let (verdict, ok) = match (clock, bound) {
                (Clock::Virtual | Clock::Count, _) if va == vb => ("same", true),
                (Clock::Virtual | Clock::Count, _) => ("DIFFERS", false),
                (Clock::Host, None) => ("", true),
                (Clock::Host, Some(bound)) => {
                    let slack = if *name == "setup_s" { 0.05 } else { 0.0 };
                    let gap = (va - vb).abs();
                    if gap <= bound * va.abs().min(vb.abs()) || gap <= slack {
                        ("within bound", true)
                    } else {
                        ("OUTSIDE BOUND", false)
                    }
                }
            };
            agree &= ok;
            println!("  {name:<44} {va:>18.4} | {vb:>18.4} {unit:<8} {verdict}");
        }
    }
    agree
}

fn sets_json(seed: u64, sets: &[Set]) -> String {
    let mut out = format!("{{\"seed\": {seed}, \"workloads\": {{");
    for (i, set) in sets.iter().enumerate() {
        let _ = write!(out, "{}\n\"{}\": {{", if i > 0 { "," } else { "" }, set.kind.name());
        for (j, (name, value)) in set.values.iter().enumerate() {
            let (unit, clock) = unit_of(name);
            let _ = write!(
                out,
                "{}\n  \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\", \"clock\": \"{}\"}}",
                if j > 0 { "," } else { "" },
                clock.label()
            );
        }
        out.push_str("\n}");
    }
    out.push_str("\n}}\n");
    out
}

fn front_end(args: &Args) -> ExitCode {
    let first = run_set(args);
    let mut ok = first.iter().all(|s| s.ok);
    if args.check_repeat {
        let second = run_set(args);
        ok &= second.iter().all(|s| s.ok);
        ok &= compare(&first, &second);
    }
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, sets_json(args.seed, &first)) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", if ok { "benchmark: all checks passed" } else { "benchmark: FAILED, see above" });
    exit_code(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("{message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.trace {
        Some(traced) => measure_here(&args, traced),
        None => front_end(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_front_end_reads_back_the_result_line_it_writes() {
        let out = Outcome {
            values: vec![("wall_kops_per_s", 1084.25), ("setup_s", 0.0625)],
            attempted: 10,
            ..Outcome::default()
        };
        let line = result_line(&out);
        assert_eq!(value_in(&line, "wall_kops_per_s"), Some(1084.25));
        assert_eq!(value_in(&line, "setup_s"), Some(0.0625));
        assert_eq!(value_in(&line, "virt_mbps"), None);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
    }
}
