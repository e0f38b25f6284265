//! `ccs-perfbench`: one benchmark pass against the real `ccs-server`.
//!
//! ```text
//! ccs-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Normally started through `perfbench/run.sh`, which builds the server and
//! this binary first.  Every line but the last is for people; the last line
//! is the JSON result: with `--trace 0` it carries the end-to-end metrics,
//! with `--trace 1` the per-layer metrics of the traced replay.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ccs_perfbench::stats::{median, percentile, tail_percentile};
use ccs_perfbench::trace::{self, LayerRun, RECON_ABS_MS, RECON_REL};
use ccs_perfbench::wire::{self, Log, Timed};
use ccs_perfbench::workload::{Op, Plan, Workload};
use ccs_perfbench::END_TO_END;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::WarmQuery,
        seed: 1,
        seconds: 25,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?;
            }
            "--seed" => args.seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or("--seconds needs a positive integer")?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ccs-perfbench: {e}");
            eprintln!("usage: ccs-perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    // The server's tuning knobs are left at their defaults, in the child
    // and in the in-process replay alike.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("CCS_") {
            std::env::remove_var(key);
        }
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ccs-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let binary = wire::server_binary();
    if !binary.is_file() {
        return Err(format!("no server binary at {}", binary.display()));
    }
    // Set-up runs several times and `setup_s` is the median.  Each time
    // generates the inputs, computes the oracle's answers, starts the server
    // and warms its sessions; the last one's server serves the timed run.
    let mut setup_samples = Vec::new();
    let mut prepare_samples = Vec::new();
    let mut checks = Log::default();
    let mut current = None;
    for _ in 0..SETUPS {
        drop(current.take());
        let started = Instant::now();
        let plan = Plan::prepare(args.workload, args.seed)?;
        prepare_samples.push(started.elapsed().as_secs_f64());
        let ready = wire::set_up(&plan, &binary).map_err(|e| format!("set-up: {e}"))?;
        setup_samples.push(started.elapsed().as_secs_f64());
        current = Some((plan, ready));
    }
    let (plan, mut ready) = current.expect("at least one set-up");
    let prepare_s = median(&prepare_samples).unwrap_or(0.0);
    checks.absorb(std::mem::take(&mut ready.log));
    let timed = wire::closed_loop(&plan, &mut ready, Duration::from_secs(args.seconds));
    let rss = ready.server.peak_rss_mb();
    drop(ready);

    let (req_pct, job_pct) = args.workload.tail_percentiles();
    let mut e2e = end_to_end(&timed, req_pct, job_pct);
    e2e.insert(0, ("setup_s", median(&setup_samples), "s"));
    e2e.push(("server_peak_rss_mb", rss, "MB"));
    let failed_timed = timed.log.failed;
    let attempted_timed = timed.log.attempted;

    let layers = args.trace.then(|| {
        trace::replay(
            &plan,
            &timed,
            Duration::from_secs_f64(args.seconds as f64 * 0.6),
        )
    });

    let requests = timed.log.requests.len();
    let jobs = timed.log.jobs.len();
    for (name, value, unit) in &e2e {
        match value {
            Some(v) => println!("{name} {v:.4} {unit}"),
            None => println!("{name} - (no such request in this workload)"),
        }
    }
    let error_rate = if attempted_timed == 0 {
        0.0
    } else {
        failed_timed as f64 / attempted_timed as f64
    };
    println!("error_rate {error_rate} ratio");
    println!(
        "requests {requests} jobs {jobs} elapsed_s {:.3} prepare_s {prepare_s:.3} tails p{req_pct}/p{job_pct} (rule allows p{}/p{})",
        timed.elapsed,
        fmt_pct(tail_percentile(requests)),
        fmt_pct(tail_percentile(jobs)),
    );
    if let Some(l) = &layers {
        print_layers(l);
    }
    println!(
        "{}",
        summary(
            args,
            &e2e,
            error_rate,
            prepare_s,
            &setup_samples,
            &timed,
            layers.as_ref()
        )
    );
    checks.absorb(timed.log);
    if let Some(l) = &layers {
        checks.attempted += l.log.attempted;
        checks.failed += l.log.failed;
        checks.reasons.extend(l.log.reasons.iter().take(5).cloned());
    }
    for reason in checks.reasons.iter().take(5) {
        eprintln!("failure: {reason}");
    }
    let mut last = String::new();
    let _ = write!(
        last,
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{"#,
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed
    );
    let reported: Vec<(String, f64, &str)> = match &layers {
        Some(l) => l.metrics.clone(),
        None => e2e
            .iter()
            .filter(|(name, _, _)| END_TO_END.contains(name))
            .map(|&(name, value, unit)| (name.to_owned(), value.unwrap_or(0.0), unit))
            .collect(),
    };
    for (i, (name, value, unit)) in reported.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            last,
            r#"{sep}"{name}":{{"value":{},"unit":"{unit}"}}"#,
            num(*value)
        );
    }
    last.push_str("}}");
    println!("{last}");
    Ok(())
}

fn end_to_end(
    timed: &Timed,
    req_pct: f64,
    job_pct: f64,
) -> Vec<(&'static str, Option<f64>, &'static str)> {
    let all: Vec<f64> = timed.log.requests.iter().map(|r| r.1).collect();
    let of = |op: Op| -> Vec<f64> {
        timed
            .log
            .requests
            .iter()
            .filter(|r| r.0 == op)
            .map(|r| r.1)
            .collect()
    };
    vec![
        (
            "req_per_s",
            (timed.elapsed > 0.0).then(|| all.len() as f64 / timed.elapsed),
            "1/s",
        ),
        ("latency_p50_ms", median(&all), "ms"),
        ("latency_tail_ms", percentile(&all, req_pct), "ms"),
        ("job_p50_ms", median(&timed.log.jobs), "ms"),
        ("job_tail_ms", percentile(&timed.log.jobs, job_pct), "ms"),
        ("pair_p50_ms", median(&of(Op::Pair)), "ms"),
        ("open_p50_ms", median(&of(Op::Open)), "ms"),
        ("classify_p50_ms", median(&of(Op::Classify)), "ms"),
        ("mutate_p50_ms", median(&of(Op::Mutate)), "ms"),
    ]
}

fn print_layers(l: &LayerRun) {
    for (name, value, unit) in &l.metrics {
        println!("{name} {value:.6} {unit}");
    }
    for r in &l.recon {
        println!(
            "reconcile {}: handle_line {:.3} ms, layers {:.3} ms over {} requests ({})",
            r.op.name(),
            r.handle_ms,
            r.layers_ms,
            r.count,
            if r.within() {
                "within tolerance"
            } else {
                "OUTSIDE tolerance"
            }
        );
    }
    println!(
        "top layer by self time: {} ({:.1} ms over {} replayed jobs)",
        l.top_layer.0, l.top_layer.1, l.jobs
    );
}

fn summary(
    args: &Args,
    e2e: &[(&str, Option<f64>, &str)],
    error_rate: f64,
    prepare_s: f64,
    setup_samples: &[f64],
    timed: &Timed,
    layers: Option<&LayerRun>,
) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        r#"{{"benchmark":"ccs-perfbench","claim":null,"workload":"{}","seed":{},"seconds":{},"connections":{},"host":{},"#,
        args.workload,
        args.seed,
        args.seconds,
        ccs_perfbench::workload::CONNECTIONS,
        host_stamp()
    );
    let (req_pct, job_pct) = args.workload.tail_percentiles();
    let _ = write!(
        s,
        r#""tail_percentile":{{"request":{req_pct},"job":{job_pct}}},"requests":{},"jobs":{},"elapsed_s":{},"prepare_s":{},"setup_s_samples":[{}],"error_rate":{},"#,
        timed.log.requests.len(),
        timed.log.jobs.len(),
        num(timed.elapsed),
        num(prepare_s),
        setup_samples
            .iter()
            .map(|&v| num(v))
            .collect::<Vec<_>>()
            .join(","),
        num(error_rate)
    );
    s.push_str(r#""end_to_end":{"#);
    let present: Vec<String> = e2e
        .iter()
        .filter_map(|(name, v, unit)| {
            v.map(|v| format!(r#""{name}":{{"value":{},"unit":"{unit}"}}"#, num(v)))
        })
        .collect();
    s.push_str(&present.join(","));
    s.push('}');
    if let Some(l) = layers {
        let recon: Vec<String> = l
            .recon
            .iter()
            .map(|r| {
                format!(
                    r#""{}":{{"handle_ms":{},"layers_ms":{},"requests":{},"within":{}}}"#,
                    r.op.name(),
                    num(r.handle_ms),
                    num(r.layers_ms),
                    r.count,
                    r.within()
                )
            })
            .collect();
        let _ = write!(
            s,
            r#","top_layer":{{"name":"{}","self_ms":{}}},"replayed_jobs":{},"reconciliation":{{"tolerance":{{"relative":{RECON_REL},"per_request_ms":{RECON_ABS_MS}}},{}}},"not_exercised":[{}],"spans":{}"#,
            l.top_layer.0,
            num(l.top_layer.1),
            l.jobs,
            recon.join(","),
            l.not_exercised
                .iter()
                .map(|n| format!("\"{n}\""))
                .collect::<Vec<_>>()
                .join(","),
            l.spans_file
                .as_ref()
                .map_or("null".to_owned(), |p| format!("\"{p}\""))
        );
    }
    s.push('}');
    s
}

/// `nproc`, kernel, rustc and commit of the host the result came from.
fn host_stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_owned(), |k| k.trim().to_owned());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |v| v.trim().to_owned());
    format!(
        r#"{{"nproc":{nproc},"kernel":{},"rustc":{},"commit":{}}}"#,
        ccs_perfbench::minijson::escape(&kernel),
        ccs_perfbench::minijson::escape(&rustc),
        ccs_perfbench::minijson::escape(&commit())
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn fmt_pct(p: Option<f64>) -> String {
    p.map_or_else(|| "-".to_owned(), |p| p.to_string())
}

/// A finite number in JSON form, with every digit `f64` holds.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}
