//! `perfbench` — end-to-end and per-layer benchmark of the three user
//! paths: online admission over a socket (`admit-socket`), the bounds
//! sweep (`sweep-surface`), and DES validation (`sim-validate`).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --serve-bin <path> --rates low=<hz>,mid=<hz>,high=<hz>
//!           --window <frames> --phases <p>,<p>,...
//! ```
//!
//! Prints a report (host fingerprint, seed, every metric with its unit
//! and sample count, operations attempted and failed), then one JSON
//! line. `--trace 0` gates the end-to-end metrics of the workload;
//! `--trace 1` profiles every layer inside spans and gates the
//! per-layer metrics. Exits 1 on any oracle mismatch or invalid
//! measurement.

mod admit;
mod report;
mod sched;
mod sim;
mod stats;
mod sweep;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use admit::{AdmitConfig, Phase};
use report::Outcome;
use trace::Tracer;

/// The workloads.
const WORKLOADS: [&str; 3] = ["admit-socket", "sweep-surface", "sim-validate"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    admit: AdmitConfig,
}

fn parse_rates(s: &str) -> Result<[f64; 3], String> {
    let mut rates = [f64::NAN; 3];
    for part in s.split(',') {
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| format!("rate `{part}` is not name=hz"))?;
        let v: f64 = v
            .parse()
            .map_err(|_| format!("rate `{part}` is not a number"))?;
        if !(v > 0.0 && v.is_finite()) {
            return Err(format!("rate `{part}` must be positive"));
        }
        let slot = ["low", "mid", "high"]
            .iter()
            .position(|n| *n == k)
            .ok_or_else(|| format!("unknown rate `{k}`"))?;
        rates[slot] = v;
    }
    if rates.iter().any(|r| r.is_nan()) {
        return Err("--rates needs low, mid and high".into());
    }
    Ok(rates)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut rates = None;
    let mut window = None;
    let mut phases = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(val)),
            "--rates" => rates = Some(parse_rates(&val)?),
            "--window" => {
                window = Some(
                    val.parse::<usize>()
                        .ok()
                        .filter(|&w| w >= 2)
                        .ok_or("--window takes an integer >= 2")?,
                )
            }
            "--phases" => {
                let ps: Option<Vec<Phase>> = val.split(',').map(Phase::parse).collect();
                phases = Some(ps.ok_or_else(|| format!("unknown phase in `{val}`"))?);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let phases: Vec<Phase> = phases.ok_or("--phases is required")?;
    for need in [Phase::Low, Phase::Mid, Phase::Saturate] {
        if !phases.contains(&need) {
            return Err(format!("--phases must include {}", need.name()));
        }
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        admit: AdmitConfig::new(
            rates.ok_or("--rates is required")?,
            window.ok_or("--window is required")?,
            phases,
        ),
    })
}

/// The untraced run of one workload.
fn end_to_end(a: &Args) -> std::io::Result<Outcome> {
    Ok(match a.workload.as_str() {
        "admit-socket" => admit::run(&a.admit, a.seed, a.seconds, &a.serve_bin)?,
        "sweep-surface" => sweep::run(a.seed, a.seconds),
        _ => sim::run(a.seed, a.seconds),
    })
}

/// The traced run: every layer profile (the per-layer metric set is
/// the same for every workload), and the tracing overhead of the
/// selected workload's headline number.
fn per_layer(a: &Args, tr: &mut Tracer) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let (admit_out, admit_ratio) = admit::layers(&a.admit, a.seed, a.seconds, &a.serve_bin, tr)?;
    out.absorb(admit_out);
    let (sweep_out, sweep_ratio) = sweep::layers(a.seed, tr);
    out.absorb(sweep_out);
    let (sim_out, sim_ratio) = sim::layers(a.seed, tr);
    out.absorb(sim_out);
    let ratio = match a.workload.as_str() {
        "admit-socket" => admit_ratio,
        "sweep-surface" => sweep_ratio,
        _ => sim_ratio,
    };
    out.gate("bench.trace.overhead_ratio", ratio, "ratio", 1);
    out.gate("bench.trace.spans", tr.len() as f64, "count", 1);
    for (name, t) in tr.totals() {
        out.notes.push(format!(
            "span {name:<28} spans {:>8} items {:>9} total {:>10.3} ms self {:>10.3} ms",
            t.spans,
            t.items,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    out.notes.push(format!(
        "tracing overhead (traced / untraced): admit mid p50 {admit_ratio:.4}, \
         sweep pass {sweep_ratio:.4}, sim sequential batch {sim_ratio:.4}"
    ));
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    sys::tighten_timer_slack();
    let fp = sys::Fingerprint::gather();
    println!("{}", fp.line());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut tr = Tracer::new(args.trace);
    let result = if args.trace {
        per_layer(&args, &mut tr)
    } else {
        end_to_end(&args)
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = PathBuf::from(format!(
            ".bench_build/perfbench/spans-{}-s{}.tsv",
            args.workload, args.seed
        ));
        match tr.write_tsv(&path) {
            Ok(()) => println!("spans: {} written to {}", tr.len(), path.display()),
            Err(e) => eprintln!("perfbench: writing spans failed: {e}"),
        }
    }
    for line in out.lines() {
        println!("{line}");
    }
    println!("{}", out.json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: oracle mismatch, invalid measurement or unmeasured metric");
        ExitCode::FAILURE
    }
}
