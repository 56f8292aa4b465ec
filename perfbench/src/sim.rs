//! `sim-validate`: the paper's validation loop. Three configurations
//! run through `nc_streamsim::simulate`, once sequentially (`workers:
//! None`) and once stage-parallel (`workers: Some(nproc)`); every run
//! is checked for containment in its network-calculus bounds, or its
//! flow-control bounds where queues are bounded.

use std::time::{Duration, Instant};

use nc_apps::{bitw, blast};
use nc_core::num::Rat;
use nc_core::pipeline::{Pipeline, PipelineModel};
use nc_streamsim::{flow_windows, par_fallback, simulate, SimConfig, SimResult};

use crate::report::Outcome;
use crate::stats::{fast_quartile, median};
use crate::sys;
use crate::trace::Tracer;

/// Relative slack of the containment checks (float rounding of exact
/// bounds), as in the repository's containment suites.
const EPS: f64 = 1e-6;
/// Timed set-up repetitions.
const SETUP_REPS: usize = 5;
/// The configuration behind `latency_us.light`: the smallest input,
/// behind bounded queues, on the parallel engine.
const LIGHT_CASE: &str = "bitw-64m-q64k";

/// One validation configuration.
pub struct Case {
    /// Name used in metric names.
    pub name: &'static str,
    /// The simulated pipeline.
    pub pipeline: Pipeline,
    /// The sequential configuration (`workers: None`).
    pub cfg: SimConfig,
}

/// The three configurations, with the benchmark's seed as the DES seed.
/// `scale` divides the BITW volumes (smoke tests); BLAST keeps its 1 GiB
/// scan, which is cheap (1 MiB chunks) and must stay long for its fill
/// and drain to fit the throughput bracket.
pub fn cases(seed: u64, scale: u64) -> Vec<Case> {
    let mut bitw_cfg = bitw::sim_config(seed);
    bitw_cfg.trace = false;
    bitw_cfg.total_input = (1 << 30) / scale;
    let mut bounded = bitw_cfg.clone();
    bounded.total_input = (64 << 20) / scale;
    bounded.queue_capacity = Some(64 << 10);
    let mut blast_cfg = blast::sim_config(seed);
    blast_cfg.trace = false;
    vec![
        Case {
            name: "bitw-1g",
            pipeline: bitw::sim_pipeline(),
            cfg: bitw_cfg,
        },
        Case {
            name: "bitw-64m-q64k",
            pipeline: bitw::sim_pipeline(),
            cfg: bounded,
        },
        Case {
            name: "blast",
            pipeline: blast::deployed_pipeline(),
            cfg: blast_cfg,
        },
    ]
}

/// The bounds a run is checked against.
pub enum Bounds {
    /// Unbounded queues: the network-calculus model.
    Nc(Box<PipelineModel>),
    /// Bounded queues: flow-control delay and backlog bounds.
    FlowCtl {
        /// Delay bound, s.
        delay: f64,
        /// Backlog bound, bytes.
        backlog: f64,
    },
}

/// Validate the pipeline and build the bounds of one case: the
/// workload's set-up.
pub fn bounds(case: &Case) -> Bounds {
    case.pipeline
        .validate()
        .expect("the benchmark pipelines are valid");
    if case.cfg.queue_capacity.is_some() || case.cfg.queue_capacities.is_some() {
        let windows = flow_windows(&case.pipeline, &case.cfg).expect("valid queue capacities");
        let m = case.pipeline.flowctl_model(&windows);
        Bounds::FlowCtl {
            delay: m.delay.to_f64(),
            backlog: m.backlog.to_f64(),
        }
    } else {
        Bounds::Nc(Box::new(case.pipeline.build_model()))
    }
}

/// Whether a run stays inside its bounds: delay and backlog, and for
/// the NC model the throughput bracket over the run's makespan (2%
/// fill/drain band on the guarantee, as the cross-model suite uses).
pub fn contained(b: &Bounds, r: &SimResult) -> bool {
    match b {
        Bounds::FlowCtl { delay, backlog } => {
            r.delay_max <= delay + 1e-6 && r.peak_backlog <= backlog + 1e-6
        }
        Bounds::Nc(m) => {
            let d = m.delay_bound_concat().to_f64();
            let x = m.backlog_bound_concat().to_f64();
            let tb = m.throughput_over(Rat::from_f64(r.makespan.max(1e-9)));
            r.delay_max <= d * (1.0 + EPS) + 1e-9
                && r.peak_backlog <= x * (1.0 + EPS) + 1.0
                && tb.lower.to_f64() <= r.throughput * 1.02
                && r.throughput <= tb.upper.to_f64() * (1.0 + EPS)
        }
    }
}

fn par(cfg: &SimConfig, workers: usize) -> SimConfig {
    let mut c = cfg.clone();
    c.workers = Some(workers);
    c
}

/// One timed, checked run.
fn timed(case: &Case, cfg: &SimConfig, b: &Bounds, out: &mut Outcome) -> (f64, u64) {
    let t = Instant::now();
    let r = simulate(&case.pipeline, cfg);
    let dt = t.elapsed().as_secs_f64();
    let ok = contained(b, &r);
    if !ok {
        out.notes.push(format!(
            "{} (workers {:?}): run outside its bounds (delay {:.3e} s, backlog {:.0} B, {:.4e} B/s)",
            case.name, cfg.workers, r.delay_max, r.peak_backlog, r.throughput
        ));
    }
    out.check(ok);
    (dt, r.events)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The untraced run: alternate sequential and parallel batches until
/// the time is spent.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let cases = cases(seed, 1);
    let mut out = Outcome::default();
    let set_up = || {
        let t = Instant::now();
        let b: Vec<Bounds> = cases.iter().map(bounds).collect();
        (b, t.elapsed().as_secs_f64())
    };
    let (bounds, first) = set_up();
    let mut setup = vec![first];
    let workers = nproc();
    let (mut seq_per_event, mut par_per_event, mut par_batches, mut light) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // The parallel engine's link buffering, and so its peak memory,
    // depends on thread timing; the gated peak is taken before the
    // first parallel run, the whole-run peak is reported.
    let mut seq_peak = None;
    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    while t0.elapsed() < budget || par_batches.len() < 3 {
        let (mut wall, mut events) = (0.0, 0u64);
        for (c, b) in cases.iter().zip(&bounds) {
            let (dt, ev) = timed(c, &c.cfg, b, &mut out);
            wall += dt;
            events += ev;
        }
        seq_per_event.push(wall / events as f64);
        seq_peak = seq_peak.or_else(|| sys::peak_rss_mib(None));
        let (mut wall, mut events) = (0.0, 0u64);
        for (c, b) in cases.iter().zip(&bounds) {
            let (dt, ev) = timed(c, &par(&c.cfg, workers), b, &mut out);
            wall += dt;
            events += ev;
            if c.name == LIGHT_CASE {
                light.push(dt);
            }
        }
        par_per_event.push(wall / events as f64);
        par_batches.push(wall);
        // Further set-ups every other batch, so the samples span the run.
        if setup.len() < SETUP_REPS && par_batches.len() % 2 == 0 {
            setup.push(std::hint::black_box(set_up()).1);
        }
    }
    while setup.len() < SETUP_REPS {
        setup.push(std::hint::black_box(set_up()).1);
    }
    // The fast quartile of batches: disturbed batches do not move it.
    let n = par_batches.len();
    let seq_per_s = 1.0 / fast_quartile(&seq_per_event);
    let par_per_s = 1.0 / fast_quartile(&par_per_event);
    out.report("events_per_s.seq", seq_per_s, "1/s", n);
    out.report("events_per_s.par", par_per_s, "1/s", n);
    out.gate("latency_us", fast_quartile(&par_batches) * 1e6, "us", n);
    out.gate(
        "latency_us.light",
        fast_quartile(&light) * 1e6,
        "us",
        light.len(),
    );
    out.gate("throughput_per_s", par_per_s, "1/s", n);
    out.gate("setup_s", median(&setup), "s", setup.len());
    out.report(
        "peak_rss_mib.with_par",
        sys::peak_rss_mib(None).unwrap_or(f64::NAN),
        "MiB",
        1,
    );
    out.gate("peak_rss_mib", seq_peak.unwrap_or(f64::NAN), "MiB", 1);
    out
}

/// Layer profile of the simulator (traced run): each case once per
/// engine, with its event count, wall time, parallel speed-up, the
/// typed fallback reason, and link publications per parallel run.
/// Returns the outcome and the traced / untraced sequential-batch
/// time ratio.
pub fn layers(seed: u64, tr: &mut Tracer) -> (Outcome, f64) {
    let cases = cases(seed, 1);
    let mut out = Outcome::default();
    let workers = nproc();
    let root = tr.begin("bench.sim", None, 0);
    let mut untraced = 0.0;
    let mut traced = 0.0;
    for c in &cases {
        let b = bounds(c);
        let (dt, _) = timed(c, &c.cfg, &b, &mut out);
        untraced += dt;
        let s = tr.begin("streamsim.seq", root, 0);
        let t = Instant::now();
        let r = simulate(&c.pipeline, &c.cfg);
        let seq_s = t.elapsed().as_secs_f64();
        tr.end(s, r.events);
        traced += seq_s;
        out.check(contained(&b, &r));
        let pcfg = par(&c.cfg, workers);
        let fallback = par_fallback(&c.pipeline, &pcfg);
        let _ = nc_des::link::take_publish_count();
        let s = tr.begin("streamsim.par", root, 0);
        let t = Instant::now();
        let rp = simulate(&c.pipeline, &pcfg);
        let par_s = t.elapsed().as_secs_f64();
        tr.end(s, rp.events);
        let publishes = nc_des::link::take_publish_count();
        out.check(contained(&b, &rp));
        if let Some(reason) = &fallback {
            out.notes
                .push(format!("{}: parallel run fell back: {reason}", c.name));
        }
        let name = c.name;
        out.gate(
            &format!("streamsim.events.{name}"),
            r.events as f64,
            "count",
            1,
        );
        out.gate(&format!("streamsim.run_s.{name}.seq"), seq_s, "s", 1);
        out.gate(&format!("streamsim.run_s.{name}.par"), par_s, "s", 1);
        out.gate(
            &format!("streamsim.par_speedup.{name}"),
            seq_s / par_s,
            "ratio",
            1,
        );
        out.gate(
            &format!("streamsim.par_fallback.{name}"),
            f64::from(u8::from(fallback.is_some())),
            "count",
            1,
        );
        out.gate(
            &format!("des.link.publishes_per_run.{name}"),
            publishes as f64,
            "count",
            1,
        );
    }
    tr.end(root, 0);
    (out, traced / untraced)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_stay_inside_their_bounds() {
        for c in cases(3, 256) {
            let b = bounds(&c);
            for cfg in [c.cfg.clone(), par(&c.cfg, 2)] {
                let r = simulate(&c.pipeline, &cfg);
                assert!(r.events > 0, "{}: no events", c.name);
                assert!(
                    contained(&b, &r),
                    "{} workers {:?}: outside bounds",
                    c.name,
                    cfg.workers
                );
            }
        }
    }
}
