//! `sweep-surface`: the BITW what-if surface (compressor block size ×
//! link rate) through `nc_sweep::run`, checked row by row against
//! `run_serial_uncached`; then an untimed tail phase that calls
//! `Pipeline::tail_bounds` at every grid point and counts each panic.
//! Those panics are ROADMAP item 3's known overflow: they are reported
//! as their own count and fraction, apart from the operations attempted
//! and failed, which cover the oracle checks only.

use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use nc_apps::bitw;
use nc_core::num::Rat;
use nc_core::pipeline::ModelCache;
use nc_core::stoch::StochSpec;
use nc_core::units::mib_per_s;
use nc_sweep::{grid, pipeline_at, run_serial_uncached, Axis, Param, SweepSpec};

use crate::report::Outcome;
use crate::stats::{fast_quartile, median, Dist};
use crate::trace::Tracer;

/// Grid side of the timed surface.
pub const GRID: usize = 96;
/// Grid side of the small what-if surface behind `latency_us.light`.
const LIGHT_GRID: usize = 8;
/// Small surfaces per round (about a sixth of a round's time).
const LIGHT_PER_ROUND: usize = 20;
/// Timed set-up repetitions per round.
const SETUP_PER_ROUND: usize = 8;
/// Input volume of the run each tail bound describes, bytes.
const TAIL_TOTAL: u64 = 64 << 20;

/// The BITW surface: the pessimistic pipeline at the light load, block
/// size of the compressor × network link rate. The seed moves both axes
/// by whole multiples of 95 units (bytes; bytes/s) so that every seed
/// sweeps different points whose linspace steps keep the 96-point
/// grid's denominators: the exact-rational work per point, and hence
/// the cost, does not depend on the seed.
pub fn spec(seed: u64, side: usize) -> SweepSpec {
    let mut base = bitw::pipeline(bitw::Scenario::Pessimistic);
    base.source = bitw::light_source();
    let block_from = Rat::int(256 + 95 * (seed % 8) as i64);
    let rate_to = mib_per_s(256.0) - Rat::int(95 * 1024 * (seed / 8 % 8) as i64);
    SweepSpec {
        base,
        axes: vec![
            Axis::linspace(Param::BlockSize(0), block_from, Rat::int(4096), side),
            Axis::linspace(Param::Rate(5), mib_per_s(16.0), rate_to, side),
        ],
        horizons: vec![
            Rat::new(1, 100),
            Rat::new(1, 50),
            Rat::new(3, 100),
            Rat::new(1, 20),
            Rat::new(1, 10),
            Rat::new(1, 5),
            Rat::new(3, 10),
            Rat::new(1, 2),
            Rat::int(1),
            Rat::int(2),
        ],
        sim: None,
        tail: None,
    }
}

/// Rows that differ between two surface CSVs (header included).
fn differing_rows(got: &str, want: &[&str]) -> (u64, u64) {
    let got: Vec<&str> = got.lines().collect();
    let rows = want.len().max(got.len()) as u64;
    let same = got.iter().zip(want).filter(|(a, b)| a == b).count() as u64;
    (rows, rows - same)
}

/// Spec validation and grid expansion: the sweep's set-up.
fn setup_once(spec: &SweepSpec) -> usize {
    spec.validate().expect("the benchmark spec is valid");
    grid(spec).len()
}

/// What the tail phase found.
pub struct TailPhase {
    /// Grid points evaluated.
    pub points: u64,
    /// Points whose `tail_bounds` panicked.
    pub panicked: u64,
    /// Wall time per successful point, µs.
    pub ok_us: Vec<f64>,
    /// Distinct panic messages with their counts.
    pub reasons: Vec<(String, u64)>,
}

/// `Pipeline::tail_bounds` at every grid point (ε = 1/100), each call
/// under `catch_unwind`. The panic hook is silenced for the phase and
/// restored after it.
pub fn tail_phase(spec: &SweepSpec) -> TailPhase {
    let prev = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let mut out = TailPhase {
        points: 0,
        panicked: 0,
        ok_us: Vec::new(),
        reasons: Vec::new(),
    };
    for pt in grid(spec) {
        let p = pipeline_at(spec, &pt);
        let t = Instant::now();
        let got = panic::catch_unwind(AssertUnwindSafe(|| {
            let s = StochSpec::for_run(&p, TAIL_TOTAL);
            p.tail_bounds(&s, Rat::new(1, 100))
        }));
        let dt = t.elapsed();
        out.points += 1;
        match got {
            Ok(tb) => {
                std::hint::black_box(tb);
                out.ok_us.push(dt.as_secs_f64() * 1e6);
            }
            Err(payload) => {
                out.panicked += 1;
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic".into());
                match out.reasons.iter_mut().find(|(m, _)| *m == msg) {
                    Some((_, n)) => *n += 1,
                    None => out.reasons.push((msg, 1)),
                }
            }
        }
    }
    panic::set_hook(prev);
    out
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let light = spec(seed, LIGHT_GRID);
    let spec = spec(seed, GRID);
    let mut out = Outcome::default();

    // Oracles, outside every timed window.
    let want = run_serial_uncached(&spec).to_csv();
    let want: Vec<&str> = want.lines().collect();
    let want_light = run_serial_uncached(&light).to_csv();
    let want_light: Vec<&str> = want_light.lines().collect();

    // Rounds until the time is spent: set-up repetitions, small
    // surfaces, then one full pass, so every sample spans the run.
    let (mut setup, mut light_s, mut pass_s) = (Vec::new(), Vec::new(), Vec::new());
    let check = |out: &mut Outcome, csv: String, want: &[&str]| {
        let (rows, bad) = differing_rows(&csv, want);
        out.attempted += rows;
        out.failed += bad;
        out.mismatches += bad;
    };
    let t0 = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while t0.elapsed() < budget || pass_s.len() < 3 {
        for _ in 0..SETUP_PER_ROUND {
            let t = Instant::now();
            std::hint::black_box(setup_once(std::hint::black_box(&spec)));
            setup.push(t.elapsed().as_secs_f64());
        }
        for _ in 0..LIGHT_PER_ROUND {
            let t = Instant::now();
            let surface = nc_sweep::run(&light);
            light_s.push(t.elapsed().as_secs_f64());
            check(&mut out, surface.to_csv(), &want_light);
        }
        let t = Instant::now();
        let surface = nc_sweep::run(&spec);
        pass_s.push(t.elapsed().as_secs_f64());
        check(&mut out, surface.to_csv(), &want);
    }
    let pass = fast_quartile(&pass_s);
    let points_per_s = (GRID * GRID) as f64 / pass;

    let tail = tail_phase(&spec);
    out.report("tail_points", tail.points as f64, "count", 1);
    out.report("tail_panicked", tail.panicked as f64, "count", 1);
    for (msg, n) in &tail.reasons {
        out.notes
            .push(format!("tail phase: {n} point(s) panicked: {msg}"));
    }
    out.notes.push(format!(
        "tail phase: {} of {} points bounded, {} panicked",
        tail.points - tail.panicked,
        tail.points,
        tail.panicked
    ));

    out.report("points_per_s", points_per_s, "1/s", pass_s.len());
    out.gate("latency_us", pass * 1e6, "us", pass_s.len());
    out.gate(
        "latency_us.light",
        fast_quartile(&light_s) * 1e6,
        "us",
        light_s.len(),
    );
    out.gate("throughput_per_s", points_per_s, "1/s", pass_s.len());
    out.gate("setup_s", median(&setup), "s", setup.len());
    out.gate(
        "peak_rss_mib",
        crate::sys::peak_rss_mib(None).unwrap_or(f64::NAN),
        "MiB",
        1,
    );
    out
}

/// Layer profile of the sweep path (traced run): a one-worker and a
/// pooled pass (cache counters from the one-worker pass, which alone
/// repeats exactly), per-point model builds uncached and through one
/// cache, and the tail phase. Returns the outcome and the traced /
/// untraced pass-time ratio.
pub fn layers(seed: u64, tr: &mut Tracer) -> (Outcome, f64) {
    let spec = spec(seed, GRID);
    let mut out = Outcome::default();
    let root = tr.begin("bench.sweep", None, 0);
    let points = (GRID * GRID) as f64;

    // The untraced pooled pass first: it also warms the allocator and
    // the caches of the code paths, so the traced passes compare fairly.
    let untraced = {
        let t = Instant::now();
        std::hint::black_box(nc_sweep::run(&spec));
        t.elapsed().as_secs_f64()
    };
    let w1 = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-worker pool");
    let s = tr.begin("sweep.run.w1", root, 0);
    let t = Instant::now();
    let one = w1.install(|| nc_sweep::run(&spec));
    let w1_s = t.elapsed().as_secs_f64();
    tr.end(s, points as u64);
    let s = tr.begin("sweep.run", root, 0);
    let t = Instant::now();
    let pooled = nc_sweep::run(&spec);
    let w2_s = t.elapsed().as_secs_f64();
    tr.end(s, points as u64);
    let want = run_serial_uncached(&spec).to_csv();
    let want: Vec<&str> = want.lines().collect();
    for surface in [&one, &pooled] {
        let (rows, bad) = differing_rows(&surface.to_csv(), &want);
        out.attempted += rows;
        out.failed += bad;
        out.mismatches += bad;
    }

    let pts = grid(&spec);
    let s = tr.begin("core.pipeline.build", root, 0);
    for pt in &pts {
        std::hint::black_box(pipeline_at(&spec, pt).build_model());
    }
    tr.end(s, pts.len() as u64);
    let pipelines: Vec<_> = pts.iter().map(|pt| pipeline_at(&spec, pt)).collect();
    let mut cache = ModelCache::new();
    let s = tr.begin("core.pipeline.build_cached", root, 0);
    for p in &pipelines {
        std::hint::black_box(p.build_model_cached(&mut cache));
    }
    tr.end(s, pts.len() as u64);

    let s = tr.begin("core.stoch.tail_phase", root, 0);
    let tail = tail_phase(&spec);
    tr.end(s, tail.points);
    tr.end(root, 0);

    let totals = tr.totals();
    let per_item_us = |name: &str| {
        totals
            .get(name)
            .and_then(|t| t.ns_per_item())
            .map_or(f64::NAN, |ns| ns / 1e3)
    };
    // The build spans include deriving each point's pipeline.
    let st = one.stats;
    let w1_rate = points / w1_s;
    let tail_ok = Dist::new(tail.ok_us.clone());
    out.gate(
        "core.pipeline.build_us",
        per_item_us("core.pipeline.build"),
        "us",
        pts.len(),
    );
    out.gate(
        "core.pipeline.build_cached_us",
        per_item_us("core.pipeline.build_cached"),
        "us",
        pts.len(),
    );
    out.gate(
        "core.cache.op_hit_frac",
        st.op_hits() as f64 / (st.op_hits() + st.op_misses()).max(1) as f64,
        "ratio",
        1,
    );
    out.gate(
        "core.cache.prefix_hit_frac",
        st.prefix_hits as f64 / (st.prefix_hits + st.prefix_misses).max(1) as f64,
        "ratio",
        1,
    );
    out.gate("sweep.points_per_s.w1", w1_rate, "1/s", 1);
    out.gate("sweep.parallel_eff", (points / w2_s) / w1_rate, "ratio", 1);
    out.gate(
        "core.stoch.tail_us",
        tail_ok.mean().unwrap_or(f64::NAN),
        "us",
        tail_ok.len(),
    );
    out.gate(
        "core.stoch.tail_failed_frac",
        tail.panicked as f64 / tail.points.max(1) as f64,
        "ratio",
        tail.points as usize,
    );
    (out, w2_s / untraced)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_surface_matches_its_oracle_and_the_tail_phase_counts_every_point() {
        let spec = spec(5, 4);
        let want = run_serial_uncached(&spec).to_csv();
        let want: Vec<&str> = want.lines().collect();
        let (rows, bad) = differing_rows(&nc_sweep::run(&spec).to_csv(), &want);
        assert_eq!((rows, bad), (17, 0));
        let tail = tail_phase(&spec);
        assert_eq!(tail.points, 16);
        assert_eq!(tail.ok_us.len() as u64 + tail.panicked, 16);
    }

    #[test]
    fn the_spec_is_a_pure_function_of_the_seed() {
        let a = spec(3, 5).axes[0].values.clone();
        assert_eq!(a, spec(3, 5).axes[0].values);
        assert_ne!(a, spec(4, 5).axes[0].values);
    }
}
