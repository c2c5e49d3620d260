//! `sortlast_kripke`: the Kripke uniform proxy's surface split over
//! simulated ranks by weighted bisection, ray-traced per rank, and
//! composited twice (radix-k, Strawman's default, and the DFB exchange)
//! with compressed spans on the `mpirt` interconnect model.
//!
//! The user-facing number is the paper's multi-node frame time,
//! `T_total = max_ranks(T_LR) + T_COMP`, with `T_LR` the ray tracer's own
//! per-rank build + render seconds and `T_COMP` the exchange's simulated
//! seconds. The benchmark calls every layer itself, so a traced cycle needs
//! no replay: its spans are the layers. As for LULESH, the proxy's cycles
//! are recorded during set-up and replayed in order.

use crate::common::{
    self, grid_node, rank_images_identical, record_states, repeat_setup, States, SETUP_REPS, WINDOW,
};
use crate::lulesh::{add_phases, RT_PHASES};
use crate::report::{account, report_end_to_end, CountSeries, Counts, Outcome, Rates};
use crate::stats::Samples;
use crate::trace::{write_trace, Tracer};
use compositing::{
    dfb_compose_opts, radix_k_opts, CompositeMode, CompositeStats, ExchangeOptions, RankImage,
};
use conduit_node::Node;
use dpp::Device;
use mesh::external_faces::external_faces_grid;
use mesh::partition::{partitioned_tris, tri_centroids, Partition};
use mesh::TriMesh;
use mpirt::NetModel;
use render::raytrace::{RayTracer, RtConfig, TriGeometry};
use sims::Kripke;
use std::path::Path;
use std::time::Instant;
use strawman::api::{from_rank_image, to_rank_image};
use strawman::mesh_convert::convert;
use strawman::{png, PublishedMesh};
use vecmath::{Camera, Color, TransferFunction};

/// Simulated ranks the surface is split over.
const RANKS: usize = 16;
/// Image side each rank renders and the composite has.
const SIDE: u32 = 256;
/// Grid cells per edge.
const EDGE: usize = 40;
const WARMUP_CYCLES: usize = 2;
/// Every this many measured cycles, compare with a single-rank render. It
/// is coprime with `WINDOW`, so the checks visit every recorded state.
const CHECK_EVERY: u64 = 5;
const VAR: &str = "phi";

/// Everything one cycle measured.
struct Cycle {
    vis_s: f64,
    t_total_s: f64,
    t_total_dfb_s: f64,
    spans_s: f64,
    counts: Counts,
    /// Every non-empty rank shot one ray per pixel, and the ranks'
    /// triangles add up to the surface's.
    ranks_ok: bool,
    /// Set on checked cycles: the composites equal the single-rank render.
    single_rank_ok: Option<bool>,
}

fn timed<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    op: u64,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    match tracer {
        Some(t) => t.span(name, "cycle", op, f),
        None => {
            let t0 = Instant::now();
            let r = f();
            (r, t0.elapsed().as_secs_f64())
        }
    }
}

fn add_composite(
    rates: &mut Rates,
    counts: &mut Counts,
    which: &str,
    stats: &CompositeStats,
    t_total: f64,
) {
    let pixels = (RANKS as u64 * SIDE as u64 * SIDE as u64) as f64;
    let (rate, wire, dense, rounds, frac) = match which {
        "radix_k" => (
            "compositing.radix_k.pixels_per_s",
            "compositing.radix_k.wire_bytes",
            "compositing.radix_k.dense_bytes",
            "compositing.radix_k.rounds",
            "compositing.radix_k.sim_frac",
        ),
        _ => (
            "compositing.dfb.pixels_per_s",
            "compositing.dfb.wire_bytes",
            "compositing.dfb.dense_bytes",
            "compositing.dfb.rounds",
            "compositing.dfb.sim_frac",
        ),
    };
    rates.add(rate, pixels, stats.compute_seconds);
    rates.add(frac, stats.simulated_seconds, t_total);
    counts.insert(wire, stats.total_bytes as f64);
    counts.insert(dense, stats.dense_bytes as f64);
    counts.insert(rounds, stats.rounds as f64);
}

/// One in situ cycle on already-published data: publish, extract, partition,
/// render per rank, composite twice, encode.
fn cycle(
    node: &Node,
    dir: &Path,
    op: u64,
    check: bool,
    mut tracer: Option<&mut Tracer>,
    rates: &mut Rates,
    out: &mut Outcome,
) -> Result<Cycle, String> {
    let device = Device::parallel();
    let net = NetModel::cluster();
    let opts = ExchangeOptions::default();
    let cfg = RtConfig::workload2();
    let mut counts = Counts::new();
    let mut spans_s = 0.0;

    let t0 = Instant::now();
    let (published, s) = timed(&mut tracer, "strawman.publish", op, || convert(node));
    spans_s += s;
    let published = published.map_err(|e| format!("cycle {op}: publish: {e}"))?;
    let cells = published.num_cells() as f64;
    rates.add("strawman.publish.cells_per_s", cells, s);
    let grid = match &published {
        PublishedMesh::Uniform(g) => g,
        _ => return Err("Kripke published a mesh that is not uniform".into()),
    };
    let camera = Camera::close_view(&published.bounds());
    let (tri, s) = timed(&mut tracer, "mesh.external_faces", op, || external_faces_grid(grid, VAR));
    spans_s += s;
    rates.add("mesh.external_faces.cells_per_s", cells, s);
    let (parts, s) = timed(&mut tracer, "mesh.partition", op, || {
        partitioned_tris(&tri, &Partition::bisect(&tri_centroids(&tri), RANKS))
    });
    spans_s += s;
    rates.add("mesh.partition.tris_per_s", tri.num_tris() as f64, s);
    // Each rank's share, rendered against the surface's global scalar range
    // (what `strawman::render_partitioned` does), keeping each rank's stats.
    let tf = TransferFunction::rainbow(tri.scalar_range());
    let (ranks, s) = timed(&mut tracer, "render.raytrace", op, || {
        let render = |p: &TriMesh| {
            let rt = RayTracer::new(device.clone(), TriGeometry::from_mesh(p));
            rt.render_with_map(&camera, SIDE, SIDE, &cfg, &tf)
        };
        parts.iter().map(|p| (p.num_tris() > 0).then(|| render(p))).collect::<Vec<_>>()
    });
    spans_s += s;
    let mut images: Vec<RankImage> = Vec::with_capacity(RANKS);
    let mut t_lr = Samples::default();
    let (mut rays_ok, mut objects) = (true, 0);
    for o in ranks {
        let Some(o) = o else {
            images.push(RankImage::empty(SIDE, SIDE));
            continue;
        };
        let st = &o.stats;
        t_lr.push(st.bvh_build_seconds + st.render_seconds);
        rates.add("render.raytrace.bvh_build.tris_per_s", st.objects as f64, st.bvh_build_seconds);
        rates.add("render.raytrace.rays_per_s", st.rays_traced as f64, st.render_seconds);
        add_phases(rates, &o.phases, &RT_PHASES);
        *counts.entry("render.raytrace.rays").or_default() += st.rays_traced as f64;
        *counts.entry("render.raytrace.active_pixels").or_default() += st.active_pixels as f64;
        rays_ok &= st.rays_traced == SIDE as u64 * SIDE as u64;
        objects += st.objects;
        images.push(to_rank_image(&o.frame));
    }
    let ((rk, rk_stats), s) = timed(&mut tracer, "compositing.radix_k", op, || {
        let factors = compositing::algorithms::default_factors(RANKS);
        radix_k_opts(&images, CompositeMode::ZBuffer, net, &factors, opts)
    });
    spans_s += s;
    let ((dfb, dfb_stats), s) = timed(&mut tracer, "compositing.dfb", op, || {
        dfb_compose_opts(&images, CompositeMode::ZBuffer, net, opts)
    });
    spans_s += s;
    let (written, s) = timed(&mut tracer, "strawman.encode", op, || {
        let mut frame = from_rank_image(&rk);
        frame.set_background(Color::WHITE);
        let bytes = png::encode_rgba(SIDE, SIDE, &frame.to_rgba8());
        std::fs::write(dir.join("sortlast.png"), &bytes).map(|_| bytes.len())
    });
    spans_s += s;
    let vis_s = t0.elapsed().as_secs_f64();
    let png_bytes = written.map_err(|e| format!("cycle {op}: write: {e}"))?;
    rates.add("strawman.encode.bytes_per_s", (SIDE * SIDE * 4) as f64, s);

    let max_lr = t_lr.max();
    let t_total_s = max_lr + rk_stats.simulated_seconds;
    let t_total_dfb_s = max_lr + dfb_stats.simulated_seconds;
    rates.add("render.raytrace.max_rank_ratio", max_lr, t_lr.mean());
    add_composite(rates, &mut counts, "radix_k", &rk_stats, t_total_s);
    add_composite(rates, &mut counts, "dfb", &dfb_stats, t_total_dfb_s);
    let max_tris = parts.iter().map(TriMesh::num_tris).max().unwrap_or(0);
    let mean_tris = tri.num_tris() as f64 / RANKS as f64;
    counts.insert("mesh.partition.imbalance", max_tris as f64 / mean_tris);
    counts.insert("mesh.external_faces.tris", tri.num_tris() as f64);
    counts.insert("render.raytrace.objects", objects as f64);
    counts.insert("strawman.png_bytes", png_bytes as f64);

    out.attempted += 1;
    out.check(rank_images_identical(&rk, &dfb), || {
        format!("cycle {op}: radix-k and DFB composites differ")
    });
    let ranks_ok = rays_ok && objects == tri.num_tris();
    let single_rank_ok = check.then(|| {
        let rt = RayTracer::new(device.clone(), TriGeometry::from_mesh(&tri));
        let o = rt.render_with_map(&camera, SIDE, SIDE, &cfg, &tf);
        let rays_per_rank = SIDE as u64 * SIDE as u64;
        rank_images_identical(&rk, &to_rank_image(&o.frame)) && o.stats.rays_traced == rays_per_rank
    });
    Ok(Cycle { vis_s, t_total_s, t_total_dfb_s, spans_s, counts, ranks_ok, single_rank_ok })
}

struct Rig {
    states: States,
    counts: Counts,
}

fn build_rig(seed: u64, dir: &Path, out: &mut Outcome) -> Result<Rig, String> {
    let states = record_states(&mut Kripke::new(EDGE), common::mix(seed, 2) % 4, grid_node)?;
    let mut counts = Counts::new();
    for (w, node) in states.nodes.iter().take(WARMUP_CYCLES).enumerate() {
        counts = cycle(node, dir, w as u64, false, None, &mut Rates::default(), out)?.counts;
    }
    Ok(Rig { states, counts })
}

pub fn run(seed: u64, seconds: f64, trace: bool, out: &mut Outcome) -> Result<(), String> {
    let dir = common::out_dir("sortlast_kripke")?;
    let (mut rigs, setup) = repeat_setup(SETUP_REPS, || build_rig(seed, &dir, out))?;
    for (i, rig) in rigs.iter().enumerate().skip(1) {
        out.attempted += 1;
        out.check(rig.counts == rigs[0].counts, || {
            format!("set-up {i} counted different work than set-up 0 for the same seed")
        });
    }
    let rig = rigs.pop().ok_or("no set-up")?;
    drop(rigs);

    let mut tracer = Tracer::new();
    let mut rates = Rates::default();
    let mut counts = CountSeries::default();
    let (mut vis, mut vis_traced) = (Samples::default(), Samples::default());
    let (mut t_total, mut t_total_dfb) = (Samples::default(), Samples::default());
    let mut spans_s = 0.0;
    let start = Instant::now();
    let mut n = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        // Traced and untraced cycles alternate by whole windows, so both
        // measure every recorded state.
        let traced = trace && (n / WINDOW as u64) % 2 == 1;
        let node = &rig.states.nodes[n as usize % WINDOW];
        let c = cycle(
            node,
            &dir,
            n,
            n.is_multiple_of(CHECK_EVERY),
            traced.then_some(&mut tracer),
            &mut rates,
            out,
        )?;
        out.attempted += 2;
        out.check(c.ranks_ok, || {
            format!("cycle {n}: a rank shot other than one ray per pixel, or lost triangles")
        });
        if let Some(ok) = c.single_rank_ok {
            out.attempted += 1;
            out.check(ok, || format!("cycle {n}: composite differs from the single-rank render"));
        }
        if traced {
            vis_traced.push(c.vis_s);
            spans_s += c.spans_s;
            counts.add(&c.counts);
        } else {
            vis.push(c.vis_s);
            t_total.push(c.t_total_s);
            t_total_dfb.push(c.t_total_dfb_s);
        }
        n += 1;
    }
    if vis.is_empty() {
        return Err("no untraced cycle completed".into());
    }
    out.note(format!(
        "cycles measured: {n} ({} untraced, {} traced), {WARMUP_CYCLES} warm-up cycles per set-up excluded; \
         {RANKS} ranks at {SIDE}x{SIDE}",
        vis.len(),
        vis_traced.len()
    ));
    report_end_to_end(out, &vis, &setup, vis.len() as f64 / vis.sum())?;
    out.line("vis_s.p50", vis.p50(), "s", vis.len());
    let (p, tail) = vis.tail();
    out.line(&format!("vis_s.p{p}"), tail, "s", vis.len());
    out.line("images_per_s", vis.len() as f64 / vis.sum(), "1/s", vis.len());
    out.line("t_total_s.p50", t_total.p50(), "s", t_total.len());
    out.line("t_total_dfb_s.p50", t_total_dfb.p50(), "s", t_total_dfb.len());
    let step_s = &rig.states.step_s;
    out.line("sims.step_s", step_s.mean(), "s", step_s.len());
    let cells = rig.states.cells;
    out.layer("sims.cells_per_s", cells * step_s.len() as f64 / step_s.sum(), step_s.len());
    if trace {
        let traced = vis_traced.len() as u64;
        account(out, &tracer, traced, spans_s, &vis_traced);
        out.layer("trace.overhead_frac", vis_traced.p50() / vis.p50() - 1.0, vis_traced.len());
        rates.emit(out);
        counts.emit(out);
    }
    write_trace(&dir, &tracer, trace)
}
