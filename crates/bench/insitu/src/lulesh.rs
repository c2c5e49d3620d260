//! `surface_lulesh` and `volume_lulesh`: the LULESH hex proxy on one rank,
//! published to Strawman every cycle and drawn as pseudocolor surfaces
//! (ray-traced and rasterized) or as one unstructured volume.
//!
//! The proxy's cycles are recorded during set-up (`common::WINDOW` of them,
//! from a seed-chosen start; stepping is the proxy's cost, timed apart) and
//! replayed in order. A measured cycle is `publish` + `execute` of one
//! recorded state on each Strawman instance: the cycle's visualization
//! time. A traced cycle also wraps those calls in
//! spans and then replays `execute`'s layers through their public
//! functions on the same published data, so each layer gets its own span
//! and `execute`'s self time is what the replayed spans do not cover.

use crate::common::{
    self, frames_identical, hex_node, plot_actions, record_states, repeat_setup, States,
    SETUP_REPS, WINDOW,
};
use crate::report::{account, report_end_to_end, CountSeries, Counts, Outcome, Rates};
use crate::stats::Samples;
use crate::trace::{write_trace, Tracer};
use conduit_node::Node;
use dpp::Device;
use mesh::external_faces::external_faces_hex;
use mesh::{Assoc, Field, HexMesh, TetMesh};
use render::raster::rasterize;
use render::raytrace::{RayTracer, RtConfig, TriGeometry};
use render::volume_unstructured::{render_unstructured, UvrConfig};
use render::{Framebuffer, PhaseTimer};
use sims::Lulesh;
use std::path::{Path, PathBuf};
use std::time::Instant;
use strawman::mesh_convert::convert;
use strawman::{png, Options, PublishedMesh, Strawman};
use vecmath::{Camera, Color, TransferFunction};

/// Which of the two LULESH workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Surface,
    Volume,
}

/// One plot a Strawman instance draws every cycle.
struct Plot {
    file: &'static str,
    plot_type: &'static str,
    renderer: &'static str,
    side: u32,
}

/// Two pseudocolor plots of the same field. Each has its own Strawman
/// instance because one `SaveImage` writes every plot to the same file.
const SURFACE_PLOTS: [Plot; 2] = [
    Plot { file: "rt", plot_type: "pseudocolor", renderer: "raytracer", side: 384 },
    Plot { file: "raster", plot_type: "pseudocolor", renderer: "rasterizer", side: 384 },
];

const VOLUME_PLOTS: [Plot; 1] =
    [Plot { file: "volume", plot_type: "volume", renderer: "", side: 128 }];

/// Hex elements per mesh edge.
const EDGE: usize = 20;
/// Cycles run during set-up so lazy initialization and caches settle.
const WARMUP_CYCLES: usize = 2;
/// Every this many measured cycles, compare against a Serial render. It is
/// coprime with `WINDOW`, so the checks visit every recorded state.
const CHECK_EVERY: u64 = 7;
/// Every this many traced cycles, replay the renderer on the Serial device
/// (coprime with `WINDOW` for the same reason).
const DPP_EVERY: u64 = 5;
/// Published field.
const VAR: &str = "e";

pub(crate) const RT_PHASES: [(&str, &str); 3] = [
    ("ray_gen", "render.raytrace.phase.ray_gen.units_per_s"),
    ("intersect", "render.raytrace.phase.intersect.units_per_s"),
    ("shade", "render.raytrace.phase.shade.units_per_s"),
];
const RASTER_PHASES: [(&str, &str); 4] = [
    ("transform_cull", "render.raster.phase.transform_cull.units_per_s"),
    ("bin_count", "render.raster.phase.bin_count.units_per_s"),
    ("bin_fill", "render.raster.phase.bin_fill.units_per_s"),
    ("sample_fill", "render.raster.phase.sample_fill.units_per_s"),
];
const UVR_PHASES: [(&str, &str); 5] = [
    ("initialization", "render.uvr.phase.initialization.units_per_s"),
    ("pass_selection", "render.uvr.phase.pass_selection.units_per_s"),
    ("screen_space", "render.uvr.phase.screen_space.units_per_s"),
    ("sampling", "render.uvr.phase.sampling.units_per_s"),
    ("compositing", "render.uvr.phase.compositing.units_per_s"),
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Surface => "surface_lulesh",
            Kind::Volume => "volume_lulesh",
        }
    }

    fn plots(self) -> &'static [Plot] {
        match self {
            Kind::Surface => &SURFACE_PLOTS,
            Kind::Volume => &VOLUME_PLOTS,
        }
    }
}

/// One set-up instance: the proxy, one parallel Strawman per plot, and a
/// Serial twin of each for the output check.
struct Rig {
    states: States,
    parallel: Vec<(Strawman, Node)>,
    serial: Vec<(Strawman, Node)>,
}

fn open_instances(kind: Kind, device: Device, dir: &Path) -> Vec<(Strawman, Node)> {
    kind.plots()
        .iter()
        .map(|p| {
            let opts = Options {
                device: device.clone(),
                output_dir: dir.to_path_buf(),
                ..Options::default()
            };
            (Strawman::open(opts), plot_actions(p.plot_type, p.renderer, VAR, p.file, p.side))
        })
        .collect()
}

/// Publish `node` and execute the plot on every instance; each instance is
/// one attempted operation.
fn drive(
    instances: &mut [(Strawman, Node)],
    node: &Node,
    op: u64,
    tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> (u64, f64, f64) {
    let mut images = 0;
    let (mut publish_s, mut execute_s) = (0.0, 0.0);
    let mut tracer = tracer;
    for (sm, actions) in instances.iter_mut() {
        out.attempted += 1;
        let r = match tracer.as_deref_mut() {
            Some(t) => {
                let (p, s) = t.span("strawman.publish", "cycle", op, || sm.publish(node));
                publish_s += s;
                p.and_then(|_| {
                    let (e, s) = t.span("strawman.execute", "cycle", op, || sm.execute(actions));
                    execute_s += s;
                    e
                })
            }
            None => sm.publish(node).and_then(|_| sm.execute(actions)),
        };
        match r {
            Ok(()) => images += 1,
            Err(e) => out.fail(format!("cycle {op}: {e}")),
        }
    }
    (images, publish_s, execute_s)
}

fn build_rig(kind: Kind, seed: u64, dir: &Path, out: &mut Outcome) -> Result<Rig, String> {
    let states =
        record_states(&mut Lulesh::new(EDGE), common::mix(seed, 1) % 4, |s| Ok(hex_node(s)))?;
    let mut parallel = open_instances(kind, Device::parallel(), dir);
    let serial = open_instances(kind, Device::Serial, &dir.join("serial"));
    for (w, node) in states.nodes.iter().take(WARMUP_CYCLES).enumerate() {
        let before = out.failed;
        drive(&mut parallel, node, w as u64, None, out);
        if out.failed > before {
            return Err(format!("{} warm-up cycle {w} failed", kind.name()));
        }
    }
    Ok(Rig { states, parallel, serial })
}

/// Node-average a cell field onto the points, as Strawman does before it
/// extracts a pseudocolor surface (`ensure_point_field_hex`).
fn hex_point_field(h: &mut HexMesh, var: &str) -> Result<String, String> {
    let f = h.field(var).ok_or_else(|| format!("no field {var}"))?;
    if f.assoc == Assoc::Point {
        return Ok(var.to_string());
    }
    let values = f.values.clone();
    let (accum, count) = node_average(h.points.len(), h.hexes.iter().map(|c| &c[..]), &values);
    let name = format!("{var}__points");
    h.fields.push(Field::point(name.clone(), finish_average(accum, &count)));
    Ok(name)
}

/// The same for the tetrahedral decomposition (`ensure_point_field_tets`).
fn tet_point_field(t: &mut TetMesh, var: &str) -> Result<String, String> {
    let f = t.field(var).ok_or_else(|| format!("no field {var}"))?;
    if f.assoc == Assoc::Point {
        return Ok(var.to_string());
    }
    let values = f.values.clone();
    let (accum, count) = node_average(t.points.len(), t.tets.iter().map(|c| &c[..]), &values);
    let name = format!("{var}__points");
    t.fields.push(Field::point(name.clone(), finish_average(accum, &count)));
    Ok(name)
}

fn node_average<'a>(
    points: usize,
    cells: impl Iterator<Item = &'a [u32]>,
    values: &[f32],
) -> (Vec<f32>, Vec<u32>) {
    let mut accum = vec![0.0f32; points];
    let mut count = vec![0u32; points];
    for (cell, &v) in cells.zip(values.iter()) {
        for &n in cell {
            accum[n as usize] += v;
            count[n as usize] += 1;
        }
    }
    (accum, count)
}

fn finish_average(mut accum: Vec<f32>, count: &[u32]) -> Vec<f32> {
    for (a, c) in accum.iter_mut().zip(count.iter()) {
        if *c > 0 {
            *a /= *c as f32;
        }
    }
    accum
}

pub(crate) fn add_phases(rates: &mut Rates, phases: &PhaseTimer, names: &[(&str, &'static str)]) {
    for &(phase, metric) in names {
        rates.add(metric, phases.work_of(phase) as f64, phases.seconds_of(phase));
    }
}

/// What a replay measured for one cycle.
struct Replay {
    layer_s: f64,
    counts: Counts,
}

/// Replay `execute`'s layers for every plot on `node`, checking that each
/// replayed frame and PNG is byte-identical to what Strawman produced.
/// With `serial`, each renderer call is also run on the Serial device: its
/// frame must match and its time feeds `dpp.speedup.*`.
#[allow(clippy::too_many_arguments)]
fn replay(
    kind: Kind,
    node: &Node,
    rig: &Rig,
    dir: &Path,
    serial: bool,
    op: u64,
    tracer: &mut Tracer,
    rates: &mut Rates,
    out: &mut Outcome,
) -> Result<Replay, String> {
    let device = Device::parallel();
    let published = convert(node).map_err(|e| e.to_string())?;
    let hexes = match &published {
        PublishedMesh::Hexes(h) => h,
        _ => return Err("LULESH published a mesh that is not hexahedral".into()),
    };
    let camera = Camera::close_view(&published.bounds());
    let mut layer_s = 0.0;
    let mut counts = Counts::new();
    let mut png_bytes = 0.0;
    for (plot, (sm, _)) in kind.plots().iter().zip(&rig.parallel) {
        let side = plot.side;
        let mut frame = match plot.plot_type {
            "pseudocolor" => {
                let mut h = hexes.clone();
                let var = hex_point_field(&mut h, VAR)?;
                let (tri, s) = tracer.span("mesh.external_faces", "strawman.execute", op, || {
                    external_faces_hex(&h, Some(&var))
                });
                layer_s += s;
                rates.add("mesh.external_faces.cells_per_s", h.num_hexes() as f64, s);
                counts.insert("mesh.external_faces.tris", tri.num_tris() as f64);
                let (geom, s) = tracer.span("render.geometry", "strawman.execute", op, || {
                    TriGeometry::from_mesh(&tri)
                });
                layer_s += s;
                let tf = TransferFunction::rainbow(geom.scalar_range);
                let tris = geom.num_tris() as f64;
                if plot.renderer == "raytracer" {
                    let (rt, s) =
                        tracer.span("render.raytrace.bvh_build", "strawman.execute", op, || {
                            RayTracer::new(device.clone(), geom)
                        });
                    layer_s += s;
                    rates.add("render.raytrace.bvh_build.tris_per_s", tris, s);
                    let cfg = RtConfig::workload2();
                    let (o, s) =
                        tracer.span("render.raytrace.trace", "strawman.execute", op, || {
                            rt.render_with_map(&camera, side, side, &cfg, &tf)
                        });
                    layer_s += s;
                    rates.add("render.raytrace.rays_per_s", o.stats.rays_traced as f64, s);
                    add_phases(rates, &o.phases, &RT_PHASES);
                    counts.insert("render.raytrace.rays", o.stats.rays_traced as f64);
                    counts.insert("render.raytrace.active_pixels", o.stats.active_pixels as f64);
                    counts.insert("render.raytrace.objects", o.stats.objects as f64);
                    if serial {
                        let srt = RayTracer::new(Device::Serial, rt.geom.clone());
                        let t0 = Instant::now();
                        let so = srt.render_with_map(&camera, side, side, &cfg, &tf);
                        rates.add("dpp.speedup.raytrace", t0.elapsed().as_secs_f64(), s);
                        out.attempted += 1;
                        out.check(frames_identical(&so.frame, &o.frame), || {
                            format!("cycle {op}: Serial ray trace differs from Parallel")
                        });
                    }
                    o.frame
                } else {
                    let (o, s) = tracer.span("render.raster", "strawman.execute", op, || {
                        rasterize(&device, &geom, &camera, side, side, &tf, None)
                    });
                    layer_s += s;
                    rates.add("render.raster.pixels_per_s", o.stats.pixels_considered as f64, s);
                    add_phases(rates, &o.phases, &RASTER_PHASES);
                    counts.insert(
                        "render.raster.pixels_considered",
                        o.stats.pixels_considered as f64,
                    );
                    counts.insert("render.raster.visible_objects", o.stats.visible_objects as f64);
                    counts.insert("render.raster.active_pixels", o.stats.active_pixels as f64);
                    if serial {
                        let t0 = Instant::now();
                        let so = rasterize(&Device::Serial, &geom, &camera, side, side, &tf, None);
                        rates.add("dpp.speedup.raster", t0.elapsed().as_secs_f64(), s);
                        out.attempted += 1;
                        out.check(frames_identical(&so.frame, &o.frame), || {
                            format!("cycle {op}: Serial raster differs from Parallel")
                        });
                    }
                    o.frame
                }
            }
            _ => {
                let (tets, s) =
                    tracer.span("mesh.to_tets", "strawman.execute", op, || hexes.to_tets());
                layer_s += s;
                rates.add("mesh.to_tets.tets_per_s", tets.num_tets() as f64, s);
                let mut tets = tets;
                let var = tet_point_field(&mut tets, VAR)?;
                let range = tets.field(&var).and_then(|f| f.range()).unwrap_or((0.0, 1.0));
                let tf = TransferFunction::sparse_features(range);
                let cfg = UvrConfig::default();
                let (o, s) = tracer.span("render.uvr", "strawman.execute", op, || {
                    render_unstructured(&device, &tets, &var, &camera, side, side, &tf, &cfg)
                });
                let o = o.map_err(|e| e.to_string())?;
                layer_s += s;
                let samples = o.stats.samples_per_ray * o.stats.active_pixels as f64;
                rates.add("render.uvr.samples_per_s", samples, s);
                add_phases(rates, &o.phases, &UVR_PHASES);
                counts.insert("render.uvr.samples_per_ray", o.stats.samples_per_ray);
                counts.insert("render.uvr.cells_per_pixel", o.stats.cells_per_pixel);
                counts.insert("render.uvr.buffer_bytes", o.stats.buffer_bytes as f64);
                counts.insert("render.uvr.active_pixels", o.stats.active_pixels as f64);
                if serial {
                    let t0 = Instant::now();
                    let so = render_unstructured(
                        &Device::Serial,
                        &tets,
                        &var,
                        &camera,
                        side,
                        side,
                        &tf,
                        &cfg,
                    )
                    .map_err(|e| e.to_string())?;
                    rates.add("dpp.speedup.uvr", t0.elapsed().as_secs_f64(), s);
                    out.attempted += 1;
                    out.check(frames_identical(&so.frame, &o.frame), || {
                        format!("cycle {op}: Serial volume render differs from Parallel")
                    });
                }
                o.frame
            }
        };
        frame.set_background(Color::WHITE);
        out.attempted += 1;
        let same =
            sm.last_frame.as_ref().is_some_and(|f: &Framebuffer| frames_identical(f, &frame));
        out.check(same, || {
            format!("cycle {op}: replayed {} frame differs from Strawman's", plot.file)
        });
        let (bytes, s) = tracer.span("strawman.encode", "strawman.execute", op, || {
            png::encode_rgba(side, side, &frame.to_rgba8())
        });
        layer_s += s;
        rates.add("strawman.encode.bytes_per_s", (side * side * 4) as f64, s);
        png_bytes += bytes.len() as f64;
        out.attempted += 1;
        let written = std::fs::read(png_path(dir, plot)).map_err(|e| e.to_string())?;
        out.check(written == bytes, || format!("cycle {op}: replayed {} PNG differs", plot.file));
    }
    counts.insert("strawman.png_bytes", png_bytes);
    Ok(Replay { layer_s, counts })
}

fn png_path(dir: &Path, plot: &Plot) -> PathBuf {
    dir.join(format!("{}.png", plot.file))
}

/// Render the cycle's published data again with Serial twins and require
/// byte-identical frames and PNG files.
fn check_serial(kind: Kind, rig: &mut Rig, node: &Node, dir: &Path, op: u64, out: &mut Outcome) {
    let mut scratch = Outcome::default();
    drive(&mut rig.serial, node, op, None, &mut scratch);
    for ((plot, (sm, _)), (ssm, _)) in kind.plots().iter().zip(&rig.parallel).zip(&rig.serial) {
        out.attempted += 1;
        let same = match (&sm.last_frame, &ssm.last_frame) {
            (Some(a), Some(b)) => frames_identical(a, b),
            _ => false,
        };
        let png_same = std::fs::read(png_path(dir, plot)).ok()
            == std::fs::read(png_path(&dir.join("serial"), plot)).ok();
        out.check(same && png_same && scratch.failed == 0, || {
            format!("cycle {op}: {} differs from the Serial render", plot.file)
        });
    }
}

pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let dir = common::out_dir(kind.name())?;
    std::fs::create_dir_all(dir.join("serial")).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut tracer = Tracer::new();
    let mut rates = Rates::default();

    // Set up several times; every set-up of one seed must do the same work.
    let (mut rigs, setup) = repeat_setup(SETUP_REPS, || build_rig(kind, seed, &dir, out))?;
    let mut reference: Option<Counts> = None;
    for (i, rig) in rigs.iter().enumerate() {
        let mut scratch_rates = Rates::default();
        let r = replay(
            kind,
            &rig.states.nodes[WARMUP_CYCLES - 1],
            rig,
            &dir,
            false,
            i as u64,
            &mut Tracer::new(),
            &mut scratch_rates,
            out,
        )?;
        out.attempted += 1;
        match &reference {
            None => reference = Some(r.counts),
            Some(c) => out.check(*c == r.counts, || {
                format!("set-up {i} counted different work than set-up 0 for the same seed")
            }),
        }
    }
    let mut rig = rigs.pop().ok_or("no set-up")?;
    drop(rigs);

    let (mut vis, mut vis_traced) = (Samples::default(), Samples::default());
    let (mut publish_s, mut execute_s, mut layer_s) = (0.0, 0.0, 0.0);
    let mut images = 0u64;
    let mut counts = CountSeries::default();
    let start = Instant::now();
    let mut cycle = 0u64;
    let mut traced_cycles = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        let op = cycle;
        // Traced and untraced cycles alternate by whole windows, so both
        // measure every recorded state.
        let traced = trace && (cycle / WINDOW as u64) % 2 == 1;
        let node = rig.states.nodes[cycle as usize % WINDOW].clone();

        let t0 = Instant::now();
        let (n, p, e) = drive(&mut rig.parallel, &node, op, traced.then_some(&mut tracer), out);
        let v = t0.elapsed().as_secs_f64();
        images += n;
        if traced {
            vis_traced.push(v);
            publish_s += p;
            execute_s += e;
            let r = replay(
                kind,
                &node,
                &rig,
                &dir,
                traced_cycles.is_multiple_of(DPP_EVERY),
                op,
                &mut tracer,
                &mut rates,
                out,
            )?;
            layer_s += r.layer_s;
            counts.add(&r.counts);
            traced_cycles += 1;
        } else {
            vis.push(v);
        }
        if cycle.is_multiple_of(CHECK_EVERY) {
            check_serial(kind, &mut rig, &node, &dir, op, out);
        }
        cycle += 1;
    }
    if vis.is_empty() {
        return Err("no untraced cycle completed".into());
    }

    let images_per_cycle = kind.plots().len() as f64;
    out.note(format!(
        "cycles measured: {cycle} ({} untraced, {traced_cycles} traced), {} warm-up cycles per set-up excluded",
        vis.len(),
        WARMUP_CYCLES
    ));
    report_end_to_end(out, &vis, &setup, images_per_cycle * vis.len() as f64 / vis.sum())?;
    out.line("vis_s.p50", vis.p50(), "s", vis.len());
    let (p, tail) = vis.tail();
    out.line(&format!("vis_s.p{p}"), tail, "s", vis.len());
    out.line("images_per_s", images_per_cycle * vis.len() as f64 / vis.sum(), "1/s", vis.len());
    let step_s = &rig.states.step_s;
    out.line("sims.step_s", step_s.mean(), "s", step_s.len());
    out.note(format!("images written: {images}"));

    let cells = rig.states.cells;
    out.layer("sims.cells_per_s", cells * step_s.len() as f64 / step_s.sum(), step_s.len());
    if trace {
        let n = traced_cycles as f64;
        let publishes = n * rig.parallel.len() as f64;
        out.layer(
            "strawman.publish.cells_per_s",
            cells * publishes / publish_s,
            traced_cycles as usize,
        );
        let self_s = execute_s - layer_s;
        out.layer("strawman.execute.self_frac", self_s / vis_traced.sum(), traced_cycles as usize);
        out.line("strawman.publish_s", publish_s / n, "s", traced_cycles as usize);
        out.line("strawman.execute.self_s", self_s / n, "s", traced_cycles as usize);
        account(out, &tracer, traced_cycles, publish_s + execute_s, &vis_traced);
        out.layer("trace.overhead_frac", vis_traced.p50() / vis.p50() - 1.0, vis_traced.len());
        rates.emit(out);
        counts.emit(out);
    }
    write_trace(&dir, &tracer, trace)
}
