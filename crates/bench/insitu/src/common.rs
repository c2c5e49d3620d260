//! Helpers shared by the workloads: seeded choices, published data
//! descriptions, byte-level output comparison, and host probes.

use crate::stats::Samples;
use compositing::RankImage;
use conduit_node::Node;
use render::Framebuffer;
use sims::{Kripke, Lulesh, ProxySim};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use vecmath::Color;

/// SplitMix64: a seed-derived value for one named choice.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where images and the trace file go: under the Cargo target directory of
/// the checkout the benchmark runs in.
pub fn out_dir(workload: &str) -> Result<PathBuf, String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let dir = PathBuf::from(target).join("insitu-bench").join(workload);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Times an in situ workload is set up per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Run `build` `reps` times; return every result and the set-up seconds.
pub fn repeat_setup<T>(
    reps: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<T>, Samples), String> {
    let mut secs = Samples::default();
    let mut built = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        built.push(build()?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    Ok((built, secs))
}

/// The LULESH proxy's mesh described with the Section 4.3 conventions
/// (coordinates and connectivity shared, the `e` field element-centred).
pub fn hex_node(sim: &Lulesh) -> Node {
    let xs: Arc<Vec<f32>> = Arc::new(sim.nodes.iter().map(|p| p.x).collect());
    let ys: Arc<Vec<f32>> = Arc::new(sim.nodes.iter().map(|p| p.y).collect());
    let zs: Arc<Vec<f32>> = Arc::new(sim.nodes.iter().map(|p| p.z).collect());
    let conn: Arc<Vec<u32>> = Arc::new(sim.hexes.iter().flatten().copied().collect());
    let mut data = Node::new();
    data.set("state/time", sim.time());
    data.set("state/cycle", sim.cycle() as i64);
    data.set("state/domain", 0i64);
    data.set("coords/type", "explicit");
    data.set_external_f32("coords/x", xs);
    data.set_external_f32("coords/y", ys);
    data.set_external_f32("coords/z", zs);
    data.set("topology/type", "unstructured");
    data.set("topology/elements/shape", "hexs");
    data.set_external_u32("topology/elements/connectivity", conn);
    data.set("fields/e/association", "element");
    data.set("fields/e/values", sim.energy().to_vec());
    data
}

/// The Kripke proxy's uniform grid with its point-sampled scalar flux.
pub fn grid_node(sim: &Kripke) -> Result<Node, String> {
    let grid = sim.grid();
    let phi = grid.field("phi_p").ok_or("Kripke grid lacks phi_p")?;
    let mut data = Node::new();
    data.set("state/time", sim.time());
    data.set("state/cycle", sim.cycle() as i64);
    data.set("state/domain", 0i64);
    data.set("coords/type", "uniform");
    data.set("coords/dims/i", grid.dims[0] as i64);
    data.set("coords/dims/j", grid.dims[1] as i64);
    data.set("coords/dims/k", grid.dims[2] as i64);
    data.set("coords/origin/x", grid.origin.x as f64);
    data.set("coords/origin/y", grid.origin.y as f64);
    data.set("coords/origin/z", grid.origin.z as f64);
    data.set("coords/spacing/x", grid.spacing.x as f64);
    data.set("coords/spacing/y", grid.spacing.y as f64);
    data.set("coords/spacing/z", grid.spacing.z as f64);
    data.set("fields/phi/association", "vertex");
    data.set("fields/phi/values", phi.values.clone());
    Ok(data)
}

/// One `AddPlot` + `DrawPlots` + `SaveImage` action list.
pub fn plot_actions(plot_type: &str, renderer: &str, var: &str, file: &str, side: u32) -> Node {
    let mut actions = Node::new();
    let add = actions.append();
    add.set("action", "AddPlot");
    add.set("var", var);
    add.set("type", plot_type);
    if !renderer.is_empty() {
        add.set("renderer", renderer);
    }
    let draw = actions.append();
    draw.set("action", "DrawPlots");
    let save = actions.append();
    save.set("action", "SaveImage");
    save.set("fileName", file);
    save.set("format", "png");
    save.set("width", side as i64);
    save.set("height", side as i64);
    actions
}

fn color_bits(c: &Color) -> [u32; 4] {
    [c.r.to_bits(), c.g.to_bits(), c.b.to_bits(), c.a.to_bits()]
}

fn pixels_identical(ca: &[Color], da: &[f32], cb: &[Color], db: &[f32]) -> bool {
    ca.len() == cb.len()
        && da.len() == db.len()
        && ca.iter().zip(cb).all(|(a, b)| color_bits(a) == color_bits(b))
        && da.iter().zip(db).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Color and depth equal to the bit.
pub fn frames_identical(a: &Framebuffer, b: &Framebuffer) -> bool {
    (a.width, a.height) == (b.width, b.height)
        && pixels_identical(&a.color, &a.depth, &b.color, &b.depth)
}

/// Color and depth equal to the bit.
pub fn rank_images_identical(a: &RankImage, b: &RankImage) -> bool {
    (a.width, a.height) == (b.width, b.height)
        && pixels_identical(&a.color, &a.depth, &b.color, &b.depth)
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Consecutive proxy cycles recorded per set-up and replayed in order.
///
/// The proxies' rendering cost drifts as their physics evolves (the LULESH
/// surface frame costs about 0.19 s in its first 50 cycles and 0.08 s
/// after), so a run that stepped the proxy live would measure a mix that
/// depends on how many cycles fit in it. Replaying a fixed window keeps
/// the mix the same on every run.
pub const WINDOW: usize = 16;

/// A window of published proxy states and what stepping to them cost.
pub struct States {
    pub nodes: Vec<Node>,
    pub step_s: Samples,
    pub cells: f64,
}

/// Step `sim` `presteps` times, then record `WINDOW` consecutive cycles,
/// timing each step apart from describing its data.
pub fn record_states<S: ProxySim>(
    sim: &mut S,
    presteps: u64,
    describe: impl Fn(&S) -> Result<Node, String>,
) -> Result<States, String> {
    for _ in 0..presteps {
        sim.step();
    }
    let mut step_s = Samples::default();
    let mut nodes = Vec::with_capacity(WINDOW);
    for _ in 0..WINDOW {
        let t0 = Instant::now();
        sim.step();
        step_s.push(t0.elapsed().as_secs_f64());
        nodes.push(describe(sim)?);
    }
    Ok(States { nodes, step_s, cells: sim.num_cells() as f64 })
}
