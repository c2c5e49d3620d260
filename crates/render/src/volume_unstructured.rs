//! Unstructured (tetrahedral) volume rendering — the Chapter III algorithm,
//! composed entirely of data-parallel primitives.
//!
//! The renderer populates a `W x H x S` sample buffer in one or more passes
//! over depth; each pass runs four phases (Algorithm 2):
//!
//! 1. **Pass selection** — map (threshold against the pass depth range) +
//!    reduce + exclusive scan + reverse-index + gather = stream compaction of
//!    the tetrahedra that can contribute samples this pass.
//! 2. **Screen-space transformation** — map the active tets into screen
//!    space, precomputing the inverse barycentric matrix (the "interpolation
//!    constants" the paper re-uses across samples of the same cell).
//! 3. **Sampling** — map over active tets. Each pixel column of the tet's
//!    screen AABB is one cell-location operation (the model's CS work).
//!    Each barycentric coordinate is linear in depth along the column, so
//!    the column is first clipped to a conservative slice range where the
//!    inside test can pass (`ColumnClip`). The inside-outside barycentric
//!    test runs over that clipped range and, if inside, writes the
//!    interpolated scalar into the sample buffer; the slices left out are
//!    ones the test would reject, so the buffer equals the exhaustive
//!    scan's. Tets partition space, so at most one writer reaches a sample —
//!    except at shared faces, where the epsilon'd inside test lets two
//!    adjacent tets claim the same sample. Those boundary ties are resolved
//!    with an atomic `fetch_max` keyed on the global tet index, which is both
//!    scheduling-order independent and exactly the serial last-writer-wins
//!    outcome (the serial pass visits tets in ascending index order).
//! 4. **Compositing** — map over pixels, folding this pass's samples
//!    front-to-back through the transfer function with early termination.
//!
//! Splitting the buffer into passes trades memory for repeated screen-space
//! work — exactly the trade-off Figures 4 and 5 of the dissertation sweep.

use crate::counters::PhaseTimer;
use crate::framebuffer::Framebuffer;
use dpp::{compact_indices, map, Device};
use mesh::{Assoc, TetMesh};
use std::sync::atomic::{AtomicU64, Ordering};
use vecmath::{over, Camera, Color, TransferFunction, Vec3};

/// Sentinel for "no sample written". Occupied slots pack
/// `(tet_index + 1) << 32 | scalar_bits`, so every real write is non-zero and
/// `fetch_max` deterministically keeps the highest-index tet on boundary ties.
const EMPTY: u64 = 0;

/// Configuration for the unstructured volume renderer.
#[derive(Debug, Clone)]
pub struct UvrConfig {
    /// Total samples in depth (the paper uses 1000 for 1024^2 images).
    pub depth_samples: u32,
    /// Number of passes the sample buffer is split into.
    pub num_passes: u32,
    /// Early termination opacity.
    pub early_termination: f32,
    /// Optional memory cap for the sample buffer, mimicking the GPU's 6 GB
    /// limit that made the paper's Enzo-80M runs fail (Figure 5).
    pub memory_limit_bytes: Option<usize>,
}

impl Default for UvrConfig {
    fn default() -> Self {
        UvrConfig {
            depth_samples: 400,
            num_passes: 1,
            early_termination: 0.98,
            memory_limit_bytes: None,
        }
    }
}

/// Failure modes (the memory cap reproduces the paper's OOM behaviour).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UvrError {
    OutOfMemory { required_bytes: usize, limit_bytes: usize },
    MissingField(String),
}

impl std::fmt::Display for UvrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UvrError::OutOfMemory { required_bytes, limit_bytes } => write!(
                f,
                "sample buffer needs {required_bytes} B but the device limit is {limit_bytes} B"
            ),
            UvrError::MissingField(n) => write!(f, "no point field named {n}"),
        }
    }
}

impl std::error::Error for UvrError {}

/// Measured model inputs.
#[derive(Debug, Clone)]
pub struct UvrStats {
    /// O: number of tetrahedra.
    pub objects: usize,
    /// AP: pixels that received at least one sample.
    pub active_pixels: usize,
    /// SPR: average composited samples per active pixel.
    pub samples_per_ray: f64,
    /// CS proxy: cell-location operations per active pixel (tet-pixel-column
    /// tests, the `AP*CS` cell-frequency work of the model).
    pub cells_per_pixel: f64,
    /// Peak sample-buffer bytes.
    pub buffer_bytes: usize,
    pub render_seconds: f64,
}

#[derive(Debug)]
pub struct UvrOutput {
    pub frame: Framebuffer,
    pub stats: UvrStats,
    pub phases: PhaseTimer,
}

/// Screen-space tetrahedron with precomputed barycentric inverse.
#[derive(Clone, Copy)]
pub(crate) struct ScreenTet {
    /// Fourth screen vertex (the barycentric reference point).
    d: Vec3,
    /// Inverse of the 3x3 matrix [v0-d | v1-d | v2-d].
    inv: [[f32; 3]; 3],
    /// Vertex scalars (v0, v1, v2, d).
    s: [f32; 4],
    /// Screen AABB: x0, x1, y0, y1 (pixels), z0, z1 (view depth).
    bbox: [f32; 6],
}

/// Bytes required for the sample buffer at the given configuration.
pub fn sample_buffer_bytes(width: u32, height: u32, cfg: &UvrConfig) -> usize {
    let slab = cfg.depth_samples.div_ceil(cfg.num_passes.max(1)) as usize;
    width as usize * height as usize * slab * 4
}

/// Initialization stage: per-tet view-depth ranges (map).
pub(crate) fn init_ranges_stage(
    device: &Device,
    tets: &TetMesh,
    camera: &Camera,
) -> Vec<(f32, f32)> {
    let n_tets = tets.num_tets();
    let fwd = (camera.look_at - camera.position).normalized();
    map(device, n_tets, |t| {
        let pts = tets.tet_points(t);
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for p in pts {
            let d = (p - camera.position).dot(fwd);
            lo = lo.min(d);
            hi = hi.max(d);
        }
        (lo, hi)
    })
}

/// Pass-selection stage: stream-compact the tets whose depth range overlaps
/// `[pass_z0, pass_z1]` in front of the camera.
pub(crate) fn select_stage(
    device: &Device,
    ranges: &[(f32, f32)],
    near: f32,
    pass_z0: f32,
    pass_z1: f32,
) -> Vec<u32> {
    compact_indices(device, ranges.len(), |t| {
        let (lo, hi) = ranges[t];
        hi >= pass_z0 && lo <= pass_z1 && hi >= near
    })
}

/// Screen-space transformation stage: project active tets and precompute the
/// inverse barycentric matrices.
pub(crate) fn screen_space_stage(
    device: &Device,
    tets: &TetMesh,
    field: &[f32],
    camera: &Camera,
    width: u32,
    height: u32,
    active: &[u32],
) -> Vec<Option<ScreenTet>> {
    let fwd = (camera.look_at - camera.position).normalized();
    let st = camera.screen_transform(width, height);
    map(device, active.len(), |a| {
        let t = active[a] as usize;
        let pts = tets.tet_points(t);
        let mut sv = [Vec3::ZERO; 4];
        for (i, p) in pts.iter().enumerate() {
            let d = (*p - camera.position).dot(fwd);
            if d < camera.near * 0.5 {
                return None; // straddles the camera plane
            }
            let s = st.to_screen(*p);
            if !s.is_finite() {
                return None;
            }
            sv[i] = Vec3::new(s.x, s.y, d);
        }
        let ix = tets.tets[t];
        ScreenTet::new(sv, ix.map(|i| field[i as usize]))
    })
}

impl ScreenTet {
    /// Precompute the barycentric inverse and screen AABB of the tet with
    /// screen-space vertices `sv` (x, y in pixels, z = view depth) and
    /// vertex scalars `s`; `None` when the tet is degenerate.
    fn new(sv: [Vec3; 4], s: [f32; 4]) -> Option<ScreenTet> {
        let d = sv[3];
        let m0 = sv[0] - d;
        let m1 = sv[1] - d;
        let m2 = sv[2] - d;
        // Inverse of column matrix [m0 m1 m2].
        let det = m0.x * (m1.y * m2.z - m2.y * m1.z) - m1.x * (m0.y * m2.z - m2.y * m0.z)
            + m2.x * (m0.y * m1.z - m1.y * m0.z);
        if det.abs() < 1e-12 {
            return None;
        }
        let id = 1.0 / det;
        let inv = [
            [
                (m1.y * m2.z - m2.y * m1.z) * id,
                (m2.x * m1.z - m1.x * m2.z) * id,
                (m1.x * m2.y - m2.x * m1.y) * id,
            ],
            [
                (m2.y * m0.z - m0.y * m2.z) * id,
                (m0.x * m2.z - m2.x * m0.z) * id,
                (m2.x * m0.y - m0.x * m2.y) * id,
            ],
            [
                (m0.y * m1.z - m1.y * m0.z) * id,
                (m1.x * m0.z - m0.x * m1.z) * id,
                (m0.x * m1.y - m1.x * m0.y) * id,
            ],
        ];
        let bx0 = sv.iter().map(|v| v.x).fold(f32::INFINITY, f32::min);
        let bx1 = sv.iter().map(|v| v.x).fold(f32::NEG_INFINITY, f32::max);
        let by0 = sv.iter().map(|v| v.y).fold(f32::INFINITY, f32::min);
        let by1 = sv.iter().map(|v| v.y).fold(f32::NEG_INFINITY, f32::max);
        let bz0 = sv.iter().map(|v| v.z).fold(f32::INFINITY, f32::min);
        let bz1 = sv.iter().map(|v| v.z).fold(f32::NEG_INFINITY, f32::max);
        Some(ScreenTet { d, inv, s, bbox: [bx0, bx1, by0, by1, bz0, bz1] })
    }
}

/// Threshold of the barycentric inside test. Slightly negative, so a sample
/// on a shared face is claimed by both tets (resolved by `fetch_max`).
const EPS: f32 = -1e-5;

/// Sampling stage: fill this pass's sample slab with `fetch_max`-merged
/// tagged scalars. Returns the slab and the tet-pixel-column tests
/// performed (the CS model input).
#[allow(clippy::too_many_arguments)] // mirrors the paper's kernel signature
pub(crate) fn sampling_stage(
    device: &Device,
    active: &[u32],
    screen: &[Option<ScreenTet>],
    opacity: &[f32],
    term: f32,
    width: u32,
    height: u32,
    z0: f32,
    dz: f32,
    slab: usize,
    s_begin: u32,
    s_end: u32,
) -> (Vec<u64>, u64) {
    sample_columns(
        device,
        active,
        screen,
        opacity,
        term,
        width,
        height,
        z0,
        dz,
        slab,
        s_begin,
        s_end,
        |tet, s_lo, s_hi| {
            let clip = ColumnClip::new(tet, z0, dz, s_lo, s_hi);
            move |px, py| clip.slices(px, py)
        },
    )
}

/// The sampling kernel, with each pixel column's slice range left to
/// `columns`: given a tet and its slice range `[s_lo, s_hi]` in this pass,
/// it returns the function from a pixel `(px, py)` to the slices the
/// inside test must visit there (`None` for none). [`sampling_stage`]
/// passes [`ColumnClip`]; the tests pass the exhaustive range as the oracle.
#[allow(clippy::too_many_arguments)] // sampling_stage's signature plus `columns`
fn sample_columns<C: Fn(u32, u32) -> Option<(u32, u32)>>(
    device: &Device,
    active: &[u32],
    screen: &[Option<ScreenTet>],
    opacity: &[f32],
    term: f32,
    width: u32,
    height: u32,
    z0: f32,
    dz: f32,
    slab: usize,
    s_begin: u32,
    s_end: u32,
    columns: impl Fn(&ScreenTet, u32, u32) -> C + Sync,
) -> (Vec<u64>, u64) {
    let n_px = (width * height) as usize;
    let samples: Vec<AtomicU64> = (0..n_px * slab).map(|_| AtomicU64::new(EMPTY)).collect();
    let cells_tested = AtomicU64::new(0);
    dpp::for_each(device, active.len(), |a| {
        let Some(tet) = &screen[a] else { return };
        let tag = (active[a] as u64 + 1) << 32;
        let [bx0, bx1, by0, by1, bz0, bz1] = tet.bbox;
        let px0 = bx0.floor().max(0.0) as u32;
        let px1 = (bx1.ceil() as i64).min(width as i64 - 1).max(0) as u32;
        let py0 = by0.floor().max(0.0) as u32;
        let py1 = (by1.ceil() as i64).min(height as i64 - 1).max(0) as u32;
        if bx1 < 0.0 || by1 < 0.0 {
            return;
        }
        // Depth slice range of this tet clipped to the pass.
        let s_lo = (((bz0 - z0) / dz).floor().max(s_begin as f32)) as u32;
        let s_hi = ((((bz1 - z0) / dz).ceil()) as i64).min(s_end as i64 - 1).max(0) as u32;
        if s_lo > s_hi {
            return;
        }
        let column = columns(tet, s_lo, s_hi);
        let mut tested = 0u64;
        for py in py0..=py1 {
            for px in px0..=px1 {
                let pix = (py * width + px) as usize;
                tested += 1;
                if opacity[pix] >= term {
                    continue; // early-termination in the sampler
                }
                let Some((c_lo, c_hi)) = column(px, py) else { continue };
                for sl in c_lo..=c_hi {
                    let zc = z0 + (sl as f32 + 0.5) * dz;
                    let p = Vec3::new(px as f32 + 0.5, py as f32 + 0.5, zc);
                    let r = p - tet.d;
                    let l0 = tet.inv[0][0] * r.x + tet.inv[0][1] * r.y + tet.inv[0][2] * r.z;
                    let l1 = tet.inv[1][0] * r.x + tet.inv[1][1] * r.y + tet.inv[1][2] * r.z;
                    let l2 = tet.inv[2][0] * r.x + tet.inv[2][1] * r.y + tet.inv[2][2] * r.z;
                    let l3 = 1.0 - l0 - l1 - l2;
                    if l0 >= EPS && l1 >= EPS && l2 >= EPS && l3 >= EPS {
                        let value = tet.s[0] * l0 + tet.s[1] * l1 + tet.s[2] * l2 + tet.s[3] * l3;
                        let slot = pix * slab + (sl - s_begin) as usize;
                        let tagged = tag | value.to_bits() as u64;
                        // ORDERING: Relaxed — fetch_max is a
                        // monotonic merge of (tet, value) tags; the
                        // winner is scheduling-independent and is
                        // read only after the region joins.
                        samples[slot].fetch_max(tagged, Ordering::Relaxed);
                    }
                }
            }
        }
        // ORDERING: Relaxed — commutative statistics counter.
        cells_tested.fetch_add(tested, Ordering::Relaxed);
    });
    // The for_each joined, so the atomics are plain values again; unwrapping
    // them in place reuses the slab's allocation instead of copying it.
    let loaded = samples.into_iter().map(AtomicU64::into_inner).collect();
    let tested = cells_tested.into_inner();
    (loaded, tested)
}

/// One tet's per-column depth clip: for a pixel column, the slices
/// `[lo, hi] ⊆ [s_lo, s_hi]` outside which the f32 inside test cannot pass.
///
/// Along the column each barycentric coordinate is linear in the slice
/// index, `l_i(sl) = a_i + b_i·sl`, so `l_i ≥ EPS` bounds `sl` from one side
/// (from neither when `b_i = 0`). The bounds are solved in f64 against a
/// threshold lowered by an error bound of the f32 evaluation: the rounding
/// of its products and sums, relative to the magnitudes of their terms,
/// with a wide safety factor. The one rounding that bound leaves out is of
/// the slice's depth `zc`, which moves the sample by less than one slice;
/// rounding the bounds outward to whole slices absorbs it. (A volume so far
/// from the camera that `zc` could round by more keeps the whole range.)
/// The f32 test still decides every sample inside the interval, so the
/// slab is exactly the exhaustive scan's. A coordinate whose terms are not
/// finite adds no bound.
struct ColumnClip {
    /// Rows of the inverse barycentric matrix: `l_i = m[i]·r` for i < 3.
    m: [[f64; 3]; 3],
    /// Reference vertex `d` (x, y).
    d: [f64; 2],
    /// The part of `a_i` from `r.z` at slice 0's centre.
    a_z: [f64; 3],
    /// Slopes `b_i` and their reciprocals; index 3 is `l3 = 1 - l0 - l1 - l2`.
    b: [f64; 4],
    inv_b: [f64; 4],
    /// Bound on `|m[i][2]·r.z|` over the tet's slices.
    zmag: [f64; 3],
    /// The tet's slice range in this pass.
    s_lo: f64,
    s_hi: f64,
    /// Every column keeps `[s_lo, s_hi]` (see the type's doc).
    whole: bool,
}

impl ColumnClip {
    fn new(tet: &ScreenTet, z0: f32, dz: f32, s_lo: u32, s_hi: u32) -> ColumnClip {
        let m = tet.inv.map(|row| row.map(f64::from));
        let dz = dz as f64;
        // r.z at slice sl is rz0 + sl·dz; its magnitude peaks at an end.
        let rz0 = z0 as f64 + 0.5 * dz - tet.d.z as f64;
        let rz_max = (rz0 + s_lo as f64 * dz).abs().max((rz0 + s_hi as f64 * dz).abs());
        let zc_max = (z0 as f64).abs().max((z0 as f64 + (s_hi + 1) as f64 * dz).abs());
        let mut a_z = [0.0; 3];
        let mut b = [0.0; 4];
        let mut zmag = [0.0; 3];
        for i in 0..3 {
            a_z[i] = m[i][2] * rz0;
            b[i] = m[i][2] * dz;
            zmag[i] = (m[i][2] * rz_max).abs();
            b[3] -= b[i];
        }
        ColumnClip {
            m,
            d: [tet.d.x as f64, tet.d.y as f64],
            a_z,
            b,
            inv_b: b.map(|b| 1.0 / b),
            zmag,
            s_lo: s_lo as f64,
            s_hi: s_hi as f64,
            // `zc = z0 + (sl + 0.5)·dz` rounds by at most 1.5·2^-23 of its
            // largest magnitude: under 3/4 of a slice unless this holds.
            whole: zc_max * f64::from(f32::EPSILON) >= 0.5 * dz,
        }
    }

    /// The slice interval of column `(px, py)`, or `None` when the inside
    /// test passes nowhere on it.
    #[inline]
    fn slices(&self, px: u32, py: u32) -> Option<(u32, u32)> {
        if self.whole {
            return Some((self.s_lo as u32, self.s_hi as u32));
        }
        let rx = px as f64 + 0.5 - self.d[0];
        let ry = py as f64 + 0.5 - self.d[1];
        let mut a = [0.0, 0.0, 0.0, 1.0];
        let mut mag = [0.0, 0.0, 0.0, 1.0];
        for i in 0..3 {
            let (tx, ty) = (self.m[i][0] * rx, self.m[i][1] * ry);
            a[i] = tx + ty + self.a_z[i];
            mag[i] = tx.abs() + ty.abs() + self.zmag[i];
            a[3] -= a[i];
            mag[3] += mag[i];
        }
        // Rounding the tightest bounds outward equals tightening the
        // rounded ones, so round once, after the loop. `lo ≥ s_lo ≥ 0`, so
        // truncation is its floor; a negative `hi` rounds up to slice 0 at
        // worst, which only widens the interval. (f64 floor/ceil are libm
        // calls on baseline x86-64; this is the hot path.)
        let (mut lo, mut hi) = (self.s_lo, self.s_hi);
        for i in 0..4 {
            if !(a[i].is_finite() && mag[i].is_finite() && self.b[i].is_finite()) {
                continue;
            }
            let thr = EPS as f64 - (1e-4 * mag[i] + 1e-5);
            let bound = (thr - a[i]) * self.inv_b[i];
            if self.b[i] > 0.0 {
                lo = lo.max(bound);
            } else if self.b[i] < 0.0 {
                hi = hi.min(bound);
            } else if a[i] < thr {
                return None;
            }
        }
        let lo = lo as u32;
        let hi_down = hi as u32;
        let hi = hi_down + u32::from((hi_down as f64) < hi);
        (lo <= hi).then_some((lo, hi))
    }
}

/// Compositing stage: fold this pass's samples front-to-back into the
/// accumulation buffer with early termination. Returns the new accumulation
/// state and the number of samples composited.
#[allow(clippy::too_many_arguments)] // mirrors the paper's kernel signature
pub(crate) fn composite_stage(
    device: &Device,
    acc: &[Color],
    samples: &[u64],
    slab: usize,
    slab_this: usize,
    term: f32,
    tf: &TransferFunction,
) -> (Vec<Color>, u64) {
    let composited = AtomicU64::new(0);
    let new_acc = map(device, acc.len(), |pix| {
        let mut c = acc[pix];
        if c.a >= term {
            return c;
        }
        let mut n_comp = 0u64;
        for sl in 0..slab_this {
            let packed = samples[pix * slab + sl];
            if packed == EMPTY {
                continue;
            }
            let v = f32::from_bits(packed as u32);
            let col = tf.sample(v);
            n_comp += 1;
            if col.a > 0.0 {
                c = over(c, col.premultiplied());
                if c.a >= term {
                    break;
                }
            }
        }
        if n_comp > 0 {
            // ORDERING: Relaxed — commutative statistics counter.
            composited.fetch_add(n_comp, Ordering::Relaxed);
        }
        c
    });
    // ORDERING: Relaxed — read after the region joined.
    (new_acc, composited.load(Ordering::Relaxed))
}

/// Assemble the accumulation buffer into a framebuffer; returns the frame
/// and the active-pixel count.
pub(crate) fn assemble_uvr_stage(acc: &[Color], width: u32, height: u32) -> (Framebuffer, usize) {
    let mut frame = Framebuffer::new(width, height);
    let mut active_px = 0usize;
    for (i, c) in acc.iter().enumerate() {
        if c.a > 0.0 {
            frame.color[i] = c.unpremultiplied();
            frame.depth[i] = 0.0;
            active_px += 1;
        }
    }
    (frame, active_px)
}

/// Render the tetrahedral mesh's point field through the camera.
#[allow(clippy::too_many_arguments)] // mirrors the paper's kernel signature
pub fn render_unstructured(
    device: &Device,
    tets: &TetMesh,
    field_name: &str,
    camera: &Camera,
    width: u32,
    height: u32,
    tf: &TransferFunction,
    cfg: &UvrConfig,
) -> Result<UvrOutput, UvrError> {
    let t_start = std::time::Instant::now();
    let mut phases = PhaseTimer::new();
    let field = &tets
        .field(field_name)
        .filter(|f| f.assoc == Assoc::Point)
        .ok_or_else(|| UvrError::MissingField(field_name.to_string()))?
        .values;

    let buffer_bytes = sample_buffer_bytes(width, height, cfg);
    if let Some(limit) = cfg.memory_limit_bytes {
        if buffer_bytes > limit {
            return Err(UvrError::OutOfMemory { required_bytes: buffer_bytes, limit_bytes: limit });
        }
    }

    let n_tets = tets.num_tets();
    let n_px = (width * height) as usize;

    // --- Initialization: per-tet depth ranges (map) + global range (reduce).
    let ranges: Vec<(f32, f32)> =
        phases.run("initialization", n_tets as u64, || init_ranges_stage(device, tets, camera));
    let (z0, z1) = dpp::reduce(device, &ranges, (f32::INFINITY, f32::NEG_INFINITY), |a, b| {
        (a.0.min(b.0), a.1.max(b.1))
    });
    let z0 = z0.max(camera.near);
    if z0 >= z1 {
        // Nothing in front of the camera.
        return Ok(empty_output(width, height, n_tets, buffer_bytes, phases, t_start));
    }

    let s_total = cfg.depth_samples.max(1);
    let passes = cfg.num_passes.max(1).min(s_total);
    let slab = s_total.div_ceil(passes) as usize;
    let dz = (z1 - z0) / s_total as f32;

    // Persistent accumulation state across passes. The *modeled* buffer
    // (`sample_buffer_bytes`, what the paper's GPU allocates) stays 4 B per
    // sample; the host holds one 8 B tagged slot per sample (the tet-index
    // tag is bookkeeping, not workload), handed from sampling to
    // compositing without a copy.
    let mut acc: Vec<Color> = vec![Color::TRANSPARENT; n_px];
    let mut ct: u64 = 0;
    let mut total_composited: u64 = 0;
    let term = cfg.early_termination;

    for pass in 0..passes {
        let s_begin = pass * slab as u32;
        let s_end = ((pass + 1) * slab as u32).min(s_total);
        if s_begin >= s_end {
            break;
        }
        let pass_z0 = z0 + s_begin as f32 * dz;
        let pass_z1 = z0 + s_end as f32 * dz;

        // --- Pass selection: threshold + scan + reverse-index + gather. ---
        let active: Vec<u32> = phases.run("pass_selection", n_tets as u64, || {
            select_stage(device, &ranges, camera.near, pass_z0, pass_z1)
        });
        let m = active.len();

        // --- Screen-space transformation (map over active tets). ---
        let screen: Vec<Option<ScreenTet>> = phases.run("screen_space", m as u64, || {
            screen_space_stage(device, tets, field, camera, width, height, &active)
        });

        // --- Sampling (map over active tets, atomic writes). ---
        // Opacity snapshot for sampler-side early termination.
        let opacity: Vec<f32> = acc.iter().map(|c| c.a).collect();
        let (samples, tested) = phases.run("sampling", m as u64, || {
            sampling_stage(
                device, &active, &screen, &opacity, term, width, height, z0, dz, slab, s_begin,
                s_end,
            )
        });
        ct += tested;

        // --- Compositing (map over pixels). ---
        let slab_this = (s_end - s_begin) as usize;
        let (new_acc, composited) = phases.run("compositing", n_px as u64, || {
            composite_stage(device, &acc, &samples, slab, slab_this, term, tf)
        });
        acc = new_acc;
        total_composited += composited;
    }

    // Assemble the frame.
    let (frame, active_px) = assemble_uvr_stage(&acc, width, height);
    Ok(UvrOutput {
        stats: UvrStats {
            objects: n_tets,
            active_pixels: active_px,
            samples_per_ray: if active_px > 0 {
                total_composited as f64 / active_px as f64
            } else {
                0.0
            },
            cells_per_pixel: if active_px > 0 { ct as f64 / active_px as f64 } else { 0.0 },
            buffer_bytes,
            render_seconds: t_start.elapsed().as_secs_f64(),
        },
        frame,
        phases,
    })
}

fn empty_output(
    width: u32,
    height: u32,
    n_tets: usize,
    buffer_bytes: usize,
    phases: PhaseTimer,
    t_start: std::time::Instant,
) -> UvrOutput {
    UvrOutput {
        frame: Framebuffer::new(width, height),
        stats: UvrStats {
            objects: n_tets,
            active_pixels: 0,
            samples_per_ray: 0.0,
            cells_per_pixel: 0.0,
            buffer_bytes,
            render_seconds: t_start.elapsed().as_secs_f64(),
        },
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::datasets::FieldKind;
    use mesh::datasets::TetDatasetSpec;
    use proptest::prelude::*;

    fn small_tets() -> TetMesh {
        TetDatasetSpec { name: "t", cells: [10, 10, 10], kind: FieldKind::ShockShell }.build(1.0)
    }

    fn tfn(t: &TetMesh) -> TransferFunction {
        let range = t.field("scalar").unwrap().range().unwrap();
        TransferFunction::sparse_features(range)
    }

    #[test]
    fn renders_with_single_pass() {
        let t = small_tets();
        let cam = Camera::close_view(&t.bounds());
        let out = render_unstructured(
            &Device::Serial,
            &t,
            "scalar",
            &cam,
            40,
            40,
            &tfn(&t),
            &UvrConfig { depth_samples: 64, ..Default::default() },
        )
        .unwrap();
        assert!(out.stats.active_pixels > 300, "{}", out.stats.active_pixels);
        assert!(out.stats.samples_per_ray > 1.0);
        assert!(out.stats.cells_per_pixel > 1.0);
    }

    #[test]
    fn multi_pass_matches_single_pass() {
        let t = small_tets();
        let cam = Camera::close_view(&t.bounds());
        let tf = tfn(&t);
        let one = render_unstructured(
            &Device::Serial,
            &t,
            "scalar",
            &cam,
            32,
            32,
            &tf,
            &UvrConfig {
                depth_samples: 60,
                num_passes: 1,
                early_termination: 1.1,
                ..Default::default()
            },
        )
        .unwrap();
        let four = render_unstructured(
            &Device::Serial,
            &t,
            "scalar",
            &cam,
            32,
            32,
            &tf,
            &UvrConfig {
                depth_samples: 60,
                num_passes: 4,
                early_termination: 1.1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            one.frame.mean_abs_diff(&four.frame) < 1e-4,
            "diff {}",
            one.frame.mean_abs_diff(&four.frame)
        );
        // Multi-pass uses a quarter of the buffer.
        assert!(four.stats.buffer_bytes * 3 < one.stats.buffer_bytes * 4);
    }

    #[test]
    fn devices_agree() {
        let t = small_tets();
        let cam = Camera::close_view(&t.bounds());
        let tf = tfn(&t);
        let cfg = UvrConfig { depth_samples: 48, ..Default::default() };
        let a =
            render_unstructured(&Device::Serial, &t, "scalar", &cam, 32, 32, &tf, &cfg).unwrap();
        let b = render_unstructured(&Device::parallel(), &t, "scalar", &cam, 32, 32, &tf, &cfg)
            .unwrap();
        assert!(a.frame.mean_abs_diff(&b.frame) < 1e-4);
    }

    #[test]
    fn memory_cap_fails_like_the_gpu() {
        let t = small_tets();
        let cam = Camera::close_view(&t.bounds());
        let cfg = UvrConfig {
            depth_samples: 1000,
            num_passes: 1,
            memory_limit_bytes: Some(1024),
            ..Default::default()
        };
        let err =
            render_unstructured(&Device::Serial, &t, "scalar", &cam, 256, 256, &tfn(&t), &cfg)
                .unwrap_err();
        match err {
            UvrError::OutOfMemory { required_bytes, limit_bytes } => {
                assert!(required_bytes > limit_bytes);
            }
            other => panic!("wrong error {other:?}"),
        }
        // More passes shrink the buffer under the cap.
        let ok_cfg = UvrConfig {
            depth_samples: 1000,
            num_passes: 1000,
            memory_limit_bytes: Some(300 * 1024),
            ..Default::default()
        };
        assert!(sample_buffer_bytes(256, 256, &ok_cfg) <= 300 * 1024);
    }

    #[test]
    fn missing_field_errors() {
        let t = small_tets();
        let cam = Camera::close_view(&t.bounds());
        let err = render_unstructured(
            &Device::Serial,
            &t,
            "nope",
            &cam,
            8,
            8,
            &tfn(&t),
            &UvrConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, UvrError::MissingField("nope".into()));
    }

    #[test]
    fn phase_names_match_the_paper() {
        let t = small_tets();
        let cam = Camera::close_view(&t.bounds());
        let out = render_unstructured(
            &Device::Serial,
            &t,
            "scalar",
            &cam,
            24,
            24,
            &tfn(&t),
            &UvrConfig { depth_samples: 32, num_passes: 2, ..Default::default() },
        )
        .unwrap();
        for phase in ["initialization", "pass_selection", "screen_space", "sampling", "compositing"]
        {
            assert!(out.phases.seconds_of(phase) >= 0.0);
            assert!(out.phases.phases.iter().any(|p| p.name == phase), "missing {phase}");
        }
        // Two passes => two pass_selection records.
        assert_eq!(out.phases.phases.iter().filter(|p| p.name == "pass_selection").count(), 2);
    }

    /// xorshift64 stream for the scene generator.
    struct Rng(u64);

    impl Rng {
        fn unit(&mut self) -> f32 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 40) as f32 / (1u64 << 24) as f32
        }
        fn range(&mut self, lo: f32, hi: f32) -> f32 {
            lo + (hi - lo) * self.unit()
        }
        fn below(&mut self, n: usize) -> usize {
            ((self.unit() * n as f32) as usize).min(n - 1)
        }
    }

    /// A random screen-space tet of one of six kinds: generic; on a
    /// half-pixel / eighth-depth grid (samples exactly on faces); with one
    /// vertex straight above another in depth (a face parallel to the view
    /// axis, zero slope); the same nudged off vertical (tiny slopes); a
    /// sliver whose determinant sits near the 1e-12 cutoff; or a face that
    /// grazes a pixel column at the inside test's threshold.
    fn random_tet(rng: &mut Rng, side: f32, z0: f32, depth: f32) -> [Vec3; 4] {
        let point = |rng: &mut Rng| {
            Vec3::new(rng.range(-2.0, side + 2.0), rng.range(-2.0, side + 2.0), 0.0)
        };
        let mut v = [Vec3::ZERO; 4];
        for p in &mut v {
            *p = point(rng);
            p.z = z0 + rng.range(0.0, depth);
        }
        match rng.below(6) {
            0 => {}
            1 => {
                for p in &mut v {
                    p.x = (p.x * 2.0).round() / 2.0;
                    p.y = (p.y * 2.0).round() / 2.0;
                    p.z = z0 + ((p.z - z0) / depth * 8.0).round() * depth / 8.0;
                }
            }
            kind @ (2 | 3) => {
                let j = rng.below(4);
                let k = (j + 1 + rng.below(3)) % 4;
                v[j].x = v[k].x;
                v[j].y = v[k].y;
                if kind == 3 {
                    let nudge = 10f32.powf(rng.range(-6.0, -2.0));
                    v[j].x += nudge * rng.range(-1.0, 1.0);
                    v[j].y += nudge * rng.range(-1.0, 1.0);
                }
            }
            5 => {
                // The column of a pixel centre `c` runs just outside one face,
                // where that face's barycentric coordinate is about EPS; the
                // face tilts off vertical by a tiny slope, so f32 rounding
                // decides which of the column's slices pass. In face
                // coordinates (u along the face, z) the face is the triangle
                // (-w, lo), (w, lo), (0, hi), which spans the column.
                let c =
                    [rng.below(side as usize) as f64 + 0.5, rng.below(side as usize) as f64 + 0.5];
                let ang = f64::from(rng.range(0.0, std::f32::consts::TAU));
                let (n, t) = ([ang.cos(), ang.sin()], [-ang.sin(), ang.cos()]);
                let far = f64::from(rng.range(0.5, 4.0));
                let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
                let tilt = sign * 10f64.powf(f64::from(rng.range(-9.0, -3.0)));
                let (lo, hi) = (f64::from(z0), f64::from(z0 + depth));
                let mid = 0.5 * (lo + hi);
                // l = EPS on the column at depth mid + zeta.
                let zeta = f64::from(rng.range(-0.5, 0.5) * depth);
                let off = -f64::from(EPS) * far - tilt * zeta;
                let w = f64::from(rng.range(1.0, 4.0));
                let at = |u: f64, z: f64, lift: f64| {
                    let s = off + tilt * (z - mid) + lift;
                    let x = c[0] + n[0] * s + t[0] * u;
                    let y = c[1] + n[1] * s + t[1] * u;
                    Vec3::new(x as f32, y as f32, z as f32)
                };
                v = [at(0.0, mid, far), at(-w, lo, 0.0), at(w, lo, 0.0), at(0.0, hi, 0.0)];
                v.rotate_left(rng.below(4));
            }
            _ => {
                // Lift the fourth vertex off the plane of the other three by
                // just enough for |det| = 2·area·h to land near 1e-12.
                let n = (v[1] - v[0]).cross(v[2] - v[0]);
                let twice_area = n.length();
                if twice_area > 0.0 {
                    let h = 1e-12 * rng.range(0.25, 8.0) / twice_area;
                    let c = (v[0] + v[1] + v[2]) * (1.0 / 3.0);
                    v[3] = c + n * (h / twice_area);
                }
            }
        }
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        /// The clipped sampler writes exactly the exhaustive scan's slab and
        /// counts the same tet-pixel columns, on random tets including
        /// slivers, view-parallel faces, pass boundaries (1, 3 and 8 passes)
        /// and early-terminated pixels, and on volumes so far from the
        /// camera that slice depths round by more than a slice.
        #[test]
        fn clipped_sampler_matches_exhaustive_scan(seed in any::<u64>()) {
            let mut rng = Rng(seed | 1);
            let side = 6 + rng.below(10) as u32;
            let total = 4 + rng.below(60) as u32;
            let z0 = [0.5, 3.0, 900.0, 2e5][rng.below(4)];
            let depth = [0.05, 1.0, 8.0][rng.below(3)];
            let dz = depth / total as f32;
            let n = 1 + rng.below(12);
            let screen: Vec<Option<ScreenTet>> = (0..n)
                .map(|_| {
                    let sv = random_tet(&mut rng, side as f32, z0, depth);
                    let s = [rng.unit(), rng.unit(), rng.unit(), rng.unit()];
                    ScreenTet::new(sv, s)
                })
                .collect();
            let active: Vec<u32> = (0..n as u32).collect();
            let term = [0.5, 0.98, 1.1][rng.below(3)];
            let opacity: Vec<f32> = (0..side * side)
                .map(|_| if rng.below(4) == 0 { rng.unit() } else { 0.0 })
                .collect();
            for passes in [1u32, 3, 8] {
                let slab = total.div_ceil(passes);
                for pass in 0..passes {
                    let (s_begin, s_end) = (pass * slab, ((pass + 1) * slab).min(total));
                    if s_begin >= s_end {
                        break;
                    }
                    let clipped = sampling_stage(
                        &Device::Serial, &active, &screen, &opacity, term, side, side, z0, dz,
                        slab as usize, s_begin, s_end,
                    );
                    // The oracle: every slice of the tet's range on every column.
                    let oracle = sample_columns(
                        &Device::Serial, &active, &screen, &opacity, term, side, side, z0, dz,
                        slab as usize, s_begin, s_end,
                        |_: &ScreenTet, s_lo, s_hi| move |_, _| Some((s_lo, s_hi)),
                    );
                    prop_assert_eq!(clipped.1, oracle.1, "tested differs, pass {pass}/{passes}");
                    prop_assert!(
                        clipped.0 == oracle.0,
                        "slab differs at {} of {} slots, pass {pass}/{passes}",
                        clipped.0.iter().zip(&oracle.0).filter(|(a, b)| a != b).count(),
                        oracle.0.len()
                    );
                }
            }
        }
    }
}
