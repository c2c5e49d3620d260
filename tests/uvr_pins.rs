//! Pinned unstructured-volume-renderer output across commits.
//!
//! `parallel_exactness` proves that every device draws the same frame as
//! `Device::Serial`; it cannot notice a change that moves Serial too. These
//! pins record, for three fixed scenes, a hash of the frame's exact bits and
//! the model inputs the renderer measures (`samples_per_ray`,
//! `cells_per_pixel`, `active_pixels`, `buffer_bytes`). An optimisation of
//! the sampler or the compositor must leave every value as it is; a change
//! that means to move them must re-record them and say why.

use dpp::Device;
use mesh::datasets::{field_grid, FieldKind};
use render::graph::render_unstructured_graph;
use render::volume_unstructured::{render_unstructured, UvrConfig, UvrOutput};
use vecmath::{Camera, TransferFunction};

/// FNV-1a over the frame's color channels and depth, as little-endian bits.
fn frame_hash(out: &UvrOutput) -> u64 {
    let f = &out.frame;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let colors = f.color.iter().flat_map(|c| [c.r, c.g, c.b, c.a]);
    for v in colors.chain(f.depth.iter().copied()) {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// `(frame hash, samples_per_ray bits, cells_per_pixel bits, active_pixels,
/// buffer_bytes)` of one render.
type Pin = (u64, u64, u64, usize, usize);

fn pin(out: &UvrOutput) -> Pin {
    let s = &out.stats;
    (
        frame_hash(out),
        s.samples_per_ray.to_bits(),
        s.cells_per_pixel.to_bits(),
        s.active_pixels,
        s.buffer_bytes,
    )
}

fn check(name: &str, cfg: UvrConfig, expected: Pin) {
    let grid = field_grid(FieldKind::ShockShell, [12, 12, 12]);
    let tets = mesh::HexMesh::from_uniform_grid(&grid).to_tets();
    let range = tets.field("scalar").unwrap().range().unwrap();
    let tf = TransferFunction::sparse_features(range);
    let cam = Camera::close_view(&tets.bounds());
    let legacy =
        render_unstructured(&Device::Serial, &tets, "scalar", &cam, 64, 64, &tf, &cfg).unwrap();
    assert_eq!(pin(&legacy), expected, "{name}: render_unstructured moved");
    let (graph, _) = render_unstructured_graph(
        &Device::Serial,
        &tets,
        "scalar",
        &cam,
        64,
        64,
        &tf,
        &cfg,
        &[],
        None,
    )
    .unwrap();
    assert_eq!(pin(&graph), expected, "{name}: render_unstructured_graph moved");
}

/// Optimised builds fold `Camera::close_view`'s `tan` of a constant at
/// compile time, which rounds differently from the runtime call and moves a
/// few frame bits, so each build profile has its own pins.
fn profile_pin(debug: Pin, release: Pin) -> Pin {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

#[test]
fn one_pass_frame_and_counts_are_pinned() {
    check(
        "one pass",
        UvrConfig { depth_samples: 96, ..Default::default() },
        profile_pin(PIN_ONE_PASS.0, PIN_ONE_PASS.1),
    );
}

#[test]
fn four_pass_frame_and_counts_are_pinned() {
    check(
        "four passes",
        UvrConfig { depth_samples: 96, num_passes: 4, ..Default::default() },
        profile_pin(PIN_FOUR_PASSES.0, PIN_FOUR_PASSES.1),
    );
}

#[test]
fn unterminated_frame_and_counts_are_pinned() {
    check(
        "no early termination",
        UvrConfig { depth_samples: 96, early_termination: 1.1, ..Default::default() },
        profile_pin(PIN_NO_TERMINATION.0, PIN_NO_TERMINATION.1),
    );
}

// (debug, release) pins, recorded on the commit before the clipped sampler.
const PIN_ONE_PASS: (Pin, Pin) = (
    (0x39c5_2a37_40da_394d, 0x403f_d2dd_cfa2_9b1a, 0x405b_9ac3_2085_6b92, 2456, 1572864),
    (0x8eae_09e1_8a35_2e34, 0x403f_d2dd_cfa2_9b1a, 0x405b_9a08_56b9_1eda, 2456, 1572864),
);
const PIN_FOUR_PASSES: (Pin, Pin) = (
    (0x39c5_2a37_40da_394d, 0x403f_d2dd_cfa2_9b1a, 0x4062_7471_683c_0a02, 2456, 393216),
    (0x8eae_09e1_8a35_2e34, 0x403f_d2dd_cfa2_9b1a, 0x4062_75d9_a446_0bad, 2456, 393216),
);
const PIN_NO_TERMINATION: (Pin, Pin) = (
    (0x4e74_4c60_3dd0_2f5a, 0x4043_d42b_5c8f_6d3d, 0x405b_9ac3_2085_6b92, 2456, 1572864),
    (0xfc1c_4ccd_fdf5_fe24, 0x4043_d42b_5c8f_6d3d, 0x405b_9a08_56b9_1eda, 2456, 1572864),
);
