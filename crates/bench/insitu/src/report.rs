//! The metric catalog and the result a run prints.
//!
//! Every workload reports every end-to-end metric on an untraced run and
//! every per-layer metric on a traced run, so the catalogs below are the
//! single list `BENCHMARK.json` mirrors. A layer that does no work on a
//! workload reads 0 there; that is why per-layer timings are reported as
//! work rates (work units per busy second, the renderers' own IPC proxy) and
//! shares rather than seconds. Absolute span seconds are printed in the
//! human-readable lines and written to the trace file.

use crate::stats::Samples;
use crate::trace::Tracer;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("latency_s.p50", "s"),
    ("latency_s.tail", "s"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("sims.cells_per_s", "1/s"),
    ("strawman.publish.cells_per_s", "1/s"),
    ("strawman.execute.self_frac", "frac"),
    ("strawman.encode.bytes_per_s", "B/s"),
    ("strawman.png_bytes", "bytes"),
    ("mesh.external_faces.cells_per_s", "1/s"),
    ("mesh.external_faces.tris", "count"),
    ("mesh.to_tets.tets_per_s", "1/s"),
    ("mesh.partition.tris_per_s", "1/s"),
    ("mesh.partition.imbalance", "ratio"),
    ("render.raytrace.bvh_build.tris_per_s", "1/s"),
    ("render.raytrace.rays_per_s", "1/s"),
    ("render.raytrace.rays", "count"),
    ("render.raytrace.active_pixels", "count"),
    ("render.raytrace.objects", "count"),
    ("render.raytrace.max_rank_ratio", "ratio"),
    ("render.raytrace.phase.ray_gen.units_per_s", "1/s"),
    ("render.raytrace.phase.intersect.units_per_s", "1/s"),
    ("render.raytrace.phase.shade.units_per_s", "1/s"),
    ("render.raster.pixels_per_s", "1/s"),
    ("render.raster.pixels_considered", "count"),
    ("render.raster.visible_objects", "count"),
    ("render.raster.active_pixels", "count"),
    ("render.raster.phase.transform_cull.units_per_s", "1/s"),
    ("render.raster.phase.bin_count.units_per_s", "1/s"),
    ("render.raster.phase.bin_fill.units_per_s", "1/s"),
    ("render.raster.phase.sample_fill.units_per_s", "1/s"),
    ("render.uvr.samples_per_s", "1/s"),
    ("render.uvr.samples_per_ray", "count"),
    ("render.uvr.cells_per_pixel", "count"),
    ("render.uvr.buffer_bytes", "bytes"),
    ("render.uvr.active_pixels", "count"),
    ("render.uvr.phase.initialization.units_per_s", "1/s"),
    ("render.uvr.phase.pass_selection.units_per_s", "1/s"),
    ("render.uvr.phase.screen_space.units_per_s", "1/s"),
    ("render.uvr.phase.sampling.units_per_s", "1/s"),
    ("render.uvr.phase.compositing.units_per_s", "1/s"),
    ("dpp.speedup.raytrace", "ratio"),
    ("dpp.speedup.raster", "ratio"),
    ("dpp.speedup.uvr", "ratio"),
    ("compositing.radix_k.pixels_per_s", "1/s"),
    ("compositing.radix_k.wire_bytes", "bytes"),
    ("compositing.radix_k.dense_bytes", "bytes"),
    ("compositing.radix_k.rounds", "count"),
    ("compositing.radix_k.sim_frac", "frac"),
    ("compositing.dfb.pixels_per_s", "1/s"),
    ("compositing.dfb.wire_bytes", "bytes"),
    ("compositing.dfb.dense_bytes", "bytes"),
    ("compositing.dfb.rounds", "count"),
    ("compositing.dfb.sim_frac", "frac"),
    ("feasd.submit.queries_per_s", "1/s"),
    ("feasd.pump.queries_per_s", "1/s"),
    ("feasd.batch_size", "count"),
    ("feasd.table_hits", "count"),
    ("feasd.table_misses", "count"),
    ("feasd.hit_rate", "frac"),
    ("feasd.shed", "count"),
    ("feasd.queue_depth.max", "count"),
    ("feasd.late_submits", "count"),
    ("feasd.precompute.entries_per_s", "1/s"),
    ("trace.overhead_frac", "frac"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    end_to_end: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines: every named metric with unit and sample count.
    lines: Vec<String>,
}

impl Outcome {
    /// Count one attempted operation that failed, keeping the first few
    /// reasons for the report.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why.into());
        }
    }

    /// Check `ok`; a false check is one failed operation.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    /// Print a named measurement with its unit and sample count.
    pub fn line(&mut self, name: &str, value: f64, unit: &str, n: usize) {
        self.lines.push(format!("metric {name} = {value} {unit} (n={n})"));
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Set an end-to-end metric and print it.
    pub fn end_to_end(&mut self, name: &'static str, value: f64, n: usize) {
        let unit = unit_of(&END_TO_END, name);
        self.line(name, value, unit, n);
        self.end_to_end.insert(name, value);
    }

    /// Set a per-layer metric and print it.
    pub fn layer(&mut self, name: &'static str, value: f64, n: usize) {
        let unit = unit_of(&PER_LAYER, name);
        self.line(name, value, unit, n);
        self.layers.insert(name, value);
    }

    /// The human-readable report followed by the one-line JSON result.
    /// End-to-end metrics must all be present; a layer that did no work on
    /// this workload reads 0.
    pub fn render(&self, trace: bool) -> Result<String, String> {
        let mut out = String::new();
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        for f in &self.failures {
            out.push_str(&format!("failure: {f}\n"));
        }
        let mut metrics = Vec::new();
        if trace {
            for (name, unit) in PER_LAYER {
                let v = self.layers.get(name).copied().unwrap_or(0.0);
                metrics.push(metric_json(name, v, unit)?);
            }
        } else {
            for (name, unit) in END_TO_END {
                let v = *self
                    .end_to_end
                    .get(name)
                    .ok_or_else(|| format!("end-to-end metric {name} was not measured"))?;
                metrics.push(metric_json(name, v, unit)?);
            }
        }
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ));
        Ok(out)
    }
}

fn unit_of(catalog: &[(&'static str, &'static str)], name: &str) -> &'static str {
    catalog.iter().find(|(n, _)| *n == name).map(|(_, u)| *u).unwrap_or("?")
}

fn metric_json(name: &str, value: f64, unit: &str) -> Result<String, String> {
    if !value.is_finite() {
        return Err(format!("metric {name} is not finite ({value})"));
    }
    Ok(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"))
}

/// Work and busy seconds accumulated per rate metric; the metric is their
/// ratio, so rare long spans weigh by their length.
#[derive(Debug, Default)]
pub struct Rates {
    totals: BTreeMap<&'static str, (f64, f64, usize)>,
}

impl Rates {
    pub fn add(&mut self, name: &'static str, work: f64, seconds: f64) {
        let e = self.totals.entry(name).or_insert((0.0, 0.0, 0));
        e.0 += work;
        e.1 += seconds;
        e.2 += 1;
    }

    pub fn emit(&self, out: &mut Outcome) {
        for (&name, &(work, secs, n)) in &self.totals {
            out.layer(name, if secs > 0.0 { work / secs } else { 0.0 }, n);
        }
    }
}

/// Work counts of one operation, keyed by metric. Two runs with the same
/// seed must produce identical counts.
pub type Counts = BTreeMap<&'static str, f64>;

/// Counts gathered over a run; each metric reports its mean.
#[derive(Debug, Default)]
pub struct CountSeries {
    series: BTreeMap<&'static str, Samples>,
}

impl CountSeries {
    pub fn add(&mut self, counts: &Counts) {
        for (&name, &v) in counts {
            self.series.entry(name).or_default().push(v);
        }
    }

    pub fn emit(&self, out: &mut Outcome) {
        for (&name, s) in &self.series {
            out.layer(name, s.mean(), s.len());
        }
    }
}

/// End-to-end metrics shared by the in situ workloads.
pub fn report_end_to_end(
    out: &mut Outcome,
    vis: &Samples,
    setup: &Samples,
    throughput: f64,
) -> Result<(), String> {
    out.end_to_end("latency_s.p50", vis.p50(), vis.len());
    let (p, tail) = vis.tail();
    out.end_to_end("latency_s.tail", tail, vis.len());
    out.note(format!("latency_s.tail is p{p}"));
    out.end_to_end("throughput_per_s", throughput, vis.len());
    out.end_to_end("setup_s", setup.p50(), setup.len());
    out.end_to_end("peak_rss_mb", crate::common::peak_rss_mb()?, 1);
    Ok(())
}

/// Print each span's mean seconds per traced cycle and check that the
/// spans account for the traced cycle.
pub fn account(
    out: &mut Outcome,
    tracer: &Tracer,
    cycles: u64,
    cycle_spans_s: f64,
    vis_traced: &Samples,
) {
    let mut per_name: std::collections::BTreeMap<&str, (f64, usize)> = Default::default();
    for s in &tracer.spans {
        let e = per_name.entry(s.name).or_default();
        e.0 += s.seconds;
        e.1 += 1;
    }
    for (name, (secs, n)) in per_name {
        out.line(&format!("span.{name}_s"), secs / cycles as f64, "s/cycle", n);
    }
    out.note(format!(
        "accounting: top-level spans {:.6} s/cycle vs traced vis_s mean {:.6} s, p50 {:.6} s",
        cycle_spans_s / cycles as f64,
        vis_traced.mean(),
        vis_traced.p50()
    ));
}
