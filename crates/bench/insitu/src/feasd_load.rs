//! `feasd_queries`: a seeded bursty open-loop query stream against an
//! in-process `Feasd`, taking turns with closed-loop segments for
//! throughput.
//!
//! Open loop: each query is submitted at its due time and the service is
//! pumped as queries queue; a query's latency runs from when it was due to
//! when its batch was answered, so a stall also charges the queries queued
//! behind it. The stream mixes priorities and plan asks, and its
//! off-lattice fraction forces table misses and backfill. Closed loop: 64
//! clients, each submitting its next query once the previous is answered.
//! The stream is cut into `SEGMENTS` pieces, and a closed-loop segment
//! follows each piece.

use crate::common::{self, repeat_setup};
use crate::report::{Outcome, Rates};
use crate::stats::{Samples, Windowed};
use crate::trace::Tracer;
use feasd::{
    generate, Answer, ArrivalEvent, Ask, Feasd, FeasdConfig, Lattice, Query, Shed, StatsSnapshot,
    Ticket, TrafficConfig,
};
use perfmodel::batch::FramePrediction;
use perfmodel::feasibility::{ModelSet, MIN_PREDICTED_SECONDS};
use perfmodel::mapping::{MappingConstants, RenderConfig};
use sched::demo::ground_truth;
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Mean offered rate of the open loop; bursts run at five times this.
const OPEN_RATE_QPS: f64 = 5_000.0;
/// Share of `--seconds` spent in the open loop; the rest is closed loop.
const OPEN_SHARE: f64 = 0.6;
/// Closed-loop clients (one batch of the service's default `batch_max`).
const CLIENTS: usize = 64;
/// Times the service is set up per run; `setup_s` is their median. A
/// set-up takes tens of milliseconds, so more of them than for the in situ
/// workloads keep the median from resting on a few page-fault-heavy ones.
const SETUP_REPS: usize = 9;
/// Queries answered during set-up, drawn from a stream of their own: they
/// warm the code and the allocator, and the measured stream's off-lattice
/// asks still miss the table.
const WARMUP_QUERIES: usize = 32_768;
/// Every this many answers, compare with direct model evaluation.
const CHECK_EVERY: usize = 61;
/// Statistics are interquartile means over windows this long (two burst
/// periods of the bursty stream).
const WINDOW_S: f64 = 0.5;
/// Closed-loop throughput is an interquartile mean over windows this long.
const CLOSED_WINDOW_S: f64 = 0.25;
/// Threads driving the service, each submitting and pumping. Two keep both
/// cores of the 2-core reference host busy. There a lone thread's speed
/// swings by up to 2x over seconds with load elsewhere on the host; two
/// drivers cut the run-to-run spread of the median latency from 16-40% to
/// about 10%.
const DRIVERS: usize = 2;
/// The stream runs in this many consecutive segments, each on freshly
/// spawned driver threads, with a closed-loop segment after each.
const SEGMENTS: usize = 4;
/// A submit later than this counts as a late generator.
const LATE: Duration = Duration::from_millis(1);

struct Rig {
    service: Feasd,
    precompute_s: f64,
    /// Table entries the precompute sweep wrote.
    precomputed: usize,
    /// (hits, misses, answered, table entries) after the warm-up pass,
    /// exact for one seed.
    warmup: (u64, u64, u64, usize),
}

fn build_rig(warmup: &[ArrivalEvent]) -> Rig {
    let t0 = Instant::now();
    // The Serial pool: the driver threads already hold both cores of the
    // 2-core reference host, and a miss batch is at most 64 configs.
    let cfg = FeasdConfig { pool: dpp::Device::Serial, ..FeasdConfig::default() };
    let precomputed = cfg.lattice.len();
    let service = Feasd::new(ground_truth(), MappingConstants::default(), cfg);
    let precompute_s = t0.elapsed().as_secs_f64();
    let mut answered = 0u64;
    for chunk in warmup.chunks(CLIENTS) {
        for ev in chunk {
            // A shed query goes unanswered, which the run's check of the
            // warm-up answer count catches.
            let _ = service.submit(ev.query);
        }
        answered += service.pump().len() as u64;
    }
    let s = service.stats();
    Rig {
        precompute_s,
        precomputed,
        warmup: (s.table_hits, s.table_misses, answered, service.table_len()),
        service,
    }
}

/// True when `a` is what direct `ModelSet` evaluation gives for `q`.
fn answer_matches(set: &ModelSet, k: &MappingConstants, q: &Query, a: &Answer) -> bool {
    let same = |x: f64, y: f64| x.to_bits() == y.to_bits();
    match q.ask {
        Ask::Feasibility { config, budget_s, images } => {
            let pred = FramePrediction {
                per_frame_s: set.predict_frame_seconds(&config, k),
                build_s: set.predict_build_seconds(&config, k),
            };
            same(a.per_frame_s, pred.per_frame_s)
                && same(a.build_s, pred.build_s)
                && a.renderer == config.renderer
                && a.feasible == (pred.images_in_budget(budget_s) >= images)
        }
        Ask::Plan { cells_per_task, tasks, budget_s, images } => {
            let side = a.image_side as usize;
            let config =
                RenderConfig { renderer: a.renderer, cells_per_task, pixels: side * side, tasks };
            let pred = FramePrediction {
                per_frame_s: set.predict_frame_seconds(&config, k),
                build_s: set.predict_build_seconds(&config, k),
            };
            same(a.per_frame_s, pred.per_frame_s.max(MIN_PREDICTED_SECONDS))
                && same(a.build_s, pred.build_s)
                && a.feasible == (pred.images_in_budget(budget_s) >= images)
        }
    }
}

/// What one open-loop phase measured.
#[derive(Default)]
struct OpenLoop {
    latency: Windowed,
    /// Latency of feasibility asks and of plan asks, apart.
    by_ask: [Windowed; 2],
    lateness: Windowed,
    late: u64,
    shed: u64,
    depth_max: usize,
    pumps: u64,
    answers: u64,
    pump_s: f64,
    submit_s: f64,
    hits: u64,
    misses: u64,
}

/// One submission: its result, event index, due time, submit time and
/// submit seconds (0 untraced).
type Submitted = (Result<Ticket, Shed>, usize, Instant, Instant, f64);

/// What one driver thread saw in the open loop.
#[derive(Default)]
struct DriverLog {
    submitted: Vec<Submitted>,
    answers: Vec<(Ticket, Answer, Instant)>,
    /// Start and seconds of each non-empty pump.
    pumps: Vec<(Instant, f64)>,
    depth_max: usize,
}

/// Driver `me` of `DRIVERS`: submit every `DRIVERS`-th event at its due
/// time, pump whatever is queued, and otherwise spin until the next
/// arrival (a sleeping thread can wait a scheduler tick for its core,
/// which would show up as latency). After a stall it pumps between
/// batches of due queries rather than queueing the whole backlog.
fn drive_open(
    service: &Feasd,
    events: &[ArrivalEvent],
    segment: Range<usize>,
    me: usize,
    origin: Instant,
    traced: bool,
) -> DriverLog {
    let t_base = events[segment.start].t_s;
    let mine: Vec<usize> = (segment.start + me..segment.end).step_by(DRIVERS).collect();
    let due = |i: usize| origin + Duration::from_secs_f64(events[i].t_s - t_base);
    let mut log = DriverLog::default();
    let mut next = 0usize;
    loop {
        let now = Instant::now();
        while next < mine.len() && due(mine[next]) <= now && service.depth() < CLIENTS {
            let i = mine[next];
            let t = Instant::now();
            let ticket = service.submit(events[i].query);
            let submit_s = if traced { t.elapsed().as_secs_f64() } else { 0.0 };
            log.submitted.push((ticket, i, due(i), t, submit_s));
            next += 1;
        }
        let depth = service.depth();
        if depth == 0 {
            if next == mine.len() {
                return log;
            }
            while Instant::now() < due(mine[next]) {
                std::hint::spin_loop();
            }
            continue;
        }
        log.depth_max = log.depth_max.max(depth);
        let t = Instant::now();
        let batch = service.pump();
        let answered_at = Instant::now();
        if !batch.is_empty() {
            log.pumps.push((t, (answered_at - t).as_secs_f64()));
        }
        log.answers.extend(batch.into_iter().map(|(ticket, a)| (ticket, a, answered_at)));
    }
}

/// Drive `segment` of `events` open-loop from `DRIVERS` freshly spawned
/// threads sharing the service.
fn drive_segment(
    service: &Feasd,
    events: &[ArrivalEvent],
    segment: Range<usize>,
    traced: bool,
) -> Result<Vec<DriverLog>, String> {
    let origin = Instant::now() + Duration::from_millis(1);
    crossbeam::thread::scope(|s| {
        let drivers: Vec<_> = (0..DRIVERS)
            .map(|me| {
                let segment = segment.clone();
                s.spawn(move |_| drive_open(service, events, segment, me, origin, traced))
            })
            .collect();
        drivers.into_iter().map(|d| d.join()).collect::<Result<Vec<_>, _>>()
    })
    .map_err(|_| "open-loop scope panicked".to_string())?
    .map_err(|_| "open-loop driver panicked".to_string())
}

/// Tally an open loop's driver logs. A query's latency runs from its due
/// time to the end of the pump that answered it, on whichever thread;
/// every `CHECK_EVERY`-th answer is checked. `before` is the service's
/// counters when the loop began.
fn tally_open(
    service: &Feasd,
    before: &StatsSnapshot,
    events: &[ArrivalEvent],
    logs: &[DriverLog],
    mut tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> OpenLoop {
    let mut r = OpenLoop::default();
    let mut admitted: BTreeMap<Ticket, (usize, Instant)> = BTreeMap::new();
    for log in logs {
        r.depth_max = r.depth_max.max(log.depth_max);
        for (ticket, i, due, at, submit_s) in &log.submitted {
            out.attempted += 1;
            let late = at.saturating_duration_since(*due);
            r.lateness.push(window(&events[*i]), late.as_secs_f64());
            r.late += u64::from(late > LATE);
            r.submit_s += submit_s;
            if let Some(t) = tracer.as_deref_mut() {
                t.record("feasd.submit", "query", *i as u64, *at, *submit_s);
            }
            match ticket {
                Ok(ticket) => {
                    admitted.insert(*ticket, (*i, *due));
                }
                Err(shed) => {
                    r.shed += 1;
                    out.fail(format!("query {i} shed at pressure level {}", shed.level));
                }
            }
        }
        for (b, (start, secs)) in log.pumps.iter().enumerate() {
            r.pumps += 1;
            r.pump_s += secs;
            if let Some(t) = tracer.as_deref_mut() {
                t.record("feasd.pump", "batch", b as u64, *start, *secs);
            }
        }
    }
    let set = ground_truth();
    let k = MappingConstants::default();
    for (ticket, a, at) in logs.iter().flat_map(|l| l.answers.iter()) {
        r.answers += 1;
        let Some(&(i, due)) = admitted.get(ticket) else {
            out.fail(format!("answer for unknown ticket {ticket}"));
            continue;
        };
        let (w, secs) = (window(&events[i]), (*at - due).as_secs_f64());
        r.latency.push(w, secs);
        r.by_ask[ask_kind(&events[i].query)].push(w, secs);
        if i % CHECK_EVERY == 0 {
            out.attempted += 1;
            out.check(answer_matches(&set, &k, &events[i].query, a), || {
                format!("query {i}: answer differs from direct model evaluation")
            });
        }
    }
    if r.latency.len() != admitted.len() {
        out.fail(format!("{} admitted queries but {} answers", admitted.len(), r.latency.len()));
    }
    let after = service.stats();
    r.hits = after.table_hits - before.table_hits;
    r.misses = after.table_misses - before.table_misses;
    r
}

/// 0 for a feasibility ask, 1 for a plan ask.
fn ask_kind(q: &Query) -> usize {
    usize::from(matches!(q.ask, Ask::Plan { .. }))
}

/// The open-loop window an arrival falls in.
fn window(ev: &ArrivalEvent) -> usize {
    (ev.t_s / WINDOW_S) as usize
}

/// What one closed-loop driver saw: answers per window and sampled
/// (query, answer) pairs to check.
#[derive(Default)]
struct ClosedLog {
    window_answers: Vec<u64>,
    samples: Vec<(Query, Answer)>,
    submitted: u64,
    shed: u64,
}

/// Driver `me` of `DRIVERS`: its `CLIENTS / DRIVERS` clients each submit a
/// query, then it pumps, until `seconds` after `t0`.
fn drive_closed(
    service: &Feasd,
    events: &[ArrivalEvent],
    me: usize,
    t0: Instant,
    seconds: f64,
) -> ClosedLog {
    let mut log = ClosedLog::default();
    let mut next = me;
    let mut round = 0u64;
    let mut sent: Vec<(Ticket, Query)> = Vec::with_capacity(CLIENTS / DRIVERS);
    loop {
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed >= seconds {
            return log;
        }
        sent.clear();
        for _ in 0..CLIENTS / DRIVERS {
            let q = events[next % events.len()].query;
            next += DRIVERS;
            log.submitted += 1;
            match service.submit(q) {
                Ok(t) => sent.push((t, q)),
                Err(_) => log.shed += 1,
            }
        }
        let batch = service.pump();
        let w = (t0.elapsed().as_secs_f64() / CLOSED_WINDOW_S) as usize;
        if log.window_answers.len() <= w {
            log.window_answers.resize(w + 1, 0);
        }
        log.window_answers[w] += batch.len() as u64;
        round += 1;
        if round.is_multiple_of(16) {
            let own = batch
                .iter()
                .find_map(|(t, a)| sent.iter().find(|(st, _)| st == t).map(|(_, q)| (*q, *a)));
            log.samples.extend(own);
        }
    }
}

/// Closed loop for `seconds` from `DRIVERS` freshly spawned threads. Pushes
/// the answers per second of each complete `CLOSED_WINDOW_S` window to
/// `rates` and returns the total answered.
fn closed_loop(
    service: &Feasd,
    events: &[ArrivalEvent],
    seconds: f64,
    rates: &mut Samples,
    out: &mut Outcome,
) -> Result<u64, String> {
    let t0 = Instant::now();
    let logs = crossbeam::thread::scope(|s| {
        let drivers: Vec<_> = (0..DRIVERS)
            .map(|me| s.spawn(move |_| drive_closed(service, events, me, t0, seconds)))
            .collect();
        drivers.into_iter().map(|d| d.join()).collect::<Result<Vec<_>, _>>()
    })
    .map_err(|_| "closed-loop scope panicked".to_string())?
    .map_err(|_| "closed-loop driver panicked".to_string())?;
    // Drain what the last rounds left queued.
    while !service.pump().is_empty() {}

    let set = ground_truth();
    let k = MappingConstants::default();
    let full_windows = (seconds / CLOSED_WINDOW_S) as usize;
    let mut per_window = vec![0u64; full_windows];
    let mut answered = 0;
    for log in &logs {
        out.attempted += log.submitted;
        for _ in 0..log.shed {
            out.fail("closed-loop query shed");
        }
        for (w, n) in log.window_answers.iter().enumerate() {
            answered += n;
            if let Some(slot) = per_window.get_mut(w) {
                *slot += n;
            }
        }
        for (q, a) in &log.samples {
            out.attempted += 1;
            out.check(answer_matches(&set, &k, q, a), || {
                "closed-loop answer differs from direct model evaluation".to_string()
            });
        }
    }
    for n in per_window {
        rates.push(n as f64 / CLOSED_WINDOW_S);
    }
    Ok(answered)
}

pub fn run(seed: u64, seconds: f64, trace: bool, out: &mut Outcome) -> Result<(), String> {
    let lattice = Lattice::service_default();
    let open_s = seconds * OPEN_SHARE * if trace { 0.5 } else { 1.0 };
    let n = (OPEN_RATE_QPS * open_s).ceil().max(CLIENTS as f64) as usize;
    let traffic = TrafficConfig::bursty(n, seed, OPEN_RATE_QPS);
    let stream = generate(&traffic, &lattice);
    let warmup_traffic = TrafficConfig::bursty(WARMUP_QUERIES, common::mix(seed, 4), OPEN_RATE_QPS);
    let warmup = generate(&warmup_traffic, &lattice);
    let (mut rigs, setup) = repeat_setup(SETUP_REPS, || Ok(build_rig(&warmup)))?;
    for (i, rig) in rigs.iter().enumerate() {
        out.attempted += 1;
        out.check(rig.warmup == rigs[0].warmup && rig.warmup.2 == WARMUP_QUERIES as u64, || {
            format!("set-up {i} answered other work than set-up 0, or shed warm-up queries")
        });
    }
    let precompute_s = rigs.iter().map(|r| r.precompute_s).sum::<f64>() / rigs.len() as f64;
    let precomputed = rigs[0].precomputed;
    // Each phase gets its own set-up service, so each starts from the same
    // warmed table.
    let closed = rigs.pop().ok_or("no set-up")?;
    let traced_rig = rigs.pop().ok_or("no set-up")?;
    let open = rigs.pop().ok_or("no set-up")?;
    drop(rigs);

    // The open and closed loops take turns, a segment each, so both span the
    // whole run and see the same spells of host load.
    let closed_s = seconds * (1.0 - OPEN_SHARE) / SEGMENTS as f64;
    let before = (open.service.stats(), traced_rig.service.stats());
    let (mut open_logs, mut traced_logs) = (Vec::new(), Vec::new());
    let (mut qps, mut answered) = (Samples::default(), 0);
    for k in 0..SEGMENTS {
        let segment = k * stream.len() / SEGMENTS..(k + 1) * stream.len() / SEGMENTS;
        open_logs.extend(drive_segment(&open.service, &stream, segment.clone(), false)?);
        if trace {
            traced_logs.extend(drive_segment(&traced_rig.service, &stream, segment, true)?);
        }
        answered += closed_loop(&closed.service, &stream, closed_s, &mut qps, out)?;
    }
    let untraced = tally_open(&open.service, &before.0, &stream, &open_logs, None, out);
    let mut tracer = Tracer::new();
    let traced = trace.then(|| {
        tally_open(&traced_rig.service, &before.1, &stream, &traced_logs, Some(&mut tracer), out)
    });

    out.note(format!(
        "open loop: {} queries, bursty at mean {OPEN_RATE_QPS} q/s (peak 5x); closed loop: {CLIENTS} clients, {answered} answers; {DRIVERS} driver threads; statistics are interquartile means over {WINDOW_S} s windows of the open loop and {} s windows of the closed loop; set-up warm-up {WARMUP_QUERIES} queries excluded",
        stream.len(),
        CLOSED_WINDOW_S
    ));
    let latency = &untraced.latency;
    out.end_to_end("latency_s.p50", latency.p50(), latency.len());
    // Each ask kind's tail, combined as a geometric mean. Plan asks need 24
    // lattice points and are a tenth of the stream, so one percentile over
    // the mix lands on the boundary between the two kinds and moves with
    // each window's share of plan asks. The geometric mean weighs a relative
    // change in either kind's tail equally, whatever the mix.
    let [(pf, feas_tail), (pp, plan_tail)] = untraced.by_ask.each_ref().map(Windowed::tail);
    let tail = (feas_tail * plan_tail).sqrt();
    out.end_to_end("latency_s.tail", tail, latency.len());
    out.note(format!(
        "latency_s.tail is the geometric mean of feasibility asks' p{pf} and plan asks' p{pp}"
    ));
    out.end_to_end("throughput_per_s", qps.interquartile_mean(), qps.len());
    out.end_to_end("setup_s", setup.p50(), setup.len());
    out.end_to_end("peak_rss_mb", common::peak_rss_mb()?, 1);
    out.line("query_s.p50", latency.p50(), "s", latency.len());
    out.line("query_s.tail", tail, "s", latency.len());
    out.line("query_s.p99", latency.across_percentile(99.0), "s", latency.len());
    for (kind, lat) in ["feasibility", "plan"].iter().zip(&untraced.by_ask) {
        out.line(&format!("query_s.{kind}.p50"), lat.p50(), "s", lat.len());
        let (p, t) = lat.tail();
        out.line(&format!("query_s.{kind}.p{p}"), t, "s", lat.len());
    }
    out.line("queries_per_s", qps.interquartile_mean(), "1/s", qps.len());
    out.line("gen_lateness_s.p50", untraced.lateness.p50(), "s", untraced.lateness.len());
    let (p, late_tail) = untraced.lateness.tail();
    out.line(&format!("gen_lateness_s.p{p}"), late_tail, "s", untraced.lateness.len());
    out.line("feasd.precompute_s", precompute_s, "s", SETUP_REPS);

    if let Some(t) = traced {
        let mut rates = Rates::default();
        rates.add("feasd.submit.queries_per_s", t.lateness.len() as f64, t.submit_s);
        rates.add("feasd.pump.queries_per_s", t.answers as f64, t.pump_s);
        rates.add("feasd.precompute.entries_per_s", precomputed as f64, precompute_s);
        rates.emit(out);
        let pumps = t.pumps as usize;
        out.layer("feasd.batch_size", t.answers as f64 / t.pumps.max(1) as f64, pumps);
        out.layer("feasd.table_hits", untraced.hits as f64, 1);
        out.layer("feasd.table_misses", untraced.misses as f64, 1);
        out.layer(
            "feasd.hit_rate",
            untraced.hits as f64 / (untraced.hits + untraced.misses).max(1) as f64,
            1,
        );
        out.layer("feasd.shed", (untraced.shed + t.shed) as f64, 2);
        out.layer("feasd.queue_depth.max", untraced.depth_max.max(t.depth_max) as f64, pumps);
        out.layer("feasd.late_submits", (untraced.late + t.late) as f64, 2);
        out.layer(
            "trace.overhead_frac",
            t.latency.p50() / untraced.latency.p50() - 1.0,
            t.latency.len(),
        );
        out.line(
            "feasd.submit_s",
            t.submit_s / t.lateness.len().max(1) as f64,
            "s/query",
            t.lateness.len(),
        );
        out.line("feasd.pump_s", t.pump_s / t.pumps.max(1) as f64, "s/batch", pumps);
        let dir = common::out_dir("feasd_queries")?;
        crate::trace::write_trace(&dir, &tracer, true)?;
    }
    Ok(())
}
