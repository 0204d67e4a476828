//! `ensemble_ckpt`: seeded batches of small dense jobs through an
//! `EnsembleRunner` with 2 slots, progress chunks, checkpoint rotation, and
//! one job cancelled then resumed from its newest generation.
//!
//! Batches repeat for `--seconds`; the per-batch figures are medians over
//! batches. Every event is stamped by the benchmark as it arrives.

use std::path::{Path, PathBuf};
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};

use lbm_core::field::StorageMode;
use lbm_core::index::Dim3;
use lbm_core::kernels::OptLevel;
use lbm_core::lattice::LatticeKind;
use lbm_sim::runtime::checkpoint;
use lbm_sim::scenario::ScenarioSpec;
use lbm_sim::{EnsembleRunner, JobEvent, JobOutcome, JobSpec, Simulation};

use crate::host::{median, quantile, secs, Rng};
use crate::probes;
use crate::report::Report;
use crate::trace::{Lane, Tracer};
use crate::Args;

const PROGRESS_EVERY: usize = 8;
/// One checkpoint per 20 progress chunks, so checkpoint-writing chunks stay
/// in the tail beyond `chunk_ms_p90`.
const CHECKPOINT_EVERY: usize = 160;
const JOB_STEPS: usize = 160;
/// The cancelled job and its uninterrupted twin run longer, so the cancel
/// (sent on the victim's first checkpoint) always lands mid-run.
const LONG_STEPS: usize = 480;
const VICTIM: &str = "victim";
const TWIN: &str = "twin";
/// No event for this long means the batch is stuck.
const EVENT_TIMEOUT: Duration = Duration::from_secs(60);

/// The job box for a lattice: about 640 Ki populations each (32 Ki cells
/// of D3Q19, 24 Ki of D3Q27), so every job moves about the same bytes per
/// step and holds a whole slot (above the runner's 16 Ki-cell small-grid
/// threshold).
fn job_box(lattice: LatticeKind) -> Dim3 {
    match lattice {
        LatticeKind::D3Q27 => Dim3::new(32, 32, 24),
        _ => Dim3::new(32, 32, 32),
    }
}

fn job(name: &str, lattice: LatticeKind, storage: StorageMode, u0: f64, steps: usize) -> JobSpec {
    let mut s = JobSpec::new(name, lattice, job_box(lattice), steps);
    s.scenario = Some(ScenarioSpec::TaylorGreen { rho0: 1.0, u0 });
    s.tau = Some(0.6);
    s.level = OptLevel::Simd;
    s.storage = storage;
    s.progress_every = PROGRESS_EVERY;
    s.checkpoint_every = CHECKPOINT_EVERY;
    s.watchdog_secs = 30.0;
    s
}

/// The seeded batch: the victim/twin pair (D3Q19 AA), then two jobs of
/// each lattice × storage pair in seeded order with seeded amplitudes.
/// The composition is fixed so that batches of different seeds cost the
/// same.
fn batch(seed: u64) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed);
    let mut kinds = Vec::new();
    for lattice in [LatticeKind::D3Q19, LatticeKind::D3Q27] {
        for storage in [StorageMode::TwoGrid, StorageMode::InPlaceAa] {
            kinds.push((lattice, storage));
            kinds.push((lattice, storage));
        }
    }
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.below(i + 1));
    }
    let pair_u0 = rng.uniform(0.01, 0.03);
    let mut jobs = vec![
        job(
            VICTIM,
            LatticeKind::D3Q19,
            StorageMode::InPlaceAa,
            pair_u0,
            LONG_STEPS,
        ),
        job(
            TWIN,
            LatticeKind::D3Q19,
            StorageMode::InPlaceAa,
            pair_u0,
            LONG_STEPS,
        ),
    ];
    for (i, &(l, s)) in kinds.iter().enumerate() {
        jobs.push(job(
            &format!("job{i}"),
            l,
            s,
            rng.uniform(0.01, 0.03),
            JOB_STEPS,
        ));
    }
    jobs
}

#[derive(Default, Clone)]
struct Track {
    started: Option<Instant>,
    end: Option<Instant>,
    /// Arrival of each progress event, with the chunk's
    /// `RunReport::wall_secs`.
    progress: Vec<(Instant, f64)>,
    lane: usize,
}

/// One batch's measurements.
#[derive(Default)]
struct Batch {
    setup_s: f64,
    makespan_s: f64,
    updates: u64,
    job_s: Vec<f64>,
    queue_s: Vec<f64>,
    chunk_ms: Vec<f64>,
    /// Per progress chunk: event interval minus `RunReport::wall_secs`.
    overhead_ms: Vec<f64>,
    /// Sums over the progress chunks, in ms: event intervals, and their
    /// `RunReport::wall_secs`.
    progress_ms: f64,
    report_ms: f64,
    busy_s: f64,
    checkpoints: u64,
    retries: u64,
    validate_s: f64,
    resume_s: f64,
    encode_s: f64,
    write_s: f64,
    ckpt_bytes: u64,
    resident: Vec<u64>,
    /// The resumed victim's final checkpoint equals the twin's, byte for
    /// byte.
    resumed_equal: bool,
    resumed_from: u64,
}

fn newest_generation(dir: &Path, name: &str) -> Result<PathBuf, String> {
    checkpoint::list_generations(dir, name)
        .pop()
        .map(|(_, p)| p)
        .ok_or_else(|| format!("no checkpoint generation of {name}"))
}

/// Run one batch in the fresh directory `dir`.
fn run_batch(
    specs: &[JobSpec],
    dir: &Path,
    rep: &mut Report,
    tr: &mut Tracer,
    slots: usize,
) -> Result<Batch, String> {
    let mut b = Batch::default();
    let batch_span = tr.begin("ensemble.batch", "ensemble");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let t0 = Instant::now();
    let mut runner = EnsembleRunner::with_slots(slots).with_checkpoint_dir(dir);
    let events = runner.events();
    let mut ids = Vec::new();
    for s in specs {
        ids.push(runner.submit(s.clone()).map_err(|e| e.to_string())?);
    }
    b.setup_s = secs(t0);

    let mut track = vec![Track::default(); specs.len()];
    let mut free_lanes: Vec<bool> = vec![true; slots.max(1) * 2];
    let victim = ids[0];
    let mut cancelled = false;
    let mut open = specs.len();
    while open > 0 {
        let rec = match events.recv_timeout(EVENT_TIMEOUT) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => return Err("ensemble batch stalled".into()),
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let now = Instant::now();
        let j = rec.event.job() as usize;
        let t = &mut track[j];
        match &rec.event {
            JobEvent::Started { .. } => {
                t.started = Some(now);
                t.lane = free_lanes.iter().position(|f| *f).unwrap_or(0);
                free_lanes[t.lane] = false;
            }
            JobEvent::Progress { report, .. } => t.progress.push((now, report.wall_secs)),
            JobEvent::Checkpointed { .. } => {
                b.checkpoints += 1;
                if tr.enabled() {
                    let parent = tr.current();
                    tr.add(
                        "ckpt.written",
                        "ckpt",
                        Lane::Slot(t.lane),
                        now,
                        now,
                        parent,
                        0.0,
                    );
                }
                if rec.event.job() == victim && !cancelled {
                    runner.cancel(victim);
                    cancelled = true;
                }
            }
            JobEvent::Retried { .. } => b.retries += 1,
            JobEvent::Finished { .. } | JobEvent::Failed { .. } | JobEvent::Cancelled { .. } => {
                t.end = Some(now);
                free_lanes[t.lane] = true;
                open -= 1;
            }
            JobEvent::Stalled { .. } | JobEvent::Degraded { .. } => {}
        }
    }
    let outcomes = runner.join();

    // Resume the cancelled job from its newest generation and finish it.
    let path = newest_generation(dir, VICTIM)?;
    let bytes = tr
        .span("ckpt.read", "ckpt", || std::fs::read(&path))
        .map_err(|e| e.to_string())?;
    let v0 = Instant::now();
    let info = tr
        .span("ckpt.validate", "ckpt", || checkpoint::validate(&bytes))
        .map_err(|e| e.to_string())?;
    b.validate_s = secs(v0);
    let r0 = Instant::now();
    let mut sim = tr
        .span("ckpt.resume", "ckpt", || Simulation::resume_bytes(&bytes))
        .map_err(|e| e.to_string())?;
    b.resume_s = secs(r0);
    let remaining = LONG_STEPS as u64 - info.step_no;
    let mut done = 0;
    while done < remaining {
        let k = (remaining - done).min(PROGRESS_EVERY as u64);
        let c0 = Instant::now();
        let r = tr.span("sim.run", "sim", || sim.run(k as usize));
        b.chunk_ms.push(secs(c0) * 1e3);
        r.map_err(|e| e.to_string())?;
        done += k;
    }
    b.makespan_s = secs(t0);
    tr.end(batch_span);

    // Checks: every other job finished; the victim was cancelled; the
    // resumed victim equals its uninterrupted twin bit for bit.
    for ((_, outcome), spec) in outcomes.iter().zip(specs) {
        let expect_cancel = spec.name == VICTIM;
        let ok = match outcome {
            JobOutcome::Finished(r) => {
                b.resident
                    .push(r.per_rank.iter().map(|p| p.resident_bytes).sum());
                !expect_cancel
            }
            JobOutcome::Cancelled { .. } => expect_cancel,
            JobOutcome::Failed { .. } => false,
        };
        rep.ops(1, u64::from(!ok));
        if !ok {
            rep.notes
                .push(format!("job {} ended as {outcome:?}", spec.name));
        }
    }
    let e0 = Instant::now();
    let resumed = tr
        .span("ckpt.encode", "ckpt", || sim.checkpoint())
        .map_err(|e| e.to_string())?;
    b.encode_s = secs(e0);
    let twin = std::fs::read(newest_generation(dir, TWIN)?).map_err(|e| e.to_string())?;
    b.resumed_equal = resumed == twin;
    b.resumed_from = info.step_no;
    let w = Instant::now();
    tr.span("ckpt.write", "ckpt", || {
        sim.checkpoint_to(dir.join("resumed.ckpt"))
    })
    .map_err(|e| e.to_string())?;
    b.write_s = secs(w);
    b.ckpt_bytes = resumed.len() as u64;

    for (spec, t) in specs.iter().zip(&track) {
        let (Some(s), Some(e)) = (t.started, t.end) else {
            continue;
        };
        b.queue_s.push(s.duration_since(t0).as_secs_f64());
        b.busy_s += e.duration_since(s).as_secs_f64();
        if spec.name != VICTIM {
            b.job_s.push(e.duration_since(t0).as_secs_f64());
        }
        let mut prev = s;
        for &(p, wall) in &t.progress {
            let ms = p.duration_since(prev).as_secs_f64() * 1e3;
            b.chunk_ms.push(ms);
            b.overhead_ms.push(ms - wall * 1e3);
            b.progress_ms += ms;
            b.report_ms += wall * 1e3;
            prev = p;
        }
        b.updates += (spec.steps * spec.cells()) as u64;
        if tr.enabled() {
            let id = tr.add(
                &spec.name,
                "ensemble",
                Lane::Slot(t.lane),
                s,
                e,
                batch_span,
                1.0 / slots as f64,
            );
            let mut prev = s;
            for &(p, _) in &t.progress {
                tr.add(
                    "progress_chunk",
                    "sim",
                    Lane::Slot(t.lane),
                    prev,
                    p,
                    id,
                    1.0,
                );
                prev = p;
            }
        }
    }
    Ok(b)
}

/// Batches for `seconds`; aggregate into `rep`.
fn run_batches(
    specs: &[JobSpec],
    seconds: f64,
    rep: &mut Report,
    tr: &mut Tracer,
    slots: usize,
    tag: &str,
) -> Result<Vec<Batch>, String> {
    let root = PathBuf::from(crate::OUT_DIR).join("tmp");
    let mut out = Vec::new();
    let t0 = Instant::now();
    while secs(t0) < seconds || out.is_empty() {
        let dir = root.join(format!("{}-{tag}-{}", std::process::id(), out.len()));
        let _ = std::fs::remove_dir_all(&dir);
        let r = run_batch(specs, &dir, rep, tr, slots);
        let _ = std::fs::remove_dir_all(&dir);
        out.push(r?);
    }
    let equal = out.iter().filter(|b| b.resumed_equal).count();
    let from: Vec<u64> = out.iter().map(|b| b.resumed_from).collect();
    rep.ops(out.len() as u64, (out.len() - equal) as u64);
    rep.notes.push(format!(
        "check resume_bitwise: {} ({equal} of {} batches: the cancelled job, resumed from step {from:?}, \
         ends byte-equal to its uninterrupted twin)",
        if equal == out.len() { "ok" } else { "FAILED" },
        out.len()
    ));
    let _ = std::fs::remove_dir(&root);
    Ok(out)
}

fn med(batches: &[Batch], f: impl Fn(&Batch) -> f64) -> f64 {
    median(&batches.iter().map(f).collect::<Vec<_>>())
}

/// Population bytes resident at once: the largest jobs, one per slot.
fn resident(b: &Batch, slots: usize) -> u64 {
    let mut res = b.resident.clone();
    res.sort_unstable();
    res.iter().rev().take(slots).sum()
}

/// All jobs' updates over the makespan, median over batches.
fn mflups(batches: &[Batch]) -> f64 {
    med(batches, |b| b.updates as f64 / b.makespan_s / 1e6)
}

pub fn run(args: &Args, rep: &mut Report) -> Result<(), String> {
    let specs = batch(args.seed);
    let slots = args.threads;
    if !args.trace {
        let mut off = Tracer::new(false);
        let bs = run_batches(&specs, args.seconds, rep, &mut off, slots, "e2e")?;
        let chunks: Vec<f64> = bs.iter().flat_map(|b| b.chunk_ms.iter().copied()).collect();
        rep.set("mflups", mflups(&bs));
        rep.set("chunk_ms_p25", quantile(&chunks, 0.25));
        rep.set("setup_s", med(&bs, |b| b.setup_s));
        rep.resident_bytes = resident(&bs[0], slots);
        rep.notes.push(format!(
            "batches: {} of {} jobs, median makespan {:.4} s, {} chunks, chunk p50 {:.3} ms, p90 {:.3} ms",
            bs.len(),
            specs.len(),
            med(&bs, |b| b.makespan_s),
            chunks.len(),
            median(&chunks),
            quantile(&chunks, 0.9)
        ));
        return Ok(());
    }

    // Untraced reference quarters before and after the traced half, so a
    // drift of the host over the run cancels out of `trace.overhead_frac`.
    let half = args.seconds / 2.0;
    let reference = |rep: &mut Report, tag: &str| {
        run_batches(&specs, half / 2.0, rep, &mut Tracer::new(false), slots, tag)
    };
    let mut untraced = reference(rep, "before")?;
    let tr = &mut Tracer::new(true);
    let root = tr.begin("workload", "bench");
    let bs = run_batches(&specs, half, rep, tr, slots, "traced")?;
    probes::machine(rep, tr, slots, args.llc);
    tr.end(root);
    untraced.extend(reference(rep, "after")?);
    rep.resident_bytes = resident(&bs[0], slots);
    rep.set("ckpt.bytes", med(&bs, |b| b.ckpt_bytes as f64));
    rep.set("ckpt.encode_s", med(&bs, |b| b.encode_s));
    rep.set("ckpt.write_s", med(&bs, |b| b.write_s));
    rep.set("ckpt.validate_s", med(&bs, |b| b.validate_s));
    rep.set("ckpt.resume_s", med(&bs, |b| b.resume_s));
    rep.set("ensemble.makespan_s", med(&bs, |b| b.makespan_s));
    let jobs: Vec<f64> = bs.iter().flat_map(|b| b.job_s.iter().copied()).collect();
    let queue: Vec<f64> = bs.iter().flat_map(|b| b.queue_s.iter().copied()).collect();
    rep.set("ensemble.job_s_p50", median(&jobs));
    let chunks: Vec<f64> = bs.iter().flat_map(|b| b.chunk_ms.iter().copied()).collect();
    rep.set("sim.chunk_ms_p90", quantile(&chunks, 0.9));
    let overhead: Vec<f64> = bs
        .iter()
        .flat_map(|b| b.overhead_ms.iter().copied())
        .collect();
    rep.set("sim.run_overhead_ms", median(&overhead));
    rep.set(
        "sim.report_over_wall",
        bs.iter().map(|b| b.progress_ms).sum::<f64>() / bs.iter().map(|b| b.report_ms).sum::<f64>(),
    );
    rep.set("ensemble.queue_wait_s_p50", median(&queue));
    rep.set(
        "ensemble.slot_busy_frac",
        med(&bs, |b| b.busy_s / (slots as f64 * b.makespan_s)),
    );
    rep.set("ensemble.checkpoints", med(&bs, |b| b.checkpoints as f64));
    rep.set(
        "ensemble.retries",
        bs.iter().map(|b| b.retries as f64).sum(),
    );
    rep.set("trace.overhead_frac", 1.0 - mflups(&bs) / mflups(&untraced));
    rep.set(
        "trace.unattributed_frac",
        tr.self_time(root) / tr.duration(root),
    );
    crate::finish_trace(tr, rep, args, root);
    Ok(())
}
