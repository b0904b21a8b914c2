//! Algorithm 3 — *ParCompoundSuperstep*: simulating a `v`-processor CGM
//! on a `p`-processor EM-CGM.
//!
//! Each real processor (an OS thread here) owns its own `D`-disk array
//! and simulates a contiguous block of `v/p` virtual processors. Per
//! compound superstep it:
//!
//! * **(a)/(b)** reads each local virtual processor's context and inbox
//!   from its *local* disks,
//! * **(c)** simulates the computation,
//! * **(d)** ships the generated messages over the real interconnect to
//!   the destination's owner, which arranges them in memory and writes
//!   them to *its* disks in the staggered format (exactly the paper's
//!   step (d)).
//!
//! Arrivals are written in sorted `(src, dst)` order, making both the
//! final states and the I/O operation counts fully deterministic
//! regardless of thread scheduling.

use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, Sender};

use cgmio_io::{TraceEvent, TraceHandle};
use cgmio_model::cost::{CommCosts, RoundCost};
use cgmio_model::threaded::{block_range, owner_of};
use cgmio_model::{CgmProgram, Incoming, ModelError, Outbox, ProcState, RoundCtx, Status};
use cgmio_obs::{Counter, Phase, COORD_PROC};
use cgmio_pdm::{DiskArray, FaultCounts, FaultStats, IoError, IoStats, Item};

use crate::checkpoint::{Checkpoint, CheckpointManifest, RunOutcome, WorkerCheckpoint};
use crate::config::EmConfig;
use crate::context::ContextStore;
use crate::msgmatrix::MessageMatrix;
use crate::pipeline;
use crate::report::{EmRunReport, IoBreakdown};
use crate::EmError;

/// Multi-processor external-memory runner (Algorithm 3).
#[derive(Debug, Clone)]
pub struct ParEmRunner {
    /// Machine configuration (`p` real processors, each with its own
    /// disk array).
    pub config: EmConfig,
}

type Packet<M> = Vec<(usize, usize, Vec<M>)>;

struct RoundCtl {
    n_done: usize,
    sent_total: usize,
    max_sent: usize,
    max_received: usize,
    max_message: usize,
    min_message: usize,
    cross_items: u64,
    max_ctx: usize,
    /// Barrier snapshot, attached when a checkpoint (or halt) is due
    /// this round.
    ckpt: Option<WorkerCheckpoint>,
}

enum Decision {
    Continue,
    Stop,
    /// Stop at this barrier and hand the live disks back through
    /// `WorkerOut::handoff` (the coordinator has the manifest).
    Halt,
    Fail(EmError),
}

impl Decision {
    fn dup(&self) -> Decision {
        match self {
            Decision::Continue => Decision::Continue,
            Decision::Stop => Decision::Stop,
            Decision::Halt => Decision::Halt,
            Decision::Fail(e) => Decision::Fail(e.clone()),
        }
    }
}

struct WorkerOut<S> {
    finals: Vec<S>,
    io: IoStats,
    breakdown: IoBreakdown,
    peak_mem: usize,
    trace: Vec<TraceEvent>,
    /// Retries this worker's storage stack performed.
    retries: u64,
    /// Deferred write errors this worker's engine discarded on a full
    /// retained-error list.
    deferred_drops: u64,
    /// This worker's injected-fault counters. Workers may share one
    /// `FaultStats` (a user-supplied observer); the coordinator dedups
    /// by pointer before summing.
    faults: Option<Arc<FaultStats>>,
    /// Live disks handed back on `Decision::Halt` (trace events not yet
    /// drained — the handle travels with the disks so an in-process
    /// resume keeps one continuous trace).
    handoff: Option<(DiskArray, Option<TraceHandle>)>,
}

/// Per-worker start mode (mirrors the sequential runner's `Start`).
struct WorkerInit<S> {
    /// Initial states of the local virtual processors (empty on resume).
    states: Vec<S>,
    /// Barrier snapshot to restore, if resuming.
    restore: Option<WorkerCheckpoint>,
    /// Live disks from an in-process checkpoint (`None`: build from
    /// config).
    disks: Option<(DiskArray, Option<TraceHandle>)>,
    /// First round to execute (`superstep + 1` on resume).
    start_round: usize,
}

impl ParEmRunner {
    /// Create a runner for the given configuration.
    pub fn new(config: EmConfig) -> Self {
        Self { config }
    }

    /// Run `prog` from the given initial states across `p` real
    /// processors. Semantics and final states are identical to
    /// [`crate::SeqEmRunner`] and the in-memory runners.
    ///
    /// If [`EmConfig::halt_after_superstep`] is set this returns
    /// [`EmError::Interrupted`]; use [`Self::run_until`] to receive the
    /// checkpoint instead.
    pub fn run<P: CgmProgram>(
        &self,
        prog: &P,
        states: Vec<P::State>,
    ) -> Result<(Vec<P::State>, EmRunReport), EmError> {
        match self.run_until(prog, states)? {
            RunOutcome::Complete { finals, report } => Ok((finals, report)),
            RunOutcome::Interrupted(c) => {
                Err(EmError::Interrupted { superstep: c.manifest.superstep })
            }
        }
    }

    /// Like [`Self::run`], but an [`EmConfig::halt_after_superstep`]
    /// interruption is a normal outcome carrying the checkpoint (with
    /// all `p` live disk arrays).
    pub fn run_until<P: CgmProgram>(
        &self,
        prog: &P,
        states: Vec<P::State>,
    ) -> Result<RunOutcome<P::State>, EmError> {
        let cfg = &self.config;
        cfg.validate()?;
        let v = cfg.v;
        if states.len() != v {
            return Err(EmError::BadConfig(format!(
                "config.v = {v} but {} initial states were given",
                states.len()
            )));
        }
        let p = cfg.p.min(v);
        let mut inits = Vec::with_capacity(p);
        let mut it = states.into_iter();
        for t in 0..p {
            let r = block_range(v, p, t);
            inits.push(WorkerInit {
                states: it.by_ref().take(r.len()).collect(),
                restore: None,
                disks: None,
                start_round: 0,
            });
        }
        self.drive(prog, inits, None)
    }

    /// Resume an interrupted run in-process: each worker continues on
    /// the live disk array the checkpoint carries. Works with every
    /// backend, including the non-persistent `Mem` one.
    pub fn resume<P: CgmProgram>(
        &self,
        prog: &P,
        ckpt: Checkpoint,
    ) -> Result<RunOutcome<P::State>, EmError> {
        self.check_manifest(&ckpt.manifest)?;
        if ckpt.disks.len() != ckpt.manifest.workers.len() {
            return Err(EmError::BadConfig(format!(
                "checkpoint carries {} disk arrays for {} workers",
                ckpt.disks.len(),
                ckpt.manifest.workers.len()
            )));
        }
        let manifest = ckpt.manifest;
        let start_round = manifest.superstep + 1;
        let inits = manifest
            .workers
            .iter()
            .cloned()
            .zip(ckpt.disks)
            .map(|(wc, disks)| WorkerInit {
                states: Vec::new(),
                restore: Some(wc),
                disks: Some(disks),
                start_round,
            })
            .collect();
        self.drive(prog, inits, Some(&manifest))
    }

    /// Resume from a saved manifest, rebuilding each worker's disk array
    /// from [`Self::config`] — the crash-recovery path. The config must
    /// address the same persistent backend directories the interrupted
    /// run used; final states and aggregate I/O counts are identical to
    /// an uninterrupted run.
    pub fn resume_from<P: CgmProgram>(
        &self,
        prog: &P,
        manifest: &CheckpointManifest,
    ) -> Result<RunOutcome<P::State>, EmError> {
        self.check_manifest(manifest)?;
        let start_round = manifest.superstep + 1;
        let inits = manifest
            .workers
            .iter()
            .cloned()
            .map(|wc| WorkerInit {
                states: Vec::new(),
                restore: Some(wc),
                disks: None,
                start_round,
            })
            .collect();
        self.drive(prog, inits, Some(manifest))
    }

    /// Resume requires the manifest to describe this exact machine.
    fn check_manifest(&self, m: &CheckpointManifest) -> Result<(), EmError> {
        let cfg = &self.config;
        let p = cfg.p.min(cfg.v);
        if m.config_hash != cfg.config_hash() {
            return Err(EmError::BadConfig(format!(
                "checkpoint config hash {:#x} does not match this config ({:#x})",
                m.config_hash,
                cfg.config_hash()
            )));
        }
        if m.v != cfg.v || m.p != p || m.workers.len() != p {
            return Err(EmError::BadConfig(format!(
                "checkpoint shape (v={}, p={}, {} workers) does not fit this config \
                 (v={}, p={p})",
                m.v,
                m.p,
                m.workers.len(),
                cfg.v
            )));
        }
        if m.workers.iter().enumerate().any(|(i, w)| w.worker != i) {
            return Err(EmError::BadConfig("checkpoint workers out of order".into()));
        }
        Ok(())
    }

    fn drive<P: CgmProgram>(
        &self,
        prog: &P,
        inits: Vec<WorkerInit<P::State>>,
        resume: Option<&CheckpointManifest>,
    ) -> Result<RunOutcome<P::State>, EmError> {
        // The feedback tuner reads the stall/queue-wait histograms,
        // which only register when an Obs handle is attached — inject a
        // private one when the caller enabled tuning without
        // observability (accounting-invariant; see SeqEmRunner::drive).
        if self.config.autotune.enabled && self.config.obs.is_none() {
            let mut cfg = self.config.clone();
            cfg.obs = Some(cgmio_obs::Obs::new());
            return ParEmRunner::new(cfg).drive(prog, inits, resume);
        }
        let cfg = &self.config;
        cfg.validate()?;
        let v = cfg.v;
        let p = inits.len();
        let start_round = resume.map(|m| m.superstep + 1).unwrap_or(0);

        // Interconnect plumbing (same topology as the threaded runner).
        let mut data_tx: Vec<Vec<Sender<Packet<P::Msg>>>> = (0..p).map(|_| Vec::new()).collect();
        let mut data_rx: Vec<Receiver<Packet<P::Msg>>> = Vec::with_capacity(p);
        {
            let mut txs_per_dst: Vec<Vec<Sender<Packet<P::Msg>>>> =
                (0..p).map(|_| Vec::new()).collect();
            for txs in txs_per_dst.iter_mut() {
                let (tx, rx) = unbounded();
                data_rx.push(rx);
                for _ in 0..p {
                    txs.push(tx.clone());
                }
            }
            for (i, row) in data_tx.iter_mut().enumerate() {
                for txs in txs_per_dst.iter() {
                    row.push(txs[i].clone());
                }
            }
        }
        let (ctrl_tx, ctrl_rx) = unbounded::<(usize, Result<RoundCtl, EmError>)>();
        let mut dec_tx: Vec<Sender<Decision>> = Vec::with_capacity(p);
        let mut dec_rx: Vec<Receiver<Decision>> = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = unbounded();
            dec_tx.push(tx);
            dec_rx.push(rx);
        }

        // A user-supplied fault observer is shared by every worker (and
        // possibly by earlier runs on the same plan); snapshot it now so
        // the report attributes counts to this run only.
        let user_faults = cfg.fault.as_ref().and_then(|pl| pl.observer.clone());
        let fault_base = user_faults.as_ref().map(|s| s.counts()).unwrap_or_default();

        let start = Instant::now();
        let mut costs = CommCosts::default();
        let mut cross_total = 0u64;
        let mut run_error: Option<EmError> = None;
        let mut max_ctx_seen = 0usize;
        let mut halt_manifest: Option<CheckpointManifest> = None;
        if let Some(m) = resume {
            costs.rounds = m.rounds.clone();
            cross_total = m.cross_items;
            max_ctx_seen = m.max_ctx_bytes_seen;
        }
        let mut outs: Vec<Option<WorkerOut<P::State>>> = (0..p).map(|_| None).collect();

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(p);
            for (t, init) in inits.into_iter().enumerate() {
                let my_tx = std::mem::take(&mut data_tx[t]);
                let my_rx = data_rx[t].clone();
                let my_ctrl = ctrl_tx.clone();
                let my_dec = dec_rx[t].clone();
                let cfg = cfg.clone();
                handles.push(scope.spawn(move || {
                    worker::<P>(prog, &cfg, t, v, p, init, my_tx, my_rx, my_ctrl, my_dec)
                }));
            }
            drop(ctrl_tx);

            for round in start_round..=cfg.round_limit {
                let mut n_done = 0usize;
                let mut rc = RoundCost { min_message: usize::MAX, ..RoundCost::default() };
                let mut cross = 0u64;
                let mut err: Option<EmError> = None;
                let mut ckpts: Vec<Option<WorkerCheckpoint>> = (0..p).map(|_| None).collect();
                for _ in 0..p {
                    match ctrl_rx.recv().expect("worker died") {
                        (t, Ok(c)) => {
                            n_done += c.n_done;
                            rc.total_items += c.sent_total;
                            rc.max_sent = rc.max_sent.max(c.max_sent);
                            rc.max_received = rc.max_received.max(c.max_received);
                            rc.max_message = rc.max_message.max(c.max_message);
                            if c.min_message > 0 {
                                rc.min_message = rc.min_message.min(c.min_message);
                            }
                            cross += c.cross_items;
                            max_ctx_seen = max_ctx_seen.max(c.max_ctx);
                            ckpts[t] = c.ckpt;
                        }
                        (_t, Err(e)) => err = Some(e),
                    }
                }
                if rc.min_message == usize::MAX {
                    rc.min_message = 0;
                }
                cross_total += cross;
                let sent_any = rc.total_items > 0;
                if err.is_none() && (sent_any || n_done < v) {
                    costs.rounds.push(rc);
                }
                let mut decision = if let Some(e) = err {
                    Decision::Fail(e)
                } else if n_done == v {
                    if sent_any {
                        Decision::Fail(ModelError::MessagesAfterDone.into())
                    } else {
                        Decision::Stop
                    }
                } else if n_done != 0 {
                    Decision::Fail(ModelError::StatusDisagreement { round }.into())
                } else if round == cfg.round_limit {
                    Decision::Fail(ModelError::RoundLimit(cfg.round_limit).into())
                } else if cfg.halt_after_superstep == Some(round) {
                    Decision::Halt
                } else {
                    Decision::Continue
                };

                // Aggregate the workers' barrier snapshots into one
                // manifest; persist it and/or keep it for the halt path.
                if matches!(decision, Decision::Continue | Decision::Halt)
                    && ckpts.iter().all(Option::is_some)
                {
                    let manifest = CheckpointManifest {
                        config_hash: cfg.config_hash(),
                        v,
                        p,
                        superstep: round,
                        max_ctx_bytes_seen: max_ctx_seen,
                        cross_items: cross_total,
                        rounds: costs.rounds.clone(),
                        workers: ckpts.into_iter().map(Option::unwrap).collect(),
                    };
                    if let Some(dir) = &cfg.checkpoint_dir {
                        let _g = cfg
                            .obs
                            .as_ref()
                            .map(|o| o.span(COORD_PROC, round as u64, Phase::Checkpoint));
                        if let Err(e) = manifest.save(&CheckpointManifest::path_in(dir)) {
                            decision = Decision::Fail(EmError::Io(IoError::Backend(format!(
                                "saving checkpoint: {e}"
                            ))));
                        }
                    }
                    if matches!(decision, Decision::Halt) {
                        halt_manifest = Some(manifest);
                    }
                }

                let stop = !matches!(decision, Decision::Continue);
                if let Decision::Fail(ref e) = decision {
                    run_error = Some(e.clone());
                }
                for tx in &dec_tx {
                    tx.send(decision.dup()).expect("worker died");
                }
                if stop {
                    break;
                }
            }

            for (t, h) in handles.into_iter().enumerate() {
                match h.join().expect("worker panicked") {
                    Ok(w) => outs[t] = Some(w),
                    Err(e) => {
                        if run_error.is_none() {
                            run_error = Some(e);
                        }
                    }
                }
            }
        });

        if let Some(e) = run_error {
            return Err(e);
        }
        if let Some(manifest) = halt_manifest {
            let disks = outs
                .into_iter()
                .map(|o| o.expect("missing worker result"))
                .map(|w| w.handoff.expect("halted worker must hand off its disks"))
                .collect();
            return Ok(RunOutcome::Interrupted(Checkpoint { manifest, disks }));
        }
        costs.max_context_bytes = max_ctx_seen;

        let mut finals = Vec::with_capacity(v);
        let mut io = IoStats::new(cfg.num_disks);
        let mut breakdown = IoBreakdown::default();
        let mut peak_mem = 0usize;
        let mut io_trace = Vec::new();
        let mut retries = 0u64;
        let mut deferred_write_errors_dropped = 0u64;
        let mut fault_arcs: Vec<Arc<FaultStats>> = Vec::new();
        for w in outs.into_iter().map(|o| o.expect("missing worker result")) {
            finals.extend(w.finals);
            io.merge(&w.io);
            breakdown.setup_ops += w.breakdown.setup_ops;
            breakdown.ctx_ops += w.breakdown.ctx_ops;
            breakdown.msg_ops += w.breakdown.msg_ops;
            breakdown.readout_ops += w.breakdown.readout_ops;
            peak_mem = peak_mem.max(w.peak_mem);
            io_trace.extend(w.trace);
            retries += w.retries;
            deferred_write_errors_dropped += w.deferred_drops;
            if let Some(s) = w.faults {
                if !fault_arcs.iter().any(|a| Arc::ptr_eq(a, &s)) {
                    fault_arcs.push(s);
                }
            }
        }
        // Sum the distinct injectors' counters; a user-supplied observer
        // (one arc shared by all workers) is corrected back to this
        // run's window via the snapshot taken before the spawn.
        let faults = if fault_arcs.is_empty() {
            None
        } else {
            let mut agg = FaultCounts::default();
            let mut saw_user = false;
            for a in &fault_arcs {
                agg = agg.merged(a.counts());
                saw_user |= user_faults.as_ref().map(|u| Arc::ptr_eq(u, a)).unwrap_or(false);
            }
            Some(if saw_user { agg.diff(fault_base) } else { agg })
        };

        let report = EmRunReport {
            costs,
            io,
            breakdown,
            geometry: cfg.geometry(),
            p,
            v,
            peak_mem_bytes: peak_mem,
            cross_thread_items: cross_total,
            wall: start.elapsed(),
            io_trace,
            faults,
            retries,
            deferred_write_errors_dropped,
        };
        Ok(RunOutcome::Complete { finals, report })
    }
}

#[allow(clippy::too_many_arguments)]
fn worker<P: CgmProgram>(
    prog: &P,
    cfg: &EmConfig,
    t: usize,
    v: usize,
    p: usize,
    init: WorkerInit<P::State>,
    data_tx: Vec<Sender<Packet<P::Msg>>>,
    data_rx: Receiver<Packet<P::Msg>>,
    ctrl: Sender<(usize, Result<RoundCtl, EmError>)>,
    dec: Receiver<Decision>,
) -> Result<WorkerOut<P::State>, EmError> {
    let my_range = block_range(v, p, t);
    let n_local = my_range.len();
    let geom = cfg.geometry();
    // A backend that fails to open must not break the round protocol
    // (the coordinator expects one control message per worker per
    // round), so fall back to memory and report the error in round 0.
    let mut setup_err = None;
    // `base_io`: I/O the interrupted run already paid before the disks
    // we hold were (re)opened — zero for fresh runs and in-process
    // resume (live arrays keep their counters), the checkpoint's
    // counters when rebuilding from disk files.
    let (mut disks, trace, base_io, retries, faults, deferred_drops, prefetch_cap) =
        match init.disks {
            // In-process resume: retry/fault handles do not travel with the
            // handoff, so the resumed portion reports zero of both.
            Some((d, tr)) => (
                d,
                tr,
                IoStats::new(geom.num_disks),
                Counter::detached(),
                None,
                Counter::detached(),
                None,
            ),
            None => match cfg.build_disks(t) {
                Ok(h) => {
                    let base = init
                        .restore
                        .as_ref()
                        .map(|w| w.io.clone())
                        .unwrap_or_else(|| IoStats::new(geom.num_disks));
                    (h.disks, h.trace, base, h.retries, h.faults, h.deferred_drops, h.prefetch_cap)
                }
                Err(e) => {
                    setup_err = Some(e);
                    (
                        DiskArray::new(geom),
                        None,
                        IoStats::new(geom.num_disks),
                        Counter::detached(),
                        None,
                        Counter::detached(),
                        None,
                    )
                }
            },
        };
    let base_retries = retries.get();
    let base_deferred_drops = deferred_drops.get();
    // Every span carries this worker's proc id so the coordinator's
    // flamegraphs separate the p real processors.
    let span = |ss: usize, ph: Phase| cfg.obs.as_ref().map(|o| o.span(t as u64, ss as u64, ph));

    // Representation tuning (see SeqEmRunner): sparse message length
    // tables and a paged context length table keep per-worker state
    // sublinear in v.
    let sparse = cfg.scale.sparse_msgs(v);
    let mut ctx_store = ContextStore::new_with(
        geom.num_disks,
        geom.block_bytes,
        0,
        n_local,
        cfg.max_ctx_bytes,
        &cfg.scale.ctx_paging(v),
    );
    if let Some(o) = &cfg.obs {
        ctx_store.attach_obs(o, t);
    }
    let mat_base = ctx_store.total_tracks();
    let mk_mat = |base| {
        MessageMatrix::<P::Msg>::new_with_mode(
            geom.num_disks,
            geom.block_bytes,
            base,
            v,
            my_range.start,
            n_local,
            cfg.msg_slot_items,
            sparse,
        )
    };
    let mut mats = [mk_mat(mat_base), mk_mat(mat_base)];
    let tracks = mats[0].total_tracks();
    mats[1] = mk_mat(mat_base + tracks);

    let mut breakdown = IoBreakdown::default();
    let mut peak_mem = 0usize;
    // Per-worker scratch buffers reused across supersteps (see
    // SeqEmRunner::drive_inner): the context swap path, and the input
    // distribution, stop allocating once they reach the largest context.
    let mut ctx_buf: Vec<u8> = Vec::new();
    let mut enc_buf: Vec<u8> = Vec::new();

    match init.restore {
        None => {
            // Input distribution.
            let _g = span(init.start_round, Phase::Setup);
            if setup_err.is_none() {
                for (k, state) in init.states.into_iter().enumerate() {
                    state.encode_to_vec(&mut enc_buf);
                    if let Err(e) = ctx_store.write(&mut disks, k, &enc_buf) {
                        setup_err = Some(e);
                        break;
                    }
                }
            }
            breakdown.setup_ops = disks.stats().total_ops();
        }
        Some(wc) => {
            // The disks already hold the barrier state; restore the
            // in-memory metadata describing it (see SeqEmRunner::drive
            // for the matrix ping-pong argument).
            if setup_err.is_none() {
                if let Err(e) = ctx_store
                    .set_lens_rle(&wc.ctx_lens)
                    .and_then(|()| mats[init.start_round % 2].set_sparse_lens(wc.inbox_lens))
                {
                    setup_err = Some(e);
                }
            }
            breakdown = wc.breakdown;
            peak_mem = wc.peak_mem;
        }
    }

    let mut halted = false;
    // Software pipeline window over the local vps (see SeqEmRunner and
    // the `pipeline` module). Depth 0 is the serial demand path.
    // Mutable: the per-worker feedback tuner may move it between rounds
    // (where the inflight window has drained), never within one.
    let mut depth = cfg.pipeline_depth.min(n_local);
    let mut tuner = cfg.autotune.enabled.then(|| {
        let prefetch0 = prefetch_cap
            .as_ref()
            .map(|c| c.load(std::sync::atomic::Ordering::Relaxed))
            .unwrap_or(cfg.autotune.policy.min_prefetch_blocks);
        cgmio_tune::Controller::new(cfg.autotune.policy.clone(), depth, prefetch0)
    });
    // Windowed baseline for this worker's per-superstep metric deltas,
    // plus the decision gauges the tuner emits.
    let mut prev_snap = tuner.as_ref().and(cfg.obs.as_ref()).map(|o| o.snapshot());
    let tune_gauges = tuner.as_ref().and(cfg.obs.as_ref()).map(|o| {
        (
            o.metrics().gauge("cgmio_tune_depth", &[("proc", t.to_string())]),
            o.metrics().gauge("cgmio_tune_prefetch_blocks", &[("proc", t.to_string())]),
        )
    });
    if let Some((gd, gp)) = &tune_gauges {
        gd.set(depth as i64);
        if let Some(c) = &tuner {
            gp.set(c.prefetch_blocks() as i64);
        }
    }
    let mut inflight: pipeline::InflightReads = std::collections::VecDeque::new();
    let mut round = init.start_round;
    loop {
        let cur = round % 2;
        let mut ctl = RoundCtl {
            n_done: 0,
            sent_total: 0,
            max_sent: 0,
            max_received: 0,
            max_message: 0,
            min_message: usize::MAX,
            cross_items: 0,
            max_ctx: 0,
            ckpt: None,
        };
        let mut phase_err: Option<EmError> = setup_err.take();

        let (left, right) = mats.split_at_mut(1);
        let (mat_cur, mat_next) =
            if cur == 0 { (&mut left[0], &mut right[0]) } else { (&mut right[0], &mut left[0]) };

        // Every peer sends one packet per *sender vp* (possibly empty),
        // so `v` packets arrive machine-wide per round; arrivals are
        // staged opportunistically while later vps still compute, then
        // the Route phase blocks only for stragglers.
        let mut arrivals: Vec<(usize, usize, Vec<P::Msg>)> = Vec::new();
        let mut recv_count = 0usize;
        let mut sent_vps = 0usize;

        // Pipeline priming: submit the first `depth` local vps' reads
        // before the loop (charged exactly as the serial path charges
        // them in this superstep, after the previous barrier and
        // checkpoint decision — see SeqEmRunner).
        if phase_err.is_none() {
            for k in 0..depth {
                match pipeline::submit_vp_reads(
                    cfg.obs.as_ref(),
                    t as u64,
                    round,
                    &mut disks,
                    &ctx_store,
                    mat_cur,
                    &mut breakdown,
                    k,
                    my_range.start + k,
                ) {
                    Ok(ts) => inflight.push_back(ts),
                    Err(e) => {
                        phase_err = Some(e);
                        break;
                    }
                }
            }
        }

        if phase_err.is_none() {
            'compute: for k in 0..n_local {
                let pid = my_range.start + k;
                // (a)+(b): serial demand reads at depth 0; at depth > 0
                // redeem the in-flight tickets and top the window back
                // up (see SeqEmRunner for the staging argument).
                let (mut state, inbox_items, per_src) = if depth == 0 {
                    // (a) context in
                    let g = span(round, Phase::CtxLoad);
                    let ops0 = disks.stats().total_ops();
                    if let Err(e) = ctx_store.read_into(&mut disks, k, &mut ctx_buf) {
                        phase_err = Some(e);
                        break 'compute;
                    }
                    breakdown.ctx_ops += disks.stats().total_ops() - ops0;
                    drop(g);
                    let state = match P::State::try_from_bytes(&ctx_buf) {
                        Ok(s) => s,
                        Err(e) => {
                            phase_err = Some(ctx_store.corrupt_error(k, e));
                            break 'compute;
                        }
                    };

                    // (b) messages in (local disks)
                    let g = span(round, Phase::MatrixRead);
                    let ops0 = disks.stats().total_ops();
                    let inbox_items = mat_cur.received_items(k);
                    let per_src = match mat_cur.read_for_dst(&mut disks, pid) {
                        Ok(x) => x,
                        Err(e) => {
                            phase_err = Some(e);
                            break 'compute;
                        }
                    };
                    breakdown.msg_ops += disks.stats().total_ops() - ops0;
                    drop(g);
                    (state, inbox_items, per_src)
                } else {
                    let (ctx_t, inbox_t) = inflight.pop_front().expect("pipeline window underflow");
                    if k + depth < n_local {
                        match pipeline::submit_vp_reads(
                            cfg.obs.as_ref(),
                            t as u64,
                            round,
                            &mut disks,
                            &ctx_store,
                            mat_cur,
                            &mut breakdown,
                            k + depth,
                            my_range.start + k + depth,
                        ) {
                            Ok(ts) => inflight.push_back(ts),
                            Err(e) => {
                                phase_err = Some(e);
                                break 'compute;
                            }
                        }
                    }
                    // (a) context in — completion only, charged at submit.
                    let g = span(round, Phase::CtxLoad);
                    let inbox_items = inbox_t.items();
                    if let Err(e) = ctx_store.read_finish(&mut disks, ctx_t, &mut ctx_buf) {
                        phase_err = Some(e);
                        break 'compute;
                    }
                    let state = match P::State::try_from_bytes(&ctx_buf) {
                        Ok(s) => s,
                        Err(e) => {
                            phase_err = Some(ctx_store.corrupt_error(k, e));
                            break 'compute;
                        }
                    };
                    drop(g);
                    // (b) messages in — completion only.
                    let g = span(round, Phase::MatrixRead);
                    let per_src = match mat_cur.read_for_dst_finish(&mut disks, inbox_t) {
                        Ok(x) => x,
                        Err(e) => {
                            phase_err = Some(e);
                            break 'compute;
                        }
                    };
                    drop(g);
                    (state, inbox_items, per_src)
                };
                ctl.max_received = ctl.max_received.max(inbox_items);

                let g = span(round, Phase::Rounds);

                // Read-ahead: hint the next local vp's context and inbox
                // while this one computes (no-op on synchronous
                // backends; never counted as I/O). The pipelined path
                // (depth > 0) pre-issues real reads instead.
                if depth == 0 && k + 1 < n_local {
                    let mut hints = ctx_store.read_addrs(k + 1);
                    hints.extend(mat_cur.read_addrs_for_dst(my_range.start + k + 1));
                    disks.prefetch(&hints);
                } else if k + 1 == n_local {
                    // Superstep-boundary read-ahead: the first local
                    // vp's next-superstep context was written back this
                    // superstep already; hint it while the last vp
                    // computes. Its inbox is hinted after the arrivals
                    // are written, below.
                    disks.prefetch(&ctx_store.read_addrs(0));
                }

                // (c) compute
                let mut outbox = Outbox::new(v);
                let status = {
                    let mut rctx = RoundCtx {
                        pid,
                        v,
                        round,
                        incoming: Incoming::from_sparse(v, per_src),
                        outbox: &mut outbox,
                    };
                    prog.round(&mut rctx, &mut state)
                };
                if status == Status::Done {
                    ctl.n_done += 1;
                }
                let out_items = outbox.total();
                let mem = ctx_buf.len() + (inbox_items + out_items) * P::Msg::SIZE;
                peak_mem = peak_mem.max(mem);
                if cfg.strict && mem > cfg.mem_bytes {
                    phase_err = Some(EmError::MemoryExceeded { pid, need: mem, m: cfg.mem_bytes });
                    break 'compute;
                }
                drop(g);

                // (d) ship this vp's messages to their owners right away
                // — one packet per peer per vp — so the interconnect and
                // the receivers' staging overlap the remaining vps'
                // compute instead of waiting for the round to end.
                let sent: usize = out_items;
                ctl.sent_total += sent;
                ctl.max_sent = ctl.max_sent.max(sent);
                let mut per_owner: Vec<Packet<P::Msg>> = (0..p).map(|_| Vec::new()).collect();
                // Sparse outbox drain: only destinations actually sent
                // to (sorted, merged), so a vp that messages a handful
                // of peers costs O(fanout), not O(v).
                for (dst, msg) in outbox.into_sparse() {
                    ctl.max_message = ctl.max_message.max(msg.len());
                    ctl.min_message = ctl.min_message.min(msg.len());
                    let owner = owner_of(v, p, dst);
                    if owner != t {
                        ctl.cross_items += msg.len() as u64;
                    }
                    per_owner[owner].push((pid, dst, msg));
                }
                for (j, tx) in data_tx.iter().enumerate() {
                    tx.send(std::mem::take(&mut per_owner[j])).expect("peer died");
                }
                sent_vps += 1;
                // Opportunistically stage arrivals that already landed.
                while let Ok(pk) = data_rx.try_recv() {
                    arrivals.extend(pk);
                    recv_count += 1;
                }

                // (e) context out
                let _g = span(round, Phase::CtxLoad);
                state.encode_to_vec(&mut enc_buf);
                ctl.max_ctx = ctl.max_ctx.max(enc_buf.len());
                let ops0 = disks.stats().total_ops();
                if let Err(e) = ctx_store.write(&mut disks, k, &enc_buf) {
                    phase_err = Some(e);
                    break 'compute;
                }
                breakdown.ctx_ops += disks.stats().total_ops() - ops0;
            }
        }

        // Exchange tail: peers expect one packet per sender vp, so pad
        // for any vps this worker did not reach (error paths keep the
        // protocol alive), then block for the stragglers.
        let g = span(round, Phase::Route);
        for _ in sent_vps..n_local {
            for tx in &data_tx {
                tx.send(Vec::new()).expect("peer died");
            }
        }
        while recv_count < v {
            arrivals.extend(data_rx.recv().expect("peer died"));
            recv_count += 1;
        }
        if phase_err.is_none() {
            arrivals.sort_unstable_by_key(|&(src, dst, _)| (dst, src));
        }
        drop(g);

        // Arrange arrivals in memory and write them to the local disks
        // (the receiving half of step (d)). Sorted order keeps I/O
        // deterministic.
        if phase_err.is_none() {
            let _g = span(round, Phase::MatrixWrite);
            let entries: Vec<(usize, usize, &[P::Msg])> =
                arrivals.iter().map(|(src, dst, m)| (*src, *dst, m.as_slice())).collect();
            let ops0 = disks.stats().total_ops();
            if let Err(e) = mat_next.write_batch(&mut disks, &entries) {
                phase_err = Some(e);
            }
            breakdown.msg_ops += disks.stats().total_ops() - ops0;
            if phase_err.is_none() {
                // Superstep-boundary read-ahead, inbox half: the first
                // local vp's full next-superstep inbox now exists.
                disks.prefetch(&mat_next.read_addrs_for_dst(my_range.start));
            }
        }

        // Superstep barrier: drain write-behind, apply the durability
        // policy, surface any deferred write error. Uncounted. When a
        // checkpoint is due the flush also fsyncs, so the manifest
        // never describes data still in volatile caches.
        let want_ckpt = cfg.checkpoint_dir.is_some() || cfg.halt_after_superstep == Some(round);
        if phase_err.is_none() {
            let _g = span(round, Phase::Barrier);
            if let Err(e) = disks.flush(want_ckpt) {
                phase_err = Some(e.into());
            }
        }
        if want_ckpt && phase_err.is_none() {
            let mut io = base_io.clone();
            io.merge(disks.stats());
            ctl.ckpt = Some(WorkerCheckpoint {
                worker: t,
                ctx_lens: ctx_store.lens_rle(),
                inbox_lens: mats[1 - cur].sparse_lens(),
                io,
                breakdown,
                peak_mem,
            });
        }

        let report = match phase_err {
            Some(e) => Err(e),
            None => Ok(ctl),
        };
        ctrl.send((t, report)).expect("coordinator died");
        match dec.recv().expect("coordinator died") {
            Decision::Continue => {
                // Feedback tuning (see SeqEmRunner): consult this
                // worker's window of the stall/queue-wait histograms
                // and set the next superstep's depth and prefetch
                // window. After the barrier, before the next priming —
                // the only accounting-safe boundary.
                if let (Some(tctl), Some(o)) = (tuner.as_mut(), cfg.obs.as_ref()) {
                    let _g = span(round, Phase::Tune);
                    let now = o.snapshot();
                    let delta = match &prev_snap {
                        Some(prev) => now.delta_since(prev),
                        None => now.clone(),
                    };
                    prev_snap = Some(now);
                    let signals = cgmio_tune::WindowSignals::from_delta(&delta, t as u64);
                    let action = tctl.observe(&signals);
                    depth = tctl.depth().min(n_local);
                    if let Some(cap) = &prefetch_cap {
                        cap.store(tctl.prefetch_blocks(), std::sync::atomic::Ordering::Relaxed);
                    }
                    if let Some((gd, gp)) = &tune_gauges {
                        gd.set(depth as i64);
                        gp.set(tctl.prefetch_blocks() as i64);
                    }
                    o.metrics()
                        .counter(
                            "cgmio_tune_decisions_total",
                            &[("proc", t.to_string()), ("action", action.name().into())],
                        )
                        .inc();
                    if let Some(log) = &cfg.autotune.log {
                        log.push(cgmio_tune::Decision {
                            proc: t as u64,
                            superstep: round as u64,
                            signals,
                            action,
                            depth,
                            prefetch_blocks: tctl.prefetch_blocks(),
                        });
                    }
                }
                mats[cur].clear();
                round += 1;
            }
            Decision::Stop => break,
            Decision::Halt => {
                halted = true;
                break;
            }
            Decision::Fail(e) => return Err(e),
        }
    }

    let mut io = base_io;
    if halted {
        // Hand the live disks (and the un-drained trace handle) back for
        // an in-process resume; the coordinator holds the manifest.
        io.merge(disks.stats());
        return Ok(WorkerOut {
            finals: Vec::new(),
            io,
            breakdown,
            peak_mem,
            trace: Vec::new(),
            handoff: Some((disks, trace)),
            retries: retries.get().saturating_sub(base_retries),
            deferred_drops: deferred_drops.get().saturating_sub(base_deferred_drops),
            faults,
        });
    }

    // Final readout.
    let g = span(round, Phase::Readout);
    let ops0 = disks.stats().total_ops();
    let mut finals = Vec::with_capacity(n_local);
    for k in 0..n_local {
        ctx_store.read_into(&mut disks, k, &mut ctx_buf)?;
        finals.push(P::State::try_from_bytes(&ctx_buf).map_err(|e| ctx_store.corrupt_error(k, e))?);
    }
    breakdown.readout_ops = disks.stats().total_ops() - ops0;
    drop(g);

    io.merge(disks.stats());
    Ok(WorkerOut {
        finals,
        io,
        breakdown,
        peak_mem,
        trace: trace.map(|t| t.drain()).unwrap_or_default(),
        handoff: None,
        retries: retries.get().saturating_sub(base_retries),
        deferred_drops: deferred_drops.get().saturating_sub(base_deferred_drops),
        faults,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::measure_requirements;
    use crate::seq::SeqEmRunner;
    use cgmio_model::demo::{AllToAll, AllToOne, PrefixSum, TokenRing};
    use cgmio_model::DirectRunner;
    use cgmio_routing::Balanced;

    fn config_for<P: CgmProgram>(
        prog: &P,
        states: Vec<P::State>,
        v: usize,
        p: usize,
        d: usize,
        bb: usize,
    ) -> EmConfig {
        let (_, _, req) = measure_requirements(prog, states).unwrap();
        EmConfig::from_requirements(v, p, d, bb, &req)
    }

    #[test]
    fn matches_direct_for_various_p() {
        let v = 8;
        let prog = AllToAll { items_per_pair: 6 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let (want, _) = DirectRunner::default().run(&prog, init()).unwrap();
        for p in [1usize, 2, 3, 4, 8] {
            let cfg = config_for(&prog, init(), v, p, 2, 32);
            let (got, rep) = ParEmRunner::new(cfg).run(&prog, init()).unwrap();
            assert_eq!(got, want, "p={p}");
            assert_eq!(rep.p, p);
            if p > 1 {
                assert!(rep.cross_thread_items > 0);
            }
        }
    }

    #[test]
    fn p1_matches_seq_runner_io_exactly() {
        // With p = 1 Algorithm 3 degenerates to Algorithm 2: same final
        // states and same I/O counts.
        let v = 6;
        let prog = AllToAll { items_per_pair: 5 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let cfg = config_for(&prog, init(), v, 1, 2, 32);
        let (seq_states, seq_rep) = SeqEmRunner::new(cfg.clone()).run(&prog, init()).unwrap();
        let (par_states, par_rep) = ParEmRunner::new(cfg).run(&prog, init()).unwrap();
        assert_eq!(par_states, seq_states);
        assert_eq!(par_rep.breakdown.ctx_ops, seq_rep.breakdown.ctx_ops);
        assert_eq!(par_rep.breakdown.msg_ops, seq_rep.breakdown.msg_ops);
        assert_eq!(par_rep.io.total_ops(), seq_rep.io.total_ops());
    }

    #[test]
    fn per_proc_io_drops_with_p() {
        // The paper's point: I/O time scales as v/p. Aggregated ops stay
        // roughly constant, so per-proc ops fall ~linearly in p.
        let v = 8;
        let prog = AllToAll { items_per_pair: 32 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let ops = |p: usize| {
            let cfg = config_for(&prog, init(), v, p, 2, 64);
            let (_, rep) = ParEmRunner::new(cfg).run(&prog, init()).unwrap();
            rep.io_ops_per_proc()
        };
        let o1 = ops(1);
        let o4 = ops(4);
        assert!(o4 < o1 / 2.0, "o1={o1} o4={o4}");
    }

    #[test]
    fn balanced_program_on_parallel_em() {
        let v = 6;
        let plain = AllToOne { items_per_proc: 30 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let (want, _) = DirectRunner::default().run(&plain, init()).unwrap();
        let bal = Balanced::new(plain);
        let cfg = config_for(&bal, init(), v, 3, 2, 64);
        let (got, _) = ParEmRunner::new(cfg).run(&bal, init()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn prefix_sum_on_parallel_em() {
        let v = 7;
        let init = || {
            (0..v as u64)
                .map(|i| ((0..i + 1).collect::<Vec<u64>>(), Vec::new()))
                .collect::<Vec<_>>()
        };
        let (want, _) = DirectRunner::default().run(&PrefixSum, init()).unwrap();
        let cfg = config_for(&PrefixSum, init(), v, 3, 1, 16);
        let (got, _) = ParEmRunner::new(cfg).run(&PrefixSum, init()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn error_in_worker_propagates() {
        let v = 4;
        let prog = AllToOne { items_per_proc: 50 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let mut cfg = config_for(&prog, init(), v, 2, 1, 32);
        cfg.msg_slot_items = 10;
        let e = ParEmRunner::new(cfg).run(&prog, init()).unwrap_err();
        assert!(matches!(e, EmError::MsgSlotOverflow { .. }));
    }

    #[test]
    fn concurrent_backend_matches_mem_across_p() {
        // Per-worker engines (each with its own drive threads) must not
        // change results or aggregate counts for any p.
        let v = 8;
        let prog = AllToAll { items_per_pair: 6 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let dir = cgmio_pdm::testutil::TempDir::new("cgmio-par-backends");
        for p in [2usize, 3, 8] {
            let base_cfg = config_for(&prog, init(), v, p, 2, 32);
            let (want, want_rep) = ParEmRunner::new(base_cfg.clone()).run(&prog, init()).unwrap();
            let mut cfg = base_cfg.clone();
            cfg.backend = crate::BackendSpec::Concurrent {
                dir: Some(dir.path().join(format!("p{p}"))),
                opts: cgmio_io::IoEngineOpts { trace: true, ..Default::default() },
            };
            let (got, rep) = ParEmRunner::new(cfg).run(&prog, init()).unwrap();
            assert_eq!(got, want, "p={p}");
            assert_eq!(rep.io, want_rep.io, "p={p}");
            assert_eq!(rep.breakdown, want_rep.breakdown, "p={p}");
            // one trace event per physical block transfer, tagged by proc
            let summary = cgmio_io::summarize(&rep.io_trace);
            assert_eq!(summary.reads as u64, rep.io.blocks_read, "p={p}");
            assert_eq!(summary.writes as u64, rep.io.blocks_written, "p={p}");
            let procs: std::collections::BTreeSet<usize> =
                rep.io_trace.iter().map(|e| e.proc).collect();
            assert_eq!(procs.len(), p, "p={p}: every worker must contribute events");
        }
    }

    #[test]
    fn bad_backend_dir_fails_cleanly() {
        // An unopenable backend must error out, not deadlock the round
        // protocol.
        let v = 4;
        let prog = AllToAll { items_per_pair: 2 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let mut cfg = config_for(&prog, init(), v, 2, 1, 32);
        cfg.backend = crate::BackendSpec::SyncFile {
            dir: std::path::PathBuf::from("/proc/cgmio-definitely-not-writable"),
        };
        let e = ParEmRunner::new(cfg).run(&prog, init()).unwrap_err();
        assert!(matches!(e, EmError::BadConfig(_)), "got {e:?}");
    }

    #[test]
    fn halt_resume_in_process_matches_uninterrupted() {
        let v = 6;
        let prog = TokenRing { rounds: 5 };
        let init = || (0..v as u64).map(|i| vec![i]).collect::<Vec<_>>();
        let cfg = config_for(&prog, init(), v, 3, 2, 16);
        let (want, want_rep) = ParEmRunner::new(cfg.clone()).run(&prog, init()).unwrap();
        for halt in 0..4 {
            let mut hcfg = cfg.clone();
            hcfg.halt_after_superstep = Some(halt);
            let ckpt = match ParEmRunner::new(hcfg).run_until(&prog, init()).unwrap() {
                crate::RunOutcome::Interrupted(c) => c,
                crate::RunOutcome::Complete { .. } => panic!("expected halt at superstep {halt}"),
            };
            assert_eq!(ckpt.manifest.superstep, halt);
            assert_eq!(ckpt.manifest.workers.len(), 3);
            let (finals, rep) =
                ParEmRunner::new(cfg.clone()).resume(&prog, ckpt).unwrap().expect_complete();
            assert_eq!(finals, want, "halt={halt}");
            assert_eq!(rep.io, want_rep.io, "halt={halt}");
            assert_eq!(rep.breakdown, want_rep.breakdown, "halt={halt}");
            assert_eq!(rep.cross_thread_items, want_rep.cross_thread_items, "halt={halt}");
            assert_eq!(rep.costs.lambda(), want_rep.costs.lambda(), "halt={halt}");
        }
    }

    #[test]
    fn resume_from_manifest_on_files_matches_uninterrupted() {
        let v = 6;
        let prog = TokenRing { rounds: 6 };
        let init = || (0..v as u64).map(|i| vec![i]).collect::<Vec<_>>();
        let (want, want_rep) = {
            let cfg = config_for(&prog, init(), v, 2, 2, 16);
            ParEmRunner::new(cfg).run(&prog, init()).unwrap()
        };
        let dir = cgmio_pdm::testutil::TempDir::new("cgmio-par-resume");
        let mut cfg = config_for(&prog, init(), v, 2, 2, 16);
        cfg.backend = crate::BackendSpec::SyncFile { dir: dir.path().join("drives") };
        cfg.checkpoint_dir = Some(dir.path().to_path_buf());
        cfg.halt_after_superstep = Some(3);
        match ParEmRunner::new(cfg.clone()).run_until(&prog, init()).unwrap() {
            // "Crash": drop the live state, keep only the files.
            crate::RunOutcome::Interrupted(c) => drop(c),
            crate::RunOutcome::Complete { .. } => panic!("expected halt"),
        }
        let manifest = CheckpointManifest::load(&CheckpointManifest::path_in(dir.path())).unwrap();
        assert_eq!(manifest.superstep, 3);
        assert_eq!(manifest.workers.len(), 2);
        cfg.halt_after_superstep = None;
        let (finals, rep) =
            ParEmRunner::new(cfg).resume_from(&prog, &manifest).unwrap().expect_complete();
        assert_eq!(finals, want);
        assert_eq!(rep.io, want_rep.io);
        assert_eq!(rep.breakdown, want_rep.breakdown);
        assert_eq!(rep.cross_thread_items, want_rep.cross_thread_items);
    }

    #[test]
    fn injected_faults_heal_across_workers() {
        let v = 8;
        let prog = AllToAll { items_per_pair: 5 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let cfg = config_for(&prog, init(), v, 4, 2, 32);
        let (want, want_rep) = ParEmRunner::new(cfg.clone()).run(&prog, init()).unwrap();

        let stats = std::sync::Arc::new(cgmio_pdm::FaultStats::default());
        let mut fcfg = cfg.clone();
        fcfg.fault = Some(cgmio_pdm::FaultPlan::transient(23, 0.05).with_observer(stats.clone()));
        fcfg.retry = cgmio_io::RetryPolicy { max_attempts: 6, base_backoff_us: 0 };
        let (got, rep) = ParEmRunner::new(fcfg).run(&prog, init()).unwrap();
        assert_eq!(got, want);
        assert_eq!(rep.io, want_rep.io);
        assert!(stats.counts().total_errors() > 0, "no faults were injected");
        // The shared observer is deduplicated, not double-counted, and
        // the report window matches the observer exactly.
        assert_eq!(rep.faults, Some(stats.counts()));
        assert!(rep.retries > 0, "transient faults imply recovery retries");
    }

    #[test]
    fn obs_metrics_and_fault_counts_across_workers() {
        let v = 8;
        let prog = AllToAll { items_per_pair: 3 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let cfg = config_for(&prog, init(), v, 4, 2, 32);
        let (want, want_rep) = ParEmRunner::new(cfg.clone()).run(&prog, init()).unwrap();

        let obs = cgmio_obs::Obs::new();
        let mut ocfg = cfg.clone();
        ocfg.obs = Some(obs.clone());
        // No explicit observer: each worker's injector gets its own
        // auto-attached FaultStats and the coordinator sums them.
        ocfg.fault = Some(cgmio_pdm::FaultPlan::transient(7, 0.05));
        ocfg.retry = cgmio_io::RetryPolicy { max_attempts: 6, base_backoff_us: 0 };
        let (got, rep) = ParEmRunner::new(ocfg).run(&prog, init()).unwrap();
        assert_eq!(got, want);
        assert_eq!(rep.io, want_rep.io, "obs + faults must not change counted I/O");
        let f = rep.faults.expect("fault plan set, counts must be reported");
        assert!(f.total_errors() > 0, "no faults were injected");
        assert_eq!(rep.retries, f.read_transient + f.write_transient + f.torn_writes);

        // Spans from every worker (proc label) and the phase taxonomy.
        let spans = obs.spans();
        for t in 0..4u64 {
            assert!(spans.iter().any(|s| s.proc == t), "no spans from worker {t}");
        }
        for ph in [Phase::Setup, Phase::CtxLoad, Phase::MatrixRead, Phase::Route, Phase::Barrier] {
            assert!(spans.iter().any(|s| s.phase == ph), "missing phase {ph:?}");
        }
        // Retries surfaced as metrics too, labelled per real processor.
        let snap = obs.metrics().snapshot();
        let total: u64 = (0..4)
            .filter_map(|t| snap.get("cgmio_io_retries_total", &[("proc", &t.to_string())]))
            .map(|m| match m {
                cgmio_obs::SampleValue::Counter(n) => *n,
                other => panic!("retries series is not a counter: {other:?}"),
            })
            .sum();
        assert_eq!(total, rep.retries);
    }

    #[test]
    fn token_ring_multi_round_on_parallel_em() {
        let v = 6;
        let prog = TokenRing { rounds: 7 };
        let init = || (0..v as u64).map(|i| vec![i]).collect::<Vec<_>>();
        let (want, _) = DirectRunner::default().run(&prog, init()).unwrap();
        let cfg = config_for(&prog, init(), v, 3, 2, 16);
        let (got, rep) = ParEmRunner::new(cfg).run(&prog, init()).unwrap();
        assert_eq!(got, want);
        assert_eq!(rep.costs.lambda(), 7);
    }
}
