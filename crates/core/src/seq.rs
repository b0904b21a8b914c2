//! Algorithm 2 — *SeqCompoundSuperstep*: simulating a `v`-processor CGM
//! on a single real processor with `D` disks.
//!
//! Per compound superstep, for each virtual processor `i` in turn:
//!
//! 1. **(a)** read the context of `i` from the disks (consecutive
//!    format),
//! 2. **(b)** read the packets received by `i` (staggered message
//!    matrix),
//! 3. **(c)** simulate the local computation of `i`,
//! 4. **(d)** write the packets sent by `i` in the staggered format of
//!    Figure 2 (FIFO-packed parallel writes),
//! 5. **(e)** write the changed context back (consecutive format).
//!
//! Two message matrices alternate between supersteps (the space-saving
//! single-copy alternation of the paper's Observation 2 is traded for
//! the simpler two-copy scheme; I/O counts are identical).

use std::time::Instant;

use cgmio_io::TraceHandle;
use cgmio_model::cost::RoundCost;
use cgmio_model::{
    CgmProgram, CommCosts, Incoming, ModelError, Outbox, ProcState, RoundCtx, Status,
};
use cgmio_obs::{Counter, Obs, Phase};
use cgmio_pdm::{DiskArray, IoError, IoStats, Item};

use crate::checkpoint::{Checkpoint, CheckpointManifest, RunOutcome, WorkerCheckpoint};
use crate::config::{DiskHandles, EmConfig};
use crate::context::ContextStore;
use crate::msgmatrix::MessageMatrix;
use crate::pipeline;
use crate::report::{EmRunReport, IoBreakdown};
use crate::EmError;

/// How a run enters the superstep loop: from fresh initial states, or
/// from a checkpoint (with the live disks for in-process resume, or
/// `None` to rebuild them from the config).
enum Start<S> {
    Fresh(Vec<S>),
    Resume { manifest: CheckpointManifest, disks: Option<(DiskArray, Option<TraceHandle>)> },
}

/// Single-processor external-memory runner (Algorithm 2).
#[derive(Debug, Clone)]
pub struct SeqEmRunner {
    /// Machine configuration; `p` is ignored (always 1).
    pub config: EmConfig,
}

impl SeqEmRunner {
    /// Create a runner for the given configuration.
    pub fn new(config: EmConfig) -> Self {
        Self { config }
    }

    /// Run `prog` from the given initial states; returns final states
    /// and the full report. The disks are created fresh; initial
    /// contexts are loaded first (counted as `setup_ops`).
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
    /// interruption is a normal outcome carrying the checkpoint.
    pub fn run_until<P: CgmProgram>(
        &self,
        prog: &P,
        states: Vec<P::State>,
    ) -> Result<RunOutcome<P::State>, EmError> {
        if states.len() != self.config.v {
            return Err(EmError::BadConfig(format!(
                "config.v = {} but {} initial states were given",
                self.config.v,
                states.len()
            )));
        }
        self.drive(prog, Start::Fresh(states))
    }

    /// Resume an interrupted run in-process: continue on the same live
    /// disk arrays the checkpoint carries. Works with every backend,
    /// including the non-persistent `Mem` one.
    pub fn resume<P: CgmProgram>(
        &self,
        prog: &P,
        ckpt: Checkpoint,
    ) -> Result<RunOutcome<P::State>, EmError> {
        self.check_manifest(&ckpt.manifest)?;
        if ckpt.disks.len() != 1 {
            return Err(EmError::BadConfig(format!(
                "checkpoint carries {} disk arrays, sequential runner needs 1",
                ckpt.disks.len()
            )));
        }
        let disks = ckpt.disks.into_iter().next();
        self.drive(prog, Start::Resume { manifest: ckpt.manifest, disks })
    }

    /// Resume from a saved manifest, rebuilding the disk arrays from
    /// [`Self::config`] — the crash-recovery path. The config must
    /// address the same persistent backend directory the interrupted run
    /// used; the run replays from the superstep after the manifest's and
    /// produces final states and I/O counts **identical** to an
    /// uninterrupted run.
    ///
    /// ```
    /// use cgmio_core::{
    ///     measure_requirements, BackendSpec, CheckpointManifest, EmConfig, RunOutcome,
    ///     SeqEmRunner,
    /// };
    /// use cgmio_model::demo::TokenRing;
    ///
    /// let prog = TokenRing { rounds: 4 };
    /// let init = || (0..3u64).map(|i| vec![i]).collect::<Vec<_>>();
    /// let (_, _, req) = measure_requirements(&prog, init()).unwrap();
    ///
    /// let dir = cgmio_pdm::testutil::TempDir::new("cgmio-doc-resume");
    /// let mut cfg = EmConfig::from_requirements(3, 1, 2, 32, &req);
    /// cfg.backend = BackendSpec::SyncFile { dir: dir.path().join("drives") };
    /// cfg.checkpoint_dir = Some(dir.path().to_path_buf());
    /// cfg.halt_after_superstep = Some(1); // simulate a crash after superstep 1
    ///
    /// match SeqEmRunner::new(cfg.clone()).run_until(&prog, init()).unwrap() {
    ///     RunOutcome::Interrupted(ckpt) => assert_eq!(ckpt.manifest.superstep, 1),
    ///     RunOutcome::Complete { .. } => unreachable!(),
    /// }
    ///
    /// // "New process": load the manifest, rebuild from the same config.
    /// let manifest = CheckpointManifest::load(&CheckpointManifest::path_in(dir.path())).unwrap();
    /// cfg.halt_after_superstep = None;
    /// let (finals, report) =
    ///     SeqEmRunner::new(cfg).resume_from(&prog, &manifest).unwrap().expect_complete();
    /// assert_eq!(finals.len(), 3);
    /// assert_eq!(report.costs.lambda(), 4); // pre- and post-resume rounds all accounted
    /// ```
    pub fn resume_from<P: CgmProgram>(
        &self,
        prog: &P,
        manifest: &CheckpointManifest,
    ) -> Result<RunOutcome<P::State>, EmError> {
        self.check_manifest(manifest)?;
        self.drive(prog, Start::Resume { manifest: manifest.clone(), disks: None })
    }

    /// Resume requires the manifest to describe this exact machine: same
    /// layout hash, same shape.
    fn check_manifest(&self, m: &CheckpointManifest) -> Result<(), EmError> {
        let cfg = &self.config;
        if m.config_hash != cfg.config_hash() {
            return Err(EmError::BadConfig(format!(
                "checkpoint config hash {:#x} does not match this config ({:#x})",
                m.config_hash,
                cfg.config_hash()
            )));
        }
        if m.v != cfg.v || m.p != 1 || m.workers.len() != 1 {
            return Err(EmError::BadConfig(format!(
                "checkpoint shape (v={}, p={}, {} workers) does not fit the sequential runner \
                 (v={}, p=1, 1 worker)",
                m.v,
                m.p,
                m.workers.len(),
                cfg.v
            )));
        }
        Ok(())
    }

    fn drive<P: CgmProgram>(
        &self,
        prog: &P,
        start: Start<P::State>,
    ) -> Result<RunOutcome<P::State>, EmError> {
        // The feedback tuner reads the stall/queue-wait histograms,
        // which only register when an Obs handle is attached — inject a
        // private one when the caller enabled tuning without
        // observability. Instrumentation never changes accounting
        // (property-tested), so the injection is invisible in results.
        if self.config.autotune.enabled && self.config.obs.is_none() {
            let mut cfg = self.config.clone();
            cfg.obs = Some(Obs::new());
            return SeqEmRunner::new(cfg).drive(prog, start);
        }
        let cfg = &self.config;
        cfg.validate()?;
        let geom = cfg.geometry();
        // `base_io` is what the interrupted run already paid before the
        // disks we hold were (re)opened: zero for fresh runs and for
        // in-process resume (live arrays keep their cumulative counters),
        // the manifest's counters when rebuilding from disk files.
        match start {
            // In-process resume: the live array keeps its own counters,
            // but the retry/fault handles do not travel with the
            // checkpoint — the resumed portion reports 0 retries and no
            // fault counts.
            Start::Resume { manifest, disks: Some((d, t)) } => self.drive_inner(
                prog,
                DiskHandles {
                    disks: d,
                    trace: t,
                    retries: Counter::detached(),
                    faults: None,
                    deferred_drops: Counter::detached(),
                    prefetch_cap: None,
                },
                IoStats::new(geom.num_disks),
                Start::Resume { manifest, disks: None },
            ),
            Start::Resume { manifest, disks: None } => {
                let handles = cfg.build_disks(0)?;
                let base = manifest.workers[0].io.clone();
                self.drive_inner(prog, handles, base, Start::Resume { manifest, disks: None })
            }
            fresh @ Start::Fresh(_) => {
                let handles = cfg.build_disks(0)?;
                self.drive_inner(prog, handles, IoStats::new(geom.num_disks), fresh)
            }
        }
    }

    fn drive_inner<P: CgmProgram>(
        &self,
        prog: &P,
        handles: DiskHandles,
        base_io: IoStats,
        start: Start<P::State>,
    ) -> Result<RunOutcome<P::State>, EmError> {
        let DiskHandles { mut disks, trace, retries, faults, deferred_drops, prefetch_cap } =
            handles;
        let cfg = &self.config;
        cfg.validate()?;
        let v = cfg.v;
        let geom = cfg.geometry();
        // Counter positions at entry, so the report attributes only
        // this run's recovery traffic (a user-shared fault observer may
        // already hold counts from earlier runs).
        let base_retries = retries.get();
        let base_deferred_drops = deferred_drops.get();
        let base_faults = faults.as_ref().map(|s| s.counts());
        // One span guard per phase: publishes (superstep, phase) so the
        // io layer stamps in-flight ops, and feeds cgmio_phase_us.
        // `None` (no obs handle) costs nothing.
        let span = |superstep: usize, phase: Phase| {
            cfg.obs.as_ref().map(|o| o.span(0, superstep as u64, phase))
        };

        // Representation tuning (auto-selected by v unless forced):
        // sparse message length tables and a paged context length table
        // are what keep runner-held state sublinear in v.
        let sparse = cfg.scale.sparse_msgs(v);
        let mut ctx_store = ContextStore::new_with(
            geom.num_disks,
            geom.block_bytes,
            0,
            v,
            cfg.max_ctx_bytes,
            &cfg.scale.ctx_paging(v),
        );
        if let Some(o) = &cfg.obs {
            ctx_store.attach_obs(o, 0);
        }
        let mat_base = ctx_store.total_tracks();
        let mut mats: [MessageMatrix<P::Msg>; 2] = [
            MessageMatrix::new_with_mode(
                geom.num_disks,
                geom.block_bytes,
                mat_base,
                v,
                0,
                v,
                cfg.msg_slot_items,
                sparse,
            ),
            MessageMatrix::new_with_mode(
                geom.num_disks,
                geom.block_bytes,
                mat_base, // placeholder, fixed just below
                v,
                0,
                v,
                cfg.msg_slot_items,
                sparse,
            ),
        ];
        let mat_tracks = mats[0].total_tracks();
        mats[1] = MessageMatrix::new_with_mode(
            geom.num_disks,
            geom.block_bytes,
            mat_base + mat_tracks,
            v,
            0,
            v,
            cfg.msg_slot_items,
            sparse,
        );

        let mut costs = CommCosts::default();
        let mut breakdown = IoBreakdown::default();
        let mut peak_mem = 0usize;
        let mut max_ctx = 0usize;
        let mut start_round = 0usize;
        // Scratch buffers reused across all virtual processors and
        // supersteps: once grown to the largest context, the swap path
        // (and the input distribution) stops allocating.
        let mut ctx_buf: Vec<u8> = Vec::new();
        let mut enc_buf: Vec<u8> = Vec::new();

        match start {
            Start::Fresh(states) => {
                // Input distribution: write initial contexts.
                let _g = span(0, Phase::Setup);
                for (pid, state) in states.into_iter().enumerate() {
                    state.encode_to_vec(&mut enc_buf);
                    ctx_store.write(&mut disks, pid, &enc_buf)?;
                }
                breakdown.setup_ops = disks.stats().total_ops();
            }
            Start::Resume { manifest, .. } => {
                // The disks already hold the barrier state; restore the
                // in-memory metadata describing it. The matrix written
                // *during* the checkpointed superstep is the one read in
                // the round we re-enter at; its ping-pong partner was (or
                // would have been) cleared, and a fresh matrix is equal
                // to a cleared one.
                let wc = &manifest.workers[0];
                start_round = manifest.superstep + 1;
                ctx_store.set_lens_rle(&wc.ctx_lens)?;
                mats[start_round % 2].set_sparse_lens(wc.inbox_lens.clone())?;
                breakdown = wc.breakdown;
                peak_mem = wc.peak_mem;
                max_ctx = manifest.max_ctx_bytes_seen;
                costs.rounds = manifest.rounds.clone();
            }
        }

        let t0 = Instant::now();
        // Software pipeline: step (a)+(b) reads for up to `depth` vps
        // ahead of the one computing. Depth 0 is the serial demand path.
        // Mutable: the feedback tuner may move it between rounds, where
        // the inflight window has fully drained — so a change never
        // moves I/O across a superstep boundary and accounting stays
        // depth-invariant.
        let mut depth = cfg.pipeline_depth.min(v);
        let mut tuner = cfg.autotune.enabled.then(|| {
            let prefetch0 = prefetch_cap
                .as_ref()
                .map(|c| c.load(std::sync::atomic::Ordering::Relaxed))
                .unwrap_or(cfg.autotune.policy.min_prefetch_blocks);
            cgmio_tune::Controller::new(cfg.autotune.policy.clone(), depth, prefetch0)
        });
        // Windowed baseline for per-superstep metric deltas, plus the
        // decision metrics the tuner emits.
        let mut prev_snap = tuner.as_ref().and(cfg.obs.as_ref()).map(|o| o.snapshot());
        let tune_gauges = tuner.as_ref().and(cfg.obs.as_ref()).map(|o| {
            (
                o.metrics().gauge("cgmio_tune_depth", &[("proc", "0".into())]),
                o.metrics().gauge("cgmio_tune_prefetch_blocks", &[("proc", "0".into())]),
            )
        });
        if let Some((gd, gp)) = &tune_gauges {
            gd.set(depth as i64);
            if let Some(ctl) = &tuner {
                gp.set(ctl.prefetch_blocks() as i64);
            }
        }
        let mut inflight: pipeline::InflightReads = std::collections::VecDeque::new();
        let mut round = start_round;
        loop {
            if round >= cfg.round_limit {
                return Err(ModelError::RoundLimit(cfg.round_limit).into());
            }
            let cur = round % 2;
            let mut n_done = 0usize;
            // Round cost, accumulated incrementally (the dense v×v length
            // matrix this used to be built from is gone — at v = 10^6 it
            // was the scale blocker). Semantics are identical to
            // `round_cost_from_matrix`: max_sent is the largest per-vp
            // outbox, max_received the largest inbox of the *next*
            // matrix, max/min_message range over non-empty messages.
            let mut rc = RoundCost { min_message: usize::MAX, ..Default::default() };

            let (left, right) = mats.split_at_mut(1);
            let (mat_cur, mat_next) = if cur == 0 {
                (&mut left[0], &mut right[0])
            } else {
                (&mut right[0], &mut left[0])
            };

            // Pipeline priming: submit the first `depth` vps' reads up
            // front so vp 0 finds its blocks already in flight. Priming
            // sits *after* the previous barrier and checkpoint decision,
            // so no read of superstep `r` is issued — or charged —
            // before superstep `r` begins; checkpoint manifests are
            // therefore bit-identical at every depth.
            for k in 0..depth {
                inflight.push_back(pipeline::submit_vp_reads(
                    cfg.obs.as_ref(),
                    0,
                    round,
                    &mut disks,
                    &ctx_store,
                    mat_cur,
                    &mut breakdown,
                    k,
                    k,
                )?);
            }

            for pid in 0..v {
                // (a)+(b): serial demand reads at depth 0; at depth > 0
                // redeem the in-flight tickets and top the window back
                // up, so vp `pid + depth`'s blocks travel while vp
                // `pid` decodes and computes.
                let (mut state, inbox_items, per_src) = if depth == 0 {
                    // (a) context in
                    let g = span(round, Phase::CtxLoad);
                    let ops0 = disks.stats().total_ops();
                    ctx_store.read_into(&mut disks, pid, &mut ctx_buf)?;
                    breakdown.ctx_ops += disks.stats().total_ops() - ops0;
                    let state = P::State::try_from_bytes(&ctx_buf)
                        .map_err(|e| ctx_store.corrupt_error(pid, e))?;
                    drop(g);

                    // (b) messages in
                    let g = span(round, Phase::MatrixRead);
                    let ops0 = disks.stats().total_ops();
                    let inbox_items = mat_cur.received_items(pid);
                    let per_src = mat_cur.read_for_dst(&mut disks, pid)?;
                    breakdown.msg_ops += disks.stats().total_ops() - ops0;
                    drop(g);
                    (state, inbox_items, per_src)
                } else {
                    let (ctx_t, inbox_t) = inflight.pop_front().expect("pipeline window underflow");
                    if pid + depth < v {
                        inflight.push_back(pipeline::submit_vp_reads(
                            cfg.obs.as_ref(),
                            0,
                            round,
                            &mut disks,
                            &ctx_store,
                            mat_cur,
                            &mut breakdown,
                            pid + depth,
                            pid + depth,
                        )?);
                    }
                    // (a) context in — completion only, charged at submit.
                    let g = span(round, Phase::CtxLoad);
                    let inbox_items = inbox_t.items();
                    ctx_store.read_finish(&mut disks, ctx_t, &mut ctx_buf)?;
                    let state = P::State::try_from_bytes(&ctx_buf)
                        .map_err(|e| ctx_store.corrupt_error(pid, e))?;
                    drop(g);
                    // (b) messages in — completion only.
                    let g = span(round, Phase::MatrixRead);
                    let per_src = mat_cur.read_for_dst_finish(&mut disks, inbox_t)?;
                    drop(g);
                    (state, inbox_items, per_src)
                };

                // (c) compute (the read-ahead hints are submitted here,
                // overlapping the compute step they hide behind)
                let g = span(round, Phase::Rounds);
                if depth == 0 && pid + 1 < v {
                    // Read-ahead: while vp `pid` computes, hint the next
                    // vp's context and inbox to the backend (a no-op for
                    // synchronous backends; never counted as I/O). The
                    // pipelined path (depth > 0) pre-issues real reads
                    // instead.
                    let mut hints = ctx_store.read_addrs(pid + 1);
                    hints.extend(mat_cur.read_addrs_for_dst(pid + 1));
                    disks.prefetch(&hints);
                } else if pid + 1 == v {
                    // Superstep-boundary read-ahead: the next
                    // superstep's first context was already written back
                    // this superstep (vp 0's step (e)), so hint it while
                    // the last vp computes. Its inbox lives in
                    // `mat_next` and is hinted once this vp's sends
                    // complete, below.
                    disks.prefetch(&ctx_store.read_addrs(0));
                }
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
                    n_done += 1;
                }
                let out_items = outbox.total();
                drop(g);

                // Memory audit: context + inbox + outbox must fit in M.
                let mem = ctx_buf.len() + (inbox_items + out_items) * P::Msg::SIZE;
                peak_mem = peak_mem.max(mem);
                if cfg.strict && mem > cfg.mem_bytes {
                    return Err(EmError::MemoryExceeded { pid, need: mem, m: cfg.mem_bytes });
                }

                // (d) messages out (staggered format, FIFO-packed)
                let g = span(round, Phase::MatrixWrite);
                rc.max_sent = rc.max_sent.max(out_items);
                rc.total_items += out_items;
                let sent = outbox.into_sparse();
                for (_, msg) in &sent {
                    rc.max_message = rc.max_message.max(msg.len());
                    rc.min_message = rc.min_message.min(msg.len());
                }
                let entries: Vec<(usize, usize, &[P::Msg])> =
                    sent.iter().map(|&(dst, ref msg)| (pid, dst, msg.as_slice())).collect();
                let ops0 = disks.stats().total_ops();
                mat_next.write_batch(&mut disks, &entries)?;
                breakdown.msg_ops += disks.stats().total_ops() - ops0;
                if pid + 1 == v {
                    // Boundary read-ahead, inbox half: every dst-0 slot
                    // of next superstep's matrix now exists, so the hint
                    // covers the first vp's full inbox (uncounted).
                    disks.prefetch(&mat_next.read_addrs_for_dst(0));
                }
                drop(g);

                // (e) context out
                let g = span(round, Phase::CtxLoad);
                state.encode_to_vec(&mut enc_buf);
                max_ctx = max_ctx.max(enc_buf.len());
                let ops0 = disks.stats().total_ops();
                ctx_store.write(&mut disks, pid, &enc_buf)?;
                breakdown.ctx_ops += disks.stats().total_ops() - ops0;
                drop(g);
            }

            // Superstep barrier: drain write-behind, apply the durability
            // policy, surface any deferred write error. Uncounted. When a
            // checkpoint is due the flush also fsyncs, so the manifest
            // never describes data still in volatile caches.
            let want_ckpt = cfg.checkpoint_dir.is_some() || cfg.halt_after_superstep == Some(round);
            {
                let _g = span(round, Phase::Barrier);
                disks.flush(want_ckpt)?;
            }

            rc.max_received = mat_next.max_received_items();
            if rc.min_message == usize::MAX {
                rc.min_message = 0;
            }
            let round_cost = rc;
            let sent_any = round_cost.total_items > 0;
            if sent_any || n_done < v {
                costs.rounds.push(round_cost);
            }
            if n_done == v {
                if sent_any {
                    return Err(ModelError::MessagesAfterDone.into());
                }
                break;
            }
            if n_done != 0 {
                return Err(ModelError::StatusDisagreement { round }.into());
            }

            if want_ckpt {
                let _g = span(round, Phase::Checkpoint);
                let mut io = base_io.clone();
                io.merge(disks.stats());
                let manifest = CheckpointManifest {
                    config_hash: cfg.config_hash(),
                    v,
                    p: 1,
                    superstep: round,
                    max_ctx_bytes_seen: max_ctx,
                    cross_items: 0,
                    rounds: costs.rounds.clone(),
                    workers: vec![WorkerCheckpoint {
                        worker: 0,
                        ctx_lens: ctx_store.lens_rle(),
                        inbox_lens: mats[1 - cur].sparse_lens(),
                        io,
                        breakdown,
                        peak_mem,
                    }],
                };
                if let Some(dir) = &cfg.checkpoint_dir {
                    manifest.save(&CheckpointManifest::path_in(dir)).map_err(|e| {
                        EmError::Io(IoError::Backend(format!("saving checkpoint: {e}")))
                    })?;
                }
                if cfg.halt_after_superstep == Some(round) {
                    return Ok(RunOutcome::Interrupted(Checkpoint {
                        manifest,
                        disks: vec![(disks, trace)],
                    }));
                }
            }

            // Feedback tuning: read this superstep's window of the
            // stall/queue-wait histograms and pick the next superstep's
            // pipeline depth and prefetch window. Runs after the
            // barrier (inflight window drained, write-behind flushed)
            // and before the next round's priming, so the knobs only
            // ever move at an accounting-safe boundary.
            if let (Some(ctl), Some(o)) = (tuner.as_mut(), cfg.obs.as_ref()) {
                let _g = span(round, Phase::Tune);
                let now = o.snapshot();
                let delta = match &prev_snap {
                    Some(prev) => now.delta_since(prev),
                    None => now.clone(),
                };
                prev_snap = Some(now);
                let signals = cgmio_tune::WindowSignals::from_delta(&delta, 0);
                let action = ctl.observe(&signals);
                depth = ctl.depth().min(v);
                if let Some(cap) = &prefetch_cap {
                    cap.store(ctl.prefetch_blocks(), std::sync::atomic::Ordering::Relaxed);
                }
                if let Some((gd, gp)) = &tune_gauges {
                    gd.set(depth as i64);
                    gp.set(ctl.prefetch_blocks() as i64);
                }
                o.metrics()
                    .counter(
                        "cgmio_tune_decisions_total",
                        &[("proc", "0".into()), ("action", action.name().into())],
                    )
                    .inc();
                if let Some(log) = &cfg.autotune.log {
                    log.push(cgmio_tune::Decision {
                        proc: 0,
                        superstep: round as u64,
                        signals,
                        action,
                        depth,
                        prefetch_blocks: ctl.prefetch_blocks(),
                    });
                }
            }

            mats[cur].clear();
            round += 1;
        }
        let wall = t0.elapsed();
        costs.max_context_bytes = max_ctx;

        // Final readout.
        let g = span(round, Phase::Readout);
        let ops0 = disks.stats().total_ops();
        let mut finals = Vec::with_capacity(v);
        for pid in 0..v {
            ctx_store.read_into(&mut disks, pid, &mut ctx_buf)?;
            finals.push(
                P::State::try_from_bytes(&ctx_buf).map_err(|e| ctx_store.corrupt_error(pid, e))?,
            );
        }
        breakdown.readout_ops = disks.stats().total_ops() - ops0;
        drop(g);

        let mut io = base_io;
        io.merge(disks.stats());
        let report = EmRunReport {
            costs,
            io,
            breakdown,
            geometry: geom,
            p: 1,
            v,
            peak_mem_bytes: peak_mem,
            cross_thread_items: 0,
            wall,
            io_trace: trace.map(|t| t.drain()).unwrap_or_default(),
            faults: faults.map(|s| s.counts().diff(base_faults.unwrap_or_default())),
            retries: retries.get().saturating_sub(base_retries),
            deferred_write_errors_dropped: deferred_drops.get().saturating_sub(base_deferred_drops),
        };
        Ok(RunOutcome::Complete { finals, report })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::measure_requirements;
    use cgmio_model::demo::{AllToAll, AllToOne, PrefixSum, TokenRing};
    use cgmio_model::DirectRunner;
    use cgmio_routing::Balanced;

    fn config_for<P: CgmProgram>(
        prog: &P,
        states: Vec<P::State>,
        v: usize,
        d: usize,
        bb: usize,
    ) -> EmConfig {
        let (_, _, req) = measure_requirements(prog, states).unwrap();
        EmConfig::from_requirements(v, 1, d, bb, &req)
    }

    #[test]
    fn matches_direct_on_all_to_all() {
        let v = 6;
        let prog = AllToAll { items_per_pair: 7 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let (want, want_costs) = DirectRunner::default().run(&prog, init()).unwrap();
        for d in [1usize, 2, 4] {
            let cfg = config_for(&prog, init(), v, d, 32);
            let (got, rep) = SeqEmRunner::new(cfg).run(&prog, init()).unwrap();
            assert_eq!(got, want, "D={d}");
            assert_eq!(rep.costs.lambda(), want_costs.lambda());
            assert_eq!(rep.costs.max_h(), want_costs.max_h());
            assert!(rep.breakdown.msg_ops > 0);
            assert!(rep.breakdown.ctx_ops > 0);
        }
    }

    #[test]
    fn matches_direct_on_prefix_sum() {
        let v = 5;
        let init = || {
            (0..v as u64)
                .map(|i| ((0..=i).map(|x| x * x).collect::<Vec<u64>>(), Vec::new()))
                .collect::<Vec<_>>()
        };
        let (want, _) = DirectRunner::default().run(&PrefixSum, init()).unwrap();
        let cfg = config_for(&PrefixSum, init(), v, 2, 16);
        let (got, _) = SeqEmRunner::new(cfg).run(&PrefixSum, init()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn matches_direct_on_token_ring_many_rounds() {
        let v = 4;
        let prog = TokenRing { rounds: 9 };
        let init = || (0..v as u64).map(|i| vec![i]).collect::<Vec<_>>();
        let (want, _) = DirectRunner::default().run(&prog, init()).unwrap();
        let cfg = config_for(&prog, init(), v, 2, 16);
        let (got, rep) = SeqEmRunner::new(cfg).run(&prog, init()).unwrap();
        assert_eq!(got, want);
        assert_eq!(rep.costs.lambda(), 9);
    }

    #[test]
    fn balanced_wrapper_runs_in_em() {
        let v = 6;
        let plain = AllToOne { items_per_proc: 24 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let (want, _) = DirectRunner::default().run(&plain, init()).unwrap();
        let bal = Balanced::new(plain);
        let cfg = config_for(&bal, init(), v, 2, 64);
        let (got, _) = SeqEmRunner::new(cfg).run(&bal, init()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn slot_overflow_is_reported() {
        let v = 4;
        let prog = AllToOne { items_per_proc: 50 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let mut cfg = config_for(&prog, init(), v, 1, 32);
        cfg.msg_slot_items = 10; // too small for the 50-item message
        let e = SeqEmRunner::new(cfg).run(&prog, init()).unwrap_err();
        assert!(matches!(e, EmError::MsgSlotOverflow { len: 50, slot: 10, .. }));
    }

    #[test]
    fn strict_memory_bound_enforced() {
        let v = 4;
        let prog = AllToAll { items_per_pair: 16 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let mut cfg = config_for(&prog, init(), v, 1, 32);
        cfg.strict = true;
        cfg.mem_bytes = cfg.num_disks * cfg.block_bytes; // absurdly small but structurally valid
        let e = SeqEmRunner::new(cfg).run(&prog, init()).unwrap_err();
        assert!(matches!(e, EmError::MemoryExceeded { .. }));
    }

    #[test]
    fn io_scales_linearly_in_data_not_superlinearly() {
        // Doubling N should roughly double algorithm I/O ops (the
        // O(N/(DB)) claim), not more.
        let v = 4;
        let d = 2;
        let run = |items: usize| {
            let prog = AllToAll { items_per_pair: items };
            let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
            let cfg = config_for(&prog, init(), v, d, 64);
            let (_, rep) = SeqEmRunner::new(cfg).run(&prog, init()).unwrap();
            rep.breakdown.algorithm_ops()
        };
        let small = run(64);
        let big = run(128);
        assert!(big <= small * 2 + 8, "small={small} big={big}");
        assert!(big >= small, "small={small} big={big}");
    }

    #[test]
    fn concurrent_backend_matches_mem_exactly() {
        // The asynchronous pipeline (read-ahead + write-behind) must not
        // change results, I/O counts, or the op breakdown — only
        // wall-clock behaviour.
        let v = 6;
        let prog = AllToAll { items_per_pair: 7 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let base_cfg = config_for(&prog, init(), v, 2, 32);
        let (want, want_rep) = SeqEmRunner::new(base_cfg.clone()).run(&prog, init()).unwrap();

        let dir = cgmio_pdm::testutil::TempDir::new("cgmio-seq-backends");
        let backends = [
            crate::BackendSpec::SyncFile { dir: dir.path().join("sync") },
            crate::BackendSpec::Concurrent { dir: None, opts: Default::default() },
            crate::BackendSpec::Concurrent {
                dir: Some(dir.path().join("conc")),
                opts: cgmio_io::IoEngineOpts {
                    durability: cgmio_io::Durability::SyncPerSuperstep,
                    trace: true,
                    ..Default::default()
                },
            },
        ];
        for backend in backends {
            let mut cfg = base_cfg.clone();
            cfg.backend = backend;
            let (got, rep) = SeqEmRunner::new(cfg).run(&prog, init()).unwrap();
            assert_eq!(got, want);
            assert_eq!(rep.io, want_rep.io);
            assert_eq!(rep.breakdown, want_rep.breakdown);
        }
    }

    #[test]
    fn concurrent_backend_emits_trace() {
        let v = 4;
        let prog = AllToAll { items_per_pair: 4 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let mut cfg = config_for(&prog, init(), v, 2, 32);
        cfg.backend = crate::BackendSpec::Concurrent {
            dir: None,
            opts: cgmio_io::IoEngineOpts { trace: true, ..Default::default() },
        };
        let (_, rep) = SeqEmRunner::new(cfg).run(&prog, init()).unwrap();
        let summary = cgmio_io::summarize(&rep.io_trace);
        // every counted block transfer appears as a physical event
        assert_eq!(summary.reads as u64, rep.io.blocks_read);
        assert_eq!(summary.writes as u64, rep.io.blocks_written);
        assert!(summary.prefetches > 0, "read-ahead hints must reach the engine");
        assert!(summary.cache_hits > 0, "prefetched blocks must satisfy demand reads");
    }

    #[test]
    fn halt_resume_in_process_matches_uninterrupted() {
        let v = 4;
        let prog = TokenRing { rounds: 5 };
        let init = || (0..v as u64).map(|i| vec![i]).collect::<Vec<_>>();
        let cfg = config_for(&prog, init(), v, 2, 16);
        let (want, want_rep) = SeqEmRunner::new(cfg.clone()).run(&prog, init()).unwrap();
        for halt in 0..4 {
            let mut hcfg = cfg.clone();
            hcfg.halt_after_superstep = Some(halt);
            let ckpt = match SeqEmRunner::new(hcfg).run_until(&prog, init()).unwrap() {
                RunOutcome::Interrupted(c) => c,
                RunOutcome::Complete { .. } => panic!("expected halt at superstep {halt}"),
            };
            assert_eq!(ckpt.manifest.superstep, halt);
            let (finals, rep) =
                SeqEmRunner::new(cfg.clone()).resume(&prog, ckpt).unwrap().expect_complete();
            assert_eq!(finals, want, "halt={halt}");
            assert_eq!(rep.io, want_rep.io, "halt={halt}");
            assert_eq!(rep.breakdown, want_rep.breakdown, "halt={halt}");
            assert_eq!(rep.costs.lambda(), want_rep.costs.lambda(), "halt={halt}");
        }
    }

    #[test]
    fn resume_from_manifest_on_files_matches_uninterrupted() {
        let v = 5;
        let prog = TokenRing { rounds: 6 };
        let init = || (0..v as u64).map(|i| vec![i]).collect::<Vec<_>>();
        let (want, want_rep) = {
            let cfg = config_for(&prog, init(), v, 2, 16);
            SeqEmRunner::new(cfg).run(&prog, init()).unwrap()
        };
        let dir = cgmio_pdm::testutil::TempDir::new("cgmio-seq-resume");
        let mut cfg = config_for(&prog, init(), v, 2, 16);
        cfg.backend = crate::BackendSpec::SyncFile { dir: dir.path().join("drives") };
        cfg.checkpoint_dir = Some(dir.path().to_path_buf());
        cfg.halt_after_superstep = Some(2);
        match SeqEmRunner::new(cfg.clone()).run_until(&prog, init()).unwrap() {
            // "Crash": drop the live state, keep only the files.
            RunOutcome::Interrupted(c) => drop(c),
            RunOutcome::Complete { .. } => panic!("expected halt"),
        }
        let manifest = CheckpointManifest::load(&CheckpointManifest::path_in(dir.path())).unwrap();
        assert_eq!(manifest.superstep, 2);
        cfg.halt_after_superstep = None;
        let (finals, rep) =
            SeqEmRunner::new(cfg).resume_from(&prog, &manifest).unwrap().expect_complete();
        assert_eq!(finals, want);
        assert_eq!(rep.io, want_rep.io);
        assert_eq!(rep.breakdown, want_rep.breakdown);
        assert_eq!(rep.costs.lambda(), want_rep.costs.lambda());
    }

    #[test]
    fn resume_rejects_mismatched_config() {
        let v = 4;
        let prog = TokenRing { rounds: 4 };
        let init = || (0..v as u64).map(|i| vec![i]).collect::<Vec<_>>();
        let mut cfg = config_for(&prog, init(), v, 2, 16);
        cfg.halt_after_superstep = Some(1);
        let ckpt = match SeqEmRunner::new(cfg.clone()).run_until(&prog, init()).unwrap() {
            RunOutcome::Interrupted(c) => c,
            RunOutcome::Complete { .. } => panic!("expected halt"),
        };
        let mut other = cfg.clone();
        other.block_bytes = 32; // different layout
        let e = SeqEmRunner::new(other).resume(&prog, ckpt).unwrap_err();
        assert!(matches!(e, EmError::BadConfig(_)), "got {e:?}");
    }

    #[test]
    fn run_maps_halt_to_interrupted_error() {
        let v = 4;
        let prog = TokenRing { rounds: 4 };
        let init = || (0..v as u64).map(|i| vec![i]).collect::<Vec<_>>();
        let mut cfg = config_for(&prog, init(), v, 2, 16);
        cfg.halt_after_superstep = Some(1);
        let e = SeqEmRunner::new(cfg).run(&prog, init()).unwrap_err();
        assert_eq!(e, EmError::Interrupted { superstep: 1 });
    }

    #[test]
    fn injected_transient_faults_heal_without_changing_results() {
        let v = 6;
        let prog = AllToAll { items_per_pair: 7 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let cfg = config_for(&prog, init(), v, 2, 32);
        let (want, want_rep) = SeqEmRunner::new(cfg.clone()).run(&prog, init()).unwrap();

        let stats = std::sync::Arc::new(cgmio_pdm::FaultStats::default());
        let mut fcfg = cfg.clone();
        fcfg.fault = Some(cgmio_pdm::FaultPlan::transient(7, 0.05).with_observer(stats.clone()));
        fcfg.retry = cgmio_io::RetryPolicy { max_attempts: 6, base_backoff_us: 0 };
        let (got, rep) = SeqEmRunner::new(fcfg).run(&prog, init()).unwrap();
        assert_eq!(got, want);
        // Retries are recovery traffic, not model I/O: counts unchanged.
        assert_eq!(rep.io, want_rep.io);
        assert!(stats.counts().total_errors() > 0, "no faults were injected");
        // The same counts are first-class in the report, plus the
        // retries that healed them.
        assert_eq!(rep.faults, Some(stats.counts()));
        assert!(rep.retries > 0, "transient faults must have been retried");
    }

    #[test]
    fn fault_counts_reported_without_explicit_observer() {
        let v = 4;
        let prog = AllToAll { items_per_pair: 5 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let mut cfg = config_for(&prog, init(), v, 2, 32);
        cfg.fault = Some(cgmio_pdm::FaultPlan::transient(9, 0.05));
        cfg.retry = cgmio_io::RetryPolicy { max_attempts: 6, base_backoff_us: 0 };
        let (_, rep) = SeqEmRunner::new(cfg).run(&prog, init()).unwrap();
        let f = rep.faults.expect("fault plan set => counts reported");
        assert!(f.total_errors() > 0);
        assert_eq!(rep.retries, f.read_transient + f.write_transient + f.torn_writes);
    }

    #[test]
    fn obs_spans_and_metrics_leave_io_stats_untouched() {
        let v = 5;
        let prog = AllToAll { items_per_pair: 6 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let base_cfg = config_for(&prog, init(), v, 2, 32);
        let (want, want_rep) = SeqEmRunner::new(base_cfg.clone()).run(&prog, init()).unwrap();

        let obs = cgmio_obs::Obs::new();
        let mut cfg = base_cfg.clone();
        cfg.obs = Some(obs.clone());
        cfg.backend = crate::BackendSpec::Concurrent {
            dir: None,
            opts: cgmio_io::IoEngineOpts { trace: true, ..Default::default() },
        };
        let (got, rep) = SeqEmRunner::new(cfg).run(&prog, init()).unwrap();
        assert_eq!(got, want);
        assert_eq!(rep.io, want_rep.io, "observability must not change accounting");
        assert_eq!(rep.breakdown, want_rep.breakdown);

        // Every instrumented phase of the superstep loop left spans…
        let phases: std::collections::BTreeSet<Phase> =
            obs.spans().iter().map(|s| s.phase).collect();
        for ph in [
            Phase::Setup,
            Phase::CtxLoad,
            Phase::MatrixRead,
            Phase::Rounds,
            Phase::MatrixWrite,
            Phase::Barrier,
            Phase::Readout,
        ] {
            assert!(phases.contains(&ph), "missing {ph} span");
        }
        // …and the trace events carry runner-published phases.
        assert!(
            rep.io_trace.iter().any(|e| e.phase == Phase::MatrixWrite),
            "trace events must be stamped with the active phase"
        );
        // Per-drive service histograms landed in the registry.
        let snap = obs.snapshot();
        assert!(
            snap.get("cgmio_io_service_us", &[("drive", "0"), ("kind", "write"), ("proc", "0")])
                .is_some(),
            "per-drive service histogram missing"
        );
    }

    #[test]
    fn fully_parallel_io_with_balanced_traffic() {
        // With equal-size block-multiple messages and contexts, nearly
        // every op should use all D disks.
        let v = 4;
        let d = 4;
        let prog = AllToAll { items_per_pair: 8 }; // 64-byte msgs = 2 blocks of 32
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let cfg = config_for(&prog, init(), v, d, 32);
        let (_, rep) = SeqEmRunner::new(cfg).run(&prog, init()).unwrap();
        assert!(
            rep.io.parallel_efficiency() > 0.5,
            "efficiency = {}",
            rep.io.parallel_efficiency()
        );
    }
}
