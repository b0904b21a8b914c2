//! Kill-and-resume property: halting an EM run at *any* superstep
//! barrier and resuming from the checkpoint reproduces the
//! uninterrupted run's final states and exact I/O accounting — across
//! storage backends (in-memory, synchronous files, the concurrent
//! engine) and across both runners (Algorithm 2 and Algorithm 3).
//!
//! This is the correctness contract behind `docs/OPERATIONS.md` §
//! "Resuming an interrupted run": the on-disk contexts and inboxes at a
//! barrier *are* the checkpoint, so no state can be lost between the
//! manifest and the data.

use proptest::prelude::*;

use cgmio_algos::graphs::{CgmListRank, ListRankState};
use cgmio_core::{
    measure_requirements, BackendSpec, Checkpoint, CheckpointManifest, EmConfig, EmRunReport,
    ParEmRunner, RunOutcome, SeqEmRunner,
};
use cgmio_io::IoEngineOpts;
use cgmio_model::demo::TokenRing;
use cgmio_pdm::testutil::TempDir;

fn mk_states(v: usize) -> Vec<Vec<u64>> {
    (0..v as u64).map(|i| vec![i]).collect()
}

fn config(prog: &TokenRing, v: usize, p: usize) -> EmConfig {
    let (_, _, req) = measure_requirements(prog, mk_states(v)).unwrap();
    EmConfig::from_requirements(v, p, 2, 64, &req)
}

/// Check a resumed run against the uninterrupted reference.
fn assert_same<S: PartialEq + std::fmt::Debug>(
    tag: &str,
    (finals, rep): &(Vec<S>, EmRunReport),
    (want, want_rep): &(Vec<S>, EmRunReport),
) {
    assert_eq!(finals, want, "{tag}: final states differ");
    assert_eq!(rep.io, want_rep.io, "{tag}: IoStats differ");
    assert_eq!(rep.breakdown, want_rep.breakdown, "{tag}: I/O breakdown differs");
    assert_eq!(rep.costs.lambda(), want_rep.costs.lambda(), "{tag}: superstep count differs");
}

/// Kill `cfg`'s run at superstep `halt`, resume, and return the result.
/// `persist = true` drops the live checkpoint and resumes from the
/// manifest file alone (crash recovery); `false` resumes the in-process
/// checkpoint (works on any backend, including pure memory).
fn kill_and_resume(
    prog: &TokenRing,
    cfg: &EmConfig,
    v: usize,
    halt: usize,
    persist: Option<&std::path::Path>,
) -> (Vec<Vec<u64>>, EmRunReport) {
    let mut hcfg = cfg.clone();
    hcfg.halt_after_superstep = Some(halt);
    hcfg.checkpoint_dir = persist.map(|d| d.to_path_buf());
    let ckpt = match SeqEmRunner::new(hcfg).run_until(prog, mk_states(v)).unwrap() {
        RunOutcome::Interrupted(c) => c,
        RunOutcome::Complete { .. } => panic!("run did not halt at superstep {halt}"),
    };
    assert_eq!(ckpt.manifest.superstep, halt);
    match persist {
        Some(dir) => {
            drop(ckpt); // the "crash": only the files survive
            let manifest = CheckpointManifest::load(&CheckpointManifest::path_in(dir)).unwrap();
            SeqEmRunner::new(cfg.clone()).resume_from(prog, &manifest).unwrap().expect_complete()
        }
        None => SeqEmRunner::new(cfg.clone()).resume(prog, ckpt).unwrap().expect_complete(),
    }
}

/// Fault and retry totals surface in both runners' final reports, and a
/// crash-recovered run reports the counters of its own window (the
/// pre-crash portion's injector handles die with the crash — resumed
/// runs count from the barrier they restart at).
#[test]
fn fault_and_retry_totals_appear_in_reports() {
    let (v, rounds) = (6usize, 4usize);
    let prog = TokenRing { rounds };
    let retry = cgmio_io::RetryPolicy { max_attempts: 6, base_backoff_us: 0 };

    for p in [1usize, 3] {
        let mut cfg = config(&prog, v, p);
        cfg.fault = Some(cgmio_pdm::FaultPlan::transient(11, 0.1));
        cfg.retry = retry;
        let (_, rep) = if p == 1 {
            SeqEmRunner::new(cfg).run(&prog, mk_states(v)).unwrap()
        } else {
            ParEmRunner::new(cfg).run(&prog, mk_states(v)).unwrap()
        };
        let f = rep.faults.expect("fault plan set, report must carry counts");
        assert!(f.total_errors() > 0, "p={p}: seeded plan injected nothing");
        // On the synchronous backends every healed transient fault is
        // exactly one RetryStorage retry.
        assert_eq!(
            rep.retries,
            f.read_transient + f.write_transient + f.torn_writes,
            "p={p}: retries must match healed transient faults"
        );
    }

    // Crash recovery: the resumed run rebuilds its injectors, so its
    // report counts only the post-resume window — present, not None.
    let dir = TempDir::new("cgmio-ckpt-fault-report");
    let mut fcfg = config(&prog, v, 1);
    fcfg.backend = BackendSpec::SyncFile { dir: dir.path().join("drives") };
    fcfg.fault = Some(cgmio_pdm::FaultPlan::transient(11, 0.1));
    fcfg.retry = retry;
    let (_, rep) = kill_and_resume(&prog, &fcfg, v, 1, Some(dir.path()));
    let f = rep.faults.expect("crash recovery rebuilds injectors, counts must be present");
    assert_eq!(rep.retries, f.read_transient + f.write_transient + f.torn_writes);
}

/// Where a list-ranking run starts: fresh, from a live checkpoint, or
/// from a manifest on disk.
enum Start<'a> {
    Fresh(Vec<ListRankState>),
    Live(Checkpoint),
    Manifest(&'a CheckpointManifest),
}

/// Run [`CgmListRank`] from `start` on the runner `cfg.p` calls for:
/// Algorithm 2 at p = 1, Algorithm 3 otherwise.
fn list_rank(cfg: EmConfig, start: Start<'_>) -> RunOutcome<ListRankState> {
    let prog = CgmListRank;
    let res = match (cfg.p, start) {
        (1, Start::Fresh(s)) => SeqEmRunner::new(cfg).run_until(&prog, s),
        (1, Start::Live(c)) => SeqEmRunner::new(cfg).resume(&prog, c),
        (1, Start::Manifest(m)) => SeqEmRunner::new(cfg).resume_from(&prog, m),
        (_, Start::Fresh(s)) => ParEmRunner::new(cfg).run_until(&prog, s),
        (_, Start::Live(c)) => ParEmRunner::new(cfg).resume(&prog, c),
        (_, Start::Manifest(m)) => ParEmRunner::new(cfg).resume_from(&prog, m),
    };
    res.unwrap()
}

/// List ranking matches replies to requests by position, so a resumed
/// reply or apply round must see exactly the inbox the interrupted run
/// wrote. Halt after every superstep — request and reply parities
/// alike — on both runners, resume in-process on memory and from the
/// manifest on async drive files, and demand the uninterrupted run's
/// finals, `IoStats` and breakdown.
#[test]
fn list_ranking_kill_resume_every_superstep() {
    let (n, v) = (300usize, 4usize);
    let (succ, _) = cgmio_data::random_list(n, 5);
    let states = || -> Vec<ListRankState> {
        cgmio_data::block_split(succ.clone(), v)
            .into_iter()
            .map(|b| (vec![n as u64], b, Vec::new()))
            .collect()
    };
    let (_, _, req) = measure_requirements(&CgmListRank, states()).unwrap();
    for p in [1usize, 2] {
        let cfg = EmConfig::from_requirements(v, p, 2, 64, &req);
        let want = list_rank(cfg.clone(), Start::Fresh(states())).expect_complete();
        let lambda = want.1.costs.lambda();
        assert!(lambda > 4, "p={p}: too few supersteps to cover both parities");
        for halt in 0..lambda {
            let tag = format!("p={p} halt={halt}");
            let mut hcfg = cfg.clone();
            hcfg.halt_after_superstep = Some(halt);
            let ckpt = match list_rank(hcfg, Start::Fresh(states())) {
                RunOutcome::Interrupted(c) => c,
                RunOutcome::Complete { .. } => panic!("{tag}: run did not halt"),
            };
            assert_eq!(ckpt.manifest.superstep, halt, "{tag}");
            let got = list_rank(cfg.clone(), Start::Live(ckpt)).expect_complete();
            assert_same(&format!("{tag} mem"), &got, &want);

            // Crash recovery: only the drive files and the manifest survive.
            let dir = TempDir::new("cgmio-ckpt-listrank");
            let mut fcfg = cfg.clone();
            fcfg.backend = BackendSpec::AsyncFile {
                dir: dir.path().join("drives"),
                opts: IoEngineOpts::default(),
            };
            fcfg.checkpoint_dir = Some(dir.path().to_path_buf());
            fcfg.halt_after_superstep = Some(halt);
            match list_rank(fcfg.clone(), Start::Fresh(states())) {
                RunOutcome::Interrupted(c) => drop(c),
                RunOutcome::Complete { .. } => panic!("{tag}: file run did not halt"),
            }
            let manifest =
                CheckpointManifest::load(&CheckpointManifest::path_in(dir.path())).unwrap();
            fcfg.halt_after_superstep = None;
            let got = list_rank(fcfg, Start::Manifest(&manifest)).expect_complete();
            assert_same(&format!("{tag} async-file"), &got, &want);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sequential runner (Algorithm 2): kill at an arbitrary superstep
    /// on every backend; the resumed run must be byte- and
    /// counter-identical to the uninterrupted one.
    #[test]
    fn seq_kill_resume_exact_across_backends(
        v in 3usize..7,
        rounds in 3usize..6,
        halt_pick in 0usize..16,
    ) {
        let prog = TokenRing { rounds };
        let halt = halt_pick % (rounds - 1); // any barrier before the last
        let cfg = config(&prog, v, 1);
        let want = SeqEmRunner::new(cfg.clone()).run(&prog, mk_states(v)).unwrap();

        // In-memory backend: in-process resume (nothing persisted).
        let got = kill_and_resume(&prog, &cfg, v, halt, None);
        assert_same("mem", &got, &want);

        // Synchronous files: crash recovery from the manifest alone.
        let dir = TempDir::new("cgmio-ckpt-prop-sync");
        let mut fcfg = cfg.clone();
        fcfg.backend = BackendSpec::SyncFile { dir: dir.path().join("drives") };
        let got = kill_and_resume(&prog, &fcfg, v, halt, Some(dir.path()));
        assert_same("sync-file", &got, &want);

        // Concurrent engine over files: crash recovery again.
        let dir = TempDir::new("cgmio-ckpt-prop-conc");
        let mut ccfg = cfg.clone();
        ccfg.backend = BackendSpec::Concurrent {
            dir: Some(dir.path().join("drives")),
            opts: IoEngineOpts::default(),
        };
        let got = kill_and_resume(&prog, &ccfg, v, halt, Some(dir.path()));
        assert_same("concurrent", &got, &want);
    }

    /// Parallel runner (Algorithm 3): same property with p > 1 workers,
    /// each with its own disk array and manifest entry.
    #[test]
    fn par_kill_resume_exact(
        v in 4usize..8,
        p in 2usize..4,
        rounds in 3usize..6,
        halt_pick in 0usize..16,
    ) {
        let prog = TokenRing { rounds };
        let halt = halt_pick % (rounds - 1);
        let cfg = config(&prog, v, p);
        let want = ParEmRunner::new(cfg.clone()).run(&prog, mk_states(v)).unwrap();

        // In-process resume on the memory backend.
        let mut hcfg = cfg.clone();
        hcfg.halt_after_superstep = Some(halt);
        let ckpt = match ParEmRunner::new(hcfg).run_until(&prog, mk_states(v)).unwrap() {
            RunOutcome::Interrupted(c) => c,
            RunOutcome::Complete { .. } => panic!("run did not halt at superstep {halt}"),
        };
        prop_assert_eq!(ckpt.manifest.superstep, halt);
        let got =
            ParEmRunner::new(cfg.clone()).resume(&prog, ckpt).unwrap().expect_complete();
        assert_same("par-mem", &got, &want);

        // Crash recovery from files.
        let dir = TempDir::new("cgmio-ckpt-prop-par");
        let mut fcfg = cfg.clone();
        fcfg.backend = BackendSpec::SyncFile { dir: dir.path().join("drives") };
        fcfg.checkpoint_dir = Some(dir.path().to_path_buf());
        fcfg.halt_after_superstep = Some(halt);
        match ParEmRunner::new(fcfg.clone()).run_until(&prog, mk_states(v)).unwrap() {
            RunOutcome::Interrupted(c) => drop(c),
            RunOutcome::Complete { .. } => panic!("run did not halt at superstep {halt}"),
        }
        let manifest =
            CheckpointManifest::load(&CheckpointManifest::path_in(dir.path())).unwrap();
        prop_assert_eq!(manifest.workers.len(), p.min(v));
        fcfg.halt_after_superstep = None;
        let got =
            ParEmRunner::new(fcfg).resume_from(&prog, &manifest).unwrap().expect_complete();
        assert_same("par-sync-file", &got, &want);
    }
}
