//! The repository benchmark: time to solution and exact I/O of the
//! EM-CGM simulation on three workloads, plus a traced run that splits
//! the time by layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --tmp <dir> [--commit <id>]
//! ```
//!
//! The process generates its input from the seed, then repeats "set up,
//! run, check" until `--seconds` have passed (after one warm-up
//! repetition that is checked but not timed). Every repetition is one
//! attempted operation; a wrong answer, a changed `io_ops` or an error
//! counts as failed. Drive files and checkpoint manifests live in a fresh
//! directory under `--tmp` per repetition, deleted afterwards.
//!
//! `--trace 0` reports the end-to-end metrics: medians of `run_s` and
//! `setup_s`, the exact `io_ops`, and the process's `peak_rss_bytes`
//! after the warm-up.
//! `--trace 1` alternates untraced and traced repetitions and reports
//! per-layer metrics, timed from outside through the adapters in
//! [`layers`], together with the reference baselines and the tracing
//! overhead. The last line of standard output is the result object; the
//! line before it records the run's metadata.

mod alloc;
mod layers;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cgmio_algos::graphs::CgmListRank;
use cgmio_algos::CgmSort;
use cgmio_core::{
    measure_requirements, BackendSpec, EmConfig, EmError, EmRunReport, ParEmRunner, SeqEmRunner,
};
use cgmio_io::IoEngineOpts;
use cgmio_model::{CgmProgram, DirectRunner};
use cgmio_obs::Obs;
use cgmio_pdm::{DiskTimingModel, FaultPlan, Item};
use cgmio_tune::{Autotune, DecisionLog, TuneAction};

use layers::{Engine, TimedProgram, Workers};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Seed of the modelled device's latency plan (every op sleeps, so the
/// seed only fixes the roll sequence).
const FAULT_SEED: u64 = 7;

/// The runner phases `cgmio_phase_us` splits a run into.
const PHASES: [&str; 10] = [
    "setup",
    "ctx_load",
    "matrix_read",
    "rounds",
    "route",
    "matrix_write",
    "barrier",
    "checkpoint",
    "readout",
    "tune",
];

enum Kind {
    Sort,
    ListRank,
}

/// One workload: the algorithm, the input size and the machine it runs on.
struct Spec {
    name: &'static str,
    kind: Kind,
    n: usize,
    v: usize,
    p: usize,
    d: usize,
    bb: usize,
    /// Drive files through the async reactors (else in-memory tracks).
    file: bool,
    /// Modelled device latency per track op, microseconds (0: none).
    spike_us: u64,
    /// Pipeline depth; with `autotune` the planner's depth replaces it.
    depth: usize,
    autotune: bool,
    checkpoint: bool,
}

const SPECS: [Spec; 3] = [
    Spec {
        name: "sort_mem",
        kind: Kind::Sort,
        n: 1 << 22,
        v: 16,
        p: 1,
        d: 4,
        bb: 32 << 10,
        file: false,
        spike_us: 0,
        depth: 0,
        autotune: false,
        checkpoint: false,
    },
    Spec {
        name: "sort_file_lat30",
        kind: Kind::Sort,
        n: 1 << 20,
        v: 16,
        p: 1,
        d: 4,
        bb: 4 << 10,
        file: true,
        spike_us: 30,
        depth: 0,
        autotune: true,
        checkpoint: false,
    },
    Spec {
        name: "listrank_file_ckpt",
        kind: Kind::ListRank,
        n: 1 << 18,
        v: 16,
        p: 2,
        d: 4,
        bb: 8 << 10,
        file: true,
        spike_us: 0,
        depth: 2,
        autotune: false,
        checkpoint: true,
    },
];

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    tmp: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k.strip_prefix("--").ok_or(format!("unexpected argument {k}"))?;
        let val = it.next().ok_or(format!("--{key} needs a value"))?;
        kv.insert(key.to_string(), val);
    }
    let get = |k: &str| kv.get(k).cloned().ok_or(format!("missing --{k}"));
    let name = get("workload")?;
    let spec = SPECS.iter().find(|s| s.name == name).ok_or(format!(
        "unknown workload {name}; one of sort_mem, sort_file_lat30, listrank_file_ckpt"
    ))?;
    let num = |k: &str| get(k)?.parse::<f64>().map_err(|e| format!("--{k}: {e}"));
    Ok(Args {
        spec,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: num("seconds")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got {t}")),
        },
        tmp: PathBuf::from(get("tmp")?),
        commit: kv.get("commit").cloned().unwrap_or_else(|| "unknown".into()),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let spec = args.spec;
    let out = match spec.kind {
        Kind::Sort => {
            let keys = cgmio_data::uniform_u64(spec.n, args.seed);
            let mut want = keys.clone();
            want.sort_unstable();
            let input: Vec<_> = cgmio_data::block_split(keys.clone(), spec.v)
                .into_iter()
                .map(|b| (b, Vec::new()))
                .collect();
            let check = |fin: &[(Vec<u64>, Vec<u64>)]| {
                fin.iter().flat_map(|(b, _)| b.iter()).eq(want.iter())
            };
            let baseline = || {
                let mut k = keys.clone();
                let t = Instant::now();
                k.sort_unstable();
                let el = t.elapsed();
                (el, k == want)
            };
            bench(
                &args,
                &CgmSort::<u64>::by_pivots(),
                input,
                &check,
                ("baselines.std_sort_us", &baseline),
            )
        }
        Kind::ListRank => {
            let (succ, head) = cgmio_data::random_list(spec.n, args.seed);
            let want = ranks_by_walk(&succ, head);
            let input: Vec<_> = cgmio_data::block_split(succ.clone(), spec.v)
                .into_iter()
                .map(|b| (vec![spec.n as u64], b, Vec::new()))
                .collect();
            let check = |fin: &[(Vec<u64>, Vec<u64>, Vec<u64>)]| {
                fin.iter().flat_map(|(_, _, r)| r.iter()).eq(want.iter())
            };
            let baseline = || {
                let t = Instant::now();
                let r = ranks_by_walk(&succ, head);
                (t.elapsed(), r == want)
            };
            bench(&args, &CgmListRank, input, &check, ("baselines.seq_walk_us", &baseline))
        }
    };
    let _ = std::fs::remove_dir_all(&args.tmp);
    println!("{}", out.meta);
    println!("{}", out.result);
}

/// Rank of every node (its distance to the tail) by walking the list
/// from `head`.
fn ranks_by_walk(succ: &[u64], head: u64) -> Vec<u64> {
    let n = succ.len();
    let mut rank = vec![0u64; n];
    let mut x = head as usize;
    for i in 0..n {
        rank[x] = (n - 1 - i) as u64;
        x = succ[x] as usize;
    }
    rank
}

/// One measured value and its unit.
type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

struct Output {
    meta: String,
    result: String,
}

/// Running tally of attempted and failed operations, and the exact
/// `io_ops` every repetition must reproduce.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    io_ops: Option<u64>,
}

impl Tally {
    /// Record one operation: `Ok(Some(io_ops))` for an EM run, whose op
    /// count must match every other run's, `Ok(None)` for a reference
    /// run, `Err` with the reason it failed.
    fn record(&mut self, outcome: Result<Option<u64>, String>) -> bool {
        self.attempted += 1;
        let outcome = outcome.and_then(|ops| match (ops, self.io_ops) {
            (Some(got), Some(want)) if got != want => {
                Err(format!("io_ops {got} differs from {want}"))
            }
            (Some(got), _) => {
                self.io_ops = Some(got);
                Ok(())
            }
            (None, _) => Ok(()),
        });
        if let Err(e) = &outcome {
            self.failed += 1;
            eprintln!("perfbench: operation {} failed: {e}", self.attempted);
        }
        outcome.is_ok()
    }
}

/// A configured run, with the time its set-up took.
struct Prepared {
    cfg: EmConfig,
    setup: Duration,
    measure: Duration,
    plan: Duration,
}

/// Set-up as a user pays it: the dry run, config sizing, the planner
/// (autotuned workloads) and the backend directories.
fn prepare<P: CgmProgram>(
    spec: &Spec,
    prog: &P,
    dry: Vec<P::State>,
    dir: &Path,
) -> Result<Prepared, String> {
    let t0 = Instant::now();
    let (_, mut costs, req) =
        measure_requirements(prog, dry).map_err(|e| format!("dry run: {e}"))?;
    let measure = t0.elapsed();
    let mut cfg = EmConfig::from_requirements(spec.v, spec.p, spec.d, spec.bb, &req);
    cfg.pipeline_depth = spec.depth;
    let mut plan = Duration::ZERO;
    if spec.autotune {
        let t = Instant::now();
        costs.max_context_bytes = req.max_ctx_bytes;
        let planned = cgmio_tune::plan(&costs, spec.v, spec.d, &DiskTimingModel::nineties_disk());
        cfg.pipeline_depth = planned.pipeline_depth.min(spec.v);
        cfg.autotune = Autotune::on();
        plan = t.elapsed();
    }
    if spec.spike_us > 0 {
        cfg.fault = Some(FaultPlan {
            seed: FAULT_SEED,
            latency_spike: 1.0,
            spike_us: spec.spike_us,
            ..FaultPlan::default()
        });
    }
    let mkdir = |d: PathBuf| std::fs::create_dir_all(&d).map(|_| d).map_err(|e| e.to_string());
    if spec.file {
        cfg.backend = BackendSpec::AsyncFile {
            dir: mkdir(dir.join("drives"))?,
            opts: IoEngineOpts::default(),
        };
    }
    if spec.checkpoint {
        cfg.checkpoint_dir = Some(mkdir(dir.join("ckpt"))?);
    }
    Ok(Prepared { cfg, setup: t0.elapsed(), measure, plan })
}

type RunResult<S> = Result<(Vec<S>, EmRunReport), EmError>;

/// Time `runner.run(...)` with the runner the config's `p` calls for.
fn run_em<P: CgmProgram>(
    cfg: EmConfig,
    prog: &P,
    input: Vec<P::State>,
) -> (Duration, RunResult<P::State>) {
    let t = Instant::now();
    let res = if cfg.p == 1 {
        SeqEmRunner::new(cfg).run(prog, input)
    } else {
        ParEmRunner::new(cfg).run(prog, input)
    };
    (t.elapsed(), res)
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

/// A fresh, empty directory for one repetition.
fn fresh_dir(root: &Path, tag: &str, rep: usize) -> PathBuf {
    let dir = root.join(format!("{tag}{rep}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// One untraced repetition: set up, run, check. Returns
/// `(setup_s, run_s)` when the run produced the right answer.
fn untraced_rep<P: CgmProgram>(
    args: &Args,
    prog: &P,
    input: &[P::State],
    check: &dyn Fn(&[P::State]) -> bool,
    tally: &mut Tally,
    rep: usize,
) -> Option<(f64, f64)>
where
    P::State: Clone,
{
    let dir = fresh_dir(&args.tmp, "run", rep);
    let (dry, live) = (input.to_vec(), input.to_vec());
    let out = prepare(args.spec, prog, dry, &dir).and_then(|prep| {
        let (wall, res) = run_em(prep.cfg, prog, live);
        let (fin, report) = res.map_err(|e| format!("run: {e}"))?;
        if !check(&fin) {
            return Err("wrong output".into());
        }
        Ok((prep.setup.as_secs_f64(), wall.as_secs_f64(), report.io.total_ops()))
    });
    let _ = std::fs::remove_dir_all(&dir);
    match out {
        Ok((setup, run, ops)) => tally.record(Ok(Some(ops))).then_some((setup, run)),
        Err(e) => {
            tally.record(Err(e));
            None
        }
    }
}

/// One traced repetition: the same set-up and run with every layer
/// timed from outside. Returns the per-layer metrics of this run.
fn traced_rep<P: CgmProgram>(
    args: &Args,
    prog: &P,
    input: &[P::State],
    check: &dyn Fn(&[P::State]) -> bool,
    tally: &mut Tally,
    rep: usize,
) -> Option<Metrics>
where
    P::State: Clone,
{
    let spec = args.spec;
    let dir = fresh_dir(&args.tmp, "traced", rep);
    let (dry, live) = (input.to_vec(), input.to_vec());
    let out = prepare(spec, prog, dry, &dir).and_then(|prep| {
        let mut cfg = prep.cfg;
        let obs = Obs::new();
        cfg.obs = Some(obs.clone());
        let log = DecisionLog::new();
        if cfg.autotune.enabled {
            cfg.autotune = Autotune::with_log(log.clone());
        }
        let start_depth = cfg.pipeline_depth;
        // The adapters need the storage in hand, so the run goes through
        // `BackendSpec::Shared` over stacks rebuilt as `build_disks`
        // would build them; the fault plan moves beneath the reactors.
        let engine =
            if spec.file { Engine::AsyncFile { fault: cfg.fault.take() } } else { Engine::Mem };
        let span = cfg.tracks_per_worker(P::Msg::SIZE);
        let drives = dir.join("drives");
        let workers = Arc::new(
            Workers::build(&engine, spec.p, cfg.geometry(), span, &drives, &obs)
                .map_err(|e| format!("building traced storage: {e}"))?,
        );
        cfg.backend = BackendSpec::Shared {
            storage: workers.clone(),
            base_track: 0,
            worker_span_tracks: span,
        };
        let timed = TimedProgram::new(prog);
        let ((wall, res), allocs, alloc_bytes) = alloc::counted(|| run_em(cfg, &timed, live));
        let (fin, report) = res.map_err(|e| format!("traced run: {e}"))?;
        if !check(&fin) {
            return Err("wrong output (traced)".into());
        }
        drop(fin);
        let wall_us = wall.as_secs_f64() * 1e6;
        let snap = obs.snapshot();
        let mut m = Metrics::new();
        let mut phase_sum = 0.0;
        for ph in PHASES {
            let us = snap.histogram_sum("cgmio_phase_us", &[("phase", ph)]).sum as f64;
            phase_sum += us;
            m.insert(phase_metric(ph), (us, "us"));
        }
        let (round_us, round_calls) = timed.totals();
        m.insert("algos.round_us", (round_us, "us"));
        m.insert("algos.round_calls", (round_calls as f64, "count"));
        m.insert("core.wall_us", (wall_us, "us"));
        m.insert("core.unattributed_us", (spec.p as f64 * wall_us - phase_sum, "us"));
        m.insert("core.attributed_share", (phase_sum / (spec.p as f64 * wall_us), "ratio"));
        m.insert("core.ctx_ops", (report.breakdown.ctx_ops as f64, "count"));
        m.insert("core.msg_ops", (report.breakdown.msg_ops as f64, "count"));
        m.insert("core.peak_mem_bytes", (report.peak_mem_bytes as f64, "bytes"));
        m.insert("core.cross_thread_items", (report.cross_thread_items as f64, "count"));
        m.insert("core.allocs", (allocs as f64, "count"));
        m.insert("core.alloc_bytes", (alloc_bytes as f64, "bytes"));
        let (io, dev) = (workers.io.totals(), workers.device.totals());
        m.insert("io.read_wait_us", (io.read_wait_us, "us"));
        m.insert("io.submit_us", (io.submit_us, "us"));
        m.insert("io.write_us", (io.write_us, "us"));
        m.insert("io.flush_us", (io.flush_us, "us"));
        m.insert("io.calls", (io.calls as f64, "count"));
        m.insert("io.blocks_read", (io.blocks_read as f64, "count"));
        m.insert("io.blocks_written", (io.blocks_written as f64, "count"));
        let dev_us = dev.read_wait_us + dev.write_us + dev.flush_us;
        m.insert("io.device_us", (dev_us, "us"));
        m.insert("io.device_ops", ((dev.blocks_read + dev.blocks_written) as f64, "count"));
        let batch = snap.histogram_sum("cgmio_io_submit_batch_blocks", &[]);
        let batch_mean = if batch.count == 0 { 0.0 } else { batch.sum as f64 / batch.count as f64 };
        m.insert("io.batch_blocks_mean", (batch_mean, "blocks"));
        m.insert("io.retries", (workers.retries() as f64, "count"));
        m.insert("pdm.parallel_efficiency", (report.io.parallel_efficiency(), "ratio"));
        m.insert("pdm.disk_bytes", (workers.disk_bytes() as f64, "bytes"));
        m.insert("pdm.checkpoint_bytes", (dir_bytes(&dir.join("ckpt")) as f64, "bytes"));
        let decisions = log.snapshot();
        let moves = decisions.iter().filter(|d| d.action != TuneAction::Hold).count();
        let final_depth = decisions.last().map_or(start_depth, |d| d.depth);
        m.insert("tune.plan_us", (prep.plan.as_secs_f64() * 1e6, "us"));
        m.insert("tune.decisions", (decisions.len() as f64, "count"));
        m.insert("tune.moves", (moves as f64, "count"));
        m.insert("tune.final_depth", (final_depth as f64, "count"));
        m.insert("model.measure_us", (prep.measure.as_secs_f64() * 1e6, "us"));
        Ok((m, report.io.total_ops()))
    });
    let _ = std::fs::remove_dir_all(&dir);
    match out {
        Ok((m, ops)) => tally.record(Ok(Some(ops))).then_some(m),
        Err(e) => {
            tally.record(Err(e));
            None
        }
    }
}

fn phase_metric(phase: &str) -> &'static str {
    match phase {
        "setup" => "core.setup_us",
        "ctx_load" => "core.ctx_load_us",
        "matrix_read" => "core.matrix_read_us",
        "rounds" => "core.rounds_us",
        "route" => "core.route_us",
        "matrix_write" => "core.matrix_write_us",
        "barrier" => "core.barrier_us",
        "checkpoint" => "core.checkpoint_us",
        "readout" => "core.readout_us",
        _ => "core.tune_us",
    }
}

/// The measurement loop shared by every workload.
fn bench<P: CgmProgram>(
    args: &Args,
    prog: &P,
    input: Vec<P::State>,
    check: &dyn Fn(&[P::State]) -> bool,
    baseline: (&'static str, &dyn Fn() -> (Duration, bool)),
) -> Output
where
    P::State: Clone,
{
    let spec = args.spec;
    let mut tally = Tally::default();
    // Warm-up: checked and counted, not timed. The memory high-water
    // mark is read after it: the peak of a process that made its input
    // and ran the job once, before repetition adds allocator
    // fragmentation that varies from run to run.
    untraced_rep(args, prog, &input, check, &mut tally, 0);
    let peak_rss = peak_rss_bytes();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let cpu0 = host_cpu_ticks();
    let (mut setups, mut runs) = (Vec::new(), Vec::new());
    let mut traced: Vec<Metrics> = Vec::new();
    let (mut direct, mut seq) = (Vec::new(), Vec::new());
    for rep in 1.. {
        if let Some((setup, run)) = untraced_rep(args, prog, &input, check, &mut tally, rep) {
            setups.push(setup);
            runs.push(run);
        }
        if args.trace {
            if let Some(m) = traced_rep(args, prog, &input, check, &mut tally, rep) {
                traced.push(m);
            }
            // Reference baselines on the same input: the in-memory
            // DirectRunner and the sequential algorithm.
            let states = input.to_vec();
            let t = Instant::now();
            let res = DirectRunner::default().run(prog, states);
            let el = t.elapsed();
            let ok = matches!(&res, Ok((fin, _)) if check(fin));
            if tally.record(if ok { Ok(None) } else { Err("direct run: wrong output".into()) }) {
                direct.push(el.as_secs_f64() * 1e6);
            }
            drop(res);
            let (el, ok) = baseline.1();
            if tally.record(if ok { Ok(None) } else { Err("baseline: wrong output".into()) }) {
                seq.push(el.as_secs_f64() * 1e6);
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    let (steal, total) = host_cpu_ticks()
        .zip(cpu0)
        .map_or((0, 0), |((s1, t1), (s0, t0))| (s1.saturating_sub(s0), t1.saturating_sub(t0)));
    let run_s = median(&runs);
    let mut metrics = Metrics::new();
    if args.trace {
        if let Some(first) = traced.first() {
            for (&name, &(_, unit)) in first {
                let vals: Vec<f64> = traced.iter().map(|m| m[name].0).collect();
                metrics.insert(name, (median(&vals), unit));
            }
        }
        let traced_run_s = metrics.get("core.wall_us").map_or(0.0, |m| m.0 / 1e6);
        metrics.insert("trace_overhead", (traced_run_s - run_s, "s"));
        let direct_us = median(&direct);
        metrics.insert("model.direct_us", (direct_us, "us"));
        metrics.insert("em_overhead", (run_s * 1e6 / direct_us, "ratio"));
        for name in ["baselines.std_sort_us", "baselines.seq_walk_us"] {
            let v = if name == baseline.0 { median(&seq) } else { 0.0 };
            metrics.insert(name, (v, "us"));
        }
    } else {
        metrics.insert("run_s", (run_s, "s"));
        metrics.insert("setup_s", (median(&setups), "s"));
        metrics.insert("io_ops", (tally.io_ops.unwrap_or(0) as f64, "count"));
        metrics.insert("peak_rss_bytes", (peak_rss as f64, "bytes"));
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let backend = if spec.file { "async_file" } else { "mem" };
    let meta = format!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"commit\": \"{}\", \"nproc\": {nproc}, \
         \"n\": {}, \"v\": {}, \"p\": {}, \"D\": {}, \"B\": {}, \"backend\": \"{backend}\", \
         \"latency_us\": {}, \"pipeline_depth\": {}, \"autotune\": {}, \"checkpoint\": {}, \
         \"trace\": {}, \"host_steal_share\": {:.4}, \"timed_reps\": {}, \"run_s_samples\": [{}]}}}}",
        spec.name,
        args.seed,
        args.commit.replace(['"', '\\'], ""),
        spec.n,
        spec.v,
        spec.p,
        spec.d,
        spec.bb,
        spec.spike_us,
        if spec.autotune { "\"planned\"".to_string() } else { spec.depth.to_string() },
        spec.autotune,
        spec.checkpoint,
        args.trace,
        steal as f64 / total.max(1) as f64,
        runs.len(),
        runs.iter().map(|r| format!("{r:.6}")).collect::<Vec<_>>().join(", "),
    );
    let body = metrics
        .iter()
        .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(*v)))
        .collect::<Vec<_>>()
        .join(", ");
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    Output { meta, result }
}

/// A JSON number with all its digits (non-finite values become 0).
fn json_num(v: f64) -> String {
    if !v.is_finite() {
        "0".into()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// The process's resident-set high-water mark (`VmHWM`), bytes.
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// Host CPU ticks `(stolen, total)` from `/proc/stat`: the share of time
/// the hypervisor ran someone else, recorded so that a slow run on a
/// shared machine can be told from a slow program.
fn host_cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map_while(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}
