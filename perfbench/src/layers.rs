//! Adapters that time the calls into each layer from outside the
//! program: the algorithm (`CgmProgram::round`) and the storage engine
//! (`TrackStorage`), plus the per-worker storage stack the traced run
//! hands the runners through `BackendSpec::Shared`.

use std::cell::Cell;
use std::io;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cgmio_io::{AsyncFileStorage, Counter, IoEngineOpts};
use cgmio_model::{CgmProgram, RoundCtx, Status};
use cgmio_obs::Obs;
use cgmio_pdm::{
    DiskGeometry, FaultInjector, FaultPlan, FileStorage, MemStorage, TrackAddr, TrackStorage,
};

/// A program whose `round` calls are timed.
pub struct TimedProgram<'a, P> {
    inner: &'a P,
    ns: AtomicU64,
    calls: AtomicU64,
}

impl<'a, P> TimedProgram<'a, P> {
    pub fn new(inner: &'a P) -> Self {
        Self { inner, ns: AtomicU64::new(0), calls: AtomicU64::new(0) }
    }

    /// `(microseconds inside round, round calls)`.
    pub fn totals(&self) -> (f64, u64) {
        (self.ns.load(Ordering::Relaxed) as f64 / 1e3, self.calls.load(Ordering::Relaxed))
    }
}

impl<P: CgmProgram> CgmProgram for TimedProgram<'_, P> {
    type Msg = P::Msg;
    type State = P::State;

    fn round(&self, ctx: &mut RoundCtx<'_, P::Msg>, state: &mut P::State) -> Status {
        let t = Instant::now();
        let status = self.inner.round(ctx, state);
        self.ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        status
    }

    fn rounds_hint(&self, v: usize) -> Option<usize> {
        self.inner.rounds_hint(v)
    }
}

/// Time and work counters of one storage boundary, summed over every
/// thread that calls through it.
#[derive(Default)]
pub struct IoTimes {
    read_wait_ns: AtomicU64,
    submit_ns: AtomicU64,
    write_ns: AtomicU64,
    flush_ns: AtomicU64,
    calls: AtomicU64,
    blocks_read: AtomicU64,
    blocks_written: AtomicU64,
}

/// The totals of an [`IoTimes`], times in microseconds.
pub struct IoTotals {
    pub read_wait_us: f64,
    pub submit_us: f64,
    pub write_us: f64,
    pub flush_us: f64,
    pub calls: u64,
    pub blocks_read: u64,
    pub blocks_written: u64,
}

impl IoTimes {
    fn time<T>(&self, total: &AtomicU64, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        total.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn blocks(counter: &AtomicU64, n: usize) {
        counter.fetch_add(n as u64, Ordering::Relaxed);
    }

    pub fn totals(&self) -> IoTotals {
        let us = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64 / 1e3;
        IoTotals {
            read_wait_us: us(&self.read_wait_ns),
            submit_us: us(&self.submit_ns),
            write_us: us(&self.write_ns),
            flush_us: us(&self.flush_ns),
            calls: self.calls.load(Ordering::Relaxed),
            blocks_read: self.blocks_read.load(Ordering::Relaxed),
            blocks_written: self.blocks_written.load(Ordering::Relaxed),
        }
    }
}

/// A storage whose calls are timed into an [`IoTimes`]. Reads count
/// their blocks when they are issued: at submit for split-phase reads.
pub struct TimedStorage<S> {
    inner: S,
    times: Arc<IoTimes>,
}

impl<S> TimedStorage<S> {
    pub fn new(inner: S, times: Arc<IoTimes>) -> Self {
        Self { inner, times }
    }
}

impl<S: TrackStorage> TrackStorage for TimedStorage<S> {
    fn read_track(&self, disk: usize, track: u64) -> io::Result<Vec<u8>> {
        let t = &self.times;
        IoTimes::blocks(&t.blocks_read, 1);
        t.time(&t.read_wait_ns, || self.inner.read_track(disk, track))
    }

    fn write_track(&self, disk: usize, track: u64, data: &[u8]) -> io::Result<()> {
        let t = &self.times;
        IoTimes::blocks(&t.blocks_written, 1);
        t.time(&t.write_ns, || self.inner.write_track(disk, track, data))
    }

    fn read_batch(&self, addrs: &[TrackAddr]) -> io::Result<Vec<Vec<u8>>> {
        let t = &self.times;
        IoTimes::blocks(&t.blocks_read, addrs.len());
        t.time(&t.read_wait_ns, || self.inner.read_batch(addrs))
    }

    fn write_batch(&self, writes: &[(TrackAddr, &[u8])]) -> io::Result<()> {
        let t = &self.times;
        IoTimes::blocks(&t.blocks_written, writes.len());
        t.time(&t.write_ns, || self.inner.write_batch(writes))
    }

    fn read_scatter_with(
        &self,
        addrs: &[TrackAddr],
        f: &mut dyn FnMut(usize, &[u8]),
    ) -> io::Result<()> {
        let t = &self.times;
        IoTimes::blocks(&t.blocks_read, addrs.len());
        t.time(&t.read_wait_ns, || self.inner.read_scatter_with(addrs, f))
    }

    fn write_scatter(&self, writes: &[(TrackAddr, &[u8])]) -> io::Result<()> {
        let t = &self.times;
        IoTimes::blocks(&t.blocks_written, writes.len());
        t.time(&t.write_ns, || self.inner.write_scatter(writes))
    }

    fn read_scatter_submit(&self, addrs: &[TrackAddr]) -> io::Result<u64> {
        let t = &self.times;
        IoTimes::blocks(&t.blocks_read, addrs.len());
        t.time(&t.submit_ns, || self.inner.read_scatter_submit(addrs))
    }

    fn read_scatter_wait(
        &self,
        ticket: u64,
        addrs: &[TrackAddr],
        f: &mut dyn FnMut(usize, &[u8]),
    ) -> io::Result<()> {
        let t = &self.times;
        t.time(&t.read_wait_ns, || self.inner.read_scatter_wait(ticket, addrs, f))
    }

    fn prefetch(&self, addrs: &[TrackAddr]) {
        self.inner.prefetch(addrs)
    }

    fn flush(&self, sync: bool) -> io::Result<()> {
        self.times.time(&self.times.flush_ns, || self.inner.flush(sync))
    }

    fn sync_disk(&self, disk: usize) -> io::Result<()> {
        self.times.time(&self.times.flush_ns, || self.inner.sync_disk(disk))
    }

    fn discard(&self, disk: usize, tracks: Range<u64>) -> io::Result<bool> {
        self.inner.discard(disk, tracks)
    }

    fn tracks_used(&self) -> Vec<u64> {
        self.inner.tracks_used()
    }
}

/// What sits behind each real processor in the traced run.
pub enum Engine {
    /// In-memory tracks, as `BackendSpec::Mem` builds them.
    Mem,
    /// Async reactors over drive files, as `BackendSpec::AsyncFile`
    /// builds them: raw coalescing reactors without a fault plan, and the
    /// layered path with the injector beneath the reactors with one.
    AsyncFile { fault: Option<FaultPlan> },
}

thread_local! {
    /// Worker whose tracks this thread last touched. Each runner worker
    /// owns one thread and only ever touches its own window, so a flush
    /// goes to that worker's engine alone, as it does in an untraced run.
    static LAST_WORKER: Cell<Option<usize>> = const { Cell::new(None) };
}

/// One storage stack per real processor behind a single
/// `TrackStorage`. The runners see it through `BackendSpec::Shared`
/// with `base_track = 0`, so worker `t`'s tracks arrive offset by
/// `t * span`; each call is routed to that worker's stack with the
/// offset removed. Every stack is wrapped in a [`TimedStorage`] over the
/// shared `io` times; on the layered path a second one sits between the
/// reactors and the (faulty) drive files and feeds `device`.
pub struct Workers {
    span: u64,
    block_bytes: u64,
    stacks: Vec<TimedStorage<Arc<dyn TrackStorage>>>,
    retries: Vec<Counter>,
    pub io: Arc<IoTimes>,
    pub device: Arc<IoTimes>,
}

impl Workers {
    /// Build the stacks `EmConfig::build_disks` would build for `p`
    /// workers, drive files under `dir/p{t}`. Fault plans get the same
    /// per-worker seed offset as there.
    pub fn build(
        engine: &Engine,
        p: usize,
        geom: DiskGeometry,
        span: u64,
        dir: &Path,
        obs: &Obs,
    ) -> io::Result<Self> {
        let io = Arc::new(IoTimes::default());
        let device = Arc::new(IoTimes::default());
        let mut stacks = Vec::with_capacity(p);
        let mut retries = Vec::new();
        for t in 0..p {
            let opts = IoEngineOpts { proc: t, obs: Some(obs.clone()), ..IoEngineOpts::default() };
            let wdir = dir.join(format!("p{t}"));
            let inner: Arc<dyn TrackStorage> = match engine {
                Engine::Mem => Arc::new(MemStorage::new(geom)),
                Engine::AsyncFile { fault: None } => {
                    let s = AsyncFileStorage::open_dir(&wdir, geom, opts)?;
                    retries.push(s.retry_counter());
                    Arc::new(s)
                }
                Engine::AsyncFile { fault: Some(plan) } => {
                    let mut plan = plan.clone();
                    plan.seed =
                        plan.seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64));
                    let faulty =
                        FaultInjector::new(FileStorage::open(&wdir, geom)?, geom.num_disks, plan);
                    let timed: Arc<dyn TrackStorage> =
                        Arc::new(TimedStorage::new(faulty, Arc::clone(&device)));
                    let s = AsyncFileStorage::over(timed, geom.num_disks, opts);
                    retries.push(s.retry_counter());
                    Arc::new(s)
                }
            };
            stacks.push(TimedStorage::new(inner, Arc::clone(&io)));
        }
        Ok(Self { span, block_bytes: geom.block_bytes as u64, stacks, retries, io, device })
    }

    /// Transient retries the reactors performed.
    pub fn retries(&self) -> u64 {
        self.retries.iter().map(Counter::get).sum()
    }

    /// Bytes of drive space in use over every worker and drive
    /// (tracks used × B).
    pub fn disk_bytes(&self) -> u64 {
        let tracks: u64 = self.stacks.iter().flat_map(|s| s.tracks_used()).sum();
        tracks * self.block_bytes
    }

    /// The worker owning `track`, remembered for this thread's flushes.
    fn owner(&self, track: u64) -> usize {
        let w = ((track / self.span) as usize).min(self.stacks.len() - 1);
        LAST_WORKER.with(|c| c.set(Some(w)));
        w
    }

    fn local(&self, w: usize, addrs: &[TrackAddr]) -> Vec<TrackAddr> {
        let base = w as u64 * self.span;
        addrs.iter().map(|a| TrackAddr::new(a.disk, a.track - base)).collect()
    }

    fn local_writes<'d>(
        &self,
        w: usize,
        writes: &[(TrackAddr, &'d [u8])],
    ) -> Vec<(TrackAddr, &'d [u8])> {
        let base = w as u64 * self.span;
        writes.iter().map(|(a, d)| (TrackAddr::new(a.disk, a.track - base), *d)).collect()
    }

    /// Route an address list: worker 0's tracks need no remapping.
    fn route<T>(
        &self,
        addrs: &[TrackAddr],
        f: impl FnOnce(&TimedStorage<Arc<dyn TrackStorage>>, &[TrackAddr]) -> T,
    ) -> T {
        let w = addrs.first().map_or(0, |a| self.owner(a.track));
        if w == 0 {
            f(&self.stacks[0], addrs)
        } else {
            f(&self.stacks[w], &self.local(w, addrs))
        }
    }

    fn route_writes<T>(
        &self,
        writes: &[(TrackAddr, &[u8])],
        f: impl FnOnce(&TimedStorage<Arc<dyn TrackStorage>>, &[(TrackAddr, &[u8])]) -> T,
    ) -> T {
        let w = writes.first().map_or(0, |(a, _)| self.owner(a.track));
        if w == 0 {
            f(&self.stacks[0], writes)
        } else {
            f(&self.stacks[w], &self.local_writes(w, writes))
        }
    }

    /// The stack this thread works on, or every stack when unknown.
    fn current(&self) -> Vec<&TimedStorage<Arc<dyn TrackStorage>>> {
        match LAST_WORKER.with(Cell::get) {
            Some(w) if w < self.stacks.len() => vec![&self.stacks[w]],
            _ => self.stacks.iter().collect(),
        }
    }
}

impl TrackStorage for Workers {
    fn read_track(&self, disk: usize, track: u64) -> io::Result<Vec<u8>> {
        let w = self.owner(track);
        self.stacks[w].read_track(disk, track - w as u64 * self.span)
    }

    fn write_track(&self, disk: usize, track: u64, data: &[u8]) -> io::Result<()> {
        let w = self.owner(track);
        self.stacks[w].write_track(disk, track - w as u64 * self.span, data)
    }

    fn read_batch(&self, addrs: &[TrackAddr]) -> io::Result<Vec<Vec<u8>>> {
        self.route(addrs, |s, a| s.read_batch(a))
    }

    fn write_batch(&self, writes: &[(TrackAddr, &[u8])]) -> io::Result<()> {
        self.route_writes(writes, |s, w| s.write_batch(w))
    }

    fn read_scatter_with(
        &self,
        addrs: &[TrackAddr],
        f: &mut dyn FnMut(usize, &[u8]),
    ) -> io::Result<()> {
        self.route(addrs, |s, a| s.read_scatter_with(a, f))
    }

    fn write_scatter(&self, writes: &[(TrackAddr, &[u8])]) -> io::Result<()> {
        self.route_writes(writes, |s, w| s.write_scatter(w))
    }

    fn read_scatter_submit(&self, addrs: &[TrackAddr]) -> io::Result<u64> {
        self.route(addrs, |s, a| s.read_scatter_submit(a))
    }

    fn read_scatter_wait(
        &self,
        ticket: u64,
        addrs: &[TrackAddr],
        f: &mut dyn FnMut(usize, &[u8]),
    ) -> io::Result<()> {
        self.route(addrs, |s, a| s.read_scatter_wait(ticket, a, f))
    }

    fn prefetch(&self, addrs: &[TrackAddr]) {
        self.route(addrs, |s, a| s.prefetch(a))
    }

    fn flush(&self, sync: bool) -> io::Result<()> {
        self.current().into_iter().try_for_each(|s| s.flush(sync))
    }

    fn sync_disk(&self, disk: usize) -> io::Result<()> {
        self.current().into_iter().try_for_each(|s| s.sync_disk(disk))
    }

    fn tracks_used(&self) -> Vec<u64> {
        let mut used = Vec::new();
        for s in &self.stacks {
            for (d, n) in s.tracks_used().into_iter().enumerate() {
                if used.len() <= d {
                    used.push(0);
                }
                used[d] = used[d].max(n);
            }
        }
        used
    }
}
