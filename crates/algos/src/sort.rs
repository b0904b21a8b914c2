//! CGM sorting by deterministic regular sampling.
//!
//! The paper simulates Goodrich's deterministic BSP sort \[31\]; we use the
//! classic *sorting by regular sampling* CGM algorithm, which has the
//! same model-level profile — `λ = O(1)` communication rounds,
//! `O(N/v)`-item h-relations, local memory `O(N/v)` — under the same
//! coarseness condition `N/v ≥ v²` (the `κ = 3` of the paper's Figure 5
//! footnote). Simulated through `cgmio-core`, it yields the paper's
//! Group A result: external sorting in `O(N/(pDB))` parallel I/Os.
//!
//! Rounds:
//! 0. sort locally; broadcast `v` regular samples to everyone;
//! 1. everyone identically derives `v−1` pivots from the `v²` samples,
//!    partitions its sorted run and routes partition `j` to processor
//!    `j`;
//! 2. merge the received runs (each source's run arrives sorted).
//!
//! [`CgmSort::by_pivots`] stops there and ships bare keys. The
//! [`BlockDistributedSort`] variant from [`CgmSort::block_distributed`]
//! also routes each partition-size row to everyone in round 1, then in
//! round 2 routes items so the output is exactly block-distributed, and
//! in round 3 concatenates (runs arrive in ascending global order). Its
//! keys share a tagged [`SortMsg`] frame with those counts. Rounds 0–2
//! are the same private helpers in both variants.

use std::marker::PhantomData;

use cgmio_model::{CgmProgram, ProcState, RoundCtx, Status};
use cgmio_pdm::Item;

/// Keys a [`CgmSort`] can sort: any totally ordered fixed-size item.
pub trait SortKey: Item + Ord {}
impl<T: Item + Ord> SortKey for T {}

/// Wire format of [`BlockDistributedSort`]: keys and bookkeeping counts
/// share one fixed-size frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortMsg<K> {
    /// A sample or data key.
    Key(K),
    /// A partition-size announcement `(src_row_dst, len)` used by the
    /// rebalancing round.
    Count(u32, u64),
}

impl<K: Item> Item for SortMsg<K> {
    const SIZE: usize = 1 + if K::SIZE > 12 { K::SIZE } else { 12 };

    fn write_to(&self, buf: &mut [u8]) {
        match self {
            SortMsg::Key(k) => {
                buf[0] = 0;
                k.write_to(&mut buf[1..1 + K::SIZE]);
            }
            SortMsg::Count(dst, len) => {
                buf[0] = 1;
                buf[1..5].copy_from_slice(&dst.to_le_bytes());
                buf[5..13].copy_from_slice(&len.to_le_bytes());
            }
        }
    }

    fn read_from(buf: &[u8]) -> Self {
        match buf[0] {
            0 => SortMsg::Key(K::read_from(&buf[1..1 + K::SIZE])),
            _ => SortMsg::Count(
                u32::from_le_bytes(buf[1..5].try_into().unwrap()),
                u64::from_le_bytes(buf[5..13].try_into().unwrap()),
            ),
        }
    }
}

/// Per-processor sort state: the local fragment (kept sorted from round
/// 0 on) plus the partition-size matrix gathered for rebalancing.
pub type SortState<K> = (Vec<K>, Vec<u64>);

/// Deterministic CGM sample sort over keys of type `K`, leaving the
/// output distributed by pivot ranges (sizes `O(N/v)`).
///
/// Only keys travel, so the wire format is the bare key: `K::SIZE`
/// bytes per sample or data item. [`CgmSort::block_distributed`] builds
/// the variant with the extra rebalancing round.
#[derive(Debug, Clone, Copy)]
pub struct CgmSort<K> {
    _key: PhantomData<fn() -> K>,
}

impl<K> CgmSort<K> {
    /// Sort leaving the output distributed by pivots.
    pub fn by_pivots() -> Self {
        Self { _key: PhantomData }
    }

    /// Sort producing an exactly block-distributed output.
    pub fn block_distributed() -> BlockDistributedSort<K> {
        BlockDistributedSort { _key: PhantomData }
    }
}

impl<K> Default for CgmSort<K> {
    fn default() -> Self {
        Self::by_pivots()
    }
}

/// [`CgmSort`] plus a rebalancing round that redistributes the output
/// into the exact block distribution (sizes differing by ≤ 1).
///
/// The rebalancing round needs the partition-size matrix, so keys and
/// counts share the tagged [`SortMsg`] frame.
#[derive(Debug, Clone, Copy)]
pub struct BlockDistributedSort<K> {
    _key: PhantomData<fn() -> K>,
}

fn regular_samples<K: SortKey>(sorted: &[K], v: usize) -> impl Iterator<Item = K> + '_ {
    // v samples at positions ⌊k·len/v⌋; duplicates are fine.
    (0..v).filter_map(move |k| sorted.get(k * sorted.len() / v).copied())
}

/// Round 0: sort the local fragment and broadcast its `v` regular
/// samples, each wrapped by `wire`.
fn sample_round<K: SortKey, M: Item>(
    ctx: &mut RoundCtx<'_, M>,
    run: &mut [K],
    wire: impl Fn(K) -> M,
) {
    run.sort_unstable();
    for dst in 0..ctx.v {
        ctx.send(dst, regular_samples(run, ctx.v).map(&wire));
    }
}

/// Round 1: derive the `v−1` pivots from the `v²` samples (identically
/// everywhere), route partition `j` of the sorted local run to processor
/// `j`, and return the partition sizes. Leaves `run` empty.
fn partition_round<K: SortKey, M: Item>(
    ctx: &mut RoundCtx<'_, M>,
    run: &mut Vec<K>,
    mut samples: Vec<K>,
    wire: impl Fn(K) -> M,
) -> Vec<u64> {
    let v = ctx.v;
    samples.sort_unstable();
    let pivots: Vec<K> =
        (1..v).filter_map(|k| samples.get(k * samples.len() / v).copied()).collect();
    let mut sizes = vec![0u64; v];
    let mut start = 0usize;
    for dst in 0..v {
        let end = if dst < pivots.len() {
            start + run[start..].partition_point(|x| *x <= pivots[dst])
        } else {
            run.len()
        };
        sizes[dst] = (end - start) as u64;
        ctx.send(dst, run[start..end].iter().copied().map(&wire));
        start = end;
    }
    run.clear();
    sizes
}

/// Round 2: merge the sorted runs `keys[ends[i-1]..ends[i]]` (one per
/// source) into one sorted vector.
///
/// Runs are merged pairwise, ping-ponging between two buffers, so `r`
/// runs cost `⌈log₂ r⌉` linear passes instead of a full re-sort.
fn merge_runs<K: SortKey>(mut keys: Vec<K>, mut ends: Vec<usize>) -> Vec<K> {
    let mut out = Vec::with_capacity(keys.len());
    while ends.len() > 1 {
        out.clear();
        let mut start = 0;
        let mut merged = Vec::with_capacity(ends.len().div_ceil(2));
        for pair in ends.chunks(2) {
            let (mid, end) = (pair[0], pair[pair.len() - 1]);
            merge_two(&keys[start..mid], &keys[mid..end], &mut out);
            merged.push(end);
            start = end;
        }
        std::mem::swap(&mut keys, &mut out);
        ends = merged;
    }
    keys
}

/// Append the merge of sorted `a` and `b` to `out`. The select is
/// branch-free: on random keys the comparison is a coin flip, and a
/// mispredicted branch per item costs more than the merge itself.
fn merge_two<K: SortKey>(a: &[K], b: &[K], out: &mut Vec<K>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let take_b = b[j] < a[i];
        out.push(if take_b { b[j] } else { a[i] });
        i += usize::from(!take_b);
        j += usize::from(take_b);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

impl<K: SortKey> CgmProgram for CgmSort<K>
where
    Vec<K>: ProcState,
{
    type Msg = K;
    type State = SortState<K>;

    fn round(&self, ctx: &mut RoundCtx<'_, K>, state: &mut SortState<K>) -> Status {
        match ctx.round {
            0 => {
                sample_round(ctx, &mut state.0, |k| k);
                Status::Continue
            }
            1 => {
                let samples = ctx.incoming.flatten();
                partition_round(ctx, &mut state.0, samples, |k| k);
                Status::Continue
            }
            _ => {
                let mut keys = Vec::with_capacity(ctx.incoming.total());
                let mut ends = Vec::new();
                for (_src, run) in ctx.incoming.iter_nonempty() {
                    keys.extend_from_slice(run);
                    ends.push(keys.len());
                }
                state.0 = merge_runs(keys, ends);
                Status::Done
            }
        }
    }

    fn rounds_hint(&self, _v: usize) -> Option<usize> {
        Some(3)
    }
}

impl<K: SortKey> CgmProgram for BlockDistributedSort<K>
where
    Vec<K>: ProcState,
{
    type Msg = SortMsg<K>;
    type State = SortState<K>;

    fn round(&self, ctx: &mut RoundCtx<'_, SortMsg<K>>, state: &mut SortState<K>) -> Status {
        let v = ctx.v;
        match ctx.round {
            0 => {
                sample_round(ctx, &mut state.0, SortMsg::Key);
                Status::Continue
            }
            1 => {
                let samples = ctx
                    .incoming
                    .flatten()
                    .into_iter()
                    .map(|m| match m {
                        SortMsg::Key(k) => k,
                        SortMsg::Count(..) => unreachable!("round 1 carries only samples"),
                    })
                    .collect();
                let sizes = partition_round(ctx, &mut state.0, samples, SortMsg::Key);
                // Announce this row of the partition matrix to all.
                for t in 0..v {
                    ctx.send(
                        t,
                        sizes.iter().enumerate().map(|(d, &s)| SortMsg::Count(d as u32, s)),
                    );
                }
                Status::Continue
            }
            2 => {
                let mut recv_counts = vec![0u64; v]; // items per destination, all rows summed
                let mut keys = Vec::new();
                let mut ends = Vec::new();
                for (_src, items) in ctx.incoming.iter_nonempty() {
                    for m in items {
                        match *m {
                            SortMsg::Key(k) => keys.push(k),
                            SortMsg::Count(dst, len) => recv_counts[dst as usize] += len,
                        }
                    }
                    ends.push(keys.len());
                }
                state.0 = merge_runs(keys, ends);

                // Global rank of my first item = Σ_{j<pid} recv_counts[j].
                let my_start: u64 = recv_counts[..ctx.pid].iter().sum();
                let n: u64 = recv_counts.iter().sum();
                state.1 = recv_counts;
                // Route each item to the owner of its global rank under
                // the block distribution.
                let base = (n / v as u64) as usize;
                let extra = (n % v as u64) as usize;
                let owner = |g: u64| -> usize {
                    let g = g as usize;
                    let boundary = extra * (base + 1);
                    if g < boundary {
                        g / (base + 1)
                    } else {
                        extra + (g - boundary) / base.max(1)
                    }
                };
                for (off, &k) in state.0.iter().enumerate() {
                    ctx.push(owner(my_start + off as u64), SortMsg::Key(k));
                }
                state.0.clear();
                Status::Continue
            }
            _ => {
                // Runs arrive in ascending source order = ascending
                // global rank, so concatenation is sorted.
                let mut out = Vec::new();
                for (_src, items) in ctx.incoming.iter_nonempty() {
                    for m in items {
                        match *m {
                            SortMsg::Key(k) => out.push(k),
                            SortMsg::Count(..) => unreachable!("round 3 carries only keys"),
                        }
                    }
                }
                debug_assert!(out.windows(2).all(|w| w[0] <= w[1]));
                state.0 = out;
                state.1.clear();
                Status::Done
            }
        }
    }

    fn rounds_hint(&self, _v: usize) -> Option<usize> {
        Some(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgmio_core::{measure_requirements, EmConfig, ParEmRunner, SeqEmRunner};
    use cgmio_data::{block_split, few_distinct_u64, reverse_sorted_u64, uniform_u64};
    use cgmio_model::{DirectRunner, ThreadedRunner};

    fn init_states(keys: &[u64], v: usize) -> Vec<SortState<u64>> {
        block_split(keys.to_vec(), v).into_iter().map(|b| (b, Vec::new())).collect()
    }

    fn check_sorted_output(states: &[SortState<u64>], input: &[u64]) {
        let flat: Vec<u64> = states.iter().flat_map(|(b, _)| b.iter().copied()).collect();
        let mut want = input.to_vec();
        want.sort_unstable();
        assert_eq!(flat, want);
    }

    #[test]
    fn sorts_uniform_keys() {
        let keys = uniform_u64(5000, 42);
        let v = 8;
        let (fin, costs) =
            DirectRunner::default().run(&CgmSort::by_pivots(), init_states(&keys, v)).unwrap();
        check_sorted_output(&fin, &keys);
        assert_eq!(costs.lambda(), 2, "two communication rounds without rebalance");
    }

    #[test]
    fn sorts_with_rebalance_into_blocks() {
        let keys = uniform_u64(4103, 7); // deliberately not divisible by v
        let v = 8;
        let (fin, costs) = DirectRunner::default()
            .run(&CgmSort::block_distributed(), init_states(&keys, v))
            .unwrap();
        check_sorted_output(&fin, &keys);
        assert_eq!(costs.lambda(), 3);
        // block distribution: sizes differ by at most one
        let sizes: Vec<usize> = fin.iter().map(|(b, _)| b.len()).collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max - min <= 1, "sizes = {sizes:?}");
    }

    /// Finals of `prog` on the in-memory reference runner and on both
    /// EM runners (D=2, p=2 for the parallel one), which must agree.
    fn run_on_every_runner<P>(prog: &P, keys: &[u64], v: usize) -> Vec<SortState<u64>>
    where
        P: CgmProgram<State = SortState<u64>>,
    {
        let (want, _) = DirectRunner::default().run(prog, init_states(keys, v)).unwrap();
        let (_, _, req) = measure_requirements(prog, init_states(keys, v)).unwrap();
        let cfg = EmConfig::from_requirements(v, 1, 2, 256, &req);
        let (seq, _) = SeqEmRunner::new(cfg).run(prog, init_states(keys, v)).unwrap();
        assert_eq!(seq, want, "seq EM != direct");
        let cfg = EmConfig::from_requirements(v, 2, 2, 256, &req);
        let (par, _) = ParEmRunner::new(cfg).run(prog, init_states(keys, v)).unwrap();
        assert_eq!(par, want, "par EM != direct");
        want
    }

    #[test]
    fn sorts_adversarial_inputs() {
        let v = 6;
        for keys in [
            reverse_sorted_u64(3000),
            few_distinct_u64(3000, 3, 1),
            vec![5u64; 1000],
            (0..1000u64).collect(),
            vec![],
            vec![9],
        ] {
            check_sorted_output(&run_on_every_runner(&CgmSort::by_pivots(), &keys, v), &keys);
            let fin = run_on_every_runner(&CgmSort::block_distributed(), &keys, v);
            check_sorted_output(&fin, &keys);
            let sizes: Vec<usize> = fin.iter().map(|(b, _)| b.len()).collect();
            assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1, "{sizes:?}");
        }
    }

    #[test]
    fn merge_runs_matches_sort_unstable() {
        let keys = uniform_u64(1000, 9);
        for cuts in [vec![], vec![0, 0], vec![1000], vec![3, 3, 500, 999], vec![10, 20, 30, 40, 50]]
        {
            let mut runs = keys.clone();
            let mut ends = cuts.clone();
            ends.push(keys.len());
            let mut start = 0;
            for &end in &ends {
                runs[start..end].sort_unstable();
                start = end;
            }
            let mut want = keys.clone();
            want.sort_unstable();
            assert_eq!(merge_runs(runs, ends), want, "cuts = {cuts:?}");
        }
        assert!(merge_runs(Vec::<u64>::new(), vec![]).is_empty());
    }

    #[test]
    fn wire_sizes_are_pinned() {
        // By pivots ships bare keys; block-distributed keeps the tagged
        // frame its count rows need.
        assert_eq!(<CgmSort<u64> as CgmProgram>::Msg::SIZE, 8);
        assert_eq!(<BlockDistributedSort<u64> as CgmProgram>::Msg::SIZE, 13);
    }

    #[test]
    fn by_pivots_em_run_moves_eight_bytes_per_key() {
        let (n, v) = (4096, 8);
        let keys = uniform_u64(n, 13);
        let prog = CgmSort::<u64>::by_pivots();
        let (_, _, req) = measure_requirements(&prog, init_states(&keys, v)).unwrap();
        let cfg = EmConfig::from_requirements(v, 1, 2, 512, &req);
        let (_, rep) = SeqEmRunner::new(cfg).run(&prog, init_states(&keys, v)).unwrap();
        let msg_bytes: Vec<usize> =
            rep.costs.rounds.iter().map(|r| r.total_items * <u64 as Item>::SIZE).collect();
        // Round 0 broadcasts v samples from each of v processors to all
        // v; round 1 routes every key exactly once.
        assert_eq!(msg_bytes, vec![v * v * v * 8, n * 8]);
    }

    #[test]
    fn sample_sort_h_relation_is_coarse() {
        // With N/v >= v^2, the max h stays O(N/v): check h <= 3N/v + v^2.
        let n = 8192;
        let v = 8; // N/v = 1024 = v^2 * 16
        let keys = uniform_u64(n, 3);
        let (_, costs) =
            DirectRunner::default().run(&CgmSort::by_pivots(), init_states(&keys, v)).unwrap();
        let bound = 3 * n / v + v * v;
        assert!(costs.max_h() <= bound, "h = {} bound = {bound}", costs.max_h());
    }

    #[test]
    fn works_on_threads() {
        let keys = uniform_u64(2000, 11);
        let v = 6;
        let (fin, _) = ThreadedRunner::new(3)
            .run(&CgmSort::block_distributed(), init_states(&keys, v))
            .unwrap();
        check_sorted_output(&fin, &keys);
    }

    #[test]
    fn pair_keys_sort_lexicographically() {
        let v = 4;
        let pairs: Vec<(u64, u64)> = uniform_u64(600, 5).into_iter().map(|k| (k % 10, k)).collect();
        let states: Vec<SortState<(u64, u64)>> =
            block_split(pairs.clone(), v).into_iter().map(|b| (b, Vec::new())).collect();
        let (fin, _) = DirectRunner::default().run(&CgmSort::by_pivots(), states).unwrap();
        let flat: Vec<(u64, u64)> = fin.iter().flat_map(|(b, _)| b.iter().copied()).collect();
        let mut want = pairs;
        want.sort_unstable();
        assert_eq!(flat, want);
    }

    #[test]
    fn sortmsg_roundtrip() {
        let mut buf = vec![0u8; SortMsg::<u64>::SIZE];
        SortMsg::Key(0xABCDu64).write_to(&mut buf);
        assert_eq!(SortMsg::<u64>::read_from(&buf), SortMsg::Key(0xABCD));
        SortMsg::<u64>::Count(7, 99).write_to(&mut buf);
        assert_eq!(SortMsg::<u64>::read_from(&buf), SortMsg::Count(7, 99));
        // wide keys widen the frame
        assert_eq!(SortMsg::<(u64, u64, u64)>::SIZE, 25);
        assert_eq!(SortMsg::<u64>::SIZE, 13);
    }
}
