//! Cross-runner equivalence: every CGM program in the catalogue must
//! produce bit-identical final states on the in-memory reference runner,
//! the multi-threaded runner, and both external-memory simulation
//! engines — the paper's central claim made executable.

use cgmio_algos::geometry::{CgmConvexHull, CgmDominance, CgmIntervalStab, CgmUnionArea};
use cgmio_algos::graphs::{CgmConnectivity, CgmEulerTour, CgmListRank};
use cgmio_algos::{CgmPermute, CgmSort, CgmTranspose};
use cgmio_core::{measure_requirements, BackendSpec, EmConfig, ParEmRunner, SeqEmRunner};
use cgmio_data as data;
use cgmio_io::IoEngineOpts;
use cgmio_model::demo::TokenRing;
use cgmio_model::{CgmProgram, DirectRunner, ModelError, RoundCtx, Status, ThreadedRunner};
use cgmio_pdm::testutil::TempDir;

/// Run `prog` on all four runners and demand identical final states
/// and identical per-round communication costs (`DirectRunner`'s
/// definition: each round's `max_received` is the largest inbox that
/// round *produced*).
fn assert_all_runners_agree<P>(prog: &P, mk: impl Fn() -> Vec<P::State>, label: &str)
where
    P: CgmProgram,
    P::State: PartialEq + std::fmt::Debug + Clone,
{
    let v = mk().len();
    let (want, want_costs) = DirectRunner::default().run(prog, mk()).unwrap();

    let (threaded, rep) = ThreadedRunner::new(3).run(prog, mk()).unwrap();
    assert_eq!(threaded, want, "{label}: threaded != direct");
    assert_eq!(rep.costs.rounds, want_costs.rounds, "{label}: threaded round costs != direct");

    let (_, _, req) = measure_requirements(prog, mk()).unwrap();
    for d in [1usize, 3] {
        let cfg = EmConfig::from_requirements(v, 1, d, 512, &req);
        let (seq_em, rep) = SeqEmRunner::new(cfg).run(prog, mk()).unwrap();
        assert_eq!(seq_em, want, "{label}: seq EM (D={d}) != direct");
        assert_eq!(rep.costs.rounds, want_costs.rounds, "{label}: seq EM (D={d}) round costs");
        assert!(rep.breakdown.algorithm_ops() > 0 || rep.costs.total_items() == 0);

        for p in [1, (v / 2).max(2).min(v)] {
            let cfg = EmConfig::from_requirements(v, p, d, 512, &req);
            let (par_em, rep) = ParEmRunner::new(cfg).run(prog, mk()).unwrap();
            assert_eq!(par_em, want, "{label}: par EM (D={d}, p={p}) != direct");
            assert_eq!(
                rep.costs.rounds, want_costs.rounds,
                "{label}: par EM (D={d}, p={p}) round costs"
            );
        }
    }
}

#[test]
fn sort_agrees_everywhere() {
    let keys = data::uniform_u64(3000, 1);
    let v = 6;
    let mk = || data::block_split(keys.clone(), v).into_iter().map(|b| (b, Vec::new())).collect();
    assert_all_runners_agree(&CgmSort::<u64>::by_pivots(), mk, "sort by pivots");
    assert_all_runners_agree(&CgmSort::<u64>::block_distributed(), mk, "sort block-distributed");
}

#[test]
fn permute_agrees_everywhere() {
    let n = 2000;
    let v = 5;
    let vals = data::uniform_u64(n, 2);
    let perm = data::random_permutation(n, 3);
    assert_all_runners_agree(
        &CgmPermute,
        || {
            data::block_split(vals.clone(), v)
                .into_iter()
                .zip(data::block_split(perm.clone(), v))
                .map(|(vb, pb)| (vb, pb, n as u64))
                .collect()
        },
        "permute",
    );
}

#[test]
fn transpose_agrees_everywhere() {
    let (k, l) = (40, 30);
    let v = 6;
    let m = data::uniform_u64(k * l, 4);
    assert_all_runners_agree(
        &CgmTranspose,
        || data::block_split(m.clone(), v).into_iter().map(|b| (b, k as u64, l as u64)).collect(),
        "transpose",
    );
}

#[test]
fn convex_hull_agrees_everywhere() {
    let pts = data::random_points(1200, 50_000, 5);
    let v = 6;
    assert_all_runners_agree(
        &CgmConvexHull,
        || data::block_split(pts.clone(), v).into_iter().map(|b| (b, Vec::new())).collect(),
        "hull",
    );
}

#[test]
fn union_area_agrees_everywhere() {
    let rects: Vec<[i64; 4]> =
        data::random_rects(600, 5_000, 6).into_iter().map(|r| [r.x1, r.y1, r.x2, r.y2]).collect();
    let v = 5;
    assert_all_runners_agree(
        &CgmUnionArea,
        || data::block_split(rects.clone(), v).into_iter().map(|b| (b, Vec::new())).collect(),
        "union_area",
    );
}

#[test]
fn interval_stab_agrees_everywhere() {
    let ivs: Vec<[i64; 3]> = data::uniform_u64(800, 7)
        .chunks(2)
        .map(|c| {
            let a = (c[0] % 10_000) as i64;
            [a, a + (c[1] % 500) as i64, 1 + (c[1] % 5) as i64]
        })
        .collect();
    let qs: Vec<(u64, i64)> = (0..400u64).map(|i| (i, (i as i64 * 29) % 10_000)).collect();
    let v = 5;
    assert_all_runners_agree(
        &CgmIntervalStab,
        || {
            data::block_split(ivs.clone(), v)
                .into_iter()
                .zip(data::block_split(qs.clone(), v))
                .map(|(ib, qb)| ((ib, qb), Vec::new()))
                .collect()
        },
        "interval_stab",
    );
}

#[test]
fn dominance_agrees_everywhere() {
    let pts = data::random_points(800, 2_000, 8);
    let rows: Vec<[i64; 4]> =
        pts.iter().enumerate().map(|(i, &(x, y))| [i as i64, x, y, (i % 9) as i64]).collect();
    let v = 5;
    assert_all_runners_agree(
        &CgmDominance,
        || {
            data::block_split(rows.clone(), v)
                .into_iter()
                .map(|b| ((b, Vec::new(), Vec::new()), (Vec::new(), Vec::new()), Vec::new()))
                .collect()
        },
        "dominance",
    );
}

#[test]
fn list_ranking_agrees_everywhere() {
    let (succ, _) = data::random_list(1500, 9);
    let v = 6;
    assert_all_runners_agree(
        &CgmListRank,
        || {
            data::block_split(succ.clone(), v)
                .into_iter()
                .map(|b| (vec![1500u64], b, Vec::new()))
                .collect()
        },
        "list_ranking",
    );
}

#[test]
fn euler_tour_agrees_everywhere() {
    let parent = data::random_tree_parents(1000, 10);
    let v = 5;
    assert_all_runners_agree(
        &CgmEulerTour,
        || {
            data::block_split(parent.clone(), v)
                .into_iter()
                .map(|b| ((vec![1000u64], b, Vec::new()), (Vec::new(), Vec::new(), Vec::new())))
                .collect()
        },
        "euler_tour",
    );
}

#[test]
fn connectivity_agrees_everywhere() {
    let n = 600;
    let edges = data::gnm_edges(n, 900, 11);
    let v = 5;
    assert_all_runners_agree(
        &CgmConnectivity,
        || {
            let vb = data::block_split((0..n as u64).collect::<Vec<_>>(), v);
            let eb = data::block_split(edges.clone(), v);
            vb.into_iter()
                .zip(eb)
                .map(|(vv, ee)| ((n as u64, vv, Vec::new()), (edges.len() as u64, ee, Vec::new())))
                .collect()
        },
        "connectivity",
    );
}

/// Every runner executes at most `round_limit` rounds, as
/// `DirectRunner` does: TokenRing with 4 communication rounds needs 5
/// round executions, so it fails at limit 4 and completes at limit 5.
#[test]
fn round_limit_agrees_everywhere() {
    let v = 4;
    let prog = TokenRing { rounds: 4 };
    let init = || (0..v as u64).map(|i| vec![i]).collect::<Vec<_>>();
    let (want, _) = DirectRunner::default().run(&prog, init()).unwrap();
    let (_, _, req) = measure_requirements(&prog, init()).unwrap();
    for limit in [4usize, 5] {
        let expect = if limit == 4 { Err(ModelError::RoundLimit(4)) } else { Ok(want.clone()) };
        let direct = DirectRunner { round_limit: limit }.run(&prog, init()).map(|(f, _)| f);
        assert_eq!(direct, expect, "direct, limit {limit}");
        let mut threaded = ThreadedRunner::new(2);
        threaded.round_limit = limit;
        assert_eq!(threaded.run(&prog, init()).map(|(f, _)| f), expect, "threaded, limit {limit}");

        let em_expect = expect.clone().map_err(cgmio_core::EmError::from);
        let mut cfg = EmConfig::from_requirements(v, 1, 2, 32, &req);
        cfg.round_limit = limit;
        let seq = SeqEmRunner::new(cfg.clone()).run(&prog, init()).map(|(f, _)| f);
        assert_eq!(seq, em_expect, "seq EM, limit {limit}");
        for p in [1, 2] {
            cfg.p = p;
            let par = ParEmRunner::new(cfg.clone()).run(&prog, init()).map(|(f, _)| f);
            assert_eq!(par, em_expect, "par EM p={p}, limit {limit}");
        }
    }
}

/// Sends `items` sequence-numbered words per round for `rounds` rounds,
/// interleaving destinations irregularly, and logs every inbox in
/// `incoming.iter_nonempty()` order.
struct Interleave {
    items: usize,
    rounds: usize,
}

impl Interleave {
    /// Destination of the `i`-th item `pid` sends in `round`.
    fn dst(v: usize, pid: usize, round: usize, i: usize) -> usize {
        (pid + round + i * i * 3 + i / 5) % v
    }

    fn word(pid: usize, round: usize, i: usize) -> u64 {
        ((pid as u64) << 40) | ((round as u64) << 32) | i as u64
    }

    /// The log each processor must end with if every runner delivers
    /// each `(src, dst)` message in send order.
    fn expected(&self, v: usize) -> Vec<Vec<u64>> {
        (0..v)
            .map(|dst| {
                let mut log = Vec::new();
                for round in 0..self.rounds {
                    for src in 0..v {
                        log.extend(
                            (0..self.items)
                                .filter(|&i| Self::dst(v, src, round, i) == dst)
                                .map(|i| Self::word(src, round, i)),
                        );
                    }
                }
                log
            })
            .collect()
    }
}

impl CgmProgram for Interleave {
    type Msg = u64;
    type State = Vec<u64>;

    fn round(&self, ctx: &mut RoundCtx<'_, u64>, log: &mut Vec<u64>) -> Status {
        for (_, items) in ctx.incoming.iter_nonempty() {
            log.extend_from_slice(items);
        }
        if ctx.round == self.rounds {
            return Status::Done;
        }
        for i in 0..self.items {
            ctx.push(Self::dst(ctx.v, ctx.pid, ctx.round, i), Self::word(ctx.pid, ctx.round, i));
        }
        Status::Continue
    }
}

/// `Incoming::from(src)` is in send order on every runner, backend and
/// pipeline depth, for messages spanning several blocks and senders
/// that interleave their destinations.
#[test]
fn send_order_is_preserved_everywhere() {
    let (v, bb) = (4usize, 64usize);
    let prog = Interleave { items: 240, rounds: 3 };
    let want = prog.expected(v);
    let init = || vec![Vec::new(); v];

    let (direct, _) = DirectRunner::default().run(&prog, init()).unwrap();
    assert_eq!(direct, want, "direct");
    let (threaded, _) = ThreadedRunner::new(2).run(&prog, init()).unwrap();
    assert_eq!(threaded, want, "threaded");

    let (_, _, req) = measure_requirements(&prog, init()).unwrap();
    assert!(req.max_msg_items * 8 > 3 * bb, "messages must span several blocks");
    let dir = TempDir::new("cgmio-send-order");
    for p in [1usize, 2] {
        for depth in [0usize, 2] {
            for file in [false, true] {
                let tag = format!("p={p} depth={depth} file={file}");
                let mut cfg = EmConfig::from_requirements(v, p, 2, bb, &req);
                cfg.pipeline_depth = depth;
                if file {
                    cfg.backend = BackendSpec::AsyncFile {
                        dir: dir.path().join(format!("p{p}-d{depth}")),
                        opts: IoEngineOpts::default(),
                    };
                }
                let (got, _) = if p == 1 {
                    SeqEmRunner::new(cfg).run(&prog, init())
                } else {
                    ParEmRunner::new(cfg).run(&prog, init())
                }
                .unwrap();
                assert_eq!(got, want, "EM {tag}");
            }
        }
    }
}
