//! CGM list ranking by pointer jumping (Figure 5 Group C row 1).
//!
//! Nodes of a linked list (successor array, tail self-looped) are
//! block-distributed. The tail's id is broadcast first; thereafter
//! `⌈log₂ n⌉` jump iterations of two rounds each (request / reply) give
//! every node its distance to the tail.
//!
//! Rounds, with `active(x)` meaning `succ[x] ∉ {x, tail}`:
//!
//! * **Round 0.** The tail's owner broadcasts the tail id (one word).
//! * **Odd round `2k+1`, apply** (`k ≥ 1`). Walk the local nodes in
//!   index order; every active node takes the next two words
//!   `(rank, succ)` of `incoming.from(owner(succ))`, adding `rank` to
//!   its own and jumping to `succ`.
//! * **Odd round `2k+1`, send** (`k < ⌈log₂ n⌉`). Every active node, in
//!   index order, sends one word — its successor's id — to
//!   `owner(succ)`.
//! * **Even round, reply.** For each source, answer its requests in
//!   arrival order with two words `(rank, succ)`, sent straight back to
//!   that source.
//!
//! Replies are matched to requests **by position**, so neither carries
//! the asker's id. The invariant that makes this sound: between sending
//! requests in round `2k−1` and applying replies in round `2k+1` a
//! processor's state does not change, so the apply walk visits exactly
//! the nodes that asked, in the order they asked; and the runners
//! deliver every `(src, dst)` message in send order (see
//! [`cgmio_model::Incoming`]), so the `j`-th reply from a processor
//! answers the `j`-th request sent to it. A jump therefore moves 24
//! bytes per active node (an 8-byte request, a 16-byte reply).
//!
//! The tail broadcast is what keeps every round a genuine `O(N/v)`
//! h-relation: a node whose pointer has reached the tail stops
//! requesting (its rank is final), and any *other* node is the
//! `2^k`-successor of at most one node, so no processor ever receives
//! more than one request (two reply words) per owned node per round.

use cgmio_model::{CgmProgram, RoundCtx, Status};

use super::{jump_iters, BlockOwner};
use cgmio_data::block_split_ranges;

/// State: `(meta = [n, tail], succ_block, rank_block)`. On completion
/// `rank[x]` is the distance from `x` to the tail (tail = 0).
pub type ListRankState = (Vec<u64>, Vec<u64>, Vec<u64>);

/// The pointer-jumping list ranker.
#[derive(Debug, Clone, Copy, Default)]
pub struct CgmListRank;

impl CgmProgram for CgmListRank {
    /// Round 0: the tail id. Odd rounds: a request, the target node's
    /// id. Even rounds ≥ 2: a reply, the two words `rank, succ` of the
    /// target, in request order.
    type Msg = u64;
    type State = ListRankState;

    fn round(&self, ctx: &mut RoundCtx<'_, u64>, state: &mut ListRankState) -> Status {
        let v = ctx.v;
        let n = state.0[0] as usize;
        let start = block_split_ranges(n, v, ctx.pid).start;
        let owner = BlockOwner::new(n, v);
        let iters = jump_iters(n);

        if ctx.round == 0 {
            // Initialise ranks and broadcast the tail id.
            state.2 = state
                .1
                .iter()
                .enumerate()
                .map(|(i, &s)| u64::from(s != (start + i) as u64))
                .collect();
            for (i, &s) in state.1.iter().enumerate() {
                let g = (start + i) as u64;
                if s == g {
                    for dst in 0..v {
                        ctx.push(dst, g);
                    }
                }
            }
            return Status::Continue;
        }

        if ctx.round.is_multiple_of(2) {
            // Reply phase: answer each source's requests in arrival order.
            let (rank, succ) = (&state.2, &state.1);
            for (src, targets) in ctx.incoming.iter_nonempty() {
                ctx.outbox.send(
                    src,
                    targets.iter().flat_map(|&x| {
                        let li = x as usize - start;
                        [rank[li], succ[li]]
                    }),
                );
            }
            return Status::Continue;
        }

        // Odd round 2k+1: record the tail (k = 0) / apply replies
        // (k > 0), then send the next wave of requests.
        let k = ctx.round / 2;
        if k == 0 {
            let (_, items) = ctx.incoming.iter_nonempty().next().expect("list must have a tail");
            let tail = items[0];
            if state.0.len() < 2 {
                state.0.push(tail);
            } else {
                state.0[1] = tail;
            }
        }
        let tail = state.0[1];
        let active = |s: u64, g: u64| s != g && s != tail;
        if k > 0 {
            // Unread replies per source, consumed front to back in the
            // order this processor sent its requests. Sources are sorted
            // and unique, so when all `v` replied, source `o` sits at `o`.
            let mut replies: Vec<(usize, &[u64])> = ctx.incoming.iter_nonempty().collect();
            let all = replies.len() == v;
            for (i, (s, r)) in state.1.iter_mut().zip(state.2.iter_mut()).enumerate() {
                if !active(*s, (start + i) as u64) {
                    continue;
                }
                let src = owner.of(*s as usize);
                let j = if all {
                    src
                } else {
                    replies.binary_search_by_key(&src, |&(o, _)| o).expect("reply missing")
                };
                let (&[add, next], rest) =
                    replies[j].1.split_first_chunk().expect("reply stream too short");
                replies[j].1 = rest;
                *r += add;
                *s = next;
            }
            debug_assert!(replies.iter().all(|(_, rest)| rest.is_empty()), "unread replies");
        }
        if k == iters {
            return Status::Done;
        }
        // Requests go out in a separate pass: fusing it into the apply
        // walk measured slower.
        let requests = state
            .1
            .iter()
            .enumerate()
            .filter(|&(i, &s)| active(s, (start + i) as u64))
            .map(|(_, &s)| s);
        if v <= state.1.len() {
            // Stage per destination and send each in one piece; pushing
            // item by item makes the outbox look up a random destination
            // every time. The table's `v` entries cost no more than the
            // walk itself.
            let mut per_dst = vec![Vec::new(); v];
            for s in requests {
                per_dst[owner.of(s as usize)].push(s);
            }
            for (dst, reqs) in per_dst.into_iter().enumerate() {
                if !reqs.is_empty() {
                    ctx.outbox.send(dst, reqs);
                }
            }
        } else {
            for s in requests {
                ctx.outbox.push(owner.of(s as usize), s);
            }
        }
        Status::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgmio_data::{block_split, random_list};
    use cgmio_graph::list_ranks;
    use cgmio_model::{DirectRunner, ThreadedRunner};
    use cgmio_pdm::Item;

    fn init(succ: &[u64], v: usize) -> Vec<ListRankState> {
        block_split(succ.to_vec(), v)
            .into_iter()
            .map(|b| (vec![succ.len() as u64], b, Vec::new()))
            .collect()
    }

    fn collect_ranks(fin: &[ListRankState]) -> Vec<u64> {
        fin.iter().flat_map(|(_, _, r)| r.iter().copied()).collect()
    }

    #[test]
    fn ranks_random_lists() {
        for (n, v, seed) in [(500, 8, 1u64), (1000, 7, 2), (64, 4, 3), (40, 16, 4)] {
            let (succ, _) = random_list(n, seed);
            let want = list_ranks(&succ);
            let (fin, costs) = DirectRunner::default().run(&CgmListRank, init(&succ, v)).unwrap();
            assert_eq!(collect_ranks(&fin), want, "n={n} v={v}");
            assert!(costs.lambda() <= 2 * jump_iters(n) + 2);
        }
    }

    #[test]
    fn all_succ_point_to_tail_after_run() {
        let (succ, _) = random_list(300, 9);
        let tail = (0..300).find(|&x| succ[x] == x as u64).unwrap() as u64;
        let (fin, _) = DirectRunner::default().run(&CgmListRank, init(&succ, 6)).unwrap();
        for (_, s, _) in &fin {
            assert!(s.iter().all(|&x| x == tail));
        }
    }

    #[test]
    fn tiny_lists() {
        let (fin, _) = DirectRunner::default().run(&CgmListRank, init(&[0], 1)).unwrap();
        assert_eq!(collect_ranks(&fin), vec![0]);
        // two nodes: 1 -> 0(tail)
        let (fin, _) = DirectRunner::default().run(&CgmListRank, init(&[0, 0], 2)).unwrap();
        assert_eq!(collect_ranks(&fin), vec![0, 1]);
    }

    #[test]
    fn works_on_threads() {
        let (succ, _) = random_list(400, 4);
        let want = list_ranks(&succ);
        let (fin, _) = ThreadedRunner::new(4).run(&CgmListRank, init(&succ, 8)).unwrap();
        assert_eq!(collect_ranks(&fin), want);
    }

    #[test]
    fn h_relation_is_bounded_by_block_size() {
        // The tail-broadcast optimisation keeps every round an
        // O(n/v)-relation: requests to any non-tail node are unique, and
        // each is answered with two words.
        let (succ, _) = random_list(800, 7);
        let v = 8;
        let (_, costs) = DirectRunner::default().run(&CgmListRank, init(&succ, v)).unwrap();
        let bytes = costs.max_h() * <u64 as Item>::SIZE;
        let bound = 16 * (800usize.div_ceil(v) + v + 2);
        assert!(bytes <= bound, "h = {bytes} B exceeds the coarse-grained bound {bound} B");
    }

    #[test]
    fn wire_size_is_pinned() {
        assert_eq!(<<CgmListRank as CgmProgram>::Msg as Item>::SIZE, 8);
    }

    #[test]
    fn replies_are_twice_the_requests() {
        for (n, v, seed) in [(800, 8, 7u64), (1000, 7, 2), (64, 4, 3)] {
            let (succ, _) = random_list(n, seed);
            let (_, costs) = DirectRunner::default().run(&CgmListRank, init(&succ, v)).unwrap();
            let sent: Vec<usize> = costs.rounds.iter().map(|r| r.total_items).collect();
            assert_eq!(sent[0], v, "n={n} v={v}: round 0 broadcasts the tail");
            for r in (2..sent.len()).step_by(2) {
                assert_eq!(sent[r], 2 * sent[r - 1], "n={n} v={v}: round {r} vs its requests");
            }
        }
    }
}
