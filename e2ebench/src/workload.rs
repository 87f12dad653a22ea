//! The two traffic mixes, generated from the seed, and the answer checks
//! every gated run applies to them.

use crate::frames::{encode_request, Proto};
use crate::rng::{poisson_schedule, SplitMix64};
use circlekit_graph::{Graph, VertexSet};
use circlekit_sampling::size_matched_random_walk_sets_parallel;
use circlekit_scoring::{ParallelScorer, ScoringFunction};
use circlekit_serve::protocol::wire;
use circlekit_serve::{set_digest, Request};
use serde_json::Value;
use std::collections::HashSet;
use std::time::Duration;

/// Snapshot id the daemon derives from the file stem `gp.cks`.
pub const SNAPSHOT_ID: &str = "gp";

/// The functions every scoring request asks for: the paper's four.
pub const FUNCTIONS: [ScoringFunction; 4] = ScoringFunction::PAPER;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Hot,
    Cold,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve-hot" => Some(Workload::Hot),
            "serve-cold" => Some(Workload::Cold),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Hot => "serve-hot",
            Workload::Cold => "serve-cold",
        }
    }

    /// Offered open-loop rate in requests per second (quoted in
    /// `BENCHMARK.json`).
    pub fn rate(self) -> f64 {
        match self {
            Workload::Hot => 2000.0,
            Workload::Cold => 120.0,
        }
    }
}

/// Closed-loop in-flight depth over both connections (quoted in
/// `BENCHMARK.json`): enough to saturate the daemon on either workload.
pub const CLOSED_DEPTH: usize = 32;

/// Slices each timed phase is cut into for the gated medians.
pub const SLICES: usize = 12;

/// Every `COLD_CHECK_EVERY`-th serve-cold set is checked bit for bit.
const COLD_CHECK_EVERY: usize = 8;
/// Distinct warm-up sets serve-cold sends before timing.
const COLD_WARMUP: usize = 200;
/// Random-walk sets serve-cold draws; the rest are variants of them.
const COLD_WALK_SETS: usize = 1024;
/// Upper estimate of serve-cold's closed-loop goodput (one scoring
/// worker answers ~550/s here); sizes its pool of never-repeating sets.
const COLD_CAPACITY_RPS: f64 = 900.0;

/// The snapshot as the benchmark loads it in-process.
pub struct Data {
    pub graph: Graph,
    pub groups: Vec<VertexSet>,
    pub median: f64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    ScoreGroup,
    ScoreSet,
}

/// What a response must satisfy.
#[derive(Clone, Copy, Debug)]
pub enum Check {
    /// Scores bit-identical to `Plan::expect[id]`.
    Scores { id: u32, size: u32 },
    /// A well-formed score answer for a set of this size.
    Size(u32),
}

/// One request ready to send.
#[derive(Clone, Debug)]
pub struct Item {
    pub conn: usize,
    pub op: Op,
    pub request: Request,
    pub frame: Vec<u8>,
    pub check: Check,
}

fn item(conn: usize, request: Request, check: Check) -> Item {
    let op = match &request {
        Request::ScoreGroup { .. } => Op::ScoreGroup,
        Request::ScoreSet { .. } => Op::ScoreSet,
        other => panic!("no workload sends {other:?}"),
    };
    let frame = encode_request(Proto::of_conn(conn), &request);
    Item {
        conn,
        op,
        request,
        frame,
        check,
    }
}

fn score_group(group: usize) -> Request {
    Request::ScoreGroup {
        snapshot: SNAPSHOT_ID.to_string(),
        group,
        functions: FUNCTIONS.to_vec(),
        deadline_ms: None,
    }
}

fn score_set(set: &VertexSet) -> Request {
    Request::ScoreSet {
        snapshot: SNAPSHOT_ID.to_string(),
        members: set.as_slice().to_vec(),
        functions: FUNCTIONS.to_vec(),
        deadline_ms: None,
    }
}

/// One open-loop phase's requests: `items[i]` is due `sched[i]` after
/// the phase starts.
pub struct PhasePlan {
    pub items: Vec<Item>,
    pub sched: Vec<Duration>,
}

/// A closed-loop phase: per-connection request pools, consumed in order
/// (and cycled when `cyclic`).
pub struct ClosedPlan {
    pub pools: [Vec<Item>; 2],
    pub cyclic: bool,
}

/// Everything one run sends, and what the answers must be.
pub struct Plan {
    /// Sent closed loop before anything is timed.
    pub warmup: ClosedPlan,
    pub open: PhasePlan,
    /// The traced repeat of the open phase (trace runs only).
    pub traced: PhasePlan,
    pub closed: ClosedPlan,
    /// Expected score bits per `Check::Scores` id.
    pub expect: Vec<[u64; 4]>,
}

fn score_bits(graph: &Graph, median: f64, sets: &[VertexSet]) -> Vec<[u64; 4]> {
    let scorer = ParallelScorer::with_graph_median(graph, median, 2);
    scorer
        .stats_batch(sets)
        .iter()
        .map(|s| {
            let mut bits = [0u64; 4];
            for (b, f) in bits.iter_mut().zip(FUNCTIONS) {
                *b = f.score(s).to_bits();
            }
            bits
        })
        .collect()
}

/// Time split of one run of `seconds`: open loop, closed loop.
pub fn phase_lengths(seconds: u64) -> (Duration, Duration) {
    let half = Duration::from_secs(seconds.max(1)) / 2;
    (half, half)
}

/// Splits items over the two connections' pools by their `conn`.
fn by_conn(items: Vec<Item>) -> [Vec<Item>; 2] {
    let (zero, one) = items.into_iter().partition(|i| i.conn == 0);
    [zero, one]
}

/// Generates the run's requests from `seed`.
pub fn build(workload: Workload, data: &Data, seed: u64, seconds: u64, traced: bool) -> Plan {
    let (open_len, closed_len) = phase_lengths(seconds);
    let mut sched_rng = SplitMix64::stream(seed, 1);
    let mut pick = SplitMix64::stream(seed, 2);
    let groups = data.groups.len();
    assert!(groups > 0, "the snapshot carries no circles");
    let open_phase = |rng: &mut SplitMix64| poisson_schedule(rng, workload.rate(), open_len);
    let open_sched = open_phase(&mut sched_rng);
    let traced_sched = if traced {
        open_phase(&mut sched_rng)
    } else {
        Vec::new()
    };
    match workload {
        Workload::Hot => {
            let check = |g: usize| Check::Scores {
                id: g as u32,
                size: data.groups[g].len() as u32,
            };
            let mut draw = |n: usize, conn: Option<usize>| -> Vec<Item> {
                (0..n)
                    .map(|_| {
                        let g = pick.below(groups);
                        let c = conn.unwrap_or_else(|| pick.below(2));
                        item(c, score_group(g), check(g))
                    })
                    .collect()
            };
            let warmup = (0..groups)
                .map(|g| item(g % 2, score_group(g), check(g)))
                .collect();
            Plan {
                warmup: ClosedPlan {
                    pools: by_conn(warmup),
                    cyclic: false,
                },
                open: PhasePlan {
                    items: draw(open_sched.len(), None),
                    sched: open_sched,
                },
                traced: PhasePlan {
                    items: draw(traced_sched.len(), None),
                    sched: traced_sched,
                },
                closed: ClosedPlan {
                    pools: [draw(4096, Some(0)), draw(4096, Some(1))],
                    cyclic: true,
                },
                expect: score_bits(&data.graph, data.median, &data.groups),
            }
        }
        Workload::Cold => {
            // Each connection carries half the closed-loop traffic.
            let per_conn = (COLD_CAPACITY_RPS / 2.0 * closed_len.as_secs_f64()) as usize + 64;
            let wanted = COLD_WARMUP + open_sched.len() + traced_sched.len() + 2 * per_conn;
            let sets = distinct_walk_sets(data, seed, wanted);
            let mut sets = sets.into_iter();
            let mut checked: Vec<VertexSet> = Vec::new();
            let mut n = 0usize;
            let mut next = |conn: usize| -> Item {
                let set = sets.next().expect("enough distinct sets were drawn");
                n += 1;
                let check = if n.is_multiple_of(COLD_CHECK_EVERY) {
                    checked.push(set.clone());
                    Check::Scores {
                        id: checked.len() as u32 - 1,
                        size: set.len() as u32,
                    }
                } else {
                    Check::Size(set.len() as u32)
                };
                item(conn, score_set(&set), check)
            };
            let warmup = (0..COLD_WARMUP).map(|i| next(i % 2)).collect();
            let open_items = (0..open_sched.len()).map(|_| next(pick.below(2))).collect();
            let traced_items = (0..traced_sched.len())
                .map(|_| next(pick.below(2)))
                .collect();
            let pool0 = (0..per_conn).map(|_| next(0)).collect();
            let pool1 = (0..per_conn).map(|_| next(1)).collect();
            Plan {
                warmup: ClosedPlan {
                    pools: by_conn(warmup),
                    cyclic: false,
                },
                open: PhasePlan {
                    items: open_items,
                    sched: open_sched,
                },
                traced: PhasePlan {
                    items: traced_items,
                    sched: traced_sched,
                },
                closed: ClosedPlan {
                    pools: [pool0, pool1],
                    cyclic: false,
                },
                expect: score_bits(&data.graph, data.median, &checked),
            }
        }
    }
}

/// Draws `n` distinct sets, none equal to a stored circle, so no request
/// can hit the score cache. The first `COLD_WALK_SETS` are size-matched
/// random-walk sets (`circlekit-sampling`) whose sizes follow the
/// circle-size distribution. Walks gravitate to hubs and cost ~3 ms of CPU
/// each here, so the rest are one-step variants of them: a random walk
/// set with one member swapped for an outside neighbour of another member.
/// Each variant keeps its base's size and nearly all of its members.
fn distinct_walk_sets(data: &Data, seed: u64, n: usize) -> Vec<VertexSet> {
    let mut sizes_rng = SplitMix64::stream(seed, 3);
    let mut seen: HashSet<u64> = data
        .groups
        .iter()
        .map(|g| set_digest(g.as_slice()))
        .collect();
    let mut out: Vec<VertexSet> = Vec::with_capacity(n);
    let walks = n.min(COLD_WALK_SETS);
    let mut round = 0u64;
    while out.len() < walks {
        let sizes: Vec<usize> = (0..walks - out.len())
            .map(|_| data.groups[sizes_rng.below(data.groups.len())].len().max(2))
            .collect();
        let root = SplitMix64::stream(seed, 4 + round).next_u64();
        for set in size_matched_random_walk_sets_parallel(&data.graph, &sizes, root, 2) {
            if seen.insert(set_digest(set.as_slice())) {
                out.push(set);
            }
        }
        round += 1;
    }
    let mut rng = SplitMix64::stream(seed, 6);
    while out.len() < n {
        let base = &out[rng.below(walks)];
        let members = base.as_slice();
        let from = members[rng.below(members.len())];
        let neighbours = data.graph.out_neighbors(from);
        if neighbours.is_empty() {
            continue;
        }
        let swap_in = neighbours[rng.below(neighbours.len())];
        if base.contains(swap_in) {
            continue;
        }
        let mut variant = members.to_vec();
        let at = rng.below(variant.len());
        variant[at] = swap_in;
        let variant = VertexSet::from_vec(variant);
        if seen.insert(set_digest(variant.as_slice())) {
            out.push(variant);
        }
    }
    out
}

/// Verifies answers against the plan's expected scores.
pub struct Checker<'a> {
    expect: &'a [[u64; 4]],
    logged: u32,
}

/// The outcome of one answer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    pub correct: bool,
    /// Answered, but not with the right answer (vs. refused or failed).
    pub wrong: bool,
    pub cached: Option<bool>,
}

impl<'a> Checker<'a> {
    pub fn new(expect: &'a [[u64; 4]]) -> Checker<'a> {
        Checker { expect, logged: 0 }
    }

    pub fn check(&mut self, check: Check, response: &Value) -> Verdict {
        let cached = match wire::get(response, "cached") {
            Some(Value::Bool(b)) => Some(*b),
            _ => None,
        };
        if wire::get(response, "ok") != Some(&Value::Bool(true)) {
            self.log(|| format!("refused: {response}"));
            return Verdict {
                correct: false,
                wrong: false,
                cached,
            };
        }
        let right = match check {
            Check::Scores { id, size } => {
                score_answer(response, size) == Some(self.expect[id as usize])
            }
            Check::Size(size) => score_answer(response, size).is_some(),
        };
        if !right {
            self.log(|| format!("wrong answer for {check:?}: {response}"));
        }
        Verdict {
            correct: right,
            wrong: !right,
            cached,
        }
    }

    fn log(&mut self, message: impl FnOnce() -> String) {
        if self.logged < 5 {
            self.logged += 1;
            eprintln!("e2ebench: {}", message());
        }
    }
}

/// The four score bits of a well-formed score answer for a set of `size`.
fn score_answer(response: &Value, size: u32) -> Option<[u64; 4]> {
    if wire::get_u64(response, "size").ok() != Some(u64::from(size)) {
        return None;
    }
    let scores = wire::get_scores(response, "scores").ok()?;
    let scores: [f64; 4] = scores.try_into().ok()?;
    Some(scores.map(f64::to_bits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use circlekit_scoring::Scorer;

    fn tiny() -> Data {
        // Two triangles joined by one arc, as two circles.
        let edges = [
            (0, 1),
            (1, 2),
            (2, 0),
            (3, 4),
            (4, 5),
            (5, 3),
            (2, 3),
            (1, 0),
            (4, 3),
        ];
        let graph = Graph::from_edges(true, edges.iter().copied());
        let median = Scorer::new(&graph).median_degree();
        let groups = vec![
            VertexSet::from_vec(vec![0, 1, 2]),
            VertexSet::from_vec(vec![3, 4, 5]),
        ];
        Data {
            graph,
            groups,
            median,
        }
    }

    #[test]
    fn plans_are_a_pure_function_of_the_seed() {
        let data = tiny();
        let a = build(Workload::Hot, &data, 11, 2, true);
        let b = build(Workload::Hot, &data, 11, 2, true);
        let c = build(Workload::Hot, &data, 12, 2, true);
        let frames = |p: &Plan| {
            p.open
                .items
                .iter()
                .map(|i| i.frame.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(a.open.sched, b.open.sched);
        assert_eq!(frames(&a), frames(&b));
        assert_ne!(a.open.sched, c.open.sched);
        assert_eq!(a.open.items.len(), a.open.sched.len());
        assert!(
            a.open.items.iter().any(|i| i.conn == 0) && a.open.items.iter().any(|i| i.conn == 1)
        );
        assert_eq!(a.warmup.pools[0].len() + a.warmup.pools[1].len(), 2);
        assert!(a.warmup.pools.iter().all(|p| p.len() == 1));
    }

    #[test]
    fn hot_answers_are_checked_bit_for_bit() {
        let data = tiny();
        let plan = build(Workload::Hot, &data, 3, 1, false);
        let mut checker = Checker::new(&plan.expect);
        let bits = plan.expect[1];
        let answer = |scores: [u64; 4], size: u64| {
            Value::Map(vec![
                ("ok".to_string(), Value::Bool(true)),
                ("size".to_string(), Value::UInt(size)),
                (
                    "scores".to_string(),
                    wire::score_array(&scores.map(f64::from_bits)),
                ),
                ("cached".to_string(), Value::Bool(true)),
            ])
        };
        let check = Check::Scores { id: 1, size: 3 };
        let good = checker.check(check, &answer(bits, 3));
        assert_eq!(
            good,
            Verdict {
                correct: true,
                wrong: false,
                cached: Some(true)
            }
        );
        let mut off = bits;
        off[2] ^= 1; // one ulp away is a wrong answer
        assert!(checker.check(check, &answer(off, 3)).wrong);
        assert!(checker.check(check, &answer(bits, 4)).wrong);
        let refused: Value =
            serde_json::from_str(r#"{"ok":false,"error":{"kind":"overloaded","message":"full"}}"#)
                .unwrap();
        let v = checker.check(check, &refused);
        assert!(!v.correct && !v.wrong);
    }
}
