//! Property: incremental discovery over a live [`DeltaOverlay`] is
//! bit-identical to from-scratch discovery on the materialized graph,
//! after *any* history of mutations — the contract that lets the serve
//! layer answer `suggest_circles` straight off the overlay without ever
//! materializing.

use circlekit_discover::{discover, render_suggestion, DiscoverConfig, EgoView};
use circlekit_graph::{Graph, NodeId};
use circlekit_live::DeltaOverlay;
use proptest::prelude::*;

const VERTS: u32 = 12;

#[derive(Debug, Clone)]
enum Op {
    AddEdge(u32, u32),
    RemoveEdge(u32, u32),
    AddVertex,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..8, 0..VERTS, 0..VERTS).prop_map(|(kind, u, v)| match kind {
        0..=3 => Op::AddEdge(u, v),
        4..=6 => Op::RemoveEdge(u, v),
        _ => Op::AddVertex,
    })
}

fn base_strategy() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0..VERTS, 0..VERTS), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn overlay_suggestions_match_materialized(
        base_edges in base_strategy(),
        history in proptest::collection::vec(op_strategy(), 0..30),
        directed in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let base = Graph::from_edges(directed, base_edges);
        let mut overlay = DeltaOverlay::new(&base);
        for op in &history {
            // Individual mutations may be rejected (duplicate edge,
            // missing edge, self-loop): the property must hold after any
            // *accepted* prefix, so rejections are simply skipped.
            match *op {
                Op::AddEdge(u, v) => {
                    let n = overlay.node_count() as u32;
                    let _ = overlay.add_edge(&base, u % n.max(1), v % n.max(1));
                }
                Op::RemoveEdge(u, v) => {
                    let n = overlay.node_count() as u32;
                    let _ = overlay.remove_edge(&base, u % n.max(1), v % n.max(1));
                }
                Op::AddVertex => {
                    overlay.add_vertex();
                }
            }
        }

        let materialized = overlay.materialize(&base);
        prop_assert_eq!(materialized.node_count(), overlay.node_count());

        let config = DiscoverConfig { seed, ..DiscoverConfig::default() };
        for ego in 0..overlay.node_count() as NodeId {
            let Ok(live_view) = EgoView::from_access(&overlay.compose(&base), ego);
            let scratch_view = EgoView::from_graph(&materialized, ego);
            prop_assert_eq!(&live_view.alters, &scratch_view.alters, "ego {} alters", ego);

            let live = discover(&live_view, &config);
            let scratch = discover(&scratch_view, &config);
            prop_assert_eq!(&live, &scratch, "ego {} suggestion", ego);
            prop_assert_eq!(
                render_suggestion(&live),
                render_suggestion(&scratch),
                "ego {} rendering", ego
            );

            // Thread count is scheduling, never output.
            let threaded = discover(&live_view, &DiscoverConfig { threads: 4, ..config.clone() });
            prop_assert_eq!(&live, &threaded, "ego {} thread invariance", ego);
        }
    }
}
