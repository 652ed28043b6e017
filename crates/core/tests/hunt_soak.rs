//! The 1000-hunt soak: a long portfolio campaign must not grow the number
//! of live tree nodes without bound, and dropping the campaign's outcomes
//! must return `arena::live_node_count` **exactly** to its pre-campaign
//! baseline — the failure mode being guarded against is a tree node that
//! outlives every handle to it, which compounds across real campaigns.
//!
//! The campaign varies the hunt seed every round, so rounds extract
//! *distinct* witness trees.  Every round's outcome is kept, so the live
//! count may grow by the kept witnesses and nothing else; dropping the
//! outcomes then releases them too.
//!
//! This lives in its own integration-test binary **on purpose**: the live
//! count is process-wide, so a test building trees concurrently in the same
//! binary would move it.  Do not add unrelated tests here.
//!
//! Exact-arithmetic heavy — run in release, as CI does:
//! `cargo test --release -p autoq-core --test hunt_soak -- --include-ignored`

use autoq_circuit::generators::mc_toffoli;
use autoq_circuit::mutation::insert_gate;
use autoq_circuit::Gate;
use autoq_core::{Engine, HuntJob, HuntPool};
use autoq_treeaut::arena;

#[test]
#[ignore = "1000-hunt soak: run in release (--include-ignored)"]
fn thousand_hunt_soak_keeps_the_arena_flat() {
    let original = mc_toffoli(3);
    let make_jobs = |round: u64| -> Vec<HuntJob> {
        (0..4)
            .map(|i| HuntJob {
                label: format!("round-{round}-mutant-{i}"),
                original: original.clone(),
                candidate: insert_gate(&original, Gate::X(4), 1 + i),
                // Fresh seed every round: fresh input patterns, fresh
                // witnesses, fresh interned nodes.
                seed: round * 16 + i as u64,
            })
            .collect()
    };
    let pool = HuntPool::new(Engine::hybrid()).with_threads(4);
    let baseline = arena::live_node_count();

    let mut hunts = 0usize;
    let mut kept_nodes = 0usize;
    let mut peak_live = baseline;
    let mut outcomes = Vec::new();
    for round in 0..250u64 {
        let outcome = pool.run(&make_jobs(round));
        hunts += outcome.hunts_completed + outcome.hunts_cancelled;
        let win = outcome.win.as_ref().expect("injected X gate is observable");
        assert!(win.report.bug_found, "round {round}");
        kept_nodes += win.report.witness.as_ref().map_or(0, |w| w.node_count());
        outcomes.push(outcome);
        peak_live = peak_live.max(arena::live_node_count());
        // Per-round growth is bounded by the kept winner witness (everything
        // else the round built was freed when its hunt dropped it).
        assert!(
            arena::live_node_count() <= baseline + kept_nodes,
            "round {round}: live nodes exceed baseline + kept witnesses"
        );
    }
    assert!(hunts >= 1000, "soak ran only {hunts} hunts");

    // Witnesses vary across rounds, so the campaign really did accumulate
    // kept nodes — the thing the final release must now give back.
    let live_before_release = arena::live_node_count();
    assert!(
        live_before_release > baseline,
        "seed-varied rounds must keep distinct witnesses"
    );

    // Drop every outcome of the campaign: the count returns exactly to the
    // pre-campaign baseline.  Any slack here is a leak that compounds
    // across real campaigns.
    drop(outcomes);
    assert_eq!(
        arena::live_node_count(),
        baseline,
        "live nodes did not return to baseline (peak {peak_live}, pre-release {live_before_release})"
    );
}
