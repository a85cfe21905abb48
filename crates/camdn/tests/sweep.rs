//! Integration tests of the parallel sweep subsystem: every grid cell
//! must be bit-for-bit the result of running that configuration alone
//! through `Simulation::builder()` — with and without the shared
//! mapping-plan cache — in input order, regardless of thread count, and
//! a broken cell must surface as its own error without disturbing its
//! neighbors.

#![forbid(unsafe_code)]

use camdn::common::types::MIB;
use camdn::runtime::{Policy, PolicyCapabilities, Selection};
use camdn::sweep::run_cells;
use camdn::{DetailLevel, EngineError, PolicyKind, RunOutput, Simulation, Sweep, Workload};
use camdn_models::zoo;

fn small() -> Vec<camdn_models::Model> {
    vec![zoo::mobilenet_v2()]
}

fn pair() -> Vec<camdn_models::Model> {
    vec![zoo::mobilenet_v2(), zoo::efficientnet_b0()]
}

/// Serial ground truth for one (policy, cache-bytes, workload) cell.
fn serial(policy: PolicyKind, cache: u64, models: Vec<camdn_models::Model>) -> RunOutput {
    Simulation::builder()
        .policy(policy)
        .soc(camdn::common::SocConfig::paper_default().with_cache_bytes(cache))
        .workload(Workload::closed(models, 2))
        .run()
        .expect("serial cell")
}

#[test]
fn grid_cells_match_serial_runs_bit_for_bit() {
    let policies = [PolicyKind::SharedBaseline, PolicyKind::CamdnFull];
    let caches = [8 * MIB, 16 * MIB];
    let workloads = [("mb", small()), ("mb+eb", pair())];

    // The same grid, with and without the shared mapping-plan cache.
    for shared_cache in [true, false] {
        let grid = Sweep::grid()
            .policies(policies)
            .cache_bytes(caches)
            .workloads(
                workloads
                    .iter()
                    .map(|(l, m)| (l.to_string(), Workload::closed(m.clone(), 2))),
            )
            .shared_plan_cache(shared_cache)
            .detail(DetailLevel::Tasks)
            .run()
            .expect("grid");
        assert_eq!(grid.cells.len(), 8);
        assert_eq!(grid.ok_count(), 8);
        assert_eq!(grid.plan_cache.is_some(), shared_cache);
        for cell in &grid.cells {
            let c = &cell.coord;
            let expect = serial(
                policies[c.policy],
                caches[c.cache],
                workloads[c.workload].1.clone(),
            );
            assert_eq!(
                *cell.outcome.as_ref().unwrap(),
                expect,
                "cell {:?} (shared_cache={shared_cache}) diverged from its serial run",
                c
            );
        }
    }
}

#[test]
fn order_is_preserved_under_thread_oversubscription() {
    // Many more workers than cores, duplicate seeds scattered through
    // the axis: results must land at their own indices, not the order
    // workers finish in.
    let seeds: Vec<u64> = vec![7, 1, 7, 3, 1, 7, 9, 3, 1, 7, 5, 2];
    let grid = Sweep::grid()
        .policy(PolicyKind::SharedBaseline)
        .workload("mb", Workload::closed(small(), 2))
        .seeds(seeds.clone())
        .threads(8)
        .detail(DetailLevel::Tasks)
        .run()
        .expect("seed grid");
    assert_eq!(grid.cells.len(), seeds.len());
    for (i, cell) in grid.cells.iter().enumerate() {
        assert_eq!(cell.coord.seed, i, "cell {i} not at its own index");
        assert_eq!(grid.index_of(&cell.coord), i);
        let expect = Simulation::builder()
            .policy(PolicyKind::SharedBaseline)
            .seed(seeds[i])
            .workload(Workload::closed(small(), 2))
            .run()
            .unwrap();
        assert_eq!(
            *cell.outcome.as_ref().unwrap(),
            expect,
            "seed {} at index {i} mis-attributed",
            seeds[i]
        );
    }
}

#[test]
fn error_cells_do_not_disturb_their_neighbors() {
    // The middle workload is empty: its cells must carry EmptyWorkload
    // while every neighbor still matches its serial run.
    let grid = Sweep::grid()
        .policies([PolicyKind::SharedBaseline, PolicyKind::CamdnFull])
        .workload("good", Workload::closed(small(), 2))
        .workload("empty", Workload::closed(vec![], 2))
        .workload("also-good", Workload::closed(pair(), 2))
        .detail(DetailLevel::Tasks)
        .run()
        .expect("grid with a broken cell");
    assert_eq!(grid.cells.len(), 6);
    assert_eq!(grid.ok_count(), 4);
    for cell in &grid.cells {
        let c = &cell.coord;
        if c.workload == 1 {
            assert_eq!(
                cell.outcome.as_ref().err(),
                Some(&EngineError::EmptyWorkload)
            );
            continue;
        }
        let models = if c.workload == 0 { small() } else { pair() };
        let expect = Simulation::builder()
            .policy([PolicyKind::SharedBaseline, PolicyKind::CamdnFull][c.policy])
            .workload(Workload::closed(models, 2))
            .run()
            .unwrap();
        assert_eq!(*cell.outcome.as_ref().unwrap(), expect);
    }
    assert_eq!(grid.errors().count(), 2);
}

/// A policy that panics on its first scheduling decision — stands in
/// for any internal invariant failure inside one cell.
struct Exploding;

impl Policy for Exploding {
    fn label(&self) -> &str {
        "Exploding"
    }
    fn capabilities(&self) -> PolicyCapabilities {
        PolicyCapabilities::default()
    }
    fn select_candidate(
        &mut self,
        _now: camdn::common::types::Cycle,
        _task: u32,
        _mct: &camdn::mapper::Mct,
        _lbm_active: bool,
        _idle_pages: u32,
    ) -> Selection {
        panic!("policy exploded mid-run");
    }
}

#[test]
fn a_panicking_cell_is_caught_as_a_structured_error() {
    let ok = || {
        Simulation::builder()
            .policy(PolicyKind::SharedBaseline)
            .workload(Workload::closed(small(), 2))
    };
    let boom = Simulation::builder()
        .policy_instance(Box::new(Exploding))
        .workload(Workload::closed(small(), 2));
    let runs = run_cells(vec![ok(), boom, ok()], Some(2));
    assert_eq!(runs.len(), 3);
    match &runs[1].outcome {
        Err(EngineError::Panicked { detail }) => {
            assert!(detail.contains("policy exploded"), "{detail}")
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    let expect = ok().run().unwrap();
    for i in [0, 2] {
        assert_eq!(
            *runs[i].outcome.as_ref().unwrap(),
            expect,
            "neighbor {i} disturbed by the panicking cell"
        );
    }
}

#[test]
fn shared_plan_cache_maps_each_model_once_per_grid() {
    // One worker: concurrent cold cells may legitimately both miss the
    // same key (lock-brief lookups), so exact counts need serial order.
    let grid = Sweep::grid()
        .policies(PolicyKind::ALL)
        .workload("pair", Workload::closed(pair(), 2))
        .threads(1)
        .run()
        .expect("grid");
    assert_eq!(grid.ok_count(), 5);
    let stats = grid.plan_cache.expect("shared cache is the default");
    assert_eq!(
        stats.model_misses, 2,
        "two distinct models must be mapped exactly once each"
    );
    assert_eq!(
        stats.model_hits,
        5 * 2 - 2,
        "every other cell lookup must be a hit"
    );
}
