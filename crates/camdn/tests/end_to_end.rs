//! End-to-end integration tests spanning every crate: model zoo →
//! mapper → co-design → multi-tenant engine, through the builder API.

#![forbid(unsafe_code)]

use camdn::common::types::MIB;
use camdn::common::SocConfig;
use camdn::models::zoo;
use camdn::{PolicyKind, RunOutput, Simulation, Workload};

fn quick(policy: PolicyKind, models: Vec<camdn::models::Model>) -> RunOutput {
    Simulation::builder()
        .policy(policy)
        .workload(Workload::closed(models, 2))
        .run()
        .expect("quick run")
}

#[test]
fn every_policy_completes_a_mixed_workload() {
    let models = vec![zoo::mobilenet_v2(), zoo::gnmt(), zoo::efficientnet_b0()];
    for policy in PolicyKind::ALL {
        let r = quick(policy, models.clone());
        assert_eq!(r.tasks().len(), 3, "{policy:?}");
        assert_eq!(r.summary.tasks, 3, "{policy:?}");
        for t in r.tasks() {
            assert_eq!(t.inferences, 1, "{policy:?}/{}", t.abbr);
            assert!(t.mean_latency_ms > 0.0);
        }
    }
}

#[test]
fn camdn_full_reduces_traffic_on_the_zoo_mix() {
    // The headline claim of the paper at small scale: the full co-design
    // moves less DRAM data than the transparent baseline.
    let models = zoo::all();
    let base = quick(PolicyKind::Aurora, models.clone());
    let full = quick(PolicyKind::CamdnFull, models);
    assert!(
        full.summary.mem_mb_per_model < base.summary.mem_mb_per_model,
        "CaMDN {:.1} MB !< baseline {:.1} MB",
        full.summary.mem_mb_per_model,
        base.summary.mem_mb_per_model
    );
    assert!(
        full.summary.avg_latency_ms < base.summary.avg_latency_ms,
        "CaMDN {:.2} ms !< baseline {:.2} ms",
        full.summary.avg_latency_ms,
        base.summary.avg_latency_ms
    );
}

#[test]
fn camdn_full_beats_hw_only_on_intermediate_heavy_mix() {
    // Dynamic allocation (Algorithm 1) enables LBM that the static
    // split cannot: the MB/EF-heavy mix shows the gap (Fig. 7).
    let models = vec![
        zoo::mobilenet_v2(),
        zoo::efficientnet_b0(),
        zoo::mobilenet_v2(),
        zoo::efficientnet_b0(),
        zoo::resnet50(),
        zoo::resnet50(),
    ];
    let hw = quick(PolicyKind::CamdnHwOnly, models.clone());
    let full = quick(PolicyKind::CamdnFull, models);
    assert!(
        full.summary.mem_mb_per_model < hw.summary.mem_mb_per_model,
        "Full {:.1} MB !< HW-only {:.1} MB",
        full.summary.mem_mb_per_model,
        hw.summary.mem_mb_per_model
    );
}

#[test]
fn contention_degrades_the_baseline_not_camdn() {
    let lone = quick(PolicyKind::SharedBaseline, vec![zoo::efficientnet_b0()]);
    let crowd_models: Vec<_> = (0..8).map(|_| zoo::efficientnet_b0()).collect();
    let crowd = quick(PolicyKind::SharedBaseline, crowd_models.clone());
    let ratio_base = crowd.tasks()[0].mean_latency_ms / lone.tasks()[0].mean_latency_ms;

    let lone_c = quick(PolicyKind::CamdnFull, vec![zoo::efficientnet_b0()]);
    let crowd_c = quick(PolicyKind::CamdnFull, crowd_models);
    let ratio_camdn = crowd_c.tasks()[0].mean_latency_ms / lone_c.tasks()[0].mean_latency_ms;

    assert!(
        ratio_base > ratio_camdn,
        "baseline degradation {ratio_base:.2}x should exceed CaMDN {ratio_camdn:.2}x"
    );
}

#[test]
fn scaling_cache_helps_the_baseline() {
    // Fig. 2: a bigger transparent cache absorbs more contention.
    let models: Vec<_> = zoo::all().into_iter().take(6).collect();
    let run = |bytes: u64| {
        Simulation::builder()
            .policy(PolicyKind::SharedBaseline)
            .soc(SocConfig::paper_default().with_cache_bytes(bytes))
            .workload(Workload::closed(models.clone(), 2))
            .run()
            .expect("scaling run")
    };
    let small = run(4 * MIB);
    let big = run(64 * MIB);
    assert!(
        big.summary.cache_hit_rate > small.summary.cache_hit_rate,
        "hit rate {:.3} @64MB !> {:.3} @4MB",
        big.summary.cache_hit_rate,
        small.summary.cache_hit_rate
    );
    assert!(big.summary.mem_mb_per_model < small.summary.mem_mb_per_model);
}

#[test]
fn qos_levels_order_sla_rates() {
    // Looser deadlines can only help the SLA rate.
    let models: Vec<_> = zoo::all().into_iter().take(4).collect();
    let mut rates = Vec::new();
    for scale in [0.8, 1.0, 1.2] {
        let r = Simulation::builder()
            .policy(PolicyKind::CamdnFull)
            .qos_scale(scale)
            .workload(Workload::closed(models.clone(), 2))
            .run()
            .expect("qos run");
        let sla: f64 = r.tasks().iter().map(|t| t.sla_rate).sum::<f64>() / r.tasks().len() as f64;
        rates.push(sla);
    }
    assert!(
        rates[0] <= rates[1] + 1e-9 && rates[1] <= rates[2] + 1e-9,
        "{rates:?}"
    );
}

#[test]
fn deterministic_across_runs_per_policy() {
    let models = vec![zoo::mobilenet_v2(), zoo::wav2vec2_base()];
    for policy in [PolicyKind::SharedBaseline, PolicyKind::CamdnFull] {
        let a = quick(policy, models.clone());
        let b = quick(policy, models.clone());
        assert_eq!(a, b, "{policy:?} must be deterministic");
    }
}
