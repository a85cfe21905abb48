//! The event-driven run loop must reproduce, bit for bit, the outcomes
//! of the monolithic advance loop it replaced. Those outcomes are the
//! golden corpus (`tests/golden/run_outputs.txt`): it was generated
//! while both loops still existed, and both produced it byte for byte.
//! Each test below runs one group of the corpus matrix and compares
//! every outcome — the whole `RunOutput`, or the `BudgetExceeded`
//! error with its cycle and partial — with its recorded line.

#![forbid(unsafe_code)]

mod golden;

/// 5 policies × a four-tenant closed loop.
#[test]
fn all_policies_match_legacy_on_closed_multi_tenant() {
    golden::assert_group_matches("closed");
}

/// QoS mode redistributes bandwidth shares and NPU quotas at every
/// epoch tick, so an epoch boundary one event early or late diverges.
#[test]
fn all_policies_match_legacy_in_qos_mode() {
    golden::assert_group_matches("qos0.8");
}

/// Baseline and CaMDN(Full) on Poisson arrivals at every detail level.
#[test]
fn open_loop_poisson_matches_legacy_at_every_detail_level() {
    golden::assert_group_matches("poisson");
}

/// Queue-depth sampling drains its boundaries in the recorded order.
#[test]
fn bursty_arrivals_with_queue_sampling_match_legacy() {
    golden::assert_group_matches("bursty-sampled");
}

/// Same-cycle arrivals keep the FIFO tie-break (task order).
#[test]
fn traced_arrivals_match_legacy() {
    golden::assert_group_matches("traced");
}

/// A mixed mid-run fault plan (NPU outage, DRAM brownout and degrade,
/// clock throttle) under every policy.
#[test]
fn mid_run_faults_match_legacy_for_all_policies() {
    golden::assert_group_matches("faults");
}

/// Seeded MTBF/MTTR fault processes.
#[test]
fn generated_chaos_schedules_match_legacy() {
    golden::assert_group_matches("chaos");
}

/// A run stopped by the cycle budget stops at the recorded cycle with
/// the recorded partial, with and without a racing fault plan.
#[test]
fn budget_exceeded_partials_match_legacy() {
    golden::assert_group_matches("budget");
}

/// Engine seeds reshuffle NPU assignment and arrival draws into
/// different event interleavings.
#[test]
fn seed_sweep_matches_legacy() {
    golden::assert_group_matches("seed");
}
