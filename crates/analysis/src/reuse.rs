//! Reuse-count and reuse-distance statistics (Fig. 3 of the paper).
//!
//! The paper motivates CaMDN with two statistical analyses over the
//! benchmark models, performed on the cache-visible access stream of the
//! cache-unaware baseline mapping:
//!
//! * **Reuse count** (Fig. 3a): for every byte entering the shared
//!   cache, how many times is it accessed in total? Data accessed once is
//!   pure pollution — it occupies cache space without any chance of a
//!   hit. The paper reports 68.0 % of data with no future reuse on
//!   average.
//! * **Reuse distance** (Fig. 3b): for inter-layer intermediate tensors,
//!   how many bytes of other data are accessed between the write (by
//!   layer `i`) and the read (by layer `i+1`)? The paper reports 61.8 %
//!   of intermediates with distances above 1 MiB and 47.9 % above 2 MiB
//!   — too far for a contended transparent cache to hold.

use camdn_common::stats::Histogram;
use camdn_common::types::MIB;
use camdn_mapper::{LoopOrder, MapperConfig, ModelMapping, TensorSizes};
use camdn_models::Model;
use serde::{Deserialize, Serialize};

/// Reuse-count buckets of Fig. 3a: {1, 2–4, 5–8, ≥9} accesses.
pub const REUSE_COUNT_EDGES: [u64; 3] = [2, 5, 9];

/// Reuse-distance buckets of Fig. 3b: {≤1 MiB, 1–2 MiB, 2–4 MiB, >4 MiB}.
pub const REUSE_DIST_EDGES: [u64; 3] = [MIB, 2 * MIB, 4 * MIB];

/// Fig. 3 statistics of one model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReuseProfile {
    /// Model abbreviation.
    pub abbr: String,
    /// Fraction of bytes per reuse-count bucket `{1, 2-4, 5-8, >=9}`.
    pub count_fractions: Vec<f64>,
    /// Fraction of intermediate bytes per reuse-distance bucket
    /// `{<=1MiB, 1-2MiB, 2-4MiB, >4MiB}`.
    pub distance_fractions: Vec<f64>,
    /// Fraction of bytes with no future reuse (reuse count == 1).
    pub no_reuse_fraction: f64,
    /// Fraction of intermediate bytes with reuse distance > 1 MiB.
    pub far_fraction: f64,
}

/// Computes the Fig. 3 statistics for one model under the baseline
/// (cache-unaware) mapping.
pub fn reuse_profile(model: &Model, mapping: &ModelMapping) -> ReuseProfile {
    let mut counts = Histogram::new(&REUSE_COUNT_EDGES);
    let mut dists = Histogram::new(&REUSE_DIST_EDGES);

    // Traffic between the write of layer i's output and its read by
    // layer i+1 equals everything layer i+1 moves before/while consuming
    // it. Under the baseline mapping the consumer streams its weights
    // and re-sweeps one tensor; the intermediate is read at distance ~
    // (weights + the co-runners' traffic). Even alone, the distance is
    // at least the consumer's weight stream; we report the single-tenant
    // lower bound, as the paper's analysis does.
    for (i, layer) in model.layers.iter().enumerate() {
        let sizes = TensorSizes::of(layer);
        let cand = &mapping.baseline[i];
        let resweeps = match cand.order {
            LoopOrder::OcOuter => cand.tiling.n_oc,
            LoopOrder::SpatialOuter => cand.tiling.n_sp,
        };

        // Reuse counts of the bytes this layer pushes through the cache.
        match cand.order {
            LoopOrder::OcOuter => {
                // Weights pass once; the input is touched `n_oc` times.
                counts.record_n(1, sizes.weight + sizes.bias);
                counts.record_n(resweeps, sizes.input);
            }
            LoopOrder::SpatialOuter => {
                counts.record_n(resweeps, sizes.weight);
                counts.record_n(1, sizes.input + sizes.bias);
            }
        }
        // The output is written once here; if a consumer exists it is
        // read again (count 2), otherwise it leaves the chip (count 1).
        let has_consumer = i + 1 < model.layers.len();
        counts.record_n(if has_consumer { 2 } else { 1 }, sizes.output);

        // Reuse distance of the intermediate produced by this layer: the
        // consumer's own traffic before the final sweep of its input.
        if has_consumer {
            let next = &model.layers[i + 1];
            let nsizes = TensorSizes::of(next);
            let consumer_stream = nsizes.weight + nsizes.bias + nsizes.output / 2;
            // The intermediate's own size contributes: a byte written at
            // the start of the tensor waits for the rest of the tensor.
            let dist = consumer_stream + sizes.output / 2;
            dists.record_n(dist, sizes.output);
        }
    }

    let cf = counts.fractions();
    let df = dists.fractions();
    ReuseProfile {
        abbr: model.abbr.clone(),
        no_reuse_fraction: cf[0],
        far_fraction: df[1] + df[2] + df[3],
        count_fractions: cf,
        distance_fractions: df,
    }
}

/// Profiles the whole zoo plus the average row (the "Avg." column of
/// Fig. 3).
pub fn profile_zoo(cfg: &MapperConfig) -> Vec<ReuseProfile> {
    let zoo = camdn_models::zoo::all();
    let mut rows: Vec<ReuseProfile> = zoo
        .iter()
        .map(|m| {
            let mapping = camdn_mapper::map_model(m, cfg);
            reuse_profile(m, &mapping)
        })
        .collect();
    let n = rows.len() as f64;
    let avg = ReuseProfile {
        abbr: "Avg".into(),
        count_fractions: (0..4)
            .map(|i| rows.iter().map(|r| r.count_fractions[i]).sum::<f64>() / n)
            .collect(),
        distance_fractions: (0..4)
            .map(|i| rows.iter().map(|r| r.distance_fractions[i]).sum::<f64>() / n)
            .collect(),
        no_reuse_fraction: rows.iter().map(|r| r.no_reuse_fraction).sum::<f64>() / n,
        far_fraction: rows.iter().map(|r| r.far_fraction).sum::<f64>() / n,
    };
    rows.push(avg);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use camdn_mapper::map_model;
    use camdn_models::zoo;

    fn profile(m: &Model) -> ReuseProfile {
        let mapping = map_model(m, &MapperConfig::paper_default());
        reuse_profile(m, &mapping)
    }

    #[test]
    fn fractions_sum_to_one() {
        for m in zoo::all() {
            let p = profile(&m);
            let cs: f64 = p.count_fractions.iter().sum();
            assert!((cs - 1.0).abs() < 1e-9, "{}: counts sum {cs}", m.name);
            if m.total_intermediate_bytes() > 0 {
                let ds: f64 = p.distance_fractions.iter().sum();
                assert!((ds - 1.0).abs() < 1e-9, "{}: dists sum {ds}", m.name);
            }
        }
    }

    #[test]
    fn large_no_reuse_fraction_on_average() {
        // Paper: 68.0% of data have no future reuse on average. Our
        // reproduction should land in the same regime (> 40%).
        let rows = profile_zoo(&MapperConfig::paper_default());
        let avg = rows.last().unwrap();
        assert!(
            avg.no_reuse_fraction > 0.4,
            "avg no-reuse fraction {:.2} too small",
            avg.no_reuse_fraction
        );
    }

    #[test]
    fn most_intermediates_reused_far_away() {
        // Paper: 61.8% of intermediates above 1 MiB reuse distance.
        let rows = profile_zoo(&MapperConfig::paper_default());
        let avg = rows.last().unwrap();
        assert!(
            avg.far_fraction > 0.4,
            "avg far fraction {:.2} too small",
            avg.far_fraction
        );
    }

    #[test]
    fn gnmt_weights_land_in_the_high_reuse_bucket() {
        // Fig. 3a shows GNMT with a large >=9 reuse-count share: the
        // recurrence re-reads the gate matrices once per timestep.
        // The recurrent half of the gate weights is re-swept once per
        // timestep; the input half streams once (cuDNN decomposition).
        let p = profile(&zoo::gnmt());
        assert!(
            p.count_fractions[3] > 0.3,
            "GNMT >=9 bucket {:.2} too small",
            p.count_fractions[3]
        );
    }

    #[test]
    fn zoo_profile_has_nine_rows() {
        let rows = profile_zoo(&MapperConfig::paper_default());
        assert_eq!(rows.len(), 9);
        assert_eq!(rows[8].abbr, "Avg");
    }
}
