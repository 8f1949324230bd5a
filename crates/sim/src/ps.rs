//! Processor-sharing finish times: the flow-level contention primitive.
//!
//! `n` flows with byte demands `d_i` share a bottleneck of rate `R`, each
//! additionally capped at `c` (its NIC / storage-client limit). The
//! bottleneck is divided max-min fairly: every active flow gets
//! `min(c, R / active)`. As flows finish, the survivors speed up. This is
//! the standard flow-level model of TCP-fair sharing and matches how a
//! checkpoint burst hits an HDFS cluster: thousands of clients, each capped
//! by its own pipeline, jointly capped by cluster ingest bandwidth.

/// Finish time of each flow (seconds), given per-flow byte demands, a
/// per-flow rate cap, and a shared bottleneck rate (bytes/second).
///
/// Zero-demand flows finish at t = 0. Infinite caps/bottlenecks are allowed
/// (`f64::INFINITY`).
pub fn finish_times(demands: &[f64], per_flow_cap: f64, bottleneck: f64) -> Vec<f64> {
    let n = demands.len();
    let mut remaining: Vec<f64> = demands.to_vec();
    let mut finish = vec![0.0f64; n];
    // Active = flows with remaining > 0, processed in demand order.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| demands[a].partial_cmp(&demands[b]).expect("finite demands"));
    let mut t = 0.0f64;
    let mut active: Vec<usize> = order.iter().copied().filter(|&i| demands[i] > 0.0).collect();
    while !active.is_empty() {
        let k = active.len() as f64;
        let rate = per_flow_cap.min(bottleneck / k);
        assert!(rate > 0.0, "non-positive service rate");
        // The flow with the smallest remaining demand finishes first; since
        // every active flow serves at the same rate, `active` stays sorted
        // by remaining demand (it started sorted by demand).
        let head = active[0];
        let dt = remaining[head] / rate;
        t += dt;
        // Drain everything that finishes in this epoch (ties).
        let mut drained = 0;
        for &i in &active {
            let left = remaining[i] - rate * dt;
            if left <= 1e-9 {
                remaining[i] = 0.0;
                finish[i] = t;
                drained += 1;
            } else {
                remaining[i] = left;
            }
        }
        active.drain(0..drained);
    }
    finish
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: f64 = 1e9;

    /// The last finish time (the straggler).
    fn last_finish(demands: &[f64], per_flow_cap: f64, bottleneck: f64) -> f64 {
        finish_times(demands, per_flow_cap, bottleneck).into_iter().fold(0.0, f64::max)
    }

    #[test]
    fn single_flow_hits_its_cap() {
        let f = finish_times(&[10.0 * GB], 2.0 * GB, 100.0 * GB);
        assert!((f[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_shared_fairly() {
        // 4 equal flows, caps are generous, bottleneck 4 GB/s: each gets
        // 1 GB/s, all finish together.
        let f = finish_times(&[4.0 * GB; 4], 100.0 * GB, 4.0 * GB);
        for t in &f {
            assert!((t - 4.0).abs() < 1e-6, "{f:?}");
        }
    }

    #[test]
    fn survivors_speed_up() {
        // Flows of 1 GB and 3 GB share a 2 GB/s bottleneck (caps loose).
        // Phase 1: both at 1 GB/s; small one finishes at t=1.
        // Phase 2: big one has 2 GB left at 2 GB/s -> finishes at t=2.
        let f = finish_times(&[1.0 * GB, 3.0 * GB], 10.0 * GB, 2.0 * GB);
        assert!((f[0] - 1.0).abs() < 1e-6);
        assert!((f[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn caps_bind_when_bottleneck_is_wide() {
        // Aggregate is huge; each flow limited by its 1 GB/s cap.
        let f = finish_times(&[5.0 * GB, 2.0 * GB], 1.0 * GB, f64::INFINITY);
        assert!((f[0] - 5.0).abs() < 1e-6);
        assert!((f[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn zero_demand_finishes_immediately() {
        let f = finish_times(&[0.0, 1.0 * GB], 1.0 * GB, f64::INFINITY);
        assert_eq!(f[0], 0.0);
        assert!((f[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn imbalance_hurts_makespan() {
        // Same total bytes: balanced finishes faster than skewed under a
        // per-flow cap — the Worst-Fit vs first-DP-group effect.
        let balanced = last_finish(&[2.0 * GB; 8], 1.0 * GB, f64::INFINITY);
        let skewed = last_finish(&[16.0 * GB, 0., 0., 0., 0., 0., 0., 0.], 1.0 * GB, f64::INFINITY);
        assert!(skewed >= balanced * 7.9, "balanced {balanced}, skewed {skewed}");
    }

    #[test]
    fn work_conservation() {
        // Total service equals total demand / bottleneck when the
        // bottleneck binds throughout (all flows equal).
        let f = last_finish(&[1.0 * GB; 10], f64::INFINITY, 5.0 * GB);
        assert!((f - 2.0).abs() < 1e-6);
    }
}
