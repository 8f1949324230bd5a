//! Effective Training Time Ratio (Appendix C).
//!
//! "Assume failures are evenly distributed within one checkpoint interval.
//! Given the per-iteration training time `T_iter`, checkpoint interval `N`,
//! end-to-end checkpoint saving time `T_save` and loading (resharding) time
//! `T_load`, the average wasted time is
//! `T_wasted = T_save + T_load + N * T_iter / 2`, hence
//! `ETTR = 1 - T_wasted / (T_save + T_load + N * T_iter)`."

/// Average wasted time per failure (Appendix C, Eq. 1).
pub fn wasted_time(t_save: f64, t_load: f64, n: u64, t_iter: f64) -> f64 {
    t_save + t_load + n as f64 * t_iter / 2.0
}

/// Average ETTR (Appendix C, Eq. 2).
pub fn ettr(t_save: f64, t_load: f64, n: u64, t_iter: f64) -> f64 {
    let denom = t_save + t_load + n as f64 * t_iter;
    1.0 - wasted_time(t_save, t_load, n, t_iter) / denom
}

/// The Table 4 metric: ETTR "averaged across standard loading and
/// resharding settings".
pub fn ettr_avg(t_save: f64, t_load: f64, t_reshard: f64, n: u64, t_iter: f64) -> f64 {
    (ettr(t_save, t_load, n, t_iter) + ettr(t_save, t_reshard, n, t_iter)) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_checkpointing_approaches_half() {
        // With zero checkpoint cost, half the interval is still lost on
        // average (failures land mid-interval).
        let e = ettr(0.0, 0.0, 100, 1.0);
        assert!((e - 0.5).abs() < 1e-12);
    }

    #[test]
    fn slower_checkpointing_lowers_ettr() {
        let fast = ettr(10.0, 10.0, 100, 5.0);
        let slow = ettr(200.0, 100.0, 100, 5.0);
        assert!(fast > slow);
        assert!(fast < 0.5);
    }

    #[test]
    fn reproduces_paper_row_magnitudes() {
        // DCP vDiT-4B @ 32 GPUs: T_save 86.82, T_load 50.12, T_reshard
        // 74.89; the paper reports 38.60% with N = 100. A per-iteration
        // time near 5.5 s makes the published numbers self-consistent.
        let e = ettr_avg(86.82, 50.12, 74.89, 100, 5.5);
        assert!((0.36..0.41).contains(&e), "got {e}");
        // ByteCheckpoint row: 27.47 / 11.69 / 16.01 -> ~46%.
        let e = ettr_avg(27.47, 11.69, 16.01, 100, 5.5);
        assert!((0.44..0.49).contains(&e), "got {e}");
    }

    #[test]
    fn wasted_time_is_half_interval_plus_overheads() {
        assert_eq!(wasted_time(10.0, 20.0, 100, 2.0), 130.0);
    }
}
