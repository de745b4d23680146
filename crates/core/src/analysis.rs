//! The paper's failure-overhead analytical model (§5).
//!
//! Implements, symbol for symbol:
//!
//! * eq. 1 — expected wasted GPU time for periodic checkpointing at
//!   frequency `c`;
//! * eq. 3 — the optimal checkpointing frequency `c* = √(N·f / 2o)`;
//! * eq. 4/5 — wasted work at the optimum and the per-GPU wasted rate;
//! * eq. 6 — the wasted time *fraction* `w_f = w / (1 + w)`;
//! * eq. 7 — wasted work for user-level JIT checkpointing;
//! * eq. 8 — wasted work for transparent JIT checkpointing;
//! * the §5.1 dollar-cost estimate and the §6.5 scaling curves (eq. 9–10).
//!
//! All rates are per second; all durations in seconds, matching
//! [`simcore::SimTime`] conventions.

/// Inputs to the wasted-work model for one job configuration.
#[derive(Debug, Clone, Copy)]
pub struct JobParams {
    /// `o`: overhead time of one checkpoint on one GPU (seconds).
    pub ckpt_overhead: f64,
    /// `f`: per-GPU failure frequency (failures per second).
    pub failure_rate: f64,
    /// `r`: fixed recovery cost per GPU per failure (seconds) —
    /// checkpoint download, process/GPU init, data preparation.
    pub fixed_recovery: f64,
    /// `N`: number of GPUs.
    pub n_gpus: usize,
    /// `m`: minibatch duration (seconds).
    pub minibatch: f64,
}

impl JobParams {
    /// Convenience constructor with `f` in failures/GPU/day.
    pub fn new(
        ckpt_overhead: f64,
        failures_per_gpu_day: f64,
        fixed_recovery: f64,
        n_gpus: usize,
        minibatch: f64,
    ) -> Self {
        JobParams {
            ckpt_overhead,
            failure_rate: failures_per_gpu_day / 86_400.0,
            fixed_recovery,
            n_gpus,
            minibatch,
        }
    }
}

/// Eq. 3: optimal periodic checkpointing frequency `c* = √(N·f / 2o)`
/// (checkpoints per second).
pub fn optimal_frequency(p: &JobParams) -> f64 {
    (p.n_gpus as f64 * p.failure_rate / (2.0 * p.ckpt_overhead)).sqrt()
}

/// Eq. 1 (normalized by `N·t`): expected wasted GPU time per GPU per unit
/// useful time for periodic checkpointing at frequency `c`:
/// `w = c·o + N·f·r + N·f/(2c)`.
pub fn wasted_rate_periodic(p: &JobParams, c: f64) -> f64 {
    let nf = p.n_gpus as f64 * p.failure_rate;
    c * p.ckpt_overhead + nf * p.fixed_recovery + nf / (2.0 * c)
}

/// Eq. 5: wasted rate at the optimal frequency,
/// `w* = 2·√(N·f·o/2) + N·f·r`.
pub fn wasted_rate_periodic_optimal(p: &JobParams) -> f64 {
    let nf = p.n_gpus as f64 * p.failure_rate;
    2.0 * (nf * p.ckpt_overhead / 2.0).sqrt() + nf * p.fixed_recovery
}

/// Eq. 6: wasted time fraction `w_f = w / (1 + w)`.
pub fn wasted_fraction(w: f64) -> f64 {
    w / (1.0 + w)
}

/// Eq. 7 (normalized): wasted rate for **user-level** JIT checkpointing:
/// `w = f·o + o_jit + N·f·r + N·f·m/2`, with one checkpoint per failure
/// instead of periodic checkpoints.
pub fn wasted_rate_jit_user(p: &JobParams, steady_overhead: f64) -> f64 {
    let nf = p.n_gpus as f64 * p.failure_rate;
    p.failure_rate * p.ckpt_overhead
        + steady_overhead
        + nf * p.fixed_recovery
        + nf * p.minibatch / 2.0
}

/// Eq. 8 (normalized): wasted rate for **transparent** JIT checkpointing
/// on transient errors: `w = o_jit + N·f·m/2` — no checkpoint copy and no
/// fixed re-initialization cost (CRIU preserves worker CPU state).
pub fn wasted_rate_jit_transparent(p: &JobParams, steady_overhead: f64) -> f64 {
    let nf = p.n_gpus as f64 * p.failure_rate;
    steady_overhead + nf * p.minibatch / 2.0
}

/// §5.1 dollar-cost estimate: monthly cost of wasted GPU time due to
/// failures, given the per-failure wasted time per GPU.
///
/// The paper's example: 1000 GPUs, 1 failure/day, 0.25 h wasted per GPU
/// per failure, $4/GPU/hour → $30,000/month.
pub fn monthly_failure_cost_dollars(
    n_gpus: usize,
    failures_per_day: f64,
    wasted_hours_per_gpu_per_failure: f64,
    dollars_per_gpu_hour: f64,
) -> f64 {
    n_gpus as f64
        * failures_per_day
        * 30.0
        * wasted_hours_per_gpu_per_failure
        * dollars_per_gpu_hour
}

/// One point of the §6.5 scaling analysis. Public because
/// [`scaling_curve`] returns it.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// GPU count.
    pub n: usize,
    /// Optimal periodic frequency (per hour).
    pub c_star_per_hour: f64,
    /// Wasted fraction for periodic checkpointing at `c*`.
    pub wf_periodic: f64,
    /// Wasted fraction for user-level JIT.
    pub wf_jit_user: f64,
    /// Wasted fraction for transparent JIT (transient errors).
    pub wf_jit_transparent: f64,
}

/// Sweeps the wasted-fraction model over GPU counts (the §6.5 "figure").
///
/// `user_steady` / `transparent_steady` are the measured per-unit-time
/// steady-state overheads of the two JIT designs.
pub fn scaling_curve(
    base: &JobParams,
    ns: &[usize],
    user_steady: f64,
    transparent_steady: f64,
) -> Vec<ScalingPoint> {
    ns.iter()
        .map(|&n| {
            let p = JobParams { n_gpus: n, ..*base };
            ScalingPoint {
                n,
                c_star_per_hour: optimal_frequency(&p) * 3600.0,
                wf_periodic: wasted_fraction(wasted_rate_periodic_optimal(&p)),
                wf_jit_user: wasted_fraction(wasted_rate_jit_user(&p, user_steady)),
                wf_jit_transparent: wasted_fraction(wasted_rate_jit_transparent(
                    &p,
                    transparent_steady,
                )),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BERT-L-PT parameters from §6.5: o = 5 s, r = 9.9 s,
    /// f = 2e-3 /GPU/day.
    fn bert_l() -> JobParams {
        JobParams::new(5.0, 2.0 / 992.0, 9.9, 4, 0.418)
    }

    #[test]
    fn eq9_bert_l_optimal_frequency_is_sqrt_n_over_6h() {
        // Paper: c* ≈ √N / 6hr. At N = 4: once every 3 hours.
        let p = bert_l();
        let c = optimal_frequency(&p); // per second
        let per_6h = c * 6.0 * 3600.0;
        assert!((per_6h - 2.0).abs() < 0.15, "√4 = 2 per 6h, got {per_6h}");
        // At N = 1024: ≈ 5.54/hour (paper's number).
        let p = JobParams { n_gpus: 1024, ..p };
        let per_hour = optimal_frequency(&p) * 3600.0;
        assert!((per_hour - 5.54).abs() < 0.3, "got {per_hour}");
    }

    #[test]
    fn optimal_frequency_minimizes_eq1() {
        // Numeric scan: no frequency beats c*.
        let p = JobParams::new(5.0, 2e-3, 9.9, 1024, 0.4);
        let c_star = optimal_frequency(&p);
        let w_star = wasted_rate_periodic(&p, c_star);
        for k in 1..200 {
            let c = c_star * (0.1 + k as f64 * 0.02);
            assert!(
                wasted_rate_periodic(&p, c) >= w_star - 1e-15,
                "c = {c} beats c* = {c_star}"
            );
        }
        // And the closed form matches the plugged-in form.
        assert!((w_star - wasted_rate_periodic_optimal(&p)).abs() < 1e-12);
    }

    #[test]
    fn eq10_bert_l_wasted_fraction_values() {
        // Paper: w_f ≈ 0.1% at N = 4 and ≈ 1.53% at N = 1024.
        let p = bert_l();
        let wf4 = wasted_fraction(wasted_rate_periodic_optimal(&p));
        assert!((0.0005..0.002).contains(&wf4), "N=4: {wf4}");
        let p1024 = JobParams { n_gpus: 1024, ..p };
        let wf1024 = wasted_fraction(wasted_rate_periodic_optimal(&p1024));
        assert!((0.012..0.019).contains(&wf1024), "N=1024: {wf1024}");
    }

    #[test]
    fn jit_beats_periodic_at_scale() {
        // Table 8's headline: JIT wasted time grows much slower with N.
        let p = bert_l();
        for n in [1024usize, 8192] {
            let p = JobParams { n_gpus: n, ..p };
            let periodic = wasted_fraction(wasted_rate_periodic_optimal(&p));
            let user = wasted_fraction(wasted_rate_jit_user(&p, 0.0075));
            let transparent = wasted_fraction(wasted_rate_jit_transparent(&p, 0.0069));
            assert!(user < periodic, "N={n}: user {user} vs periodic {periodic}");
            assert!(
                transparent < periodic,
                "N={n}: transparent {transparent} vs periodic {periodic}"
            );
        }
    }

    #[test]
    fn transparent_wasted_time_is_flat_in_n() {
        // Eq. 8 with tiny m: the N·f·m/2 term stays negligible, so w_f is
        // dominated by the steady overhead and barely moves (Table 8's
        // flat 0.69% row).
        let p = JobParams::new(2.0, 2.0 / 992.0, 2.1, 4, 0.279);
        let w4 = wasted_fraction(wasted_rate_jit_transparent(&p, 0.0069));
        let p8192 = JobParams { n_gpus: 8192, ..p };
        let w8192 = wasted_fraction(wasted_rate_jit_transparent(&p8192, 0.0069));
        assert!((w8192 - w4) / w4 < 0.1, "flat: {w4} → {w8192}");
    }

    #[test]
    fn dollar_cost_matches_paper_examples() {
        // §5.1: 1000 GPUs, 1 failure/day, 15 min wasted, $4/h → $30k/month.
        let c = monthly_failure_cost_dollars(1000, 1.0, 0.25, 4.0);
        assert!((c - 30_000.0).abs() < 1.0);
        // 10,000 GPUs with 10 failures/day (O(N) failure rate) → $3M.
        let c = monthly_failure_cost_dollars(10_000, 10.0, 0.25, 4.0);
        assert!((c - 3_000_000.0).abs() < 1.0);
    }

    #[test]
    fn scaling_curve_is_monotone_for_periodic() {
        let p = bert_l();
        let pts = scaling_curve(&p, &[4, 64, 1024, 8192], 0.0075, 0.0069);
        for w in pts.windows(2) {
            assert!(w[1].wf_periodic > w[0].wf_periodic);
            assert!(w[1].c_star_per_hour > w[0].c_star_per_hour);
        }
        // JIT advantage appears by 1024 GPUs.
        let p1024 = &pts[2];
        assert!(p1024.wf_jit_user < p1024.wf_periodic);
    }

    #[test]
    fn wasted_fraction_bounds() {
        assert_eq!(wasted_fraction(0.0), 0.0);
        assert!((wasted_fraction(1.0) - 0.5).abs() < 1e-12);
        assert!(wasted_fraction(1e6) < 1.0);
    }
}
