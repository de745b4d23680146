//! Monte-Carlo validation of the §5 analytical model.
//!
//! Simulates months of training wall-clock under Poisson failure arrivals
//! for each checkpointing policy, accumulating useful vs wasted GPU time
//! event by event, and compares the measured wasted fraction against the
//! closed forms (eq. 1, 5–8). Agreement within sampling noise is evidence
//! that the paper's model — not merely our implementation of it — is
//! internally consistent.

use crate::Table;
use jitckpt::analysis::{
    optimal_frequency, wasted_fraction, wasted_rate_jit_transparent, wasted_rate_jit_user,
    wasted_rate_periodic_optimal, JobParams,
};
use simcore::rng::DetRng;

/// Paper-flavoured job parameters (BERT-L-PT, Table 4: o = 7.1 s,
/// r = 11.2 s, m = 0.4 s, f = 2/day per 992 GPUs) at `n` GPUs.
pub(crate) fn bert_l_pt_params(n: usize) -> JobParams {
    JobParams::new(7.1, 2.0 / 992.0, 11.2, n, 0.4)
}

/// Horizon of the table sections: 90 days of useful training, in seconds.
pub(crate) const NINETY_DAYS: f64 = 90.0 * 86_400.0;

/// Checkpointing policy simulated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Periodic checkpointing at frequency `c` (per second of useful time).
    Periodic {
        /// Checkpoints per second.
        c: f64,
    },
    /// Periodic at the analytically optimal frequency (eq. 3).
    PeriodicOptimal,
    /// User-level JIT: per failure, one checkpoint (`o`) + fixed restart
    /// (`r`) + half a minibatch of redone work.
    JitUser,
    /// Transparent JIT: per failure, half a minibatch only.
    JitTransparent,
    /// In-network gradient replication: per failure, the ledger-slice
    /// stream + optimizer replay tail (`reconstruct` seconds) + half a
    /// minibatch — no checkpoint write and no store round-trip.
    InNetwork {
        /// Reconstruction tail per failure (seconds).
        reconstruct: f64,
    },
}

/// Outcome of one simulated run.
#[derive(Debug, Clone, Copy)]
pub struct McOutcome {
    /// Useful training seconds accumulated (per GPU).
    pub useful: f64,
    /// Wasted seconds (per GPU): checkpoint stalls + recovery + redone work.
    pub wasted: f64,
    /// Failures encountered.
    pub failures: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
}

impl McOutcome {
    /// Measured wasted fraction (comparable to eq. 6).
    pub fn wasted_fraction(&self) -> f64 {
        self.wasted / (self.useful + self.wasted)
    }
}

/// Simulates `horizon_useful` seconds of *useful* training under `policy`,
/// with failures arriving as a Poisson process at the job rate `N·f`.
///
/// All quantities are per-GPU (every GPU pays every stall in a synchronous
/// job, so per-GPU and aggregate fractions coincide).
pub fn simulate(p: &JobParams, policy: Policy, horizon_useful: f64, seed: u64) -> McOutcome {
    let mut rng = DetRng::new(seed);
    let job_rate = p.n_gpus as f64 * p.failure_rate;
    let c = match policy {
        Policy::Periodic { c } => c,
        Policy::PeriodicOptimal => optimal_frequency(p),
        _ => 0.0,
    };
    let interval = if c > 0.0 { 1.0 / c } else { f64::INFINITY };
    let mut useful = 0.0f64;
    let mut wasted = 0.0f64;
    let mut failures = 0u64;
    let mut checkpoints = 0u64;
    // Useful time since the last durable checkpoint (work at risk).
    let mut at_risk = 0.0f64;
    // Useful time until the next periodic checkpoint.
    let mut until_ckpt = interval;
    while useful < horizon_useful {
        // Draw the next failure in *useful-time* coordinates (failures
        // during stalls are folded into the same recovery for simplicity;
        // they are rare at realistic rates).
        let u = rng.uniform().max(1e-300);
        let mut to_failure = -u.ln() / job_rate;
        loop {
            if useful >= horizon_useful {
                break;
            }
            let step = to_failure.min(until_ckpt).min(horizon_useful - useful);
            useful += step;
            at_risk += step;
            to_failure -= step;
            until_ckpt -= step;
            if until_ckpt <= 0.0 && interval.is_finite() {
                // Periodic checkpoint: stall o, reset the at-risk window.
                wasted += p.ckpt_overhead;
                checkpoints += 1;
                at_risk = 0.0;
                until_ckpt = interval;
                continue;
            }
            if to_failure <= 0.0 {
                break;
            }
        }
        if useful >= horizon_useful {
            break;
        }
        // A failure strikes.
        failures += 1;
        match policy {
            Policy::Periodic { .. } | Policy::PeriodicOptimal => {
                // Lose the at-risk window, pay the fixed restart.
                wasted += at_risk + p.fixed_recovery;
                useful -= at_risk;
                at_risk = 0.0;
                until_ckpt = interval;
            }
            Policy::JitUser => {
                // One just-in-time checkpoint + restart + ≤1 minibatch.
                // Eq. 7 charges the checkpoint as `o` GPU-seconds *total*
                // per failure (N·f·t·o): the write overlaps the restart
                // window on the already-idle job, so per GPU it amortizes
                // to o/N.
                wasted += p.ckpt_overhead / p.n_gpus as f64 + p.fixed_recovery + p.minibatch / 2.0;
                checkpoints += 1;
            }
            Policy::JitTransparent => {
                wasted += p.minibatch / 2.0;
            }
            Policy::InNetwork { reconstruct } => {
                wasted += reconstruct + p.minibatch / 2.0;
            }
        }
    }
    McOutcome {
        useful,
        wasted,
        failures,
        checkpoints,
    }
}

/// Runs `reps` independent replications, fanned out across threads, and
/// returns the mean wasted fraction and its sample standard deviation.
///
/// Replication `k` always uses seed `0xC0FFEE + k` and writes its result
/// into slot `k`, and the mean/variance reductions run over the slots in
/// index order — so the output is bit-identical to a sequential run
/// regardless of thread count or scheduling.
pub fn replicate(p: &JobParams, policy: Policy, horizon: f64, reps: u64) -> (f64, f64) {
    let mut fractions = vec![0.0f64; reps.max(1) as usize];
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, fractions.len());
    let per_worker = fractions.len().div_ceil(workers);
    std::thread::scope(|s| {
        for (ci, chunk) in fractions.chunks_mut(per_worker).enumerate() {
            let base = (ci * per_worker) as u64;
            s.spawn(move || {
                for (off, slot) in chunk.iter_mut().enumerate() {
                    *slot = simulate(p, policy, horizon, 0xC0FFEE + base + off as u64)
                        .wasted_fraction();
                }
            });
        }
    });
    let mean = fractions.iter().sum::<f64>() / reps as f64;
    let var = fractions
        .iter()
        .map(|x| (x - mean) * (x - mean))
        .sum::<f64>()
        / (reps.max(2) - 1) as f64;
    (mean, var.sqrt())
}

/// Analytical prediction for a policy (eq. 5/7/8 + eq. 6).
pub fn predicted_fraction(p: &JobParams, policy: Policy) -> f64 {
    let w = match policy {
        Policy::Periodic { c } => jitckpt::analysis::wasted_rate_periodic(p, c),
        Policy::PeriodicOptimal => wasted_rate_periodic_optimal(p),
        Policy::JitUser => wasted_rate_jit_user(p, 0.0),
        Policy::JitTransparent => wasted_rate_jit_transparent(p, 0.0),
        Policy::InNetwork { reconstruct } => {
            jitckpt::analysis::wasted_rate_in_network(p, 0.0, reconstruct)
        }
    };
    wasted_fraction(w)
}

/// Monte-Carlo vs closed-form wasted fractions per policy at 64 / 1024 /
/// 8192 GPUs: 8 replications of 90 days each.
pub fn validation_table() -> Table {
    let mut rows = Vec::new();
    for n in [64usize, 1024, 8192] {
        let p = bert_l_pt_params(n);
        for (name, policy) in [
            ("periodic @ c*", Policy::PeriodicOptimal),
            ("user-level JIT", Policy::JitUser),
            ("transparent JIT", Policy::JitTransparent),
        ] {
            let (mean, _sd) = replicate(&p, policy, NINETY_DAYS, 8);
            let pred = predicted_fraction(&p, policy);
            rows.push(vec![
                n.to_string(),
                name.to_string(),
                format!("{:.4}%", mean * 100.0),
                format!("{:.4}%", pred * 100.0),
                format!("{:.1}%", (mean - pred).abs() / pred.max(1e-12) * 100.0),
            ]);
        }
    }
    Table {
        title:
            "Monte-Carlo vs closed-form wasted fractions, eq. 1, 5-8 (BERT-L-PT params, 90 days)"
                .into(),
        header: vec![
            "N".into(),
            "Policy".into(),
            "Simulated".into(),
            "Predicted".into(),
            "Rel. diff".into(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::bert_l_pt_params as params;
    use super::*;

    #[test]
    fn simulation_matches_closed_form_periodic_optimal() {
        let p = params(1024);
        let horizon = 90.0 * 86_400.0; // 90 days
        let (mean, sd) = replicate(&p, Policy::PeriodicOptimal, horizon, 8);
        let predicted = predicted_fraction(&p, Policy::PeriodicOptimal);
        assert!(
            (mean - predicted).abs() < predicted * 0.15 + 3.0 * sd,
            "MC {mean} vs model {predicted} (sd {sd})"
        );
    }

    #[test]
    fn simulation_matches_closed_form_jit_user() {
        let p = params(1024);
        let horizon = 90.0 * 86_400.0;
        let (mean, sd) = replicate(&p, Policy::JitUser, horizon, 8);
        let predicted = predicted_fraction(&p, Policy::JitUser);
        assert!(
            (mean - predicted).abs() < predicted * 0.2 + 3.0 * sd,
            "MC {mean} vs model {predicted} (sd {sd})"
        );
    }

    #[test]
    fn simulation_matches_closed_form_jit_transparent() {
        let p = params(1024);
        let horizon = 90.0 * 86_400.0;
        let (mean, sd) = replicate(&p, Policy::JitTransparent, horizon, 8);
        let predicted = predicted_fraction(&p, Policy::JitTransparent);
        assert!(
            (mean - predicted).abs() < predicted * 0.3 + 3.0 * sd,
            "MC {mean} vs model {predicted} (sd {sd})"
        );
    }

    #[test]
    fn simulation_matches_closed_form_in_network() {
        // Satellite check: the in-network closed form (w = N·f·(t_rec +
        // m/2), zero steady term in both sim and model here) agrees with
        // the Monte-Carlo measurement within 20% relative tolerance plus
        // 3σ sampling noise — the same bar the other §5 policies meet.
        let p = params(1024);
        let horizon = 90.0 * 86_400.0;
        let policy = Policy::InNetwork { reconstruct: 1.8 };
        let (mean, sd) = replicate(&p, policy, horizon, 8);
        let predicted = predicted_fraction(&p, policy);
        assert!(
            (mean - predicted).abs() < predicted * 0.2 + 3.0 * sd,
            "MC {mean} vs model {predicted} (sd {sd})"
        );
    }

    #[test]
    fn simulated_in_network_sits_between_transparent_and_jit_user() {
        let p = params(4096);
        let horizon = 60.0 * 86_400.0;
        let (user, _) = replicate(&p, Policy::JitUser, horizon, 4);
        let (transparent, _) = replicate(&p, Policy::JitTransparent, horizon, 4);
        let (in_net, _) = replicate(&p, Policy::InNetwork { reconstruct: 1.8 }, horizon, 4);
        assert!(in_net < user, "in-network {in_net} vs user {user}");
        assert!(
            in_net >= transparent,
            "reconstruction tail cannot beat transparent's free recovery: \
             {in_net} vs {transparent}"
        );
    }

    #[test]
    fn simulated_jit_beats_simulated_periodic_at_scale() {
        let p = params(4096);
        let horizon = 60.0 * 86_400.0;
        let (pc, _) = replicate(&p, Policy::PeriodicOptimal, horizon, 4);
        let (user, _) = replicate(&p, Policy::JitUser, horizon, 4);
        let (transparent, _) = replicate(&p, Policy::JitTransparent, horizon, 4);
        assert!(user < pc, "user {user} vs pc {pc}");
        assert!(
            transparent < user,
            "transparent {transparent} vs user {user}"
        );
    }

    #[test]
    fn off_optimal_frequencies_waste_more_in_simulation() {
        // The eq. 3 optimum is real: simulated waste at c*/4 and 4·c* both
        // exceed waste at c*.
        let p = params(1024);
        let horizon = 120.0 * 86_400.0;
        let c_star = optimal_frequency(&p);
        let (at_opt, _) = replicate(&p, Policy::Periodic { c: c_star }, horizon, 6);
        let (low, _) = replicate(&p, Policy::Periodic { c: c_star / 4.0 }, horizon, 6);
        let (high, _) = replicate(&p, Policy::Periodic { c: c_star * 4.0 }, horizon, 6);
        assert!(low > at_opt, "under-checkpointing: {low} vs {at_opt}");
        assert!(high > at_opt, "over-checkpointing: {high} vs {at_opt}");
    }

    #[test]
    fn parallel_replicate_is_bit_identical_to_sequential() {
        let p = params(512);
        let horizon = 30.0 * 86_400.0;
        for policy in [
            Policy::PeriodicOptimal,
            Policy::JitUser,
            Policy::JitTransparent,
            Policy::InNetwork { reconstruct: 1.8 },
        ] {
            // Sequential reference, same seeds and reduction order.
            let reps = 7u64;
            let fractions: Vec<f64> = (0..reps)
                .map(|k| simulate(&p, policy, horizon, 0xC0FFEE + k).wasted_fraction())
                .collect();
            let seq_mean = fractions.iter().sum::<f64>() / reps as f64;
            let seq_var = fractions
                .iter()
                .map(|x| (x - seq_mean) * (x - seq_mean))
                .sum::<f64>()
                / (reps.max(2) - 1) as f64;
            let (mean, sd) = replicate(&p, policy, horizon, reps);
            assert_eq!(mean.to_bits(), seq_mean.to_bits(), "{policy:?}");
            assert_eq!(sd.to_bits(), seq_var.sqrt().to_bits(), "{policy:?}");
        }
    }

    #[test]
    fn failure_counts_scale_linearly_with_n() {
        let horizon = 30.0 * 86_400.0;
        let small = simulate(&params(256), Policy::JitTransparent, horizon, 1);
        let large = simulate(&params(4096), Policy::JitTransparent, horizon, 1);
        let ratio = large.failures as f64 / small.failures.max(1) as f64;
        assert!((8.0..32.0).contains(&ratio), "O(N) failure rate: {ratio}");
    }
}
