//! The experiment index.
//!
//! The paper is a theory paper without numbered tables or figures, so the
//! reproduction defines one experiment per quantitative claim.
//! [`ExperimentId`] enumerates them; [`ExperimentDescriptor`] carries the
//! metadata (title, claim) the harness prints at the top of every table.

use std::fmt;

/// Identifier of a reproduction experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum ExperimentId {
    E1,
    E2,
    E3,
    E4,
    E5,
    E6,
    E7,
    E8,
    E9,
    E10,
    /// The scaling tier (sparse spectral pipeline at large `n`), reported as
    /// `BENCH_scale.json` rather than a paper-claim table.
    Scale,
    /// The **simulation** scaling tier (asynchronous runs with O(1)
    /// incremental per-tick Definition 1 stopping at large `n`), reported as
    /// `BENCH_sim_scale.json`.
    SimScale,
    /// The memory-scaling tier (the serial engine loop up to 10⁶ nodes with
    /// peak-RSS and throughput accounting), reported as
    /// `BENCH_mem_scale.json`.
    MemScale,
    /// The robustness tier (fault injection: message loss, bridge outages,
    /// node churn, cut flapping — against fault-free baselines), reported as
    /// `BENCH_robustness.json`.
    Robustness,
    /// The performance tier (single-thread event throughput per scale family
    /// plus end-to-end estimator wall-clock at 1 and N jobs, with a built-in
    /// serial-vs-parallel byte-identity oracle), reported as
    /// `BENCH_perf.json`.
    Perf,
    /// The adversary tier (Byzantine attacks — biased minority, extreme
    /// outliers, stale replay, cut censorship — against vanilla and robust
    /// aggregation, with honest-subset drift oracles), reported as
    /// `BENCH_adversary.json`.
    Adversary,
}

impl ExperimentId {
    /// All experiments, in canonical order.
    pub fn all() -> [ExperimentId; 16] {
        [
            ExperimentId::E1,
            ExperimentId::E2,
            ExperimentId::E3,
            ExperimentId::E4,
            ExperimentId::E5,
            ExperimentId::E6,
            ExperimentId::E7,
            ExperimentId::E8,
            ExperimentId::E9,
            ExperimentId::E10,
            ExperimentId::Scale,
            ExperimentId::SimScale,
            ExperimentId::MemScale,
            ExperimentId::Robustness,
            ExperimentId::Perf,
            ExperimentId::Adversary,
        ]
    }

    /// The token the `experiments` binary accepts for this experiment in
    /// `--only` (upper-case with underscores, e.g. `SIM_SCALE` — unlike
    /// [`fmt::Display`], which follows the Rust variant name).
    pub fn cli_token(self) -> &'static str {
        match self {
            ExperimentId::E1 => "E1",
            ExperimentId::E2 => "E2",
            ExperimentId::E3 => "E3",
            ExperimentId::E4 => "E4",
            ExperimentId::E5 => "E5",
            ExperimentId::E6 => "E6",
            ExperimentId::E7 => "E7",
            ExperimentId::E8 => "E8",
            ExperimentId::E9 => "E9",
            ExperimentId::E10 => "E10",
            ExperimentId::Scale => "SCALE",
            ExperimentId::SimScale => "SIM_SCALE",
            ExperimentId::MemScale => "MEM_SCALE",
            ExperimentId::Robustness => "ROBUSTNESS",
            ExperimentId::Perf => "PERF",
            ExperimentId::Adversary => "ADVERSARY",
        }
    }

    /// The descriptor for this experiment.
    pub fn descriptor(self) -> ExperimentDescriptor {
        match self {
            ExperimentId::E1 => ExperimentDescriptor {
                id: self,
                title: "Convex lower bound on the dumbbell (Theorem 1)",
                claim: "Every convex algorithm needs Ω(min(n1,n2)/|E12|) time; measured \
                        averaging times of vanilla / weighted / random-neighbour gossip grow \
                        linearly in n on the dumbbell.",
                workload: "Dumbbell K_{n/2}–K_{n/2}, one bridge, adversarial cut-aligned \
                           initial condition, n doubling from 16 to 256.",
                bench_target: "harness table E1",
            },
            ExperimentId::E2 => ExperimentDescriptor {
                id: self,
                title: "Algorithm A upper bound on the dumbbell (Theorem 2)",
                claim: "Algorithm A averages in O(log n ·(T_van(G1)+T_van(G2))) time; measured \
                        times grow polylogarithmically (slowly) in n.",
                workload: "Same dumbbell sweep as E1; Algorithm A with default C.",
                bench_target: "harness table E2",
            },
            ExperimentId::E3 => ExperimentDescriptor {
                id: self,
                title: "Headline separation (speed-up of A over convex gossip)",
                claim: "The ratio T_av(vanilla)/T_av(A) grows roughly linearly in n (up to \
                        polylog factors), i.e. the exponential-in-log-n separation of the \
                        paper's introduction.",
                workload: "Ratios of the E1 and E2 measurements; log–log slope fits.",
                bench_target: "harness table E3",
            },
            ExperimentId::E4 => ExperimentDescriptor {
                id: self,
                title: "Section 2 proof mechanics (convex drift limits)",
                claim: "Per cut-edge tick the block mean y(t) moves by at most 2/n1; cut ticks \
                        by time t are Poisson(t·|E12|); var X ≥ n1·y²/n.",
                workload: "Dumbbell n = 128, adversarial initial condition, vanilla gossip, \
                           per-tick trace of y(t) and cut-tick counts.",
                bench_target: "harness table E4",
            },
            ExperimentId::E5 => ExperimentDescriptor {
                id: self,
                title: "Section 3 proof mechanics (epoch contraction and dominance)",
                claim: "Across Algorithm A's epochs, log var X contracts by ≥ (3/2)·log n at \
                        least half the time, never grows by more than log n beyond the \
                        transfer skew, and the partial sums are dominated by the ±log n lazy \
                        walk W̃.",
                workload: "Dumbbell n ∈ {32, 64, 128}, Algorithm A, log-variance sampled at \
                           epoch boundaries; coupled dominating walk.",
                bench_target: "harness table E5",
            },
            ExperimentId::E6 => ExperimentDescriptor {
                id: self,
                title: "Sensitivity to the cut width |E12| and the constant C",
                claim: "Convex averaging time falls like 1/|E12| (Theorem 1 is tight in the cut \
                        width) while Algorithm A is nearly flat; Algorithm A's time scales \
                        linearly in the epoch constant C once C is large enough.",
                workload: "Two ER(0.5) clusters of 24 nodes with 1–16 bridges; C ∈ {1,2,4,8}.",
                bench_target: "harness table E6",
            },
            ExperimentId::E7 => ExperimentDescriptor {
                id: self,
                title: "Related-work baselines on the sparse cut",
                claim: "Second-order diffusion and two-time-scale (momentum) gossip improve \
                        constants but remain cut-limited: their dumbbell averaging time still \
                        grows polynomially in n, unlike Algorithm A.",
                workload: "Dumbbell sweep n ∈ {16..128}; first/second-order diffusion, \
                           momentum gossip, Algorithm A.",
                bench_target: "harness table E7",
            },
            ExperimentId::E8 => ExperimentDescriptor {
                id: self,
                title: "Robustness beyond the clean dumbbell",
                claim: "The separation persists whenever both sides are internally well \
                        connected: bridged ER clusters, two-block SBMs, and grid corridors.",
                workload: "The robustness suite at ~48 nodes, adversarial initial condition.",
                bench_target: "harness table E8",
            },
            ExperimentId::E9 => ExperimentDescriptor {
                id: self,
                title: "Theorem 3 tail bound for the simple random walk",
                claim: "P[S_k ≥ s√k] is below c·e^{−βs²} (c = 1, β = ½) for all tested s.",
                workload: "Simple ±1 walk, k = 64, s ∈ {0.5, 1, 1.5, 2, 2.5}, 20 000 trials.",
                bench_target: "harness table E9",
            },
            ExperimentId::E10 => ExperimentDescriptor {
                id: self,
                title: "Ablation: the non-convex transfer coefficient",
                claim: "The exact-balance coefficient n1·n2/n converges; the paper's literal \
                        n1 oscillates on the balanced dumbbell (block means swap) and fails \
                        to reach the Definition 1 threshold, and convex-range coefficients \
                        (γ ≤ 1) degrade towards vanilla behaviour.",
                workload: "Dumbbell n = 64, Algorithm A with γ ∈ {n1·n2/n, n1, 1, 0.5}.",
                bench_target: "harness table E10",
            },
            ExperimentId::Scale => ExperimentDescriptor {
                id: self,
                title: "Scaling tier: sparse spectral pipeline at large n",
                claim: "The CSR + matrix-free Lanczos path reproduces the dense spectral \
                        quantities (λ₂, λ_max, gossip gap, T_van estimate) and extends them to \
                        tens of thousands of nodes in O(|E|) memory, never materializing an \
                        n×n matrix.",
                workload: "Bounded-degree sparse-cut families (expander dumbbell/barbell, ring \
                           of cliques, sensor-grid corridor) at n ∈ {1k, 10k, 50k} (quick: \
                           {1k, 10k}).",
                bench_target: "gossip-bench runner::run_scale + BENCH_scale.json",
            },
            ExperimentId::SimScale => ExperimentDescriptor {
                id: self,
                title: "Simulation scale tier: O(1) per-event stopping at large n",
                claim: "With the incremental moment tracker, asynchronous runs evaluate \
                        Definition 1 at every tick in O(1) — no O(n) variance pass outside \
                        the scheduled exact refreshes — so 50 000-node relaxations reach the \
                        1/e² stop with per-tick resolution at millions of events per second.",
                workload: "Bounded-degree families (chordal ring with arc-adversarial start; \
                           expander dumbbell/barbell and ring of cliques with uniform start) \
                           at n ∈ {1k, 10k, 50k} (quick: {1k, 10k}), vanilla gossip, global \
                           uniform clock.",
                bench_target: "gossip-bench runner::run_sim_scale + BENCH_sim_scale.json",
            },
            ExperimentId::Robustness => ExperimentDescriptor {
                id: self,
                title: "Robustness tier: Definition 1 stopping under faults",
                claim: "Vanilla gossip still reaches the 1/e² stop under message loss, \
                        transient bridge outages, rolling node churn and a flapping cut; \
                        total mass is conserved exactly (suppressed contacts skip the \
                        pairwise update atomically) and the slowdown over the fault-free \
                        baseline is bounded by the suppressed-contact fraction and the \
                        worst surviving subgraph's connectivity.",
                workload: "Churn suite (chordal ring + 25% loss, expander dumbbell + bridge \
                           outage, expander barbell + node churn, ring of cliques + cut \
                           flap) at n ∈ {96, 192, 768} (quick: {96, 192}), vanilla gossip, \
                           global uniform clock, faulted vs fault-free baseline runs.",
                bench_target: "gossip-bench runner::run_robustness + BENCH_robustness.json",
            },
            ExperimentId::Perf => ExperimentDescriptor {
                id: self,
                title: "Performance tier: event throughput and parallel estimator speedup",
                claim: "The devirtualized fault-free hot loop sustains millions of edge ticks \
                        per second per core, and the deterministic run executor speeds the \
                        15-run averaging-time estimator up near-linearly in the job count \
                        while every seeded output (settling times, quantiles, report rows) \
                        stays byte-identical to the serial order.",
                workload: "The four bounded-degree scale families: one timed vanilla relaxation \
                           each (ticks/s), plus the Definition 1 estimator timed end-to-end at \
                           1 job and at N jobs with bitwise comparison of the two estimates.",
                bench_target: "gossip-bench runner::run_perf + BENCH_perf.json",
            },
            ExperimentId::Adversary => ExperimentDescriptor {
                id: self,
                title: "Adversary tier: Byzantine attacks vs robust aggregation",
                claim: "Against a biased minority, extreme-value outliers, stale replay and \
                        cut censorship, vanilla gossip's honest-subset mean drifts (within \
                        the per-capita falsification bound), while trimmed-mean and \
                        median-of-neighbors gossip bound the drag; every run's drift \
                        satisfies its oracle and an empty adversary plan is byte-identical \
                        to the unmodified engine.",
                workload: "Adversary suite (chordal ring + biased minority, expander \
                           dumbbell + extreme outliers, expander barbell + stale replay, \
                           ring of cliques + censored cut) × {vanilla, trimmed, median} at \
                           n ∈ {96, 192, 768} (quick: {96, 192}), global uniform clock.",
                bench_target: "gossip-bench runner::run_adversary + BENCH_adversary.json",
            },
            ExperimentId::MemScale => ExperimentDescriptor {
                id: self,
                title: "Memory-scale tier: the serial engine at 10⁶ nodes",
                claim: "The serial per-tick loop completes 10⁶-node relaxations in bounded \
                        memory; peak RSS and ticks/s are reported per family so memory \
                        regressions are as visible as time regressions.",
                workload: "The four asynchronous-relaxation families (chordal ring, expander \
                           dumbbell/barbell, ring of cliques) with uniform starts at \
                           n ∈ {50k, 250k, 10⁶} (quick: {50k}), vanilla gossip, global \
                           uniform clock; one timed run per row.",
                bench_target: "gossip-bench runner::run_mem_scale + BENCH_mem_scale.json",
            },
        }
    }
}

impl fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Metadata describing one experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentDescriptor {
    /// Which experiment this is.
    pub id: ExperimentId,
    /// One-line title.
    pub title: &'static str,
    /// The paper claim being checked.
    pub claim: &'static str,
    /// The workload and parameters used.
    pub workload: &'static str,
    /// Where the numbers are regenerated.
    pub bench_target: &'static str,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn all_experiments_have_distinct_nonempty_descriptors() {
        let all = ExperimentId::all();
        assert_eq!(all.len(), 16);
        let mut titles = BTreeSet::new();
        for id in all {
            let d = id.descriptor();
            assert_eq!(d.id, id);
            assert!(!d.title.is_empty());
            assert!(!d.claim.is_empty());
            assert!(!d.workload.is_empty());
            assert!(!d.bench_target.is_empty());
            titles.insert(d.title);
            assert!(!id.to_string().is_empty());
        }
        assert_eq!(titles.len(), all.len());
    }

    #[test]
    fn cli_tokens_are_distinct_uppercase_and_stable() {
        let mut tokens = BTreeSet::new();
        for id in ExperimentId::all() {
            let token = id.cli_token();
            assert_eq!(token, token.to_uppercase());
            assert!(tokens.insert(token), "duplicate CLI token {token}");
        }
        assert_eq!(ExperimentId::SimScale.cli_token(), "SIM_SCALE");
        assert_eq!(ExperimentId::Adversary.cli_token(), "ADVERSARY");
        assert_eq!(ExperimentId::MemScale.cli_token(), "MEM_SCALE");
    }

    #[test]
    fn ids_are_ordered() {
        let all = ExperimentId::all();
        for pair in all.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }
}
