//! Everything drawn from `--seed`: a splitmix64 stream and the
//! per-workload inputs built from it. Each function here is a pure
//! function of its seed.

use mg_bench::experiments::{fig8_bandwidth_runs, fig8_regfile_runs, iq_capacity_runs};
use mg_core::Policy;
use mg_harness::{Image, Run};
use mg_uarch::SimConfig;
use mg_workloads::Input;

/// A splitmix64 stream.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated from other streams by `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next();
        r
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// The `sweep` workload's machine configurations: the baseline machine,
/// then one seed-drawn integer-memory mini-graph machine from each of
/// the fig8_regfile, iq_capacity and fig8_bandwidth sweeps. Host time
/// follows the simulated operation count, which depends on the image
/// far more than on the machine, so every seed simulates about the same
/// work. All mini-graph columns share one image per prep, well below the
/// in-memory image cache's capacity.
pub fn sweep_runs(seed: u64) -> Vec<Run> {
    let mut rng = Rng::new(seed, 1);
    let intmem = |rs: Vec<Run>| -> Vec<Run> {
        rs.into_iter()
            .filter(|r| {
                matches!(&r.image, Image::MiniGraph { policy, .. } if *policy == Policy::integer_memory())
            })
            .collect()
    };
    let mut runs = vec![Run::baseline(SimConfig::baseline())];
    for family in
        [intmem(fig8_regfile_runs()), intmem(iq_capacity_runs()), intmem(fig8_bandwidth_runs())]
    {
        runs.push(family[rng.below(family.len())].clone());
    }
    runs
}

/// The columns of [`sweep_runs`] whose speedup over the baseline
/// machine (column 0) the report averages.
pub const SWEEP_PAIRS: [(usize, usize); 3] = [(0, 1), (0, 2), (0, 3)];

/// Number of sweep cells re-run scalar as a check, and which: a
/// seed-drawn `(workload index, column)` sample.
pub fn scalar_sample(
    seed: u64,
    workloads: usize,
    columns: usize,
    n: usize,
) -> Vec<(usize, usize)> {
    let mut rng = Rng::new(seed, 2);
    (0..n).map(|_| (rng.below(workloads), rng.below(columns))).collect()
}

/// The `prep` workload's input: the reference scale with seed-drawn data.
pub fn prep_input(seed: u64) -> Input {
    let mut rng = Rng::new(seed, 3);
    Input { seed: rng.next(), scale: Input::reference().scale }
}

/// One request of the `serve` schedule.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ask {
    /// Registry experiment.
    pub experiment: &'static str,
    /// Input name.
    pub input: &'static str,
    /// Payload format.
    pub format: &'static str,
}

/// The `serve` experiments and the input each is asked on. Every input
/// serves a cheaper and a dearer experiment, and fig7, whose seven
/// policies overflow a prep's image cache, shares its input with
/// iq_capacity, which then reloads its image. The inputs are fixed so
/// that every seed prepares the same work; the seed draws formats and
/// order.
pub const SERVE_ASKS: [(&str, &str); 6] = [
    ("fig5", "tiny"),
    ("policy_lab", "tiny"),
    ("fig7", "alternative"),
    ("iq_capacity", "alternative"),
    ("icache", "reference"),
    ("fig6", "reference"),
];
/// Inputs the `serve` schedule uses.
pub const SERVE_INPUTS: [&str; 3] = ["tiny", "alternative", "reference"];
/// Payload formats the `serve` schedule draws from.
pub const SERVE_FORMATS: [&str; 4] = ["text", "json", "csv", "markdown"];

/// Cold rounds pair experiments of similar cost, the same for every
/// seed, so the time one client waits for the other at the end of a
/// round does not depend on the seed.
pub const SERVE_COLD_PAIRS: [(&str, &str); 3] =
    [("fig5", "fig7"), ("icache", "fig6"), ("policy_lab", "iq_capacity")];

/// One walk of the `serve` schedule, as rounds of one request per
/// client connection. Every experiment is asked three times: in a hot
/// round both clients send it at once, so the server merges the two,
/// and in a cold round each client sends a different experiment (see
/// [`SERVE_COLD_PAIRS`]). Each experiment keeps its input (see
/// [`SERVE_ASKS`]) and one seed-drawn format, so a walk's work is nearly
/// the same for every seed; the seed picks the formats and the order of
/// rounds and of clients within a round.
pub fn serve_schedule(seed: u64) -> Vec<[Ask; 2]> {
    let mut rng = Rng::new(seed, 5);
    let asks: Vec<Ask> = SERVE_ASKS
        .into_iter()
        .map(|(experiment, input)| Ask {
            experiment,
            input,
            format: SERVE_FORMATS[rng.below(SERVE_FORMATS.len())],
        })
        .collect();
    let ask = |exp: &str| {
        asks.iter().find(|a| a.experiment == exp).expect("paired experiment").clone()
    };
    let mut rounds: Vec<[Ask; 2]> = asks.iter().map(|a| [a.clone(), a.clone()]).collect();
    for (a, b) in SERVE_COLD_PAIRS {
        let mut pair = [ask(a), ask(b)];
        rng.shuffle(&mut pair);
        rounds.push(pair);
    }
    rng.shuffle(&mut rounds);
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_pure_function_of_seed_and_salt() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(42, 1);
                move |_| r.next()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(42, 1);
                move |_| r.next()
            })
            .collect();
        let c = Rng::new(43, 1).next();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
    }

    #[test]
    fn sweep_sample_is_pure_and_balanced() {
        for seed in 0..32 {
            let a = sweep_runs(seed);
            let b = sweep_runs(seed);
            let labels = |rs: &[Run]| rs.iter().map(|r| r.label.clone()).collect::<Vec<_>>();
            assert_eq!(labels(&a), labels(&b));
            assert_eq!(a.len(), 4);
            // Baselines sit where SWEEP_PAIRS says; their partners are
            // mini-graph columns.
            for (base, mg) in SWEEP_PAIRS {
                assert_eq!(a[base].image, mg_harness::Image::Baseline, "seed {seed}");
                assert_ne!(a[mg].image, mg_harness::Image::Baseline, "seed {seed}");
            }
        }
        let distinct: std::collections::BTreeSet<Vec<String>> =
            (0..32).map(|s| sweep_runs(s).iter().map(|r| r.label.clone()).collect()).collect();
        assert!(distinct.len() > 8, "the seed must move the sample");
        // Every mini-graph column uses the one integer-memory image.
        let images: std::collections::BTreeSet<String> =
            (0..32).flat_map(sweep_runs).map(|r| format!("{:?}", r.image)).collect();
        assert_eq!(images.len(), 2);
    }

    #[test]
    fn scalar_sample_and_inputs_are_pure() {
        assert_eq!(scalar_sample(9, 24, 7, 6), scalar_sample(9, 24, 7, 6));
        assert!(scalar_sample(9, 24, 7, 50).iter().all(|&(w, c)| w < 24 && c < 7));
        assert_eq!(prep_input(5), prep_input(5));
        assert_ne!(prep_input(5), prep_input(6));
    }

    #[test]
    fn serve_schedule_is_pure_with_a_fixed_mix() {
        for seed in 0..16 {
            let s = serve_schedule(seed);
            assert_eq!(s, serve_schedule(seed));
            let asks: Vec<&Ask> = s.iter().flatten().collect();
            assert_eq!(asks.len(), 3 * SERVE_ASKS.len());
            for (exp, _) in SERVE_ASKS {
                assert_eq!(
                    asks.iter().filter(|a| a.experiment == exp).count(),
                    3,
                    "seed {seed}"
                );
                // Exactly one hot round per experiment.
                assert_eq!(
                    s.iter().filter(|r| r[0] == r[1] && r[0].experiment == exp).count(),
                    1
                );
            }
            for input in SERVE_INPUTS {
                let n = asks.iter().filter(|a| a.input == input).count();
                assert_eq!(n, asks.len() / SERVE_INPUTS.len(), "seed {seed}");
            }
            let distinct: std::collections::BTreeSet<&&Ask> = asks.iter().collect();
            assert_eq!(distinct.len(), SERVE_ASKS.len());
        }
        assert_ne!(serve_schedule(1), serve_schedule(2));
    }
}
