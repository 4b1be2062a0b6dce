//! Application scheduling orders (paper §III-C, Fig. 3).
//!
//! The queue order is the order in which the framework allocates CUDA
//! streams to applications **and** launches their host threads; with
//! fewer streams than applications it also fixes the serialization
//! dependencies inside each stream's hardware queue. The paper
//! evaluates five orders and shows that different orders are optimal
//! for different application pairings (Figs. 7/8).

use hq_des::rng::DetRng;

/// The five scheduling techniques of Fig. 3.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ScheduleOrder {
    /// (a) applications queued type by type, first-in first-out.
    NaiveFifo,
    /// (b) queued by type, launched alternating across types.
    RoundRobin,
    /// (c) a random permutation of the Naïve FIFO queue.
    RandomShuffle,
    /// (d) Naïve FIFO with the type groups' order reversed.
    ReverseFifo,
    /// (e) Round-Robin with the type order reversed.
    ReverseRoundRobin,
}

impl ScheduleOrder {
    /// All five orders, in the paper's presentation order.
    pub const ALL: [ScheduleOrder; 5] = [
        ScheduleOrder::NaiveFifo,
        ScheduleOrder::RoundRobin,
        ScheduleOrder::RandomShuffle,
        ScheduleOrder::ReverseFifo,
        ScheduleOrder::ReverseRoundRobin,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            ScheduleOrder::NaiveFifo => "Naive FIFO",
            ScheduleOrder::RoundRobin => "Round-Robin",
            ScheduleOrder::RandomShuffle => "Random Shuffle",
            ScheduleOrder::ReverseFifo => "Reverse FIFO",
            ScheduleOrder::ReverseRoundRobin => "Reverse Round-Robin",
        }
    }
}

impl std::fmt::Display for ScheduleOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Produce the launch order for application instances grouped by type
/// (each inner `Vec` is one type's instances, already in instance
/// order). `rng` is consumed only by [`ScheduleOrder::RandomShuffle`].
pub fn schedule<T: Clone>(groups: &[Vec<T>], order: ScheduleOrder, rng: &mut DetRng) -> Vec<T> {
    let interleave = |gs: Vec<&Vec<T>>| -> Vec<T> {
        let mut out = Vec::new();
        let mut idx = 0;
        loop {
            let mut any = false;
            for g in &gs {
                if let Some(item) = g.get(idx) {
                    out.push(item.clone());
                    any = true;
                }
            }
            if !any {
                break;
            }
            idx += 1;
        }
        out
    };
    match order {
        ScheduleOrder::NaiveFifo => groups.iter().flatten().cloned().collect(),
        ScheduleOrder::ReverseFifo => groups.iter().rev().flatten().cloned().collect(),
        ScheduleOrder::RoundRobin => interleave(groups.iter().collect()),
        ScheduleOrder::ReverseRoundRobin => interleave(groups.iter().rev().collect()),
        ScheduleOrder::RandomShuffle => {
            let mut all: Vec<T> = groups.iter().flatten().cloned().collect();
            rng.shuffle(&mut all);
            all
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 3 example: m = 4 copies of X, n = 4 copies of Y.
    fn fig3_groups() -> Vec<Vec<String>> {
        let xs = (1..=4).map(|i| format!("X{i}")).collect();
        let ys = (1..=4).map(|i| format!("Y{i}")).collect();
        vec![xs, ys]
    }

    fn run(order: ScheduleOrder) -> Vec<String> {
        schedule(&fig3_groups(), order, &mut DetRng::seed_from_u64(42))
    }

    #[test]
    fn fig3a_naive_fifo() {
        assert_eq!(
            run(ScheduleOrder::NaiveFifo),
            ["X1", "X2", "X3", "X4", "Y1", "Y2", "Y3", "Y4"]
        );
    }

    #[test]
    fn fig3b_round_robin() {
        assert_eq!(
            run(ScheduleOrder::RoundRobin),
            ["X1", "Y1", "X2", "Y2", "X3", "Y3", "X4", "Y4"]
        );
    }

    #[test]
    fn fig3c_random_shuffle_is_permutation() {
        let out = run(ScheduleOrder::RandomShuffle);
        let mut sorted = out.clone();
        sorted.sort();
        let mut expect: Vec<String> = fig3_groups().into_iter().flatten().collect();
        expect.sort();
        assert_eq!(sorted, expect, "same multiset");
        assert_ne!(
            out,
            run(ScheduleOrder::NaiveFifo),
            "a 8-element shuffle at this seed differs from FIFO"
        );
        // Deterministic for a fixed seed.
        assert_eq!(out, run(ScheduleOrder::RandomShuffle));
    }

    #[test]
    fn fig3d_reverse_fifo() {
        assert_eq!(
            run(ScheduleOrder::ReverseFifo),
            ["Y1", "Y2", "Y3", "Y4", "X1", "X2", "X3", "X4"]
        );
    }

    #[test]
    fn fig3e_reverse_round_robin() {
        assert_eq!(
            run(ScheduleOrder::ReverseRoundRobin),
            ["Y1", "X1", "Y2", "X2", "Y3", "X3", "Y4", "X4"]
        );
    }

    #[test]
    fn uneven_groups_round_robin() {
        let groups = vec![vec!["X1", "X2", "X3", "X4"], vec!["Y1", "Y2"]];
        let out = schedule(
            &groups,
            ScheduleOrder::RoundRobin,
            &mut DetRng::seed_from_u64(0),
        );
        assert_eq!(out, ["X1", "Y1", "X2", "Y2", "X3", "X4"]);
    }

    #[test]
    fn single_group_all_orders_sane() {
        let groups = vec![vec![1, 2, 3]];
        for order in ScheduleOrder::ALL {
            let out = schedule(&groups, order, &mut DetRng::seed_from_u64(1));
            let mut sorted = out.clone();
            sorted.sort();
            assert_eq!(sorted, vec![1, 2, 3], "{order}");
        }
    }

    #[test]
    fn empty_groups_produce_empty_schedule() {
        let groups: Vec<Vec<u8>> = vec![vec![], vec![]];
        for order in ScheduleOrder::ALL {
            assert!(schedule(&groups, order, &mut DetRng::seed_from_u64(1)).is_empty());
        }
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<_> = ScheduleOrder::ALL.iter().map(|o| o.name()).collect();
        assert_eq!(
            names,
            [
                "Naive FIFO",
                "Round-Robin",
                "Random Shuffle",
                "Reverse FIFO",
                "Reverse Round-Robin"
            ]
        );
    }
}
