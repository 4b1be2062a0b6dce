//! Property-based tests of the simulation toolkit's core invariants.

use hq_des::prelude::*;
use hq_des::time::{Dur, SimTime};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Events pop sorted by time, with FIFO order among equal times.
    #[test]
    fn event_queue_pop_order(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_ns(t), i);
        }
        let mut popped: Vec<(u64, usize)> = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_ns(), i));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn event_queue_cancellation(
        times in proptest::collection::vec(0u64..100, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, q.schedule_at(SimTime::from_ns(t), i)))
            .collect();
        let mut expected: Vec<usize> = Vec::new();
        for (i, id) in &ids {
            if cancel_mask.get(*i).copied().unwrap_or(false) {
                prop_assert!(q.cancel(*id));
            } else {
                expected.push(*i);
            }
        }
        let mut got: Vec<usize> = Vec::new();
        while let Some((_, i)) = q.pop() {
            got.push(i);
        }
        got.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// Integration is additive over adjacent windows.
    #[test]
    fn time_series_integral_additive(
        points in proptest::collection::vec((0u64..10_000, -100.0f64..100.0), 1..50),
        split in 0u64..10_000,
    ) {
        let mut sorted = points.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut s = TimeSeries::new();
        for (t, v) in sorted {
            s.set(SimTime::from_ns(t), v);
        }
        let a = SimTime::from_ns(0);
        let m = SimTime::from_ns(split);
        let b = SimTime::from_ns(10_000);
        let whole = s.integrate(a, b);
        let parts = s.integrate(a, m) + s.integrate(m, b);
        prop_assert!((whole - parts).abs() < 1e-9 * (1.0 + whole.abs()),
            "integrate not additive: {whole} vs {parts}");
    }

    /// value_at returns the most recent set value.
    #[test]
    fn time_series_value_at_matches_last_set(
        points in proptest::collection::vec((0u64..1000, 0.0f64..10.0), 1..40),
        query in 0u64..1200,
    ) {
        let mut sorted = points.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut s = TimeSeries::new();
        for (t, v) in &sorted {
            s.set(SimTime::from_ns(*t), *v);
        }
        // Last change at or before query (sorted, last write wins).
        let expected = sorted.iter().rfind(|&&(t, _)| t <= query).map(|&(_, v)| v);
        // The series compacts redundant values, but the *value* must match.
        prop_assert_eq!(s.value_at(SimTime::from_ns(query)), expected);
    }

    /// Shuffle produces a permutation, deterministic per seed.
    #[test]
    fn shuffle_permutation(seed in any::<u64>(), n in 0usize..200) {
        let mut v1: Vec<usize> = (0..n).collect();
        let mut v2: Vec<usize> = (0..n).collect();
        DetRng::seed_from_u64(seed).shuffle(&mut v1);
        DetRng::seed_from_u64(seed).shuffle(&mut v2);
        prop_assert_eq!(&v1, &v2);
        let mut sorted = v1.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    /// Utilization busy fraction is always within [0, 1].
    #[test]
    fn utilization_fraction_bounded(
        events in proptest::collection::vec((0u64..10_000, any::<bool>()), 0..50),
    ) {
        let mut sorted = events.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut u = Utilization::new();
        for (t, busy) in sorted {
            if busy {
                u.busy(SimTime::from_ns(t));
            } else {
                u.idle(SimTime::from_ns(t));
            }
        }
        let f = u.busy_fraction(SimTime::ZERO, SimTime::from_ns(10_000));
        prop_assert!((0.0..=1.0).contains(&f), "fraction {f}");
    }

    /// The 4-ary-heap queue pops in the exact order of a reference
    /// binary-heap model under arbitrary schedule/cancel/pop/peek
    /// interleavings, and agrees on `pending()` throughout. The model
    /// keys a `BinaryHeap` by `Reverse((time, seq))` and only honours
    /// cancellations of still-pending events — the semantics the
    /// production queue guarantees. About half of the schedules reuse
    /// the previous schedule's instant (when it is not yet past), so
    /// same-instant runs form, grow while their head is delivered, lose
    /// heads, middles and tails to cancels and purges, and close when a
    /// schedule for another instant arrives. Each peek also checks
    /// `next_due`: no later than the first live event, never before the
    /// current instant, and exact while no tombstone is stored.
    #[test]
    fn event_queue_matches_reference_model(
        ops in proptest::collection::vec(
            (0u8..5, 0u64..500, any::<usize>(), any::<bool>()),
            1..400,
        ),
    ) {
        use std::cmp::Reverse;
        use std::collections::{BinaryHeap, HashSet};

        let mut q = EventQueue::new();
        // Reference: max-heap inverted to a min-heap over (time, seq).
        let mut model: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
        let mut model_cancelled: HashSet<u64> = HashSet::new();
        let mut model_dead: HashSet<u64> = HashSet::new(); // delivered or cancelled
        let mut next_seq = 0u64;
        let mut ids: Vec<(EventId, u64)> = Vec::new(); // (queue id, model seq)
        let mut payload = 0usize;
        let mut last_at: Option<SimTime> = None;

        for (op, dt, pick, same_instant) in ops {
            match op {
                // Schedule (twice as likely as the other ops).
                0 | 1 => {
                    let at = match last_at {
                        Some(prev) if same_instant && prev >= q.now() => prev,
                        _ => q.now() + Dur::from_ns(dt),
                    };
                    last_at = Some(at);
                    let id = q.schedule_at(at, payload);
                    model.push(Reverse((at.as_ns(), next_seq, payload)));
                    ids.push((id, next_seq));
                    next_seq += 1;
                    payload += 1;
                }
                // Cancel a previously issued id: half the time one of
                // the last 16 (likely still pending, often a member of
                // the open run), else any (possibly already delivered
                // or already cancelled).
                2 if !ids.is_empty() => {
                    let i = if pick % 2 == 0 {
                        ids.len() - 1 - (pick / 2) % ids.len().min(16)
                    } else {
                        pick % ids.len()
                    };
                    let (id, seq) = ids[i];
                    let expect = !model_dead.contains(&seq);
                    if expect {
                        model_cancelled.insert(seq);
                        model_dead.insert(seq);
                    }
                    prop_assert_eq!(q.cancel(id), expect, "cancel of seq {}", seq);
                }
                // Peek: the model's first live event, left in place.
                4 => {
                    // No tombstone stored anywhere: `next_due` is exact.
                    let exact = model_cancelled.is_empty();
                    while let Some(Reverse((_, seq, _))) = model.peek() {
                        if !model_cancelled.remove(seq) {
                            break;
                        }
                        model.pop();
                    }
                    let expect = model.peek().map(|Reverse((t, _, _))| *t);
                    // The stored lower bound, before the peek drops
                    // any tombstone.
                    let due = q.next_due().map(|t| t.as_ns());
                    if let Some(first) = expect {
                        prop_assert!(due.is_some_and(|d| d <= first), "{:?} after {}", due, first);
                    }
                    prop_assert!(due.is_none_or(|d| d >= q.now().as_ns()));
                    if exact {
                        prop_assert_eq!(due, expect);
                    }
                    prop_assert_eq!(q.peek_time().map(|t| t.as_ns()), expect);
                }
                // Pop.
                _ => {
                    let expect = loop {
                        match model.pop() {
                            Some(Reverse((t, seq, m))) => {
                                if model_cancelled.remove(&seq) {
                                    continue;
                                }
                                model_dead.insert(seq);
                                break Some((t, m));
                            }
                            None => break None,
                        }
                    };
                    let got = q.pop().map(|(t, m)| (t.as_ns(), m));
                    prop_assert_eq!(got, expect);
                }
            }
            prop_assert_eq!(q.pending(), model.len() - model_cancelled.len(), "pending diverged");
        }
        // Drain both and compare the tail order.
        let tail: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop()).map(|(t, m)| (t.as_ns(), m)).collect();
        let mut model_tail = Vec::new();
        while let Some(Reverse((t, seq, m))) = model.pop() {
            if model_cancelled.remove(&seq) {
                continue;
            }
            model_tail.push((t, m));
        }
        prop_assert_eq!(tail, model_tail);
    }

    /// Duration scaling by a factor then its inverse round-trips within
    /// rounding error.
    #[test]
    fn dur_mul_roundtrip(ns in 1u64..1_000_000_000, k in 0.01f64..100.0) {
        let d = Dur::from_ns(ns);
        let scaled = d.mul_f64(k);
        let back = scaled.mul_f64(1.0 / k);
        let err = (back.as_ns() as i128 - ns as i128).unsigned_abs();
        // Two roundings, each up to 0.5ns, amplified by 1/k.
        let tol = (1.0 / k).max(1.0).ceil() as u128 + 1;
        prop_assert!(err <= tol, "roundtrip {ns} -> {} (err {err}, tol {tol})", back.as_ns());
    }

    /// Interning arbitrary label strings (arbitrary Unicode, duplicates
    /// included) round-trips every one of them through its `Symbol`,
    /// and equal strings always map to equal symbols.
    #[test]
    fn symbol_round_trips_arbitrary_labels(
        codes in proptest::collection::vec(
            proptest::collection::vec(0u32..0x11_0000, 0..24),
            1..64,
        ),
    ) {
        let labels: Vec<String> = codes
            .iter()
            .map(|cs| {
                cs.iter()
                    .filter_map(|&c| char::from_u32(c)) // skip surrogates
                    .collect()
            })
            .collect();
        let mut table = Interner::new();
        let symbols: Vec<Symbol> = labels.iter().map(|l| table.intern(l)).collect();
        for (label, &sym) in labels.iter().zip(&symbols) {
            prop_assert_eq!(table.resolve(sym), label.as_str());
            // Raw index round-trip preserves identity.
            prop_assert_eq!(table.resolve(Symbol::from_raw(sym.raw())), label.as_str());
        }
        // Equal strings intern to the same symbol; distinct strings to
        // distinct symbols.
        for (i, a) in labels.iter().enumerate() {
            for (j, b) in labels.iter().enumerate() {
                prop_assert_eq!(a == b, symbols[i] == symbols[j], "labels {} vs {}", i, j);
            }
        }
        prop_assert!(table.len() <= labels.len());
    }
}
