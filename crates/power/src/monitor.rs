//! The NVML-style power monitor.
//!
//! The paper's `PowerMonitor` class polls the on-board sensor through
//! NVML from a dedicated thread at a fixed period (15 ms), and §V-D
//! oversamples at 66.7 Hz to reduce noise. [`PowerMonitor`] reproduces
//! that measurement pipeline against the simulated power series: a
//! sample is the sensor value at each poll instant; the report
//! aggregates samples exactly as the paper's figures do (average and
//! peak *active* power, plus exact energy from the underlying series).

use crate::model::PowerModel;
use hq_des::record::TimeSeries;
use hq_des::time::{Dur, SimTime};
use hq_gpu::result::SimResult;

/// Polling power monitor.
#[derive(Clone, Copy, Debug)]
pub struct PowerMonitor {
    /// Sensor poll period (the paper uses 15 ms; §V-D oversamples at
    /// 66.7 Hz ≈ 15 ms as well).
    pub period: Dur,
    /// The board model being sampled.
    pub model: PowerModel,
}

impl PowerMonitor {
    /// Monitor with the paper's 15 ms period.
    pub fn paper_default(model: PowerModel) -> Self {
        PowerMonitor {
            period: Dur::from_ms(15),
            model,
        }
    }

    /// Monitor with a custom period.
    pub fn with_period(model: PowerModel, period: Dur) -> Self {
        PowerMonitor { period, model }
    }

    /// Sample a finished run, producing the power trace and report.
    pub fn measure(&self, result: &SimResult) -> PowerReport {
        self.report(self.model.power_series(result), result.makespan)
    }

    /// Sample and aggregate a run's power step function up to `end`.
    fn report(&self, series: TimeSeries, end: SimTime) -> PowerReport {
        // Always take at least one sample even for sub-period runs.
        let samples = if end <= SimTime::ZERO + self.period {
            vec![(
                SimTime::ZERO,
                series.value_at(SimTime::ZERO).unwrap_or(self.model.p_idle),
            )]
        } else {
            series.sample(SimTime::ZERO, end, self.period)
        };
        let avg_sampled = if samples.is_empty() {
            0.0
        } else {
            samples.iter().map(|&(_, p)| p).sum::<f64>() / samples.len() as f64
        };
        PowerReport {
            samples,
            avg_sampled_w: avg_sampled,
            avg_true_w: series.mean_over(SimTime::ZERO, end),
            peak_w: series.max_over(SimTime::ZERO, end).unwrap_or(0.0),
            energy_j: series.integrate(SimTime::ZERO, end),
            duration: end - SimTime::ZERO,
            series,
        }
    }
}

/// Aggregated power/energy measurement of one run.
#[derive(Clone, Debug)]
pub struct PowerReport {
    /// `(instant, Watts)` sensor samples.
    pub samples: Vec<(SimTime, f64)>,
    /// Mean of the sensor samples (what the paper plots).
    pub avg_sampled_w: f64,
    /// Exact time-weighted mean power.
    pub avg_true_w: f64,
    /// Peak power over the run.
    pub peak_w: f64,
    /// Exact energy in Joules.
    pub energy_j: f64,
    /// Run duration.
    pub duration: Dur,
    /// The full power step function (for plotting Figures 9/10).
    pub series: TimeSeries,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hq_des::time::Dur;
    use hq_gpu::prelude::*;

    fn run_one(kernel_us: u64) -> SimResult {
        let mut sim = GpuSim::new(DeviceConfig::tesla_k20(), HostConfig::deterministic(), 1);
        let s = sim.create_stream();
        let p = Program::builder("app")
            .htod(1 << 20, "in")
            .launch(KernelDesc::new(
                "k",
                104u32,
                256u32,
                Dur::from_us(kernel_us),
            ))
            .dtoh(1 << 20, "out")
            .build();
        sim.add_app(p, s);
        sim.run().unwrap()
    }

    use hq_des::trace::TraceLog;
    use proptest::prelude::*;

    /// A step series through `set` from `(gap, value)` steps: a zero gap
    /// overwrites the previous instant, repeated values compact away.
    fn steps(start: u64, steps: &[(u64, f64)]) -> TimeSeries {
        let mut ts = TimeSeries::new();
        let mut t = start;
        for &(gap, v) in steps {
            t += gap;
            ts.set(SimTime::from_ns(t), v);
        }
        ts
    }

    /// Every field of a report, floats as bits.
    fn bits(r: &PowerReport) -> Vec<u64> {
        let mut out = vec![
            r.avg_sampled_w.to_bits(),
            r.avg_true_w.to_bits(),
            r.peak_w.to_bits(),
            r.energy_j.to_bits(),
            r.duration.as_ns(),
        ];
        for &(t, v) in r.series.points().iter().chain(&r.samples) {
            out.extend([t.as_ns(), v.to_bits()]);
        }
        out
    }

    /// Gaps on a coarse grid, so the series often share instants, with
    /// some longer than the 10 ms clock hold.
    fn gap() -> impl Strategy<Value = u64> {
        proptest::sample::select(vec![0u64, 1_000, 2_000, 50_000, 3_000_000, 12_000_000])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The merge pass builds the same power report as the
        /// sort-and-search reference, to the bit: points, samples,
        /// energy, averages and peak. Series share instants, start
        /// late, go empty (DMA especially), and the last clock hold may
        /// end past the makespan.
        #[test]
        fn merge_pass_matches_the_sorted_stamp_reference(
            occ in proptest::collection::vec((gap(), proptest::sample::select(vec![0.0, 256.0, 2048.0, 26_624.0])), 0..40),
            dma in (
                proptest::collection::vec((gap(), proptest::sample::select(vec![0.0, 1.0])), 0..12),
                proptest::collection::vec((gap(), proptest::sample::select(vec![0.0, 1.0])), 0..12),
            ),
            starts in (0u64..3, 0u64..3, 0u64..3),
            tail in proptest::sample::select(vec![0u64, 1, 4_000_000, 25_000_000]),
            period_ms in 1u64..16,
        ) {
            let start = |k: u64| k * 1_000;
            let resident_threads = steps(start(starts.0), &occ);
            let dma_busy = [steps(start(starts.1), &dma.0), steps(start(starts.2), &dma.1)];
            let last = [&resident_threads, &dma_busy[0], &dma_busy[1]]
                .iter()
                .filter_map(|s| s.points().last().map(|&(t, _)| t.as_ns()))
                .max()
                .unwrap_or(0);
            let result = SimResult {
                device: DeviceConfig::tesla_k20(),
                makespan: SimTime::from_ns(last + tail),
                apps: Vec::new(),
                trace: TraceLog::disabled(),
                active_smx: resident_threads.clone(),
                resident_threads,
                dma_busy,
                events: 0,
                perf: SimPerf::default(),
                faults: FaultCounters::default(),
            };
            let mon = PowerMonitor::with_period(PowerModel::tesla_k20(), Dur::from_ms(period_ms));
            let reference = mon.report(mon.model.power_series_reference(&result), result.makespan);
            prop_assert_eq!(
                mon.model.activity_with_hold(&result).points(),
                mon.model.activity_with_hold_reference(&result).points()
            );
            prop_assert_eq!(bits(&mon.measure(&result)), bits(&reference));
        }
    }

    #[test]
    fn report_fields_consistent() {
        let r = run_one(50_000); // ~long kernel so several samples land
        let mon = PowerMonitor::with_period(PowerModel::tesla_k20(), Dur::from_ms(1));
        let rep = mon.measure(&r);
        assert!(!rep.samples.is_empty());
        assert!(rep.peak_w >= rep.avg_true_w);
        assert!(rep.avg_true_w > PowerModel::tesla_k20().p_idle);
        assert!(rep.energy_j > 0.0);
        // Energy ≈ avg power × duration.
        let approx = rep.avg_true_w * rep.duration.as_secs_f64();
        assert!((rep.energy_j - approx).abs() / rep.energy_j < 1e-6);
    }

    #[test]
    fn sampled_energy_tracks_true_energy() {
        let r = run_one(200_000);
        let period = Dur::from_us(100); // oversample hard
        let mon = PowerMonitor::with_period(PowerModel::tesla_k20(), period);
        let rep = mon.measure(&r);
        // Rectangle rule over the sampled trace.
        let sampled: f64 = rep.samples.iter().map(|&(_, p)| p).sum::<f64>() * period.as_secs_f64();
        let rel = (sampled - rep.energy_j).abs() / rep.energy_j;
        assert!(rel < 0.05, "sampled vs true energy off by {rel}");
    }

    #[test]
    fn short_run_still_produces_a_sample() {
        let r = run_one(10);
        let mon = PowerMonitor::paper_default(PowerModel::tesla_k20());
        let rep = mon.measure(&r);
        assert_eq!(rep.samples.len(), 1);
    }

    #[test]
    fn concurrency_raises_power_slightly_but_cuts_energy() {
        // Two small-kernel apps, serial vs concurrent: the paper's §V-D
        // shape — slightly higher average power, lower total energy.
        let build = |label: &str| {
            let mut b = Program::builder(label);
            for i in 0..20 {
                // 13 blocks of 64 threads: 2 warps per SMX — far below
                // issue capacity, so two such apps overlap at full rate.
                b = b.launch(KernelDesc::new(
                    format!("k{i}"),
                    13u32,
                    64u32,
                    Dur::from_us(500),
                ));
            }
            b.build()
        };
        let serial = {
            let mut sim = GpuSim::new(DeviceConfig::tesla_k20(), HostConfig::deterministic(), 1);
            let s = sim.create_stream();
            let a = sim.add_app(build("a"), s);
            let b = sim.add_app(build("b"), s);
            sim.set_start_after(b, a);
            sim.run().unwrap()
        };
        let conc = {
            let mut sim = GpuSim::new(DeviceConfig::tesla_k20(), HostConfig::deterministic(), 1);
            let streams = sim.create_streams(2);
            sim.add_app(build("a"), streams[0]);
            sim.add_app(build("b"), streams[1]);
            sim.run().unwrap()
        };
        let mon = PowerMonitor::paper_default(PowerModel::tesla_k20());
        let rs = mon.measure(&serial);
        let rc = mon.measure(&conc);
        assert!(conc.makespan < serial.makespan, "concurrency is faster");
        assert!(
            rc.avg_true_w >= rs.avg_true_w,
            "concurrent power {} should be >= serial {}",
            rc.avg_true_w,
            rs.avg_true_w
        );
        let ratio = rc.avg_true_w / rs.avg_true_w;
        assert!(ratio < 1.6, "power must rise sub-linearly: ratio {ratio}");
        assert!(
            rc.energy_j < rs.energy_j,
            "energy must fall: {} vs {}",
            rc.energy_j,
            rs.energy_j
        );
    }
}
