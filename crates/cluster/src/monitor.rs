//! The simulated resource monitor — our stand-in for the paper's `psutil`
//! loops (§4.3).
//!
//! The paper samples memory, CPU and network on every machine at 1-second
//! intervals, starts monitors a few seconds before the job and stops a few
//! seconds after, and reports **peak memory = max − min** to subtract the
//! OS background. Our engines push one [`MachineSample`] per machine per
//! simulated interval; [`Timeline`] reproduces the same derived metrics.

use std::sync::{Arc, Mutex, MutexGuard};

/// One sample of a machine's simulated resource usage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MachineSample {
    /// Simulated time of the sample, in seconds from monitor start.
    pub time_s: f64,
    /// Resident memory in bytes (includes the simulated OS background).
    pub memory_bytes: f64,
    /// Inbound network bytes since the previous sample.
    pub net_in_bytes: f64,
    /// CPU utilization in `[0, 100]` percent.
    pub cpu_percent: f64,
}

/// A per-machine series of samples.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    samples: Vec<MachineSample>,
}

impl Timeline {
    /// Append a sample; times must be non-decreasing.
    pub fn push(&mut self, s: MachineSample) {
        if let Some(last) = self.samples.last() {
            assert!(s.time_s >= last.time_s, "samples must be time-ordered");
        }
        self.samples.push(s);
    }

    /// All samples in time order.
    pub fn samples(&self) -> &[MachineSample] {
        &self.samples
    }

    /// The paper's peak-memory metric: max − min over the run, which
    /// subtracts whatever background was resident before the job (§4.3).
    pub fn peak_memory_bytes(&self) -> f64 {
        let max = self
            .samples
            .iter()
            .map(|s| s.memory_bytes)
            .fold(f64::MIN, f64::max);
        let min = self
            .samples
            .iter()
            .map(|s| s.memory_bytes)
            .fold(f64::MAX, f64::min);
        if self.samples.is_empty() {
            0.0
        } else {
            max - min
        }
    }

    /// Total inbound network traffic over the run.
    pub fn total_net_in_bytes(&self) -> f64 {
        self.samples.iter().map(|s| s.net_in_bytes).sum()
    }

    /// Mean CPU utilization over the run.
    pub fn mean_cpu_percent(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().map(|s| s.cpu_percent).sum::<f64>() / self.samples.len() as f64
        }
    }

    /// CPU utilization percentiles `(min, p25, median, p75, max)` — the
    /// box-plot statistics of Fig 8.4.
    pub fn cpu_box_stats(&self) -> (f64, f64, f64, f64, f64) {
        if self.samples.is_empty() {
            return (0.0, 0.0, 0.0, 0.0, 0.0);
        }
        let mut cpus: Vec<f64> = self.samples.iter().map(|s| s.cpu_percent).collect();
        cpus.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q = |f: f64| -> f64 {
            let idx = (f * (cpus.len() - 1) as f64).round() as usize;
            cpus[idx]
        };
        (q(0.0), q(0.25), q(0.5), q(0.75), q(1.0))
    }
}

/// Cluster-wide monitor: one [`Timeline`] per machine, shareable across the
/// engine's simulated machines.
#[derive(Debug, Clone)]
pub struct ResourceMonitor {
    inner: Arc<Mutex<Vec<Timeline>>>,
}

impl ResourceMonitor {
    /// Monitor for `machines` machines.
    pub fn new(machines: u32) -> Self {
        ResourceMonitor {
            inner: Arc::new(Mutex::new(vec![Timeline::default(); machines as usize])),
        }
    }

    /// Poison is ignored: every update is one `push`, so the timelines are
    /// valid at whatever point another holder panicked.
    fn lock(&self) -> MutexGuard<'_, Vec<Timeline>> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Record a sample for one machine.
    pub fn record(&self, machine: usize, sample: MachineSample) {
        self.lock()[machine].push(sample);
    }

    /// Record identical load on every machine at `time_s` (convenience for
    /// symmetric phases).
    pub fn record_uniform(&self, sample: MachineSample) {
        let mut inner = self.lock();
        for t in inner.iter_mut() {
            t.push(sample);
        }
    }

    /// Snapshot all per-machine timelines.
    pub fn timelines(&self) -> Vec<Timeline> {
        self.lock().clone()
    }

    /// Mean over machines of each machine's peak memory (the per-machine
    /// peak the paper plots in Figs 5.5/6.2).
    pub fn mean_peak_memory_bytes(&self) -> f64 {
        let tl = self.lock();
        if tl.is_empty() {
            return 0.0;
        }
        tl.iter().map(|t| t.peak_memory_bytes()).sum::<f64>() / tl.len() as f64
    }

    /// Mean over machines of inbound traffic (Fig 5.3's per-machine metric).
    pub fn mean_net_in_bytes(&self) -> f64 {
        let tl = self.lock();
        if tl.is_empty() {
            return 0.0;
        }
        tl.iter().map(|t| t.total_net_in_bytes()).sum::<f64>() / tl.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(t: f64, mem: f64, net: f64, cpu: f64) -> MachineSample {
        MachineSample {
            time_s: t,
            memory_bytes: mem,
            net_in_bytes: net,
            cpu_percent: cpu,
        }
    }

    #[test]
    fn peak_memory_is_max_minus_min() {
        let mut t = Timeline::default();
        t.push(s(0.0, 5.0e9, 0.0, 10.0)); // background before job
        t.push(s(1.0, 9.0e9, 0.0, 50.0));
        t.push(s(2.0, 7.0e9, 0.0, 40.0));
        assert!((t.peak_memory_bytes() - 4.0e9).abs() < 1.0);
    }

    #[test]
    fn empty_timeline_is_zero() {
        let t = Timeline::default();
        assert_eq!(t.peak_memory_bytes(), 0.0);
        assert_eq!(t.mean_cpu_percent(), 0.0);
        assert_eq!(t.cpu_box_stats(), (0.0, 0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn single_sample_timeline() {
        let mut t = Timeline::default();
        t.push(s(2.0, 6.0e9, 120.0, 35.0));
        // One sample: no delta to take, so peak memory is zero; means and
        // box stats collapse onto the sample itself.
        assert_eq!(t.peak_memory_bytes(), 0.0);
        assert_eq!(t.total_net_in_bytes(), 120.0);
        assert_eq!(t.mean_cpu_percent(), 35.0);
        assert_eq!(t.cpu_box_stats(), (35.0, 35.0, 35.0, 35.0, 35.0));
    }

    #[test]
    fn box_stats_under_five_samples() {
        // Two samples: quartiles snap to the nearest sorted sample.
        let mut t = Timeline::default();
        t.push(s(0.0, 0.0, 0.0, 40.0));
        t.push(s(1.0, 0.0, 0.0, 10.0));
        let (min, q1, med, q3, max) = t.cpu_box_stats();
        assert_eq!((min, max), (10.0, 40.0));
        assert!(min <= q1 && q1 <= med && med <= q3 && q3 <= max);

        // Three samples: the median is the middle sample.
        let mut t = Timeline::default();
        for (i, cpu) in [80.0, 20.0, 50.0].into_iter().enumerate() {
            t.push(s(i as f64, 0.0, 0.0, cpu));
        }
        let (min, q1, med, q3, max) = t.cpu_box_stats();
        assert_eq!((min, med, max), (20.0, 50.0, 80.0));
        assert!(q1 <= med && med <= q3);

        // Four samples: everything stays ordered and within range.
        let mut t = Timeline::default();
        for (i, cpu) in [5.0, 25.0, 15.0, 35.0].into_iter().enumerate() {
            t.push(s(i as f64, 0.0, 0.0, cpu));
        }
        let (min, q1, med, q3, max) = t.cpu_box_stats();
        assert_eq!((min, max), (5.0, 35.0));
        assert!(min <= q1 && q1 <= med && med <= q3 && q3 <= max);
    }

    #[test]
    fn equal_times_are_accepted() {
        // Two phases can hand off at the same instant; ties are legal.
        let mut t = Timeline::default();
        t.push(s(1.0, 1.0e9, 0.0, 10.0));
        t.push(s(1.0, 2.0e9, 0.0, 20.0));
        assert_eq!(t.samples().len(), 2);
        assert_eq!(t.peak_memory_bytes(), 1.0e9);
    }

    #[test]
    fn zero_machine_monitor_is_empty() {
        let m = ResourceMonitor::new(0);
        assert!(m.timelines().is_empty());
        assert_eq!(m.mean_peak_memory_bytes(), 0.0);
        assert_eq!(m.mean_net_in_bytes(), 0.0);
        // record_uniform on an empty cluster is a no-op, not a panic.
        m.record_uniform(s(0.0, 1.0, 1.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_samples_rejected() {
        let mut t = Timeline::default();
        t.push(s(5.0, 0.0, 0.0, 0.0));
        t.push(s(1.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn net_accumulates() {
        let mut t = Timeline::default();
        t.push(s(0.0, 0.0, 100.0, 0.0));
        t.push(s(1.0, 0.0, 250.0, 0.0));
        assert_eq!(t.total_net_in_bytes(), 350.0);
    }

    #[test]
    fn box_stats_are_ordered() {
        let mut t = Timeline::default();
        for (i, cpu) in [30.0, 10.0, 50.0, 20.0, 40.0].into_iter().enumerate() {
            t.push(s(i as f64, 0.0, 0.0, cpu));
        }
        let (min, q1, med, q3, max) = t.cpu_box_stats();
        assert_eq!(min, 10.0);
        assert_eq!(med, 30.0);
        assert_eq!(max, 50.0);
        assert!(q1 <= med && med <= q3);
    }

    #[test]
    fn monitor_aggregates_across_machines() {
        let m = ResourceMonitor::new(2);
        m.record(0, s(0.0, 1.0e9, 10.0, 20.0));
        m.record(0, s(1.0, 3.0e9, 10.0, 20.0));
        m.record(1, s(0.0, 2.0e9, 30.0, 60.0));
        m.record(1, s(1.0, 3.0e9, 30.0, 60.0));
        // peaks: 2e9 and 1e9 → mean 1.5e9
        assert!((m.mean_peak_memory_bytes() - 1.5e9).abs() < 1.0);
        assert!((m.mean_net_in_bytes() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn record_uniform_hits_all_machines() {
        let m = ResourceMonitor::new(3);
        m.record_uniform(s(0.0, 1.0, 5.0, 1.0));
        for t in m.timelines() {
            assert_eq!(t.samples().len(), 1);
        }
    }
}
