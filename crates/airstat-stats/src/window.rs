//! Sliding-window ratio counters.
//!
//! Link-quality measurement in the paper works like this (§4.2): every AP
//! broadcasts a 60-byte probe every 15 seconds; each neighbour records
//! received probes over a **sliding 300-second window**, and the delivery
//! ratio is `received / expected` within that window. [`SlidingRatio`]
//! implements exactly that: a time-indexed window of boolean outcomes with
//! O(1) amortized insertion and exact eviction.

use std::collections::VecDeque;

/// A sliding-window success-ratio counter over timestamped boolean events.
///
/// Timestamps are caller-defined ticks (AirStat uses seconds). Events must
/// be offered in non-decreasing time order.
///
/// ```
/// use airstat_stats::SlidingRatio;
///
/// // The paper's probe schedule: 15 s probes, 300 s window.
/// let mut window = SlidingRatio::new(300);
/// for t in (0..600).step_by(15) {
///     window.record(t, t % 60 == 0); // every fourth probe arrives
/// }
/// assert_eq!(window.in_window(), 20); // one window's worth in flight
/// assert_eq!(window.ratio(), Some(0.25));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlidingRatio {
    window: u64,
    events: VecDeque<(u64, bool)>,
    successes: usize,
}

impl SlidingRatio {
    /// Creates a counter with the given window length in ticks.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn new(window: u64) -> Self {
        assert!(window > 0, "window must be > 0");
        SlidingRatio {
            window,
            events: VecDeque::new(),
            successes: 0,
        }
    }

    /// Records one outcome at time `t`.
    ///
    /// # Panics
    /// Panics if `t` is earlier than a previously recorded event — the
    /// telemetry agent produces a monotone clock and violating that
    /// indicates a bug upstream.
    pub fn record(&mut self, t: u64, success: bool) {
        if let Some(&(last, _)) = self.events.back() {
            assert!(t >= last, "events must be time-ordered ({t} < {last})");
        }
        self.events.push_back((t, success));
        if success {
            self.successes += 1;
        }
        self.evict(t);
    }

    fn evict(&mut self, now: u64) {
        // Keep events with t > now - window, i.e. within (now - window, now].
        // Before one full window has elapsed nothing can be stale.
        let Some(cutoff) = now.checked_sub(self.window) else {
            return;
        };
        while let Some(&(t, success)) = self.events.front() {
            if t > cutoff {
                break;
            }
            if success {
                self.successes -= 1;
            }
            self.events.pop_front();
        }
    }

    /// Number of events currently inside the window.
    pub fn in_window(&self) -> usize {
        self.events.len()
    }

    /// Success count inside the window.
    pub fn successes(&self) -> usize {
        self.successes
    }

    /// Success ratio inside the window; `None` when empty.
    pub fn ratio(&self) -> Option<f64> {
        (!self.events.is_empty()).then(|| self.successes as f64 / self.events.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_within_window() {
        let mut w = SlidingRatio::new(300);
        // 20 probes at 15 s spacing: exactly one window's worth.
        for i in 0..20u64 {
            w.record(i * 15, i % 2 == 0);
        }
        assert_eq!(w.in_window(), 20);
        assert!((w.ratio().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn old_events_evicted() {
        let mut w = SlidingRatio::new(300);
        w.record(0, true);
        w.record(100, false);
        w.record(400, false); // evicts t=0 and t=100 (<= 400-300)
        assert_eq!(w.in_window(), 1);
        assert_eq!(w.ratio(), Some(0.0));
    }

    #[test]
    fn boundary_event_exactly_window_old_is_evicted() {
        let mut w = SlidingRatio::new(300);
        w.record(0, true);
        w.record(300, true); // t=0 is exactly `window` old → evicted
        assert_eq!(w.in_window(), 1);
    }

    #[test]
    fn successes_counter_consistent_after_eviction() {
        let mut w = SlidingRatio::new(30);
        for t in 0..100u64 {
            w.record(t, t % 3 == 0);
        }
        // Window covers (69, 100] → events 70..=99, successes at 72..=99 step 3.
        assert_eq!(w.in_window(), 30);
        assert_eq!(w.successes(), 10);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_time_travel() {
        let mut w = SlidingRatio::new(10);
        w.record(5, true);
        w.record(4, true);
    }

    #[test]
    fn paper_parameters_hold_twenty_probes() {
        // 300 s window, 15 s interval → at most 20 probes in flight.
        let mut w = SlidingRatio::new(300);
        for i in 0..1000u64 {
            w.record(i * 15, true);
        }
        assert_eq!(w.in_window(), 20);
    }
}
