//! Decorators over the program's three public trait seams. The traced
//! run wraps the real sink, query source and poll endpoint in these, so
//! spans are recorded at the layer boundaries without a line of tracing
//! inside the program.

use std::cell::Cell;
use std::time::Instant;

use airstat_classify::apps::Application;
use airstat_classify::device::OsFamily;
use airstat_classify::mac::MacAddress;
use airstat_rf::band::Band;
use airstat_store::{FleetQuery, ReportSink};
use airstat_telemetry::backend::{
    ClientIdentity, LinkKey, LinkObservation, ScanObservation, UsageTotals, WindowId,
};
use airstat_telemetry::crash::CrashAggregator;
use airstat_telemetry::report::Report;
use airstat_telemetry::sched::{PollEndpoint, RoundOutcome};

use crate::trace::Tracer;

/// A benchmark-owned sink that keeps every batch a campaign drains, in
/// arrival order: the store workloads replay these as their input.
#[derive(Debug, Default)]
pub struct CaptureSink {
    /// The batches, exactly as the engine offered them.
    pub batches: Vec<(WindowId, Vec<Report>)>,
}

impl ReportSink for CaptureSink {
    fn ingest_batch(&mut self, window: WindowId, reports: &[Report]) -> u64 {
        self.batches.push((window, reports.to_vec()));
        reports.len() as u64
    }
}

/// A sink that accepts and forgets: what is left of `run_into` is the
/// simulator's own generate → classify → encode → poll work.
#[derive(Debug, Default)]
pub struct NullSink;

impl ReportSink for NullSink {
    fn ingest_batch(&mut self, _window: WindowId, reports: &[Report]) -> u64 {
        reports.len() as u64
    }
}

/// Records one `store.ingest.batch` span per batch the engine hands to
/// the wrapped sink, and counts what went through.
#[derive(Debug)]
pub struct TimedSink<'t, S> {
    inner: S,
    tracer: &'t Tracer,
    /// Reports offered to the sink.
    pub reports: u64,
    /// Records inside those reports.
    pub records: u64,
}

impl<'t, S: ReportSink> TimedSink<'t, S> {
    pub fn new(inner: S, tracer: &'t Tracer) -> Self {
        TimedSink {
            inner,
            tracer,
            reports: 0,
            records: 0,
        }
    }

    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: ReportSink> ReportSink for TimedSink<'_, S> {
    fn ingest_batch(&mut self, window: WindowId, reports: &[Report]) -> u64 {
        self.reports += reports.len() as u64;
        self.records += reports.iter().map(|r| r.payload.len() as u64).sum::<u64>();
        let inner = &mut self.inner;
        self.tracer
            .span("store.ingest.batch", || inner.ingest_batch(window, reports))
    }
}

/// Records one `store.query.<method>` span per [`FleetQuery`] call the
/// analytics make, so `from_query`'s self time is the analytics' own.
#[derive(Debug)]
pub struct TimedQuery<'t, Q> {
    inner: &'t Q,
    tracer: &'t Tracer,
}

impl<'t, Q: FleetQuery> TimedQuery<'t, Q> {
    pub fn new(inner: &'t Q, tracer: &'t Tracer) -> Self {
        TimedQuery { inner, tracer }
    }
}

impl<Q: FleetQuery> FleetQuery for TimedQuery<'_, Q> {
    fn usage_by_app(&self, window: WindowId) -> Vec<(Application, UsageTotals, u64)> {
        self.tracer.span("store.query.usage_by_app", || {
            self.inner.usage_by_app(window)
        })
    }
    fn usage_by_os(&self, window: WindowId) -> Vec<(OsFamily, UsageTotals, u64)> {
        self.tracer
            .span("store.query.usage_by_os", || self.inner.usage_by_os(window))
    }
    fn client_count(&self, window: WindowId) -> usize {
        self.tracer.span("store.query.client_count", || {
            self.inner.client_count(window)
        })
    }
    fn clients(&self, window: WindowId) -> Vec<(MacAddress, ClientIdentity)> {
        self.tracer
            .span("store.query.clients", || self.inner.clients(window))
    }
    fn app_client_count(&self, window: WindowId, app: Application) -> u64 {
        self.tracer.span("store.query.app_client_count", || {
            self.inner.app_client_count(window, app)
        })
    }
    fn link_keys(&self, window: WindowId, band: Band) -> Vec<LinkKey> {
        self.tracer.span("store.query.link_keys", || {
            self.inner.link_keys(window, band)
        })
    }
    fn link_series(&self, window: WindowId, key: LinkKey) -> Vec<LinkObservation> {
        self.tracer.span("store.query.link_series", || {
            self.inner.link_series(window, key)
        })
    }
    fn latest_delivery_ratios(&self, window: WindowId, band: Band) -> Vec<f64> {
        self.tracer.span("store.query.latest_delivery_ratios", || {
            self.inner.latest_delivery_ratios(window, band)
        })
    }
    fn mean_delivery_ratios(&self, window: WindowId, band: Band) -> Vec<f64> {
        self.tracer.span("store.query.mean_delivery_ratios", || {
            self.inner.mean_delivery_ratios(window, band)
        })
    }
    fn serving_utilizations(&self, window: WindowId, band: Band) -> Vec<f64> {
        self.tracer.span("store.query.serving_utilizations", || {
            self.inner.serving_utilizations(window, band)
        })
    }
    fn census_device_count(&self, window: WindowId) -> usize {
        self.tracer.span("store.query.census_device_count", || {
            self.inner.census_device_count(window)
        })
    }
    fn nearby_summary(&self, window: WindowId, band: Band) -> (u64, f64, u64) {
        self.tracer.span("store.query.nearby_summary", || {
            self.inner.nearby_summary(window, band)
        })
    }
    fn nearby_per_channel(&self, window: WindowId, band: Band) -> Vec<(u16, u64)> {
        self.tracer.span("store.query.nearby_per_channel", || {
            self.inner.nearby_per_channel(window, band)
        })
    }
    fn crashes(&self, window: WindowId) -> Option<CrashAggregator> {
        self.tracer
            .span("store.query.crashes", || self.inner.crashes(window))
    }
    fn scan_observations(&self, window: WindowId, band: Band) -> Vec<ScanObservation> {
        self.tracer.span("store.query.scan_observations", || {
            self.inner.scan_observations(window, band)
        })
    }
}

/// Busy time and call count shared by every [`TimedEndpoint`] of one
/// scheduler. A fleet makes millions of poll rounds, too many to keep a
/// span each: the wave loop folds the counter into one aggregate span
/// per tick.
#[derive(Debug, Default)]
pub struct PollClock {
    /// Nanoseconds spent inside `poll_round` since the last `take`.
    busy_ns: Cell<u64>,
    /// `poll_round` calls since the clock was created.
    pub rounds: Cell<u64>,
}

impl PollClock {
    /// Returns the busy time accumulated since the last call, and resets it.
    pub fn take_busy_ns(&self) -> u64 {
        self.busy_ns.replace(0)
    }
}

/// Times every `poll_round` the scheduler makes on the wrapped endpoint.
#[derive(Debug)]
pub struct TimedEndpoint<'c, E> {
    inner: E,
    clock: &'c PollClock,
}

impl<'c, E: PollEndpoint> TimedEndpoint<'c, E> {
    pub fn new(inner: E, clock: &'c PollClock) -> Self {
        TimedEndpoint { inner, clock }
    }

    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E: PollEndpoint> PollEndpoint for TimedEndpoint<'_, E> {
    fn poll_round(&mut self, now_s: u64) -> RoundOutcome {
        let start = Instant::now();
        let outcome = self.inner.poll_round(now_s);
        let busy = start.elapsed().as_nanos() as u64;
        self.clock.busy_ns.set(self.clock.busy_ns.get() + busy);
        self.clock.rounds.set(self.clock.rounds.get() + 1);
        outcome
    }
    fn pending(&self) -> bool {
        self.inner.pending()
    }
    fn continue_after_failure(&self) -> bool {
        self.inner.continue_after_failure()
    }
    fn queued(&self) -> u64 {
        self.inner.queued()
    }
    fn undelivered(&self) -> u64 {
        self.inner.undelivered()
    }
    fn polls_attempted(&self) -> u64 {
        self.inner.polls_attempted()
    }
    fn bytes_transferred(&self) -> u64 {
        self.inner.bytes_transferred()
    }
}
