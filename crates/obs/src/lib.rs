//! Phase-span tracing and unified metrics for the sorting workspace.
//!
//! The paper's whole evaluation is a per-phase, per-node accounting of
//! Algorithm 1; this crate turns that story into first-class data instead of
//! scattered report structs:
//!
//! * **Spans** ([`SpanRecord`]) carry both *virtual* time (the simulated
//!   node clock, as plain `f64` seconds) and *wall* time. Phase boundaries
//!   ([`Obs::phase_mark`]) produce one contiguous span per Algorithm-1 step;
//!   collectives and inner sorter stages nest inside them.
//! * A **metrics registry** ([`metrics::Metrics`]) of named counters, gauges
//!   and power-of-two-bucket histograms unifies the `IoSnapshot`,
//!   `SortReport`/`MergeReport`, `key_ops` and `overlap_saved` plumbing,
//!   plus run-length, message-size and partition-size distributions.
//! * **Exporters**: Chrome `trace_event` JSON ([`chrome::chrome_trace`],
//!   one "process" per simulated node on the virtual-time axis — loadable
//!   in Perfetto), machine-readable metrics JSON ([`json::metrics_json`])
//!   and a terminal per-node phase Gantt + skew table
//!   ([`render::render_profile`]).
//!
//! # Zero cost when disabled
//!
//! Everything funnels through an [`Obs`] handle that is either enabled
//! (an `Rc<RefCell<…>>` recorder) or a no-op. Recording **never** touches
//! clocks, RNGs, disks or the network — it only *reads* the times it is
//! handed — so a traced run is observationally identical to an untraced
//! one: byte-identical sorted output, identical I/O counters, identical
//! virtual times (the differential test in the workspace root proves it).
//!
//! # Thread-local use
//!
//! The cluster runtime [`install`]s each node's handle in thread-local
//! storage before running the node function, so deep library code (the
//! external sorters) can open [`scoped`] spans and bump [`counter_add`] /
//! [`hist_record`] metrics without threading a handle through every
//! signature. Threads without an installed handle (e.g. pipelined sort
//! workers) observe a disabled handle and pay a TLS read per call.

pub mod chrome;
pub mod critpath;
pub mod json;
pub mod metrics;
pub mod render;
pub mod report;
pub mod span;
pub mod whatif;

pub use chrome::chrome_trace;
pub use critpath::{critical_path, Blame, CritPath, PhaseCost, Segment, BLAME_CATEGORIES};
pub use json::{metrics_json, parse, validate, Json};
pub use metrics::{Histogram, Metrics, MetricsSnapshot};
pub use render::render_profile;
pub use report::{ClusterObs, NodeObs};
pub use span::{Obs, SpanKind, SpanRecord};
pub use whatif::{critpath_json, estimate_without, render_whatif, whatif_table, WhatIf};

use std::cell::RefCell;

thread_local! {
    static CURRENT: RefCell<Obs> = RefCell::new(Obs::disabled());
}

/// Installs `obs` as this thread's current handle; the previous handle is
/// restored when the guard drops. The cluster runtime calls this once per
/// node thread.
#[must_use = "the previous handle is restored when the guard drops"]
pub fn install(obs: Obs) -> InstallGuard {
    let prev = CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), obs));
    InstallGuard { prev: Some(prev) }
}

/// Restores the previously installed handle on drop (see [`install`]).
pub struct InstallGuard {
    prev: Option<Obs>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
}

/// The current thread's handle (disabled if none was installed).
pub fn current() -> Obs {
    CURRENT.with(|c| c.borrow().clone())
}

/// Opens a wall-clock span on the current thread's handle; the span is
/// recorded when the guard drops. A no-op (one TLS read) when tracing is
/// disabled. Inner spans carry only wall time — the Chrome exporter rescales
/// them into the virtual window of the enclosing phase span.
pub fn scoped(name: &'static str) -> ScopedSpan {
    let obs = current();
    let start = obs.elapsed();
    ScopedSpan { obs, name, start }
}

/// Guard returned by [`scoped`]; records the span on drop.
pub struct ScopedSpan {
    obs: Obs,
    name: &'static str,
    start: f64,
}

impl Drop for ScopedSpan {
    fn drop(&mut self) {
        if self.obs.is_enabled() {
            let end = self.obs.elapsed();
            self.obs
                .record_span(self.name, SpanKind::Task, self.start, end, None);
        }
    }
}

/// Adds to a named counter on the current thread's handle.
pub fn counter_add(name: &'static str, v: u64) {
    CURRENT.with(|c| c.borrow().counter_add(name, v));
}

/// Sets a named gauge on the current thread's handle.
pub fn gauge_set(name: &'static str, v: f64) {
    CURRENT.with(|c| c.borrow().gauge_set(name, v));
}

/// Records a value into a named histogram on the current thread's handle.
pub fn hist_record(name: &'static str, v: u64) {
    CURRENT.with(|c| c.borrow().hist_record(name, v));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_thread_local_is_noop() {
        // No handle installed: all free functions are inert.
        {
            let _span = scoped("nothing");
            counter_add("c", 1);
            hist_record("h", 2);
            gauge_set("g", 3.0);
        }
        assert!(!current().is_enabled());
    }

    #[test]
    fn install_scopes_and_restores() {
        let obs = Obs::enabled();
        {
            let _guard = install(obs.clone());
            assert!(current().is_enabled());
            {
                let _span = scoped("work");
                counter_add("c", 2);
                hist_record("h", 5);
            }
        }
        assert!(!current().is_enabled(), "previous handle restored");
        let node = obs.finish(0, "n0".to_string());
        assert_eq!(node.spans.len(), 1);
        assert_eq!(node.spans[0].name, "work");
        assert_eq!(node.spans[0].kind, SpanKind::Task);
        assert_eq!(node.metrics.counters.get("c"), Some(&2));
        assert_eq!(node.metrics.histograms.get("h").unwrap().count, 1);
    }

    #[test]
    fn nested_installs_restore_in_order() {
        let a = Obs::enabled();
        let b = Obs::enabled();
        let g1 = install(a.clone());
        {
            let _g2 = install(b.clone());
            counter_add("x", 1);
        }
        counter_add("x", 10);
        drop(g1);
        assert_eq!(
            b.finish(0, String::new()).metrics.counters.get("x"),
            Some(&1)
        );
        assert_eq!(
            a.finish(0, String::new()).metrics.counters.get("x"),
            Some(&10)
        );
    }
}
