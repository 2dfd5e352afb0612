//! Metrics aggregation and trace export for simulation runs.
//!
//! Consumes the structured event stream produced by `simkit::trace` and
//! turns it into:
//! - a [`Registry`] of counters, gauges, and histograms,
//! - a chrome://tracing JSON document ([`chrome_trace`]) that opens
//!   directly in Perfetto (`ui.perfetto.dev`) or `chrome://tracing`,
//! - a [`Timeline`] folding protocol-phase spans back into the per-cycle
//!   phase stacks of the paper's Figure 4,
//! - a [`FleetTimeline`] demultiplexing a multi-job fleet run's shared
//!   trace into per-job timelines,
//! - a [`Json`] document builder for deterministic machine-readable
//!   benchmark artifacts (`BENCH_*.json`).

#![forbid(unsafe_code)]

pub mod chrome;
pub mod fleet;
pub mod json;
pub mod registry;
pub mod timeline;

pub use chrome::{chrome_trace, write_chrome_trace};
pub use fleet::FleetTimeline;
pub use json::Json;
pub use registry::{CounterSnapshot, HistogramSnapshot, Registry};
pub use timeline::{PhaseStack, Timeline, WalMarks};
