//! Trace export and phase accounting for simulation runs.
//!
//! Consumes the structured event stream produced by `simkit::trace` and
//! turns it into:
//! - a chrome://tracing JSON document ([`chrome_trace`]) that opens
//!   directly in Perfetto (`ui.perfetto.dev`) or `chrome://tracing`,
//! - a [`Timeline`] folding protocol-phase spans back into the per-cycle
//!   phase stacks of the paper's Figure 4 — the library's one span
//!   pairing,
//! - a [`Json`] document builder for deterministic machine-readable
//!   benchmark artifacts (`BENCH_*.json`).
//!
//! Both writers escape strings with [`simkit::escape_json`], the one JSON
//! string escaper of the workspace.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod json;
pub mod timeline;

pub use chrome::{chrome_trace, write_chrome_trace};
pub use json::Json;
pub use timeline::{PhaseStack, Timeline, WalMarks};
