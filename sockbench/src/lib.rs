//! Socket-level benchmark of `payless-server`.
//!
//! Each run boots a fresh, hermetic server child, drives a seeded query
//! list through real sockets from one closed-loop client, reads the
//! server's own counters, and then replays the same list serially in
//! process through each layer's public entry points — the reference every
//! answer is checked against, and the trace that attributes a query's time
//! to layers. See `README.md` in this directory.

pub mod child;
pub mod client;
pub mod load;
pub mod replay;
pub mod run;
