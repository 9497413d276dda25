//! `wlan-core` — the facade of the *wlan-evolve* workspace.
//!
//! This crate ties the whole reproduction of *"Wireless LAN: Past, Present,
//! and Future"* (Keith Holt, DATE 2005) together:
//!
//! - [`standard`] — the four 802.11 generations the paper retraces, with
//!   their rates, bandwidths and spectral efficiencies,
//! - [`evolution`] — the headline tables (experiments E1/E2): the
//!   0.1 → 0.5 → 2.7 → 15 bps/Hz fivefold ladder,
//! - [`linksim`] — a unified Monte-Carlo link simulator (`PhyLink`) running
//!   every generation's full TX→channel→RX chain for PER-vs-SNR curves
//!   (experiment E4),
//! - [`range`] — PER-threshold range estimation over the breakpoint
//!   path-loss model (experiment E5),
//! - [`adaptation`] — SNR-driven rate selection,
//! - re-exports of every substrate crate under one roof.
//!
//! # Quickstart
//!
//! ```
//! use wlan_core::standard::Standard;
//!
//! for s in Standard::all() {
//!     println!(
//!         "{:>8}: {:>5} Mbps in {:>2} MHz = {:.1} bps/Hz",
//!         s.name(),
//!         s.peak_rate_mbps(),
//!         s.bandwidth_mhz(),
//!         s.spectral_efficiency()
//!     );
//! }
//! // The paper's fivefold-per-generation trend:
//! let se: Vec<f64> = Standard::all().iter().map(|s| s.spectral_efficiency()).collect();
//! assert!(se.windows(2).all(|w| w[1] / w[0] > 4.0));
//! ```

pub mod adaptation;
pub mod evolution;
pub mod goodput;
pub mod linksim;
pub mod range;
pub mod standard;

pub use standard::Standard;

// One-stop re-exports of the substrate crates.
pub use wlan_channel as channel;
pub use wlan_coding as coding;
pub use wlan_coop as coop;
pub use wlan_dsss as dsss;
pub use wlan_fault as fault;
pub use wlan_mac as mac;
pub use wlan_math as math;
pub use wlan_mesh as mesh;
pub use wlan_mimo as mimo;
pub use wlan_ofdm as ofdm;
pub use wlan_power as power;
pub use wlan_sim as sim;
