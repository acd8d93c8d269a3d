//! # sockscope-urlkit
//!
//! URL handling substrate for the sockscope measurement pipeline.
//!
//! The paper's methodology (§3.2) operates almost entirely on *domains*:
//! resources are tagged as Advertising & Analytics (A&A) at the
//! **second-level-domain** granularity (`x.doubleclick.net` and
//! `y.doubleclick.net` both map to `doubleclick.net`), and WebSockets are
//! classified as cross-origin when they contact a third-party domain.
//!
//! This crate provides:
//!
//! * [`Url`] — a small, strict parser for the four schemes the study cares
//!   about (`http`, `https`, `ws`, `wss`). A parsed URL is one `String`,
//!   its canonical text, and the pieces the crawler needs (host, port,
//!   path, query) are spans of it: a parse is one scan and one
//!   allocation.
//! * [`Host`] — validated hosts (DNS names or IPv4 literals), as origins
//!   hold them.
//! * [`psl`] — an embedded public-suffix list and the
//!   [`second_level_domain`] routine used for A&A
//!   labeling.
//! * [`Origin`] — scheme/host/port origins with the same-origin and
//!   third-party (cross-site) predicates used to reproduce the ">90% of
//!   WebSockets are cross-origin" statistic (§4.1).
//!
//! Everything is allocation-light and dependency-free; parsing never panics
//! on untrusted input.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod host;
pub mod origin;
pub mod parse;
pub mod psl;

pub use host::Host;
pub use origin::Origin;
pub use parse::{ParseError, Scheme, Url};
pub use psl::{is_public_suffix, second_level_domain};
