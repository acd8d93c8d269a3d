//! # sockscope-filterlist
//!
//! An Adblock-Plus-syntax filter-list engine plus the paper's A&A labeling
//! methodology (§3.2).
//!
//! The study uses EasyList and EasyPrivacy twice:
//!
//! 1. **Labeling** — every resource in the crawl is tagged A&A or non-A&A by
//!    the rule lists; tags are aggregated to second-level domains and a
//!    domain `d` enters the A&A set `D'` when `a(d) ≥ 0.1 · n(d)` (see
//!    [`labeler::Labeler`]). A manual override table maps the 13 Cloudfront
//!    CDN hostnames that served A&A scripts to their owning companies.
//! 2. **Post-hoc blocking analysis** (§4.2) — for inclusion chains leading
//!    to A&A sockets, would any script in the chain have been blocked? (The
//!    paper finds only ~5% would, vs ~27% of A&A chains overall.)
//!
//! And the simulated browser uses the same engine a third way: as the
//! matching core of its ad-blocker extension, which is subject to the
//! webRequest Bug.
//!
//! ## Supported filter syntax
//!
//! * `||domain.example^` — domain-anchor (matches the domain and its
//!   subdomains, at a scheme-authority boundary)
//! * `|http://…` — start anchor, `…|` — end anchor
//! * plain substring patterns with `*` wildcards and `^` separators
//! * `@@` exception rules
//! * options after `$`: `script`, `image`, `stylesheet`, `xmlhttprequest`,
//!   `subdocument`, `websocket`, `other`, their `~` negations,
//!   `third-party` / `~third-party`, and `domain=a.example|~b.example`
//! * comments (`!`), element-hiding rules (`##`, `#@#`) are recognized and
//!   skipped (network-layer engine only, like the paper's analysis)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod labeler;
pub mod lists;
pub mod rule;

pub use engine::{Decision, Engine, PageFacts, RequestContext};
pub use labeler::{AaDomainSet, Labeler};
pub use rule::{ParsedLine, ResourceType, Rule, RuleError};
