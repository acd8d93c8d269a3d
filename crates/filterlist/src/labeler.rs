//! The A&A domain labeling methodology of §3.2.
//!
//! Every resource observed in a crawl is tagged A&A or non-A&A by the rule
//! lists. Tags are aggregated per second-level domain `d`: `a(d)` counts
//! A&A-tagged observations, `n(d)` non-A&A ones. The final A&A set `D'`
//! contains every `d` with `a(d) ≥ 0.1 · n(d)` (and at least one A&A tag),
//! which filters out domains mislabeled A&A less than 10% of the time.
//!
//! The one manual step in the paper is Amazon Cloudfront: 13 fully-qualified
//! `*.cloudfront.net` hostnames hosted A&A scripts, and were each mapped by
//! hand to the A&A company using them (e.g. LuckyOrange ←
//! `d10lpsik1i8c69.cloudfront.net`). [`Labeler::with_cdn_override`] carries
//! that table.

use sockscope_urlkit::second_level_domain;
use std::collections::{HashMap, HashSet};

/// Resolves a hostname to its aggregation key: the CDN override if one
/// exists, else the second-level domain.
fn aggregation_key(cdn_overrides: &HashMap<String, String>, host: &str) -> String {
    let host = host.to_ascii_lowercase();
    if let Some(company) = cdn_overrides.get(&host) {
        return company.clone();
    }
    second_level_domain(&host).to_string()
}

/// Accumulates per-domain A&A / non-A&A tag counts.
#[derive(Debug, Clone, Default)]
pub struct Labeler {
    /// Aggregation key → `(a(d), n(d))`.
    counts: HashMap<String, (u64, u64)>,
    /// Fully-qualified CDN hostname → owning A&A company's 2nd-level domain.
    cdn_overrides: HashMap<String, String>,
}

impl Labeler {
    /// Creates an empty labeler.
    pub fn new() -> Labeler {
        Labeler::default()
    }

    /// Registers a manual CDN-hostname → company mapping (the paper's
    /// Cloudfront table).
    pub fn with_cdn_override(
        mut self,
        fq_host: impl Into<String>,
        company_domain: impl Into<String>,
    ) -> Labeler {
        self.cdn_overrides
            .insert(fq_host.into().to_ascii_lowercase(), company_domain.into());
        self
    }

    /// Records one observation of `host`, tagged A&A or not.
    pub fn observe(&mut self, host: &str, tagged_aa: bool) {
        self.observe_counts(host, tagged_aa as u64, !tagged_aa as u64);
    }

    /// Records `tagged_aa` A&A and `untagged` non-A&A observations of
    /// `host` at once.
    pub fn observe_counts(&mut self, host: &str, tagged_aa: u64, untagged: u64) {
        if tagged_aa == 0 && untagged == 0 {
            return;
        }
        let key = aggregation_key(&self.cdn_overrides, host);
        let entry = self.counts.entry(key).or_insert((0, 0));
        entry.0 += tagged_aa;
        entry.1 += untagged;
    }

    /// `a(d)` — A&A-tagged observations of domain `d`.
    pub fn aa_count(&self, domain: &str) -> u64 {
        self.counts.get(domain).map_or(0, |c| c.0)
    }

    /// `n(d)` — non-A&A observations of domain `d`.
    pub fn non_aa_count(&self, domain: &str) -> u64 {
        self.counts.get(domain).map_or(0, |c| c.1)
    }

    /// Builds `D'`: all domains with `a(d) ≥ threshold · n(d)` and
    /// `a(d) > 0`. The paper uses `threshold = 0.1`.
    pub fn finalize(&self, threshold: f64) -> AaDomainSet {
        let mut domains = HashSet::new();
        for (d, &(a, n)) in &self.counts {
            if a > 0 && a as f64 >= threshold * n as f64 {
                domains.insert(d.clone());
            }
        }
        AaDomainSet {
            domains,
            cdn_overrides: self.cdn_overrides.clone(),
        }
    }

    /// Builds `D'` with the paper's 10% threshold.
    pub fn finalize_paper(&self) -> AaDomainSet {
        self.finalize(0.1)
    }
}

/// The finalized A&A second-level-domain set `D'`.
#[derive(Debug, Clone, Default)]
pub struct AaDomainSet {
    domains: HashSet<String>,
    cdn_overrides: HashMap<String, String>,
}

impl AaDomainSet {
    /// Builds a set directly from known A&A domains (used in unit tests and
    /// for ground-truth comparisons).
    pub fn from_domains<I, S>(domains: I) -> AaDomainSet
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        AaDomainSet {
            domains: domains.into_iter().map(Into::into).collect(),
            cdn_overrides: HashMap::new(),
        }
    }

    /// Adds a CDN override to an existing set.
    pub fn add_cdn_override(
        &mut self,
        fq_host: impl Into<String>,
        company_domain: impl Into<String>,
    ) {
        self.cdn_overrides
            .insert(fq_host.into().to_ascii_lowercase(), company_domain.into());
    }

    /// Resolves a hostname to its aggregation key (CDN override or SLD).
    pub fn aggregation_key(&self, host: &str) -> String {
        aggregation_key(&self.cdn_overrides, host)
    }

    /// Is this hostname's aggregation key in `D'`?
    pub fn is_aa_host(&self, host: &str) -> bool {
        self.domains.contains(&self.aggregation_key(host))
    }

    /// Is this exact second-level domain in `D'`?
    pub fn contains(&self, domain: &str) -> bool {
        self.domains.contains(domain)
    }

    /// Number of A&A domains.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// `true` when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Iterates the domains.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.domains.iter().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subdomains_aggregate() {
        let mut l = Labeler::new();
        l.observe("x.doubleclick.net", true);
        l.observe("y.doubleclick.net", true);
        l.observe("doubleclick.net", false);
        assert_eq!(l.aa_count("doubleclick.net"), 2);
        assert_eq!(l.non_aa_count("doubleclick.net"), 1);
    }

    #[test]
    fn threshold_filters_rare_false_positives() {
        let mut l = Labeler::new();
        // cdn.example: tagged A&A once out of 100 observations (1% < 10%).
        l.observe("cdn.example", true);
        for _ in 0..99 {
            l.observe("cdn.example", false);
        }
        // adnet.example: always A&A.
        for _ in 0..5 {
            l.observe("adnet.example", true);
        }
        // mixed.example: 10 A&A, 50 non-A&A → 10 ≥ 0.1·50 → kept.
        for _ in 0..10 {
            l.observe("mixed.example", true);
        }
        for _ in 0..50 {
            l.observe("mixed.example", false);
        }
        let set = l.finalize_paper();
        assert!(!set.contains("cdn.example"));
        assert!(set.contains("adnet.example"));
        assert!(set.contains("mixed.example"));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn never_tagged_domains_excluded() {
        let mut l = Labeler::new();
        l.observe("pub.example", false);
        let set = l.finalize_paper();
        assert!(!set.contains("pub.example"));
        assert!(set.is_empty());
    }

    #[test]
    fn cloudfront_override() {
        let mut l = Labeler::new()
            .with_cdn_override("d10lpsik1i8c69.cloudfront.net", "luckyorange.example");
        l.observe("d10lpsik1i8c69.cloudfront.net", true);
        // Another cloudfront tenant, not A&A.
        l.observe("d99other.cloudfront.net", false);
        let set = l.finalize_paper();
        assert!(set.contains("luckyorange.example"));
        assert!(!set.contains("cloudfront.net"));
        assert!(set.is_aa_host("d10lpsik1i8c69.cloudfront.net"));
        assert!(!set.is_aa_host("d99other.cloudfront.net"));
    }

    #[test]
    fn bulk_observe_equals_repeated_observe() {
        let mut bulk = Labeler::new().with_cdn_override("d1.cdn.example", "owner.example");
        let mut single = bulk.clone();
        for (host, a, n) in [
            ("x.tracker.example", 7u64, 2u64),
            ("d1.cdn.example", 3, 0),
            ("pub.example", 0, 11),
            ("x.tracker.example", 1, 4),
        ] {
            bulk.observe_counts(host, a, n);
            for _ in 0..a {
                single.observe(host, true);
            }
            for _ in 0..n {
                single.observe(host, false);
            }
        }
        for d in ["tracker.example", "owner.example", "pub.example"] {
            assert_eq!(bulk.aa_count(d), single.aa_count(d), "{d}");
            assert_eq!(bulk.non_aa_count(d), single.non_aa_count(d), "{d}");
        }
    }

    #[test]
    fn key_memoization_keeps_case_aggregation() {
        let mut l = Labeler::new();
        l.observe("TRACKER.example", true);
        l.observe("tracker.example", true);
        l.observe("cdn.tracker.example", false);
        assert_eq!(l.aa_count("tracker.example"), 2);
        assert_eq!(l.non_aa_count("tracker.example"), 1);
    }

    #[test]
    fn is_aa_host_aggregates() {
        let set = AaDomainSet::from_domains(["tracker.example"]);
        assert!(set.is_aa_host("cdn.tracker.example"));
        assert!(set.is_aa_host("TRACKER.example"));
        assert!(!set.is_aa_host("other.example"));
    }
}
