//! Seeded, deterministic fault injection for the sockscope crawl pipeline.
//!
//! The paper's real crawl was lossy: unreachable sites, rejected WebSocket
//! handshakes, and truncated connections were part of the measurement
//! (Bashir et al. report per-crawl coverage in §3.3). The synthetic crawl
//! reproduces that loss *deterministically*. A [`FaultProfile`] names the
//! per-mille rates for each failure class plus retry/backoff/timeout knobs;
//! a [`FaultPlan`] derived from `(seed, site_rank, connection_id)` decides
//! — as a pure hash, no RNG state threaded anywhere — which fault, if any,
//! strikes a given connection attempt. Time for backoff, stalls, and page
//! budgets is a [`VirtualClock`] counting abstract ticks, so chaos runs are
//! byte-reproducible across machines, thread counts, and pipelines.
//!
//! Decisions are a function of the *attempt number* too: a connection that
//! is refused on attempt 0 may succeed on attempt 1, which is what gives
//! the crawler's bounded-retry loop something real to do.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// splitmix64-style mixing of a seed and a stream index into one draw.
///
/// This is the same finalizer the crawler uses for per-site seeds, so every
/// layer derives independent deterministic streams the same way.
#[must_use]
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a string, used to turn URLs into connection identifiers.
#[must_use]
pub fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// Channel constants keep the independent decision streams of one plan from
// aliasing each other (fault class vs. rejection status vs. page failure).
const CHAN_DECIDE: u64 = 0x6661_756C_7400_0001; // "fault"
const CHAN_STATUS: u64 = 0x6661_756C_7400_0002;
const CHAN_PAGE: u64 = 0x6661_756C_7400_0003;
const CHAN_HAZARD: u64 = 0x6661_756C_7400_0004;
const CHAN_HAZARD_STEP: u64 = 0x6661_756C_7400_0005;

/// A deterministic clock counting abstract ticks. No wall time anywhere.
///
/// One tick is "one unit of simulated waiting": backoff sleeps, stalled
/// reads, and page budgets are all denominated in ticks, so two runs with
/// the same seed advance their clocks identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VirtualClock {
    now: u64,
}

impl VirtualClock {
    /// A clock at tick zero.
    #[must_use]
    pub fn new() -> VirtualClock {
        VirtualClock { now: 0 }
    }

    /// Current tick.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances the clock by `ticks` (saturating — the clock never wraps).
    pub fn advance(&mut self, ticks: u64) {
        self.now = self.now.saturating_add(ticks);
    }
}

/// Per-mille failure rates plus the retry/backoff/timeout knobs of a run.
///
/// Rates are out of 1000 and are consumed cumulatively in declaration
/// order, so their sum should stay ≤ 1000 (anything beyond is clamped by
/// the draw). All-zero rates make every [`FaultPlan`] decision
/// [`FaultDecision::None`]; callers normalize such profiles away so the
/// zero-fault pipeline stays byte-identical to a run with no profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultProfile {
    /// ‰ of connection attempts refused before any handshake bytes flow.
    pub connect_refused_pm: u16,
    /// ‰ of handshakes answered with a non-101 HTTP status.
    pub handshake_reject_pm: u16,
    /// ‰ of handshakes answered 101 but with a corrupt `Sec-WebSocket-Accept`.
    pub bad_accept_pm: u16,
    /// ‰ of sessions whose final server burst is cut mid-frame (EOF).
    pub truncated_frame_pm: u16,
    /// ‰ of sessions whose final server burst has a corrupted frame header.
    pub malformed_frame_pm: u16,
    /// ‰ of sessions dropped mid-message with no close handshake.
    pub drop_pm: u16,
    /// ‰ of sessions whose reads stall for [`FaultProfile::stall_ticks`].
    pub stall_pm: u16,
    /// ‰ of page fetches that fail outright (site unreachable). The same
    /// rate drives HTTP subresource fetch failures (`Network.loadingFailed`).
    pub page_fail_pm: u16,
    /// Retries after a failed page fetch (attempts = `max_retries + 1`).
    pub max_retries: u32,
    /// Backoff before retry `n` is `backoff_base << n` ticks.
    pub backoff_base: u64,
    /// Virtual-clock budget per page; blowing it marks the page timed out.
    pub page_budget: u64,
    /// How many ticks a stalled read burns before data arrives.
    pub stall_ticks: u64,
    /// Stalls at or beyond this many ticks abort the session instead.
    pub stall_timeout: u64,
    /// ‰ of sites whose visit panics mid-flight ([`SiteHazard::PanicAt`]).
    pub site_panic_pm: u16,
    /// ‰ of sites whose visit never terminates ([`SiteHazard::HangAt`]).
    pub site_hang_pm: u16,
    /// ‰ of sites that allocate without bound ([`SiteHazard::AllocBomb`]).
    pub site_alloc_pm: u16,
    /// Supervisor deadline per site attempt, in visit steps (virtual ticks).
    pub site_deadline: u64,
    /// Supervisor allocation budget per site attempt, in bytes.
    pub site_alloc_budget: u64,
    /// Whole-site retries after a supervised breach (attempts = retries + 1).
    pub site_retries: u32,
}

impl FaultProfile {
    /// All rates zero: the profile that injects nothing.
    #[must_use]
    pub fn none() -> FaultProfile {
        FaultProfile {
            connect_refused_pm: 0,
            handshake_reject_pm: 0,
            bad_accept_pm: 0,
            truncated_frame_pm: 0,
            malformed_frame_pm: 0,
            drop_pm: 0,
            stall_pm: 0,
            page_fail_pm: 0,
            max_retries: 2,
            backoff_base: 8,
            page_budget: 10_000,
            stall_ticks: 40,
            stall_timeout: 100,
            site_panic_pm: 0,
            site_hang_pm: 0,
            site_alloc_pm: 0,
            site_deadline: 512,
            site_alloc_budget: 256 << 20,
            site_retries: 2,
        }
    }

    /// Light chaos: a few percent of connections and pages fail.
    #[must_use]
    pub fn mild() -> FaultProfile {
        FaultProfile {
            connect_refused_pm: 25,
            handshake_reject_pm: 15,
            bad_accept_pm: 5,
            truncated_frame_pm: 15,
            malformed_frame_pm: 10,
            drop_pm: 15,
            stall_pm: 20,
            page_fail_pm: 40,
            ..FaultProfile::none()
        }
    }

    /// Heavy chaos: a large share of everything fails; stalls often abort.
    #[must_use]
    pub fn heavy() -> FaultProfile {
        FaultProfile {
            connect_refused_pm: 120,
            handshake_reject_pm: 80,
            bad_accept_pm: 40,
            truncated_frame_pm: 80,
            malformed_frame_pm: 60,
            drop_pm: 80,
            stall_pm: 100,
            page_fail_pm: 150,
            page_budget: 400,
            stall_ticks: 120,
            ..FaultProfile::none()
        }
    }

    /// Site-level hostility only: ~20% of sites draw a hazard, transport is
    /// clean. This is the supervision chaos workload — without a supervisor
    /// the crawl dies on the first poisoned site; with one it completes and
    /// quarantines exactly the poisoned set.
    #[must_use]
    pub fn poison() -> FaultProfile {
        FaultProfile {
            site_panic_pm: 70,
            site_hang_pm: 70,
            site_alloc_pm: 60,
            ..FaultProfile::none()
        }
    }

    /// Looks a profile up by name (`none`/`zero`, `mild`, `heavy`, `poison`).
    #[must_use]
    pub fn named(name: &str) -> Option<FaultProfile> {
        match name {
            "none" | "zero" => Some(FaultProfile::none()),
            "mild" => Some(FaultProfile::mild()),
            "heavy" => Some(FaultProfile::heavy()),
            "poison" => Some(FaultProfile::poison()),
            _ => None,
        }
    }

    /// `true` when every *transport* rate is zero — the profile can inject
    /// nothing on the wire. Site hazards are deliberately excluded: a
    /// hazard-only profile leaves the transport pipeline byte-identical to a
    /// fault-free run, which is what lets the supervisor prove that the
    /// non-quarantined remainder of a poisoned crawl is unchanged.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.connect_refused_pm == 0
            && self.handshake_reject_pm == 0
            && self.bad_accept_pm == 0
            && self.truncated_frame_pm == 0
            && self.malformed_frame_pm == 0
            && self.drop_pm == 0
            && self.stall_pm == 0
            && self.page_fail_pm == 0
    }

    /// `true` when any site-hazard rate is nonzero — the supervisor has
    /// something to inject. Orthogonal to [`FaultProfile::is_zero`].
    #[must_use]
    pub fn has_hazards(&self) -> bool {
        self.site_panic_pm != 0 || self.site_hang_pm != 0 || self.site_alloc_pm != 0
    }
}

/// What a [`FaultPlan`] decided for one connection attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// No fault: the attempt proceeds normally.
    None,
    /// TCP connect refused; no handshake bytes are exchanged.
    ConnectRefused,
    /// The server answers the upgrade with this non-101 status.
    HandshakeReject {
        /// The HTTP status sent instead of 101.
        status: u16,
    },
    /// The server answers 101 but with a corrupt `Sec-WebSocket-Accept`.
    BadAccept,
    /// The final server burst is cut mid-frame and the socket EOFs.
    TruncatedFrame,
    /// A frame header in the final server burst is corrupted on the wire.
    MalformedFrame,
    /// The socket drops mid-message with no close handshake.
    MidMessageDrop,
    /// Reads stall for [`FaultProfile::stall_ticks`] before data arrives.
    StalledRead,
}

impl FaultDecision {
    /// `true` for anything but [`FaultDecision::None`].
    #[must_use]
    pub fn is_fault(&self) -> bool {
        !matches!(self, FaultDecision::None)
    }

    /// Chrome-style network error text for CDP-style error events.
    #[must_use]
    pub fn error_text(&self) -> Option<&'static str> {
        match self {
            FaultDecision::None => None,
            FaultDecision::ConnectRefused => Some("net::ERR_CONNECTION_REFUSED"),
            FaultDecision::HandshakeReject { .. } => {
                Some("Error during WebSocket handshake: unexpected response code")
            }
            FaultDecision::BadAccept => {
                Some("Error during WebSocket handshake: incorrect Sec-WebSocket-Accept")
            }
            FaultDecision::TruncatedFrame => Some("net::ERR_CONNECTION_CLOSED"),
            FaultDecision::MalformedFrame => Some("Invalid frame header"),
            FaultDecision::MidMessageDrop => Some("net::ERR_CONNECTION_RESET"),
            FaultDecision::StalledRead => Some("net::ERR_TIMED_OUT"),
        }
    }

    /// Short stable key for the failure-accounting taxonomy.
    #[must_use]
    pub fn kind(&self) -> Option<&'static str> {
        match self {
            FaultDecision::None => None,
            FaultDecision::ConnectRefused => Some("connect_refused"),
            FaultDecision::HandshakeReject { .. } => Some("handshake_reject"),
            FaultDecision::BadAccept => Some("bad_accept"),
            FaultDecision::TruncatedFrame => Some("truncated_frame"),
            FaultDecision::MalformedFrame => Some("malformed_frame"),
            FaultDecision::MidMessageDrop => Some("mid_message_drop"),
            FaultDecision::StalledRead => Some("stalled_read"),
        }
    }
}

/// The deterministic fault oracle for one `(seed, site_rank, connection_id)`.
///
/// All methods are pure functions of the constructor inputs plus the
/// attempt number — there is no internal RNG state, so the same plan asked
/// the same question always gives the same answer regardless of call order,
/// thread interleaving, or pipeline shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    state: u64,
}

impl FaultPlan {
    /// Derives the plan for one connection of one site under one run seed.
    #[must_use]
    pub fn new(seed: u64, site_rank: u64, connection_id: u64) -> FaultPlan {
        FaultPlan {
            state: mix(mix(seed, site_rank.rotate_left(17)), connection_id),
        }
    }

    /// Decides the fault (if any) for connection attempt `attempt`.
    #[must_use]
    pub fn decide(&self, profile: &FaultProfile, attempt: u32) -> FaultDecision {
        let draw = mix(self.state, CHAN_DECIDE ^ u64::from(attempt)) % 1000;
        let mut edge = u64::from(profile.connect_refused_pm);
        if draw < edge {
            return FaultDecision::ConnectRefused;
        }
        edge += u64::from(profile.handshake_reject_pm);
        if draw < edge {
            const STATUSES: [u16; 4] = [403, 404, 500, 503];
            let pick = mix(self.state, CHAN_STATUS ^ u64::from(attempt)) as usize;
            return FaultDecision::HandshakeReject {
                status: STATUSES[pick % STATUSES.len()],
            };
        }
        edge += u64::from(profile.bad_accept_pm);
        if draw < edge {
            return FaultDecision::BadAccept;
        }
        edge += u64::from(profile.truncated_frame_pm);
        if draw < edge {
            return FaultDecision::TruncatedFrame;
        }
        edge += u64::from(profile.malformed_frame_pm);
        if draw < edge {
            return FaultDecision::MalformedFrame;
        }
        edge += u64::from(profile.drop_pm);
        if draw < edge {
            return FaultDecision::MidMessageDrop;
        }
        edge += u64::from(profile.stall_pm);
        if draw < edge {
            return FaultDecision::StalledRead;
        }
        FaultDecision::None
    }

    /// Whether page fetch attempt `attempt` fails outright (unreachable).
    ///
    /// Page failure draws from its own channel so it never correlates with
    /// the socket-fault stream of a connection that hashed the same way.
    #[must_use]
    pub fn page_unreachable(&self, profile: &FaultProfile, attempt: u32) -> bool {
        mix(self.state, CHAN_PAGE ^ u64::from(attempt)) % 1000 < u64::from(profile.page_fail_pm)
    }
}

/// A site-level hazard: hostility that attacks the *instrumentation* rather
/// than the wire. Unlike [`FaultDecision`]s, which the pipeline absorbs as
/// measured loss, a hazard kills the visit — only a supervisor (catching the
/// unwind, enforcing the deadline or budget) turns it into accounted loss.
///
/// `step` counts page visits within the site (0 = the homepage), so the
/// hazard fires at a deterministic point of the crawl regardless of worker
/// count or schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteHazard {
    /// The visit panics when page-visit step `step` begins.
    PanicAt {
        /// Page-visit step at which the panic fires.
        step: u64,
    },
    /// The visit stops making progress from step `step` on: the virtual
    /// clock races ahead while no further page completes (a hang, detected
    /// by the supervisor's deadline).
    HangAt {
        /// Page-visit step at which progress stops.
        step: u64,
    },
    /// The visit allocates without bound from step `step` on (detected by
    /// the supervisor's allocation budget).
    AllocBomb {
        /// Page-visit step at which the allocation runaway starts.
        step: u64,
    },
}

impl SiteHazard {
    /// Short stable key for the quarantine taxonomy.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            SiteHazard::PanicAt { .. } => "panic",
            SiteHazard::HangAt { .. } => "hang",
            SiteHazard::AllocBomb { .. } => "alloc_bomb",
        }
    }
}

/// The deterministic hazard oracle for one `(seed, site_rank)`.
///
/// Hostility is a property of the *site*, not the attempt: a real site that
/// crashes the instrumentation does so reproducibly, so the draw is made
/// once per site and the same hazard strikes every supervised retry. (The
/// retry loop exists for transient failures the oracle does not model.)
/// The mixing rotates the rank differently from [`FaultPlan`] and folds in
/// its own channel, so hazard draws never alias transport-fault draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HazardPlan {
    state: u64,
}

impl HazardPlan {
    /// Derives the plan for one site under one run seed.
    #[must_use]
    pub fn new(seed: u64, site_rank: u64) -> HazardPlan {
        HazardPlan {
            state: mix(mix(seed, site_rank.rotate_left(29)), CHAN_HAZARD),
        }
    }

    /// Decides the hazard (if any) this site carries under `profile`.
    ///
    /// Rates are consumed cumulatively like [`FaultPlan::decide`]; the firing
    /// step draws from its own channel and lands in `0..3`, early enough that
    /// every site's crawl reaches it.
    #[must_use]
    pub fn decide(&self, profile: &FaultProfile) -> Option<SiteHazard> {
        let draw = mix(self.state, CHAN_HAZARD) % 1000;
        let step = mix(self.state, CHAN_HAZARD_STEP) % 3;
        let mut edge = u64::from(profile.site_panic_pm);
        if draw < edge {
            return Some(SiteHazard::PanicAt { step });
        }
        edge += u64::from(profile.site_hang_pm);
        if draw < edge {
            return Some(SiteHazard::HangAt { step });
        }
        edge += u64::from(profile.site_alloc_pm);
        if draw < edge {
            return Some(SiteHazard::AllocBomb { step });
        }
        None
    }
}

/// Everything the browser needs to consult the fault oracle for one visit.
#[derive(Debug, Clone)]
pub struct FaultContext {
    /// The active profile (never zero-rate; callers normalize those away).
    pub profile: FaultProfile,
    /// The run-level fault seed.
    pub seed: u64,
    /// Rank of the site being crawled (part of every plan's identity).
    pub site_rank: u64,
    /// Which retry of the current page this visit is (0 = first try).
    pub attempt: u32,
}

impl FaultContext {
    /// The plan for one connection (identified by a URL-derived id).
    #[must_use]
    pub fn plan_for(&self, connection_id: u64) -> FaultPlan {
        FaultPlan::new(self.seed, self.site_rank, connection_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let profile = FaultProfile::heavy();
        for conn in 0..50u64 {
            let a = FaultPlan::new(7, 3, conn);
            let b = FaultPlan::new(7, 3, conn);
            for attempt in 0..4 {
                assert_eq!(a.decide(&profile, attempt), b.decide(&profile, attempt));
                assert_eq!(
                    a.page_unreachable(&profile, attempt),
                    b.page_unreachable(&profile, attempt)
                );
            }
        }
    }

    #[test]
    fn zero_profile_never_faults() {
        let profile = FaultProfile::none();
        assert!(profile.is_zero());
        for conn in 0..500u64 {
            let plan = FaultPlan::new(99, conn % 7, conn);
            assert_eq!(plan.decide(&profile, 0), FaultDecision::None);
            assert!(!plan.page_unreachable(&profile, 0));
        }
    }

    #[test]
    fn heavy_profile_reaches_every_variant() {
        let profile = FaultProfile::heavy();
        let mut seen = std::collections::BTreeSet::new();
        for conn in 0..20_000u64 {
            let d = FaultPlan::new(1, 1, conn).decide(&profile, 0);
            if let Some(kind) = d.kind() {
                seen.insert(kind);
            }
        }
        for kind in [
            "connect_refused",
            "handshake_reject",
            "bad_accept",
            "truncated_frame",
            "malformed_frame",
            "mid_message_drop",
            "stalled_read",
        ] {
            assert!(seen.contains(kind), "never drew {kind}");
        }
    }

    #[test]
    fn rates_are_approximately_honoured() {
        // 120‰ connect-refused on the heavy profile: expect roughly 12%
        // of 20k independent plans, within a generous tolerance.
        let profile = FaultProfile::heavy();
        let refused = (0..20_000u64)
            .filter(|&c| {
                FaultPlan::new(42, 5, c).decide(&profile, 0) == FaultDecision::ConnectRefused
            })
            .count();
        assert!((1800..3000).contains(&refused), "refused = {refused}");
    }

    #[test]
    fn attempts_draw_independent_streams() {
        // With heavy faults, a refused attempt 0 must sometimes be followed
        // by a clean attempt 1 — otherwise retry could never help.
        let profile = FaultProfile::heavy();
        let recovered = (0..5_000u64)
            .filter(|&c| {
                let plan = FaultPlan::new(11, 2, c);
                plan.decide(&profile, 0).is_fault() && !plan.decide(&profile, 1).is_fault()
            })
            .count();
        assert!(recovered > 0);
    }

    #[test]
    fn named_profiles_resolve() {
        assert_eq!(FaultProfile::named("none"), Some(FaultProfile::none()));
        assert_eq!(FaultProfile::named("zero"), Some(FaultProfile::none()));
        assert_eq!(FaultProfile::named("mild"), Some(FaultProfile::mild()));
        assert_eq!(FaultProfile::named("heavy"), Some(FaultProfile::heavy()));
        assert_eq!(FaultProfile::named("bogus"), None);
        assert!(!FaultProfile::mild().is_zero());
    }

    #[test]
    fn virtual_clock_advances_and_saturates() {
        let mut clock = VirtualClock::new();
        assert_eq!(clock.now(), 0);
        clock.advance(10);
        clock.advance(5);
        assert_eq!(clock.now(), 15);
        clock.advance(u64::MAX);
        assert_eq!(clock.now(), u64::MAX);
    }

    #[test]
    fn handshake_reject_status_is_plausible() {
        let profile = FaultProfile {
            handshake_reject_pm: 1000,
            ..FaultProfile::none()
        };
        for conn in 0..200u64 {
            match FaultPlan::new(3, 1, conn).decide(&profile, 0) {
                FaultDecision::HandshakeReject { status } => {
                    assert!(matches!(status, 403 | 404 | 500 | 503));
                }
                other => panic!("expected rejection, got {other:?}"),
            }
        }
    }

    #[test]
    fn hazard_draws_are_deterministic_and_per_site() {
        let profile = FaultProfile::poison();
        for rank in 0..500u64 {
            let a = HazardPlan::new(0xD15C, rank).decide(&profile);
            let b = HazardPlan::new(0xD15C, rank).decide(&profile);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn poison_profile_is_transport_clean_but_hazardous() {
        let poison = FaultProfile::poison();
        assert!(poison.is_zero(), "poison must inject nothing on the wire");
        assert!(poison.has_hazards());
        assert!(!FaultProfile::none().has_hazards());
        assert!(!FaultProfile::heavy().has_hazards());
        assert_eq!(FaultProfile::named("poison"), Some(poison));
    }

    #[test]
    fn poison_rate_is_approximately_one_in_five() {
        let profile = FaultProfile::poison();
        let mut kinds = std::collections::BTreeMap::new();
        let hit = (0..20_000u64)
            .filter_map(|rank| HazardPlan::new(9, rank).decide(&profile))
            .inspect(|h| {
                *kinds.entry(h.kind()).or_insert(0u64) += 1;
                assert!(matches!(
                    h,
                    SiteHazard::PanicAt { step }
                        | SiteHazard::HangAt { step }
                        | SiteHazard::AllocBomb { step } if *step < 3
                ));
            })
            .count();
        assert!((3200..4800).contains(&hit), "hazarded = {hit}");
        for kind in ["panic", "hang", "alloc_bomb"] {
            assert!(kinds.contains_key(kind), "never drew {kind}");
        }
    }

    #[test]
    fn hazard_stream_does_not_alias_fault_stream() {
        // Same seed, same rank: the site-hazard draw and the transport draw
        // for connection 0 must be independent streams. If they aliased, a
        // poisoned site would also always carry the same transport fault.
        let both = FaultProfile {
            connect_refused_pm: 200,
            site_panic_pm: 200,
            ..FaultProfile::none()
        };
        let mut agree = 0usize;
        for rank in 0..2_000u64 {
            let hazarded = HazardPlan::new(7, rank).decide(&both).is_some();
            let faulted = FaultPlan::new(7, rank, 0).decide(&both, 0).is_fault();
            if hazarded == faulted {
                agree += 1;
            }
        }
        // Independent 20% streams agree ~68% of the time; aliased streams
        // would agree 100%.
        assert!(agree < 1800, "streams look aliased: agree = {agree}");
    }

    #[test]
    fn error_text_matches_taxonomy() {
        assert_eq!(FaultDecision::None.error_text(), None);
        assert_eq!(FaultDecision::None.kind(), None);
        let all = [
            FaultDecision::ConnectRefused,
            FaultDecision::HandshakeReject { status: 403 },
            FaultDecision::BadAccept,
            FaultDecision::TruncatedFrame,
            FaultDecision::MalformedFrame,
            FaultDecision::MidMessageDrop,
            FaultDecision::StalledRead,
        ];
        for d in all {
            assert!(d.is_fault());
            assert!(d.error_text().is_some());
            assert!(d.kind().is_some());
        }
    }
}
