//! The third-party company ecosystem.
//!
//! Every company the paper names gets an archetype with the behaviour the
//! paper attributes to it; a synthetic long tail of small ad networks
//! supplies the ~70 A&A initiator domains that vanished after the patch
//! (Table 1's 75→23 collapse).

/// Business model of a company — determines its script behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Live-chat widget (Zopim, Intercom, Smartsupp, Velaro, ClickDesk).
    /// Legitimate, WebSocket-dependent, unchanged by the patch (§4.2).
    LiveChat,
    /// Session replay (Hotjar, Inspectlet, LuckyOrange, TruConversion,
    /// SimpleHeatmaps, FreshRelevance). The DOM-exfiltration offenders.
    SessionReplay,
    /// Fingerprint collector — 33across: receives fingerprinting bundles
    /// from its own tag *and* from major ad platforms (§4.3).
    FingerprintCollector,
    /// Major ad/tracking platform (DoubleClick, Facebook, Google,
    /// GoogleSyndication, AppNexus, AddThis, ShareThis, Twitter): used
    /// WebSockets pre-patch, quit afterwards.
    AdPlatformMajor,
    /// Long-tail ad network: pre-patch WebSocket user, gone post-patch.
    LongTailAdNetwork,
    /// Realtime infrastructure (Pusher, Realtime.co) — receivers for other
    /// companies' sockets.
    RealtimeInfra,
    /// Content-recommendation network serving ad URLs over WS (Lockerdome).
    ContentRec,
    /// Comment platform that is also an ad network (Disqus).
    Comments,
    /// Live-traffic widget (Feedjit) — receives sockets from blogs.
    TrafficWidget,
    /// Real-time publishing accelerator (WebSpectator) — the most prolific
    /// initiator pair in Table 4 (webspectator → realtime).
    RealtimePublisher,
    /// Non-A&A WebSocket users: CDNs, sports tickers, games, video
    /// (espncdn, h-cdn, slither.io, YouTube, Cloudflare, CDN77,
    /// googleapis).
    NonAaRealtime,
}

/// One company in the ecosystem.
#[derive(Debug, Clone)]
pub struct Company {
    /// Human-readable name.
    pub name: String,
    /// Second-level domain (the aggregation key everything reports on).
    pub domain: String,
    /// Hostname its scripts are served from.
    pub script_host: String,
    /// Hostname its WebSocket endpoint lives on (may be a CDN host).
    pub ws_host: String,
    /// Behavioural archetype.
    pub role: Role,
    /// Listed by the generated EasyList/EasyPrivacy rules.
    pub aa_listed: bool,
    /// Kept using WebSockets after the Chrome 58 patch.
    pub survives_patch: bool,
}

impl Company {
    fn named(
        name: &str,
        domain: &str,
        script_host: &str,
        ws_host: &str,
        role: Role,
        aa_listed: bool,
        survives_patch: bool,
    ) -> Company {
        Company {
            name: name.to_string(),
            domain: domain.to_string(),
            script_host: script_host.to_string(),
            ws_host: ws_host.to_string(),
            role,
            aa_listed,
            survives_patch,
        }
    }

    /// Absolute URL of this company's embed script.
    pub fn script_url(&self) -> String {
        format!("https://{}/{}.js", self.script_host, self.name)
    }

    /// Absolute URL of this company's WebSocket endpoint.
    pub fn ws_url(&self) -> String {
        format!("wss://{}/socket", self.ws_host)
    }
}

/// Number of synthetic long-tail ad networks.
pub const LONG_TAIL_COUNT: usize = 78;

/// Number of synthetic non-A&A realtime receiver endpoints (the study saw
/// 382 unique third-party receiver domains in total, only 20 of them A&A).
pub const NON_AA_RECEIVER_POOL: usize = 360;

/// The full catalog for one universe.
#[derive(Debug, Clone)]
pub struct Catalog {
    companies: Vec<Company>,
}

impl Catalog {
    /// Builds the catalog (independent of seed — the ecosystem is fixed;
    /// per-site adoption is what varies).
    pub fn build() -> Catalog {
        let mut companies = Vec::new();
        use Role::*;

        // ---- Live chat (receivers with hundreds of benign initiators). ----
        companies.push(Company::named(
            "intercom",
            "intercom.io",
            "widget.intercom.io",
            "nexus-websocket-a.intercom.io",
            LiveChat,
            true,
            true,
        ));
        companies.push(Company::named(
            "zopim",
            "zopim.com",
            "v2.zopim.com",
            "ws.zopim.com",
            LiveChat,
            true,
            true,
        ));
        companies.push(Company::named(
            "smartsupp",
            "smartsupp.com",
            "www.smartsuppchat.com",
            "websocket.smartsupp.com",
            LiveChat,
            true,
            true,
        ));
        companies.push(Company::named(
            "velaro",
            "velaro.com",
            "app.velaro.com",
            "ws.velaro.com",
            LiveChat,
            true,
            true,
        ));
        companies.push(Company::named(
            "clickdesk",
            "clickdesk.com",
            "my.clickdesk.com",
            "ws.pusherapp.com",
            LiveChat,
            true,
            true,
        ));

        // ---- Session replay. ----
        companies.push(Company::named(
            "hotjar",
            "hotjar.com",
            "static.hotjar.com",
            "ws.hotjar.com",
            SessionReplay,
            true,
            true,
        ));
        companies.push(Company::named(
            "inspectlet",
            "inspectlet.com",
            "cdn.inspectlet.com",
            "ws.inspectlet.com",
            SessionReplay,
            true,
            true,
        ));
        // LuckyOrange hides behind Cloudfront — both script and socket.
        // §3.2's manual mapping: d10lpsik1i8c69.cloudfront.net → LuckyOrange.
        companies.push(Company::named(
            "luckyorange",
            "luckyorange.com",
            "d10lpsik1i8c69.cloudfront.net",
            "d10lpsik1i8c69.cloudfront.net",
            SessionReplay,
            true,
            true,
        ));
        companies.push(Company::named(
            "truconversion",
            "truconversion.com",
            "app.truconversion.com",
            "ws.truconversion.com",
            SessionReplay,
            true,
            true,
        ));
        companies.push(Company::named(
            "simpleheatmaps",
            "simpleheatmaps.com",
            "cdn.simpleheatmaps.com",
            "ws.simpleheatmaps.com",
            SessionReplay,
            true,
            true,
        ));
        companies.push(Company::named(
            "freshrelevance",
            "freshrelevance.com",
            "d81mfvml8p5ml.cloudfront.net",
            "ws.freshrelevance.com",
            SessionReplay,
            true,
            true,
        ));

        // ---- Fingerprint collector. ----
        companies.push(Company::named(
            "33across",
            "33across.com",
            "cdn.33across.com",
            "apx.33across.com",
            FingerprintCollector,
            true,
            true,
        ));

        // ---- Major ad platforms (pre-patch WebSocket users). ----
        for (name, domain, script, ws) in [
            (
                "doubleclick",
                "doubleclick.net",
                "stats.g.doubleclick.net",
                "rt.doubleclick.net",
            ),
            (
                "facebook",
                "facebook.com",
                "connect.facebook.net",
                "edge-chat.facebook.com",
            ),
            (
                "google",
                "google.com",
                "apis.google.com",
                "signaler-pa.google.com",
            ),
            (
                "googlesyndication",
                "googlesyndication.com",
                "pagead2.googlesyndication.com",
                "rt.googlesyndication.com",
            ),
            ("adnxs", "adnxs.com", "acdn.adnxs.com", "rt.adnxs.com"),
            ("addthis", "addthis.com", "s7.addthis.com", "rt.addthis.com"),
            (
                "sharethis",
                "sharethis.com",
                "w.sharethis.com",
                "rt.sharethis.com",
            ),
            (
                "twitter",
                "twitter.com",
                "platform.twitter.com",
                "rt.twitter.com",
            ),
        ] {
            companies.push(Company::named(
                name,
                domain,
                script,
                ws,
                AdPlatformMajor,
                true,
                false,
            ));
        }

        // ---- Realtime infrastructure. ----
        companies.push(Company::named(
            "pusher",
            "pusher.com",
            "js.pusher.com",
            "ws.pusherapp.com",
            RealtimeInfra,
            true,
            true,
        ));
        companies.push(Company::named(
            "realtime",
            "realtime.co",
            "cdn.realtime.co",
            "ortc-developers.realtime.co",
            RealtimeInfra,
            true,
            true,
        ));

        // ---- Content recommendation / comments / widgets. ----
        companies.push(Company::named(
            "lockerdome",
            "lockerdome.com",
            "cdn2.lockerdome.com",
            "api.lockerdome.com",
            ContentRec,
            true,
            true,
        ));
        companies.push(Company::named(
            "disqus",
            "disqus.com",
            "a.disquscdn.com",
            "realtime.services.disqus.com",
            Comments,
            true,
            true,
        ));
        companies.push(Company::named(
            "feedjit",
            "feedjit.com",
            "static.feedjit.com",
            "ws.feedjit.com",
            TrafficWidget,
            true,
            true,
        ));
        companies.push(Company::named(
            "webspectator",
            "webspectator.com",
            "cdn.webspectator.com",
            "ortc-developers.realtime.co",
            RealtimePublisher,
            true,
            true,
        ));

        // ---- Non-A&A realtime users. ----
        for (name, domain, script, ws) in [
            (
                "espncdn",
                "espncdn.com",
                "a.espncdn.com",
                "livescore-ws.espncdn.com",
            ),
            ("h-cdn", "h-cdn.com", "static.h-cdn.com", "ws.h-cdn.com"),
            ("slither", "slither.io", "slither.io", "ws.slither.io"),
            (
                "youtube",
                "youtube.com",
                "s.ytimg.com",
                "livechat-ws.youtube.com",
            ),
            (
                "googleapis",
                "googleapis.com",
                "ajax.googleapis.com",
                "ws.googleapis.com",
            ),
            (
                "cloudflare",
                "cloudflare.com",
                "cdnjs.cloudflare.com",
                "ws.cloudflare.com",
            ),
            ("cdn77", "cdn77.com", "cdn.cdn77.org", "ws.cdn77.com"),
            (
                "blogger",
                "blogger.com",
                "www.blogger.com",
                "ws.blogger.com",
            ),
            (
                "sportingindex",
                "sportingindex.com",
                "static.sportingindex.com",
                "push.sportingindex.com",
            ),
        ] {
            companies.push(Company::named(
                name,
                domain,
                script,
                ws,
                NonAaRealtime,
                false,
                true,
            ));
        }

        // ---- Long-tail ad networks (mostly pre-patch only; a handful of
        // holdouts kept initiating sockets after the patch, which is why
        // Table 1's post-patch initiator counts are ~20, not ~16). ----
        for k in 0..LONG_TAIL_COUNT {
            let name = format!("adnet{k:02}");
            let domain = format!("adnet{k:02}-media.com");
            companies.push(Company {
                name: name.clone(),
                domain: domain.clone(),
                script_host: format!("cdn.{domain}"),
                ws_host: format!("rt.{domain}"),
                role: LongTailAdNetwork,
                aa_listed: true,
                survives_patch: k % 13 == 5,
            });
        }

        Catalog { companies }
    }

    /// All companies.
    pub fn all(&self) -> &[Company] {
        &self.companies
    }

    /// Finds a company by name.
    pub fn by_name(&self, name: &str) -> Option<&Company> {
        self.companies.iter().find(|c| c.name == name)
    }

    /// Companies with a given role.
    pub fn with_role(&self, role: Role) -> Vec<&Company> {
        self.companies.iter().filter(|c| c.role == role).collect()
    }

    /// Resolves the company owning a hostname (script or WS host, or any
    /// subdomain of its domain).
    pub fn by_host(&self, host: &str) -> Option<&Company> {
        let lowered;
        let host = if host.bytes().any(|b| b.is_ascii_uppercase()) {
            lowered = host.to_ascii_lowercase();
            &lowered
        } else {
            host
        };
        self.companies.iter().find(|c| {
            host == c.script_host
                || host == c.ws_host
                || host
                    .strip_suffix(c.domain.as_str())
                    .is_some_and(|head| head.is_empty() || head.ends_with('.'))
        })
    }

    /// The paper's 13 manually-mapped Cloudfront hosts, as
    /// `(fully-qualified host, owning company domain)` pairs. Two are real
    /// tenants of the catalog; the rest pad the table to 13 like §3.2.
    pub fn cloudfront_overrides(&self) -> Vec<(String, String)> {
        let mut v = vec![
            (
                "d10lpsik1i8c69.cloudfront.net".to_string(),
                "luckyorange.com".to_string(),
            ),
            (
                "d81mfvml8p5ml.cloudfront.net".to_string(),
                "freshrelevance.com".to_string(),
            ),
        ];
        for k in 0..11 {
            v.push((
                format!("dkpklk99llpj{k}.cloudfront.net"),
                format!("adnet{k:02}-media.com"),
            ));
        }
        v
    }

    /// All manual host → company mappings: the 13 Cloudfront hosts plus the
    /// facebook.net → facebook.com fold (Facebook serves its SDK from
    /// `connect.facebook.net`; measurement studies attribute both domains
    /// to the same company).
    pub fn manual_overrides(&self) -> Vec<(String, String)> {
        let mut v = self.cloudfront_overrides();
        v.push((
            "connect.facebook.net".to_string(),
            "facebook.com".to_string(),
        ));
        // Infrastructure / CDN identities folded into their companies, as
        // the study's manual mapping step did.
        v.push(("ws.pusherapp.com".to_string(), "pusher.com".to_string()));
        v.push(("a.disquscdn.com".to_string(), "disqus.com".to_string()));
        v.push((
            "www.smartsuppchat.com".to_string(),
            "smartsupp.com".to_string(),
        ));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_expected_size() {
        let c = Catalog::build();
        // 5 chat + 6 replay + 1 fp + 8 majors + 2 infra + 4 widgets + 9
        // non-A&A + long tail.
        assert_eq!(c.all().len(), 35 + LONG_TAIL_COUNT);
    }

    #[test]
    fn aa_initiator_pool_supports_table1_collapse() {
        let c = Catalog::build();
        let aa_ws_users = c.all().iter().filter(|x| x.aa_listed).count();
        // Enough A&A companies to observe ~75 unique initiator domains
        // pre-patch…
        assert!(aa_ws_users >= 90, "{aa_ws_users}");
        // …and few enough survivors for ~20 post-patch.
        let survivors = c
            .all()
            .iter()
            .filter(|x| x.aa_listed && x.survives_patch)
            .count();
        assert!((15..=26).contains(&survivors), "{survivors}");
    }

    #[test]
    fn majors_quit_after_patch() {
        let c = Catalog::build();
        for name in ["doubleclick", "facebook", "addthis", "adnxs"] {
            let comp = c.by_name(name).unwrap();
            assert!(!comp.survives_patch, "{name}");
            assert!(comp.aa_listed);
        }
        for name in ["zopim", "intercom", "hotjar", "disqus"] {
            assert!(c.by_name(name).unwrap().survives_patch, "{name}");
        }
    }

    #[test]
    fn host_resolution() {
        let c = Catalog::build();
        assert_eq!(c.by_host("static.hotjar.com").unwrap().name, "hotjar");
        assert_eq!(c.by_host("x.doubleclick.net").unwrap().name, "doubleclick");
        assert_eq!(
            c.by_host("d10lpsik1i8c69.cloudfront.net").unwrap().name,
            "luckyorange"
        );
        assert!(c.by_host("unrelated.example").is_none());
        assert_eq!(c.by_host("X.DoubleClick.NET").unwrap().name, "doubleclick");
        assert_eq!(c.by_host("doubleclick.net").unwrap().name, "doubleclick");
        assert!(c.by_host("notdoubleclick.net").is_none());
        assert!(c.by_host("doubleclick.net.evil.example").is_none());
    }

    #[test]
    fn thirteen_cloudfront_overrides() {
        let c = Catalog::build();
        assert_eq!(c.cloudfront_overrides().len(), 13);
    }

    #[test]
    fn luckyorange_socket_rides_cloudfront() {
        let c = Catalog::build();
        let lo = c.by_name("luckyorange").unwrap();
        assert!(lo.ws_url().contains("cloudfront.net"));
    }
}
