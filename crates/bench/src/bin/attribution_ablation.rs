//! Ablation A4: inclusion trees vs `Referer`-based attribution.
//!
//! §3.1 argues that HTTP-Referer-based attribution is misleading because
//! "the Referer header is set to the first-party domain, even if the
//! resource making the request originated from a third-party", and builds
//! inclusion trees instead. This ablation quantifies what the cheaper
//! method would have cost: for every WebSocket in a crawl, compare
//!
//! * **inclusion attribution** — the nearest ancestor script's domain
//!   (what the paper reports in Tables 2 and 4), against
//! * **Referer attribution** — the page's own domain (what the Referer
//!   header of the handshake carries).
//!
//! Sockets opened by genuinely first-party code agree under both; every
//! third-party-script socket is misattributed to the publisher under
//! Referer semantics — and with it, the entire A&A-initiator analysis
//! (Table 1's columns 3–4) collapses.
//!
//! Takes `sockscope run`'s study flags (default `--sites 4000`).

use sockscope::Study;

const USAGE: &str = "attribution_ablation [--sites N] [--seed HEX] [--threads N] \
                     [--workers N] [--queue-depth N] [--faults PROFILE] [--eras N]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = sockscope_bench::study_config_or_exit(&args, 4_000, USAGE);
    eprintln!(
        "[sockscope] attribution ablation: {} sites x {} crawls",
        config.n_sites,
        config.timeline.len()
    );
    let study = Study::run(&config);

    let mut total = 0usize;
    let mut misattributed = 0usize;
    let mut aa_lost = 0usize; // A&A-initiated sockets that Referer calls first-party
    let mut referer_unique_initiators = std::collections::BTreeSet::new();
    let mut inclusion_unique_initiators = std::collections::BTreeSet::new();

    for idx in 0..study.crawl_count() {
        for c in study.classified(idx) {
            total += 1;
            let referer_initiator = study
                .aa
                .aggregation_key(&format!("www.{}", c.obs.site_domain));
            inclusion_unique_initiators.insert(c.initiator.clone());
            referer_unique_initiators.insert(referer_initiator.clone());
            if c.initiator != referer_initiator {
                misattributed += 1;
                if c.aa_initiated {
                    aa_lost += 1;
                }
            }
        }
    }

    let pct = |n: usize| n as f64 / total.max(1) as f64 * 100.0;
    println!("Attribution ablation: inclusion trees vs Referer (§3.1)\n");
    println!("sockets observed:                          {total}");
    println!(
        "misattributed under Referer semantics:     {misattributed} ({:.1}%)",
        pct(misattributed)
    );
    println!(
        "A&A-initiated sockets relabeled first-party: {aa_lost} ({:.1}%)",
        pct(aa_lost)
    );
    println!(
        "unique initiator domains — inclusion: {}   Referer: {} (all publishers)",
        inclusion_unique_initiators.len(),
        referer_unique_initiators.len()
    );
    println!();
    println!("Under Referer attribution every third-party-script socket is");
    println!("credited to the publisher: the A&A-initiator columns of Table 1");
    println!("would read ~0%, and Tables 2/4 would list only publisher domains.");
    println!("This is exactly why the methodology builds inclusion trees.");

    assert!(
        pct(misattributed) > 30.0,
        "third-party scripts should dominate socket initiation"
    );
    assert!(aa_lost > 0, "A&A attributions must be lost under Referer");
}
