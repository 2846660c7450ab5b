//! # dnsttl-crawl — TTL crawling and synthetic domain populations
//!
//! §5 of the paper crawls five domain populations — the root zone, the
//! `.nl` ccTLD, and the Alexa / Majestic / Umbrella top-million lists —
//! retrieving NS, A, AAAA, MX, DNSKEY and CNAME records from the child
//! authoritative servers and summarising TTL usage (Table 5,
//! Figure 9), TTL-zero domains (Table 8), bailiwick configuration
//! (Table 9), and `.nl` content categories (Tables 6–7).
//!
//! The real lists and zones are unavailable here, so this crate builds
//! **synthetic populations calibrated to the paper's reported
//! marginals** — the per-list TTL mixtures, shared-hosting ratios,
//! responsiveness rates, CNAME prevalence, and bailiwick splits — and a
//! crawler that walks them exactly as the paper's crawler walked the
//! real ones. The calibration tables live in [`calibration`] with the
//! paper values cited inline, so a reader can audit each number.
//!
//! Scale is configurable: the default scales the million-domain lists
//! down (the *shapes* of the distributions are preserved; absolute
//! counts in Table 5 scale linearly). Each list takes one pass at any
//! scale: [`ListSpec::for_each`] hands every domain, as it is drawn, to
//! [`CrawlSummary::add`], which keeps only the counts the tables read,
//! so no list is ever held in memory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bailiwick;
pub mod calibration;
pub mod content;
pub mod crawler;
pub mod lists;
#[cfg(test)]
mod serve;

pub use bailiwick::BailiwickClass;
pub use content::ContentCategory;
pub use crawler::{CrawlSummary, RecordTypeSummary};
pub use lists::{CrawledDomain, CrawledRecord, ListKind, ListSpec, RecordValue};
