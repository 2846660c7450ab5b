//! # dnsttl-auth — authoritative DNS server
//!
//! The authoritative side of the simulated DNS: [`Zone`] stores records
//! and delegations, [`AuthoritativeServer`] answers queries over one or
//! more zones following the RFC 1034 §4.3.2 algorithm:
//!
//! * authoritative answers (AA bit set) for names the zone owns,
//!   including CNAME chasing within the zone;
//! * **referrals** at delegation cuts — NS records in the authority
//!   section carrying the *parent's* TTL, with in-bailiwick glue
//!   addresses in the additional section. This is exactly the machinery
//!   that lets the paper's parent/child TTL divergence exist: the same
//!   `a.nic.cl` A record is served with one TTL as glue here and another
//!   TTL as an answer by the child (Table 1);
//! * NXDOMAIN / NODATA negative answers with the zone SOA in the
//!   authority section (the RFC 2308 negative-caching contract);
//! * RFC 4592 wildcards, which the §4 and §6.2 experiment servers
//!   answer every probe's own name from;
//! * dynamic **renumbering** ([`Zone::replace_address`]) used by the §4
//!   bailiwick experiments, which change a name server's address
//!   mid-experiment and watch which resolvers notice;
//! * a per-server query log for passive analysis, mirroring the paper's
//!   ENTRADA captures at `.nl` (§3.4): each [`LoggedQuery`] waits only
//!   until its reader drains it ([`AuthoritativeServer::drain_log`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dnssec;
pub mod master;
pub mod secondary;
pub mod server;
pub mod zone;

pub use dnssec::{sign_zone, verify_rrset};
pub use master::{
    parse_records, parse_zone, render_records, render_zone, MasterError, MasterErrorKind,
};
pub use secondary::SecondaryServer;
pub use server::{AuthoritativeServer, LoggedQuery};
pub use zone::{Zone, ZoneBuilder};
