//! The hot types' sizes, pinned (ROADMAP item 20).
//!
//! Every cache entry, every message an exchange fills, every resolver
//! of a paper-scale population and every probe row is one of these,
//! so a field that grows one is paid for hundreds of thousands of
//! times over (`passive_nl` builds 205 k resolvers and holds 1.86 M
//! `RData`s).
//! A change that grows a row re-pins it here and says why in
//! CHANGES.md. The cache slot, private to its crate, is pinned in
//! `crates/resolver/src/cache.rs`. Sizes are those of 64-bit targets.

#![cfg(target_pointer_width = "64")]

use dnsttl::atlas::MeasurementResult;
use dnsttl::resolver::{Provenance, RecursiveResolver};
use dnsttl::wire::{Message, Name, RData, RRset, Record};
use std::mem::size_of;

#[test]
fn the_hot_types_keep_their_pinned_sizes() {
    let sizes = [
        ("Name", size_of::<Name>(), 24),
        // `Soa(SoaData)` is stored inline: 72 of the 80 bytes.
        ("RData", size_of::<RData>(), 80),
        ("Record", size_of::<Record>(), 112),
        ("RRset", size_of::<RRset>(), 56),
        ("Message", size_of::<Message>(), 120),
        ("Provenance", size_of::<Provenance>(), 40),
        // No per-resolver buffer: an exchange reuses the network's one
        // spare message, and the candidate list lives on the stack.
        ("RecursiveResolver", size_of::<RecursiveResolver>(), 480),
        // One per probe query (32 k in fig10): its answer list is a
        // shared slice, not a vector of its own.
        ("MeasurementResult", size_of::<MeasurementResult>(), 112),
    ];
    let moved: Vec<String> = (sizes.iter())
        .filter(|(_, is, pinned)| is != pinned)
        .map(|(ty, is, pinned)| format!("{ty}: {is} bytes, pinned {pinned}"))
        .collect();
    assert!(
        moved.is_empty(),
        "hot types changed size:\n{}",
        moved.join("\n")
    );
}
