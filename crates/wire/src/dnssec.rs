//! DNSSEC primitives (structural).
//!
//! §2 of the paper: "DNSSEC confirms that authoritative TTL values must
//! be enclosed in and verified by the signature record, which must come
//! from the child zone" — a validating resolver is *structurally
//! child-centric*, because glue is never signed. These primitives bind
//! exactly what real RRSIGs bind — the RRset's owner, type, **original
//! TTL**, and data, under the signer's name — with a deterministic
//! 64-bit digest standing in for cryptography (a simulation has
//! tampering to detect, not adversaries to outcompute).
//!
//! Zone-level signing (which RRsets of a zone get signatures) lives in
//! `dnsttl-auth`; resolver-side verification uses [`verify_rrset`].

use crate::{fnv1a, Name, RData, RRset, Record, RecordType, RrsigData, Ttl, FNV_OFFSET};
use std::sync::Arc;

/// The algorithm number stamped on synthetic signatures
/// (13 = ECDSA-P256-SHA256, the modern default).
pub const SYNTH_ALGORITHM: u8 = 13;

/// Computes the deterministic digest an RRSIG carries, binding owner,
/// type, original TTL, signer, and every rdata (order-independent,
/// because RRsets are unordered).
pub(crate) fn rrset_digest(
    name: &Name,
    rtype: RecordType,
    original_ttl: Ttl,
    signer: &Name,
    rdatas: &[RData],
) -> u64 {
    // FNV-1a over a canonical rendering; order-independence via
    // XOR-combining per-rdata digests.
    let field = |h: &mut u64, s: &str| *h = fnv1a(fnv1a(*h, s.as_bytes()), &[0xFF]);
    let mut h = FNV_OFFSET;
    field(&mut h, &name.canonical());
    field(&mut h, &rtype.to_string());
    field(&mut h, &original_ttl.as_secs().to_string());
    field(&mut h, &signer.canonical());
    let mut combined: u64 = 0;
    for rd in rdatas {
        let mut rh: u64 = h;
        field(&mut rh, &rd.to_string());
        combined ^= rh;
    }
    combined
}

/// Builds the RRSIG record covering `rrset`, signed by `signer`.
pub fn sign_rrset(rrset: &RRset, signer: &Name) -> Record {
    let digest = rrset_digest(&rrset.name, rrset.rtype, rrset.ttl, signer, &rrset.rdatas);
    Record::new(
        rrset.name.clone(),
        rrset.ttl, // RRSIG TTL equals the covered RRset's TTL (RFC 4034 §3)
        RData::Rrsig(Arc::new(RrsigData {
            type_covered: rrset.rtype,
            algorithm: SYNTH_ALGORITHM,
            original_ttl: rrset.ttl.as_secs(),
            signer: signer.clone(),
            signature: digest.to_be_bytes().to_vec(),
        })),
    )
}

/// Verifies an RRSIG's data against the RRset it claims to cover, the
/// set `rtype` at `name` holding `rdatas`.
///
/// Verification recomputes the digest using the RRSIG's **original**
/// TTL, so a decremented-but-authentic RRset verifies while tampered
/// rdata or a stretched TTL does not (RFC 4035 §5.3.3 requires the
/// validator to clamp the cache TTL to `original_ttl`). The digest
/// binds the owner, so a signature made for another owner fails too.
pub fn verify_rrset(name: &Name, rtype: RecordType, rdatas: &[RData], rrsig: &RData) -> bool {
    let RData::Rrsig(sig) = rrsig else {
        return false;
    };
    if sig.type_covered != rtype || sig.algorithm != SYNTH_ALGORITHM {
        return false;
    }
    let original_ttl = Ttl::from_secs(sig.original_ttl);
    let digest = rrset_digest(name, rtype, original_ttl, &sig.signer, rdatas);
    sig.signature.as_slice() == digest.to_be_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn sample_rrset() -> RRset {
        RRset::new(
            n("a.nic.uy"),
            RecordType::A,
            Ttl::from_secs(120),
            RData::A("200.40.241.1".parse().unwrap()),
        )
    }

    #[test]
    fn sign_then_verify() {
        let rrset = sample_rrset();
        let sig = sign_rrset(&rrset, &n("uy"));
        assert!(verify_rrset(
            &rrset.name,
            rrset.rtype,
            &rrset.rdatas,
            &sig.rdata
        ));
    }

    #[test]
    fn tampered_rdata_fails() {
        let rrset = sample_rrset();
        let sig = sign_rrset(&rrset, &n("uy"));
        let forged = vec![RData::A("198.51.100.66".parse().unwrap())];
        assert!(!verify_rrset(&rrset.name, rrset.rtype, &forged, &sig.rdata));
    }

    #[test]
    fn stretched_original_ttl_fails() {
        let rrset = sample_rrset();
        let mut sig = sign_rrset(&rrset, &n("uy"));
        if let RData::Rrsig(data) = &mut sig.rdata {
            Arc::make_mut(data).original_ttl = 172_800;
        }
        assert!(!verify_rrset(
            &rrset.name,
            rrset.rtype,
            &rrset.rdatas,
            &sig.rdata
        ));
    }

    #[test]
    fn wrong_owner_type_or_record_kind_fails() {
        let rrset = sample_rrset();
        let sig = sign_rrset(&rrset, &n("uy"));
        assert!(!verify_rrset(
            &n("b.nic.uy"),
            rrset.rtype,
            &rrset.rdatas,
            &sig.rdata
        ));
        assert!(!verify_rrset(
            &rrset.name,
            RecordType::AAAA,
            &rrset.rdatas,
            &sig.rdata
        ));
        let not_a_sig = Record::new(n("a.nic.uy"), Ttl::HOUR, RData::Txt("x".into()));
        assert!(!verify_rrset(
            &rrset.name,
            rrset.rtype,
            &rrset.rdatas,
            &not_a_sig.rdata
        ));
    }

    #[test]
    fn digest_is_order_independent() {
        let rd1 = vec![
            RData::A("192.0.2.1".parse().unwrap()),
            RData::A("192.0.2.2".parse().unwrap()),
        ];
        let rd2 = vec![rd1[1].clone(), rd1[0].clone()];
        let d1 = rrset_digest(
            &n("x.example"),
            RecordType::A,
            Ttl::HOUR,
            &n("example"),
            &rd1,
        );
        let d2 = rrset_digest(
            &n("x.example"),
            RecordType::A,
            Ttl::HOUR,
            &n("example"),
            &rd2,
        );
        assert_eq!(d1, d2);
    }

    #[test]
    fn signer_is_bound() {
        let rrset = sample_rrset();
        let sig_child = sign_rrset(&rrset, &n("uy"));
        let sig_other = sign_rrset(&rrset, &n("evil.example"));
        assert_ne!(sig_child.rdata, sig_other.rdata);
    }
}
