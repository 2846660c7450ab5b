//! Property tests for the wire codec, driven by a seeded deterministic
//! generator: arbitrary well-formed messages must round-trip exactly,
//! and the decoder must never panic on arbitrary bytes.
//!
//! (These were proptest suites in an earlier revision; the build
//! environment is offline, so they now run on a local xorshift
//! generator with fixed seeds — same invariants, reproducible cases.)

use dnsttl_wire::{
    decode_message, encode_message, encoded_len, fits, Header, Message, Name, Opcode, Question,
    RData, RRset, Rcode, RecordType, RrsigData, SoaData, Ttl, WireError,
};
use std::sync::Arc;

/// Minimal deterministic RNG (xorshift64*), independent of any crate.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    fn byte(&mut self) -> u8 {
        self.next_u64() as u8
    }

    fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

const LABEL_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
const LABEL_INNER: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";

fn gen_label(rng: &mut Rng) -> String {
    let mut s = String::new();
    s.push(LABEL_CHARS[rng.below(LABEL_CHARS.len() as u64) as usize] as char);
    for _ in 0..rng.below(15) {
        s.push(LABEL_INNER[rng.below(LABEL_INNER.len() as u64) as usize] as char);
    }
    s
}

fn gen_name(rng: &mut Rng) -> Name {
    let labels: Vec<String> = (0..rng.below(5)).map(|_| gen_label(rng)).collect();
    Name::from_labels(labels).expect("labels within limits")
}

fn gen_ttl(rng: &mut Rng) -> Ttl {
    Ttl::from_secs((rng.next_u64() as u32) & 0x7FFF_FFFF)
}

/// Data of one of the nine kinds the generator draws (`kind` below 9).
fn gen_rdata(rng: &mut Rng, kind: u64) -> RData {
    match kind {
        0 => RData::A([rng.byte(), rng.byte(), rng.byte(), rng.byte()].into()),
        1 => {
            let mut o = [0u8; 16];
            o.fill_with(|| rng.byte());
            RData::Aaaa(o.into())
        }
        2 => RData::Ns(gen_name(rng)),
        3 => RData::Cname(gen_name(rng)),
        4 => RData::Soa(Arc::new(SoaData {
            mname: gen_name(rng),
            rname: gen_name(rng),
            serial: rng.next_u64() as u32,
            refresh: rng.next_u64() as u32,
            retry: rng.next_u64() as u32,
            expire: rng.next_u64() as u32,
            minimum: rng.next_u64() as u32,
        })),
        5 => RData::Mx {
            preference: rng.next_u64() as u16,
            exchange: gen_name(rng),
        },
        6 => {
            // Printable ASCII (space..~), up to 300 chars.
            let len = rng.below(301);
            let txt: String = (0..len)
                .map(|_| (32 + rng.below(95) as u8) as char)
                .collect();
            RData::Txt(txt)
        }
        7 => RData::Dnskey {
            flags: rng.next_u64() as u16,
            protocol: 3,
            algorithm: 13,
            key: (0..rng.below(64)).map(|_| rng.byte()).collect(),
        },
        _ => RData::Rrsig(Arc::new(RrsigData {
            type_covered: RecordType::NS,
            algorithm: 13,
            original_ttl: rng.next_u64() as u32,
            signer: gen_name(rng),
            signature: (0..rng.below(64)).map(|_| rng.byte()).collect(),
        })),
    }
}

/// An RRset of one to three members of one kind.
fn gen_set(rng: &mut Rng) -> RRset {
    let kind = rng.below(9);
    let members: Vec<RData> = (0..=rng.below(3)).map(|_| gen_rdata(rng, kind)).collect();
    RRset::new(
        gen_name(rng),
        members[0].record_type(),
        gen_ttl(rng),
        members,
    )
}

/// Adds `set` to a section as the decoder would read it back: into an
/// earlier set of its owner (case-insensitively) and type, at the
/// smaller TTL, or as a new set. A section the generator builds holds
/// each owner and type once, so the codec round-trips it exactly.
fn merge_into(section: &mut Vec<RRset>, set: RRset) {
    match section
        .iter_mut()
        .find(|s| s.rtype == set.rtype && s.name == set.name)
    {
        Some(earlier) => {
            let mut members = earlier.rdatas.to_vec();
            members.extend(set.rdatas.iter().cloned());
            earlier.rdatas = members.into();
            earlier.ttl = earlier.ttl.min(set.ttl);
        }
        None => section.push(set),
    }
}

fn gen_section(rng: &mut Rng, max_sets: u64) -> Vec<RRset> {
    let mut section = Vec::new();
    for _ in 0..rng.below(max_sets) {
        let set = gen_set(rng);
        merge_into(&mut section, set);
    }
    section
}

fn gen_message(rng: &mut Rng) -> Message {
    let response = rng.bool();
    Message {
        header: Header {
            id: rng.next_u64() as u16,
            response,
            opcode: Opcode::Query,
            authoritative: rng.bool(),
            truncated: false,
            recursion_desired: rng.bool(),
            recursion_available: response,
            rcode: Rcode::NoError,
        },
        question: (rng.below(2) == 1).then(|| Question::new(gen_name(rng), RecordType::A)),
        answers: gen_section(rng, 4),
        authorities: gen_section(rng, 3),
        additionals: gen_section(rng, 3),
    }
}

/// Every property below draws its messages from `gen_message`, so each
/// needs it to reach every record type under its seed within the cases
/// it runs (32 for the smallest): SOA and RRSIG included, whose data
/// sits behind an `Arc` that the round trip, the two length passes and
/// the mutations must see through.
#[test]
fn the_generator_reaches_every_record_type() {
    for seed in [1, 2, 3, 4, 7, 8] {
        let mut rng = Rng::new(seed);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..32 {
            let msg = gen_message(&mut rng);
            seen.extend(msg.sectioned_records().map(|(_, r)| r.record_type()));
        }
        for rtype in RecordType::concrete() {
            assert!(seen.contains(&rtype), "seed {seed} draws no {rtype}");
        }
    }
}

#[test]
fn message_round_trips() {
    let mut rng = Rng::new(1);
    for case in 0..256 {
        let msg = gen_message(&mut rng);
        let wire = encode_message(&msg).unwrap();
        let back = decode_message(&wire).unwrap();
        assert_eq!(back, msg, "case {case}");
    }
}

/// `gen_message` draws every name afresh, so its names rarely share a
/// suffix. This one rewrites them from a small pool under one apex, in
/// random case, so that compression — and its case folding — decides
/// most of the bytes.
fn gen_related_message(rng: &mut Rng) -> Message {
    const POOL: [&str; 6] = [
        "example.cl",
        "www.example.cl",
        "ns1.example.cl",
        "a.b.ns1.example.cl",
        "nic.cl",
        "cl",
    ];
    let pick = |rng: &mut Rng| {
        let spelled: String = POOL[rng.below(POOL.len() as u64) as usize]
            .chars()
            .map(|c| {
                if rng.bool() {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect();
        Name::parse(&spelled).expect("pool names are valid")
    };
    let mut msg = gen_message(rng);
    if let Some(q) = &mut msg.question {
        q.qname = pick(rng);
    }
    let sections = [&mut msg.answers, &mut msg.authorities, &mut msg.additionals];
    for section in sections {
        for mut set in std::mem::take(section) {
            set.name = pick(rng);
            let mut members = set.rdatas.to_vec();
            for rdata in &mut members {
                match rdata {
                    RData::Ns(n) | RData::Cname(n) => *n = pick(rng),
                    RData::Mx { exchange, .. } => *exchange = pick(rng),
                    RData::Rrsig(sig) => Arc::make_mut(sig).signer = pick(rng),
                    RData::Soa(soa) => {
                        let soa = Arc::make_mut(soa);
                        soa.mname = pick(rng);
                        soa.rname = pick(rng);
                    }
                    _ => {}
                }
            }
            set.rdatas = members.into();
            merge_into(section, set);
        }
    }
    msg
}

/// The contract `Network::exchange_with` rests on: the length pass and
/// the byte pass agree, what they agree on decodes back, and `fits`
/// answers as the length does.
fn assert_len_is_bytes(msg: &Message, what: &str) {
    assert_fits_agrees(msg, what);
    let wire = encode_message(msg);
    assert_eq!(
        encoded_len(msg),
        wire.as_ref().map(Vec::len).map_err(Clone::clone),
        "{what}: encoded_len vs encode_message"
    );
    if let Ok(wire) = wire {
        assert_eq!(
            decode_message(&wire).as_ref(),
            Ok(msg),
            "{what}: round trip"
        );
    }
}

/// `fits(msg, limit)` is `encoded_len(msg).map(|n| n <= limit)` at the
/// limits around the length and at the UDP and TCP ceilings.
fn assert_fits_agrees(msg: &Message, what: &str) {
    let len = encoded_len(msg);
    let n = len.clone().unwrap_or(0);
    for limit in [n.saturating_sub(1), n, n + 1, 512, 65_535, usize::MAX] {
        assert_eq!(
            fits(msg, limit),
            len.clone().map(|n| n <= limit),
            "{what}: limit {limit}"
        );
    }
}

#[test]
fn encoded_len_is_the_length_of_the_encoding() {
    for seed in [1, 2, 3, 4, 7, 8] {
        let mut rng = Rng::new(seed);
        for case in 0..256 {
            let what = format!("seed {seed} case {case}");
            assert_len_is_bytes(&gen_message(&mut rng), &what);
            assert_len_is_bytes(&gen_related_message(&mut rng), &what);
        }
    }
}

fn name(s: &str) -> Name {
    Name::parse(s).expect("valid test name")
}

/// `count` copies of one `A` record at `owner`, as one set.
fn a_set(owner: &str, count: usize) -> RRset {
    RRset::new(
        name(owner),
        RecordType::A,
        Ttl::MINUTE,
        vec![RData::A([192, 0, 2, 1].into()); count],
    )
}

/// A one-member set.
fn one(owner: Name, ttl: Ttl, rdata: RData) -> RRset {
    RRset::new(owner, rdata.record_type(), ttl, rdata)
}

/// Header, then per record: owner octets + type, class, TTL, RDLENGTH
/// (10) + rdata octets.
fn expected_len(records: &[(usize, usize)]) -> usize {
    12 + records.iter().map(|(o, rd)| o + 10 + rd).sum::<usize>()
}

/// A referral to 13 servers with glue: 820 octets with every name in
/// full, 446 once compressed.
fn referral() -> Message {
    let q = Message::iterative_query(7, name("x.example"), RecordType::A);
    let mut r = Message::response_to(&q);
    let mut servers = Vec::new();
    for i in 0..13u8 {
        let ns = name(&format!("{}.ns.example", (b'a' + i) as char));
        servers.push(RData::Ns(ns.clone()));
        r.additionals
            .push(one(ns, Ttl::TWO_DAYS, RData::A([192, 0, 2, i].into())));
    }
    r.authorities.push(RRset::new(
        name("example"),
        RecordType::NS,
        Ttl::TWO_DAYS,
        servers,
    ));
    r
}

#[test]
fn fits_agrees_with_encoded_len() {
    for seed in [1, 5, 9] {
        let mut rng = Rng::new(seed);
        for case in 0..256 {
            let what = format!("seed {seed} case {case}");
            assert_fits_agrees(&gen_message(&mut rng), &what);
            assert_fits_agrees(&gen_related_message(&mut rng), &what);
        }
    }
    let with_answer = |rdata: RData| Message {
        answers: vec![one(name("t.example"), Ttl::MINUTE, rdata)],
        ..Message::default()
    };
    for chars in [0, 255, 256] {
        assert_fits_agrees(&with_answer(RData::Txt("x".repeat(chars))), "txt");
    }
    let rrsig = RData::Rrsig(Arc::new(RrsigData {
        type_covered: RecordType::A,
        algorithm: 13,
        original_ttl: 3600,
        signer: name("t.example"),
        signature: vec![7; 64],
    }));
    assert_fits_agrees(&with_answer(rrsig), "rrsig");
    let mut opt = Message::iterative_query(1, name("x.example"), RecordType::A);
    opt.additionals
        .push(one(Name::root(), Ttl::ZERO, RData::Opt(vec![0; 500])));
    assert_fits_agrees(&opt, "root-owned OPT");
    // Over 512 octets uncompressed and within them compressed: only the
    // compression walk can say it fits.
    let referral = referral();
    let full = |n: &Name| n.as_str().len() + 1;
    let rdata = |rd: &RData| if let RData::Ns(ns) = rd { full(ns) } else { 4 };
    let plain = 12
        + full(&name("x.example"))
        + 4
        + (referral.sectioned_records())
            .map(|(_, r)| full(&r.name) + 10 + rdata(&r.rdata))
            .sum::<usize>();
    assert_eq!((plain, encoded_len(&referral)), (820, Ok(446)));
    assert_eq!(fits(&referral, 512), Ok(true));
    assert_fits_agrees(&referral, "referral");
    // Past the TCP ceiling every limit gets the codec's error.
    let too_long = with_answer(RData::Txt("x".repeat(70_000)));
    assert_fits_agrees(&too_long, "rdata too long");
    let too_large = Message {
        answers: vec![a_set(".", 5_000)],
        ..Message::default()
    };
    assert_fits_agrees(&too_large, "message too large");
}

#[test]
fn names_past_the_pointer_range_are_never_targets() {
    // One opaque record pads the message so that `late.example` starts
    // at `at`; it is then written twice more.
    let message_with_name_at = |at: usize| {
        let mut m = Message::default();
        let pad = at - 12 - (1 + 10);
        m.answers
            .push(one(Name::root(), Ttl::ZERO, RData::Opt(vec![0; pad])));
        m.answers.push(a_set("late.example", 2));
        m.answers.push(a_set("example", 1));
        (m, pad)
    };
    // At 0x3FFE the whole name is still a target, its parent at 0x4003
    // is not: the repeat is a pointer, `example` is spelled out.
    let (m, pad) = message_with_name_at(0x3FFE);
    assert_len_is_bytes(&m, "name at 0x3FFE");
    assert_eq!(
        encoded_len(&m),
        Ok(expected_len(&[(1, pad), (14, 4), (2, 4), (9, 4)]))
    );
    // One octet later nothing of it is: every occurrence in full.
    let (m, pad) = message_with_name_at(0x3FFF);
    assert_len_is_bytes(&m, "name at 0x3FFF");
    assert_eq!(
        encoded_len(&m),
        Ok(expected_len(&[(1, pad), (14, 4), (14, 4), (9, 4)]))
    );
}

#[test]
fn rrsig_signer_is_neither_compressed_nor_a_target() {
    let rrsig = |owner: &str, signer: &str| {
        one(
            name(owner),
            Ttl::HOUR,
            RData::Rrsig(Arc::new(RrsigData {
                type_covered: RecordType::A,
                algorithm: 13,
                original_ttl: 3600,
                signer: name(signer),
                signature: vec![7; 8],
            })),
        )
    };
    // The signer equals the owner just written: still spelled out.
    let mut m = Message::default();
    m.answers.push(rrsig("example", "example"));
    assert_len_is_bytes(&m, "signer after owner");
    assert_eq!(encoded_len(&m), Ok(expected_len(&[(9, 7 + 9 + 8)])));
    // A signer seen nowhere else is no target for a later owner.
    let mut m = Message::default();
    m.answers.push(rrsig("example", "signer.zone"));
    m.answers.push(a_set("signer.zone", 1));
    assert_len_is_bytes(&m, "owner after signer");
    assert_eq!(
        encoded_len(&m),
        Ok(expected_len(&[(9, 7 + 13 + 8), (13, 4)]))
    );
}

#[test]
fn compression_folds_case_and_skips_the_root() {
    let mut m = Message::default();
    m.answers.push(a_set("example.cl", 1));
    m.answers.push(a_set("WWW.Example.CL", 1));
    m.answers
        .push(one(Name::root(), Ttl::MINUTE, RData::Ns(Name::root())));
    assert_len_is_bytes(&m, "mixed case and root");
    // `WWW` + a pointer to the lower-case twin; the root is one octet
    // wherever it stands.
    assert_eq!(
        encoded_len(&m),
        Ok(expected_len(&[(12, 4), (4 + 2, 4), (1, 1)]))
    );
}

#[test]
fn txt_splits_into_character_strings() {
    for (chars, rdlen) in [(0, 1), (255, 256), (256, 258)] {
        let mut m = Message::default();
        m.answers.push(one(
            name("t.example"),
            Ttl::MINUTE,
            RData::Txt("x".repeat(chars)),
        ));
        assert_len_is_bytes(&m, "txt");
        assert_eq!(encoded_len(&m), Ok(expected_len(&[(11, rdlen)])), "{chars}");
    }
}

#[test]
fn messages_without_an_encoding_are_errors_from_both_passes() {
    let with_answers = |sets: Vec<RRset>| Message {
        answers: sets,
        ..Message::default()
    };
    let txt = |t: String| one(name("t.example"), Ttl::MINUTE, RData::Txt(t));
    let cases = [
        (
            with_answers(vec![txt("x".repeat(70_000))]),
            WireError::RdataTooLong(70_000 + 275),
        ),
        (
            with_answers(vec![txt("caf\u{e9}".into())]),
            WireError::InvalidCharacter('\u{e9}'),
        ),
        (
            with_answers(vec![a_set(".", 65_536)]),
            WireError::TooManyRecords(65_536),
        ),
        (
            with_answers(vec![a_set(".", 5_000)]),
            WireError::MessageTooLarge(12 + 5_000 * 15),
        ),
    ];
    for (m, err) in cases {
        assert_fits_agrees(&m, "no encoding");
        assert_eq!(encoded_len(&m), Err(err.clone()));
        assert_eq!(encode_message(&m), Err(err));
    }
    // The largest message that does fit, for contrast: 65 535 octets.
    let mut m = with_answers(vec![a_set(".", 4_367)]);
    m.answers.push(one(
        Name::root(),
        Ttl::ZERO,
        RData::Opt(vec![0; 65_535 - 12 - 4_367 * 15 - 11]),
    ));
    assert_eq!(encoded_len(&m), Ok(65_535));
    assert_len_is_bytes(&m, "largest message");
}

#[test]
fn decoder_never_panics() {
    let mut rng = Rng::new(2);
    for _ in 0..512 {
        let bytes: Vec<u8> = (0..rng.below(512)).map(|_| rng.byte()).collect();
        // Outcome (Ok or Err) is irrelevant; absence of panic is the test.
        let _ = decode_message(&bytes);
    }
}

#[test]
fn decoder_never_panics_on_mutated_valid_messages() {
    // Flipping bytes of real packets probes deeper decoder states than
    // pure noise (valid headers with corrupt bodies).
    let mut rng = Rng::new(3);
    for _ in 0..256 {
        let msg = gen_message(&mut rng);
        let mut wire = encode_message(&msg).unwrap();
        for _ in 0..=rng.below(4) {
            let i = rng.below(wire.len() as u64) as usize;
            wire[i] ^= rng.byte();
        }
        let _ = decode_message(&wire);
    }
}

#[test]
fn truncated_messages_error_and_never_panic() {
    // Every strict prefix of a valid encoding must be rejected (not
    // panic, not silently succeed): the cut always lands inside the
    // header, a name, or an rdata whose declared length is now a lie.
    let mut rng = Rng::new(7);
    for case in 0..128 {
        let msg = gen_message(&mut rng);
        let wire = encode_message(&msg).unwrap();
        for cut in 0..wire.len() {
            assert!(
                decode_message(&wire[..cut]).is_err(),
                "case {case}: prefix of {cut}/{} bytes decoded successfully",
                wire.len()
            );
        }
    }
}

#[test]
fn single_byte_corruption_never_panics_and_decodes_consistently() {
    // Exhaustive single-byte corruption (all positions, a few XOR
    // masks): decode may accept or reject, but whatever it accepts must
    // re-encode and decode to the same message (no internally
    // inconsistent parses).
    let mut rng = Rng::new(8);
    for case in 0..32 {
        let msg = gen_message(&mut rng);
        let wire = encode_message(&msg).unwrap();
        for i in 0..wire.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut corrupt = wire.clone();
                corrupt[i] ^= mask;
                if let Ok(decoded) = decode_message(&corrupt) {
                    let rewire = encode_message(&decoded).unwrap();
                    let redecoded = decode_message(&rewire).unwrap();
                    assert_eq!(redecoded, decoded, "case {case}, byte {i}, mask {mask:#x}");
                }
            }
        }
    }
}

#[test]
fn reencoding_decoded_message_is_stable() {
    let mut rng = Rng::new(4);
    for case in 0..256 {
        let msg = gen_message(&mut rng);
        let wire = encode_message(&msg).unwrap();
        let decoded = decode_message(&wire).unwrap();
        let wire2 = encode_message(&decoded).unwrap();
        let decoded2 = decode_message(&wire2).unwrap();
        assert_eq!(decoded, decoded2, "case {case}");
    }
}

#[test]
fn name_parse_display_round_trips() {
    let mut rng = Rng::new(5);
    for case in 0..256 {
        let labels: Vec<String> = (0..rng.below(5))
            .map(|_| {
                (0..=rng.below(10))
                    .map(|_| LABEL_CHARS[rng.below(LABEL_CHARS.len() as u64) as usize] as char)
                    .collect()
            })
            .collect();
        let name = Name::from_labels(labels).unwrap();
        let reparsed = Name::parse(&name.to_string()).unwrap();
        assert_eq!(reparsed, name, "case {case}");
    }
}

#[test]
fn ttl_countdown_never_underflows() {
    let mut rng = Rng::new(6);
    for _ in 0..512 {
        let start = (rng.next_u64() as u32) & 0x7FFF_FFFF;
        let step = rng.next_u64() as u32;
        let t = Ttl::from_secs(start);
        let aged = t.saturating_sub_secs(step);
        assert!(aged <= t);
    }
}
