//! Golden export bytes for the trace ring, pinned from the commit
//! before the ring was packed (`39cbc9e`): the expected strings below
//! are that commit's `to_jsonl()` output for these three scenarios,
//! pasted in. A storage or writer change that moves one byte of a
//! trace export fails here first.

use dnsttl_telemetry::{EventKind, SpanId, Tracer, Value};
use std::net::IpAddr;
use std::sync::Arc;

/// Every `Value` variant and a child span.
fn every_variant() -> Tracer {
    let mut t = Tracer::with_capacity(16);
    let root = t.new_span();
    let child = t.new_span();
    t.record(5, EventKind::SpanStart, Some(root), |f| {
        f.push(
            "str",
            "q\"uote \\ back\nline\u{1}ctl \u{e9}\u{4e16}\t\r".to_string(),
        );
        f.push("borrowed", "plain");
        f.push("shared", Arc::<str>::from("www.example.org."));
        f.push("static", Value::literal("NOERROR"));
        f.push("empty", Value::literal(""));
    });
    t.record_caused(6, EventKind::SpanStart, Some(child), Some(root), |f| {
        f.push("fp0", Value::Hex64(0));
        f.push("fp_max", Value::Hex64(u64::MAX));
        f.push("fp", Value::Hex64(0xdead_beef_cafe_f00d));
        f.push("v4", "192.0.2.53".parse::<IpAddr>().unwrap());
        f.push("v4_zero", "0.0.0.0".parse::<IpAddr>().unwrap());
        f.push("v4_max", "255.255.255.255".parse::<IpAddr>().unwrap());
        f.push("v6", "2001:db8::53".parse::<IpAddr>().unwrap());
    });
    t.record(7, EventKind::Retry, Some(child), |f| {
        f.push("u0", 0u64);
        f.push("u_max", u64::MAX);
        f.push("u32", 7u32);
        f.push("usize", 1234567890usize);
        f.push("neg", -42i64);
        f.push("i_min", i64::MIN);
        f.push("i_pos", 9i64);
    });
    t.record(8, EventKind::CacheServe, None, |f| {
        f.push("f_int", 3.0f64);
        f.push("f_frac", 0.25f64);
        f.push("f_neg", -1.5f64);
        f.push("f_big", 1e21f64);
        f.push("f_nan", f64::NAN);
        f.push("f_inf", f64::INFINITY);
        f.push("yes", true);
        f.push("no", false);
    });
    t.record(9, EventKind::SpanEnd, Some(child), |_| {});
    t.record(9, EventKind::SpanEnd, Some(root), |f| {
        f.push("rcode", Value::literal("NOERROR"))
    });
    t
}

/// A ring of three wrapped twice: six events evicted, and with them
/// their spilled strings and addresses.
fn wrapped_ring() -> Tracer {
    let mut t = Tracer::with_capacity(3);
    for i in 0..9u64 {
        let span = t.new_span();
        t.record_caused(
            100 + i,
            if i % 2 == 0 {
                EventKind::CacheInsert
            } else {
                EventKind::Referral
            },
            Some(span),
            (i % 3 == 2).then(|| SpanId(i - 1)),
            |f| {
                f.push("n", Arc::<str>::from(format!("name{i}.example.").as_str()));
                f.push("i", i);
                if i % 2 == 1 {
                    f.push("owned", format!("s{i}"));
                    f.push("v6", format!("2001:db8::{i}").parse::<IpAddr>().unwrap());
                }
                f.push("ty", Value::literal("A"));
            },
        );
    }
    t
}

/// Two shards whose span ids overlap (both number from 0), each having
/// evicted its root span's start, merged behind an event already in the
/// ring — so the merged `seq` skips the two numbers the shards dropped.
fn absorbed() -> Tracer {
    let shard = |base: u64, tag: &'static str| {
        let mut t = Tracer::with_capacity(4);
        let a = t.new_span();
        let b = t.new_span();
        t.record(base, EventKind::SpanStart, Some(a), |f| {
            f.push(
                "qname",
                Arc::<str>::from(format!("{tag}.example.").as_str()),
            );
            f.push("shard", Value::literal(tag));
        });
        t.record_caused(base + 5, EventKind::SpanStart, Some(b), Some(a), |f| {
            f.push("cause", Value::literal("ns_lookup"));
            f.push("server", "192.0.2.1".parse::<IpAddr>().unwrap());
        });
        t.record(base + 10, EventKind::ServFail, Some(b), |f| {
            f.push("note", format!("from {tag}"));
        });
        t.record(base + 10, EventKind::SpanEnd, Some(b), |_| {});
        t.record(base + 20, EventKind::SpanEnd, Some(a), |f| {
            f.push("ok", true)
        });
        t // 4 buffered, 1 dropped: span `a`'s start is gone, `b`'s parent link dangles
    };
    let mut merged = Tracer::with_capacity(16);
    merged.record(1, EventKind::Renumber, None, |f| {
        f.push("zone", Value::literal("uy."))
    });
    merged.absorb(vec![shard(10, "s0"), shard(12, "s1")]);
    merged
}

/// `to_jsonl` equals the pinned bytes, and `event_json` of each
/// buffered event is the matching line: one writer, two entrances.
fn assert_golden(t: &Tracer, expected: &str) {
    let jsonl = t.to_jsonl();
    assert_eq!(jsonl, expected);
    let lines: Vec<String> = t.events().map(|ev| t.event_json(&ev)).collect();
    assert_eq!(lines, jsonl.lines().collect::<Vec<_>>());
}

#[test]
fn every_value_variant_exports_the_pinned_bytes() {
    assert_golden(
        &every_variant(),
        r#"{"t_ms":5,"seq":0,"event":"span_start","span":0,"str":"q\"uote \\ back\nline\u0001ctl é世\t\r","borrowed":"plain","shared":"www.example.org.","static":"NOERROR","empty":""}
{"t_ms":6,"seq":1,"event":"span_start","span":1,"parent":0,"fp0":"0000000000000000","fp_max":"ffffffffffffffff","fp":"deadbeefcafef00d","v4":"192.0.2.53","v4_zero":"0.0.0.0","v4_max":"255.255.255.255","v6":"2001:db8::53"}
{"t_ms":7,"seq":2,"event":"retry","span":1,"u0":0,"u_max":18446744073709551615,"u32":7,"usize":1234567890,"neg":-42,"i_min":-9223372036854775808,"i_pos":9}
{"t_ms":8,"seq":3,"event":"cache_serve","f_int":3.0,"f_frac":0.25,"f_neg":-1.5,"f_big":1000000000000000000000,"f_nan":null,"f_inf":null,"yes":true,"no":false}
{"t_ms":9,"seq":4,"event":"span_end","span":1}
{"t_ms":9,"seq":5,"event":"span_end","span":0,"rcode":"NOERROR"}
"#,
    );
}

#[test]
fn a_twice_wrapped_ring_exports_the_pinned_bytes() {
    let t = wrapped_ring();
    assert_golden(
        &t,
        r#"{"t_ms":106,"seq":6,"event":"cache_insert","span":6,"n":"name6.example.","i":6,"ty":"A"}
{"t_ms":107,"seq":7,"event":"referral","span":7,"n":"name7.example.","i":7,"owned":"s7","v6":"2001:db8::7","ty":"A"}
{"t_ms":108,"seq":8,"event":"cache_insert","span":8,"parent":7,"n":"name8.example.","i":8,"ty":"A"}
"#,
    );
    assert_eq!((t.dropped(), t.total_recorded()), (6, 9));
    assert_eq!(
        t.dropped_counts().collect::<Vec<_>>(),
        vec![("cache_insert", 3), ("referral", 3)]
    );
}

#[test]
fn absorbed_shards_export_the_pinned_bytes() {
    let t = absorbed();
    assert_golden(
        &t,
        r#"{"t_ms":1,"seq":0,"event":"renumber","zone":"uy."}
{"t_ms":15,"seq":3,"event":"span_start","span":0,"parent":1,"cause":"ns_lookup","server":"192.0.2.1"}
{"t_ms":17,"seq":4,"event":"span_start","span":2,"parent":3,"cause":"ns_lookup","server":"192.0.2.1"}
{"t_ms":20,"seq":5,"event":"servfail","span":0,"note":"from s0"}
{"t_ms":20,"seq":6,"event":"span_end","span":0}
{"t_ms":22,"seq":7,"event":"servfail","span":2,"note":"from s1"}
{"t_ms":22,"seq":8,"event":"span_end","span":2}
{"t_ms":30,"seq":9,"event":"span_end","span":1,"ok":true}
{"t_ms":32,"seq":10,"event":"span_end","span":3,"ok":true}
"#,
    );
    assert_eq!((t.dropped(), t.total_recorded()), (2, 11));
    assert_eq!(
        t.kind_counts().collect::<Vec<_>>(),
        vec![
            ("renumber", 1),
            ("servfail", 2),
            ("span_end", 4),
            ("span_start", 4)
        ]
    );
}

// ── the fragment writer is the generic writer ───────────────────────

/// The deterministic xorshift the workspace's seeded tests use.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Literals for keys and static values: plain ones and one for each
/// escape the writer knows.
const LITERALS: [&str; 10] = [
    "qname",
    "ty",
    "",
    "quo\"te",
    "back\\slash",
    "new\nline",
    "tab\tbed",
    "ctl\u{1}\u{1f}",
    "cr\rlf",
    "é世",
];

/// Records `events` random events into `t`: every `Value` variant,
/// keys and strings that need escapes, child spans.
fn record_random(t: &mut Tracer, state: &mut u64, shared: &[Arc<str>], events: u64) {
    let pick = |state: &mut u64| LITERALS[(xorshift(state) % LITERALS.len() as u64) as usize];
    let mut spans: Vec<SpanId> = Vec::new();
    for i in 0..events {
        let kind = match xorshift(state) % 5 {
            0 => EventKind::SpanStart,
            1 => EventKind::CacheServe,
            2 => EventKind::ValidationFailure,
            3 => EventKind::Fault,
            _ => EventKind::Timeout,
        };
        let span = match xorshift(state) % 3 {
            0 => None,
            1 => Some(t.new_span()),
            _ => spans.last().copied(),
        };
        let parent = xorshift(state)
            .is_multiple_of(4)
            .then(|| spans.first().copied())
            .flatten();
        spans.extend(span);
        let fields = xorshift(state) % 7;
        let mut local = *state;
        t.record_caused(i * 3, kind, span, parent, |f| {
            for _ in 0..fields {
                let key = pick(&mut local);
                let r = xorshift(&mut local);
                match r % 11 {
                    0 => f.push(key, format!("owned {} {}", pick(&mut local), r)),
                    1 => f.push(key, shared[(r >> 8) as usize % shared.len()].clone()),
                    2 => f.push(key, Value::literal(pick(&mut local))),
                    3 => f.push(key, Value::Hex64(r)),
                    4 => f.push(key, IpAddr::from((r as u32).to_be_bytes())),
                    5 => f.push(key, IpAddr::from((r as u128 * 0x1_0001).to_be_bytes())),
                    6 => f.push(key, r >> (r % 64)),
                    7 => f.push(key, (r as i64) >> (r % 64)),
                    8 => f.push(
                        key,
                        [0.0, -1.5, 1e21, 1e-7, f64::NAN, f64::INFINITY, r as f64]
                            [(r >> 8) as usize % 7],
                    ),
                    9 => f.push(key, r.is_multiple_of(2)),
                    _ => f.push(key, (r as u32) >> (r % 32)),
                }
            }
        });
        *state = local;
    }
}

/// One event as the generic writer renders it: `ObjectWriter` over the
/// unpacked view and `fields_of`, every string escaped where it stands.
fn reference_line(t: &Tracer, ev: &dnsttl_telemetry::TraceEvent) -> String {
    let mut w = dnsttl_telemetry::ObjectWriter::new();
    w.field("t_ms", &Value::U64(ev.t_ms))
        .field("seq", &Value::U64(ev.seq))
        .field("event", &Value::Str(ev.kind.as_str().to_string()));
    if let Some(SpanId(id)) = ev.span {
        w.field("span", &Value::U64(id));
    }
    if let Some(SpanId(id)) = ev.parent {
        w.field("parent", &Value::U64(id));
    }
    for (key, value) in t.fields_of(ev) {
        w.field(key, &value);
    }
    w.finish()
}

#[test]
fn the_fragment_writer_agrees_with_the_generic_writer() {
    for seed in [3u64, 17, 2024, 0x9e37_79b9_7f4a_7c15] {
        let mut state = seed | 1;
        let shared: Vec<Arc<str>> = (0..12)
            .map(|i| Arc::from(format!("s{i}.{}.example.", LITERALS[i % LITERALS.len()]).as_str()))
            .collect();
        // A ring of 40 wrapped twice, then three shards of 30 (each
        // wrapped once) absorbed into it, wrapping it again.
        let mut t = Tracer::with_capacity(40);
        record_random(&mut t, &mut state, &shared, 130);
        let shards = (0..3).map(|_| {
            let mut shard = Tracer::with_capacity(30);
            record_random(&mut shard, &mut state, &shared, 50);
            shard
        });
        t.absorb(shards.collect());
        record_random(&mut t, &mut state, &shared, 7);
        assert_eq!((t.len(), t.total_recorded()), (40, 130 + 150 + 7));

        let jsonl = t.to_jsonl();
        let expected: Vec<String> = t.events().map(|ev| reference_line(&t, &ev)).collect();
        assert_eq!(jsonl.lines().collect::<Vec<_>>(), expected, "seed {seed}");
        assert!(jsonl.ends_with('\n'));
        let lines: Vec<String> = t.events().map(|ev| t.event_json(&ev)).collect();
        assert_eq!(lines, expected, "seed {seed}");
        // Every escape was exercised, on keys and on values.
        for escape in ["\\\"", "\\\\", "\\n", "\\t", "\\r", "\\u0001", "\\u001f"] {
            assert!(jsonl.contains(escape), "seed {seed}: no {escape}");
        }
    }
}

/// A string past a table's bound. A shared one loses nothing: it
/// travels with its event and is rendered in full. A literal saturates
/// to the overflow name — in release builds; debug builds fail loudly
/// (`a_string_past_the_static_table_fails_loudly_or_saturates`).
#[test]
fn strings_past_a_table_bound_export_the_pinned_bytes() {
    // 65 537 distinct allocations of equal content.
    let names: Vec<Arc<str>> = (0..=65_536).map(|_| Arc::from("n\"ame.example.")).collect();
    let mut t = Tracer::with_capacity(4);
    for (i, name) in names.iter().enumerate() {
        t.record(i as u64, EventKind::CacheServe, None, |f| {
            f.push("n", name.clone());
            f.push("again", name.clone());
        });
    }
    // The table took a reference to each of its 65 536 strings and
    // holds it; the string past the bound is held by its event alone.
    assert_eq!(Arc::strong_count(&names[0]), 2);
    assert_eq!(Arc::strong_count(&names[65_535]), 2);
    assert_eq!(Arc::strong_count(&names[65_536]), 3);
    let jsonl = t.to_jsonl();
    assert_eq!(
        jsonl.lines().last().unwrap(),
        r#"{"t_ms":65536,"seq":65536,"event":"cache_serve","n":"n\"ame.example.","again":"n\"ame.example."}"#
    );
    let last = t.events().last().unwrap();
    let name = Value::Shared(names[65_536].clone());
    assert!(t
        .fields_of(&last)
        .eq([("n", name.clone()), ("again", name)]));
    for _ in 0..4 {
        t.record(70_000, EventKind::Timeout, None, |_| {});
    }
    assert_eq!(Arc::strong_count(&names[65_536]), 1);

    if !cfg!(debug_assertions) {
        // 65 536 one-byte literals: distinct addresses, one too many.
        let pool: &'static str = Box::leak("k".repeat(65_536).into_boxed_str());
        let mut t = Tracer::with_capacity(2);
        for i in 0..65_536 {
            t.record(i as u64, EventKind::Timeout, None, |f| {
                f.push(&pool[i..i + 1], Value::literal(&pool[i..i + 1]))
            });
        }
        assert_eq!(
            t.to_jsonl(),
            "{\"t_ms\":65534,\"seq\":65534,\"event\":\"timeout\",\"k\":\"k\"}\n\
             {\"t_ms\":65535,\"seq\":65535,\"event\":\"timeout\",\"<static-table-full>\":\"<static-table-full>\"}\n"
        );
    }
}
