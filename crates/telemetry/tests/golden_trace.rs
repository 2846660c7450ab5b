//! Golden export bytes for the trace ring, pinned from the commit
//! before the ring was packed (`39cbc9e`): the expected strings below
//! are that commit's `to_jsonl()` output for these three scenarios,
//! pasted in. A storage or writer change that moves one byte of a
//! trace export fails here first.

use dnsttl_telemetry::{EventKind, SpanId, Tracer, Value};
use std::net::IpAddr;
use std::sync::Arc;

/// Every `Value` variant, a `Custom` kind, and a child span.
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
    t.record(7, EventKind::Custom("odd \"kind\""), Some(child), |f| {
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
                EventKind::Custom("probe")
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
            f.push("cause", Value::literal("prefetch"));
            f.push("server", "192.0.2.1".parse::<IpAddr>().unwrap());
        });
        t.record(base + 10, EventKind::Custom("shard_note"), Some(b), |f| {
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
{"t_ms":7,"seq":2,"event":"odd \"kind\"","span":1,"u0":0,"u_max":18446744073709551615,"u32":7,"usize":1234567890,"neg":-42,"i_min":-9223372036854775808,"i_pos":9}
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
{"t_ms":107,"seq":7,"event":"probe","span":7,"n":"name7.example.","i":7,"owned":"s7","v6":"2001:db8::7","ty":"A"}
{"t_ms":108,"seq":8,"event":"cache_insert","span":8,"parent":7,"n":"name8.example.","i":8,"ty":"A"}
"#,
    );
    assert_eq!((t.dropped(), t.total_recorded()), (6, 9));
    assert_eq!(
        t.dropped_counts().collect::<Vec<_>>(),
        vec![("cache_insert", 3), ("probe", 3)]
    );
}

#[test]
fn absorbed_shards_export_the_pinned_bytes() {
    let t = absorbed();
    assert_golden(
        &t,
        r#"{"t_ms":1,"seq":0,"event":"renumber","zone":"uy."}
{"t_ms":15,"seq":3,"event":"span_start","span":0,"parent":1,"cause":"prefetch","server":"192.0.2.1"}
{"t_ms":17,"seq":4,"event":"span_start","span":2,"parent":3,"cause":"prefetch","server":"192.0.2.1"}
{"t_ms":20,"seq":5,"event":"shard_note","span":0,"note":"from s0"}
{"t_ms":20,"seq":6,"event":"span_end","span":0}
{"t_ms":22,"seq":7,"event":"shard_note","span":2,"note":"from s1"}
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
            ("shard_note", 2),
            ("span_end", 4),
            ("span_start", 4)
        ]
    );
}
