//! Pcap-style JSONL exporter for causal netdumps.
//!
//! One JSON object per line, one line per [`PacketRecord`], id-ordered —
//! the streaming-friendly shape external tools (jq, pandas) ingest
//! directly. Sentinel fields (`NO_NODE` nodes, `NO_KEY` keys) are omitted
//! rather than emitted as magic numbers.

use crate::json::Writer;
use nicbar_sim::{CausalKind, CauseId, ComponentId, PacketRecord, SimTime, NO_KEY, NO_NODE};

/// Render one record as a single-line JSON object (no trailing newline).
pub fn record_line(r: &PacketRecord) -> String {
    let mut w = Writer::new();
    w.open_object();
    w.field("id");
    w.uint(r.id.0);
    if r.parent.is_some() {
        w.field("parent");
        w.uint(r.parent.0);
    }
    w.field("t_ns");
    w.uint(r.time.as_ns());
    w.field("comp");
    w.uint(r.component.0 as u64);
    w.field("kind");
    w.string(r.kind.name());
    if r.src != NO_NODE {
        w.field("src");
        w.uint(r.src as u64);
    }
    if r.dst != NO_NODE {
        w.field("dst");
        w.uint(r.dst as u64);
    }
    if r.group != NO_KEY {
        w.field("group");
        w.uint(r.group);
        w.field("seq");
        w.uint(r.seq);
    }
    if r.a != 0 {
        w.field("a");
        w.uint(r.a);
    }
    if r.b != 0 {
        w.field("b");
        w.uint(r.b);
    }
    w.close_object();
    // The shared writer pretty-prints; JSONL wants one record per line.
    w.finish().replace(['\n'], "").replace("  ", " ")
}

/// Render a whole dump as JSONL (one record per line, id order).
pub fn jsonl(records: &[PacketRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 96);
    for r in records {
        out.push_str(&record_line(r));
        out.push('\n');
    }
    out
}

/// Render the dump-level header line of a JSONL export: the record count
/// and — crucially — how many records the capture *dropped*, so a
/// downstream consumer can tell a complete dump from a truncated one
/// without trusting the producer's stdout.
pub fn header_line(records: usize, dropped: u64) -> String {
    let mut w = Writer::new();
    w.open_object();
    w.field("netdump");
    w.uint(1);
    w.field("records");
    w.uint(records as u64);
    w.field("dropped");
    w.uint(dropped);
    w.close_object();
    w.finish().replace(['\n'], "").replace("  ", " ")
}

/// Parse a [`header_line`] back into `(records, dropped)`. Returns `None`
/// for anything else — including packet-record lines, so a reader can
/// probe the first line and fall back to headerless ingestion (traces from
/// `nicbar-verify --trace-out` carry no header).
pub fn parse_header(line: &str) -> Option<(u64, u64)> {
    let body = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    let (mut tagged, mut records, mut dropped) = (false, None, None);
    for pair in body.split(',') {
        let (key, value) = pair.split_once(':')?;
        let key = key.trim().strip_prefix('"')?.strip_suffix('"')?;
        let n: u64 = value.trim().parse().ok()?;
        match key {
            "netdump" => tagged = n == 1,
            "records" => records = Some(n),
            "dropped" => dropped = Some(n),
            _ => return None,
        }
    }
    if !tagged {
        return None;
    }
    Some((records?, dropped?))
}

/// [`jsonl`] preceded by the [`header_line`] — the shape `why-slow --jsonl`
/// writes.
pub fn jsonl_with_header(records: &[PacketRecord], dropped: u64) -> String {
    let mut out = header_line(records.len(), dropped);
    out.push('\n');
    out.push_str(&jsonl(records));
    out
}

/// Parse one [`record_line`]-shaped JSONL line back into a [`PacketRecord`]
/// (the inverse used by `why-slow --replay`). Omitted optional fields come
/// back as their sentinels. Returns `None` on anything malformed, including
/// a node or component number its field cannot hold — the schema is flat
/// (no nested objects, no strings containing `,` or `"`), so splitting on
/// commas is exact, not approximate.
pub fn parse_line(line: &str) -> Option<PacketRecord> {
    let body = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut r = PacketRecord {
        id: CauseId::NONE,
        parent: CauseId::NONE,
        time: SimTime::ZERO,
        component: ComponentId(0),
        kind: CausalKind::HostEnter,
        src: NO_NODE,
        dst: NO_NODE,
        group: NO_KEY,
        seq: NO_KEY,
        a: 0,
        b: 0,
    };
    let mut saw_id = false;
    let mut saw_kind = false;
    for pair in body.split(',') {
        let (key, value) = pair.split_once(':')?;
        let key = key.trim().strip_prefix('"')?.strip_suffix('"')?;
        let value = value.trim();
        if key == "kind" {
            let name = value.strip_prefix('"')?.strip_suffix('"')?;
            r.kind = CausalKind::from_name(name)?;
            saw_kind = true;
            continue;
        }
        let n: u64 = value.parse().ok()?;
        match key {
            "id" => {
                r.id = CauseId(n);
                saw_id = true;
            }
            "parent" => r.parent = CauseId(n),
            "t_ns" => r.time = SimTime::from_ns(n),
            "comp" => r.component = ComponentId(usize::try_from(n).ok()?),
            "src" => r.src = u32::try_from(n).ok()?,
            "dst" => r.dst = u32::try_from(n).ok()?,
            "group" => r.group = n,
            "seq" => r.seq = n,
            "a" => r.a = n,
            "b" => r.b = n,
            _ => return None,
        }
    }
    (saw_id && saw_kind).then_some(r)
}

/// A parsed JSONL netdump (see [`parse_dump`]).
#[derive(Debug)]
pub struct Dump {
    /// The header's `(records, dropped)`, when the file leads with one.
    pub header: Option<(u64, u64)>,
    /// The records, in strictly increasing id order.
    pub records: Vec<PacketRecord>,
}

/// Parse a whole JSONL netdump: an optional leading [`header_line`], then
/// one [`record_line`] per line (blank lines skipped). The causal analysis
/// binary-searches records by id, so ids must be strictly increasing; an
/// error names the 1-based line of the first record that is unparseable or
/// out of order.
pub fn parse_dump(text: &str) -> Result<Dump, String> {
    let mut header = None;
    let mut records: Vec<PacketRecord> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        // Our own exports lead with a dump-level header line; traces from
        // `nicbar-verify --trace-out` are headerless.
        if i == 0 {
            if let Some(h) = parse_header(line) {
                header = Some(h);
                continue;
            }
        }
        let lineno = i + 1;
        let r = parse_line(line).ok_or_else(|| format!("{lineno}: unparseable record: {line}"))?;
        if let Some(prev) = records.last() {
            if r.id <= prev.id {
                return Err(format!(
                    "{lineno}: record id {} after id {}: ids must be strictly increasing",
                    r.id.0, prev.id.0
                ));
            }
        }
        records.push(r);
    }
    Ok(Dump { header, records })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test code
mod tests {
    use super::*;
    use nicbar_sim::{CausalKind, CauseId, ComponentId, NetDump, PacketLog, SimTime};

    #[test]
    fn lines_are_one_object_each_and_omit_sentinels() {
        let mut d = NetDump::disabled();
        d.enable();
        let root = d.record(
            SimTime::from_ns(5),
            ComponentId(2),
            PacketLog::new(CauseId::NONE, CausalKind::HostEnter).key(0xba, 3),
        );
        d.record(
            SimTime::from_ns(9),
            ComponentId(3),
            PacketLog::new(root, CausalKind::Fire)
                .nodes(0, 1)
                .detail(4, 0),
        );
        let text = jsonl(d.records());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].contains("\"kind\": \"host-enter\""),
            "{}",
            lines[0]
        );
        assert!(
            !lines[0].contains("\"parent\""),
            "root has no parent field: {}",
            lines[0]
        );
        assert!(
            !lines[0].contains("\"src\""),
            "sentinel omitted: {}",
            lines[0]
        );
        assert!(lines[0].contains("\"group\": 186"));
        assert!(lines[1].contains("\"parent\": 1"), "{}", lines[1]);
        assert!(lines[1].contains("\"src\": 0"));
        assert!(lines[1].contains("\"dst\": 1"));
        // Every line parses as a standalone object: starts `{`, ends `}`.
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "not JSONL: {l}");
        }
    }

    #[test]
    fn parse_line_round_trips_every_kind_and_sentinel() {
        let mut d = NetDump::disabled();
        d.enable();
        let root = d.record(
            SimTime::from_ns(5),
            ComponentId(2),
            PacketLog::new(CauseId::NONE, CausalKind::HostEnter).key(0xba, 3),
        );
        let mut parent = root;
        for kind in [
            CausalKind::NicDispatch,
            CausalKind::DmaStart,
            CausalKind::DmaDone,
            CausalKind::Fire,
            CausalKind::Wire,
            CausalKind::Drop,
            CausalKind::Arrive,
            CausalKind::Nack,
            CausalKind::Retransmit,
            CausalKind::Notify,
            CausalKind::HostExit,
        ] {
            parent = d.record(
                SimTime::from_ns(parent.0 * 10),
                ComponentId(1),
                PacketLog::new(parent, kind).nodes(0, 1).detail(7, 9),
            );
        }
        for r in d.records() {
            let parsed = parse_line(&record_line(r)).unwrap();
            assert_eq!(&parsed, r, "round-trip must be exact");
        }
    }

    #[test]
    fn header_round_trips_and_is_not_a_record() {
        let h = header_line(12, 3);
        assert_eq!(parse_header(&h), Some((12, 3)));
        assert!(parse_line(&h).is_none(), "header is not a packet record");
        // A packet-record line is not a header.
        assert!(parse_header("{\"id\": 1, \"kind\": \"fire\"}").is_none());
        assert!(parse_header("{\"records\": 2, \"dropped\": 0}").is_none());
        assert!(parse_header("").is_none());
    }

    #[test]
    fn jsonl_with_header_leads_with_the_drop_count() {
        let mut d = NetDump::disabled();
        d.enable();
        d.record(
            SimTime::from_ns(5),
            ComponentId(0),
            PacketLog::new(CauseId::NONE, CausalKind::HostEnter),
        );
        let text = jsonl_with_header(d.records(), 7);
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        assert_eq!(parse_header(header), Some((1, 7)));
        assert_eq!(lines.count(), 1);
    }

    #[test]
    fn parse_line_rejects_malformed_input() {
        assert!(parse_line("").is_none());
        assert!(parse_line("not json").is_none());
        assert!(parse_line("{\"id\": 1}").is_none(), "kind is mandatory");
        assert!(
            parse_line("{\"kind\": \"fire\"}").is_none(),
            "id is mandatory"
        );
        assert!(parse_line("{\"id\": 1, \"kind\": \"no-such-kind\"}").is_none());
        assert!(parse_line("{\"id\": 1, \"kind\": \"fire\", \"mystery\": 2}").is_none());
    }

    #[test]
    fn parse_line_rejects_nodes_out_of_range() {
        let ok = "{\"id\": 1, \"kind\": \"fire\", \"src\": 4294967295}";
        assert_eq!(parse_line(ok).unwrap().src, u32::MAX);
        for field in ["src", "dst"] {
            let line = format!("{{\"id\": 1, \"kind\": \"fire\", \"{field}\": 4294967296}}");
            assert!(parse_line(&line).is_none(), "{field} must not truncate");
        }
    }

    #[test]
    fn parse_dump_requires_strictly_increasing_ids() {
        let line = |id: u64| format!("{{\"id\": {id}, \"kind\": \"fire\"}}");
        let text = [header_line(3, 0), line(1), String::new(), line(2), line(5)].join("\n");
        let dump = parse_dump(&text).unwrap();
        assert_eq!(dump.header, Some((3, 0)));
        assert_eq!(dump.records.len(), 3);

        let swapped = [line(1), line(3), line(2)].join("\n");
        let err = parse_dump(&swapped).unwrap_err();
        assert!(err.starts_with("3: record id 2 after id 3"), "{err}");
        let duplicate = [header_line(2, 0), line(4), line(4)].join("\n");
        assert!(parse_dump(&duplicate).unwrap_err().starts_with("3: "));
        let garbage = [line(1), "{oops}".to_string()].join("\n");
        assert!(parse_dump(&garbage)
            .unwrap_err()
            .starts_with("2: unparseable record"));
    }
}
