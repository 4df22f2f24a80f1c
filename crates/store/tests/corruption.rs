//! Property tests over snapshot corruption: for any record set and any
//! corruption offset, a damaged file either fails verification loudly or —
//! for the few header bytes whose mutation is semantically inert (a digit of
//! the advisory `entries` count, say) — still yields exactly the original
//! records. A corrupted snapshot must never load as *different* data, and
//! must never panic the loader.

use proptest::prelude::*;

use qsync_store::{decode, encode, Record};

const KINDS: [&str; 3] = ["plan", "older_kind", "exotic_future_kind"];

fn build_records(seeds: &[(u8, u32, u64, u64)]) -> Vec<Record> {
    seeds
        .iter()
        .map(|&(kind, version, key, n)| Record {
            kind: KINDS[kind as usize % KINDS.len()].to_string(),
            version,
            key: format!("{key:016x}"),
            body: serde_json::from_str(&format!("{{\"n\":{n},\"nested\":{{\"k\":\"v{n}\"}}}}"))
                .expect("literal body json parses"),
        })
        .collect()
}

fn seeds_strategy() -> impl Strategy<Value = Vec<(u8, u32, u64, u64)>> {
    prop::collection::vec((0u8..3, 0u32..4, 0u64..u64::MAX, 0u64..100_000), 0..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any strict prefix of a snapshot fails verification: either the header
    /// itself is torn, or the payload is shorter than the header declares.
    #[test]
    fn truncation_at_any_offset_is_rejected(seeds in seeds_strategy(), raw_cut in 0usize..1_000_000) {
        let text = encode(&build_records(&seeds));
        let cut = raw_cut % text.len();
        prop_assert!(decode(&text[..cut]).is_err(), "prefix of {cut}/{} bytes loaded", text.len());
    }

    /// A single corrupted byte anywhere in the file either fails verification
    /// or leaves the decoded records exactly identical to the originals.
    #[test]
    fn byte_corruption_never_yields_different_records(
        seeds in seeds_strategy(),
        raw_offset in 0usize..1_000_000,
        flip in 1u8..128,
    ) {
        let records = build_records(&seeds);
        let text = encode(&records);
        let offset = raw_offset % text.len();
        let mut bytes = text.into_bytes();
        // Keep the mutation inside ASCII so the file stays valid UTF-8 (disk
        // corruption that breaks UTF-8 is rejected even earlier, at read).
        bytes[offset] = (bytes[offset] ^ flip) & 0x7f;
        let Ok(corrupted) = String::from_utf8(bytes) else { return };
        match decode(&corrupted) {
            Err(_) => {}
            Ok(loaded) => prop_assert_eq!(
                loaded.records, records,
                "corruption at byte {} was accepted with altered contents", offset
            ),
        }
    }

    /// Corrupting a byte strictly inside the payload is always caught by the
    /// checksum (or by the length gate, if the byte became a newline that
    /// `lines()` would re-split — the bytes no longer hash to the header's
    /// FNV either way).
    #[test]
    fn payload_corruption_is_always_rejected(
        seeds in seeds_strategy(),
        raw_offset in 0usize..1_000_000,
        flip in 1u8..128,
    ) {
        let records = build_records(&seeds);
        if records.is_empty() {
            return;
        }
        let text = encode(&records);
        let header_len = text.find('\n').expect("encode always emits a header line") + 1;
        let payload_len = text.len() - header_len;
        let offset = header_len + raw_offset % payload_len;
        let mut bytes = text.into_bytes();
        let replacement = (bytes[offset] ^ flip) & 0x7f;
        if replacement == bytes[offset] {
            return;
        }
        bytes[offset] = replacement;
        let Ok(corrupted) = String::from_utf8(bytes) else { return };
        prop_assert!(decode(&corrupted).is_err(), "payload corruption at byte {} was accepted", offset);
    }
}
