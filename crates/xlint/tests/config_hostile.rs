//! Hostile-input property test for the `xlint.toml` parser: starting from
//! the committed config, apply truncations (of the file or of one line),
//! bit flips, and inserted structural characters (`[`, `]`, `"`, `=`, `#`,
//! newlines) and multibyte chars. `config::parse` must answer every result
//! with `Ok` or a typed `ConfigError` pointing inside the text — never a
//! panic.

use proptest::prelude::*;
use xlint::config;

const COMMITTED: &str = include_str!("../../../xlint.toml");

const INSERTS: &[&str] =
    &["[", "]", "\"", "=", "#", "\n", "[[", "]]", "\r\n", "é", "世", "🦀", "\u{feff}"];

/// Apply one mutation chosen by `(op, bits)` to `bytes`.
fn mutate(op: u8, bits: u64, bytes: &mut Vec<u8>) {
    let at = (bits % (bytes.len() as u64 + 1)) as usize;
    match op % 4 {
        0 => bytes.truncate(at),
        1 => {
            let eol = bytes[at..].iter().position(|&b| b == b'\n').map_or(bytes.len(), |k| at + k);
            bytes.drain(at..eol);
        }
        2 => {
            if let Some(b) = bytes.get_mut(at) {
                *b ^= 1 << ((bits >> 32) % 8);
            }
        }
        _ => {
            let ins = INSERTS[((bits >> 32) % INSERTS.len() as u64) as usize];
            bytes.splice(at..at, ins.bytes());
        }
    }
}

#[test]
fn committed_config_parses() {
    assert!(config::parse(COMMITTED).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn corrupted_config_is_ok_or_a_typed_error(
        edits in collection::vec((any::<u8>(), any::<u64>()), 1..8)
    ) {
        let mut bytes = COMMITTED.as_bytes().to_vec();
        for (op, bits) in &edits {
            mutate(*op, *bits, &mut bytes);
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = config::parse(&text) {
            prop_assert!(e.line <= text.lines().count(), "line {} out of range: {}", e.line, e);
            prop_assert!(!e.message.is_empty());
        }
    }
}
