//! Property test: the lexer's classification of every char as code,
//! comment, or literal interior, and the masked line views built from its
//! token stream, must match the true class of every char in arbitrary
//! well-formed snippets. The generator assembles the snippets from the
//! constructs the lexer claims to understand (idents, puncts, plain/raw
//! strings, char literals, lifetimes, line and block comments) and records
//! each char's class as it emits it, so the labels are an oracle independent
//! of the lexer.
//!
//! The masked views drive the line lints (X001–X011) and waiver detection;
//! the token stream drives the token-level X007 rule and the syntax
//! extractor behind X012–X014. A mislabel means the lints can be fooled into
//! reading a literal or a comment as code — exactly the failure masking
//! exists to prevent.

use proptest::prelude::*;
use xlint::lexer::{self, CharClass};
use xlint::mask;
use CharClass::{Code, Comment, LiteralInterior};

const IDENTS: &[&str] = &["alpha", "beta_2", "now", "lock", "x", "fname", "r#type"];
const KEYWORDS: &[&str] = &["fn", "let", "impl", "use", "mod", "match", "pub"];
const PUNCTS: &[&str] =
    &["::", "->", "{", "}", "(", ")", ";", ",", ".", "=", "&", "<", ">", "#", "!", "..="];
const STR_CHUNKS: &[&str] = &["abc", "x y", "//", "/*", "*/", "'", "0", "no{w}"];
const STR_ESCAPES: &[&str] = &["\\\\", "\\\"", "\\n", "\\t", "\\'"];
const RAW_PLAIN: &[&str] = &["plain", "// not a comment", "x 'y'", "*/ still string"];
const RAW_HASHED: &[&str] = &["un \"safe", "a \" b", "plain too", "/* \" */"];
const CHAR_BODIES: &[&str] = &["a", "7", "*", "\"", "\\n", "\\\\", "\\'"];
const LIFETIMES: &[&str] = &["a", "de", "static"];
const COMMENT_TEXT: &[&str] = &["plain", "has \" quote", "star * slash", "x007 'tick'"];
const BLOCK_TEXT: &[&str] = &["text", "x \" y", "quote ' inside", "0"];

fn pick<'a>(table: &'a [&'a str], bits: u64) -> &'a str {
    table[(bits % table.len() as u64) as usize]
}

/// A generated source plus the true class of every char in it.
#[derive(Default)]
struct Labeled {
    src: String,
    classes: Vec<CharClass>,
}

impl Labeled {
    fn push(&mut self, text: &str, class: CharClass) {
        self.src.push_str(text);
        self.classes.extend(text.chars().map(|_| class));
    }
}

/// Append one source atom chosen by `(kind, bits)`, labelling each char.
fn push_atom(kind: u8, bits: u64, out: &mut Labeled) {
    match kind % 10 {
        0 => out.push(pick(IDENTS, bits), Code),
        1 => out.push(pick(KEYWORDS, bits), Code),
        2 => out.push(&(bits % 100_000).to_string(), Code),
        3 => out.push(pick(PUNCTS, bits), Code),
        4 => {
            // Plain string: 1–3 pieces, each a chunk or an escape.
            out.push("\"", Code);
            let mut b = bits;
            for _ in 0..(b % 3 + 1) {
                if b & 1 == 0 {
                    out.push(pick(STR_CHUNKS, b >> 1), LiteralInterior);
                } else {
                    out.push(pick(STR_ESCAPES, b >> 1), LiteralInterior);
                }
                b >>= 3;
            }
            out.push("\"", Code);
        }
        5 => {
            // Raw string, 0 or 1 hashes; a hashed interior may hold bare
            // quotes (but never the `"#` terminator).
            let hashed = bits & 1 == 1;
            out.push(if hashed { "r#\"" } else { "r\"" }, Code);
            out.push(pick(if hashed { RAW_HASHED } else { RAW_PLAIN }, bits >> 1), LiteralInterior);
            out.push(if hashed { "\"#" } else { "\"" }, Code);
        }
        6 => {
            out.push("'", Code);
            out.push(pick(CHAR_BODIES, bits), LiteralInterior);
            out.push("'", Code);
        }
        7 => {
            out.push("'", Code);
            out.push(pick(LIFETIMES, bits), Code);
        }
        8 => {
            out.push("// ", Comment);
            out.push(pick(COMMENT_TEXT, bits), Comment);
            // The newline ends the comment; it is not part of it.
            out.push("\n", Code);
        }
        _ => {
            out.push("/* ", Comment);
            out.push(pick(BLOCK_TEXT, bits), Comment);
            out.push(" */", Comment);
        }
    }
}

/// The `(code, comment)` line views the labels call for: code chars stay in
/// the code view, comment chars in the comment view, literal interiors are
/// blanked in both, and newlines go to both.
fn labeled_views(l: &Labeled) -> Vec<(String, String)> {
    let (mut code, mut comment) = (String::new(), String::new());
    for (c, class) in l.src.chars().zip(&l.classes) {
        let (to_code, to_comment) = match (c, class) {
            ('\n', _) => ('\n', '\n'),
            (_, Code) => (c, ' '),
            (_, Comment) => (' ', c),
            (_, LiteralInterior) => (' ', ' '),
        };
        code.push(to_code);
        comment.push(to_comment);
    }
    code.lines().zip(comment.lines()).map(|(k, m)| (k.to_string(), m.to_string())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lexer_and_masked_views_match_the_labels(
        atoms in collection::vec((any::<u8>(), any::<u64>()), 1..40)
    ) {
        let mut l = Labeled::default();
        for (kind, bits) in &atoms {
            push_atom(*kind, *bits, &mut l);
            l.push(" ", Code);
        }
        l.push("\n", Code);
        let src = &l.src;

        let tokens = lexer::lex(src);
        let classes = lexer::char_classes(src, &tokens);
        prop_assert_eq!(classes.len(), l.classes.len());
        for (i, c) in src.chars().enumerate() {
            prop_assert_eq!(
                classes[i],
                l.classes[i],
                "char {} `{}` in:\n{}",
                i,
                c,
                src
            );
        }

        let views: Vec<(String, String)> = mask::mask(src, &tokens)
            .into_iter()
            .map(|m| (m.code, m.comment))
            .collect();
        prop_assert_eq!(views, labeled_views(&l), "masked views of:\n{}", src);

        // Token sanity while we have the stream: spans are in-bounds,
        // non-empty, and strictly ordered.
        let mut prev_end = 0usize;
        for t in &tokens {
            prop_assert!(t.start >= prev_end, "overlapping tokens in:\n{}", src);
            prop_assert!(t.end > t.start && t.end <= src.len());
            prev_end = t.end;
        }
    }
}
