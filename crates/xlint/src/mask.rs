//! Comment/string-aware masked views of Rust source.
//!
//! The lint passes work on *masked* views of a file: one view keeps only the
//! code (string/char literal contents and comments blanked to spaces), the
//! other keeps only the comment text. Pattern matching on the code view can
//! then never fire inside a string literal or a doc comment, and waiver /
//! `SAFETY:` / `ORDERING:` detection reads the comment view exclusively.
//!
//! The views are built from the [`crate::lexer`] token stream, so the line
//! lints, the waiver reader and the syntax extractor all share one answer to
//! "is this code, comment, or literal?".

use crate::lexer::{Token, TokenKind};

/// One source line split into its code part and its comment part. Both
/// strings preserve column positions (masked spans become spaces).
#[derive(Debug, Clone)]
pub struct MaskedLine {
    /// Code with comments and literal contents blanked.
    pub code: String,
    /// Comment text (line + block comments) with everything else blanked.
    pub comment: String,
}

impl MaskedLine {
    /// True when the line holds no code at all (blank or comment-only) —
    /// the adjacency rule for justification comments walks over such lines.
    pub fn is_comment_or_blank(&self) -> bool {
        self.code.trim().is_empty()
    }
}

/// Split `src` into per-line code/comment views by walking `tokens`, its
/// [`crate::lexer::lex`] stream, in order: comment tokens go to the comment
/// view, string/char interiors are blanked in both views, and everything
/// else (whitespace, ordinary tokens, literal quotes, prefixes and hashes)
/// stays code. Newlines go to both views, so the two split into the same
/// lines and every column keeps its position.
pub fn mask(src: &str, tokens: &[Token]) -> Vec<MaskedLine> {
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    let mut code = String::with_capacity(src.len());
    let mut comment = String::with_capacity(src.len());
    let mut push = |span: &str, to_code: bool, to_comment: bool| {
        if to_code {
            code.push_str(span);
        } else {
            code.extend(span.chars().map(blank));
        }
        if to_comment {
            comment.push_str(span);
        } else {
            comment.extend(span.chars().map(blank));
        }
    };
    let mut at = 0;
    for t in tokens {
        push(&src[at..t.start], true, false);
        match t.kind {
            TokenKind::Comment => push(t.text(src), false, true),
            TokenKind::Str { interior_start, interior_end }
            | TokenKind::Char { interior_start, interior_end } => {
                push(&src[t.start..interior_start], true, false);
                push(&src[interior_start..interior_end], false, false);
                push(&src[interior_end..t.end], true, false);
            }
            _ => push(t.text(src), true, false),
        }
        at = t.end;
    }
    push(&src[at..], true, false);

    code.lines()
        .zip(comment.lines())
        .map(|(c, k)| MaskedLine { code: c.to_string(), comment: k.to_string() })
        .collect()
}

/// Does `hay` contain `needle` as a standalone word (no identifier chars on
/// either side)?
pub fn contains_word(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0
            || !hay[..at].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok =
            !hay[after..].chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn comments_and_strings_are_separated() {
        let src = "let x = \"std::thread::spawn\"; // std::sync::mpsc here\nlet y = 1;\n";
        let m = mask(src, &lex(src));
        assert!(!m[0].code.contains("spawn"));
        assert!(!m[0].code.contains("mpsc"));
        assert!(m[0].comment.contains("mpsc"));
        assert!(m[1].code.contains("let y"));
    }

    #[test]
    fn nested_block_comments_and_raw_strings() {
        let src = "/* a /* nested */ still */ code();\nlet s = r#\"unsafe \"quoted\"\"#; more();\n";
        let m = mask(src, &lex(src));
        assert!(m[0].code.contains("code()"));
        assert!(m[0].comment.contains("nested"));
        assert!(!m[1].code.contains("unsafe"));
        assert!(m[1].code.contains("more()"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) -> char { '\"' }\nlet q = 'y';\n";
        let m = mask(src, &lex(src));
        // The quote char literal must not open a string state.
        assert!(m[1].code.contains("let q"));
        assert!(m[0].code.contains("&'a str"));
    }

    #[test]
    fn word_boundaries() {
        assert!(contains_word("x unsafe {", "unsafe"));
        assert!(!contains_word("unsafely", "unsafe"));
        assert!(!contains_word("an_unsafe", "unsafe"));
        assert!(contains_word("panic!(\"\")", "panic!"));
    }

    #[test]
    fn multiline_block_comment_attribution() {
        let src = "/* SAFETY:\n   spans lines */\nunsafe { work() }\n";
        let m = mask(src, &lex(src));
        assert!(m[0].comment.contains("SAFETY:"));
        assert!(m[0].is_comment_or_blank());
        assert!(m[1].is_comment_or_blank());
        assert!(m[2].code.contains("unsafe"));
    }
}
