//! A comment/string-aware scanner for Rust source.
//!
//! The lint rules need to ask questions like "does this line contain the
//! `unsafe` *keyword*" without being fooled by the word appearing inside a
//! doc comment, a string literal or an identifier
//! (`unsafe_op_in_unsafe_fn`). A full parser would be overkill — and the
//! workspace is dependency-free by policy — so this module implements the
//! minimal lexer that classifies every byte of a source file as *code*,
//! *comment* or *literal*:
//!
//! * line comments (`//`) and nested block comments (`/* /* */ */`);
//! * string literals with escapes, raw strings with any hash depth
//!   (`r#"…"#`), byte and byte-raw strings;
//! * character literals (including `'\''` and `'\u{…}'`) disambiguated
//!   from lifetimes (`'a`, `'_`) by lookahead.
//!
//! The output keeps the line structure: for every source line the scanner
//! yields the *code* text (comments and literal contents blanked out with
//! spaces, so columns survive) and the *comment* text separately. Rules can
//! then do trivial substring/token matching per line and still report exact
//! `file:line` locations.

/// One source line, split into its code and comment parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Line {
    /// The line with comments and string/char-literal *contents* replaced by
    /// spaces (the delimiting quotes survive, their contents do not).
    pub code: String,
    /// The concatenated text of every comment on the line (without the
    /// `//`/`/*` markers' text removed — the raw comment characters).
    pub comment: String,
    /// Whether the line holds non-blank string or character literal text
    /// (blanked out of `code`, so a line inside a multi-line string literal
    /// has a blank `code` but is still a line of code).
    pub literal: bool,
}

impl Line {
    /// Whether the line carries no code at all (blank, or comment-only).
    pub fn is_code_blank(&self) -> bool {
        self.code.trim().is_empty()
    }

    /// Whether the line counts as a line of code: it is neither blank nor
    /// comment-only (literal text counts as code).
    pub fn is_code(&self) -> bool {
        !self.is_code_blank() || self.literal
    }

    /// Whether the line's code is exactly an attribute (`#[…]` / `#![…]`),
    /// possibly still open at the end of the line.
    pub fn is_attribute(&self) -> bool {
        let t = self.code.trim();
        t.starts_with("#[") || t.starts_with("#![")
    }
}

/// A scanned source file: per-line code/comment split.
#[derive(Debug)]
pub struct Scanned {
    /// The classified lines, in file order (index 0 is line 1).
    pub lines: Vec<Line>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    /// Block comments nest in Rust; the depth rides along.
    BlockComment(u32),
    /// Inside `"…"`; `true` while the next char is escaped.
    Str(bool),
    /// Inside `r##"…"##`-style raw string; the payload is the hash count.
    RawStr(u32),
    /// Inside `'…'`; `true` while the next char is escaped.
    CharLit(bool),
}

/// Splits source text into per-line code and comment parts (see the module
/// docs for the rules applied).
pub fn scan(source: &str) -> Scanned {
    let mut lines = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut literal = false;
    let mut state = State::Code;
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            // Line comments end at the newline; everything else carries over.
            if state == State::LineComment {
                state = State::Code;
            }
            lines.push(Line {
                code: std::mem::take(&mut code),
                comment: std::mem::take(&mut comment),
                literal: std::mem::take(&mut literal),
            });
            i += 1;
            continue;
        }
        if matches!(state, State::Str(_) | State::RawStr(_) | State::CharLit(_)) {
            literal |= !c.is_whitespace();
        }
        match state {
            State::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    state = State::LineComment;
                    comment.push_str("//");
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(1);
                    comment.push_str("/*");
                    code.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    state = State::Str(false);
                    code.push('"');
                    i += 1;
                } else if c == 'r' && is_raw_string_start(&chars, i) {
                    let hashes = count_hashes(&chars, i + 1);
                    state = State::RawStr(hashes);
                    code.push('r');
                    for _ in 0..hashes {
                        code.push('#');
                    }
                    code.push('"');
                    i += 2 + hashes as usize;
                } else if c == 'b' && chars.get(i + 1) == Some(&'"') && !ident_before(&chars, i) {
                    state = State::Str(false);
                    code.push_str("b\"");
                    i += 2;
                } else if c == 'b'
                    && chars.get(i + 1) == Some(&'r')
                    && !ident_before(&chars, i)
                    && is_raw_string_start(&chars, i + 1)
                {
                    let hashes = count_hashes(&chars, i + 2);
                    state = State::RawStr(hashes);
                    code.push_str("br");
                    for _ in 0..hashes {
                        code.push('#');
                    }
                    code.push('"');
                    i += 3 + hashes as usize;
                } else if c == '\'' {
                    match char_or_lifetime(&chars, i) {
                        Quote::CharLiteral => {
                            state = State::CharLit(false);
                            code.push('\'');
                            i += 1;
                        }
                        Quote::Lifetime => {
                            // Keep the tick as code; the identifier after it
                            // is ordinary code too.
                            code.push('\'');
                            i += 1;
                        }
                    }
                } else {
                    code.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(depth + 1);
                    comment.push_str("/*");
                    i += 2;
                } else if c == '*' && chars.get(i + 1) == Some(&'/') {
                    comment.push_str("*/");
                    state = if depth > 1 { State::BlockComment(depth - 1) } else { State::Code };
                    i += 2;
                } else {
                    comment.push(c);
                    i += 1;
                }
            }
            State::Str(escaped) => {
                if escaped {
                    state = State::Str(false);
                    code.push(' ');
                    i += 1;
                } else if c == '\\' {
                    state = State::Str(true);
                    code.push(' ');
                    i += 1;
                } else if c == '"' {
                    state = State::Code;
                    code.push('"');
                    i += 1;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && hashes_follow(&chars, i + 1, hashes) {
                    state = State::Code;
                    code.push('"');
                    for _ in 0..hashes {
                        code.push('#');
                    }
                    i += 1 + hashes as usize;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            State::CharLit(escaped) => {
                if escaped {
                    state = State::CharLit(false);
                    code.push(' ');
                    i += 1;
                } else if c == '\\' {
                    state = State::CharLit(true);
                    code.push(' ');
                    i += 1;
                } else if c == '\'' {
                    state = State::Code;
                    code.push('\'');
                    i += 1;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
        }
    }
    if !code.is_empty() || !comment.is_empty() {
        lines.push(Line { code, comment, literal });
    }
    Scanned { lines }
}

/// `r"`, `r#"`, `r##"`, … at `i` (which holds the `r`), and the `r` is not
/// the tail of an identifier like `var"` can't happen — but `for"` could
/// lex `r` wrongly, so the previous char must not be an identifier char.
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    if ident_before(chars, i) {
        return false;
    }
    let mut j = i + 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

fn ident_before(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

fn count_hashes(chars: &[char], mut i: usize) -> u32 {
    let mut n = 0;
    while chars.get(i) == Some(&'#') {
        n += 1;
        i += 1;
    }
    n
}

fn hashes_follow(chars: &[char], i: usize, hashes: u32) -> bool {
    (0..hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

enum Quote {
    CharLiteral,
    Lifetime,
}

/// Disambiguates a `'` at `i`: `'x'` / `'\n'` / `'\u{1F600}'` are char
/// literals; `'a` followed by anything but a closing quote is a lifetime
/// (or a loop label), as is `'_`.
fn char_or_lifetime(chars: &[char], i: usize) -> Quote {
    match chars.get(i + 1) {
        // `'\…` is always a char literal (lifetimes cannot start with \).
        Some('\\') => Quote::CharLiteral,
        Some(&c) if c.is_alphanumeric() || c == '_' => {
            // `'c'` closes immediately → char literal; otherwise lifetime.
            if chars.get(i + 2) == Some(&'\'') {
                Quote::CharLiteral
            } else {
                Quote::Lifetime
            }
        }
        // `'('`, `' '`, `'''`… — a one-char literal of punctuation.
        Some(_) => Quote::CharLiteral,
        None => Quote::Lifetime,
    }
}

/// Finds `token` in `code` at identifier boundaries (neither neighbour is
/// `[A-Za-z0-9_]`), returning the byte column of the first hit.
pub fn find_token(code: &str, token: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(token) {
        let start = from + pos;
        let end = start + token.len();
        let left_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let right_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if left_ok && right_ok {
            return Some(start);
        }
        from = start + 1;
    }
    None
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The file's code with all whitespace removed, plus a map from each
/// retained character back to its 1-based source line — for matching
/// patterns that rustfmt may split across lines (`.lock()\n.unwrap()`).
pub struct FlatCode {
    /// Whitespace-free concatenation of all code text.
    pub text: String,
    /// `line_of[i]` is the 1-based line of `text`'s `i`-th char.
    pub line_of: Vec<usize>,
}

impl Scanned {
    /// Builds the whitespace-free code view (see [`FlatCode`]).
    pub fn flat_code(&self) -> FlatCode {
        let mut text = String::new();
        let mut line_of = Vec::new();
        for (idx, line) in self.lines.iter().enumerate() {
            for c in line.code.chars().filter(|c| !c.is_whitespace()) {
                text.push(c);
                line_of.push(idx + 1);
            }
        }
        FlatCode { text, line_of }
    }
}

impl FlatCode {
    /// All 1-based lines where `pattern` occurs (the line of the match's
    /// first character). `boundary` additionally requires the char before
    /// the match to not be an identifier char (for macro/path patterns).
    pub fn find_all(&self, pattern: &str, boundary: bool) -> Vec<usize> {
        let mut hits = Vec::new();
        let bytes = self.text.as_bytes();
        let mut from = 0;
        while let Some(pos) = self.text[from..].find(pattern) {
            let start = from + pos;
            if !boundary || start == 0 || !is_ident_byte(bytes[start - 1]) {
                hits.push(self.line_of[char_index_of_byte(&self.text, start)]);
            }
            from = start + 1;
        }
        hits
    }
}

/// Converts a byte offset into `s` to a char index (the scanner's map is
/// char-indexed; patterns and code are ASCII in practice, but comments in
/// this workspace are not).
fn char_index_of_byte(s: &str, byte: usize) -> usize {
    s.char_indices().take_while(|&(b, _)| b < byte).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> Vec<String> {
        scan(src).lines.into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn line_comments_are_not_code() {
        let lines = scan("let x = 1; // unsafe here\n// unsafe alone\n").lines;
        assert!(find_token(&lines[0].code, "unsafe").is_none());
        assert!(lines[0].comment.contains("unsafe here"));
        assert!(lines[1].is_code_blank());
        assert!(lines[1].comment.contains("unsafe alone"));
    }

    #[test]
    fn nested_block_comments_close_at_matching_depth() {
        let lines = code_of("a /* one /* two */ still comment */ b\nunsafe");
        assert!(find_token(&lines[0], "a").is_some());
        assert!(find_token(&lines[0], "b").is_some());
        assert!(find_token(&lines[0], "still").is_none());
        assert!(find_token(&lines[1], "unsafe").is_some());
    }

    #[test]
    fn multi_line_block_comments_blank_every_covered_line() {
        let lines = scan("/* unsafe\nstill unsafe\n*/ code").lines;
        assert!(lines[0].is_code_blank());
        assert!(lines[1].is_code_blank());
        assert!(find_token(&lines[2].code, "code").is_some());
        assert!(find_token(&lines[2].code, "unsafe").is_none());
    }

    #[test]
    fn string_contents_are_blanked_but_quotes_survive() {
        let lines = code_of(r#"let s = "unsafe { dbg!() }"; let t = 1;"#);
        assert!(find_token(&lines[0], "unsafe").is_none());
        assert!(!lines[0].contains("dbg"));
        assert!(lines[0].contains('"'));
        assert!(find_token(&lines[0], "t").is_some());
    }

    #[test]
    fn code_lines_include_literal_text_but_not_comments_or_blanks() {
        let src = "let s = \"a\n  text // inside\n\n\";\n// note\n/* block\n  still */\n  \n";
        let flags: Vec<bool> = scan(src).lines.iter().map(Line::is_code).collect();
        assert_eq!(flags, vec![true, true, false, true, false, false, false, false]);
    }

    #[test]
    fn escaped_quotes_do_not_close_strings() {
        let lines = code_of(r#"let s = "a\"unsafe\"b"; unsafe"#);
        assert_eq!(find_token(&lines[0], "unsafe"), lines[0].rfind("unsafe"));
    }

    #[test]
    fn raw_strings_with_hashes_ignore_embedded_quotes() {
        let src = "let s = r#\"quote \" unsafe \"#; unsafe";
        let lines = code_of(src);
        let hits: Vec<usize> = {
            let mut v = Vec::new();
            let mut from = 0;
            while let Some(p) = lines[0][from..].find("unsafe") {
                v.push(from + p);
                from += p + 1;
            }
            v
        };
        assert_eq!(hits.len(), 1, "only the code-level unsafe survives: {:?}", lines[0]);
    }

    #[test]
    fn byte_and_byte_raw_strings_are_literals() {
        let lines = code_of(r##"let a = b"unsafe"; let b = br#"unsafe"#; unsafe"##);
        let mut count = 0;
        let mut from = 0;
        while let Some(p) = lines[0][from..].find("unsafe") {
            count += 1;
            from += p + 1;
        }
        assert_eq!(count, 1);
    }

    #[test]
    fn lifetimes_are_code_but_char_literals_are_blanked() {
        let lines = code_of("fn f<'a>(x: &'a str) { let c = 'u'; let q = '\\''; }");
        assert!(lines[0].contains("'a"));
        assert!(!lines[0].contains("'u'"));
        // The char literal's quotes survive with blanked contents.
        assert!(lines[0].contains("' '"));
    }

    #[test]
    fn char_escape_of_quote_does_not_end_the_literal_early() {
        let lines = code_of(r"let q = '\''; unsafe");
        assert!(find_token(&lines[0], "unsafe").is_some());
    }

    #[test]
    fn identifier_boundaries_reject_substrings() {
        assert!(find_token("unsafe_op_in_unsafe_fn", "unsafe").is_none());
        assert!(find_token("my_unsafe", "unsafe").is_none());
        assert!(find_token("unsafe {", "unsafe").is_some());
        assert!(find_token("(unsafe)", "unsafe").is_some());
    }

    #[test]
    fn flat_code_matches_patterns_across_line_breaks() {
        let scanned = scan("x.lock()\n    .unwrap();\n");
        let flat = scanned.flat_code();
        assert_eq!(flat.find_all(".lock().unwrap()", false), vec![1]);
    }

    #[test]
    fn flat_code_boundary_rejects_identifier_tails() {
        let scanned = scan("not_todo!(); todo!();\n");
        let flat = scanned.flat_code();
        assert_eq!(flat.find_all("todo!(", true), vec![1]);
        assert_eq!(flat.find_all("todo!(", false).len(), 2);
    }

    #[test]
    fn attributes_are_recognised() {
        let lines = scan("#![forbid(unsafe_code)]\n#[inline]\nfn f() {}\n").lines;
        assert!(lines[0].is_attribute());
        assert!(lines[1].is_attribute());
        assert!(!lines[2].is_attribute());
    }
}
