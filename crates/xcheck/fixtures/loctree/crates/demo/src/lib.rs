//! Crate doc: a comment line, not code.

/// Item doc.
pub fn greeting() -> &'static str {
    let text = "multi-line
literal text // not a comment

";
    /* a block
       comment */
    let _brace = '{';
    text
}

#[cfg(test)]
use std::fmt;

#[cfg(test)]
mod tests {
    // a comment inside the test module
    #[test]
    fn closing_brace_literals_do_not_end_the_module() {
        assert_eq!("}", &"}}"[..1]);
        let _ = '}';
    }
}

pub const AFTER_THE_TESTS: u8 = 1;
