//! Fixture: nothing here writes to stdout or stderr from library code.

use std::fmt::Write;

/// Mentions of println!("...") in docs and comments are not calls.
pub fn summary(shards: usize) -> String {
    let mut out = String::new();
    // eprintln!("a comment is not a call");
    let _ = writeln!(out, "restored {shards} shards: println!(\"not a call\")");
    let printer = |s: &str| s.len();
    let _ = printer("dbg!");
    out
}

pub fn justified() {
    // jitlint::allow(lib_print): fixture — a deliberate, reviewed exception
    eprintln!("reviewed");
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_print() {
        println!("{}", super::summary(3));
        dbg!(1);
    }
}
