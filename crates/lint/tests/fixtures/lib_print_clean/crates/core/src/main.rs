//! Fixture: a bin owns its stdout.

fn main() {
    println!("{}", 1);
    eprintln!("usage");
}
