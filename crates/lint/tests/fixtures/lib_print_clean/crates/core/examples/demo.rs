//! Fixture: examples may print.

fn main() {
    println!("demo");
}
