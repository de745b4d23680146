//! Fixture: so does every bin under `src/bin`.

fn main() {
    print!("METRIC x 1\n");
}
