//! Fixture: integration tests may print.

#[test]
fn prints() {
    println!("ok");
}
