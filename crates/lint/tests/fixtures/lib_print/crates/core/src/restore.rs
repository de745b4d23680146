//! Fixture: stdout and stderr writes in library code.

pub fn restore(shards: usize) -> usize {
    println!("restoring {shards} shards");
    eprintln!("slow shard");
    print!("progress");
    eprint!("x");
    let n = dbg!(shards * 2);
    std::println!("qualified");
    n
}
