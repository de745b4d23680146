//! Fixture: a top-level test helper, a free function that shares its
//! name with a method and takes a lock of its own.

fn rank(world: &World) -> usize {
    let held = world.held.lock();
    held.rank
}
