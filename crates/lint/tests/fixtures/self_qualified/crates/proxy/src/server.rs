//! Fixture: `Server::outer` holds `x` while it calls `Self::helper`,
//! which takes `y`; `reverse` takes `y` then `x`. `Self` names the
//! caller's own `impl` type, so the helper's lock reaches the caller's
//! lock set and the two orders form a cycle.

struct Server {
    x: Mutex<u32>,
    y: Mutex<u32>,
}

impl Server {
    fn outer(&self) {
        let held = self.x.lock();
        Self::helper(self);
        drop(held);
    }

    fn helper(&self) {
        let inner = self.y.lock();
        drop(inner);
    }
}

fn reverse(s: &Server) {
    let first = s.y.lock();
    let second = s.x.lock();
    drop(second);
    drop(first);
}
