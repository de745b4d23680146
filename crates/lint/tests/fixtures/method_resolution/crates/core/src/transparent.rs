//! Fixture: a method call made under a guard. Its name matches only the
//! free test helper in `tests/heap.rs`, and method syntax cannot call a
//! free function, so the call takes no lock and nothing is reported.

struct Engine {
    state: Mutex<State>,
}

impl Engine {
    fn hard_victim_side(&self, client: &Client) {
        let st = self.state.lock();
        let victim = client.rank();
        st.note(victim);
    }
}
