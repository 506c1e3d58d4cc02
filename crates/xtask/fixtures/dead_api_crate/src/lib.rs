//! Deliberately dead public API: the `dead-api` fixture.
//!
//! Not a workspace member (no `Cargo.toml`); these files never compile.
//! `cargo xtask check crates/xtask/fixtures/dead_api_crate/src` must
//! report exactly the items marked DEAD, and the integration tests
//! assert the set. Everything else here has a caller.

mod counters;

/// Not a use of `only_reexported`: re-exports define and use nothing.
pub use counters::only_reexported;

/// DEAD: a fn nobody calls.
pub fn never_called() -> u32 {
    7
}

/// DEAD: a const nobody reads.
pub const UNREAD_LIMIT: u32 = 64;

/// Live: read only as an inline format argument.
pub const BANNER_WIDTH: usize = 12;

fn banner() -> String {
    format!("width {BANNER_WIDTH}")
}

/// Live: named by `counters.rs`.
pub struct Ledger {
    /// Live: read by `counters.rs`.
    pub entries: Vec<u32>,
    /// DEAD: a field nobody reads or writes.
    pub never_read: u32,
}

impl Ledger {
    /// DEAD: a method nobody calls.
    pub fn compact(&mut self) {}

    /// DEAD: called only by this file's own tests.
    pub fn checksum(&self) -> u32 {
        self.entries.iter().sum()
    }

    /// DEAD: called only from its doc example.
    ///
    /// ```
    /// let ledger = fixture::Ledger::default();
    /// assert_eq!(ledger.doc_only(), 0);
    /// ```
    pub fn doc_only(&self) -> u32 {
        0
    }

    /// Live: passed as a fn pointer by `counters.rs`.
    pub fn weight(entry: &u32) -> u32 {
        *entry * 2
    }
}

/// Dead, but listed in `DEAD_API_ALLOW`.
pub fn kept_for_the_allow_list() {}

fn tally() -> u32 {
    counters::called_by_path()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_sums_entries() {
        let ledger = Ledger { entries: vec![1, 2], never_read: 0 };
        assert_eq!(ledger.checksum(), 3);
    }
}
