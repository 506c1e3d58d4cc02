//! The `dead-api` fixture's second file: a caller by path and a caller
//! through a fn pointer, both reaching into `lib.rs`.

use crate::Ledger;

/// DEAD: reachable only through the `pub use` in `lib.rs`.
pub fn only_reexported() {}

/// Live: called by path (`counters::called_by_path()`) from `lib.rs`.
pub fn called_by_path() -> u32 {
    3
}

fn weighted_total(ledger: &Ledger) -> u32 {
    ledger.entries.iter().map(Ledger::weight).sum()
}
