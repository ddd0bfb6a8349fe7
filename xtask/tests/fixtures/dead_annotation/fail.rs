//! Negative fixture: a waiver that suppresses nothing, and a waiver
//! naming a rule that does not exist.

pub fn busy(x: u64) -> u64 {
    // lint:allow(panic-reachability) — nothing below actually panics.
    x + 1
}

pub fn typo(x: u64) -> u64 {
    // lint:allow(no-such-rule) — the rule name is wrong.
    x + 2
}
