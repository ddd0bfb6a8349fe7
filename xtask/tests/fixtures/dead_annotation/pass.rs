//! The waiver here is live: it suppresses a real finding. Prose that
//! merely mentions lint:allow(panic-reachability) mid-sentence is not a
//! waiver.

pub fn risky(x: Option<u64>) -> u64 {
    // lint:allow(panic-reachability) — fixture waiver kept live by the
    // unwrap below.
    x.unwrap()
}
