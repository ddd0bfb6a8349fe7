//! Exercises the scanner's former blind spot: braces and `;` in
//! const-generic / array-length position inside item signatures. The
//! old region tracker consumed the pending `#[cfg(test)]` flag at the
//! `{ 1 }` brace, mis-scoping `helper`'s body as non-test code.

#[cfg(test)]
pub fn helper(_x: [(); { 1 }]) {
    None::<u8>.unwrap();
}

pub fn shaped<const N: usize>(x: [u8; { N + 1 }]) -> usize {
    x.len()
}
