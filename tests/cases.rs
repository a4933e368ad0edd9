//! The loop every `prop_*` suite checks its properties in. Seeds are fixed,
//! so a run checks the same inputs on every machine; generators are plain
//! `fn(&mut StdRng) -> T` over the workspace's `rand`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Debug;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Check `property` on `cases` inputs drawn by `generate`. Case `i` gets a
/// fresh generator seeded from `suite`, `name` and `i`, so a failure —
/// reported with its suite, property, case index, seed and input before the
/// panic continues — is pinned as a named test by
/// `property(&generate(&mut StdRng::seed_from_u64(SEED)))`.
pub fn run<T: Debug>(
    suite: &str,
    name: &str,
    cases: u64,
    generate: impl Fn(&mut StdRng) -> T,
    property: impl Fn(&T),
) {
    // FNV-1a, so every property of every suite draws its own inputs.
    let base = format!("{suite}::{name}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    for case in 0..cases {
        let seed = base.wrapping_add(case);
        let input = generate(&mut StdRng::seed_from_u64(seed));
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&input))) {
            eprintln!(
                "{suite}::{name}: case {case} of {cases} failed (seed {seed:#018x})\ninput: {input:#?}"
            );
            resume_unwind(panic);
        }
    }
}
