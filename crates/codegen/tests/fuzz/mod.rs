//! What the seeded fuzzes share: the values a mutated integer becomes,
//! and the harness that tells a returned case from a panicking one.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// What a mutated integer becomes.
pub const VALUES: [&str; 14] = [
    "0",
    "1",
    "-1",
    "2",
    "-2",
    "3",
    "64",
    "2147483648",
    "-2147483648",
    "2147483647",
    "9223372036854775807",
    "-9223372036854775808",
    "9223372036854775806",
    "-9223372036854775807",
];

/// Whether `case` returned without panicking: every `Ok` and `Err` it
/// met is its own business.
pub fn survives(case: impl FnOnce()) -> bool {
    catch_unwind(AssertUnwindSafe(case)).is_ok()
}
