// A `pub fn` that only its own crate calls: it should be `pub(crate)`, where
// rustc's `dead_code` lint can see whether the crate needs it at all.

pub fn only_its_own_crate_calls() -> u32 {
    6
}

fn same_crate_caller() -> u32 {
    only_its_own_crate_calls() + crate::clean::its_crate_and_an_integration_test_call()
}
