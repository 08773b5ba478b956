// Every `pub fn` here is named by another crate of the fixture workspace:
// non-test code of the example or the `src/bin/` target, or an integration
// test that needs a function its own crate calls.

pub fn passed_as_a_value() -> u32 {
    2
}

pub unsafe extern "C" fn called_from_another_file() {}

pub fn called_from_a_bin() -> u32 {
    5
}

pub fn its_crate_and_an_integration_test_call() -> u32 {
    7
}

// Unused crate-visible items are rustc's `dead_code` business, not this lint's.
pub(crate) fn crate_visible() {}

pub struct Meter;

impl Meter {
    pub fn new() -> Self {
        Meter
    }
}
