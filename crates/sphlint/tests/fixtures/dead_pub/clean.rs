// Every `pub fn` here is named by non-test code of the fixture workspace.

pub fn called_in_this_file() -> u32 {
    1
}

pub fn passed_as_a_value() -> u32 {
    2
}

pub unsafe extern "C" fn called_from_another_file() {}

// Unused crate-visible items are rustc's `dead_code` business, not this lint's.
pub(crate) fn crate_visible() {}

pub struct Meter;

impl Meter {
    pub fn new() -> Self {
        Meter
    }
}

fn private_caller() -> u32 {
    let f: fn() -> u32 = passed_as_a_value;
    called_in_this_file() + f()
}
