// The non-test code of the fixture workspace. A re-export names a function
// without calling it.
pub use crate::bad::only_reexported;

fn main() {
    unsafe { called_from_another_file() };
    let _meter = Meter::new();
    let _ = called_elsewhere() + private_caller();
}
