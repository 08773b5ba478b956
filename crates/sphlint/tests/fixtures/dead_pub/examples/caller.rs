// An example is a crate of its own: what it names is named from outside the
// fixture library. A re-export names a function without calling it.
pub use crate::bad::only_reexported;

fn main() {
    unsafe { called_from_another_file() };
    let _meter = Meter::new();
    let f: fn() -> u32 = passed_as_a_value;
    let _ = called_elsewhere() + f();
}
