// A `src/bin/` target is a crate of its own: its calls keep a library
// function `pub`.

fn main() {
    println!("{}", fixture::called_from_a_bin());
}
