// An integration test: it does not keep a function alive, but it needs `pub`
// what its crate calls.

#[test]
fn integration_test() {
    assert_eq!(fixture::only_an_integration_test_calls(), 3);
}

#[test]
fn calls_what_its_crate_calls() {
    assert_eq!(fixture::clean::its_crate_and_an_integration_test_call(), 7);
}
