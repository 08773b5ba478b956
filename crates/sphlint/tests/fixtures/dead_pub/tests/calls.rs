// An integration test: it does not keep a function alive.

#[test]
fn integration_test() {
    assert_eq!(fixture::only_an_integration_test_calls(), 3);
}
