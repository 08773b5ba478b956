// A `pub fn` no other crate's non-test code names is dead surface, whatever its tests do.

pub fn called_elsewhere() -> u32 {
    1
}

pub fn only_its_tests_call() -> u32 {
    2
}

pub fn only_an_integration_test_calls() -> u32 {
    3
}

/// Named only in this doc comment, [`only_in_a_doc_comment`], and a string.
pub fn only_in_a_doc_comment() -> &'static str {
    "only_in_a_doc_comment"
}

pub const fn only_reexported() -> u32 {
    4
}

#[cfg(test)]
mod tests {
    use super::*;

    pub fn test_helpers_are_not_linted() {}

    #[test]
    fn calls() {
        assert_eq!(only_its_tests_call(), 2);
        test_helpers_are_not_linted();
    }
}
