// A pending deletion carries its reason; the workspace test pins how many do.

// sphlint::allow(dead-pub, pending deletion)
pub fn pending_deletion() {}
