//! The root manifest lists every workspace member in `default-members`
//! too, so a plain `cargo test` at the root runs every crate's tests. A
//! crate added to `members` alone would drop out of that run silently.

const MANIFEST: &str = include_str!("../Cargo.toml");

/// The quoted entries of the manifest array `key = [ ... ]`.
fn array(key: &str) -> Vec<&'static str> {
    let start = (MANIFEST.find(&format!("\n{key} = [")))
        .unwrap_or_else(|| panic!("Cargo.toml has no `{key}` array"));
    let body = &MANIFEST[start..];
    let body = &body[body.find('[').unwrap() + 1..body.find(']').unwrap()];
    (body.split(','))
        .map(|e| e.trim().trim_matches('"'))
        .filter(|e| !e.is_empty())
        .collect()
}

#[test]
fn every_member_is_a_default_member() {
    let mut members = array("members");
    members.push(".");
    let mut defaults = array("default-members");
    members.sort_unstable();
    defaults.sort_unstable();
    assert_eq!(defaults, members, "default-members must be members + \".\"");
}
