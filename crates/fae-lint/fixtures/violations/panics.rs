//! Seeded no-panic violations.

pub fn first(v: &[u32]) -> u32 {
    // no-panic (.unwrap())
    *v.first().unwrap()
}

pub fn must(path: &str) -> String {
    // no-panic (.expect(...))
    std::fs::read_to_string(path).expect("readable")
}

pub fn boom() {
    // no-panic (panic!)
    panic!("seeded violation");
}

pub fn later() {
    // no-panic (todo!)
    todo!()
}

pub fn pick(m: &Map) -> u64 {
    // no-panic (string-key indexing)
    m["key"]
}

#[cfg(not(test))]
pub fn live_only(x: Option<u8>) -> u8 {
    // no-panic (`cfg(not(test))` is live code, not a test region)
    x.unwrap()
}

pub const WINDOWS_DIR: &[u8] = br"C:\";

pub fn after_byte_raw(x: Option<u8>) -> u8 {
    // no-panic (the byte raw string above ends at its own quote)
    x.unwrap()
}
