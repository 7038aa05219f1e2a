//! Everything in this file is either pragma-suppressed, test-exempt or
//! simply allowed — fae-lint must report it clean under the strictest
//! classification (deterministic library code).

use std::collections::BTreeMap;

pub fn tally(xs: &[u32]) -> BTreeMap<u32, u32> {
    let mut m = BTreeMap::new();
    for &x in xs {
        *m.entry(x).or_insert(0) += 1;
    }
    m
}

pub fn first(v: &[u32]) -> u32 {
    // fae-lint: allow(no-panic, reason = "caller asserts v is non-empty")
    *v.first().unwrap()
}

pub fn charge(timeline: &mut Timeline, secs: f64) {
    timeline.add(Phase::Transfer, secs);
}

pub fn safe_first(v: &[u32]) -> u32 {
    v.first().copied().unwrap_or(0)
}

pub fn unrolled_scale(dst: &mut [f32], s: f32) {
    // fae-lint: allow(float-fuse, reason = "elementwise, no f32 reassociation; DESIGN.md §14")
    for c in dst.chunks_exact_mut(8) {
        c[0] *= s;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::time::Instant;

    #[test]
    fn tests_may_do_anything() {
        let t = Instant::now();
        let mut m = HashMap::new();
        m.insert(1u32, t);
        assert!(m.get(&1).unwrap().elapsed().as_secs() < 60);
    }
}

#[cfg(test)]
pub fn naked_read(stream: &mut std::net::TcpStream, buf: &mut [u8]) {
    let _ = stream.read_exact(buf);
}

#[cfg(all(test, unix))]
mod unix_tests {
    use std::time::Instant;

    pub fn stamp() -> u64 {
        Instant::now().elapsed().as_nanos() as u64
    }

    pub fn emit(t: &Telemetry) {
        t.counter_add("Loose Metric Name", 1);
    }
}
