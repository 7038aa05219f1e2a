//! The lint rules: what is forbidden where, and the line matchers that
//! find violations in one line of a file's code view
//! ([`crate::tokens::code_view`]: comments and literal bodies blanked,
//! offsets kept).
//!
//! These are lexical approximations, not type-checked analyses — the
//! trade-off is zero dependencies and sub-second whole-workspace runs.
//! Known gaps are documented per rule and in DESIGN.md §11.

/// Where a rule applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Only the determinism-critical crates (fae-core, fae-embed,
    /// fae-models, fae-serve, fae-sysmodel).
    Deterministic,
    /// Library code of every first-party crate (binary targets exempt:
    /// a panic there aborts one CLI invocation, not a library contract).
    AllLibs,
    /// Only the networking crate (fae-net): socket I/O must never block
    /// without a deadline.
    Net,
    /// Every first-party crate except fae-lint itself (whose matchers
    /// quote the trigger tokens): telemetry emission sites must name
    /// their metric with a stable lowercase dotted literal, so the
    /// Prometheus exposition's `fae_*` name mapping stays collision-free.
    Metrics,
}

/// Static description of one rule.
pub struct RuleInfo {
    /// Stable kebab-case id, used in pragmas and diagnostics.
    pub id: &'static str,
    /// Where it applies.
    pub scope: Scope,
    /// One-line description for `--list-rules` and docs.
    pub summary: &'static str,
}

/// Every enforced rule, in documentation order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "wall-clock",
        scope: Scope::Deterministic,
        summary: "a host-clock read (Instant/SystemTime) flows into digest-affecting state",
    },
    RuleInfo {
        id: "ambient-rng",
        scope: Scope::Deterministic,
        summary: "ambient randomness (thread_rng/OsRng/...) flows into digest-affecting state",
    },
    RuleInfo {
        id: "hash-container",
        scope: Scope::Deterministic,
        summary: "HashMap/HashSet *iteration* flows into digest-affecting state (lookups are fine)",
    },
    RuleInfo {
        id: "det-taint",
        scope: Scope::Deterministic,
        summary: "another nondeterministic source (thread id, pointer address) flows into \
                  digest-affecting state",
    },
    RuleInfo {
        id: "phase-balance",
        scope: Scope::Deterministic,
        summary: "Phase enum / Phase::ALL / index() / phase arrays / charge sites must agree, \
                  so the journal's phase-sum invariant holds statically",
    },
    RuleInfo {
        id: "lock-order",
        scope: Scope::AllLibs,
        summary: "lock acquisitions must follow one global order; cycles and same-class \
                  re-acquisition are deadlocks-in-waiting",
    },
    RuleInfo {
        id: "wire-compat",
        scope: Scope::Net,
        summary: "fae-net wire tags must be unique, encode/decode-consistent, and inside the \
                  ranges DESIGN.md §12 declares",
    },
    RuleInfo {
        id: "no-panic",
        scope: Scope::AllLibs,
        summary: "unwrap/expect/panic!/string-key indexing forbidden in library code",
    },
    RuleInfo {
        id: "timeline-phase",
        scope: Scope::Deterministic,
        summary: "Timeline charges must name a Phase constant (or a `phase` binding)",
    },
    RuleInfo {
        id: "net-deadline",
        scope: Scope::Net,
        summary: "blocking socket I/O (read_exact/write_all/connect/...) must carry a deadline",
    },
    RuleInfo {
        id: "metric-name",
        scope: Scope::Metrics,
        summary: "metric names at emission sites must be lowercase dotted literals ([a-z0-9._])",
    },
    RuleInfo {
        id: "float-fuse",
        scope: Scope::AllLibs,
        summary: "8-lane f32 unrolls (chunks_exact(8)) must pragma their bit-identity \
                  contract, citing DESIGN.md §14",
    },
];

/// True if `id` names a suppressible rule (pragma target).
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// One rule match inside a single line.
pub struct Match {
    /// Byte column (0-based) within the line.
    pub col: usize,
    /// Rule id that fired.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Byte positions of `needle` in `hay` with identifier boundaries on
/// both sides (so `Instant` does not match `InstantLike`).
fn token_positions(hay: &str, needle: &str) -> Vec<usize> {
    let hb = hay.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(off) = hay[from..].find(needle) {
        let at = from + off;
        // A needle starting/ending in a non-ident byte (`.`, `(`, `!`…)
        // has that boundary built in.
        let needle_start_ident = needle.as_bytes().first().is_some_and(|&b| is_ident(b));
        let needle_end_ident = needle.as_bytes().last().is_some_and(|&b| is_ident(b));
        let before_ok = !needle_start_ident || at == 0 || !is_ident(hb[at - 1]);
        let after = hb.get(at + needle.len()).copied().unwrap_or(b' ');
        if before_ok && (!needle_end_ident || !is_ident(after)) {
            out.push(at);
        }
        from = at + needle.len();
    }
    out
}

/// Runs the lexical determinism rules over one code-view line.
///
/// The only *lexical* determinism rule is `timeline-phase` (a purely
/// local shape check). `wall-clock`, `ambient-rng` and `hash-container`
/// are flow-aware ([`crate::flow`]): they flag flows into
/// digest-affecting state, not every mention.
pub fn deterministic_matches(line: &str, out: &mut Vec<Match>) {
    timeline_matches(line, out);
}

/// Runs the no-panic rule over one code-view line.
pub fn no_panic_matches(line: &str, out: &mut Vec<Match>) {
    for (tok, what) in [
        (".unwrap()", "`.unwrap()` panics on the error path"),
        (".expect(", "`.expect(...)` panics on the error path"),
        ("panic!", "`panic!` in library code"),
        ("unreachable!", "`unreachable!` in library code"),
        ("todo!", "`todo!` in library code"),
        ("unimplemented!", "`unimplemented!` in library code"),
    ] {
        for col in token_positions(line, tok) {
            out.push(Match {
                col,
                rule: "no-panic",
                message: format!("{what}; return a typed error (or pragma with a proof)"),
            });
        }
    }
    // Indexing a map with a string-literal key: `m["k"]` panics on a
    // missing entry. In the code view literal bodies are blank but the
    // quotes survive, so the `["` shape is still visible.
    let lb = line.as_bytes();
    for col in token_positions(line, "[\"") {
        let prev = if col == 0 { b' ' } else { lb[col - 1] };
        if is_ident(prev) || prev == b']' || prev == b')' {
            out.push(Match {
                col,
                rule: "no-panic",
                message: "string-key indexing panics on a missing entry; use `.get(...)`"
                    .to_string(),
            });
        }
    }
}

/// Runs the net-deadline rule over one code-view line: blocking socket
/// calls, and explicit deadline removal, are flagged. One hung peer must
/// never be able to stall the coordinator or a worker forever, so every
/// read/write/connect goes through the deadline helpers
/// (`fae_net::deadline`), which set a timeout first and pragma their own
/// blessed call sites.
///
/// Lexical gaps, documented: `connect(` is matched only as the bare call
/// (`TcpStream::connect_timeout` has the deadline built in and does not
/// match), and file I/O in non-net crates never sees this rule (scope is
/// the fae-net crate alone — `read_exact` on a `File` is fine elsewhere).
pub fn net_deadline_matches(line: &str, out: &mut Vec<Match>) {
    for (tok, what) in [
        (".read_exact(", "`read_exact` blocks until the peer sends"),
        (".read_to_end(", "`read_to_end` blocks until the peer closes"),
        (".read_until(", "`read_until` blocks until the delimiter arrives"),
        (".write_all(", "`write_all` blocks while the send buffer is full"),
        ("connect(", "`connect` blocks for the OS default (minutes)"),
    ] {
        for col in token_positions(line, tok) {
            out.push(Match {
                col,
                rule: "net-deadline",
                message: format!(
                    "{what} — unbounded without a prior deadline; use the \
                     fae_net::deadline helpers (or set a timeout and pragma the site)"
                ),
            });
        }
    }
    for tok in ["set_read_timeout(None)", "set_write_timeout(None)"] {
        for col in token_positions(line, tok) {
            out.push(Match {
                col,
                rule: "net-deadline",
                message: format!(
                    "`{tok}` removes the socket deadline, making every later call \
                     unbounded; deadlines are load-bearing in fae-net"
                ),
            });
        }
    }
}

/// Runs the metric-name rule over one line. Call sites are located on
/// the *code-view* line (so names quoted in comments or strings never
/// fire), but the literal's body is blanked there — the name itself is
/// read back out of the *raw* line at the same byte offsets, which the
/// code view keeps.
///
/// The contract: a name passed to `counter_add`/`gauge_set`/`observe`
/// becomes a Prometheus series `fae_<name>` with every non-alphanumeric
/// byte mapped to `_`. Names outside `[a-z0-9._]` (or with leading /
/// trailing / doubled separators) can collide after that mapping or
/// churn the exposition schema, so they are rejected at the source.
///
/// Lexical gap, documented: a *dynamic* first argument (a variable,
/// as in the telemetry crate's own forwarding layer) is not checked —
/// the rule audits the literal emission sites, which is where names
/// are actually minted.
pub fn metric_name_matches(line: &str, raw: &str, out: &mut Vec<Match>) {
    for tok in [".counter_add(", ".gauge_set(", ".observe("] {
        for col in token_positions(line, tok) {
            let start = col + tok.len();
            let rest = line.get(start..).unwrap_or("");
            let arg_at = start + (rest.len() - rest.trim_start().len());
            // Dynamic (non-literal) name: out of lexical reach, skip.
            if line.as_bytes().get(arg_at) != Some(&b'"') {
                continue;
            }
            let Some(raw_rest) = raw.get(arg_at + 1..) else { continue };
            // A literal that does not close on this line is already
            // suspicious formatting; skip rather than misreport.
            let Some(end) = raw_rest.find('"') else { continue };
            let name = &raw_rest[..end];
            let charset_ok = name
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'.' || b == b'_');
            let shape_ok = name.as_bytes().first().is_some_and(|b| b.is_ascii_lowercase())
                && !name.ends_with(['.', '_'])
                && !name.contains("..");
            if !(charset_ok && shape_ok) {
                out.push(Match {
                    col,
                    rule: "metric-name",
                    message: format!(
                        "metric name \"{name}\" is not a stable lowercase dotted identifier \
                         ([a-z0-9._], starting with a letter); the Prometheus exposition maps \
                         non-alphanumerics to `_`, so loose names collide or churn the schema"
                    ),
                });
            }
        }
    }
}

/// Runs the float-fuse rule over one code-view line: every fixed-width
/// 8-lane f32 unroll site (`.chunks_exact(8)` / `.chunks_exact_mut(8)`,
/// the shape all `fae_nn::lanes` kernels share) must carry a pragma
/// stating which side of the bit-identity contract it is on —
/// elementwise (no f32 reassociation) or reduction (reorders addition,
/// the documented carve-out). The pragma's reason must cite the contract
/// anchor `DESIGN.md §14`; that citation is validated where pragmas are
/// parsed (`lint_source`), and a float-fuse pragma without it is a
/// `bad-pragma`.
///
/// Lexical gap, documented: only the literal width-8 call fires. Other
/// widths (`chunks_exact(4)`) or a variable width are not this
/// workspace's unroll idiom and stay out of scope.
pub fn float_fuse_matches(line: &str, out: &mut Vec<Match>) {
    for tok in [".chunks_exact(8)", ".chunks_exact_mut(8)"] {
        for col in token_positions(line, tok) {
            out.push(Match {
                col,
                rule: "float-fuse",
                message: format!(
                    "`{tok}` is an 8-lane f32 unroll; pragma the site with its \
                     bit-identity contract (elementwise vs reduction carve-out), \
                     citing DESIGN.md §14"
                ),
            });
        }
    }
}

/// The accounting rule: a charge on a receiver that is lexically a
/// timeline (its last path segment contains "timeline") must name its
/// phase — either a `Phase::X` constant or a binding whose name contains
/// `phase`. Charges through receivers with other names are only checked
/// when they already use `Phase::` (and then trivially pass); this is
/// the documented lexical gap.
fn timeline_matches(line: &str, out: &mut Vec<Match>) {
    let lb = line.as_bytes();
    for col in token_positions(line, ".add(") {
        // Receiver: walk left over a path/field expression.
        let mut s = col;
        while s > 0 {
            let b = lb[s - 1];
            if is_ident(b) || b == b'.' || b == b':' || b == b'*' || b == b'&' {
                s -= 1;
            } else {
                break;
            }
        }
        let receiver = &line[s..col];
        let last_segment = receiver.rsplit('.').next().unwrap_or(receiver);
        if !last_segment.to_ascii_lowercase().contains("timeline") {
            continue;
        }
        // First argument: up to the first depth-0 comma (or close paren).
        let args_at = col + ".add(".len();
        let mut depth = 0usize;
        let mut end = args_at;
        while end < lb.len() {
            match lb[end] {
                b'(' | b'[' => depth += 1,
                b')' | b']' if depth == 0 => break,
                b')' | b']' => depth -= 1,
                b',' if depth == 0 => break,
                _ => {}
            }
            end += 1;
        }
        let first_arg = line[args_at..end].trim();
        let named =
            first_arg.contains("Phase::") || first_arg.to_ascii_lowercase().contains("phase");
        if !named {
            out.push(Match {
                col,
                rule: "timeline-phase",
                message: format!(
                    "Timeline charge `{receiver}.add({first_arg}, ...)` does not name its \
                     phase; pass a `Phase::...` constant (or a `phase`-named binding) so \
                     the journal's phase-sum invariant stays auditable"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(line: &str) -> Vec<&'static str> {
        let mut m = Vec::new();
        deterministic_matches(line, &mut m);
        m.into_iter().map(|x| x.rule).collect()
    }

    fn nopanic(line: &str) -> usize {
        let mut m = Vec::new();
        no_panic_matches(line, &mut m);
        m.len()
    }

    #[test]
    fn lexical_det_rule_is_timeline_only_now() {
        // Mentions alone never fire: the clock/RNG/hash rules are
        // flow-aware and live in the taint pass.
        assert!(det("let t = Instant::now();").is_empty());
        assert!(det("let m: HashMap<u32, f32> = HashMap::new();").is_empty());
        assert!(det("let x = instant_rate;").is_empty());
    }

    #[test]
    fn no_panic_hits_and_misses() {
        assert_eq!(nopanic("x.unwrap()"), 1);
        assert_eq!(nopanic("x.expect(\"m\")"), 1);
        assert_eq!(nopanic("panic!(\"boom\")"), 1);
        assert_eq!(nopanic("x.unwrap_or(0)"), 0);
        assert_eq!(nopanic("x.unwrap_or_else(f)"), 0);
        assert_eq!(nopanic("let v = arr[i];"), 0);
        assert_eq!(nopanic("let v = m[\"key\"];"), 1);
    }

    #[test]
    fn net_deadline_hits_and_misses() {
        let net = |l: &str| {
            let mut m = Vec::new();
            net_deadline_matches(l, &mut m);
            m.len()
        };
        assert_eq!(net("stream.read_exact(&mut buf)?;"), 1);
        assert_eq!(net("stream.write_all(&bytes)?;"), 1);
        assert_eq!(net("stream.read_to_end(&mut v)?;"), 1);
        assert_eq!(net("reader.read_until(b'\\n', &mut v)?;"), 1);
        assert_eq!(net("TcpStream::connect(addr)?;"), 1);
        assert_eq!(net("stream.set_read_timeout(None)?;"), 1);
        assert_eq!(net("stream.set_write_timeout(None)?;"), 1);
        // The deadline-carrying forms are exactly what the rule demands.
        assert_eq!(net("TcpStream::connect_timeout(&a, dur(ms))?;"), 0);
        assert_eq!(net("stream.set_read_timeout(Some(dur(ms)))?;"), 0);
        assert_eq!(net("stream.flush()?;"), 0);
        assert_eq!(net("let reconnect = true;"), 0);
    }

    #[test]
    fn metric_name_hits_and_misses() {
        // The matcher sees the code-view line (literal bodies blanked,
        // quotes kept) plus the raw line.
        let check = |raw: &str| {
            let lexed = crate::tokens::tokenize(raw);
            let code = crate::tokens::code_view(raw, &lexed.toks, &lexed.comments);
            let mut m = Vec::new();
            metric_name_matches(&code, raw, &mut m);
            m.len()
        };
        assert_eq!(check("t.counter_add(\"train.steps_hot\", 1);"), 0);
        assert_eq!(check("t.gauge_set(\"serve.hit_rate\", r);"), 0);
        assert_eq!(check("t.observe(\"serve.latency_s\", v);"), 0);
        assert_eq!(check("t.counter_add( \"net.joins\", 1);"), 0, "leading space before literal");
        // Dynamic names (the forwarding layer) are out of lexical reach.
        assert_eq!(check("m.counter_add(name, v);"), 0);
        // Numeric observe (a histogram value, not a telemetry name).
        assert_eq!(check("window.observe(loss);"), 0);
        // Names quoted in comments never fire: the site is located on
        // the code-view line, where comments are blank.
        assert_eq!(check("let x = 1; // call t.counter_add(\"Bad Name\", 1)"), 0);
        // Violations: uppercase, spaces, dashes, separators misused.
        assert_eq!(check("t.counter_add(\"Train.Steps\", 1);"), 1);
        assert_eq!(check("t.gauge_set(\"serve hit rate\", r);"), 1);
        assert_eq!(check("t.observe(\"serve-latency\", v);"), 1);
        assert_eq!(check("t.counter_add(\"\", 1);"), 1);
        assert_eq!(check("t.counter_add(\".joins\", 1);"), 1);
        assert_eq!(check("t.counter_add(\"net..joins\", 1);"), 1);
        assert_eq!(check("t.counter_add(\"net.joins_\", 1);"), 1);
    }

    #[test]
    fn float_fuse_hits_and_misses() {
        let fuse = |l: &str| {
            let mut m = Vec::new();
            float_fuse_matches(l, &mut m);
            m.len()
        };
        assert_eq!(fuse("let mut d = dst.chunks_exact_mut(8);"), 1);
        assert_eq!(fuse("let mut s = src.chunks_exact(8);"), 1);
        assert_eq!(fuse("for (a, b) in x.chunks_exact(8).zip(y.chunks_exact(8)) {"), 2);
        // Other widths and dynamic widths are not the unroll idiom.
        assert_eq!(fuse("let mut d = dst.chunks_exact(4);"), 0);
        assert_eq!(fuse("let mut d = dst.chunks_exact(width);"), 0);
        assert_eq!(fuse("let n = dst.len() / 8;"), 0);
    }

    #[test]
    fn timeline_rule() {
        let fire = |l: &str| det(l).contains(&"timeline-phase");
        assert!(fire("self.timeline.add(p, secs);"));
        assert!(!fire("self.timeline.add(Phase::Transfer, secs);"));
        assert!(!fire("timeline.add(*phase, d.phases.0[i]);"));
        assert!(!fire("hist.add(v);"));
        assert!(!fire("t.add(Phase::Framework, 1.0);"));
    }
}
