//! Known-bad fixture for S1: a suppression comment whose rule no longer
//! fires on the lines it covers, and one naming an id that is not a rule
//! (retired here; a typo looks the same). The directive is the finding.

pub fn quiet() -> u64 {
    // simlint: allow(D4) — legacy justification that no longer applies
    40 + 2
}

pub fn retired() -> u64 {
    // simlint: allow(D1) — was a default-hasher exemption; D1 is clippy's now
    7
}
