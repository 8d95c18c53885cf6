//! Known-bad fixture for S1: a suppression comment whose rule no longer
//! fires on the lines it covers, and one naming an id that is not a rule
//! (retired here; a typo looks the same). The directive is the finding.

pub fn quiet() -> u64 {
    // simlint: allow(D5) — legacy justification that no longer applies
    40 + 2
}

pub fn retired() -> u64 {
    // simlint: allow(D6) — was a fault-RNG exemption; D6 is not a rule any more
    7
}
