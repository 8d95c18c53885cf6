// Known-bad fixture: D4 must fire on float→integer unit casts.
fn to_nanos(secs: f64) -> u64 {
    (secs * 1e9) as u64
}

fn to_rate(bps: f64) -> u64 {
    bps.round() as u64
}

fn to_bytes(rate_bps: f64, secs: f64) -> u64 {
    (rate_bps * secs
        / 8.0)
        as u64
}
