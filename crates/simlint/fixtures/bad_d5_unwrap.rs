// Known-bad fixture: D5 must fire on undocumented panics.
fn head(q: &std::collections::VecDeque<u32>) -> u32 {
    let a = q.front().unwrap();
    let b = q.back().expect("");
    *a + *b
}

fn split(q: &std::collections::VecDeque<u32>) -> u32 {
    *q.front()
        .unwrap
        ()
}
