// Known-bad fixture: D1 must fire on default-hasher hash collections.
use std::collections::HashMap;
use std::collections::HashSet;

fn flow_table() -> HashMap<u32, u64> {
    let mut m = HashMap::new();
    m.insert(1, 2);
    let mut seen: HashSet<u32> = HashSet::new();
    seen.insert(1);
    m
}

fn hasher() -> std::collections::hash_map::RandomState {
    Default::default()
}
