//! P3 fixture: DetRng stream discipline, interprocedurally. `helper_draw`
//! has no subsystem in its own name, but it is only called from RED code,
//! so seeding a private generator there is caught through the chain.
//! `ecmp_select` borrows RED's stream by number, `pick_path` uses a raw
//! number where the named constant exists, and `feedback_probe` names the
//! wrong constant.

fn red_mark(rng: &mut DetRng) -> bool {
    helper_draw()
}

fn helper_draw() -> bool {
    let mut private = DetRng::new(7);
    private.chance(0.5)
}

fn ecmp_select(root: &DetRng) -> DetRng {
    root.stream(2)
}

fn pick_path(root: &DetRng) -> DetRng {
    root.stream(1)
}

fn feedback_probe(root: &DetRng) -> DetRng {
    root.stream(RED_STREAM)
}

// Fault-injection code seeding a private generator, then borrowing RED's
// stream by raw number: either couples fault draws to the workload/ECMP/RED
// sequences, so enabling faults would perturb a fault-free run's draws.
fn fault_channel(seed: u64) -> DetRng {
    DetRng::new(seed)
}

fn link_fault_draw(root: &DetRng) -> DetRng {
    root.stream(2)
}
