//! Simulated outputs pinned at the golden seed. A simulator-only change
//! (faster scheduler, cheaper lookup, leaner record store) must reproduce
//! these bit for bit; a mismatch is a failed operation, not a slower
//! number. Regenerate with `perfbench --print-golden` only for a change
//! that is meant to alter the model, and say so.

/// One pinned scenario result. For the model checker, `events` holds the
/// distinct states and `wire_per_barrier` the transitions.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Scenario label.
    pub label: &'static str,
    /// Mean simulated barrier latency, µs.
    pub mean_us: f64,
    /// Engine events delivered.
    pub events: u64,
    /// Wire packets per barrier.
    pub wire_per_barrier: f64,
}

const fn row(label: &'static str, mean_us: f64, events: u64, wire_per_barrier: f64) -> Row {
    Row {
        label,
        mean_us,
        events,
        wire_per_barrier,
    }
}

/// `(workload, tiny, rows)`, pinned at seed 42. paper8 and verify4 do not
/// depend on the seed, so their rows hold for every seed.
#[rustfmt::skip]
const TABLE: &[(&str, bool, &[Row])] = &[
    ("paper8", false, &[
        row("gm-nic-ds", 13.9, 1330264, 24.0),
        row("gm-host-ds", 35.454, 5896008, 48.0),
        row("elan-nic-ds", 5.87, 1768808, 24.0),
        row("elan-gsync4", 15.44, 1125608, 14.0),
    ]),
    ("paper8", true, &[
        row("gm-nic-ds", 13.9, 19864, 24.0),
        row("gm-host-ds", 35.454, 88008, 48.0),
        row("elan-nic-ds", 5.87, 26408, 24.0),
        row("elan-gsync4", 15.44, 16808, 14.0),
    ]),
    ("scale16k", false, &[
        row("gm-nic-ds", 94.4, 1064960, 229376.0),
        row("elan-nic-ds", 32.08, 1458176, 229376.0),
    ]),
    ("scale16k", true, &[
        row("gm-nic-ds", 42.6, 9984, 2048.0),
        row("elan-nic-ds", 14.89, 13568, 2048.0),
    ]),
    ("contend256", false, &[
        row("gm-contend", 141.64000000000001, 452648, 11416.333333333334),
        row("elan-contend", 327.166, 684740, 15737.416666666666),
    ]),
    ("contend256", true, &[
        row("gm-contend", 75.265, 8272, 377.6666666666667),
        row("elan-contend", 158.805, 11104, 490.6666666666667),
    ]),
    ("verify4", false, &[
        row("verify", 0.0, 181023, 769148.0),
    ]),
    ("verify4", true, &[
        row("verify", 0.0, 1617, 19538.0),
    ]),
];

/// Compare `got` with the pinned rows of `workload`, bit for bit.
pub fn check(workload: &str, tiny: bool, got: &[Row]) -> Result<(), String> {
    let Some((_, _, want)) = TABLE.iter().find(|(w, t, _)| *w == workload && *t == tiny) else {
        return Err(format!(
            "no golden values pinned for {workload} (tiny={tiny})"
        ));
    };
    if want.len() != got.len() {
        return Err(format!(
            "{workload}: {} golden rows, {} results",
            want.len(),
            got.len()
        ));
    }
    for (w, g) in want.iter().zip(got) {
        let same = w.label == g.label
            && w.mean_us.to_bits() == g.mean_us.to_bits()
            && w.events == g.events
            && w.wire_per_barrier.to_bits() == g.wire_per_barrier.to_bits();
        if !same {
            return Err(format!(
                "{workload}: golden mismatch: want {w:?}, got {g:?}"
            ));
        }
    }
    Ok(())
}

/// Render rows as table source, for pinning.
pub fn render(workload: &str, tiny: bool, rows: &[Row]) -> String {
    let mut out = format!("    (\"{workload}\", {tiny}, &[\n");
    for r in rows {
        out += &format!(
            "        row(\"{}\", {:?}, {}, {:?}),\n",
            r.label, r.mean_us, r.events, r.wire_per_barrier
        );
    }
    out + "    ]),\n"
}
