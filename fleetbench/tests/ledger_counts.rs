//! The traced pass's ledger counts are the same at 1 and 2 threads, so
//! a claim resting on a count (slots processed, keystream blocks,
//! fallbacks) holds whatever thread count measured it.

use fleetbench::workload::{Kind, Prepared};
use scenario_fleet::Collector;

fn traced_ledger(kind: Kind, threads: usize) -> String {
    let artifact_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let prepared = Prepared::new(kind, 2026, threads, artifact_dir).expect("set-up succeeds");
    let collector = Collector::recording();
    prepared.sample(&collector).expect("traced sample succeeds");
    collector.ledger().to_json_string()
}

#[test]
fn traced_ledgers_match_across_thread_counts() {
    for kind in [Kind::Golden200, Kind::Wide200, Kind::Delta200] {
        let one = traced_ledger(kind, 1);
        let two = traced_ledger(kind, 2);
        assert!(
            one.contains("slots/processed"),
            "{}: empty ledger",
            kind.name()
        );
        assert_eq!(
            one,
            two,
            "{}: ledger differs between 1 and 2 threads",
            kind.name()
        );
    }
}
