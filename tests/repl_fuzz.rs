//! Fuzzing the REPL front end: arbitrary input lines must never panic the
//! interpreter, and whatever sequence of commands survives, the database
//! stays consistent.

use isis::repl::Repl;
use isis_session::Session;
use proptest::prelude::*;

/// Lines biased toward almost-valid commands (random verbs with random
/// arguments drawn from real schema names and junk).
fn line_strategy() -> impl Strategy<Value = String> {
    let verbs = prop_oneof![
        Just("pick"),
        Just("pickattr"),
        Just("associations"),
        Just("contents"),
        Just("pop"),
        Just("rename"),
        Just("subclass"),
        Just("attribute"),
        Just("valueclass"),
        Just("grouping"),
        Just("delete"),
        Just("predicate"),
        Just("select"),
        Just("follow"),
        Just("followg"),
        Just("assign"),
        Just("newentity"),
        Just("makesub"),
        Just("scroll"),
        Just("move"),
        Just("pan"),
        Just("define"),
        Just("derive"),
        Just("constraint"),
        Just("atom"),
        Just("edit"),
        Just("push"),
        Just("poplhs"),
        Just("op"),
        Just("rhsmap"),
        Just("rhssrc"),
        Just("const"),
        Just("toggle"),
        Just("done"),
        Just("clause"),
        Just("switch"),
        Just("hand"),
        Just("commit"),
        Just("checks"),
        Just("undo"),
        Just("redo"),
        Just("show"),
        Just("help"),
    ];
    let args = prop_oneof![
        Just("musicians".to_string()),
        Just("instruments".to_string()),
        Just("plays".to_string()),
        Just("family".to_string()),
        Just("size".to_string()),
        Just("by_family".to_string()),
        Just("Edith".to_string()),
        Just("flute".to_string()),
        Just("4".to_string()),
        Just("yes".to_string()),
        Just("=".to_string()),
        Just(">=s".to_string()),
        Just("~".to_string()),
        Just("single".to_string()),
        Just("multi".to_string()),
        Just("forall".to_string()),
        Just("1".to_string()),
        Just("2".to_string()),
        Just("-3".to_string()),
        Just("2147483647".to_string()),
        Just("-2147483648".to_string()),
        Just("A".to_string()),
        "[ -~]{0,12}",
    ];
    (verbs, proptest::collection::vec(args, 0..3)).prop_map(|(v, a)| {
        let mut line = v.to_string();
        for arg in a {
            line.push(' ');
            line.push_str(&arg);
        }
        line
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn repl_never_panics_and_db_stays_consistent(
        lines in proptest::collection::vec(line_strategy(), 1..40)
    ) {
        let im = isis::sample::instrumental_music().unwrap();
        let mut repl = Repl::new(Session::builder(im.db).build());
        for line in &lines {
            // Errors are fine; panics are not.
            let _ = repl.exec(line);
        }
        prop_assert!(repl.session.database().is_consistent().unwrap());
    }

    #[test]
    fn repl_handles_arbitrary_garbage(lines in proptest::collection::vec("[ -~]{0,60}", 1..20)) {
        let im = isis::sample::instrumental_music().unwrap();
        let mut repl = Repl::new(Session::builder(im.db).build());
        for line in &lines {
            let _ = repl.exec(line);
        }
        prop_assert!(repl.session.database().is_consistent().unwrap());
    }
}
