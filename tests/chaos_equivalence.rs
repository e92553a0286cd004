//! The chaos subsystem's acceptance grid: churn never changes answers,
//! injected unsoundness is caught and shrunk, and the run journal
//! warm-starts a fresh process's verdict cache with zero re-checks.

use accrel::prelude::internals::SharedVerdictCache;
use accrel::prelude::*;
use accrel::workloads::differential::{self, FuzzCase, PRIMARY};

/// A churn script that kills the primary mid-run, over every strategy:
/// the threaded, async and serving layers must each report byte-for-byte
/// the sequential engine's access sequence, verdict log, answers and final
/// configuration — the replica silently absorbs the outage.
#[test]
fn killed_primary_runs_match_the_sequential_oracle_byte_for_byte() {
    let script = ChurnScript::builder().kill(10, PRIMARY).build();
    let mut churn_events = 0;
    let mut failovers = 0;
    for strategy in Strategy::all() {
        let case = FuzzCase {
            seed: 1,
            constants: 5,
            facts: 24,
            atoms: 2,
            strategy,
            policy: ResponsePolicy::Exact,
            script: script.clone(),
            unsound_replica: false,
        };
        let outcome = differential::run_case(&case);
        assert_eq!(
            outcome.divergence, None,
            "killed-primary run diverged under {strategy:?}"
        );
        churn_events += outcome.traffic.churn_events;
        failovers += outcome.traffic.failovers;
    }
    // Strategies that stop after a couple of accesses may finish before the
    // chaos clock reaches the kill; across the whole grid it must fire.
    assert!(churn_events > 0, "the kill never fired under any strategy");
    assert!(failovers > 0, "at least one strategy must fail over");
}

/// Flaky-primary churn (retry exhaustion, breaker trips) is also invisible
/// in the answers, and the breakers actually trip.
#[test]
fn flaky_primary_churn_is_absorbed_and_trips_breakers() {
    let script = ChurnScript::builder()
        .set_flaky(
            10,
            PRIMARY,
            Some(FlakyModel {
                period: 1,
                fail_attempts: 5,
                retries: 1,
            }),
        )
        .build();
    // Seed 1 yields a 15-access run: plenty of post-event calls for three
    // consecutive retry exhaustions (the trip) and then open-circuit skips.
    let case = FuzzCase {
        seed: 1,
        constants: 5,
        facts: 24,
        atoms: 2,
        strategy: Strategy::Exhaustive,
        policy: ResponsePolicy::Exact,
        script,
        unsound_replica: false,
    };
    let outcome = differential::run_case(&case);
    assert_eq!(outcome.divergence, None, "flaky churn changed answers");
    assert!(outcome.traffic.failovers > 0, "failures must fail over");
    assert!(
        outcome.traffic.breaker_trips > 0,
        "consecutive retry exhaustion must trip a breaker"
    );
    assert!(
        outcome.traffic.short_circuited > 0,
        "an open breaker must short-circuit later calls"
    );
}

/// The acceptance criterion for the fuzzer: a deliberately unsound replica
/// (same instance, *wrong* `SoundSample` seed) diverges from the oracle as
/// soon as failover routes to it, and the shrinker reduces the failing
/// scenario to a minimal script that still reproduces the divergence.
#[test]
fn unsound_replica_is_caught_and_shrunk_to_a_minimal_script() {
    let script = ChurnScript::builder()
        .set_latency(10, PRIMARY, Some(LatencyModel::recorded(20)))
        .set_latency(20, "provider-b", Some(LatencyModel::recorded(30)))
        .kill(60, PRIMARY)
        .set_latency(200, "provider-b", None)
        .build();
    let case = FuzzCase {
        seed: 3,
        constants: 5,
        facts: 24,
        atoms: 2,
        strategy: Strategy::Exhaustive,
        policy: ResponsePolicy::SoundSample {
            probability: 0.6,
            seed: 1234,
        },
        script,
        unsound_replica: true,
    };
    let outcome = differential::run_case(&case);
    assert!(
        outcome.divergence.is_some(),
        "the unsound replica must be caught:\n{case}"
    );

    let minimal = differential::shrink(&case);
    assert!(
        differential::run_case(&minimal).divergence.is_some(),
        "the shrunk case must still diverge:\n{minimal}"
    );
    assert!(
        minimal.script.len() < case.script.len(),
        "shrinking must drop the irrelevant churn noise:\n{minimal}"
    );
    assert!(
        !minimal.script.is_empty(),
        "without churn the replica is never consulted, so the minimal \
         script must keep a degrading event:\n{minimal}"
    );
}

/// The journal acceptance criterion: a run's journal, replayed into a fresh
/// `SharedVerdictCache` by a *separate process*, warm-starts serving so
/// every journaled relevance check is answered from the restored cache —
/// zero decision procedures re-run. The test re-executes its own binary as
/// the child process; journal-vs-live equality is asserted in the parent.
#[test]
fn journal_replay_warm_starts_the_shared_cache_across_processes() {
    let scenario = bank_scenario();
    let request = vec![RunRequest::new(scenario.query.clone())];

    if let Ok(path) = std::env::var("ACCREL_JOURNAL_REPLAY_PATH") {
        // Child process: restore the cache from the journal alone and serve.
        let restored = SharedVerdictCache::new();
        let summary = accrel::federation::RunJournal::replay(&path, &restored).unwrap();
        assert!(summary.verdicts_restored > 0, "journal held no verdicts");
        assert_eq!(summary.runs, 1);
        let federation = AsyncFederation::single_simulated(SimulatedSource::exact(
            "bank",
            scenario.instance.clone(),
            scenario.methods.clone(),
        ));
        let registry =
            QuerySessionRegistry::with_verdicts(&federation, ServingOptions::default(), restored);
        let report = registry.serve(&request, &scenario.initial_configuration);
        let run = &report.sessions[0].report;
        assert!(run.relevance_shared_hits > 0, "warm start had no effect");
        assert_eq!(
            run.relevance_shared_hits, run.relevance_cache_misses,
            "every relevance check must be a shared-cache hit — zero \
             decision procedures re-run"
        );
        println!("CHILD-OK shared_hits={}", run.relevance_shared_hits);
        return;
    }

    // Parent process: serve live, journal the run and the verdict cache.
    let federation = AsyncFederation::single_simulated(SimulatedSource::exact(
        "bank",
        scenario.instance.clone(),
        scenario.methods.clone(),
    ));
    let registry = QuerySessionRegistry::new(&federation);
    let live = registry.serve(&request, &scenario.initial_configuration);
    let live_run = &live.sessions[0].report;
    assert!(live_run.certain);
    assert_eq!(live_run.relevance_shared_hits, 0, "cold cache on first run");

    let dir = std::env::temp_dir().join(format!("accrel-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("warm_start.journal");
    accrel::federation::RunJournal::write_to(&path, &[live_run], registry.verdict_cache()).unwrap();

    // Journal-vs-live equality: the journal is byte-faithful evidence of
    // what the run did.
    let journaled = accrel::federation::RunJournal::read_runs(&path).unwrap();
    assert_eq!(journaled.len(), 1);
    assert_eq!(journaled[0].access_sequence, live_run.access_sequence);
    assert_eq!(journaled[0].relevance_verdicts, live_run.relevance_verdicts);

    // Re-execute this test in a child process that only sees the journal.
    let exe = std::env::current_exe().unwrap();
    let output = std::process::Command::new(exe)
        .args([
            "--exact",
            "journal_replay_warm_starts_the_shared_cache_across_processes",
            "--nocapture",
        ])
        .env("ACCREL_JOURNAL_REPLAY_PATH", &path)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success() && stdout.contains("CHILD-OK"),
        "child replay failed\n--- stdout ---\n{stdout}\n--- stderr ---\n{}",
        String::from_utf8_lossy(&output.stderr)
    );

    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
}

/// The crash-recovery half of the journal acceptance criterion: a journal
/// whose final append was cut mid-line — as a `kill -9` during a flush
/// leaves it — still warm-starts a *separate process*. The child replay
/// must flag the torn tail, restore every complete verdict line, and serve
/// the journaled query with shared-cache hits; the torn record itself is
/// dropped, never trusted.
#[test]
fn a_torn_journal_tail_still_warm_starts_across_processes() {
    let scenario = bank_scenario();
    let request = vec![RunRequest::new(scenario.query.clone())];

    if let Ok(path) = std::env::var("ACCREL_TORN_JOURNAL_PATH") {
        // Child process: the torn journal must replay, flag the tear, and
        // still warm-start serving.
        let restored = SharedVerdictCache::new();
        let summary = accrel::federation::RunJournal::replay(&path, &restored).unwrap();
        assert!(summary.torn_tail, "the tear must be reported");
        assert_eq!(summary.skipped_lines, 0, "only the tail was damaged");
        assert!(
            summary.verdicts_restored > 0,
            "the complete prefix held no verdicts"
        );
        let federation = AsyncFederation::single_simulated(SimulatedSource::exact(
            "bank",
            scenario.instance.clone(),
            scenario.methods.clone(),
        ));
        let registry =
            QuerySessionRegistry::with_verdicts(&federation, ServingOptions::default(), restored);
        let report = registry.serve(&request, &scenario.initial_configuration);
        let run = &report.sessions[0].report;
        assert!(run.certain, "the served answer must be unaffected");
        assert!(
            run.relevance_shared_hits > 0,
            "a torn tail must not void the warm start"
        );
        println!("CHILD-OK shared_hits={}", run.relevance_shared_hits);
        return;
    }

    // Parent process: serve live, journal, then tear the final line as an
    // interrupted append would.
    let federation = AsyncFederation::single_simulated(SimulatedSource::exact(
        "bank",
        scenario.instance.clone(),
        scenario.methods.clone(),
    ));
    let registry = QuerySessionRegistry::new(&federation);
    let live = registry.serve(&request, &scenario.initial_configuration);
    let live_run = &live.sessions[0].report;

    let dir = std::env::temp_dir().join(format!("accrel-torn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("torn.journal");
    accrel::federation::RunJournal::write_to(&path, &[live_run], registry.verdict_cache()).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes.pop(), Some(b'\n'), "a complete journal ends in \\n");
    // Cut into the final record so its remnant is a non-empty torn line.
    let cut = bytes
        .iter()
        .rposition(|&b| b == b'\n')
        .expect("journal has more than one line")
        + 2;
    assert!(cut < bytes.len());
    bytes.truncate(cut);
    std::fs::write(&path, &bytes).unwrap();

    // Re-execute this test in a child process that only sees the torn file.
    let exe = std::env::current_exe().unwrap();
    let output = std::process::Command::new(exe)
        .args([
            "--exact",
            "a_torn_journal_tail_still_warm_starts_across_processes",
            "--nocapture",
        ])
        .env("ACCREL_TORN_JOURNAL_PATH", &path)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success() && stdout.contains("CHILD-OK"),
        "child replay of the torn journal failed\n--- stdout ---\n{stdout}\n--- stderr ---\n{}",
        String::from_utf8_lossy(&output.stderr)
    );

    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
}

/// The warm-start invariant survives **eager speculation**: prediction
/// probes run on scratch oracles whose shared-cache handle is detached, so
/// they can neither publish speculative verdicts into the registry's
/// `SharedVerdictCache` nor be answered from it. A regression here shows up
/// twice: the live run's first serve would report shared hits from its own
/// speculation (the cache must be cold), and the replayed child would
/// break `shared_hits == cache_misses` because the journal carried probe
/// verdicts the real run never checked.
#[test]
fn eager_speculation_probes_never_leak_into_the_shared_cache() {
    let scenario = bank_scenario();
    // A shallow budget keeps the speculative LTR probes cheap; they still
    // run on scratch oracles, which is all the leak needs.
    let eager = RunOptions {
        speculation: SpeculationMode::Eager,
        budget: SearchBudget::shallow(),
        ..RunOptions::default()
    };
    let request = vec![RunRequest::new(scenario.query.clone()).with_options(eager)];

    if let Ok(path) = std::env::var("ACCREL_EAGER_REPLAY_PATH") {
        let restored = SharedVerdictCache::new();
        let summary = accrel::federation::RunJournal::replay(&path, &restored).unwrap();
        assert!(summary.verdicts_restored > 0, "journal held no verdicts");
        let federation = AsyncFederation::single_simulated(SimulatedSource::exact(
            "bank",
            scenario.instance.clone(),
            scenario.methods.clone(),
        ));
        let registry =
            QuerySessionRegistry::with_verdicts(&federation, ServingOptions::default(), restored);
        let report = registry.serve(&request, &scenario.initial_configuration);
        let run = &report.sessions[0].report;
        assert!(run.relevance_shared_hits > 0, "warm start had no effect");
        assert_eq!(
            run.relevance_shared_hits, run.relevance_cache_misses,
            "every relevance check of the eager run must be a shared-cache \
             hit — speculative probes must not have polluted the journal"
        );
        println!("CHILD-OK shared_hits={}", run.relevance_shared_hits);
        return;
    }

    let federation = AsyncFederation::single_simulated(SimulatedSource::exact(
        "bank",
        scenario.instance.clone(),
        scenario.methods.clone(),
    ));
    let registry = QuerySessionRegistry::new(&federation);
    let live = registry.serve(&request, &scenario.initial_configuration);
    let live_run = &live.sessions[0].report;
    assert!(live_run.certain);
    // The leak's most direct symptom: eager prediction probes publishing
    // into the shared cache make the run's *own* later checks "shared
    // hits" on a supposedly cold cache.
    assert_eq!(
        live_run.relevance_shared_hits, 0,
        "a cold eager run answered checks from its own speculation probes"
    );

    let dir = std::env::temp_dir().join(format!("accrel-eager-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("eager_warm_start.journal");
    accrel::federation::RunJournal::write_to(&path, &[live_run], registry.verdict_cache()).unwrap();

    let exe = std::env::current_exe().unwrap();
    let output = std::process::Command::new(exe)
        .args([
            "--exact",
            "eager_speculation_probes_never_leak_into_the_shared_cache",
            "--nocapture",
        ])
        .env("ACCREL_EAGER_REPLAY_PATH", &path)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success() && stdout.contains("CHILD-OK"),
        "child replay failed\n--- stdout ---\n{stdout}\n--- stderr ---\n{}",
        String::from_utf8_lossy(&output.stderr)
    );

    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
}
