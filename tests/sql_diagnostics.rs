//! The SQL path's diagnostics, pinned: forged database logs that reach
//! the redo pass's statement table or the prepared reads (a repeated
//! SELECT, an unparseable text, a read of a table the log creates later
//! or never) are rejected with one rendered verdict on the batch, pooled
//! and streaming audits at every thread count, and the verdict is pinned
//! byte for byte.

use orochi::accphp::AccPhpExecutor;
use orochi::core::audit::{audit, audit_parallel, AuditConfig, Rejection};
use orochi::core::streaming::audit_streaming_source;
use orochi::php::{compile, parse_script, CompiledScript};
use orochi::server::server::AuditBundle;
use orochi::server::{Server, ServerConfig};
use orochi::sqldb::Database;
use orochi::state::{DbWriteResult, ObjectName, OpContents, OpLog};
use orochi::trace::HttpRequest;
use orochi_common::ids::RequestId;
use std::collections::HashMap;

const THREADS: &[usize] = &[1, 2, 8];

/// Events per streamed epoch: small enough that the fixture spans
/// several epochs.
const EPOCH_EVENTS: usize = 4;

/// How the parser rejects a text that starts with no statement keyword.
const SYNTAX: &str =
    "syntax error at token 0: expected SELECT, INSERT, UPDATE, DELETE, or CREATE TABLE";

fn scripts() -> HashMap<String, CompiledScript> {
    let script = |path: &str, src: &str| {
        let compiled = compile(path, &parse_script(src).unwrap()).unwrap();
        (path.to_string(), compiled)
    };
    HashMap::from([
        script(
            "/read.php",
            r#"<?php
            $r = db_query('SELECT v FROM notes WHERE id = 1');
            echo is_array($r) ? $r[0]['v'] : 'none';
            "#,
        ),
        script(
            "/write.php",
            r#"<?php
            db_query("UPDATE notes SET v = 'b' WHERE id = 1");
            echo 'ok';
            "#,
        ),
        script(
            "/peek.php",
            r#"<?php
            $r = db_query('SELECT id FROM later');
            echo is_array($r) ? 'rows:' . count($r) : 'none';
            "#,
        ),
        script(
            "/make.php",
            r#"<?php
            db_query('CREATE TABLE later (id INT PRIMARY KEY)');
            echo 'made';
            "#,
        ),
    ])
}

fn initial_db() -> Database {
    let mut db = Database::new();
    for sql in [
        "CREATE TABLE notes (id INT PRIMARY KEY, v TEXT)",
        "INSERT INTO notes (id, v) VALUES (1, 'a')",
    ] {
        db.execute_autocommit(sql).0.unwrap();
    }
    db
}

/// Serves `paths` in order, one autocommitted statement each: the
/// database log's sequence number `k` is the `k`-th request's query.
fn serve(paths: &[&str]) -> AuditBundle {
    let server = Server::new(ServerConfig {
        scripts: scripts(),
        initial_db: initial_db(),
        recording: true,
        seed: 5,
        ..Default::default()
    });
    for path in paths {
        server.handle(HttpRequest::get(path, &[]));
    }
    server.into_bundle()
}

/// Rewrites the database log's entries in place.
fn forge(bundle: &mut AuditBundle, edit: impl Fn(u64, &mut OpContents)) {
    let i = bundle
        .reports
        .op_logs
        .index_of(&ObjectName("db:main".into()))
        .expect("db log present");
    let log = bundle.reports.op_logs.log_mut(i).unwrap();
    let mut entries = log.entries().to_vec();
    for (k, entry) in entries.iter_mut().enumerate() {
        edit(k as u64 + 1, &mut entry.contents);
    }
    *log = OpLog::from_entries(entries);
}

fn verdict<T>(run: &Result<T, Rejection>) -> String {
    match run {
        Ok(_) => "accept".to_string(),
        Err(r) => format!("reject:{r}"),
    }
}

/// The verdict of every audit path at every thread count, asserted
/// identical and returned once.
fn verdict_on_every_path(bundle: &AuditBundle) -> String {
    let mut config = AuditConfig::new();
    config
        .initial_dbs
        .insert("db:main".to_string(), initial_db());
    let pool = |n: usize| -> Vec<AccPhpExecutor> {
        (0..n).map(|_| AccPhpExecutor::new(scripts())).collect()
    };
    let (trace, reports) = (&bundle.trace, &bundle.reports);
    let batch = verdict(&audit(trace, reports, &mut pool(1)[0], &config));
    for &threads in THREADS {
        let pooled = verdict(&audit_parallel(trace, reports, &mut pool(threads), &config));
        let streamed = verdict(&audit_streaming_source(
            trace,
            reports,
            &mut pool(threads),
            &config,
            EPOCH_EVENTS,
        ));
        assert_eq!(pooled, batch, "pooled audit at {threads} threads");
        assert_eq!(streamed, batch, "streaming audit at {threads} threads");
    }
    batch
}

const READS: &[&str] = &[
    "/read.php",
    "/read.php",
    "/write.php",
    "/read.php",
    "/peek.php",
    "/make.php",
    "/peek.php",
];

#[test]
fn honest_log_accepts_everywhere() {
    assert_eq!(verdict_on_every_path(&serve(READS)), "accept");
}

#[test]
fn repeated_select_with_a_logged_write_result_rejects_at_the_repeat() {
    let mut bundle = serve(READS);
    forge(&mut bundle, |seq, contents| {
        if let OpContents::DbOp { write_results, .. } = contents {
            if seq == 4 {
                write_results[0] = Some(DbWriteResult {
                    affected: 0,
                    last_insert_id: None,
                });
            }
        }
    });
    assert_eq!(
        verdict_on_every_path(&bundle),
        "reject:versioned redo: transaction 4 query 1: logged write result differs from redo"
    );
}

#[test]
fn unparseable_text_repeated_across_commits_rejects_at_its_first_occurrence() {
    let mut bundle = serve(READS);
    forge(&mut bundle, |_, contents| {
        if let OpContents::DbOp { queries, .. } = contents {
            if queries[0].starts_with("SELECT v") {
                queries[0] = "SELEKT v FROM notes".into();
            }
        }
    });
    assert_eq!(
        verdict_on_every_path(&bundle),
        format!("reject:versioned redo: committed transaction 1 failed at query 1 during redo: {SYNTAX}")
    );
}

#[test]
fn unparseable_text_first_seen_aborted_rejects_where_it_commits() {
    // Sequence 5 is the aborted read of the missing table; its text,
    // made unparseable, is still a consistent abort. Sequence 7 commits
    // the same text.
    let mut bundle = serve(READS);
    forge(&mut bundle, |_, contents| {
        if let OpContents::DbOp { queries, .. } = contents {
            if &*queries[0] == "SELECT id FROM later" {
                queries[0] = "SELEKT id FROM later".into();
            }
        }
    });
    assert_eq!(
        verdict_on_every_path(&bundle),
        format!("reject:versioned redo: committed transaction 7 failed at query 1 during redo: {SYNTAX}")
    );
}

#[test]
fn committed_read_of_a_table_created_later_reads_the_finished_store() {
    // The read at sequence 5 failed online (the table did not exist
    // yet); the forged log claims it committed.
    let mut bundle = serve(READS);
    forge(&mut bundle, |seq, contents| {
        if let OpContents::DbOp { succeeded, .. } = contents {
            if seq == 5 {
                *succeeded = true;
            }
        }
    });
    // Prepared against the finished store, the read sees the table empty
    // at its version; the program then takes the `is_array` branch it
    // never took online, so its control-flow tag is not the one its
    // group claims.
    let tag = bundle
        .reports
        .groupings
        .iter()
        .find(|(_, rids)| rids.contains(&RequestId(5)));
    assert_eq!(
        verdict_on_every_path(&bundle),
        format!("reject:control-flow group {} diverged", tag.unwrap().0)
    );
}

#[test]
fn committed_read_of_a_table_never_created_fails_like_the_text() {
    let mut bundle = serve(&["/read.php", "/peek.php", "/read.php"]);
    forge(&mut bundle, |seq, contents| {
        if let OpContents::DbOp { succeeded, .. } = contents {
            if seq == 2 {
                *succeeded = true;
            }
        }
    });
    assert_eq!(
        verdict_on_every_path(&bundle),
        "reject:re-execution failed: query_at: no such table: later"
    );
}
