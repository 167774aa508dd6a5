//! The sharing counters, pinned on a group small enough to count by
//! hand. Alone in its file: the counters are process-wide, and a
//! neighbouring test's audit would move them.

use orochi::accphp::AccPhpExecutor;
use orochi::core::audit::{audit, AuditConfig};
use orochi::obs::registry::counter;
use orochi::php::{compile, parse_script};
use orochi::server::{Server, ServerConfig};
use orochi::sqldb::Database;
use orochi::trace::HttpRequest;
use std::collections::HashMap;

#[test]
fn one_group_converts_each_distinct_result_once_and_computes_each_distinct_operand_once() {
    let src = r#"<?php
        $rows = db_query('SELECT id, title FROM papers ORDER BY id');
        $p = db_query('SELECT title FROM papers WHERE id = ' . intval($_GET['id']));
        echo count($rows) . ':' . htmlspecialchars($p[0]['title']);
    "#;
    let script = compile("/p.php", &parse_script(src).unwrap()).unwrap();
    let scripts: HashMap<_, _> = [("/p.php".to_string(), script)].into();
    let mut db = Database::new();
    for sql in [
        "CREATE TABLE papers (id INT PRIMARY KEY, title TEXT)",
        "INSERT INTO papers (id, title) VALUES (1, '<one>'), (2, '<two>')",
    ] {
        db.execute_autocommit(sql).0.unwrap();
    }
    let server = Server::new(ServerConfig {
        scripts: scripts.clone(),
        initial_db: db.deep_clone(),
        recording: true,
        seed: 3,
        ..Default::default()
    });
    // Eight lanes over two papers.
    for id in ["1", "2", "1", "1", "2", "1", "2", "2"] {
        let page = server.handle(HttpRequest::get("/p.php", &[("id", id)]));
        assert_eq!(
            page.body,
            format!("2:&lt;{}&gt;", ["one", "two"][(id == "2") as usize])
        );
    }
    let bundle = server.into_bundle();
    let mut config = AuditConfig::new();
    config.initial_dbs.insert("db:main".to_string(), db);

    let names = [
        "accphp_result_conversions",
        "accphp_lane_memo_hits",
        "accphp_lane_memo_misses",
    ];
    let read = || names.map(|n| counter(n).get());
    let before = read();
    let mut verifier = AccPhpExecutor::new(scripts);
    let outcome = audit(&bundle.trace, &bundle.reports, &mut verifier, &config)
        .unwrap_or_else(|r| panic!("honest run rejected: {r}"));
    let [conversions, hits, misses] = {
        let after = read();
        [0, 1, 2].map(|i| after[i] - before[i])
    };

    assert_eq!(verifier.stats.grouped, 1);
    // Sixteen SELECTs, three distinct (the list, paper 1, paper 2):
    // three issued, three converted — not sixteen.
    assert_eq!(outcome.stats.db_queries_issued, 3);
    assert_eq!(outcome.stats.db_queries_deduped, 13);
    assert_eq!(conversions, 3);
    // Seven multivalent pure instructions over eight lanes. Lanes with
    // equal query strings share one `$_GET` array, so from the first
    // instruction on the lanes hold two distinct values — `$_GET`, the
    // id read out of it, its `intval`, the SQL text built from it, the
    // result, its row, the title: reading `['id']`, `intval`, the
    // concatenation into the SQL, `$p[0]`, `['title']`,
    // `htmlspecialchars` and the final concatenation each compute two
    // lanes and share six.
    assert_eq!((hits, misses), (7 * 6, 7 * 2));
}
