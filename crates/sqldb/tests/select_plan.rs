//! A SELECT answered by the versioned store (prepared once, columns
//! bound to positions) against the same text run by the online engine
//! (resolved by name): equal rows, and equal errors in the same order —
//! a WHERE error before a sort key's, a sort key's before the
//! projection's, aggregates in item order — whether or not any row is
//! kept.

use orochi_sqldb::{Database, SqlError, SqlValue, VersionedDb, MAXQ};

fn db() -> Database {
    let mut db = Database::new();
    for sql in [
        "CREATE TABLE p (id INT PRIMARY KEY AUTO_INCREMENT, title TEXT, views INT, INDEX(title))",
        "INSERT INTO p (title, views) VALUES ('alpha', 3), ('beta', 5), ('alpha', NULL), ('gamma', 1)",
    ] {
        db.execute_autocommit(sql).0.unwrap();
    }
    db
}

/// A read's rows, or its error.
type Answer = Result<Vec<Vec<SqlValue>>, SqlError>;

fn no_such_column(name: &str) -> Answer {
    Err(SqlError::NoSuchColumn(name.into()))
}

#[test]
fn prepared_reads_fail_and_succeed_like_the_online_engine() {
    let mut online = db();
    let vdb = VersionedDb::from_snapshot(&online);
    let int = |i: i64| vec![SqlValue::Int(i)];
    let cases: Vec<(&str, Answer)> = vec![
        (
            "SELECT id FROM p WHERE title = 'alpha'",
            Ok(vec![int(1), int(3)]),
        ),
        (
            "SELECT id FROM p WHERE title = 'beta' AND views = 5",
            Ok(vec![int(2)]),
        ),
        ("SELECT id FROM p WHERE title = 'zeta'", Ok(vec![])),
        (
            "SELECT id FROM p ORDER BY views DESC, id",
            Ok(vec![int(2), int(1), int(4), int(3)]),
        ),
        (
            "SELECT id FROM p ORDER BY id LIMIT 2 OFFSET 1",
            Ok(vec![int(2), int(3)]),
        ),
        ("SELECT id FROM p LIMIT 0", Ok(vec![])),
        ("SELECT id FROM p LIMIT 5 OFFSET 9", Ok(vec![])),
        (
            "SELECT COUNT(*) FROM p WHERE views IS NULL",
            Ok(vec![int(1)]),
        ),
        (
            "SELECT id FROM p WHERE views IN (1, 5) AND title LIKE '%a'",
            Ok(vec![int(2), int(4)]),
        ),
        // Short-circuit: `nope` is evaluated only for rows the left side
        // does not decide.
        (
            "SELECT id FROM p WHERE id > 0 OR nope = 1",
            Ok(vec![int(1), int(2), int(3), int(4)]),
        ),
        (
            "SELECT id FROM p WHERE id = 1 OR nope = 1",
            no_such_column("nope"),
        ),
        // The WHERE error outranks the projection's, which stands alone
        // once no row is kept.
        ("SELECT nope FROM p WHERE bad = 1", no_such_column("bad")),
        ("SELECT nope FROM p WHERE id = 99", no_such_column("nope")),
        ("SELECT nope FROM p ORDER BY bad", no_such_column("bad")),
        (
            "SELECT id FROM p WHERE id = 99 ORDER BY bad",
            no_such_column("bad"),
        ),
        (
            "SELECT COUNT(*), id FROM p WHERE id = 99",
            Err(SqlError::Unsupported(
                "mixing aggregates and plain columns (no GROUP BY)".into(),
            )),
        ),
        (
            "SELECT SUM(title), MAX(nope) FROM p",
            Err(SqlError::TypeError("SUM over 'alpha'".into())),
        ),
        (
            "SELECT MAX(nope), SUM(title) FROM p",
            no_such_column("nope"),
        ),
        (
            "SELECT id FROM p WHERE -title = 1",
            Err(SqlError::TypeError("cannot negate 'alpha'".into())),
        ),
    ];
    for (sql, want) in cases {
        let rows = |r: Result<orochi_sqldb::ExecOutcome, SqlError>| -> Answer {
            r.map(|out| out.rows().expect("a SELECT").to_vec())
        };
        let got_online = rows(online.execute_autocommit(sql).0);
        let prepared = vdb.prepare(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let got_versioned = rows(vdb.run_at(&prepared, MAXQ));
        assert_eq!(got_online, want, "online: {sql}");
        assert_eq!(got_versioned, want, "versioned: {sql}");
    }
}

#[test]
fn aggregate_and_projection_names_are_the_statement_s() {
    let vdb = VersionedDb::from_snapshot(&db());
    for (sql, columns) in [
        (
            "SELECT COUNT(*), MAX(views), SUM(views) AS s FROM p",
            vec!["COUNT(*)", "MAX(VIEWS)", "s"],
        ),
        (
            "SELECT *, title AS t FROM p WHERE id = 1",
            vec!["id", "title", "views", "t"],
        ),
    ] {
        match vdb.query_at(sql, MAXQ).unwrap() {
            orochi_sqldb::ExecOutcome::Rows { columns: got, .. } => {
                assert_eq!(got, columns, "{sql}")
            }
            other => panic!("{sql}: {other:?}"),
        }
    }
}
