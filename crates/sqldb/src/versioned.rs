//! The audit-time versioned database (§4.5, §A.7).
//!
//! At the beginning of an audit the verifier performs a **versioned redo
//! pass** over the database's operation log: every transaction is replayed
//! into a versioned store, with the version set to the transaction's log
//! sequence number. Following Warp's schema, every row version carries
//! `start_ts` and `end_ts` columns; during re-execution, read queries are
//! answered at version `ts` by restricting to rows with
//! `start_ts <= ts < end_ts`.
//!
//! Within a multi-statement transaction, individual queries receive the
//! timestamp `ts = s · MAXQ + q`, where `s` is the transaction's sequence
//! number, `q` the query's position, and `MAXQ` the maximum queries per
//! transaction (10,000, as in the paper) — so intra-transaction reads see
//! the transaction's earlier writes (§A.7).
//!
//! The store keeps the latest state as a plain [`Database`], and the
//! redo runs every logged write on it: the online engine is the one
//! place a SQL write is applied (auto-increment, type admission,
//! primary-key uniqueness, affected counts). What a statement changed —
//! its undo records — becomes row versions at the statement's `ts`.
//!
//! Beyond the paper's description, the redo pass here also *checks*:
//! committed transactions must replay without error and reproduce the
//! logged per-statement write results (affected counts, auto-increment
//! ids); aborted transactions are replayed on the latest state and
//! rolled back, must fail exactly where the log says they failed, and
//! their read results are captured for re-execution (an aborted
//! transaction's reads are not expressible as a `[start_ts, end_ts)`
//! interval query, since its writes must be visible to later queries of
//! the same transaction only).
//!
//! The store also tracks, per table, the list of modification timestamps.
//! Read-query deduplication (§4.5) uses these: two lexically identical
//! SELECTs can share a result if the tables they touch were not modified
//! between their versions, which the verifier tests by comparing
//! *modification epochs* ([`VersionedDb::mod_epoch`]).
//!
//! Lexically identical SELECTs are also the common case. The redo pass
//! parses each distinct SELECT text once (a repeat costs a lookup) and
//! records which SELECT every redone query position holds
//! ([`VersionedDb::select_at`]). After the last redo step,
//! [`VersionedDb::prepare_selects`] binds each distinct SELECT once —
//! table resolved, columns positioned, index probe chosen — into a
//! [`PreparedQuery`] that runs and epoch-tests at any number of versions;
//! [`VersionedDb::prepare`] does the same for a text from outside the log.

use crate::ast::{BinOp, Expr, Statement};
use crate::engine::{
    row_bytes, run_select, Database, ExecOutcome, SelectPlan, SqlError, UndoOp, WriteOutcome,
};
use crate::parser::{parse_statement, ParseError};
use crate::schema::TableSchema;
use crate::value::{IndexKey, SqlValue};
use orochi_common::codec::HandleMap;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// Maximum queries per transaction; query `q` of transaction `s` executes
/// at version `s * MAXQ + q` (§A.7).
pub const MAXQ: u64 = 10_000;

/// Error produced by the redo pass. Any redo error causes the audit to
/// reject: the operation log cannot describe a real execution.
#[derive(Debug, Clone, PartialEq)]
pub enum RedoError {
    /// A committed transaction's statement failed during replay.
    CommittedTxnFailed {
        /// Transaction sequence number.
        seq: u64,
        /// 1-based query position.
        query: u64,
        /// The underlying error.
        error: SqlError,
    },
    /// Replay produced a write result different from the logged one.
    WriteResultMismatch {
        /// Transaction sequence number.
        seq: u64,
        /// 1-based query position.
        query: u64,
    },
    /// An aborted transaction replayed cleanly where the log claims an
    /// error, or failed at the wrong statement.
    AbortShapeMismatch {
        /// Transaction sequence number.
        seq: u64,
    },
    /// A transaction exceeded [`MAXQ`] queries.
    TooManyQueries {
        /// Transaction sequence number.
        seq: u64,
    },
    /// Sequence numbers must be presented in increasing order.
    NonMonotonicSeq {
        /// The offending sequence number.
        seq: u64,
    },
}

impl fmt::Display for RedoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RedoError::CommittedTxnFailed { seq, query, error } => write!(
                f,
                "committed transaction {seq} failed at query {query} during redo: {error}"
            ),
            RedoError::WriteResultMismatch { seq, query } => write!(
                f,
                "transaction {seq} query {query}: logged write result differs from redo"
            ),
            RedoError::AbortShapeMismatch { seq } => {
                write!(f, "aborted transaction {seq} does not replay as logged")
            }
            RedoError::TooManyQueries { seq } => {
                write!(f, "transaction {seq} exceeds MAXQ queries")
            }
            RedoError::NonMonotonicSeq { seq } => {
                write!(f, "transaction sequence {seq} not increasing")
            }
        }
    }
}

impl std::error::Error for RedoError {}

/// Statistics from the redo pass (feeds the Fig. 9 "DB redo" row and the
/// Fig. 8 DB-overhead column).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RedoStats {
    /// Transactions replayed.
    pub transactions: u64,
    /// Individual queries processed.
    pub queries: u64,
    /// Row versions created (initial snapshot included).
    pub versions_created: u64,
    /// Aborted transactions replayed and rolled back.
    pub aborted: u64,
}

/// One version of one logical row.
#[derive(Debug, Clone)]
struct RowVersion {
    /// Logical row identity; preserves the online engine's scan order.
    rowid: u64,
    /// First version (inclusive) at which this row image is visible.
    start: u64,
    /// First version at which it is no longer visible (`u64::MAX` while
    /// live).
    end: u64,
    /// The row image.
    row: Vec<SqlValue>,
}

#[derive(Debug)]
struct VersionedTable {
    schema: TableSchema,
    versions: Vec<RowVersion>,
    /// rowid -> index of the live version (end == MAX).
    live: HashMap<u64, usize>,
    /// Equality indexes over *all* versions: column position -> key ->
    /// version indices.
    eq_index: HashMap<usize, HashMap<IndexKey, Vec<usize>>>,
    /// Timestamps at which the table was modified, increasing.
    mod_ts: Vec<u64>,
}

impl VersionedTable {
    fn new(schema: TableSchema) -> Self {
        let eq_index = schema
            .indexed_columns()
            .into_iter()
            .map(|pos| (pos, HashMap::new()))
            .collect();
        Self {
            schema,
            versions: Vec::new(),
            live: HashMap::new(),
            eq_index,
            mod_ts: Vec::new(),
        }
    }

    /// Pushes a new live version and indexes it.
    fn push_version(&mut self, rowid: u64, start: u64, row: Vec<SqlValue>) {
        let idx = self.versions.len();
        for (col, index) in self.eq_index.iter_mut() {
            index.entry(row[*col].index_key()).or_default().push(idx);
        }
        self.versions.push(RowVersion {
            rowid,
            start,
            end: u64::MAX,
            row,
        });
        self.live.insert(rowid, idx);
    }

    /// Ends the live version of `rowid` at `ts` and unlinks it.
    fn kill_version(&mut self, rowid: u64, ts: u64) {
        if let Some(idx) = self.live.remove(&rowid) {
            self.versions[idx].end = ts;
        }
    }

    fn mark_modified(&mut self, ts: u64) {
        if self.mod_ts.last() != Some(&ts) {
            self.mod_ts.push(ts);
        }
    }

    /// Indices of versions visible at `ts`, in rowid order.
    fn visible_at(&self, ts: u64) -> Visible {
        let visible = self.versions.iter().enumerate();
        Visible::Many(in_rowid_order(
            visible
                .filter(|(_, v)| v.visible_at(ts))
                .map(|(i, v)| (v.rowid, i)),
        ))
    }

    /// Indexed candidates for `col = key` at `ts`, in rowid order; `None`
    /// if the column has no index. A lone candidate (the common case on
    /// a key column) is returned as is, without a list to sort.
    fn candidates(&self, col: usize, key: &IndexKey, ts: u64) -> Option<Visible> {
        let ids = self
            .eq_index
            .get(&col)?
            .get(key)
            .map_or(&[][..], Vec::as_slice);
        let mut visible = ids
            .iter()
            .filter(|&&i| self.versions[i].visible_at(ts))
            .map(|&i| (self.versions[i].rowid, i));
        let Some(first) = visible.next() else {
            return Some(Visible::One(None));
        };
        Some(match visible.next() {
            None => Visible::One(Some(first.1)),
            Some(second) => {
                Visible::Many(in_rowid_order([first, second].into_iter().chain(visible)))
            }
        })
    }
}

impl RowVersion {
    fn visible_at(&self, ts: u64) -> bool {
        self.start <= ts && ts < self.end
    }
}

/// Version indices a read sees, in rowid order.
enum Visible {
    One(Option<usize>),
    Many(Vec<usize>),
}

impl Visible {
    fn as_slice(&self) -> &[usize] {
        match self {
            Visible::One(one) => one.as_slice(),
            Visible::Many(many) => many,
        }
    }
}

/// The version indices of `(rowid, index)` pairs, sorted by rowid.
fn in_rowid_order(pairs: impl Iterator<Item = (u64, usize)>) -> Vec<usize> {
    let mut pairs: Vec<(u64, usize)> = pairs.collect();
    pairs.sort_unstable_by_key(|(rowid, _)| *rowid);
    pairs.into_iter().map(|(_, i)| i).collect()
}

/// A SELECT parsed once and bound to the [`VersionedDb`] that prepared
/// it: the table is an index into that store (not a name to look up per
/// run), the WHERE clause's columns are positions, the output shape is
/// resolved and the equality-index probe is already chosen. Running it
/// against any other store is a bug.
#[derive(Debug)]
pub struct PreparedQuery {
    /// WHERE, with every column the table has bound to its position.
    filter: Option<Expr>,
    plan: SelectPlan,
    /// Position of the queried table in the preparing store's `tables`.
    table: usize,
    /// The first `col = literal` conjunct over an indexed column: the
    /// column position and the literal's index key.
    probe: Option<(usize, IndexKey)>,
}

/// Every distinct SELECT text the redo pass has met, parsed once: a
/// SELECT repeated across the log (the common case) costs a lookup, not
/// a parse.
///
/// The redo's work per reference to a read-logged text must be O(1):
/// decoded reports give every reference to one dictionary entry the
/// same handle, so a few wire bytes per reference would otherwise buy a
/// hash of the whole text each. Texts are therefore found through a
/// [`HandleMap`], which finds a handle met before by its address: no
/// text is hashed more than twice. A handle met once — every handle of
/// reports the server logged — costs one hash of its text. Only a
/// committed transaction's reads arrive shared, and the redo skips a
/// committed SELECT; an aborted transaction's queries are executed, so
/// each crosses the wire as a literal and costs what its bytes cost. A
/// read-logged text that is not a SELECT is honest only as the failing
/// final statement of an aborted transaction; it is parsed once too. A
/// query logged with a write result is a write, or the log is rejected:
/// its text — which carries its values, so seldom repeats, and may be
/// long — is parsed where it occurs and not kept.
#[derive(Default)]
struct Selects {
    /// Text -> its parse.
    texts: HandleMap<str, Parsed>,
    /// Each a `Statement::Select`, by select id.
    parsed: Vec<Statement>,
    /// Read-logged texts that are not SELECTs (or do not parse).
    others: Vec<Result<Statement, ParseError>>,
}

/// A read-logged query's parse: a SELECT by its id, anything else by its
/// position in [`Selects::others`].
#[derive(Clone, Copy)]
enum Parsed {
    Select(u32),
    Other(u32),
}

/// [`VersionedDb::redone`]'s mark for a query that is not a SELECT.
const NOT_A_SELECT: u32 = u32::MAX;

impl Parsed {
    fn select_id(self) -> u32 {
        match self {
            Parsed::Select(id) => id,
            Parsed::Other(_) => NOT_A_SELECT,
        }
    }
}

impl Selects {
    /// The parse of a read-logged query's text.
    fn read(&mut self, sql: &Arc<str>) -> Parsed {
        let (parsed, others) = (&mut self.parsed, &mut self.others);
        self.texts
            .get_or_insert_with(sql, || match parse_statement(sql) {
                Ok(select @ Statement::Select(_)) => {
                    parsed.push(select);
                    Parsed::Select(parsed.len() as u32 - 1)
                }
                other => {
                    others.push(other);
                    Parsed::Other(others.len() as u32 - 1)
                }
            })
    }

    fn get(&self, parsed: Parsed) -> Result<&Statement, &ParseError> {
        match parsed {
            Parsed::Select(id) => Ok(&self.parsed[id as usize]),
            Parsed::Other(at) => self.others[at as usize].as_ref(),
        }
    }
}

/// The audit-time versioned database.
pub struct VersionedDb {
    /// The latest state, on which the redo runs every write.
    latest: Database,
    /// Tables in creation order; a table's position is its id for the
    /// store's lifetime (tables are never dropped).
    tables: Vec<VersionedTable>,
    /// Table name -> position in `tables`.
    table_ids: BTreeMap<String, usize>,
    selects: Selects,
    /// The select id of every query redone so far (or [`NOT_A_SELECT`]),
    /// in log order: the flat index [`Self::select_at`] reads.
    redone: Vec<u32>,
    /// SELECT results captured while replaying aborted transactions,
    /// keyed by `(seq, query)`; shared handles, like every query result
    /// the store gives out.
    aborted_reads: HashMap<(u64, u64), Arc<ExecOutcome>>,
    /// Sequence numbers of aborted transactions whose final statement
    /// errored during replay (as opposed to an explicit rollback).
    aborted_failures: std::collections::HashSet<u64>,
    last_seq: u64,
    stats: RedoStats,
}

// After the redo pass the store is only read (`run_at`, `mod_epoch`,
// `aborted_read`, ... all take `&self`), so the parallel audit shares
// one built store per object across its worker threads without locking.
// Guard that property at compile time.
const _: fn() = || {
    fn shareable<T: Send + Sync>() {}
    shareable::<VersionedDb>();
};

impl VersionedDb {
    /// Initializes the store from the state at the start of the audited
    /// period; initial rows get `start_ts = 0`.
    pub fn from_snapshot(db: &Database) -> Self {
        let mut out = Self {
            latest: db.deep_clone(),
            tables: Vec::new(),
            table_ids: BTreeMap::new(),
            selects: Selects::default(),
            redone: Vec::new(),
            aborted_reads: HashMap::new(),
            aborted_failures: std::collections::HashSet::new(),
            last_seq: 0,
            stats: RedoStats::default(),
        };
        for name in db.table_names() {
            let src = db.table(&name).expect("name from table_names");
            let mut vt = VersionedTable::new(src.schema.clone());
            for (rowid, row) in &src.rows {
                vt.push_version(*rowid, 0, row.clone());
                out.stats.versions_created += 1;
            }
            out.table_ids.insert(name, out.tables.len());
            out.tables.push(vt);
        }
        out
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> RedoStats {
        self.stats
    }

    /// Replays one logged transaction (the redo pass, §4.5). `seq` values
    /// must increase across calls. Computed per-query write results are
    /// compared against the logged ones — the verifier's check that turns
    /// the paper's unverifiable database nondeterminism (§4.6) into a
    /// checked report.
    ///
    /// For `succeeded = false`, the transaction is replayed on the latest
    /// state and rolled back; its SELECT results are retained for
    /// [`Self::aborted_read`] and the store itself is unchanged.
    ///
    /// After an error the store is not to be read: the audit rejects.
    pub fn redo_transaction(
        &mut self,
        seq: u64,
        queries: &[Arc<str>],
        succeeded: bool,
        logged_results: &[Option<WriteOutcome>],
    ) -> Result<(), RedoError> {
        if seq <= self.last_seq {
            return Err(RedoError::NonMonotonicSeq { seq });
        }
        self.last_seq = seq;
        if queries.len() as u64 >= MAXQ {
            return Err(RedoError::TooManyQueries { seq });
        }
        if logged_results.len() != queries.len() {
            return Err(RedoError::AbortShapeMismatch { seq });
        }
        self.stats.transactions += 1;
        self.stats.queries += queries.len() as u64;
        self.latest
            .begin()
            .expect("no transaction open between redo steps");
        let redone = if succeeded {
            self.redo_committed(seq, queries, logged_results)
        } else {
            self.stats.aborted += 1;
            self.redo_aborted(seq, queries, logged_results)
        };
        if succeeded && redone.is_ok() {
            self.latest.commit().expect("transaction open");
        } else {
            self.latest.rollback().expect("transaction open");
        }
        redone
    }

    fn redo_committed(
        &mut self,
        seq: u64,
        queries: &[Arc<str>],
        logged_results: &[Option<WriteOutcome>],
    ) -> Result<(), RedoError> {
        for (pos, sql) in queries.iter().enumerate() {
            let q = pos as u64 + 1;
            let write;
            let statement = match logged_results[pos] {
                None => match self.selects.read(sql) {
                    // A SELECT changes nothing: a repeated one costs only
                    // this lookup.
                    Parsed::Select(id) => {
                        self.redone.push(id);
                        continue;
                    }
                    other => self.selects.get(other),
                },
                Some(_) => {
                    write = parse_statement(sql);
                    write.as_ref()
                }
            };
            self.redone.push(NOT_A_SELECT);
            let mark = self.latest.undo_mark();
            let outcome = self.latest.execute_parsed_in_txn(statement);
            let outcome = outcome.map_err(|error| RedoError::CommittedTxnFailed {
                seq,
                query: q,
                error,
            })?;
            self.version_changes(mark, seq * MAXQ + q);
            if outcome.write() != logged_results[pos] {
                return Err(RedoError::WriteResultMismatch { seq, query: q });
            }
        }
        Ok(())
    }

    /// Turns the latest state's undo records since `mark` — one
    /// statement's changes — into row versions starting at `ts`.
    fn version_changes(&mut self, mark: usize, ts: u64) {
        for change in self.latest.undo_since(mark) {
            let (name, rowid, live) = match change {
                UndoOp::CreatedTable { table } => {
                    let schema = self.latest.schema(table).expect("table just created");
                    let mut vt = VersionedTable::new(schema.clone());
                    vt.mark_modified(ts);
                    self.table_ids.insert(table.clone(), self.tables.len());
                    self.tables.push(vt);
                    continue;
                }
                UndoOp::Counters { .. } => continue,
                UndoOp::InsertedRow { table, rowid } | UndoOp::UpdatedRow { table, rowid, .. } => {
                    (table, *rowid, true)
                }
                UndoOp::DeletedRow { table, rowid, .. } => (table, *rowid, false),
            };
            let vt = &mut self.tables[self.table_ids[name]];
            vt.kill_version(rowid, ts);
            if live {
                let row = &self.latest.table(name).expect("changed table").rows[&rowid];
                vt.push_version(rowid, ts, row.clone());
                self.stats.versions_created += 1;
            }
            vt.mark_modified(ts);
        }
    }

    fn redo_aborted(
        &mut self,
        seq: u64,
        queries: &[Arc<str>],
        logged_results: &[Option<WriteOutcome>],
    ) -> Result<(), RedoError> {
        for (pos, sql) in queries.iter().enumerate() {
            let q = pos as u64 + 1;
            let write;
            let statement = match logged_results[pos] {
                None => {
                    let parsed = self.selects.read(sql);
                    self.redone.push(parsed.select_id());
                    self.selects.get(parsed)
                }
                Some(_) => {
                    self.redone.push(NOT_A_SELECT);
                    write = parse_statement(sql);
                    write.as_ref()
                }
            };
            match self.latest.execute_parsed_in_txn(statement) {
                Ok(outcome) => {
                    let computed = outcome.write();
                    if computed != logged_results[pos] {
                        return Err(RedoError::WriteResultMismatch { seq, query: q });
                    }
                    if let ExecOutcome::Rows { .. } = outcome {
                        self.aborted_reads.insert((seq, q), Arc::new(outcome));
                    }
                }
                Err(_) => {
                    // An error is only consistent with the log if it hit
                    // the final logged statement with no logged result.
                    if q != queries.len() as u64 || logged_results[pos].is_some() {
                        return Err(RedoError::AbortShapeMismatch { seq });
                    }
                    self.aborted_failures.insert(seq);
                    return Ok(());
                }
            }
        }
        // No statement failed: consistent with an explicit rollback.
        Ok(())
    }

    /// How many queries the store has redone: the flat position the
    /// next transaction's first query will take in [`Self::select_at`].
    pub fn redone_queries(&self) -> usize {
        self.redone.len()
    }

    /// The select id of the redone query at flat `position` (see
    /// [`Self::redone_queries`]), if it is a SELECT: equal ids are equal
    /// texts, and the id indexes [`Self::prepare_selects`].
    pub fn select_at(&self, position: usize) -> Option<usize> {
        let id = *self.redone.get(position)?;
        (id != NOT_A_SELECT).then_some(id as usize)
    }

    /// Ends the redo pass and prepares every distinct SELECT it parsed,
    /// against the finished store, indexed by select id. Nothing is
    /// parsed or copied: each parse moves into its prepared query. No
    /// transaction follows the end of the log, so a later
    /// [`Self::redo_transaction`] is out of order
    /// ([`RedoError::NonMonotonicSeq`]).
    pub fn prepare_selects(&mut self) -> Vec<Result<PreparedQuery, SqlError>> {
        self.last_seq = u64::MAX;
        let parsed = std::mem::take(&mut self.selects).parsed;
        parsed.into_iter().map(|select| self.bind(select)).collect()
    }

    /// Parses `sql` and binds it to this store. Errors are the ones
    /// running the text would have produced: a parse error, a statement
    /// that is not a SELECT, an unknown table.
    pub fn prepare(&self, sql: &str) -> Result<PreparedQuery, SqlError> {
        self.bind(parse_statement(sql)?)
    }

    fn bind(&self, stmt: Statement) -> Result<PreparedQuery, SqlError> {
        let Statement::Select(mut select) = stmt else {
            return Err(SqlError::Unsupported(
                "query_at only supports SELECT".into(),
            ));
        };
        let table = *self
            .table_ids
            .get(&select.table)
            .ok_or_else(|| SqlError::NoSuchTable(select.table.clone()))?;
        let vt = &self.tables[table];
        let mut conjuncts = Vec::new();
        if let Some(w) = &select.where_clause {
            collect_eq_conjuncts(w, &mut conjuncts);
        }
        let probe = conjuncts.iter().find_map(|(col, val)| {
            let pos = vt.schema.column_index(col)?;
            vt.eq_index
                .contains_key(&pos)
                .then(|| (pos, val.index_key()))
        });
        let plan = SelectPlan::new(&select, &vt.schema);
        let mut filter = select.where_clause.take();
        if let Some(w) = &mut filter {
            bind_columns(w, &vt.schema);
        }
        Ok(PreparedQuery {
            filter,
            plan,
            table,
            probe,
        })
    }

    /// Answers a prepared SELECT at version `ts` (re-execution's
    /// simulated read, Fig. 12 line 27), through the equality index when
    /// the WHERE clause pins an indexed column.
    pub fn run_at(&self, query: &PreparedQuery, ts: u64) -> Result<ExecOutcome, SqlError> {
        let vt = &self.tables[query.table];
        let probed = query
            .probe
            .as_ref()
            .and_then(|(col, key)| vt.candidates(*col, key, ts));
        let visible = probed.unwrap_or_else(|| vt.visible_at(ts));
        let rows = visible.as_slice().iter().map(|&i| &vt.versions[i].row);
        run_select(query.filter.as_ref(), &query.plan, &vt.schema, rows)
    }

    /// [`Self::prepare`] then [`Self::run_at`], for a text run once.
    pub fn query_at(&self, sql: &str, ts: u64) -> Result<ExecOutcome, SqlError> {
        self.run_at(&self.prepare(sql)?, ts)
    }

    /// The SELECT result captured while replaying aborted transaction
    /// `seq` at query position `q`.
    pub fn aborted_read(&self, seq: u64, q: u64) -> Option<&Arc<ExecOutcome>> {
        self.aborted_reads.get(&(seq, q))
    }

    /// True if aborted transaction `seq` failed at its final statement
    /// during replay (rather than rolling back voluntarily); during
    /// re-execution the corresponding `db_query` reports an error to the
    /// program, as it did online.
    pub fn aborted_failed_at_last(&self, seq: u64) -> bool {
        self.aborted_failures.contains(&seq)
    }

    /// Modification epoch of the queried table at version `ts`: the
    /// number of modifications with timestamp <= `ts`. Two runs of one
    /// prepared SELECT at versions with equal epochs see identical data —
    /// the read-query deduplication criterion (§4.5).
    pub fn mod_epoch(&self, query: &PreparedQuery, ts: u64) -> u64 {
        let mod_ts = &self.tables[query.table].mod_ts;
        mod_ts.partition_point(|&m| m <= ts) as u64
    }

    /// The latest state (§4.5's "migration" at the end of the redo pass
    /// is already done: the redo keeps it as a plain database).
    pub fn latest(&self) -> &Database {
        &self.latest
    }

    /// An owned copy of [`Self::latest`]: the state the verifier keeps
    /// after the audit (§5.1).
    pub fn latest_snapshot(&self) -> Database {
        self.latest.deep_clone()
    }

    /// Total row versions held (the audit-time storage overhead of
    /// Fig. 8's "temp" column).
    pub fn num_versions(&self) -> usize {
        self.tables.iter().map(|t| t.versions.len()).sum()
    }

    /// Rough byte size of the versioned store (row bytes plus the two
    /// timestamp columns per version).
    pub fn estimated_bytes(&self) -> usize {
        let versions = self.tables.iter().flat_map(|t| &t.versions);
        versions.map(|v| 16 + row_bytes(&v.row)).sum()
    }
}

/// Binds every column of `expr` that `schema` has to its position; an
/// unknown name stays a name, to fail when (and only if) it is
/// evaluated, as it would have unbound.
fn bind_columns(expr: &mut Expr, schema: &TableSchema) {
    match expr {
        Expr::Column(name) => {
            if let Some(pos) = schema.column_index(name) {
                *expr = Expr::ColumnAt(pos);
            }
        }
        Expr::Literal(_) | Expr::ColumnAt(_) => {}
        Expr::Binary { lhs, rhs, .. } => {
            bind_columns(lhs, schema);
            bind_columns(rhs, schema);
        }
        Expr::Not(e) | Expr::Neg(e) | Expr::IsNull { expr: e, .. } | Expr::Like { expr: e, .. } => {
            bind_columns(e, schema)
        }
        Expr::InList { expr: e, list, .. } => {
            bind_columns(e, schema);
            for item in list {
                bind_columns(item, schema);
            }
        }
    }
}

/// Collects `col = literal` conjuncts from a top-level AND tree.
fn collect_eq_conjuncts(expr: &Expr, out: &mut Vec<(String, SqlValue)>) {
    match expr {
        Expr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => {
            collect_eq_conjuncts(lhs, out);
            collect_eq_conjuncts(rhs, out);
        }
        Expr::Binary {
            op: BinOp::Eq,
            lhs,
            rhs,
        } => match (lhs.as_ref(), rhs.as_ref()) {
            (Expr::Column(c), Expr::Literal(v)) | (Expr::Literal(v), Expr::Column(c)) => {
                out.push((c.clone(), v.clone()));
            }
            _ => {}
        },
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed() -> Database {
        let mut db = Database::new();
        db.execute_autocommit(
            "CREATE TABLE p (id INT PRIMARY KEY AUTO_INCREMENT, title TEXT, views INT, INDEX(title))",
        )
        .0
        .unwrap();
        db.execute_autocommit("INSERT INTO p (title, views) VALUES ('alpha', 0), ('beta', 5)")
            .0
            .unwrap();
        db
    }

    fn exec_logged(db: &mut Database, sql: &str) -> (Option<WriteOutcome>, u64) {
        let (r, seq) = db.execute_autocommit(sql);
        (r.unwrap().write(), seq)
    }

    #[test]
    fn redo_reproduces_history() {
        let mut online = seed();
        let vdb_base = seed();
        let mut vdb = VersionedDb::from_snapshot(&vdb_base);
        let txns = [
            "UPDATE p SET views = views + 1 WHERE title = 'alpha'",
            "INSERT INTO p (title, views) VALUES ('gamma', 2)",
            "UPDATE p SET views = 100 WHERE id = 2",
            "DELETE FROM p WHERE title = 'beta'",
        ];
        let mut checkpoints = Vec::new();
        for sql in txns {
            let (result, seq) = exec_logged(&mut online, sql);
            vdb.redo_transaction(seq, &[sql.into()], true, &[result])
                .unwrap();
            let (r, _) = online.execute_autocommit("SELECT id, title, views FROM p");
            checkpoints.push((seq, r.unwrap()));
        }
        // Each historical read just after a txn must match the online
        // state at that time.
        for (seq, expected) in checkpoints {
            let got = vdb
                .query_at("SELECT id, title, views FROM p", seq * MAXQ + MAXQ - 1)
                .unwrap();
            assert_eq!(got, expected, "at seq {seq}");
        }
    }

    #[test]
    fn historical_reads_see_old_versions() {
        let base = seed();
        let mut vdb = VersionedDb::from_snapshot(&base);
        vdb.redo_transaction(
            1,
            &["UPDATE p SET views = 999 WHERE id = 1".into()],
            true,
            &[Some(WriteOutcome {
                affected: 1,
                last_insert_id: None,
            })],
        )
        .unwrap();
        let before = vdb
            .query_at("SELECT views FROM p WHERE id = 1", MAXQ)
            .unwrap();
        assert_eq!(before.rows().unwrap()[0][0], SqlValue::Int(0));
        let after = vdb
            .query_at("SELECT views FROM p WHERE id = 1", MAXQ + 2)
            .unwrap();
        assert_eq!(after.rows().unwrap()[0][0], SqlValue::Int(999));
    }

    #[test]
    fn intra_transaction_visibility() {
        let base = seed();
        let mut vdb = VersionedDb::from_snapshot(&base);
        vdb.redo_transaction(
            1,
            &[
                "INSERT INTO p (title, views) VALUES ('delta', 7)".into(),
                "SELECT views FROM p WHERE title = 'delta'".into(),
            ],
            true,
            &[
                Some(WriteOutcome {
                    affected: 1,
                    last_insert_id: Some(3),
                }),
                None,
            ],
        )
        .unwrap();
        // Query 2 of txn 1 executes at ts = 1*MAXQ + 2 and sees the
        // insert at ts = 1*MAXQ + 1.
        let got = vdb
            .query_at("SELECT views FROM p WHERE title = 'delta'", MAXQ + 2)
            .unwrap();
        assert_eq!(got.rows().unwrap()[0][0], SqlValue::Int(7));
        // A read by an earlier transaction does not.
        let got = vdb
            .query_at("SELECT views FROM p WHERE title = 'delta'", MAXQ)
            .unwrap();
        assert!(got.rows().unwrap().is_empty());
    }

    #[test]
    fn write_result_mismatch_detected() {
        let base = seed();
        let mut vdb = VersionedDb::from_snapshot(&base);
        let err = vdb
            .redo_transaction(
                1,
                &["INSERT INTO p (title, views) VALUES ('x', 1)".into()],
                true,
                // Lies about the auto-increment id.
                &[Some(WriteOutcome {
                    affected: 1,
                    last_insert_id: Some(42),
                })],
            )
            .unwrap_err();
        assert!(matches!(err, RedoError::WriteResultMismatch { .. }));
    }

    #[test]
    fn committed_txn_that_fails_is_rejected() {
        let base = seed();
        let mut vdb = VersionedDb::from_snapshot(&base);
        let err = vdb
            .redo_transaction(
                1,
                &["INSERT INTO p (id, title, views) VALUES (1, 'dup', 0)".into()],
                true,
                &[Some(WriteOutcome {
                    affected: 1,
                    last_insert_id: None,
                })],
            )
            .unwrap_err();
        assert!(matches!(err, RedoError::CommittedTxnFailed { .. }));
    }

    #[test]
    fn committed_create_with_unknown_index_column_is_rejected() {
        // The online engine fails this CREATE, so a log that claims it
        // committed describes no real execution.
        let sql = "CREATE TABLE t (id INT PRIMARY KEY, INDEX(nope))";
        let mut online = Database::new();
        assert_eq!(
            online.execute_autocommit(sql).0.unwrap_err(),
            SqlError::NoSuchColumn("nope".into())
        );
        let mut vdb = VersionedDb::from_snapshot(&seed());
        let err = vdb
            .redo_transaction(1, &[sql.into()], true, &[Some(WriteOutcome::default())])
            .unwrap_err();
        assert_eq!(
            err,
            RedoError::CommittedTxnFailed {
                seq: 1,
                query: 1,
                error: SqlError::NoSuchColumn("nope".into()),
            }
        );
    }

    #[test]
    fn aborted_txn_replays_and_rolls_back() {
        let base = seed();
        let mut vdb = VersionedDb::from_snapshot(&base);
        vdb.redo_transaction(
            1,
            &[
                "INSERT INTO p (title, views) VALUES ('temp', 1)".into(),
                "SELECT COUNT(*) FROM p".into(),
                "INSERT INTO p (id, title, views) VALUES (1, 'dup', 0)".into(),
            ],
            false,
            &[
                Some(WriteOutcome {
                    affected: 1,
                    last_insert_id: Some(3),
                }),
                None,
                None,
            ],
        )
        .unwrap();
        // The captured read saw the uncommitted insert (3 rows).
        let read = vdb.aborted_read(1, 2).unwrap();
        assert_eq!(read.rows().unwrap()[0][0], SqlValue::Int(3));
        // The store itself is untouched and the auto-increment not
        // consumed: the next committed insert still gets id 3.
        let got = vdb.query_at("SELECT COUNT(*) FROM p", 2 * MAXQ).unwrap();
        assert_eq!(got.rows().unwrap()[0][0], SqlValue::Int(2));
        vdb.redo_transaction(
            2,
            &["INSERT INTO p (title, views) VALUES ('next', 0)".into()],
            true,
            &[Some(WriteOutcome {
                affected: 1,
                last_insert_id: Some(3),
            })],
        )
        .unwrap();
    }

    #[test]
    fn aborted_txn_wrong_shape_rejected() {
        let base = seed();
        let mut vdb = VersionedDb::from_snapshot(&base);
        // The statement errors during replay, but the log pretends it
        // produced a write result — inconsistent.
        let err = vdb
            .redo_transaction(
                1,
                &["INSERT INTO p (id, title, views) VALUES (1, 'dup', 0)".into()],
                false,
                &[Some(WriteOutcome {
                    affected: 1,
                    last_insert_id: None,
                })],
            )
            .unwrap_err();
        assert!(matches!(
            err,
            RedoError::AbortShapeMismatch { .. } | RedoError::WriteResultMismatch { .. }
        ));
    }

    #[test]
    fn mod_epochs_gate_dedup() {
        let base = seed();
        let mut vdb = VersionedDb::from_snapshot(&base);
        let w1 = Some(WriteOutcome {
            affected: 1,
            last_insert_id: None,
        });
        vdb.redo_transaction(
            1,
            &["UPDATE p SET views = 1 WHERE id = 1".into()],
            true,
            &[w1],
        )
        .unwrap();
        vdb.redo_transaction(2, &["SELECT views FROM p".into()], true, &[None])
            .unwrap();
        vdb.redo_transaction(3, &["SELECT views FROM p".into()], true, &[None])
            .unwrap();
        vdb.redo_transaction(
            4,
            &["UPDATE p SET views = 2 WHERE id = 1".into()],
            true,
            &[w1],
        )
        .unwrap();
        let q = vdb.prepare("SELECT views FROM p").unwrap();
        // The SELECTs at seqs 2 and 3 straddle no modification: equal
        // epochs => dedupable.
        assert_eq!(
            vdb.mod_epoch(&q, 2 * MAXQ + 1),
            vdb.mod_epoch(&q, 3 * MAXQ + 1)
        );
        // A read after seq 4 has a later epoch.
        assert_ne!(
            vdb.mod_epoch(&q, 3 * MAXQ + 1),
            vdb.mod_epoch(&q, 4 * MAXQ + 2)
        );
    }

    #[test]
    fn non_monotonic_seq_rejected() {
        let base = seed();
        let mut vdb = VersionedDb::from_snapshot(&base);
        vdb.redo_transaction(5, &["SELECT views FROM p".into()], true, &[None])
            .unwrap();
        let err = vdb
            .redo_transaction(5, &["SELECT views FROM p".into()], true, &[None])
            .unwrap_err();
        assert!(matches!(err, RedoError::NonMonotonicSeq { .. }));
    }

    #[test]
    fn latest_snapshot_matches_online_final_state() {
        let mut online = seed();
        let base = seed();
        let mut vdb = VersionedDb::from_snapshot(&base);
        for sql in [
            "INSERT INTO p (title, views) VALUES ('x', 1)",
            "UPDATE p SET views = 50 WHERE title = 'x'",
            "DELETE FROM p WHERE id = 1",
        ] {
            let (result, seq) = exec_logged(&mut online, sql);
            vdb.redo_transaction(seq, &[sql.into()], true, &[result])
                .unwrap();
        }
        let mut migrated = vdb.latest_snapshot();
        let (want, _) = online.execute_autocommit("SELECT id, title, views FROM p");
        let (got, _) = migrated.execute_autocommit("SELECT id, title, views FROM p");
        assert_eq!(got.unwrap(), want.unwrap());
        // The migrated database continues assigning the same
        // auto-increment ids as the online one.
        let (w_on, _) = exec_logged(&mut online, "INSERT INTO p (title, views) VALUES ('y', 0)");
        let (r, _) = migrated.execute_autocommit("INSERT INTO p (title, views) VALUES ('y', 0)");
        assert_eq!(r.unwrap().write(), w_on);
    }

    #[test]
    fn indexed_and_scan_paths_agree() {
        let base = seed();
        let mut vdb = VersionedDb::from_snapshot(&base);
        for i in 0..20i64 {
            let sql = format!("INSERT INTO p (title, views) VALUES ('t{}', {})", i % 5, i);
            let result = Some(WriteOutcome {
                affected: 1,
                last_insert_id: Some(3 + i),
            });
            vdb.redo_transaction((i + 1) as u64, &[sql.into()], true, &[result])
                .unwrap();
        }
        let ts = 21 * MAXQ;
        // `title` is indexed, so equality uses the index; IN (...) with
        // the same semantics forces a scan.
        let indexed = vdb
            .query_at("SELECT id FROM p WHERE title = 't3'", ts)
            .unwrap();
        let scanned = vdb
            .query_at("SELECT id FROM p WHERE title IN ('t3')", ts)
            .unwrap();
        assert_eq!(indexed, scanned);
        assert!(!indexed.rows().unwrap().is_empty());
    }

    #[test]
    fn prepared_query_runs_at_any_version_and_fails_like_the_text() {
        let base = seed();
        let mut vdb = VersionedDb::from_snapshot(&base);
        let w1 = Some(WriteOutcome {
            affected: 1,
            last_insert_id: None,
        });
        vdb.redo_transaction(
            1,
            &["UPDATE p SET views = 7 WHERE title = 'alpha'".into()],
            true,
            &[w1],
        )
        .unwrap();
        // One parse serves every version, on the index path (`title`)
        // and on the scan path (`views`).
        for sql in [
            "SELECT id, views FROM p WHERE title = 'alpha'",
            "SELECT id FROM p WHERE views = 7 AND id = 1",
            "SELECT COUNT(*) FROM p",
        ] {
            let q = vdb.prepare(sql).unwrap();
            for ts in [0, MAXQ, MAXQ + 1, 5 * MAXQ] {
                assert_eq!(vdb.run_at(&q, ts), vdb.query_at(sql, ts), "{sql} @ {ts}");
            }
        }
        assert!(matches!(vdb.prepare("SELEKT"), Err(SqlError::Parse(_))));
        assert_eq!(
            vdb.prepare("DELETE FROM p WHERE id = 1").unwrap_err(),
            SqlError::Unsupported("query_at only supports SELECT".into())
        );
        assert_eq!(
            vdb.prepare("SELECT id FROM nope").unwrap_err(),
            SqlError::NoSuchTable("nope".into())
        );
    }

    #[test]
    fn selects_are_parsed_once_and_addressed_by_position() {
        let base = seed();
        let mut vdb = VersionedDb::from_snapshot(&base);
        let read = "SELECT id, views FROM p WHERE title = 'alpha'";
        let w1 = Some(WriteOutcome {
            affected: 1,
            last_insert_id: None,
        });
        vdb.redo_transaction(1, &[read.into()], true, &[None])
            .unwrap();
        let update = "UPDATE p SET views = 3 WHERE id = 1";
        vdb.redo_transaction(2, &[update.into(), read.into()], true, &[w1, None])
            .unwrap();
        // An aborted replay reads its touched tables from the same parse.
        vdb.redo_transaction(3, &[read.into(), "SELEKT".into()], false, &[None, None])
            .unwrap();
        assert!(vdb.aborted_failed_at_last(3));
        assert_eq!(vdb.selects.parsed.len(), 1, "one distinct SELECT kept");
        assert_eq!(vdb.redone_queries(), 5);
        let ids: Vec<Option<usize>> = (0..6).map(|p| vdb.select_at(p)).collect();
        assert_eq!(ids, [Some(0), None, Some(0), Some(0), None, None]);
        let selects = vdb.prepare_selects();
        assert_eq!(selects.len(), 1);
        let query = selects[0].as_ref().unwrap();
        for ts in [MAXQ + 1, 2 * MAXQ + 2, 3 * MAXQ + 1] {
            assert_eq!(vdb.run_at(query, ts), vdb.query_at(read, ts), "@ {ts}");
        }
        assert_eq!(
            vdb.redo_transaction(4, &[read.into()], true, &[None]),
            Err(RedoError::NonMonotonicSeq { seq: 4 }),
            "the redo pass has ended"
        );
    }

    #[test]
    fn a_shared_read_is_found_by_its_handle_and_parsed_once() {
        let base = seed();
        let mut vdb = VersionedDb::from_snapshot(&base);
        let read: Arc<str> = "SELECT views FROM p WHERE id = 1".into();
        let broken: Arc<str> = "SELEKT views".into();
        for seq in 1..=3 {
            let queries = [Arc::clone(&read), Arc::clone(&read), Arc::clone(&broken)];
            vdb.redo_transaction(seq, &queries, false, &[None, None, None])
                .unwrap();
            assert!(vdb.aborted_failed_at_last(seq));
        }
        // A fresh handle with equal text reads the same parse.
        vdb.redo_transaction(
            4,
            &["SELECT views FROM p WHERE id = 1".into()],
            true,
            &[None],
        )
        .unwrap();
        assert_eq!(vdb.selects.texts.len(), 2);
        assert_eq!((vdb.selects.parsed.len(), vdb.selects.others.len()), (1, 1));
        let ids: Vec<Option<usize>> = (0..10).map(|p| vdb.select_at(p)).collect();
        let (read_id, broken_id) = (Some(0), None);
        assert_eq!(ids[..3], [read_id, read_id, broken_id]);
        assert_eq!(ids[9], read_id);
    }

    #[test]
    fn version_counting() {
        let base = seed();
        let mut vdb = VersionedDb::from_snapshot(&base);
        assert_eq!(vdb.num_versions(), 2);
        vdb.redo_transaction(
            1,
            &["UPDATE p SET views = 9 WHERE id = 1".into()],
            true,
            &[Some(WriteOutcome {
                affected: 1,
                last_insert_id: None,
            })],
        )
        .unwrap();
        assert_eq!(vdb.num_versions(), 3);
        assert!(vdb.estimated_bytes() > 0);
        assert_eq!(vdb.stats().transactions, 1);
    }
}
