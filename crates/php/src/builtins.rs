//! Builtin functions.
//!
//! Pure builtins (strings, arrays, math) are implemented directly and
//! shared verbatim by the scalar and multivalue VMs — this is what makes
//! acc-PHP's per-lane "split execution" of builtins (§4.3) trivially
//! consistent with the server. Impure builtins (output, state,
//! nondeterminism) go through the [`Host`] trait, which each VM
//! implements.
//!
//! By-reference builtins (`array_push`, `sort`, ...) use a dedicated
//! calling convention: the compiler passes the target array as the first
//! argument and stores the returned array back into the variable (see
//! `dispatch_byref`).

use crate::backend::DbResult;
use crate::value::{format_php_float, ArrayKey, Key, PhpArray, Value};
use crate::vm::VmError;
use std::borrow::Cow;
use std::sync::Arc;

/// VM services impure builtins need.
pub trait Host {
    /// Appends to the output buffer (`print`).
    fn echo(&mut self, s: &str);
    /// Adds a response header.
    fn add_header(&mut self, name: String, value: String);
    /// Sets the response status code.
    fn set_status(&mut self, code: u16);
    /// Starts the session: loads `$_SESSION` from the session register.
    fn session_start(&mut self) -> Result<(), VmError>;
    /// APC fetch (false on miss).
    fn kv_get(&mut self, key: &str) -> Result<Value, VmError>;
    /// APC store/delete.
    fn kv_set(&mut self, key: &str, value: Option<&Value>) -> Result<(), VmError>;
    /// Opens a database transaction.
    fn db_begin(&mut self) -> Result<(), VmError>;
    /// Runs one SQL statement; returns rows, true, or false.
    fn db_query(&mut self, sql: &str) -> Result<Value, VmError>;
    /// Commits; false if the transaction failed.
    fn db_commit(&mut self) -> Result<bool, VmError>;
    /// Rolls back.
    fn db_rollback(&mut self) -> Result<(), VmError>;
    /// Last INSERT auto-increment id.
    fn db_insert_id(&mut self) -> i64;
    /// Rows affected by the last write.
    fn db_affected_rows(&mut self) -> i64;
    /// `time()`.
    fn nd_time(&mut self) -> Result<i64, VmError>;
    /// `microtime(true)`.
    fn nd_microtime(&mut self) -> Result<f64, VmError>;
    /// `getpid()`.
    fn nd_getpid(&mut self) -> Result<i64, VmError>;
    /// Raw random draw for `mt_rand`/`rand`.
    fn nd_rand_raw(&mut self) -> Result<i64, VmError>;
    /// `uniqid()`.
    fn nd_uniqid(&mut self) -> Result<String, VmError>;
}

/// Declares [`Builtin`] and [`NAMES`] from one list, so a builtin's dense
/// id (its position here, which the compiler bakes into `CallBuiltin`)
/// and its name cannot drift apart.
macro_rules! builtins {
    ($($variant:ident = $name:literal,)*) => {
        /// A builtin function; the discriminant is its dense id.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u16)]
        pub enum Builtin {
            $(#[doc = $name] $variant,)*
        }

        /// All builtin names, value-returning first, by-reference at the
        /// end; indexed by dense id.
        pub const NAMES: &[&str] = &[$($name,)*];

        const ALL: &[Builtin] = &[$(Builtin::$variant,)*];
    };
}

builtins! {
    // Strings.
    Strlen = "strlen",
    Substr = "substr",
    Strpos = "strpos",
    StrReplace = "str_replace",
    Strtolower = "strtolower",
    Strtoupper = "strtoupper",
    Ucfirst = "ucfirst",
    Trim = "trim",
    Ltrim = "ltrim",
    Rtrim = "rtrim",
    Explode = "explode",
    Implode = "implode",
    Join = "join",
    StrRepeat = "str_repeat",
    Sprintf = "sprintf",
    NumberFormat = "number_format",
    Htmlspecialchars = "htmlspecialchars",
    Strcmp = "strcmp",
    StrPad = "str_pad",
    Nl2br = "nl2br",
    Md5 = "md5",
    Urlencode = "urlencode",
    SubstrCount = "substr_count",
    // Arrays (value).
    Count = "count",
    Sizeof = "sizeof",
    ArrayKeys = "array_keys",
    ArrayValues = "array_values",
    ArrayMerge = "array_merge",
    ArraySlice = "array_slice",
    ArrayReverse = "array_reverse",
    InArray = "in_array",
    ArrayKeyExists = "array_key_exists",
    ArraySearch = "array_search",
    ArraySum = "array_sum",
    Range = "range",
    ArrayUnique = "array_unique",
    ArrayFlip = "array_flip",
    ArrayFill = "array_fill",
    // Math / types.
    Abs = "abs",
    Max = "max",
    Min = "min",
    Floor = "floor",
    Ceil = "ceil",
    Round = "round",
    Intdiv = "intdiv",
    Pow = "pow",
    Sqrt = "sqrt",
    Intval = "intval",
    Floatval = "floatval",
    Strval = "strval",
    Boolval = "boolval",
    Gettype = "gettype",
    IsInt = "is_int",
    IsInteger = "is_integer",
    IsString = "is_string",
    IsArray = "is_array",
    IsNull = "is_null",
    IsNumeric = "is_numeric",
    IsBool = "is_bool",
    IsFloat = "is_float",
    // Encoding.
    JsonEncode = "json_encode",
    // Output / control.
    Print = "print",
    Exit = "exit",
    Die = "die",
    Header = "header",
    HttpResponseCode = "http_response_code",
    Setcookie = "setcookie",
    // State.
    SessionStart = "session_start",
    ApcFetch = "apc_fetch",
    ApcStore = "apc_store",
    ApcDelete = "apc_delete",
    DbQuery = "db_query",
    DbBegin = "db_begin",
    DbCommit = "db_commit",
    DbRollback = "db_rollback",
    DbInsertId = "db_insert_id",
    DbAffectedRows = "db_affected_rows",
    // Nondeterminism.
    Time = "time",
    Microtime = "microtime",
    Getpid = "getpid",
    MtRand = "mt_rand",
    Rand = "rand",
    Uniqid = "uniqid",
    MtGetrandmax = "mt_getrandmax",
    // By-reference (listed in `BYREF`).
    ArrayPush = "array_push",
    ArrayPop = "array_pop",
    ArrayShift = "array_shift",
    ArrayUnshift = "array_unshift",
    Sort = "sort",
    Rsort = "rsort",
    Ksort = "ksort",
    Asort = "asort",
    Arsort = "arsort",
}

impl Builtin {
    /// The builtin with dense id `id` (as baked into `CallBuiltin`).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a compiled builtin id.
    pub fn from_id(id: u16) -> Builtin {
        ALL[id as usize]
    }

    /// The PHP-visible function name.
    pub fn name(self) -> &'static str {
        NAMES[self as usize]
    }
}

const fn flag_table(set: &[Builtin]) -> [bool; ALL.len()] {
    let mut table = [false; ALL.len()];
    let mut i = 0;
    while i < set.len() {
        table[set[i] as usize] = true;
        i += 1;
    }
    table
}

/// By id: the builtin mutates its first argument in place.
static BYREF: [bool; ALL.len()] = flag_table(&[
    Builtin::ArrayPush,
    Builtin::ArrayPop,
    Builtin::ArrayShift,
    Builtin::ArrayUnshift,
    Builtin::Sort,
    Builtin::Rsort,
    Builtin::Ksort,
    Builtin::Asort,
    Builtin::Arsort,
]);

/// By id: the builtin reaches request effects, shared state or
/// nondeterminism through the [`Host`]; every other builtin is a pure
/// function of its arguments.
static IMPURE: [bool; ALL.len()] = flag_table(&[
    Builtin::Print,
    Builtin::Exit,
    Builtin::Die,
    Builtin::Header,
    Builtin::HttpResponseCode,
    Builtin::Setcookie,
    Builtin::SessionStart,
    Builtin::ApcFetch,
    Builtin::ApcStore,
    Builtin::ApcDelete,
    Builtin::DbQuery,
    Builtin::DbBegin,
    Builtin::DbCommit,
    Builtin::DbRollback,
    Builtin::DbInsertId,
    Builtin::DbAffectedRows,
    Builtin::Time,
    Builtin::Microtime,
    Builtin::Getpid,
    Builtin::MtRand,
    Builtin::Rand,
    Builtin::Uniqid,
]);

/// Resolves a builtin name to its index.
pub fn lookup(name: &str) -> Option<u16> {
    NAMES.iter().position(|n| *n == name).map(|i| i as u16)
}

/// True if the builtin mutates its first argument in place.
pub fn is_byref(id: u16) -> bool {
    BYREF[id as usize]
}

/// True if the builtin goes through the [`Host`] (output, state,
/// nondeterminism); a group VM runs those per lane against the audit
/// context and may split every other builtin freely.
pub fn is_impure(id: u16) -> bool {
    IMPURE[id as usize]
}

static NULL: Value = Value::Null;

fn arg(args: &[Value], i: usize) -> &Value {
    args.get(i).unwrap_or(&NULL)
}

fn arg_str(args: &[Value], i: usize) -> Cow<'_, str> {
    arg(args, i).as_php_str()
}

fn arg_int(args: &[Value], i: usize) -> i64 {
    arg(args, i).to_php_int()
}

fn arg_array<'a>(args: &'a [Value], i: usize, name: &str) -> Result<&'a PhpArray, VmError> {
    match arg(args, i) {
        Value::Array(a) => Ok(a),
        other => Err(VmError::Fatal(format!(
            "{name}() expects an array, {} given",
            other.type_name()
        ))),
    }
}

/// Builds the PHP-visible value of a SELECT result: a list of rows,
/// each an assoc array in projection order. The online backend and the
/// verifier both build their rows here, so the two sides cannot disagree
/// on the shape.
pub fn db_rows_to_value<R>(columns: &[String], rows: impl IntoIterator<Item = R>) -> Value
where
    R: IntoIterator<Item = Value>,
{
    let rows = rows.into_iter().map(|row| {
        let mut assoc = PhpArray::map_with_capacity(columns.len());
        for (col, cell) in columns.iter().zip(row) {
            assoc.set(Key::Str(col), cell);
        }
        Value::array(assoc)
    });
    Value::array(PhpArray::from_values(rows.collect()))
}

/// Converts a backend database result into the PHP-visible value and
/// updates the insert-id/affected bookkeeping.
pub fn db_result_to_value(result: DbResult, last_id: &mut i64, last_aff: &mut i64) -> Value {
    match result {
        DbResult::Rows(rows) => rows,
        DbResult::Write {
            affected,
            insert_id,
        } => {
            *last_aff = affected as i64;
            if let Some(id) = insert_id {
                *last_id = id;
            }
            Value::Bool(true)
        }
        DbResult::Failed => Value::Bool(false),
    }
}

/// `header(text)`'s name and value.
pub fn header_line(text: &str) -> Result<(String, String), VmError> {
    let (name, value) = text
        .split_once(':')
        .ok_or_else(|| VmError::Fatal("header(): malformed header".into()))?;
    Ok((name.trim().to_string(), value.trim().to_string()))
}

/// `http_response_code(code)`'s status.
pub fn status_code(code: &Value) -> Result<u16, VmError> {
    let code = code.to_php_int();
    if !(100..=599).contains(&code) {
        return Err(VmError::Fatal("http_response_code(): bad code".into()));
    }
    Ok(code as u16)
}

/// Calls a value builtin. Args are borrowed so the register VM can pass
/// its marshalling buffer without moving. The [`is_impure`] ones go
/// through `host`; the rest are [`dispatch_pure`].
pub fn dispatch(id: u16, args: &[Value], host: &mut dyn Host) -> Result<Value, VmError> {
    Ok(match Builtin::from_id(id) {
        // ------------------------------------------------ output
        Builtin::Print => {
            host.echo(&arg_str(args, 0));
            Value::Int(1)
        }
        Builtin::Exit | Builtin::Die => {
            if let Some(v) = args.first() {
                if matches!(v, Value::Str(_)) {
                    host.echo(&v.to_php_string());
                }
            }
            return Err(VmError::Exit);
        }
        Builtin::Header => {
            let (name, value) = header_line(&arg_str(args, 0))?;
            host.add_header(name, value);
            Value::Null
        }
        Builtin::HttpResponseCode => {
            host.set_status(status_code(arg(args, 0))?);
            Value::Bool(true)
        }
        Builtin::Setcookie => {
            let (name, value) = (arg_str(args, 0), arg_str(args, 1));
            host.add_header("Set-Cookie".to_string(), format!("{name}={value}"));
            Value::Bool(true)
        }
        // ------------------------------------------------ state
        Builtin::SessionStart => {
            host.session_start()?;
            Value::Bool(true)
        }
        Builtin::ApcFetch => host.kv_get(&arg_str(args, 0))?,
        Builtin::ApcStore => {
            let key = arg_str(args, 0);
            let value = arg(args, 1);
            host.kv_set(&key, Some(value))?;
            Value::Bool(true)
        }
        Builtin::ApcDelete => {
            host.kv_set(&arg_str(args, 0), None)?;
            Value::Bool(true)
        }
        Builtin::DbQuery => host.db_query(&arg_str(args, 0))?,
        Builtin::DbBegin => {
            host.db_begin()?;
            Value::Bool(true)
        }
        Builtin::DbCommit => Value::Bool(host.db_commit()?),
        Builtin::DbRollback => {
            host.db_rollback()?;
            Value::Bool(true)
        }
        Builtin::DbInsertId => Value::Int(host.db_insert_id()),
        Builtin::DbAffectedRows => Value::Int(host.db_affected_rows()),
        // ------------------------------------------------ nondeterminism
        Builtin::Time => Value::Int(host.nd_time()?),
        Builtin::Microtime => Value::Float(host.nd_microtime()?),
        Builtin::Getpid => Value::Int(host.nd_getpid()?),
        Builtin::MtRand | Builtin::Rand => {
            let raw = host.nd_rand_raw()?;
            mt_rand_reduce(raw, args)?
        }
        Builtin::Uniqid => Value::str(host.nd_uniqid()?),
        _ => return dispatch_pure(id, args),
    })
}

/// Calls a value builtin that is not [`is_impure`]: a function of its
/// arguments alone, which a group VM may run once per distinct lane.
pub fn dispatch_pure(id: u16, args: &[Value]) -> Result<Value, VmError> {
    let builtin = Builtin::from_id(id);
    Ok(match builtin {
        // ------------------------------------------------ strings
        Builtin::Strlen => Value::Int(arg_str(args, 0).len() as i64),
        Builtin::Substr => {
            // Offsets count characters; only the boundaries are located,
            // the subject is neither copied nor exploded into chars.
            let s = arg_str(args, 0);
            let n = s.chars().count() as i64;
            let mut start = arg_int(args, 1);
            if start < 0 {
                start = (n + start).max(0);
            }
            let start = start.min(n) as usize;
            let len = match args.get(2) {
                None | Some(Value::Null) => n as usize - start,
                Some(v) => {
                    let l = v.to_php_int();
                    if l < 0 {
                        let end = (n + l).max(start as i64) as usize;
                        end - start
                    } else {
                        (l as usize).min(n as usize - start)
                    }
                }
            };
            // Character boundaries as byte offsets, the end included.
            let mut bounds = s.char_indices().map(|(b, _)| b).chain([s.len()]);
            let from = bounds.nth(start).unwrap_or(s.len());
            let to = match len {
                0 => from,
                n => bounds.nth(n - 1).unwrap_or(s.len()),
            };
            Value::str(&s[from..to])
        }
        Builtin::Strpos => {
            let hay = arg_str(args, 0);
            let needle = arg_str(args, 1);
            let offset = arg_int(args, 2).max(0) as usize;
            if needle.is_empty() || offset > hay.len() {
                Value::Bool(false)
            } else {
                match hay[offset..].find(needle.as_ref()) {
                    Some(pos) => Value::Int((offset + pos) as i64),
                    None => Value::Bool(false),
                }
            }
        }
        Builtin::StrReplace => {
            let subject = arg_str(args, 2);
            let result = match (arg(args, 0), arg(args, 1)) {
                (Value::Array(searches), Value::Array(replaces)) => {
                    let mut reps = replaces.iter().map(|(_, v)| v);
                    let mut s = subject.into_owned();
                    for (_, search) in searches.iter() {
                        let rep = reps.next().map(Value::as_php_str).unwrap_or_default();
                        s = s.replace(search.as_php_str().as_ref(), &rep);
                    }
                    s
                }
                (Value::Array(searches), rep) => {
                    let rep = rep.as_php_str();
                    let mut s = subject.into_owned();
                    for (_, search) in searches.iter() {
                        s = s.replace(search.as_php_str().as_ref(), &rep);
                    }
                    s
                }
                (search, rep) => subject.replace(search.as_php_str().as_ref(), &rep.as_php_str()),
            };
            Value::str(result)
        }
        Builtin::Strtolower => Value::str(arg_str(args, 0).to_lowercase()),
        Builtin::Strtoupper => Value::str(arg_str(args, 0).to_uppercase()),
        Builtin::Ucfirst => {
            let s = arg_str(args, 0);
            let mut chars = s.chars();
            Value::str(match chars.next() {
                Some(c) => c.to_uppercase().collect::<String>() + chars.as_str(),
                None => String::new(),
            })
        }
        Builtin::Trim => Value::str(arg_str(args, 0).trim()),
        Builtin::Ltrim => Value::str(arg_str(args, 0).trim_start()),
        Builtin::Rtrim => Value::str(arg_str(args, 0).trim_end()),
        Builtin::Explode => {
            let delim = arg_str(args, 0);
            if delim.is_empty() {
                return Err(VmError::Fatal("explode(): empty delimiter".into()));
            }
            let s = arg_str(args, 1);
            Value::array(PhpArray::from_values(
                s.split(delim.as_ref()).map(Value::str).collect(),
            ))
        }
        Builtin::Implode | Builtin::Join => {
            // Both implode(glue, arr) and implode(arr).
            let (glue, arr) = match (arg(args, 0), arg(args, 1)) {
                (Value::Array(a), _) => (Cow::Borrowed(""), a),
                (g, Value::Array(a)) => (g.as_php_str(), a),
                _ => return Err(VmError::Fatal("implode(): no array given".into())),
            };
            let mut joined = String::new();
            for (i, (_, v)) in arr.iter().enumerate() {
                if i > 0 {
                    joined.push_str(&glue);
                }
                joined.push_str(&v.as_php_str());
            }
            Value::str(joined)
        }
        Builtin::StrRepeat => {
            let s = arg_str(args, 0);
            let n = arg_int(args, 1).max(0) as usize;
            if s.len().saturating_mul(n) > 16 << 20 {
                return Err(VmError::Fatal("str_repeat(): result too large".into()));
            }
            Value::str(s.repeat(n))
        }
        Builtin::Sprintf => Value::str(sprintf(&arg_str(args, 0), &args[1..])?),
        Builtin::NumberFormat => {
            let n = arg(args, 0).to_php_float();
            let decimals = if args.len() > 1 {
                arg_int(args, 1).clamp(0, 12) as usize
            } else {
                0
            };
            Value::str(number_format(n, decimals))
        }
        Builtin::Htmlspecialchars => {
            let s = arg_str(args, 0);
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '&' => out.push_str("&amp;"),
                    '<' => out.push_str("&lt;"),
                    '>' => out.push_str("&gt;"),
                    '"' => out.push_str("&quot;"),
                    '\'' => out.push_str("&#039;"),
                    other => out.push(other),
                }
            }
            Value::str(out)
        }
        Builtin::Strcmp => {
            let (a, b) = (arg_str(args, 0), arg_str(args, 1));
            Value::Int(match a.cmp(&b) {
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => 0,
                std::cmp::Ordering::Greater => 1,
            })
        }
        Builtin::StrPad => {
            let s = arg_str(args, 0);
            let len = arg_int(args, 1).max(0) as usize;
            let pad = if args.len() > 2 {
                arg_str(args, 2)
            } else {
                Cow::Borrowed(" ")
            };
            if s.len() >= len || pad.is_empty() {
                Value::str(s)
            } else {
                let mut out = s.into_owned();
                let mut pad_iter = pad.chars().cycle();
                while out.len() < len {
                    out.push(pad_iter.next().expect("cycle never ends"));
                }
                Value::str(out)
            }
        }
        Builtin::Nl2br => Value::str(arg_str(args, 0).replace('\n', "<br />\n")),
        Builtin::Md5 => {
            // Deterministic stand-in, NOT cryptographic: two FNV-1a
            // passes rendered as 32 hex digits (documented in DESIGN.md).
            let s = arg_str(args, 0);
            let h1 = crate::vm::fnv1a(s.as_bytes());
            let mut salted = s.into_owned().into_bytes();
            salted.push(0x5c);
            let h2 = crate::vm::fnv1a(&salted);
            Value::str(format!("{h1:016x}{h2:016x}"))
        }
        Builtin::Urlencode => {
            let s = arg_str(args, 0);
            let mut out = String::new();
            for b in s.bytes() {
                match b {
                    b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' => {
                        out.push(b as char)
                    }
                    b' ' => out.push('+'),
                    other => out.push_str(&format!("%{other:02X}")),
                }
            }
            Value::str(out)
        }
        Builtin::SubstrCount => {
            let hay = arg_str(args, 0);
            let needle = arg_str(args, 1);
            if needle.is_empty() {
                return Err(VmError::Fatal("substr_count(): empty needle".into()));
            }
            Value::Int(hay.matches(needle.as_ref()).count() as i64)
        }
        // ------------------------------------------------ arrays
        Builtin::Count | Builtin::Sizeof => match arg(args, 0) {
            Value::Array(a) => Value::Int(a.len() as i64),
            Value::Null => Value::Int(0),
            _ => Value::Int(1),
        },
        Builtin::ArrayKeys => {
            let a = arg_array(args, 0, "array_keys")?;
            Value::array(PhpArray::from_values(
                a.iter().map(|(k, _)| k.to_value()).collect(),
            ))
        }
        Builtin::ArrayValues => {
            let a = arg_array(args, 0, "array_values")?;
            Value::array(PhpArray::from_values(a.values().cloned().collect()))
        }
        Builtin::ArrayMerge => {
            let mut out = PhpArray::new();
            for v in args {
                match v {
                    Value::Array(a) => {
                        for (k, v) in a.iter() {
                            match k {
                                Key::Int(_) => {
                                    out.push(v.clone())?;
                                }
                                Key::Str(_) => out.set(k, v.clone()),
                            }
                        }
                    }
                    _ => return Err(VmError::Fatal("array_merge(): non-array".into())),
                }
            }
            Value::array(out)
        }
        Builtin::ArraySlice => {
            let a = arg_array(args, 0, "array_slice")?;
            let n = a.len() as i64;
            let mut offset = arg_int(args, 1);
            if offset < 0 {
                offset = (n + offset).max(0);
            }
            let offset = offset.min(n) as usize;
            let len = match args.get(2) {
                None | Some(Value::Null) => n as usize - offset,
                Some(v) => {
                    let l = v.to_php_int();
                    if l < 0 {
                        ((n + l) as usize).saturating_sub(offset)
                    } else {
                        (l as usize).min(n as usize - offset)
                    }
                }
            };
            let mut out = PhpArray::with_capacity(len);
            for (k, v) in a.iter().skip(offset).take(len) {
                match k {
                    Key::Int(_) => {
                        out.push(v.clone())?;
                    }
                    Key::Str(_) => out.set(k, v.clone()),
                }
            }
            Value::array(out)
        }
        Builtin::ArrayReverse => {
            let a = arg_array(args, 0, "array_reverse")?;
            let pairs: Vec<_> = a.iter().collect();
            let mut out = PhpArray::with_capacity(pairs.len());
            for (k, v) in pairs.into_iter().rev() {
                match k {
                    Key::Int(_) => {
                        out.push(v.clone())?;
                    }
                    Key::Str(_) => out.set(k, v.clone()),
                }
            }
            Value::array(out)
        }
        Builtin::InArray => {
            let needle = arg(args, 0);
            let hay = arg_array(args, 1, "in_array")?;
            let strict = arg(args, 2).is_truthy();
            let found = hay.iter().any(|(_, v)| {
                if strict {
                    needle.identical(v)
                } else {
                    needle.loose_eq(v)
                }
            });
            Value::Bool(found)
        }
        Builtin::ArrayKeyExists => {
            let key = Key::from_value(arg(args, 0));
            let a = arg_array(args, 1, "array_key_exists")?;
            Value::Bool(a.has_key(key))
        }
        Builtin::ArraySearch => {
            let needle = arg(args, 0);
            let hay = arg_array(args, 1, "array_search")?;
            let found = hay
                .iter()
                .find(|(_, v)| needle.loose_eq(v))
                .map(|(k, _)| k.to_value());
            found.unwrap_or(Value::Bool(false))
        }
        Builtin::ArraySum => {
            let a = arg_array(args, 0, "array_sum")?;
            let mut int_sum = 0i64;
            let mut float_sum = 0f64;
            let mut is_float = false;
            for (_, v) in a.iter() {
                match v {
                    Value::Float(f) => {
                        is_float = true;
                        float_sum += f;
                    }
                    other => match int_sum.checked_add(other.to_php_int()) {
                        Some(s) => int_sum = s,
                        None => {
                            is_float = true;
                            float_sum += other.to_php_float();
                        }
                    },
                }
            }
            if is_float {
                Value::Float(float_sum + int_sum as f64)
            } else {
                Value::Int(int_sum)
            }
        }
        Builtin::Range => {
            let (a, b) = (arg_int(args, 0), arg_int(args, 1));
            let step = if args.len() > 2 {
                arg_int(args, 2).saturating_abs().max(1)
            } else {
                1
            };
            // Walks from `a` towards `b`, stopping at `b` or at the end
            // of the i64 range, whichever comes first.
            let (ascending, step) = (a <= b, if a <= b { step } else { -step });
            let mut vals = Vec::new();
            let mut x = Some(a);
            while let Some(cur) = x.filter(|&x| if ascending { x <= b } else { x >= b }) {
                if vals.len() == 1 << 22 {
                    return Err(VmError::Fatal("range(): result too large".into()));
                }
                vals.push(Value::Int(cur));
                x = cur.checked_add(step);
            }
            Value::array(PhpArray::from_values(vals))
        }
        Builtin::ArrayUnique => {
            let a = arg_array(args, 0, "array_unique")?;
            let mut seen = std::collections::HashSet::new();
            let mut out = PhpArray::new();
            for (k, v) in a.iter() {
                if seen.insert(v.to_php_string()) {
                    out.set(k, v.clone());
                }
            }
            Value::array(out)
        }
        Builtin::ArrayFlip => {
            let a = arg_array(args, 0, "array_flip")?;
            let mut out = PhpArray::new();
            for (k, v) in a.iter() {
                match v {
                    Value::Int(_) | Value::Str(_) => {
                        out.set(Key::from_value(v), k.to_value());
                    }
                    // PHP warns and skips other types.
                    _ => {}
                }
            }
            Value::array(out)
        }
        Builtin::ArrayFill => {
            let start = arg_int(args, 0);
            let num = arg_int(args, 1).max(0);
            if num > 1 << 22 {
                return Err(VmError::Fatal("array_fill(): result too large".into()));
            }
            let v = arg(args, 2);
            let mut out = PhpArray::with_capacity(num as usize);
            for i in 0..num {
                // Keys past i64::MAX do not exist: PHP's "next element is
                // already occupied".
                let key = start.checked_add(i).ok_or(crate::value::NextKeyOccupied)?;
                out.set(Key::Int(key), v.clone());
            }
            Value::array(out)
        }
        // ------------------------------------------------ math / types
        Builtin::Abs => match arg(args, 0) {
            Value::Int(i) => Value::Int(i.wrapping_abs()),
            other => Value::Float(other.to_php_float().abs()),
        },
        Builtin::Max | Builtin::Min => {
            let want_max = builtin == Builtin::Max;
            let candidates: Vec<Value> = match (args.len(), arg(args, 0)) {
                (1, Value::Array(a)) => a.values().cloned().collect(),
                _ => args.to_vec(),
            };
            let mut best: Option<Value> = None;
            for c in candidates {
                best = Some(match best {
                    None => c,
                    Some(b) => {
                        let take = match c.loose_cmp(&b) {
                            Some(std::cmp::Ordering::Greater) => want_max,
                            Some(std::cmp::Ordering::Less) => !want_max,
                            _ => false,
                        };
                        if take {
                            c
                        } else {
                            b
                        }
                    }
                });
            }
            best.unwrap_or(Value::Bool(false))
        }
        Builtin::Floor => Value::Float(arg(args, 0).to_php_float().floor()),
        Builtin::Ceil => Value::Float(arg(args, 0).to_php_float().ceil()),
        Builtin::Round => {
            let n = arg(args, 0).to_php_float();
            let p = if args.len() > 1 {
                arg_int(args, 1).clamp(-12, 12)
            } else {
                0
            };
            let mult = 10f64.powi(p as i32);
            Value::Float((n * mult).round() / mult)
        }
        Builtin::Intdiv => {
            let (a, b) = (arg_int(args, 0), arg_int(args, 1));
            if b == 0 {
                return Err(VmError::Fatal("intdiv(): division by zero".into()));
            }
            Value::Int(a / b)
        }
        Builtin::Pow => {
            let (a, b) = (arg(args, 0), arg(args, 1));
            match (&a, &b) {
                (Value::Int(x), Value::Int(y)) if *y >= 0 && *y < 63 => {
                    match x.checked_pow(*y as u32) {
                        Some(v) => Value::Int(v),
                        None => Value::Float((*x as f64).powf(*y as f64)),
                    }
                }
                _ => Value::Float(a.to_php_float().powf(b.to_php_float())),
            }
        }
        Builtin::Sqrt => Value::Float(arg(args, 0).to_php_float().sqrt()),
        Builtin::Intval => Value::Int(arg(args, 0).to_php_int()),
        Builtin::Floatval => Value::Float(arg(args, 0).to_php_float()),
        Builtin::Strval => Value::str(arg_str(args, 0)),
        Builtin::Boolval => Value::Bool(arg(args, 0).is_truthy()),
        Builtin::Gettype => Value::str(match arg(args, 0) {
            Value::Null => "NULL",
            Value::Bool(_) => "boolean",
            Value::Int(_) => "integer",
            Value::Float(_) => "double",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
        }),
        Builtin::IsInt | Builtin::IsInteger => Value::Bool(matches!(arg(args, 0), Value::Int(_))),
        Builtin::IsString => Value::Bool(matches!(arg(args, 0), Value::Str(_))),
        Builtin::IsArray => Value::Bool(matches!(arg(args, 0), Value::Array(_))),
        Builtin::IsNull => Value::Bool(matches!(arg(args, 0), Value::Null)),
        Builtin::IsNumeric => Value::Bool(arg(args, 0).is_numeric()),
        Builtin::IsBool => Value::Bool(matches!(arg(args, 0), Value::Bool(_))),
        Builtin::IsFloat => Value::Bool(matches!(arg(args, 0), Value::Float(_))),
        // ------------------------------------------------ encoding
        Builtin::JsonEncode => Value::str(json_encode(arg(args, 0))),
        Builtin::MtGetrandmax => Value::Int(MT_MAX),
        other => {
            return Err(VmError::Fatal(format!(
                "builtin {}() dispatched through the wrong convention",
                other.name()
            )))
        }
    })
}

const MT_MAX: i64 = 2147483647;

/// Range-reduces a raw random draw per `mt_rand`'s argument forms; the
/// scalar and multivalue VMs share this so replays agree bit-for-bit.
pub fn mt_rand_reduce(raw: i64, args: &[Value]) -> Result<Value, VmError> {
    if args.len() >= 2 {
        let (lo, hi) = (arg_int(args, 0), arg_int(args, 1));
        if hi < lo {
            return Err(VmError::Fatal("mt_rand(): max below min".into()));
        }
        let span = (hi - lo).wrapping_add(1);
        Ok(Value::Int(lo + raw.rem_euclid(span.max(1))))
    } else {
        Ok(Value::Int(raw.rem_euclid(MT_MAX + 1)))
    }
}

/// Calls a by-reference builtin: returns `(new_target, php_return)`.
/// Args are a mutable slice (the register VM passes its register window
/// directly); consumed values are replaced with nulls in place.
pub fn dispatch_byref(id: u16, args: &mut [Value]) -> Result<(Value, Value), VmError> {
    let builtin = Builtin::from_id(id);
    let (target, args) = match args.split_first_mut() {
        Some((t, rest)) => (std::mem::replace(t, Value::Null), rest),
        None => (Value::Null, &mut [] as &mut [Value]),
    };
    let arr = match target {
        Value::Array(a) => a,
        Value::Null => Arc::new(PhpArray::new()),
        other => {
            return Err(VmError::Fatal(format!(
                "{}() expects an array, {} given",
                builtin.name(),
                other.type_name()
            )))
        }
    };
    Ok(match builtin {
        Builtin::ArrayPush => {
            let mut arr = arr;
            let a = Arc::make_mut(&mut arr);
            for v in args.iter_mut() {
                a.push(std::mem::replace(v, Value::Null))?;
            }
            let count = a.len() as i64;
            (Value::Array(arr), Value::Int(count))
        }
        Builtin::ArrayPop => {
            let mut arr = arr;
            let popped = Arc::make_mut(&mut arr)
                .pop_last()
                .map(|(_, v)| v)
                .unwrap_or(Value::Null);
            (Value::Array(arr), popped)
        }
        Builtin::ArrayShift => {
            let mut arr = arr;
            let a = Arc::make_mut(&mut arr);
            let shifted = a.shift_first().map(|(_, v)| v).unwrap_or(Value::Null);
            // PHP renumbers integer keys after a shift.
            let renumbered = renumber_int_keys(a)?;
            (Value::array(renumbered), shifted)
        }
        Builtin::ArrayUnshift => {
            let mut out = PhpArray::with_capacity(args.len() + arr.len());
            for v in args.iter_mut() {
                out.push(std::mem::replace(v, Value::Null))?;
            }
            for (k, v) in arr.iter() {
                match k {
                    Key::Int(_) => {
                        out.push(v.clone())?;
                    }
                    Key::Str(_) => out.set(k, v.clone()),
                }
            }
            let count = out.len() as i64;
            (Value::array(out), Value::Int(count))
        }
        Builtin::Sort | Builtin::Rsort => {
            let mut values: Vec<Value> = arr.values().cloned().collect();
            values.sort_by(|a, b| a.loose_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            if builtin == Builtin::Rsort {
                values.reverse();
            }
            (
                Value::array(PhpArray::from_values(values)),
                Value::Bool(true),
            )
        }
        Builtin::Ksort => {
            let mut pairs = arr.to_pairs();
            pairs.sort_by(|a, b| key_cmp(&a.0, &b.0));
            (Value::array(PhpArray::from_pairs(pairs)), Value::Bool(true))
        }
        Builtin::Asort | Builtin::Arsort => {
            let mut pairs = arr.to_pairs();
            pairs.sort_by(|a, b| a.1.loose_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
            if builtin == Builtin::Arsort {
                pairs.reverse();
            }
            (Value::array(PhpArray::from_pairs(pairs)), Value::Bool(true))
        }
        other => {
            return Err(VmError::Fatal(format!(
                "builtin {}() dispatched through the wrong convention",
                other.name()
            )))
        }
    })
}

fn renumber_int_keys(a: &PhpArray) -> Result<PhpArray, VmError> {
    let mut out = PhpArray::with_capacity(a.len());
    for (k, v) in a.iter() {
        match k {
            Key::Int(_) => {
                out.push(v.clone())?;
            }
            Key::Str(_) => out.set(k, v.clone()),
        }
    }
    Ok(out)
}

/// Key comparison for `ksort`: numeric keys before and among themselves
/// numerically, string keys bytewise.
fn key_cmp(a: &ArrayKey, b: &ArrayKey) -> std::cmp::Ordering {
    match (a, b) {
        (ArrayKey::Int(x), ArrayKey::Int(y)) => x.cmp(y),
        (ArrayKey::Str(x), ArrayKey::Str(y)) => x.cmp(y),
        (ArrayKey::Int(_), ArrayKey::Str(_)) => std::cmp::Ordering::Less,
        (ArrayKey::Str(_), ArrayKey::Int(_)) => std::cmp::Ordering::Greater,
    }
}

/// A `sprintf` subset: `%s %d %f %x %%` with `%[0][width][.prec]`.
fn sprintf(fmt: &str, args: &[Value]) -> Result<String, VmError> {
    let mut out = String::with_capacity(fmt.len());
    let mut chars = fmt.chars().peekable();
    let mut next_arg = 0usize;
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        if chars.peek() == Some(&'%') {
            chars.next();
            out.push('%');
            continue;
        }
        let mut zero_pad = false;
        if chars.peek() == Some(&'0') {
            zero_pad = true;
            chars.next();
        }
        let mut width = 0usize;
        while chars.peek().is_some_and(|c| c.is_ascii_digit()) {
            width = width * 10 + chars.next().expect("digit peeked") as usize - '0' as usize;
        }
        let mut precision: Option<usize> = None;
        if chars.peek() == Some(&'.') {
            chars.next();
            let mut p = 0usize;
            while chars.peek().is_some_and(|c| c.is_ascii_digit()) {
                p = p * 10 + chars.next().expect("digit peeked") as usize - '0' as usize;
            }
            precision = Some(p);
        }
        let spec = chars
            .next()
            .ok_or_else(|| VmError::Fatal("sprintf(): dangling %".into()))?;
        let v = args.get(next_arg).cloned().unwrap_or(Value::Null);
        next_arg += 1;
        let rendered = match spec {
            's' => {
                let mut s = v.to_php_string();
                if let Some(p) = precision {
                    s.truncate(p);
                }
                s
            }
            'd' => v.to_php_int().to_string(),
            'f' => format!("{:.*}", precision.unwrap_or(6), v.to_php_float()),
            'x' => format!("{:x}", v.to_php_int()),
            'X' => format!("{:X}", v.to_php_int()),
            other => {
                return Err(VmError::Fatal(format!(
                    "sprintf(): unsupported conversion %{other}"
                )))
            }
        };
        if rendered.len() < width {
            let pad = if zero_pad && matches!(spec, 'd' | 'f' | 'x' | 'X') {
                '0'
            } else {
                ' '
            };
            for _ in 0..width - rendered.len() {
                out.push(pad);
            }
        }
        out.push_str(&rendered);
    }
    Ok(out)
}

fn number_format(n: f64, decimals: usize) -> String {
    let negative = n < 0.0;
    let n = n.abs();
    let formatted = format!("{n:.decimals$}");
    let (int_part, frac_part) = match formatted.split_once('.') {
        Some((i, f)) => (i.to_string(), Some(f.to_string())),
        None => (formatted, None),
    };
    let mut grouped = String::new();
    let digits: Vec<char> = int_part.chars().collect();
    for (i, d) in digits.iter().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            grouped.push(',');
        }
        grouped.push(*d);
    }
    let mut out = String::new();
    if negative {
        out.push('-');
    }
    out.push_str(&grouped);
    if let Some(f) = frac_part {
        out.push('.');
        out.push_str(&f);
    }
    out
}

fn json_encode(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(true) => "true".to_string(),
        Value::Bool(false) => "false".to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format_php_float(*f),
        Value::Str(s) => json_string(s),
        Value::Array(a) => {
            // A "list" (keys exactly 0..n-1 in order) renders as a JSON
            // array; anything else as an object.
            let is_list = a
                .iter()
                .enumerate()
                .all(|(i, (k, _))| k == Key::Int(i as i64));
            if is_list {
                let items: Vec<String> = a.iter().map(|(_, v)| json_encode(v)).collect();
                format!("[{}]", items.join(","))
            } else {
                let items: Vec<String> = a
                    .iter()
                    .map(|(k, v)| {
                        let key = match k {
                            Key::Int(i) => json_string(&i.to_string()),
                            Key::Str(s) => json_string(s),
                        };
                        format!("{key}:{}", json_encode(v))
                    })
                    .collect();
                format!("{{{}}}", items.join(","))
            }
        }
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            // PHP escapes '/' by default; match that.
            '/' => out.push_str("\\/"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A host that records output; state calls are fatal.
    #[derive(Default)]
    struct TestHost {
        out: String,
    }

    impl Host for TestHost {
        fn echo(&mut self, s: &str) {
            self.out.push_str(s);
        }
        fn add_header(&mut self, _n: String, _v: String) {}
        fn set_status(&mut self, _c: u16) {}
        fn session_start(&mut self) -> Result<(), VmError> {
            Ok(())
        }
        fn kv_get(&mut self, _k: &str) -> Result<Value, VmError> {
            Ok(Value::Bool(false))
        }
        fn kv_set(&mut self, _k: &str, _v: Option<&Value>) -> Result<(), VmError> {
            Ok(())
        }
        fn db_begin(&mut self) -> Result<(), VmError> {
            Ok(())
        }
        fn db_query(&mut self, _sql: &str) -> Result<Value, VmError> {
            Ok(Value::Bool(true))
        }
        fn db_commit(&mut self) -> Result<bool, VmError> {
            Ok(true)
        }
        fn db_rollback(&mut self) -> Result<(), VmError> {
            Ok(())
        }
        fn db_insert_id(&mut self) -> i64 {
            0
        }
        fn db_affected_rows(&mut self) -> i64 {
            0
        }
        fn nd_time(&mut self) -> Result<i64, VmError> {
            Ok(1000)
        }
        fn nd_microtime(&mut self) -> Result<f64, VmError> {
            Ok(1000.5)
        }
        fn nd_getpid(&mut self) -> Result<i64, VmError> {
            Ok(7)
        }
        fn nd_rand_raw(&mut self) -> Result<i64, VmError> {
            Ok(123456)
        }
        fn nd_uniqid(&mut self) -> Result<String, VmError> {
            Ok("uid1".into())
        }
    }

    fn call(name: &str, args: Vec<Value>) -> Value {
        let mut host = TestHost::default();
        dispatch(lookup(name).unwrap(), &args, &mut host).unwrap()
    }

    fn s(v: &str) -> Value {
        Value::str(v)
    }

    #[test]
    fn keys_near_i64_max_end_instead_of_overflowing() {
        let max = Value::Int(i64::MAX);
        let range = call("range", vec![Value::Int(i64::MAX - 1), max.clone()]);
        assert_eq!(
            json_encode(&range),
            format!("[{},{}]", i64::MAX - 1, i64::MAX)
        );
        let step = Value::Int(i64::MIN);
        let range = call("range", vec![Value::Int(0), Value::Int(3), step]);
        assert_eq!(json_encode(&range), "[0]");
        let mut host = TestHost::default();
        let fill = dispatch(
            lookup("array_fill").unwrap(),
            &[max, Value::Int(2), Value::Null],
            &mut host,
        );
        assert_eq!(
            fill.err(),
            Some(VmError::Fatal(crate::value::NextKeyOccupied.to_string()))
        );
    }

    #[test]
    fn string_builtins() {
        assert!(call("strlen", vec![s("héllo")]).identical(&Value::Int(6))); // Bytes.
        assert!(
            call("substr", vec![s("abcdef"), Value::Int(1), Value::Int(3)]).identical(&s("bcd"))
        );
        assert!(call("substr", vec![s("abcdef"), Value::Int(-2)]).identical(&s("ef")));
        assert!(call("strpos", vec![s("hello"), s("ll")]).identical(&Value::Int(2)));
        assert!(call("strpos", vec![s("hello"), s("x")]).identical(&Value::Bool(false)));
        assert!(call("str_replace", vec![s("a"), s("b"), s("banana")]).identical(&s("bbnbnb")));
        assert!(call("ucfirst", vec![s("wiki")]).identical(&s("Wiki")));
        assert!(call("str_repeat", vec![s("ab"), Value::Int(3)]).identical(&s("ababab")));
        assert!(call("nl2br", vec![s("a\nb")]).identical(&s("a<br />\nb")));
    }

    #[test]
    fn explode_implode_roundtrip() {
        let parts = call("explode", vec![s(","), s("a,b,c")]);
        assert!(call("implode", vec![s("-"), parts]).identical(&s("a-b-c")));
    }

    #[test]
    fn sprintf_subset() {
        assert!(call(
            "sprintf",
            vec![
                s("%s has %d points (%.2f%%)"),
                s("dana"),
                Value::Int(9),
                Value::Float(12.5)
            ]
        )
        .identical(&s("dana has 9 points (12.50%)")));
        assert!(call("sprintf", vec![s("%05d"), Value::Int(42)]).identical(&s("00042")));
        assert!(call("sprintf", vec![s("%x"), Value::Int(255)]).identical(&s("ff")));
    }

    #[test]
    fn htmlspecialchars_escapes() {
        assert!(call("htmlspecialchars", vec![s("<a href=\"x\">&'</a>")])
            .identical(&s("&lt;a href=&quot;x&quot;&gt;&amp;&#039;&lt;/a&gt;")));
    }

    #[test]
    fn number_format_grouping() {
        assert!(call("number_format", vec![Value::Int(1234567)]).identical(&s("1,234,567")));
        assert!(call(
            "number_format",
            vec![Value::Float(1234.5678), Value::Int(2)]
        )
        .identical(&s("1,234.57")));
    }

    #[test]
    fn array_builtins() {
        let mut a = PhpArray::new();
        a.set(Key::Str("x"), Value::Int(1));
        a.set(Key::Str("y"), Value::Int(2));
        let arr = Value::array(a);
        assert!(call("count", vec![arr.clone()]).identical(&Value::Int(2)));
        assert!(call("array_sum", vec![arr.clone()]).identical(&Value::Int(3)));
        assert!(call("in_array", vec![Value::Int(2), arr.clone()]).identical(&Value::Bool(true)));
        assert!(call("array_key_exists", vec![s("x"), arr.clone()]).identical(&Value::Bool(true)));
        assert!(call("array_search", vec![Value::Int(2), arr.clone()]).identical(&s("y")));
        let keys = call("array_keys", vec![arr]);
        assert!(call("implode", vec![s(","), keys]).identical(&s("x,y")));
    }

    #[test]
    fn in_array_strict_mode() {
        let arr = Value::array(PhpArray::from_values(vec![Value::Int(1)]));
        assert!(call("in_array", vec![s("1"), arr.clone()]).identical(&Value::Bool(true)));
        assert!(
            call("in_array", vec![s("1"), arr, Value::Bool(true)]).identical(&Value::Bool(false))
        );
    }

    #[test]
    fn array_merge_renumbers_int_keys() {
        let a = Value::array(PhpArray::from_values(vec![Value::Int(1), Value::Int(2)]));
        let b = Value::array(PhpArray::from_values(vec![Value::Int(3)]));
        let merged = call("array_merge", vec![a, b]);
        match merged {
            Value::Array(m) => {
                let keys: Vec<_> = m.iter().map(|(k, _)| k.owned()).collect();
                assert_eq!(
                    keys,
                    vec![ArrayKey::Int(0), ArrayKey::Int(1), ArrayKey::Int(2)]
                );
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn byref_builtins() {
        let arr = Value::array(PhpArray::from_values(vec![Value::Int(3), Value::Int(1)]));
        let (sorted, ok) = dispatch_byref(lookup("sort").unwrap(), &mut [arr]).unwrap();
        assert!(ok.identical(&Value::Bool(true)));
        match &sorted {
            Value::Array(a) => {
                let vals: Vec<i64> = a.iter().map(|(_, v)| v.to_php_int()).collect();
                assert_eq!(vals, vec![1, 3]);
            }
            other => panic!("expected array, got {other:?}"),
        }
        let (after_push, count) =
            dispatch_byref(lookup("array_push").unwrap(), &mut [sorted, Value::Int(9)]).unwrap();
        assert!(count.identical(&Value::Int(3)));
        let (after_pop, popped) =
            dispatch_byref(lookup("array_pop").unwrap(), &mut [after_push]).unwrap();
        assert!(popped.identical(&Value::Int(9)));
        let (_, shifted) =
            dispatch_byref(lookup("array_shift").unwrap(), &mut [after_pop]).unwrap();
        assert!(shifted.identical(&Value::Int(1)));
    }

    #[test]
    fn ksort_and_asort() {
        let mut a = PhpArray::new();
        a.set(Key::Str("b"), Value::Int(2));
        a.set(Key::Str("a"), Value::Int(3));
        a.set(Key::Int(5), Value::Int(1));
        let (ksorted, _) =
            dispatch_byref(lookup("ksort").unwrap(), &mut [Value::array(a.clone())]).unwrap();
        match &ksorted {
            Value::Array(m) => {
                let keys: Vec<_> = m.iter().map(|(k, _)| k.owned()).collect();
                assert_eq!(
                    keys,
                    vec![
                        ArrayKey::Int(5),
                        ArrayKey::Str("a".into()),
                        ArrayKey::Str("b".into())
                    ]
                );
            }
            other => panic!("expected array, got {other:?}"),
        }
        let (asorted, _) =
            dispatch_byref(lookup("asort").unwrap(), &mut [Value::array(a)]).unwrap();
        match &asorted {
            Value::Array(m) => {
                let vals: Vec<i64> = m.iter().map(|(_, v)| v.to_php_int()).collect();
                assert_eq!(vals, vec![1, 2, 3]);
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn math_builtins() {
        assert!(call("abs", vec![Value::Int(-5)]).identical(&Value::Int(5)));
        assert!(
            call("max", vec![Value::Int(1), Value::Int(9), Value::Int(3)])
                .identical(&Value::Int(9))
        );
        let arr = Value::array(PhpArray::from_values(vec![Value::Int(4), Value::Int(2)]));
        assert!(call("min", vec![arr]).identical(&Value::Int(2)));
        assert!(call("intdiv", vec![Value::Int(7), Value::Int(2)]).identical(&Value::Int(3)));
        assert!(
            call("round", vec![Value::Float(2.567), Value::Int(2)]).identical(&Value::Float(2.57))
        );
        assert!(call("pow", vec![Value::Int(2), Value::Int(10)]).identical(&Value::Int(1024)));
    }

    #[test]
    fn json_encode_shapes() {
        let list = Value::array(PhpArray::from_values(vec![
            Value::Int(1),
            Value::str("a\"b"),
            Value::Null,
        ]));
        assert!(call("json_encode", vec![list]).identical(&s("[1,\"a\\\"b\",null]")));
        let mut obj = PhpArray::new();
        obj.set(Key::Str("k"), Value::Bool(true));
        obj.set(Key::Int(7), Value::Float(1.5));
        assert!(
            call("json_encode", vec![Value::array(obj)]).identical(&s("{\"k\":true,\"7\":1.5}"))
        );
    }

    #[test]
    fn nondet_through_host() {
        assert!(call("time", vec![]).identical(&Value::Int(1000)));
        assert!(call("getpid", vec![]).identical(&Value::Int(7)));
        // mt_rand(1, 10) reduces the raw draw into range.
        let v = call("mt_rand", vec![Value::Int(1), Value::Int(10)]);
        let i = v.to_php_int();
        assert!((1..=10).contains(&i));
    }

    #[test]
    fn md5_is_stable_and_hex() {
        let a = call("md5", vec![s("hello")]);
        let b = call("md5", vec![s("hello")]);
        assert!(a.identical(&b));
        let text = a.to_php_string();
        assert_eq!(text.len(), 32);
        assert!(text.chars().all(|c| c.is_ascii_hexdigit()));
        assert!(!call("md5", vec![s("hellp")]).identical(&a));
    }

    #[test]
    fn urlencode_rules() {
        assert!(call("urlencode", vec![s("a b&c=d")]).identical(&s("a+b%26c%3Dd")));
    }

    #[test]
    fn range_builtin() {
        let up = call("range", vec![Value::Int(1), Value::Int(4)]);
        assert!(call("implode", vec![s(","), up]).identical(&s("1,2,3,4")));
        let down = call("range", vec![Value::Int(3), Value::Int(1)]);
        assert!(call("implode", vec![s(","), down]).identical(&s("3,2,1")));
    }

    #[test]
    fn exit_is_not_an_error() {
        let mut host = TestHost::default();
        let r = dispatch(lookup("die").unwrap(), &[s("bye")], &mut host);
        assert_eq!(r.unwrap_err(), VmError::Exit);
        assert_eq!(host.out, "bye");
    }

    #[test]
    fn id_tables_match_the_name_table() {
        for (id, name) in NAMES.iter().enumerate() {
            let builtin = Builtin::from_id(id as u16);
            assert_eq!(builtin as usize, id);
            assert_eq!(builtin.name(), *name);
            assert_eq!(lookup(name), Some(id as u16));
        }
        // Exactly the builtins that go through the host.
        let impure: Vec<&str> = (0..NAMES.len() as u16)
            .filter(|id| is_impure(*id))
            .map(|id| NAMES[id as usize])
            .collect();
        assert_eq!(
            impure,
            [
                "print",
                "exit",
                "die",
                "header",
                "http_response_code",
                "setcookie",
                "session_start",
                "apc_fetch",
                "apc_store",
                "apc_delete",
                "db_query",
                "db_begin",
                "db_commit",
                "db_rollback",
                "db_insert_id",
                "db_affected_rows",
                "time",
                "microtime",
                "getpid",
                "mt_rand",
                "rand",
                "uniqid",
            ]
        );
        let byref: Vec<&str> = (0..NAMES.len() as u16)
            .filter(|id| is_byref(*id))
            .map(|id| NAMES[id as usize])
            .collect();
        assert_eq!(
            byref,
            [
                "array_push",
                "array_pop",
                "array_shift",
                "array_unshift",
                "sort",
                "rsort",
                "ksort",
                "asort",
                "arsort",
            ]
        );
    }

    #[test]
    fn substr_counts_characters_not_bytes() {
        let text = || s("añb€c");
        assert!(call("substr", vec![text(), Value::Int(1), Value::Int(3)]).identical(&s("ñb€")));
        assert!(call("substr", vec![text(), Value::Int(-2)]).identical(&s("€c")));
        assert!(call("substr", vec![text(), Value::Int(1), Value::Int(-1)]).identical(&s("ñb€")));
        assert!(call("substr", vec![text(), Value::Int(9)]).identical(&s("")));
        assert!(call("substr", vec![text(), Value::Int(0), Value::Int(99)]).identical(&text()));
        assert!(call(
            "substr",
            vec![Value::Int(12345), Value::Int(1), Value::Int(2)]
        )
        .identical(&s("23")));
    }
}
