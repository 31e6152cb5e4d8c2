//! The FIMI workshop transaction format: one transaction per line, items as
//! whitespace-separated tokens. Tokens are treated as opaque item names
//! (they need not be numbers); blank lines are empty transactions and lines
//! starting with `#` are comments.
//!
//! The reader is hardened against hostile input: every line is read through
//! a byte-bounded window (a single newline-free multi-gigabyte "line"
//! cannot buffer unbounded memory), and configurable [`FimiLimits`] cap the
//! line length, the items per transaction, and the magnitude of numeric
//! item codes. Every violation — including invalid UTF-8 and stray control
//! characters — is a [`FimError::Parse`] carrying the 1-based line number,
//! never a panic.
//!
//! [`read_fimi`] and [`FimiCursor`] share one line loop and one tokenizer,
//! which works on bytes for ASCII lines and on `str` for lines with other
//! characters, so both apply exactly the same rules.

use crate::text::ItemLines;
use fim_core::{FimError, Item, ItemCatalog, ItemSet, TransactionDatabase};
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::Path;

/// Input caps for the FIMI reader (see [`read_fimi_with_limits`]).
///
/// The defaults are far above anything in the public FIMI benchmark files
/// but low enough to stop a hostile file from exhausting memory: 1 MiB per
/// line, 65 536 items per transaction, and numeric item codes up to
/// `u32::MAX` (the workspace-wide [`fim_core::Item`] range).
#[derive(Clone, Copy, Debug)]
pub struct FimiLimits {
    /// Maximum content bytes per line (excluding the line terminator).
    pub max_line_bytes: usize,
    /// Maximum item tokens in one transaction line.
    pub max_items_per_transaction: usize,
    /// Maximum value of a fully numeric item token. Non-numeric tokens are
    /// opaque names and not affected.
    pub max_item_code: u64,
}

impl Default for FimiLimits {
    fn default() -> Self {
        FimiLimits {
            max_line_bytes: 1 << 20,
            max_items_per_transaction: 1 << 16,
            max_item_code: u64::from(u32::MAX),
        }
    }
}

/// Reads a transaction database from FIMI-format text with the default
/// [`FimiLimits`].
pub fn read_fimi<R: Read>(reader: R) -> Result<TransactionDatabase, FimError> {
    read_fimi_with_limits(reader, &FimiLimits::default())
}

/// Reads a transaction database from FIMI-format text, enforcing `limits`.
///
/// Violations are reported as [`FimError::Parse`] with the 1-based line
/// number; I/O failures stay [`FimError::Io`].
pub fn read_fimi_with_limits<R: Read>(
    reader: R,
    limits: &FimiLimits,
) -> Result<TransactionDatabase, FimError> {
    let mut lines = Lines::new(BufReader::with_capacity(READ_BUF, reader), limits);
    let mut names = Interner::default();
    let mut transactions = Vec::new();
    let mut codes: Vec<Item> = Vec::new();
    while let Some(()) = lines.next_transaction(|tokens| {
        codes.clear();
        codes.extend(tokens.iter().map(|t| names.intern(t)));
    })? {
        transactions.push(ItemSet::from(&codes[..]));
    }
    Ok(TransactionDatabase::from_parts(names.catalog, transactions))
}

/// Read buffer of both readers.
const READ_BUF: usize = 64 << 10;

/// Reads one newline-terminated line through the byte-bounded window into
/// `buf` (cleared first, terminator stripped). Returns `false` at end of
/// input; rejects over-long lines as [`FimError::Parse`] at `lineno`.
fn read_bounded_line<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    limits: &FimiLimits,
    lineno: usize,
) -> Result<bool, FimError> {
    buf.clear();
    // bounded read: never buffer more than the cap plus the room needed
    // to tell "exactly at the cap" from "over it"
    let window = limits.max_line_bytes.saturating_add(2) as u64;
    let n = reader.take(window).read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(false);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    if buf.len() > limits.max_line_bytes {
        return Err(FimError::Parse {
            line: lineno,
            message: format!("line exceeds {} bytes", limits.max_line_bytes),
        });
    }
    Ok(true)
}

/// The line loop of both readers: a bounded read, then [`tokenize_line`],
/// skipping comment lines.
struct Lines<R> {
    reader: R,
    limits: FimiLimits,
    lineno: usize,
    buf: Vec<u8>,
    tokens: Vec<Range<usize>>,
}

impl<R: BufRead> Lines<R> {
    fn new(reader: R, limits: &FimiLimits) -> Self {
        Lines {
            reader,
            limits: *limits,
            lineno: 0,
            buf: Vec::new(),
            tokens: Vec::new(),
        }
    }

    fn next_transaction<T>(
        &mut self,
        f: impl FnOnce(FimiTokens<'_>) -> T,
    ) -> Result<Option<T>, FimError> {
        loop {
            if !read_bounded_line(
                &mut self.reader,
                &mut self.buf,
                &self.limits,
                self.lineno + 1,
            )? {
                return Ok(None);
            }
            self.lineno += 1;
            if let Some(text) =
                tokenize_line(&self.buf, &self.limits, self.lineno, &mut self.tokens)?
            {
                return Ok(Some(f(FimiTokens {
                    text,
                    ranges: &self.tokens,
                })));
            }
        }
    }
}

/// Splits one line (terminator stripped) into item tokens under every
/// reader rule, filling `tokens` with their byte ranges in the returned
/// text. Returns `None` for a comment line; every violation is a
/// [`FimError::Parse`] at `lineno`.
///
/// The rules, in the order they apply: the line must be UTF-8; it is
/// trimmed of whitespace; a line starting with `#` is a comment; a control
/// character other than tab is an error; whitespace separates tokens; the
/// token count is capped; numeric tokens must be non-negative codes within
/// the cap. An ASCII line is split byte by byte. A line with any byte
/// ≥ 0x80 is split as a `str`, so Unicode whitespace (NBSP, U+3000, …)
/// trims and separates and U+0080–U+009F count as control characters.
fn tokenize_line<'a>(
    line: &'a [u8],
    limits: &FimiLimits,
    lineno: usize,
    tokens: &mut Vec<Range<usize>>,
) -> Result<Option<&'a str>, FimError> {
    tokens.clear();
    let text = std::str::from_utf8(line).map_err(|_| FimError::Parse {
        line: lineno,
        message: "invalid UTF-8".into(),
    })?;
    let split = if text.is_ascii() {
        split_ascii(line, tokens)
    } else {
        split_unicode(text, tokens)
    };
    match split {
        Split::Comment => return Ok(None),
        Split::Control => {
            return Err(FimError::Parse {
                line: lineno,
                message: "unexpected control character".into(),
            })
        }
        Split::Tokens => {}
    }
    if tokens.len() > limits.max_items_per_transaction {
        return Err(FimError::Parse {
            line: lineno,
            message: format!(
                "{} items in one transaction exceeds the cap of {}",
                tokens.len(),
                limits.max_items_per_transaction
            ),
        });
    }
    for r in tokens.iter() {
        check_code(&text[r.clone()], limits, lineno)?;
    }
    Ok(Some(text))
}

/// What splitting a line found.
enum Split {
    Tokens,
    Comment,
    Control,
}

/// The ASCII whitespace `char::is_whitespace` counts: tab, LF, VT, FF, CR
/// and space (`u8::is_ascii_whitespace` leaves out VT).
fn is_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// Splits an ASCII line. Inside the trimmed line the only whitespace that
/// is not a control character is space and tab, so they alone separate.
fn split_ascii(line: &[u8], tokens: &mut Vec<Range<usize>>) -> Split {
    let end = line
        .iter()
        .rposition(|&b| !is_space(b))
        .map_or(0, |p| p + 1);
    let start = line[..end]
        .iter()
        .position(|&b| !is_space(b))
        .unwrap_or(end);
    if line[start..end].first() == Some(&b'#') {
        return Split::Comment;
    }
    let mut token_start = None;
    for (i, &b) in line.iter().enumerate().take(end).skip(start) {
        if b == b' ' || b == b'\t' {
            if let Some(s) = token_start.take() {
                tokens.push(s..i);
            }
        } else if b.is_ascii_control() {
            return Split::Control;
        } else if token_start.is_none() {
            token_start = Some(i);
        }
    }
    if let Some(s) = token_start {
        tokens.push(s..end);
    }
    Split::Tokens
}

/// Splits a line with non-ASCII characters by Unicode whitespace.
fn split_unicode(text: &str, tokens: &mut Vec<Range<usize>>) -> Split {
    let trimmed = text.trim();
    if trimmed.starts_with('#') {
        return Split::Comment;
    }
    if trimmed.chars().any(|c| c.is_control() && c != '\t') {
        return Split::Control;
    }
    let base = text.as_ptr() as usize;
    tokens.extend(trimmed.split_whitespace().map(|t| {
        let at = t.as_ptr() as usize - base;
        at..at + t.len()
    }));
    Split::Tokens
}

/// Rejects numeric tokens outside the configured item-code range. A token
/// is *numeric* when it is all ASCII digits (or a `-` followed by digits);
/// anything else is an opaque item name and passes.
fn check_code(token: &str, limits: &FimiLimits, lineno: usize) -> Result<(), FimError> {
    let bytes = token.as_bytes();
    let digits = bytes.strip_prefix(b"-").unwrap_or(bytes);
    if digits.is_empty() || !digits.iter().all(u8::is_ascii_digit) {
        return Ok(());
    }
    if digits.len() < bytes.len() {
        return Err(FimError::Parse {
            line: lineno,
            message: format!("negative item code `{token}`"),
        });
    }
    let code = digits.iter().try_fold(0u64, |v, &d| {
        v.checked_mul(10)?.checked_add(u64::from(d - b'0'))
    });
    match code {
        Some(code) if code <= limits.max_item_code => Ok(()),
        _ => Err(FimError::Parse {
            line: lineno,
            message: format!(
                "item code `{token}` exceeds the cap of {}",
                limits.max_item_code
            ),
        }),
    }
}

/// Canonical decimal names below this value find their code in
/// [`Interner`]'s table without hashing. The table grows to the largest
/// such name seen, so the cap bounds it at 4 MiB whatever the input holds;
/// larger names take the catalog's hashed path.
const NUMERIC_CACHE_CAP: usize = 1 << 20;

/// Marks a name the numeric table has not seen.
const UNSEEN: Item = Item::MAX;

/// Interns item tokens into an [`ItemCatalog`], with a direct-indexed table
/// in front of it for canonical decimal tokens below [`NUMERIC_CACHE_CAP`]
/// (`7`, not `007`). A value has exactly one canonical spelling, so the
/// table maps the same names to the same codes the catalog would; every
/// other token, `007` included, goes to the catalog.
#[derive(Default)]
struct Interner {
    catalog: ItemCatalog,
    /// `numeric[v]` is the code of the name spelling `v`, or [`UNSEEN`].
    numeric: Vec<Item>,
}

impl Interner {
    fn intern(&mut self, token: &str) -> Item {
        let Some(v) = small_decimal(token.as_bytes()) else {
            return self.catalog.intern(token);
        };
        match self.numeric.get(v) {
            Some(&code) if code != UNSEEN => code,
            _ => {
                let code = self.catalog.intern(token);
                if v >= self.numeric.len() {
                    self.numeric.resize(v + 1, UNSEEN);
                }
                self.numeric[v] = code;
                code
            }
        }
    }
}

/// The value of a canonical decimal token below [`NUMERIC_CACHE_CAP`]:
/// ASCII digits without a leading zero (or `0` itself), at most seven of
/// them (the cap has seven digits).
fn small_decimal(token: &[u8]) -> Option<usize> {
    if token.is_empty() || token.len() > 7 || (token[0] == b'0' && token.len() > 1) {
        return None;
    }
    let mut v = 0usize;
    for &b in token {
        if !b.is_ascii_digit() {
            return None;
        }
        v = v * 10 + usize::from(b - b'0');
    }
    (v < NUMERIC_CACHE_CAP).then_some(v)
}

/// Reads a FIMI file from disk with the default [`FimiLimits`].
pub fn read_fimi_path<P: AsRef<Path>>(path: P) -> Result<TransactionDatabase, FimError> {
    read_fimi(std::fs::File::open(path)?)
}

/// Reads a FIMI file from disk, enforcing `limits`.
pub fn read_fimi_path_with_limits<P: AsRef<Path>>(
    path: P,
    limits: &FimiLimits,
) -> Result<TransactionDatabase, FimError> {
    read_fimi_with_limits(std::fs::File::open(path)?, limits)
}

/// The item tokens of one FIMI transaction line, as [`FimiCursor`] yields
/// them.
#[derive(Clone, Copy, Debug)]
pub struct FimiTokens<'a> {
    text: &'a str,
    ranges: &'a [Range<usize>],
}

impl<'a> FimiTokens<'a> {
    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether the line holds no token (a blank line: an empty
    /// transaction).
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The tokens in line order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a str> + 'a {
        let text = self.text;
        self.ranges.iter().map(move |r| &text[r.clone()])
    }
}

/// A re-windable streaming reader over a FIMI source: yields one validated
/// transaction's tokens at a time through the same line loop and
/// [`FimiLimits`] enforcement as [`read_fimi_with_limits`], without ever
/// materializing the database. `rewind` seeks back to the start, so the
/// out-of-core pipeline can run its two passes (count, then re-read and
/// recode) over one open handle.
pub struct FimiCursor<R: Read + Seek> {
    lines: Lines<BufReader<R>>,
}

impl FimiCursor<std::fs::File> {
    /// Opens a FIMI file for cursoring.
    pub fn open<P: AsRef<Path>>(path: P, limits: &FimiLimits) -> Result<Self, FimError> {
        Ok(FimiCursor::new(std::fs::File::open(path)?, limits))
    }
}

impl<R: Read + Seek> FimiCursor<R> {
    /// Wraps any seekable source.
    pub fn new(inner: R, limits: &FimiLimits) -> Self {
        FimiCursor {
            lines: Lines::new(BufReader::with_capacity(READ_BUF, inner), limits),
        }
    }

    /// Seeks back to the start of the source for another pass.
    pub fn rewind(&mut self) -> Result<(), FimError> {
        self.lines.reader.seek(SeekFrom::Start(0))?;
        self.lines.lineno = 0;
        Ok(())
    }

    /// 1-based line number of the most recently yielded line.
    pub fn lineno(&self) -> usize {
        self.lines.lineno
    }

    /// Yields the next transaction's item tokens to `f`, skipping comment
    /// lines. Returns `Ok(None)` at end of input. Blank lines are empty
    /// transactions and are yielded as an empty token list.
    pub fn next_transaction<T>(
        &mut self,
        f: impl FnOnce(FimiTokens<'_>) -> T,
    ) -> Result<Option<T>, FimError> {
        self.lines.next_transaction(f)
    }
}

/// Pass-1 summary of a FIMI file for the out-of-core pipeline: the interned
/// item catalog (codes in order of first appearance, identical to
/// [`read_fimi`]'s), per-item transaction frequencies, and the transaction
/// count — everything [`fim_core::StreamingRecode`] needs, gathered in one
/// bounded streaming pass that never holds more than one line in memory.
#[derive(Clone, Debug, Default)]
pub struct FimiCounts {
    /// Item names interned in order of first appearance.
    pub catalog: ItemCatalog,
    /// Number of transactions containing each item (duplicates within a
    /// line counted once, matching
    /// [`TransactionDatabase::item_frequencies`]).
    pub frequencies: Vec<u32>,
    /// Total transactions (non-comment lines, empty ones included).
    pub transactions: u64,
}

/// Streams a FIMI file once and returns its [`FimiCounts`].
pub fn count_fimi_path<P: AsRef<Path>>(
    path: P,
    limits: &FimiLimits,
) -> Result<FimiCounts, FimError> {
    let mut cursor = FimiCursor::open(path, limits)?;
    let mut names = Interner::default();
    let mut frequencies: Vec<u32> = Vec::new();
    let mut transactions = 0u64;
    let mut codes: Vec<Item> = Vec::new();
    while let Some(()) = cursor.next_transaction(|tokens| {
        codes.clear();
        codes.extend(tokens.iter().map(|t| names.intern(t)));
    })? {
        fim_core::fault::hit(fim_core::fault::points::COUNTS_PASS1)?;
        transactions += 1;
        frequencies.resize(names.catalog.len(), 0);
        codes.sort_unstable();
        codes.dedup();
        for &c in &codes {
            frequencies[c as usize] += 1;
        }
    }
    frequencies.resize(names.catalog.len(), 0);
    Ok(FimiCounts {
        catalog: names.catalog,
        frequencies,
        transactions,
    })
}

/// Writes a transaction database in FIMI format (item names as tokens).
pub fn write_fimi<W: Write>(db: &TransactionDatabase, writer: W) -> Result<(), FimError> {
    let mut out = ItemLines::new(db.catalog(), writer);
    for t in db.transactions() {
        out.names(t.as_slice())?;
        out.end_line()?;
    }
    out.finish()
}

/// Writes a FIMI file to disk. The writer hands the file whole chunks, so
/// it needs no buffer of its own.
pub fn write_fimi_path<P: AsRef<Path>>(db: &TransactionDatabase, path: P) -> Result<(), FimError> {
    write_fimi(db, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_basic() {
        let text = "1 2 3\n2 4\n\n1 4\n";
        let db = read_fimi(text.as_bytes()).unwrap();
        assert_eq!(db.num_transactions(), 4);
        assert_eq!(db.transactions()[2], ItemSet::empty());
        // names "1","2","3" interned in order of appearance
        assert_eq!(db.catalog().code("4"), Some(3));
    }

    #[test]
    fn comments_and_whitespace() {
        let text = "# header\n  a   b\t c \n#tail\n";
        let db = read_fimi(text.as_bytes()).unwrap();
        assert_eq!(db.num_transactions(), 1);
        assert_eq!(db.transactions()[0].len(), 3);
    }

    #[test]
    fn non_numeric_tokens_allowed() {
        let db = read_fimi("milk bread\nbread butter\n".as_bytes()).unwrap();
        assert_eq!(db.num_items(), 3);
        assert_eq!(db.item_frequencies(), vec![1, 2, 1]);
    }

    #[test]
    fn roundtrip() {
        let text = "a b c\nb d\nd\n";
        let db = read_fimi(text.as_bytes()).unwrap();
        let mut out = Vec::new();
        write_fimi(&db, &mut out).unwrap();
        let db2 = read_fimi(&out[..]).unwrap();
        assert_eq!(db.transactions(), db2.transactions());
    }

    #[test]
    fn path_roundtrip() {
        let dir = std::env::temp_dir().join("fim_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.fimi");
        let db = read_fimi("x y\ny z\n".as_bytes()).unwrap();
        write_fimi_path(&db, &path).unwrap();
        let db2 = read_fimi_path(&path).unwrap();
        assert_eq!(db.transactions(), db2.transactions());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn duplicate_items_in_line_are_merged() {
        let db = read_fimi("a a b\n".as_bytes()).unwrap();
        assert_eq!(db.transactions()[0].len(), 2);
    }

    #[test]
    fn missing_file_is_io_error() {
        let e = read_fimi_path("/nonexistent/nowhere.fimi").unwrap_err();
        assert!(matches!(e, FimError::Io(_)));
    }

    fn parse_line(e: FimError) -> usize {
        match e {
            FimError::Parse { line, .. } => line,
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn long_line_rejected_with_line_number() {
        let limits = FimiLimits {
            max_line_bytes: 16,
            ..FimiLimits::default()
        };
        let text = "a b\nc d e f g h i j k l m n o p\nq\n";
        let e = read_fimi_with_limits(text.as_bytes(), &limits).unwrap_err();
        assert_eq!(parse_line(e), 2);
        // exactly at the cap is fine
        let ok = read_fimi_with_limits("0123456789abcdef\n".as_bytes(), &limits).unwrap();
        assert_eq!(ok.num_transactions(), 1);
    }

    #[test]
    fn unbounded_line_without_newline_is_rejected_not_buffered() {
        let limits = FimiLimits {
            max_line_bytes: 8,
            ..FimiLimits::default()
        };
        // no trailing newline at all: the bounded window must still trip
        let e = read_fimi_with_limits("aaaaaaaaaaaaaaaaaaaaaaaa".as_bytes(), &limits).unwrap_err();
        assert_eq!(parse_line(e), 1);
    }

    #[test]
    fn too_many_items_rejected() {
        let limits = FimiLimits {
            max_items_per_transaction: 3,
            ..FimiLimits::default()
        };
        assert!(read_fimi_with_limits("a b c\n".as_bytes(), &limits).is_ok());
        let e = read_fimi_with_limits("x\na b c d\n".as_bytes(), &limits).unwrap_err();
        assert_eq!(parse_line(e), 2);
    }

    #[test]
    fn numeric_code_magnitude_capped() {
        // default cap is u32::MAX
        let e = read_fimi("1 2 4294967296\n".as_bytes()).unwrap_err();
        assert_eq!(parse_line(e), 1);
        assert!(read_fimi("1 2 4294967295\n".as_bytes()).is_ok());
        // numbers too large for u64 must not panic either
        let e = read_fimi("99999999999999999999999999\n".as_bytes()).unwrap_err();
        assert_eq!(parse_line(e), 1);
    }

    #[test]
    fn negative_codes_rejected_but_names_with_dashes_pass() {
        let e = read_fimi("3 -7\n".as_bytes()).unwrap_err();
        assert_eq!(parse_line(e), 1);
        // not numeric: opaque names
        let db = read_fimi("gene-7 -x- -\n".as_bytes()).unwrap();
        assert_eq!(db.num_items(), 3);
    }

    #[test]
    fn invalid_utf8_is_a_parse_error_with_line_number() {
        let bytes: &[u8] = b"a b\n\xff\xfe\n";
        let e = read_fimi(bytes).unwrap_err();
        assert_eq!(parse_line(e), 2);
    }

    #[test]
    fn cursor_streams_and_rewinds() {
        let text = "a b\n# comment\nb c d\n\n";
        let mut cur = FimiCursor::new(std::io::Cursor::new(text), &FimiLimits::default());
        let mut seen = Vec::new();
        while let Some(n) = cur.next_transaction(|t| t.len()).unwrap() {
            seen.push(n);
        }
        // comment skipped, blank line yielded as an empty transaction
        assert_eq!(seen, vec![2, 3, 0]);
        assert_eq!(cur.lineno(), 4);
        cur.rewind().unwrap();
        assert_eq!(
            cur.next_transaction(|t| t.iter().collect::<Vec<_>>().join(","))
                .unwrap()
                .as_deref(),
            Some("a,b")
        );
        assert_eq!(cur.lineno(), 1);
    }

    #[test]
    fn cursor_enforces_limits_with_line_numbers() {
        let limits = FimiLimits {
            max_line_bytes: 8,
            ..FimiLimits::default()
        };
        let mut cur = FimiCursor::new(std::io::Cursor::new("a b\nlonger than eight\n"), &limits);
        assert!(cur.next_transaction(|_| ()).unwrap().is_some());
        let e = cur.next_transaction(|_| ()).unwrap_err();
        assert_eq!(parse_line(e), 2);
    }

    #[test]
    fn numeric_cache_holds_canonical_codes_below_the_cap_only() {
        let mut names = Interner::default();
        assert_eq!(names.intern("7"), 0);
        assert_eq!(names.intern("007"), 1);
        assert_eq!(names.intern("7"), 0);
        assert_eq!(names.numeric.len(), 8);
        // a huge canonical code, and the cap itself, take the hashed path
        // and leave the table as it is
        assert_eq!(names.intern("4294967295"), 2);
        assert_eq!(names.intern("1048576"), 3);
        assert_eq!(names.numeric.len(), 8);
        assert_eq!(names.intern("1048575"), 4);
        assert_eq!(names.numeric.len(), NUMERIC_CACHE_CAP);
        assert_eq!(names.catalog.code("007"), Some(1));
        assert_eq!(names.catalog.code("4294967295"), Some(2));
    }

    #[test]
    fn write_fimi_unknown_code_is_invalid_input() {
        let mut db = read_fimi("a b\n".as_bytes()).unwrap();
        db.push(ItemSet::from([7]));
        match write_fimi(&db, Vec::new()) {
            Err(FimError::InvalidInput(m)) => assert_eq!(m, "item code 7 has no catalog name"),
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn control_character_line_number_is_exact() {
        let e = read_fimi("a\nb\nc\x07 d\n".as_bytes()).unwrap_err();
        assert_eq!(parse_line(e), 3);
    }
}
