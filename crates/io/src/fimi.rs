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
//! [`scan_fimi`], [`read_fimi`], [`FimiCursor`] and [`count_fimi_path`]
//! share one line loop and one tokenizer, so all four apply exactly the
//! same rules. The tokenizer splits an ASCII line in one pass over its
//! bytes, finding the tokens and the values of the numeric ones as it goes
//! (only a token that starts with digits and is not a code is read twice),
//! and hands each token on as soon as it ends; lines with other characters
//! are split as a `str`. [`scan_fimi`] interns each token as it ends and
//! adds its code to a [`ScannedDatabase`] row, which [`read_fimi`] then
//! sorts into a [`TransactionDatabase`].
//!
//! A large regular file is read in ranges of whole lines, each by the
//! same loop on a scoped thread of its own, and the ranges' scans are
//! joined in file order ([`scan_fimi_split`], DESIGN.md §27): the scan,
//! or the first error and its line, is what one pass over the file gives.

use crate::text::ItemLines;
use fim_core::ranges::{range_count, run_parts};
use fim_core::{FimError, Item, ItemCatalog, ScannedDatabase, TransactionDatabase};
use std::fs::File;
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
    scan_fimi_with_limits(reader, limits).map(ScannedDatabase::into_database)
}

/// Reads FIMI-format text in one pass with the default [`FimiLimits`],
/// leaving each transaction duplicate-free in line order: the input of a
/// recode that sorts each row once, in its own code order
/// ([`fim_core::RecodedDatabase::prepare_scanned`]).
pub fn scan_fimi<R: Read>(reader: R) -> Result<ScannedDatabase, FimError> {
    scan_fimi_with_limits(reader, &FimiLimits::default())
}

/// [`scan_fimi`] enforcing `limits`, with the errors of
/// [`read_fimi_with_limits`].
pub fn scan_fimi_with_limits<R: Read>(
    reader: R,
    limits: &FimiLimits,
) -> Result<ScannedDatabase, FimError> {
    scan_range(reader, limits).map(|(scan, _)| scan)
}

/// The scan of every reader: the scan of `reader`'s lines, and the
/// number of lines read, comment and blank lines included.
fn scan_range<R: Read>(
    reader: R,
    limits: &FimiLimits,
) -> Result<(ScannedDatabase, usize), FimError> {
    let mut lines = Lines::new(BufReader::with_capacity(READ_BUF, reader), limits);
    let mut sink = ScanSink::default();
    while let Some(()) = lines.next_transaction(&mut sink, |_, sink| sink.scan.end_row())? {}
    Ok((sink.scan, lines.lineno))
}

/// Scans a FIMI file from disk with the default [`FimiLimits`]; a large
/// regular file is read in ranges on scoped threads, one per available
/// CPU ([`range_count`]).
pub fn scan_fimi_path<P: AsRef<Path>>(path: P) -> Result<ScannedDatabase, FimError> {
    scan_path(path.as_ref(), &FimiLimits::default())
}

/// The scan of every path: a regular file is cut evenly into
/// [`range_count`] ranges for [`scan_fimi_split`], and any other file (a
/// pipe, a terminal) or a single range is read by one loop, as
/// [`scan_fimi_with_limits`] reads it.
fn scan_path(path: &Path, limits: &FimiLimits) -> Result<ScannedDatabase, FimError> {
    let file = File::open(path)?;
    let meta = file.metadata()?;
    let len = if meta.is_file() { meta.len() } else { 0 };
    let ranges = range_count(len) as u64;
    if ranges == 1 {
        return scan_fimi_with_limits(file, limits);
    }
    let cuts: Vec<u64> = (1..ranges).map(|j| j * len / ranges).collect();
    let open = |at: u64| -> std::io::Result<File> {
        let mut file = File::open(path)?;
        file.seek(SeekFrom::Start(at))?;
        Ok(file)
    };
    scan_fimi_split(open, &cuts, limits)
}

/// Scans FIMI text in ranges of whole lines, on scoped threads, and
/// joins the ranges' scans in order ([`ScannedDatabase::append`]);
/// `scan_fimi_path` calls it with even cuts of a large file. `open(at)`
/// gives a reader of the text from byte `at` on, and each range reads
/// from one of its own, on a thread of its own.
///
/// The ranges start at 0 and at each of `cuts` moved forward to the
/// first line start at or after it. The line end before that start must
/// lie within the window a line at the cap takes; a cut with no line end
/// there, or one that lands at or before the previous range's start, is
/// dropped, so that an over-long line keeps its own error. The last range
/// reads to the end of the text.
///
/// The result is [`scan_fimi_with_limits`]'s on the whole text: the
/// earliest range that fails decides the error, and a parse error's line
/// counts every line of the ranges before it.
pub fn scan_fimi_split<R: Read>(
    open: impl Fn(u64) -> std::io::Result<R> + Sync,
    cuts: &[u64],
    limits: &FimiLimits,
) -> Result<ScannedDatabase, FimError> {
    let mut starts = vec![0];
    for &cut in cuts {
        if let Some(start) = line_start(&open, cut, limits)? {
            if start > starts[starts.len() - 1] {
                starts.push(start);
            }
        }
    }
    let ends = starts[1..].iter().copied().chain([u64::MAX]);
    let ranges: Vec<(u64, u64)> = starts.iter().copied().zip(ends).collect();
    let scans = run_parts(ranges, |(start, end)| {
        scan_range(open(start)?.take(end - start), limits)
    });
    let (mut joined, mut lines) = (None::<ScannedDatabase>, 0);
    for scan in scans {
        match scan {
            Ok((scan, n)) => {
                lines += n;
                match &mut joined {
                    Some(joined) => joined.append(scan),
                    None => joined = Some(scan),
                }
            }
            Err(FimError::Parse { line, message }) => {
                return Err(FimError::Parse {
                    line: lines + line,
                    message,
                })
            }
            Err(e) => return Err(e),
        }
    }
    Ok(joined.unwrap_or_default())
}

/// The first line start at or after `cut`: `cut` itself when a `\n`
/// precedes it, else just after the next `\n`, searched for in as many
/// bytes as [`read_bounded_line`] reads of one line. `None` without a line
/// end there.
fn line_start<R: Read>(
    open: impl Fn(u64) -> std::io::Result<R>,
    cut: u64,
    limits: &FimiLimits,
) -> Result<Option<u64>, FimError> {
    let Some(from) = cut.checked_sub(1) else {
        return Ok(Some(0));
    };
    let window = limits.max_line_bytes.saturating_add(2) as u64;
    let mut bytes = Vec::new();
    BufReader::with_capacity(8 << 10, open(from)?.take(window)).read_until(b'\n', &mut bytes)?;
    Ok((bytes.last() == Some(&b'\n')).then(|| from + bytes.len() as u64))
}

/// Read buffer of every reader.
const READ_BUF: usize = 64 << 10;

/// Reads one newline-terminated line through the byte-bounded window into
/// `buf` (cleared first, terminator stripped), for a line that does not end
/// inside the read buffer. Returns `false` at end of input. A line over the
/// cap is cut at the window, which [`Lines`] then rejects.
fn read_bounded_line<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    limits: &FimiLimits,
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
    Ok(true)
}

/// The line loop of every reader: a line that ends inside the read buffer
/// is tokenized where it lies, any other is first copied through the
/// byte-bounded window; over-long lines are rejected and comment lines
/// skipped.
struct Lines<R> {
    reader: R,
    limits: FimiLimits,
    lineno: usize,
    buf: Vec<u8>,
}

impl<R: BufRead> Lines<R> {
    fn new(reader: R, limits: &FimiLimits) -> Self {
        Lines {
            reader,
            limits: *limits,
            lineno: 0,
            buf: Vec::new(),
        }
    }

    /// Tokenizes the next transaction line into `sink`, then hands `f` the
    /// line and the sink. The sink holds none of the line's tokens before.
    fn next_transaction<S: TokenSink, T>(
        &mut self,
        sink: &mut S,
        f: impl FnOnce(&[u8], &mut S) -> T,
    ) -> Result<Option<T>, FimError> {
        loop {
            let lineno = self.lineno + 1;
            let buffered = self.reader.fill_buf()?;
            // (the line, the buffered bytes it takes up)
            let (line, used) = if let Some(end) = find_newline(buffered) {
                let line = &buffered[..end];
                (line.strip_suffix(b"\r").unwrap_or(line), end + 1)
            } else if read_bounded_line(&mut self.reader, &mut self.buf, &self.limits)? {
                (&self.buf[..], 0)
            } else {
                return Ok(None);
            };
            if line.len() > self.limits.max_line_bytes {
                return Err(FimError::Parse {
                    line: lineno,
                    message: format!("line exceeds {} bytes", self.limits.max_line_bytes),
                });
            }
            self.lineno = lineno;
            if tokenize_line(line, &self.limits, lineno, sink)? {
                let out = f(line, sink);
                self.reader.consume(used);
                return Ok(Some(out));
            }
            self.reader.consume(used);
        }
    }
}

/// The index of the first `\n` in `bytes`, tested eight bytes at a time.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let mut words = bytes.chunks_exact(8);
    for (k, word) in (&mut words).enumerate() {
        let w = u64::from_le_bytes(word.try_into().expect("8 bytes")) ^ (ONES * u64::from(b'\n'));
        // the high bit of each zero byte of `w`, and possibly of bytes
        // after the first zero one, whose index the lowest bit gives
        let zero = w.wrapping_sub(ONES) & !w & (ONES << 7);
        if zero != 0 {
            return Some(8 * k + zero.trailing_zeros() as usize / 8);
        }
    }
    let rest = words.remainder();
    let at = bytes.len() - rest.len();
    rest.iter().position(|&b| b == b'\n').map(|p| at + p)
}

/// One item token of a line.
#[derive(Clone, Debug)]
struct Token {
    /// Its bytes in the line.
    range: Range<usize>,
    /// Its value when it is a canonical decimal below
    /// [`NUMERIC_CACHE_CAP`], so that [`Interner`] finds its code without
    /// reading it again.
    small: Option<u32>,
}

/// The text of token `t` of `line`.
fn token_str<'a>(line: &'a [u8], t: &Token) -> &'a str {
    std::str::from_utf8(&line[t.range.clone()]).expect("the tokenizer hands on UTF-8 tokens only")
}

/// Takes a line's item tokens from the tokenizer, each as soon as it ends.
/// A token the tokenizer hands on is UTF-8 and is a name or a code within
/// the cap; it may still belong to a line that turns out to be an error.
trait TokenSink {
    /// Token `t` of `line`.
    fn token(&mut self, line: &[u8], t: Token);

    /// The line is split again from its start as a `str`: drops every
    /// token of it handed on so far.
    fn restart(&mut self);
}

/// Keeps the tokens, for [`FimiCursor`].
impl TokenSink for Vec<Token> {
    fn token(&mut self, _: &[u8], t: Token) {
        self.push(t);
    }

    fn restart(&mut self) {
        self.clear();
    }
}

/// Interns each token and adds its code to the open row, for
/// [`scan_fimi`].
#[derive(Default)]
struct ScanSink {
    names: Interner,
    scan: ScannedDatabase,
}

impl TokenSink for ScanSink {
    fn token(&mut self, line: &[u8], t: Token) {
        let code = self.names.intern(self.scan.catalog_mut(), line, &t);
        self.scan.push_item(code);
    }

    fn restart(&mut self) {
        self.scan.discard_row();
    }
}

/// Splits one line (terminator stripped) into item tokens under every
/// reader rule, handing each to `sink`. Returns `false` for a comment
/// line; every violation is a [`FimError::Parse`] at `lineno`, found after
/// the tokens before it were handed on.
///
/// The rules, in the order they apply: the line must be UTF-8; it is
/// trimmed of whitespace; a line starting with `#` is a comment; a control
/// character other than tab is an error; whitespace separates tokens; the
/// token count is capped; numeric tokens must be non-negative codes within
/// the cap, and the first one that is not is reported. An ASCII line is
/// checked, split and its tokens classified in one pass over its bytes,
/// which hands the line on at its first byte ≥ 0x80. Such a line is
/// split again from its start as a `str`, so Unicode whitespace (NBSP,
/// U+3000, …) trims and separates and U+0080–U+009F count as control
/// characters; its ASCII tokens are classified by the same [`scan_token`].
fn tokenize_line(
    line: &[u8],
    limits: &FimiLimits,
    lineno: usize,
    sink: &mut impl TokenSink,
) -> Result<bool, FimError> {
    let split = match split_ascii(line, limits, sink) {
        Some(split) => split,
        None => {
            sink.restart();
            let text = std::str::from_utf8(line).map_err(|_| FimError::Parse {
                line: lineno,
                message: "invalid UTF-8".into(),
            })?;
            split_unicode(text, limits, sink)
        }
    };
    let Tokens { count, first_bad } = match split {
        Split::Tokens(tokens) => tokens,
        Split::Comment => return Ok(false),
        Split::Control => {
            return Err(FimError::Parse {
                line: lineno,
                message: "unexpected control character".into(),
            })
        }
    };
    if count > limits.max_items_per_transaction {
        return Err(FimError::Parse {
            line: lineno,
            message: format!(
                "{count} items in one transaction exceeds the cap of {}",
                limits.max_items_per_transaction
            ),
        });
    }
    if let Some(range) = first_bad {
        let token = token_str(line, &Token { range, small: None });
        let message = if token.starts_with('-') {
            format!("negative item code `{token}`")
        } else {
            format!(
                "item code `{token}` exceeds the cap of {}",
                limits.max_item_code
            )
        };
        return Err(FimError::Parse {
            line: lineno,
            message,
        });
    }
    Ok(true)
}

/// What splitting a line found.
enum Split {
    Tokens(Tokens),
    Comment,
    Control,
}

/// The count of a line's tokens so far, and where the first numeric one
/// outside the code range lies. A bad token is counted but not handed on.
#[derive(Default)]
struct Tokens {
    count: usize,
    first_bad: Option<Range<usize>>,
}

impl Tokens {
    /// Counts the token at `range` of `line` and hands it to `sink`, or
    /// notes it when it is the line's first bad code.
    fn take(&mut self, line: &[u8], range: Range<usize>, class: Class, sink: &mut impl TokenSink) {
        self.count += 1;
        let small = match class {
            Class::Code { small } => small,
            Class::Name => None,
            Class::Bad => {
                self.first_bad.get_or_insert(range);
                return;
            }
        };
        sink.token(line, Token { range, small });
    }
}

/// What a token is as a number.
enum Class {
    /// Not all digits (after an optional leading `-`): an opaque name.
    Name,
    /// A code within the cap; `small` as in [`Token`].
    Code { small: Option<u32> },
    /// Negative, or above the cap.
    Bad,
}

/// The ASCII whitespace `char::is_whitespace` counts: tab, LF, VT, FF, CR
/// and space (`u8::is_ascii_whitespace` leaves out VT).
fn is_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// Splits an ASCII line and classifies its tokens in one pass, handing
/// each to `sink` as it ends, or returns `None` at the first byte ≥ 0x80.
/// Inside the trimmed line the only whitespace that is not a control
/// character is space and tab, so they alone separate. A comment or a
/// control character ends the pass early, so the rest of the line is
/// checked for non-ASCII bytes first: invalid UTF-8 anywhere in a line is
/// the first error it reports.
fn split_ascii(line: &[u8], limits: &FimiLimits, sink: &mut impl TokenSink) -> Option<Split> {
    let early = |split: Split| line.is_ascii().then_some(split);
    let end = line
        .iter()
        .rposition(|&b| !is_space(b))
        .map_or(0, |p| p + 1);
    let mut i = line[..end]
        .iter()
        .position(|&b| !is_space(b))
        .unwrap_or(end);
    if line[i..end].first() == Some(&b'#') {
        return early(Split::Comment);
    }
    let mut tokens = Tokens::default();
    while i < end {
        let b = line[i];
        if b == b' ' || b == b'\t' {
            i += 1;
            continue;
        }
        match scan_token(line, i, end, limits) {
            Ok((token_end, class)) => {
                tokens.take(line, i..token_end, class, sink);
                i = token_end;
            }
            Err(Stop::Control) => return early(Split::Control),
            Err(Stop::NotAscii) => return None,
        }
    }
    Some(Split::Tokens(tokens))
}

/// Splits a line with non-ASCII characters by Unicode whitespace.
fn split_unicode(text: &str, limits: &FimiLimits, sink: &mut impl TokenSink) -> Split {
    let trimmed = text.trim();
    if trimmed.starts_with('#') {
        return Split::Comment;
    }
    if trimmed.chars().any(|c| c.is_control() && c != '\t') {
        return Split::Control;
    }
    let (line, base) = (text.as_bytes(), text.as_ptr() as usize);
    let mut tokens = Tokens::default();
    for t in trimmed.split_whitespace() {
        let at = t.as_ptr() as usize - base;
        // a token holds no whitespace or control character, so the scan of
        // an ASCII one runs to its end; any other is a name
        let class = match scan_token(t.as_bytes(), 0, t.len(), limits) {
            Ok((_, class)) => class,
            Err(_) => Class::Name,
        };
        tokens.take(line, at..at + t.len(), class, sink);
    }
    Split::Tokens(tokens)
}

/// Why [`scan_token`] stopped before the token's end.
enum Stop {
    /// At an ASCII control character other than tab.
    Control,
    /// At a byte ≥ 0x80.
    NotAscii,
}

/// Scans the token starting at `line[start]` up to the next space or tab
/// (or `end`) and returns the token's end and class. A token is numeric
/// when it is all ASCII digits or a `-` followed by digits; a numeric
/// token must be non-negative and within `limits.max_item_code`.
///
/// A run of digits that a space, a tab or `end` closes, the common token,
/// is read once, by a loop that only tells digits from the rest; any other
/// token is read again from its start, byte by byte.
fn scan_token(
    line: &[u8],
    start: usize,
    end: usize,
    limits: &FimiLimits,
) -> Result<(usize, Class), Stop> {
    // exact for up to 19 digits; longer runs are re-read with checked
    // arithmetic
    let mut i = start;
    let mut value = 0u64;
    while i < end {
        let d = line[i].wrapping_sub(b'0');
        if d >= 10 {
            break;
        }
        value = value.wrapping_mul(10).wrapping_add(u64::from(d));
        i += 1;
    }
    if i > start && (i == end || line[i] == b' ' || line[i] == b'\t') {
        let body = &line[start..i];
        let code = if body.len() < 20 {
            Some(value)
        } else {
            body.iter().try_fold(0u64, |v, &d| {
                v.checked_mul(10)?.checked_add(u64::from(d - b'0'))
            })
        };
        let class = match code {
            Some(v) if v <= limits.max_item_code => Class::Code {
                // canonical: no leading zero unless the token is `0`
                small: (v < NUMERIC_CACHE_CAP as u64 && (body[0] != b'0' || body.len() == 1))
                    .then_some(v as u32),
            },
            _ => Class::Bad,
        };
        return Ok((i, class));
    }
    let negative = line[start] == b'-';
    let mut digits = true;
    let mut i = start + usize::from(negative);
    while i < end {
        let b = line[i];
        if b.is_ascii_digit() {
        } else if b == b' ' || b == b'\t' {
            break;
        } else if b.is_ascii_control() {
            return Err(Stop::Control);
        } else if !b.is_ascii() {
            return Err(Stop::NotAscii);
        } else {
            digits = false;
        }
        i += 1;
    }
    // a negative code; any other run of digits was closed above
    let bad = negative && digits && i > start + 1;
    Ok((i, if bad { Class::Bad } else { Class::Name }))
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
/// other token, `007` included, goes to the catalog. One interner serves
/// one catalog.
#[derive(Default)]
struct Interner {
    /// `numeric[v]` is the code of the name spelling `v`, or [`UNSEEN`].
    numeric: Vec<Item>,
}

impl Interner {
    /// The code of the token `t` of `line` in `catalog`.
    fn intern(&mut self, catalog: &mut ItemCatalog, line: &[u8], t: &Token) -> Item {
        match t.small.and_then(|v| self.numeric.get(v as usize)) {
            Some(&code) if code != UNSEEN => code,
            _ => self.intern_new(catalog, line, t),
        }
    }

    /// [`intern`](Self::intern) for a name the numeric table does not
    /// hold yet.
    fn intern_new(&mut self, catalog: &mut ItemCatalog, line: &[u8], t: &Token) -> Item {
        let code = catalog.intern(token_str(line, t));
        if let Some(v) = t.small.map(|v| v as usize) {
            if v >= self.numeric.len() {
                self.numeric.resize(v + 1, UNSEEN);
            }
            self.numeric[v] = code;
        }
        code
    }
}

/// Reads a FIMI file from disk with the default [`FimiLimits`], a large
/// regular file in ranges as [`scan_fimi_path`] reads it.
pub fn read_fimi_path<P: AsRef<Path>>(path: P) -> Result<TransactionDatabase, FimError> {
    read_fimi_path_with_limits(path, &FimiLimits::default())
}

/// Reads a FIMI file from disk, enforcing `limits`.
pub fn read_fimi_path_with_limits<P: AsRef<Path>>(
    path: P,
    limits: &FimiLimits,
) -> Result<TransactionDatabase, FimError> {
    scan_path(path.as_ref(), limits).map(ScannedDatabase::into_database)
}

/// The item tokens of one FIMI transaction line, as [`FimiCursor`] yields
/// them.
#[derive(Clone, Copy, Debug)]
pub struct FimiTokens<'a> {
    line: &'a [u8],
    tokens: &'a [Token],
}

impl<'a> FimiTokens<'a> {
    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the line holds no token (a blank line: an empty
    /// transaction).
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// The tokens in line order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a str> + 'a {
        let line = self.line;
        self.tokens.iter().map(move |t| token_str(line, t))
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
    tokens: Vec<Token>,
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
            tokens: Vec::new(),
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
        self.tokens.clear();
        self.lines
            .next_transaction(&mut self.tokens, |line, tokens| {
                f(FimiTokens { line, tokens })
            })
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
    let (mut names, mut catalog) = (Interner::default(), ItemCatalog::new());
    let mut frequencies: Vec<u32> = Vec::new();
    let mut transactions = 0u64;
    let mut codes: Vec<Item> = Vec::new();
    while let Some(()) = cursor.next_transaction(|tokens| {
        codes.clear();
        codes.extend(
            tokens
                .tokens
                .iter()
                .map(|t| names.intern(&mut catalog, tokens.line, t)),
        );
    })? {
        fim_core::fault::hit(fim_core::fault::points::COUNTS_PASS1)?;
        transactions += 1;
        frequencies.resize(catalog.len(), 0);
        codes.sort_unstable();
        codes.dedup();
        for &c in &codes {
            frequencies[c as usize] += 1;
        }
    }
    frequencies.resize(catalog.len(), 0);
    Ok(FimiCounts {
        catalog,
        frequencies,
        transactions,
    })
}

/// Writes a transaction database in FIMI format (item names as tokens).
pub fn write_fimi<W: Write>(db: &TransactionDatabase, writer: W) -> Result<(), FimError> {
    let mut out = ItemLines::catalog(db.catalog(), writer);
    for t in db.transactions() {
        out.names(t)?;
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
        assert!(db.transactions()[2].is_empty());
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

    /// Interns one token as the reader does: scanned, then looked up.
    fn intern(names: &mut Interner, catalog: &mut ItemCatalog, token: &str) -> Item {
        let limits = FimiLimits::default();
        let small = match scan_token(token.as_bytes(), 0, token.len(), &limits) {
            Ok((_, Class::Code { small })) => small,
            _ => None,
        };
        let range = 0..token.len();
        names.intern(catalog, token.as_bytes(), &Token { range, small })
    }

    #[test]
    fn numeric_cache_holds_canonical_codes_below_the_cap_only() {
        let (mut names, mut catalog) = (Interner::default(), ItemCatalog::new());
        assert_eq!(intern(&mut names, &mut catalog, "7"), 0);
        assert_eq!(intern(&mut names, &mut catalog, "007"), 1);
        assert_eq!(intern(&mut names, &mut catalog, "7"), 0);
        assert_eq!(names.numeric.len(), 8);
        // a huge canonical code, and the cap itself, take the hashed path
        // and leave the table as it is
        assert_eq!(intern(&mut names, &mut catalog, "4294967295"), 2);
        assert_eq!(intern(&mut names, &mut catalog, "1048576"), 3);
        assert_eq!(names.numeric.len(), 8);
        assert_eq!(intern(&mut names, &mut catalog, "1048575"), 4);
        assert_eq!(names.numeric.len(), NUMERIC_CACHE_CAP);
        assert_eq!(intern(&mut names, &mut catalog, "0"), 5);
        assert_eq!(names.numeric[0], 5);
        assert_eq!(catalog.code("007"), Some(1));
        assert_eq!(catalog.code("4294967295"), Some(2));
    }

    #[test]
    fn scan_classifies_each_token() {
        let limits = FimiLimits::default();
        let class = |token: &str| match scan_token(token.as_bytes(), 0, token.len(), &limits) {
            Ok((end, Class::Code { small })) => {
                assert_eq!(end, token.len());
                format!("code {small:?}")
            }
            Ok((_, Class::Name)) => "name".into(),
            Ok((_, Class::Bad)) => "bad".into(),
            Err(Stop::Control) => "control".into(),
            Err(Stop::NotAscii) => "not ascii".into(),
        };
        assert_eq!(class("0"), "code Some(0)");
        assert_eq!(class("1048575"), "code Some(1048575)");
        assert_eq!(class("00"), "code None");
        assert_eq!(class("4294967295"), "code None");
        assert_eq!(class("4294967296"), "bad");
        assert_eq!(class("00000000000000000000000000000042"), "code None");
        assert_eq!(class("18446744073709551616"), "bad");
        assert_eq!(class("-7"), "bad");
        assert_eq!(class("-"), "name");
        assert_eq!(class("7a"), "name");
        assert_eq!(class("a\x07"), "control");
        assert_eq!(class("7é"), "not ascii");
        // a scan stops at the separator after its token
        assert!(matches!(
            scan_token(b"12 34", 0, 5, &limits),
            Ok((2, Class::Code { small: Some(12) }))
        ));
    }

    #[test]
    fn write_fimi_unknown_code_is_invalid_input() {
        let mut db = read_fimi("a b\n".as_bytes()).unwrap();
        db.push(fim_core::ItemSet::from([7]));
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

    #[test]
    fn find_newline_finds_the_first_newline_at_every_offset() {
        // every byte value next to a newline, which a word-wise test could
        // mistake for one, at every position of a word and of the tail
        let mut bytes: Vec<u8> = (0..=255u8).filter(|&b| b != b'\n').collect();
        for len in 0..40 {
            for at in 0..=len {
                let mut buf = bytes[..len].to_vec();
                assert_eq!(find_newline(&buf), None);
                if at < len {
                    buf[at] = b'\n';
                    buf.iter_mut()
                        .skip(at + 1)
                        .step_by(3)
                        .for_each(|b| *b = b'\n');
                    assert_eq!(find_newline(&buf), Some(at), "{buf:?}");
                }
            }
            bytes.rotate_left(7);
        }
    }

    /// Lines that end inside the read buffer are tokenized in place, the
    /// rest through the window: lines across buffer boundaries, one longer
    /// than the buffer, CRLF endings and a last line without a newline all
    /// read alike.
    #[test]
    fn lines_across_read_buffer_boundaries() {
        let mut text = String::new();
        let mut want: Vec<Vec<String>> = Vec::new();
        for k in 0..30_000usize {
            let row: Vec<String> = (0..k % 9)
                .map(|j| format!("{}", (k * 7 + j * 13) % 500))
                .collect();
            text.push_str(&row.join(" "));
            text.push_str(if k % 3 == 0 { "\r\n" } else { "\n" });
            want.push(row);
        }
        let long: Vec<String> = (0..20_000).map(|j| format!("x{j}")).collect();
        text.push_str(&long.join(" "));
        text.push('\n');
        want.push(long);
        text.push_str("7 8");
        want.push(vec!["7".into(), "8".into()]);
        assert!(text.len() > 3 * READ_BUF);
        let db = read_fimi(text.as_bytes()).unwrap();
        assert_eq!(db.num_transactions(), want.len());
        for (t, w) in db.transactions().iter().zip(&want) {
            let mut names: Vec<&str> = t.iter().map(|&c| db.catalog().name(c).unwrap()).collect();
            let mut w: Vec<&str> = w.iter().map(String::as_str).collect();
            names.sort_unstable();
            w.sort_unstable();
            w.dedup();
            assert_eq!(names, w);
        }
    }
}
