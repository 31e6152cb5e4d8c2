//! The byte-level FIMI reader against the `str`-level reader it replaced,
//! kept here verbatim as the oracle: on every input both give the same
//! catalog (names in code order) and transactions, or the same
//! `FimError::Parse` line and message. The one-pass scan, recoded in its
//! own pool, gives what recoding the oracle's database gives.

use fim_core::{
    FimError, ItemOrder, ItemSet, RecodedDatabase, ScannedDatabase, TransactionDatabase,
    TransactionOrder,
};
use fim_io::{read_fimi_with_limits, scan_fimi_with_limits, FimiCursor, FimiLimits};
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read};

// ---------------------------------------------------------------- oracle

fn oracle_read(input: &[u8], limits: &FimiLimits) -> Result<TransactionDatabase, FimError> {
    let mut db = TransactionDatabase::new();
    let mut reader = BufReader::new(input);
    let mut buf: Vec<u8> = Vec::new();
    let mut lineno = 0usize;
    loop {
        if !read_bounded_line(&mut reader, &mut buf, limits, lineno + 1)? {
            break;
        }
        lineno += 1;
        let Some(tokens) = validate_line(&buf, limits, lineno)? else {
            continue;
        };
        db.push_named(&tokens);
    }
    Ok(db)
}

/// The token lists of the oracle's transaction lines, for the cursor.
fn oracle_tokens(input: &[u8], limits: &FimiLimits) -> Vec<Vec<String>> {
    let mut reader = BufReader::new(input);
    let mut buf: Vec<u8> = Vec::new();
    let mut lineno = 0usize;
    let mut lines = Vec::new();
    while read_bounded_line(&mut reader, &mut buf, limits, lineno + 1).unwrap() {
        lineno += 1;
        if let Some(tokens) = validate_line(&buf, limits, lineno).unwrap() {
            lines.push(tokens.iter().map(|t| t.to_string()).collect());
        }
    }
    lines
}

fn read_bounded_line<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    limits: &FimiLimits,
    lineno: usize,
) -> Result<bool, FimError> {
    buf.clear();
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

fn validate_line<'a>(
    buf: &'a [u8],
    limits: &FimiLimits,
    lineno: usize,
) -> Result<Option<Vec<&'a str>>, FimError> {
    let text = std::str::from_utf8(buf).map_err(|_| FimError::Parse {
        line: lineno,
        message: "invalid UTF-8".into(),
    })?;
    let trimmed = text.trim();
    if trimmed.starts_with('#') {
        return Ok(None);
    }
    if trimmed.chars().any(|c| c.is_control() && c != '\t') {
        return Err(FimError::Parse {
            line: lineno,
            message: "unexpected control character".into(),
        });
    }
    let tokens: Vec<&str> = trimmed.split_whitespace().collect();
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
    for token in &tokens {
        check_token(token, limits, lineno)?;
    }
    Ok(Some(tokens))
}

fn check_token(token: &str, limits: &FimiLimits, lineno: usize) -> Result<(), FimError> {
    let body = token.strip_prefix('-').unwrap_or(token);
    if body.is_empty() || !body.bytes().all(|b| b.is_ascii_digit()) {
        return Ok(());
    }
    if token.starts_with('-') {
        return Err(FimError::Parse {
            line: lineno,
            message: format!("negative item code `{token}`"),
        });
    }
    match token.parse::<u64>() {
        Ok(code) if code <= limits.max_item_code => Ok(()),
        _ => Err(FimError::Parse {
            line: lineno,
            message: format!(
                "item code `{token}` exceeds the cap of {}",
                limits.max_item_code
            ),
        }),
    }
}

// ---------------------------------------------------------------- comparison

fn names(db: &TransactionDatabase) -> Vec<String> {
    db.catalog().iter().map(|(_, n)| n.to_owned()).collect()
}

/// Everything a recode holds, to compare two of them.
#[derive(Debug, PartialEq)]
struct Recoded {
    transactions: Vec<Vec<u32>>,
    item_supports: Vec<u32>,
    item_to_new: Vec<Option<u32>>,
    item_to_old: Vec<u32>,
    tx_to_old: Vec<u32>,
    counts: (u32, u32, u32),
}

fn recoded(r: &RecodedDatabase) -> Recoded {
    Recoded {
        transactions: r.transactions().iter().map(<[u32]>::to_vec).collect(),
        item_supports: r.item_supports().to_vec(),
        item_to_new: r.recode().item_to_new.clone(),
        item_to_old: r.recode().item_to_old.clone(),
        tx_to_old: r.recode().tx_to_old.clone(),
        counts: (r.num_items(), r.original_transactions(), r.minsupp_used()),
    }
}

/// The scan of `input`, recoded in its own pool, against the oracle's
/// database recoded from a borrow: under every order pair, at supports 1
/// and 2, without an exclusion and with the middle catalog item excluded.
fn scan_recodes_alike(input: &[u8], limits: &FimiLimits, old: &TransactionDatabase) {
    let scan: ScannedDatabase = scan_fimi_with_limits(input, limits).expect("the oracle read it");
    let catalog: Vec<&str> = scan.catalog().iter().map(|(_, n)| n).collect();
    assert_eq!(catalog, names(old), "scanned catalog of {input:?}");
    assert_eq!(
        scan.item_frequencies(),
        old.item_frequencies(),
        "frequencies of {input:?}"
    );
    assert_eq!(scan.density(), old.density(), "density of {input:?}");
    let middle = (old.num_items() / 2) as u32;
    let exclusions = [ItemSet::empty(), ItemSet::from([middle])];
    for exclude in exclusions.iter().take(1 + usize::from(old.num_items() > 0)) {
        for minsupp in [1, 2] {
            for io in ItemOrder::ALL {
                for to in TransactionOrder::ALL {
                    let want = RecodedDatabase::prepare_excluding(old, minsupp, io, to, exclude);
                    let (got, catalog) =
                        RecodedDatabase::prepare_scanned(scan.clone(), minsupp, io, to, exclude);
                    assert_eq!(
                        recoded(&got),
                        recoded(&want),
                        "{input:?} at supp {minsupp} without {exclude:?}, {} / {}",
                        io.label(),
                        to.label()
                    );
                    assert_eq!(catalog.len(), old.num_items());
                }
            }
        }
    }
}

/// Reads `input` with both readers and with a cursor, and returns the new
/// reader's database, or the parse error both agree on. An accepted input
/// is also scanned and recoded, and a rejected one is rejected by the scan
/// alike.
fn both(input: &[u8], limits: &FimiLimits) -> Result<TransactionDatabase, (usize, String)> {
    let new = read_fimi_with_limits(input, limits);
    let old = oracle_read(input, limits);
    match (new, old) {
        (Ok(new), Ok(old)) => {
            assert_eq!(names(&new), names(&old), "catalog of {input:?}");
            assert_eq!(
                new.transactions(),
                old.transactions(),
                "transactions of {input:?}"
            );
            scan_recodes_alike(input, limits, &old);
            let mut cursor = FimiCursor::new(std::io::Cursor::new(input), limits);
            let mut lines: Vec<Vec<String>> = Vec::new();
            while let Some(tokens) = cursor
                .next_transaction(|t| t.iter().map(str::to_owned).collect())
                .unwrap()
            {
                lines.push(tokens);
            }
            assert_eq!(lines, oracle_tokens(input, limits), "cursor on {input:?}");
            Ok(new)
        }
        (
            Err(FimError::Parse { line, message }),
            Err(FimError::Parse {
                line: want_line,
                message: want,
            }),
        ) => {
            assert_eq!((line, &message), (want_line, &want), "error on {input:?}");
            match scan_fimi_with_limits(input, limits) {
                Err(FimError::Parse {
                    line: l,
                    message: m,
                }) => {
                    assert_eq!((l, m), (line, message.clone()), "scan error on {input:?}")
                }
                other => panic!("the scan of {input:?} gave {other:?}"),
            }
            Err((line, message))
        }
        (new, old) => panic!("readers disagree on {input:?}: {new:?} vs {old:?}"),
    }
}

fn items(input: &str) -> Vec<String> {
    names(&both(input.as_bytes(), &FimiLimits::default()).expect("accepted"))
}

fn rejected(input: &[u8]) -> (usize, String) {
    both(input, &FimiLimits::default()).expect_err("rejected")
}

// ---------------------------------------------------------------- pinned cases

#[test]
fn padded_and_canonical_codes_stay_two_items() {
    assert_eq!(items("7 007 7\n007\n"), ["7", "007"]);
}

#[test]
fn nbsp_and_ideographic_space_split_tokens() {
    assert_eq!(items("a\u{a0}b\u{3000}c\n"), ["a", "b", "c"]);
    // leading Unicode whitespace is trimmed before the comment check
    assert!(items("\u{a0}# not an item\n").is_empty());
}

#[test]
fn crlf_line_endings() {
    let db = both(b"a b\r\n\r\nc\r\n", &FimiLimits::default()).unwrap();
    assert_eq!(names(&db), ["a", "b", "c"]);
    assert_eq!(db.num_transactions(), 3);
}

#[test]
fn vt_and_ff_trimmed_at_ends_rejected_inside() {
    assert_eq!(items("\x0ba b\x0c\n"), ["a", "b"]);
    for inside in [&b"a\x0bb\n"[..], b"a\x0cb\n", b"a\rb\n"] {
        assert_eq!(rejected(inside), (1, "unexpected control character".into()));
    }
}

#[test]
fn dashes_are_names_but_negative_codes_are_not() {
    assert_eq!(items("- -x x-7 --7\n"), ["-", "-x", "x-7", "--7"]);
    assert_eq!(
        rejected(b"a\n3 -7\n"),
        (2, "negative item code `-7`".into())
    );
}

#[test]
fn code_cap_is_u32_max() {
    assert_eq!(items("4294967295\n"), ["4294967295"]);
    assert_eq!(
        rejected(b"4294967296\n"),
        (
            1,
            "item code `4294967296` exceeds the cap of 4294967295".into()
        )
    );
    let thirty = "123456789012345678901234567890";
    assert_eq!(
        rejected(format!("1\n{thirty}\n").as_bytes()),
        (
            2,
            format!("item code `{thirty}` exceeds the cap of 4294967295")
        )
    );
}

#[test]
fn a_repeated_token_is_one_item_of_its_row() {
    let db = both(b"3 1 3\n1 3 1 1\n", &FimiLimits::default()).unwrap();
    assert_eq!(names(&db), ["3", "1"]);
    assert_eq!(db.transactions()[0], [0, 1]);
    assert_eq!(db.item_frequencies(), [2, 2]);
}

#[test]
fn names_before_a_non_ascii_token_keep_their_first_codes() {
    // `b`, `c` and `d` are interned by the byte pass before it reaches
    // the NBSP, then the line is split again as a `str`
    let db = both(
        "a\nb c a d\u{a0}e c\nd f\n".as_bytes(),
        &FimiLimits::default(),
    )
    .unwrap();
    assert_eq!(names(&db), ["a", "b", "c", "d", "e", "f"]);
    assert_eq!(db.transactions()[1], [0, 1, 2, 3, 4]);
    assert_eq!(db.item_frequencies(), [2, 1, 1, 2, 1, 1]);
    assert_eq!(items("x y é y\n"), ["x", "y", "é"]);
}

#[test]
fn crlf_blank_lines_and_comments() {
    let db = both(b"1 2\r\n\r\n# 3\r\n2\r\n", &FimiLimits::default()).unwrap();
    assert_eq!(names(&db), ["1", "2"]);
    assert_eq!(db.num_transactions(), 3);
    assert!(db.transactions()[1].is_empty());
    let db = both(b"a\n\n# c\nb\n", &FimiLimits::default()).unwrap();
    assert_eq!(names(&db), ["a", "b"]);
    assert_eq!(db.num_transactions(), 3);
}

#[test]
fn a_trailing_vt_is_trimmed() {
    assert_eq!(items("7 8\x0b\n8\x0b\n"), ["7", "8"]);
}

#[test]
fn comment_with_control_character_is_skipped() {
    assert_eq!(items("# bell \x07 here\nx\n"), ["x"]);
}

#[test]
fn utf8_errors_come_before_comments() {
    assert_eq!(rejected(b"# \xff\n"), (1, "invalid UTF-8".into()));
}

// ---------------------------------------------------------------- random inputs

/// Fragments chosen to meet at every rule: digits with and without
/// leading zeros, the cap's neighbours, dashes, comments, every ASCII
/// whitespace and some control bytes, Unicode whitespace and controls,
/// multi-byte names and broken UTF-8. The first [`BENIGN`] of them make
/// files that mostly parse, so that catalogs get compared, not only
/// errors.
const PIECES: &[&[u8]] = &[
    b"7",
    b"007",
    b"0",
    b"42",
    b"1048575",
    b"1048576",
    b"4294967295",
    b"-",
    b"-x",
    b"a",
    b"gene-7",
    b"#",
    b" ",
    b"  ",
    b"\t",
    b"\n",
    b"\n",
    b"\r\n",
    "\u{a0}".as_bytes(),
    "\u{3000}".as_bytes(),
    "é".as_bytes(),
    "日本".as_bytes(),
    // hostile from here on
    b"4294967296",
    b"123456789012345678901234567890",
    b"-7",
    b"\r",
    b"\x0b",
    b"\x0c",
    b"\x00",
    b"\x1f",
    b"\x7f",
    "\u{85}".as_bytes(),
    "\u{9f}".as_bytes(),
    b"\xff",
    b"\xc3",
];

const BENIGN: usize = 22;

fn limits(kind: usize) -> FimiLimits {
    let mut limits = FimiLimits::default();
    match kind {
        1 => limits.max_line_bytes = 12,
        2 => limits.max_items_per_transaction = 3,
        3 => limits.max_item_code = 100,
        _ => {}
    }
    limits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn random_inputs_read_alike(pieces in vec(0..PIECES.len(), 0..48), kind in 0usize..5) {
        let input: Vec<u8> = pieces.iter().flat_map(|&p| PIECES[p].iter().copied()).collect();
        let _ = both(&input, &limits(kind));
    }

    #[test]
    fn random_benign_inputs_read_alike(pieces in vec(0..BENIGN, 0..64)) {
        let input: Vec<u8> = pieces.iter().flat_map(|&p| PIECES[p].iter().copied()).collect();
        let _ = both(&input, &FimiLimits::default());
    }
}

#[test]
fn large_numeric_input_reads_alike() {
    // canonical codes on both sides of the numeric cache's cap, repeated
    // so that cached codes are looked up again
    let mut input = String::new();
    for t in 0..2_000u64 {
        let codes: Vec<String> = (0..8)
            .map(|k| ((t % 50) * 22_000 + k).to_string())
            .collect();
        input.push_str(&codes.join(" "));
        input.push('\n');
    }
    let db = both(input.as_bytes(), &FimiLimits::default()).unwrap();
    assert_eq!(db.num_transactions(), 2_000);
}
