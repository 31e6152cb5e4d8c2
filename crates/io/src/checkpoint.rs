//! Named-catalog stream checkpoints: persisting an [`IstaStream`] together
//! with the item-name catalog of the transaction source feeding it.
//!
//! The raw tree snapshot of [`fim_ista::snapshot`] stores item *codes*
//! only. A stream fed from a FIMI file, however, interns item *names* in
//! order of appearance — resuming such a stream in a fresh process needs
//! the name ↔ code mapping back, or the continuation would silently remap
//! items. This module wraps the tree snapshot with the catalog:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"ISTC"
//!      4     4  format version (little-endian u32, currently 1)
//!      8     4  name_count — must equal the tree's item universe
//!     12     …  names      — per name: u32 byte length + UTF-8 bytes
//!      …     4  crc32      — IEEE CRC-32 of bytes 4..here
//!      …     …  tree       — an embedded fim-ista snapshot (own CRC)
//! ```
//!
//! Every load failure — truncation, bit flips, a name count that does not
//! match the tree universe, trailing garbage — is a [`FimError::Corrupt`].

use fim_core::{catalog::ItemCatalog, FimError};
use fim_ista::snapshot::crc32;
use fim_ista::IstaStream;
use std::io::{Read, Write};

/// Magic bytes opening every named-catalog checkpoint.
pub const MAGIC: [u8; 4] = *b"ISTC";

/// Current checkpoint format version.
pub const VERSION: u32 = 1;

/// Longest accepted item name in bytes (far above any real token; a cap so
/// a corrupt length field cannot trigger a huge allocation).
const MAX_NAME_BYTES: u32 = 1 << 16;

/// Writes `stream` plus the `catalog` that names its item codes.
///
/// The catalog must cover exactly the stream's item universe (code `i`
/// named for every `i < num_items`); anything else is a
/// [`FimError::InvalidInput`]. Compacts the stream's tree first
/// (output-invariant).
pub fn write_stream_checkpoint(
    stream: &mut IstaStream,
    catalog: &ItemCatalog,
    w: &mut dyn Write,
) -> Result<(), FimError> {
    if catalog.len() != stream.num_items() as usize {
        return Err(FimError::InvalidInput(format!(
            "catalog names {} items but the stream universe has {}",
            catalog.len(),
            stream.num_items()
        )));
    }
    let mut header: Vec<u8> = Vec::new();
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&(catalog.len() as u32).to_le_bytes());
    for code in 0..catalog.len() as u32 {
        let name = catalog.name(code).ok_or_else(|| {
            FimError::InvalidInput(format!("item code {code} has no catalog name"))
        })?;
        let bytes = name.as_bytes();
        if bytes.len() as u64 > u64::from(MAX_NAME_BYTES) {
            return Err(FimError::InvalidInput(format!(
                "item name for code {code} exceeds {MAX_NAME_BYTES} bytes"
            )));
        }
        header.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        header.extend_from_slice(bytes);
    }
    w.write_all(&MAGIC)?;
    w.write_all(&header)?;
    w.write_all(&crc32(&header).to_le_bytes())?;
    stream.write_snapshot(w)
}

/// Reads a checkpoint written by [`write_stream_checkpoint`], returning the
/// resumed stream and the reconstructed catalog. The input must end exactly
/// at the embedded tree snapshot's end; trailing bytes are corruption.
pub fn read_stream_checkpoint(r: &mut dyn Read) -> Result<(IstaStream, ItemCatalog), FimError> {
    let r = &mut CountingReader {
        inner: r,
        offset: 0,
    };
    let mut magic = [0u8; 4];
    read_exact(r, &mut magic, "magic")?;
    if magic != MAGIC {
        return Err(FimError::Corrupt(format!(
            "bad checkpoint magic {magic:02x?}, expected {MAGIC:02x?}"
        )));
    }
    let mut header: Vec<u8> = Vec::new();
    let version = read_u32(r, &mut header, "version")?;
    if version != VERSION {
        return Err(FimError::Corrupt(format!(
            "unsupported checkpoint version {version} (this build reads {VERSION})"
        )));
    }
    let name_count = read_u32(r, &mut header, "name count")?;
    let mut catalog = ItemCatalog::new();
    for code in 0..name_count {
        let len = read_u32(r, &mut header, "name length")?;
        if len > MAX_NAME_BYTES {
            return Err(FimError::Corrupt(format!(
                "name length {len} for code {code} exceeds {MAX_NAME_BYTES} bytes"
            )));
        }
        let start = header.len();
        header.resize(start + len as usize, 0);
        read_exact(r, &mut header[start..], "name bytes")?;
        let name = std::str::from_utf8(&header[start..])
            .map_err(|_| FimError::Corrupt(format!("name for code {code} is not UTF-8")))?;
        let interned = catalog.intern(name);
        if interned != code {
            return Err(FimError::Corrupt(format!(
                "duplicate item name `{name}` (codes {interned} and {code})"
            )));
        }
    }
    let mut crc_bytes = [0u8; 4];
    read_exact(r, &mut crc_bytes, "catalog crc")?;
    let expected = u32::from_le_bytes(crc_bytes);
    let actual = crc32(&header);
    if actual != expected {
        return Err(FimError::Corrupt(format!(
            "catalog crc mismatch: stored {expected:#010x}, computed {actual:#010x}"
        )));
    }
    let stream = IstaStream::read_snapshot(r)?;
    if stream.num_items() as usize != catalog.len() {
        return Err(FimError::Corrupt(format!(
            "catalog names {} items but the tree universe has {}",
            catalog.len(),
            stream.num_items()
        )));
    }
    let mut trailing = [0u8; 1];
    match r.read(&mut trailing) {
        Ok(0) => Ok((stream, catalog)),
        Ok(_) => Err(FimError::Corrupt(
            "trailing bytes after the tree snapshot".into(),
        )),
        Err(e) => Err(FimError::Io(e)),
    }
}

/// Tracks how many bytes have been consumed, so a truncation error can say
/// exactly where the checkpoint ended.
struct CountingReader<'a> {
    inner: &'a mut dyn Read,
    offset: u64,
}

impl Read for CountingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.offset += n as u64;
        Ok(n)
    }
}

/// Reads 4 little-endian bytes, appending them to the CRC-covered header.
fn read_u32(r: &mut CountingReader, header: &mut Vec<u8>, what: &str) -> Result<u32, FimError> {
    let mut buf = [0u8; 4];
    read_exact(r, &mut buf, what)?;
    header.extend_from_slice(&buf);
    Ok(u32::from_le_bytes(buf))
}

fn read_exact(r: &mut CountingReader, buf: &mut [u8], what: &str) -> Result<(), FimError> {
    // Read::read_exact consumes whatever partial bytes exist before
    // reporting EOF, so r.offset afterwards is the actual stream length.
    let wanted = buf.len() as u64;
    let start = r.offset;
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            FimError::Corrupt(format!(
                "truncated checkpoint while reading {what}: \
                 need bytes {start}..{} but input ends at byte {}",
                start + wanted,
                r.offset
            ))
        } else {
            FimError::Io(e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read_fimi;

    /// Feeds a FIMI text into a fresh stream + catalog pair.
    fn stream_from(text: &str) -> (IstaStream, ItemCatalog) {
        let db = read_fimi(text.as_bytes()).expect("valid text");
        let mut stream = IstaStream::new(db.num_items() as u32);
        for t in db.transactions() {
            stream.push(t);
        }
        (stream, db.catalog().clone())
    }

    fn checkpoint(stream: &mut IstaStream, catalog: &ItemCatalog) -> Vec<u8> {
        let mut buf = Vec::new();
        write_stream_checkpoint(stream, catalog, &mut buf).expect("write to Vec");
        buf
    }

    #[test]
    fn round_trip_restores_stream_and_names() {
        let (mut stream, catalog) = stream_from("milk bread\nbread butter\nmilk butter\n");
        let buf = checkpoint(&mut stream, &catalog);
        let (resumed, names) = read_stream_checkpoint(&mut buf.as_slice()).expect("round trip");
        assert_eq!(names.len(), catalog.len());
        for code in 0..catalog.len() as u32 {
            assert_eq!(names.name(code), catalog.name(code));
        }
        assert_eq!(resumed.closed_sets(1), stream.closed_sets(1));
        assert_eq!(
            resumed.transactions_processed(),
            stream.transactions_processed()
        );
    }

    #[test]
    fn resumed_stream_continues_with_consistent_interning() {
        let (mut stream, catalog) = stream_from("a b\nb c\n");
        let buf = checkpoint(&mut stream, &catalog);
        let (mut resumed, mut names) =
            read_stream_checkpoint(&mut buf.as_slice()).expect("round trip");
        // the continuation sees a new item name; interning must mint the
        // next code, exactly as the uninterrupted run would have
        let code_b = names.code("b").expect("b known");
        let code_d = names.intern("d");
        assert_eq!(code_d, 3);
        resumed.grow_universe(names.len() as u32);
        resumed.push(&[code_b, code_d]);
        stream.grow_universe(4);
        stream.push(&[1, 3]);
        assert_eq!(resumed.closed_sets(1), stream.closed_sets(1));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let (mut stream, catalog) = stream_from("x y\ny z\n");
        let buf = checkpoint(&mut stream, &catalog);
        for pos in 0..buf.len() {
            let mut bad = buf.clone();
            bad[pos] ^= 0x01;
            assert!(
                read_stream_checkpoint(&mut bad.as_slice()).is_err(),
                "flip at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn truncation_anywhere_is_corrupt_not_panic() {
        let (mut stream, catalog) = stream_from("x y\ny z\n");
        let buf = checkpoint(&mut stream, &catalog);
        for len in 0..buf.len() {
            let err = read_stream_checkpoint(&mut &buf[..len]).unwrap_err();
            assert!(
                matches!(err, FimError::Corrupt(_)),
                "truncation at {len}: {err}"
            );
        }
    }

    #[test]
    fn truncation_error_reports_the_byte_offset() {
        let (mut stream, catalog) = stream_from("x y\ny z\n");
        let buf = checkpoint(&mut stream, &catalog);
        // cut inside the catalog header: past the magic, before the crc
        let cut = 10;
        let err = read_stream_checkpoint(&mut &buf[..cut]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("truncated checkpoint"), "{msg}");
        assert!(msg.contains(&format!("ends at byte {cut}")), "{msg}");
    }

    #[test]
    fn trailing_garbage_is_corrupt() {
        let (mut stream, catalog) = stream_from("x y\n");
        let mut buf = checkpoint(&mut stream, &catalog);
        buf.push(0xAB);
        let err = read_stream_checkpoint(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn mismatched_catalog_rejected_at_write_time() {
        let (mut stream, _) = stream_from("a b c\n");
        let small = ItemCatalog::new();
        let mut buf = Vec::new();
        let err = write_stream_checkpoint(&mut stream, &small, &mut buf).unwrap_err();
        assert!(matches!(err, FimError::InvalidInput(_)), "{err}");
    }

    #[test]
    fn oversized_name_length_field_rejected_without_allocation() {
        let (mut stream, catalog) = stream_from("a\n");
        let buf = checkpoint(&mut stream, &catalog);
        let mut bad = buf.clone();
        // name_count lives at bytes 8..12; the first name length at 12..16
        bad[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_stream_checkpoint(&mut bad.as_slice()).unwrap_err();
        assert!(matches!(err, FimError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("name length"), "{err}");
    }
}
