//! The one text formatter behind [`crate::fimi::write_fimi`] and
//! [`crate::results::write_results_named`]: lines of item names, built in
//! a reused byte buffer and handed to the sink in chunks.
//!
//! Each catalog name is rendered once, into a table of names in code
//! order, and copied from there for every occurrence: a name of up to
//! seven bytes (eight with its separator) as one fixed 8-byte copy, a
//! longer one as a slice. Numbers are written as decimal digits
//! directly. The sink sees one `write_all` per [`CHUNK`] bytes, so a
//! `&mut dyn Write` or a line-buffered stdout gets a few calls per
//! megabyte instead of two calls per item.

use fim_core::{FimError, Item, ItemCatalog};
use std::io::Write;

/// Bytes collected before they are handed to the sink.
const CHUNK: usize = 64 << 10;

/// Width of the fixed copy of a short name entry; the name table ends in
/// as many zero bytes, so the copy never reads past it.
const WORD: usize = 8;

/// Line builder over one catalog and one sink.
pub(crate) struct ItemLines<W> {
    /// Every catalog name followed by one space, back to back in code
    /// order, then [`WORD`] zero bytes.
    names: Vec<u8>,
    /// `ends[c]` is where code `c`'s entry in `names` ends; it starts
    /// where code `c - 1`'s ends.
    ends: Vec<usize>,
    buf: Vec<u8>,
    sink: W,
}

impl<W: Write> ItemLines<W> {
    /// Renders `catalog`'s names into the table.
    pub(crate) fn new(catalog: &ItemCatalog, sink: W) -> Self {
        let mut names = Vec::new();
        let mut ends = Vec::with_capacity(catalog.len());
        for (_, name) in catalog.iter() {
            names.extend_from_slice(name.as_bytes());
            names.push(b' ');
            ends.push(names.len());
        }
        names.extend_from_slice(&[0; WORD]);
        ItemLines {
            names,
            ends,
            buf: Vec::new(),
            sink,
        }
    }

    /// Appends the names of `items`, separated by single spaces. A code
    /// the catalog does not name is [`FimError::InvalidInput`].
    pub(crate) fn names(&mut self, items: &[Item]) -> Result<(), FimError> {
        for &item in items {
            let code = item as usize;
            let end = *self.ends.get(code).ok_or_else(|| {
                FimError::InvalidInput(format!("item code {item} has no catalog name"))
            })?;
            let start = if code == 0 { 0 } else { self.ends[code - 1] };
            if end - start <= WORD {
                // the entry and whatever follows it, cut back to the entry
                let at = self.buf.len();
                let word = self.names[start..]
                    .first_chunk::<WORD>()
                    .expect("the name table ends in WORD zero bytes");
                self.buf.extend_from_slice(word);
                self.buf.truncate(at + end - start);
            } else {
                self.buf.extend_from_slice(&self.names[start..end]);
            }
        }
        if !items.is_empty() {
            // the last name's separator
            self.buf.pop();
        }
        Ok(())
    }

    /// Appends literal bytes.
    pub(crate) fn text(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends `n` in decimal.
    pub(crate) fn number(&mut self, mut n: u32) {
        let mut digits = [0u8; 10];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.buf.extend_from_slice(&digits[at..]);
    }

    /// Ends the current line, handing the buffer to the sink once it
    /// holds a chunk.
    pub(crate) fn end_line(&mut self) -> Result<(), FimError> {
        self.buf.push(b'\n');
        if self.buf.len() >= CHUNK {
            self.sink.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Hands the sink the rest of the buffer. Flushing the sink stays
    /// with the caller that owns it.
    pub(crate) fn finish(mut self) -> Result<(), FimError> {
        self.sink.write_all(&self.buf)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_render_in_decimal() {
        let catalog = ItemCatalog::new();
        let mut lines = ItemLines::new(&catalog, Vec::new());
        for n in [0, 7, 10, 4_096, u32::MAX] {
            lines.number(n);
            lines.text(b",");
        }
        assert_eq!(lines.buf, b"0,7,10,4096,4294967295,");
    }

    #[test]
    fn sink_gets_whole_chunks() {
        /// Records the size of every write it is handed.
        struct Sizes(Vec<usize>);
        impl Write for Sizes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let catalog = ItemCatalog::anonymous(100);
        let mut sizes = Sizes(Vec::new());
        let mut lines = ItemLines::new(&catalog, &mut sizes);
        let items: Vec<Item> = (0..100).collect();
        for _ in 0..1_000 {
            lines.names(&items).unwrap();
            lines.end_line().unwrap();
        }
        lines.finish().unwrap();
        // 290 bytes a line: 1 000 lines make four chunks and a remainder
        assert_eq!(sizes.0.len(), 5, "{:?}", sizes.0);
        assert!(sizes.0[..4].iter().all(|&n| n >= CHUNK));
        assert_eq!(sizes.0.iter().sum::<usize>(), 290_000);
    }
}
