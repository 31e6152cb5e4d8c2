//! The one text formatter behind [`crate::fimi::write_fimi`],
//! [`crate::results::write_results_named`] and
//! [`crate::results::write_ranked`]: lines of item names, built in a
//! reused byte buffer and handed to the sink in chunks.
//!
//! The names a writer needs are rendered once, into a table indexed the
//! way its lines refer to items: by catalog code for sets of codes, by
//! rank for rank-mask keys. An entry of a name shorter than eight bytes
//! and its separator is one fixed 8-byte word, copied into the buffer by
//! index; a longer name is a slice copy. Numbers are written as decimal
//! digits directly. The sink sees one `write_all` per [`CHUNK`] bytes, so
//! a `&mut dyn Write` or a line-buffered stdout gets a few calls per
//! megabyte instead of two calls per item.

use fim_core::{FimError, Item, ItemCatalog, RankKey};
use std::io::Write;

/// Bytes collected before they are handed to the sink.
const CHUNK: usize = 64 << 10;

/// Width of the fixed copy of a short name entry.
const WORD: usize = 8;

/// One name and its separator, in 12 bytes.
#[derive(Clone, Copy)]
enum Entry {
    /// An entry of at most a word: its bytes, zero-padded, and its length.
    Short([u8; WORD], u8),
    /// A longer entry: where it starts in [`ItemLines::long`], and its
    /// length.
    Long(u32, u32),
}

const _: () = assert!(std::mem::size_of::<Entry>() == 12);

/// Line builder over one name table and one sink.
pub(crate) struct ItemLines<W> {
    entries: Vec<Entry>,
    /// The entries longer than a word, back to back.
    long: Vec<u8>,
    /// Grows to a chunk and room for the line that crosses its end, then
    /// is reused; `buf[..at]` holds the bytes not yet handed to the sink,
    /// and `at < CHUNK` between lines. It starts empty, so a short output
    /// touches only the bytes it writes.
    buf: Vec<u8>,
    at: usize,
    sink: W,
}

impl<W: Write> ItemLines<W> {
    /// Renders the names of `codes` into the table, entry `k` for the
    /// `k`-th code. A code `catalog` does not name is
    /// [`FimError::InvalidInput`].
    pub(crate) fn new(
        catalog: &ItemCatalog,
        codes: impl IntoIterator<Item = Item>,
        sink: W,
    ) -> Result<Self, FimError> {
        let codes = codes.into_iter();
        let mut entries = Vec::with_capacity(codes.size_hint().0);
        let mut long = Vec::new();
        for code in codes {
            let name = catalog.name(code).ok_or_else(|| unnamed(code))?;
            let len = name.len() + 1;
            if len <= WORD {
                let mut word = [0; WORD];
                word[..len - 1].copy_from_slice(name.as_bytes());
                word[len - 1] = b' ';
                entries.push(Entry::Short(word, len as u8));
            } else {
                let too_long = || FimError::InvalidInput("item names exceed 4 GiB".into());
                let start = u32::try_from(long.len()).map_err(|_| too_long())?;
                long.extend_from_slice(name.as_bytes());
                long.push(b' ');
                entries.push(Entry::Long(
                    start,
                    u32::try_from(len).map_err(|_| too_long())?,
                ));
            }
        }
        Ok(ItemLines {
            entries,
            long,
            buf: Vec::new(),
            at: 0,
            sink,
        })
    }

    /// A table of every name of `catalog`, indexed by code.
    pub(crate) fn catalog(catalog: &ItemCatalog, sink: W) -> Self {
        Self::new(catalog, 0..catalog.len() as Item, sink)
            .expect("a catalog names each of its codes")
    }

    /// Makes room for `n` more bytes at `at`.
    #[inline]
    fn room(&mut self, n: usize) {
        if self.at + n > self.buf.len() {
            self.grow(n);
        }
    }

    /// Doubles the buffer, or more where `n` bytes at `at` need it: a few
    /// times while it fills its first chunk, and for a line longer than
    /// the room past a chunk.
    #[cold]
    fn grow(&mut self, n: usize) {
        let len = (self.at + n).max(2 * self.buf.len());
        self.buf.resize(len, 0);
    }

    /// Appends the names of `items`, codes of a whole-catalog table,
    /// separated by single spaces. A code the catalog does not name is
    /// [`FimError::InvalidInput`].
    pub(crate) fn names(&mut self, items: &[Item]) -> Result<(), FimError> {
        let mut line = self.line(items.len());
        for &item in items {
            let entry = line
                .entries
                .get(item as usize)
                .ok_or_else(|| unnamed(item))?;
            line.put(entry);
        }
        self.at = line.end();
        Ok(())
    }

    /// Appends the names of `key`'s ranks, from a table of the ranks' raw
    /// codes, separated by single spaces.
    pub(crate) fn ranked(&mut self, key: &RankKey) {
        let mut line = self.line(key.len());
        // the bits one word at a time: `RankKey::ranks` read 20% slower here
        for (w, word) in key.mask().into_iter().enumerate() {
            // rank w * 64 + k is bit k of the reversed word
            let mut bits = word.reverse_bits();
            while bits != 0 {
                let k = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                line.put(&line.entries[w * 64 + k]);
            }
        }
        self.at = line.end();
    }

    /// Room for `n` short names and a cursor to write them through.
    fn line(&mut self, n: usize) -> Names<'_> {
        self.room(n * WORD);
        Names {
            entries: &self.entries,
            long: &self.long,
            buf: &mut self.buf,
            at: self.at,
            start: self.at,
            rest: n * WORD,
        }
    }

    /// Appends literal bytes.
    pub(crate) fn text(&mut self, bytes: &[u8]) {
        self.room(bytes.len());
        self.buf[self.at..self.at + bytes.len()].copy_from_slice(bytes);
        self.at += bytes.len();
    }

    /// Appends `n` in decimal.
    pub(crate) fn number(&mut self, mut n: u32) {
        let digits = n.checked_ilog10().unwrap_or(0) as usize + 1;
        self.room(digits);
        for d in self.buf[self.at..self.at + digits].iter_mut().rev() {
            *d = b'0' + (n % 10) as u8;
            n /= 10;
        }
        self.at += digits;
    }

    /// Ends the current line, handing the buffer to the sink once it
    /// holds a chunk.
    pub(crate) fn end_line(&mut self) -> Result<(), FimError> {
        self.text(b"\n");
        if self.at >= CHUNK {
            self.sink.write_all(&self.buf[..self.at])?;
            self.at = 0;
        }
        Ok(())
    }

    /// Hands the sink the rest of the buffer. Flushing the sink stays
    /// with the caller that owns it.
    pub(crate) fn finish(mut self) -> Result<(), FimError> {
        self.sink.write_all(&self.buf[..self.at])?;
        Ok(())
    }
}

/// A cursor over the buffer while one line's names are appended, its
/// position kept apart from the buffer it writes.
struct Names<'a> {
    entries: &'a [Entry],
    long: &'a [u8],
    buf: &'a mut Vec<u8>,
    at: usize,
    start: usize,
    /// Room kept past `at`: a word for each name the line was made for.
    rest: usize,
}

impl Names<'_> {
    /// Appends `e`: a short entry into the room the line was made, a
    /// long one after making its own.
    #[inline]
    fn put(&mut self, e: &Entry) {
        match *e {
            Entry::Short(word, len) => {
                self.buf[self.at..self.at + WORD].copy_from_slice(&word);
                self.at += usize::from(len);
            }
            Entry::Long(start, len) => self.put_long(start as usize, len as usize),
        }
    }

    fn put_long(&mut self, start: usize, len: usize) {
        let need = self.at + len + self.rest;
        if need > self.buf.len() {
            self.buf.resize(need, 0);
        }
        self.buf[self.at..self.at + len].copy_from_slice(&self.long[start..start + len]);
        self.at += len;
    }

    /// Where the line's names end, the last separator dropped.
    fn end(self) -> usize {
        if self.at > self.start {
            self.at - 1
        } else {
            self.at
        }
    }
}

fn unnamed(code: Item) -> FimError {
    FimError::InvalidInput(format!("item code {code} has no catalog name"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_render_in_decimal() {
        let catalog = ItemCatalog::new();
        let mut lines = ItemLines::catalog(&catalog, Vec::new());
        for n in [0, 7, 10, 4_096, u32::MAX] {
            lines.number(n);
            lines.text(b",");
        }
        assert_eq!(&lines.buf[..lines.at], b"0,7,10,4096,4294967295,");
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
        let mut lines = ItemLines::catalog(&catalog, &mut sizes);
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

    #[test]
    fn a_line_longer_than_the_buffer_grows_it() {
        let catalog = ItemCatalog::anonymous(20_000);
        let items: Vec<Item> = (0..20_000).collect();
        let mut out = Vec::new();
        let mut lines = ItemLines::catalog(&catalog, &mut out);
        lines.names(&items).unwrap();
        lines.end_line().unwrap();
        lines.finish().unwrap();
        let want: Vec<String> = items.iter().map(Item::to_string).collect();
        assert_eq!(out, format!("{}\n", want.join(" ")).into_bytes());
    }

    #[test]
    fn long_names_make_their_own_room() {
        // every other name is longer than a word; one line of all of them
        // needs more than the buffer, and only its long names grow it
        let mut catalog = ItemCatalog::new();
        let names: Vec<String> = (0..8_000)
            .map(|k| match k % 2 {
                0 => format!("{k}"),
                _ => format!("a_name_longer_than_a_word_{k}"),
            })
            .collect();
        for name in &names {
            catalog.intern(name);
        }
        let items: Vec<Item> = (0..8_000).collect();
        let mut out = Vec::new();
        let mut lines = ItemLines::catalog(&catalog, &mut out);
        lines.names(&items).unwrap();
        lines.end_line().unwrap();
        lines.finish().unwrap();
        assert!(out.len() > 2 * CHUNK, "{} bytes", out.len());
        assert_eq!(out, format!("{}\n", names.join(" ")).into_bytes());
    }
}
