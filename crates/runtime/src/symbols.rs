//! A string interner: dense `u32` symbols for names, in one string arena.
//!
//! The HTML tree builder interns tag names with it, and the compiled
//! detection tree interns node labels.

/// FNV-1a 64 over a byte string — the hash behind the symbol index. Keys
/// are short names (HTML tag names, tree labels); FNV beats the
/// DoS-resistant standard hasher by a wide margin there, and interning is
/// on the page-compilation hot path.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Interns strings to dense `u32` symbols, issued in first-seen order.
///
/// Symbols are only meaningful within the table that issued them.
///
/// All names live concatenated in one string arena with an open-addressed
/// hash index over them, so interning a page's worth of labels costs three
/// allocations total rather than one `String` plus a map node per distinct
/// label.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    /// All interned names, concatenated.
    buf: String,
    /// Byte range of each symbol's name within `buf`.
    spans: Vec<(u32, u32)>,
    /// Open-addressed index: `sym + 1`, or 0 for an empty slot. Length is
    /// a power of two, kept at most ~¾ full.
    index: Vec<u32>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// Creates an empty table sized for `names` symbols before its first
    /// grow-and-rehash.
    pub fn with_capacity(names: usize) -> Self {
        SymbolTable {
            buf: String::with_capacity(names * 6),
            spans: Vec::with_capacity(names),
            index: vec![0; (names * 4).div_ceil(3).next_power_of_two().max(16)],
        }
    }

    /// Returns the symbol for `name`, interning it on first sight.
    pub fn intern(&mut self, name: &str) -> u32 {
        if self.spans.len() * 4 >= self.index.len() * 3 {
            self.grow();
        }
        let mask = self.index.len() - 1;
        let mut slot = fnv1a(name.as_bytes()) as usize & mask;
        loop {
            match self.index[slot] {
                0 => break,
                s if self.name(s - 1) == name => return s - 1,
                _ => slot = (slot + 1) & mask,
            }
        }
        let id = self.spans.len() as u32;
        let start = self.buf.len() as u32;
        self.buf.push_str(name);
        self.spans.push((start, self.buf.len() as u32));
        self.index[slot] = id + 1;
        id
    }

    /// Doubles (or seeds) the index and re-inserts every symbol.
    fn grow(&mut self) {
        let cap = (self.index.len() * 2).max(16);
        self.index.clear();
        self.index.resize(cap, 0);
        let mask = cap - 1;
        for id in 0..self.spans.len() {
            let mut slot = fnv1a(self.name(id as u32).as_bytes()) as usize & mask;
            while self.index[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = id as u32 + 1;
        }
    }

    /// The symbol previously interned for `name`, if any.
    pub fn lookup(&self, name: &str) -> Option<u32> {
        if self.index.is_empty() {
            return None;
        }
        let mask = self.index.len() - 1;
        let mut slot = fnv1a(name.as_bytes()) as usize & mask;
        loop {
            match self.index[slot] {
                0 => return None,
                s if self.name(s - 1) == name => return Some(s - 1),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// The name behind a symbol.
    pub fn name(&self, id: u32) -> &str {
        let (start, end) = self.spans[id as usize];
        &self.buf[start as usize..end as usize]
    }

    /// Number of distinct symbols.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no symbol was interned yet.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// Two tables are equal when they issued the same names in the same
/// order; the hash index is derived from that.
impl PartialEq for SymbolTable {
    fn eq(&self, other: &Self) -> bool {
        self.buf == other.buf && self.spans == other.spans
    }
}

impl Eq for SymbolTable {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_are_dense_and_stable() {
        let mut table = SymbolTable::with_capacity(2);
        let names: Vec<String> = (0..100).map(|i| format!("n{i}")).collect();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(table.intern(name), i as u32);
        }
        for (i, name) in names.iter().enumerate() {
            assert_eq!(table.intern(name), i as u32, "re-interning must not issue a new id");
            assert_eq!(table.lookup(name), Some(i as u32));
            assert_eq!(table.name(i as u32), name);
        }
        assert_eq!(table.lookup("missing"), None);
        assert_eq!(table.len(), 100);
    }
}
