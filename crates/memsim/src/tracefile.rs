//! Loading externally captured memory traces.
//!
//! The paper drives USIMM with Pinpoints-captured traces. For users who
//! have real traces, this module parses the USIMM trace format — one
//! memory operation per line:
//!
//! ```text
//! <gap> R <hex-address>
//! <gap> W <hex-address>
//! ```
//!
//! where `gap` is the number of non-memory instructions since the previous
//! operation, `R`/`W` the operation type, and the address a byte address
//! (`0x`-prefixed hex or decimal). Blank lines and `#` comments are
//! skipped. A [`FileTrace`] replays the operations, looping when the file
//! is exhausted (USIMM's "rate mode" behavior), and plugs into the same
//! driver as the synthetic generator.

use crate::trace::MemOp;
use std::fmt;
use std::path::Path;
use std::str::FromStr;

/// Bytes per cache line (fixed at 64 to match the simulator).
pub const LINE_BYTES: u64 = 64;

/// Error from parsing a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTraceError {}

/// A parsed trace, replayable as a request stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileTrace {
    ops: Vec<MemOp>,
    cursor: usize,
}

impl FromStr for FileTrace {
    type Err = ParseTraceError;

    fn from_str(text: &str) -> Result<Self, Self::Err> {
        let mut ops = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let err = |message: &str| ParseTraceError {
                line: i + 1,
                message: message.into(),
            };
            let gap: u64 = parts
                .next()
                .ok_or_else(|| err("missing gap"))?
                .parse()
                .map_err(|_| err("gap is not a number"))?;
            let kind = parts.next().ok_or_else(|| err("missing R/W"))?;
            let is_write = match kind {
                "R" | "r" => false,
                "W" | "w" => true,
                other => return Err(err(&format!("expected R or W, got {other}"))),
            };
            let addr_str = parts.next().ok_or_else(|| err("missing address"))?;
            let byte_addr = parse_addr(addr_str).ok_or_else(|| err("bad address"))?;
            if parts.next().is_some() {
                return Err(err("trailing tokens"));
            }
            ops.push(MemOp {
                gap: gap.max(1),
                line_addr: byte_addr / LINE_BYTES,
                is_write,
            });
        }
        if ops.is_empty() {
            return Err(ParseTraceError {
                line: 0,
                message: "trace has no operations".into(),
            });
        }
        Ok(Self { ops, cursor: 0 })
    }
}

fn parse_addr(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

impl FileTrace {
    /// Loads a trace from a file.
    ///
    /// # Errors
    ///
    /// Returns an I/O error (wrapped) or a [`ParseTraceError`] rendered
    /// into `io::Error` for malformed content.
    pub fn load<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        text.parse().map_err(|e: ParseTraceError| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
        })
    }

    /// Number of operations in one pass of the trace.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the trace holds no operations (never true for parsed
    /// traces).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The next operation, looping at the end (rate mode).
    pub fn next_op(&mut self) -> MemOp {
        let op = self.ops[self.cursor];
        self.cursor = (self.cursor + 1) % self.ops.len();
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# demo trace
12 R 0x1000
3  W 0x1040
100 R 4096
";

    #[test]
    fn parses_sample() {
        let t: FileTrace = SAMPLE.parse().unwrap();
        assert_eq!(t.len(), 3);
        let writes: Vec<bool> = t.ops.iter().map(|o| o.is_write).collect();
        assert_eq!(writes, [false, true, false]);
    }

    #[test]
    fn addresses_become_line_addresses() {
        let mut t: FileTrace = SAMPLE.parse().unwrap();
        let a = t.next_op();
        assert_eq!(a.line_addr, 0x1000 / 64);
        assert!(!a.is_write);
        assert_eq!(a.gap, 12);
        let b = t.next_op();
        assert_eq!(b.line_addr, 0x1040 / 64);
        assert!(b.is_write);
        let c = t.next_op();
        assert_eq!(c.line_addr, 64);
    }

    #[test]
    fn loops_in_rate_mode() {
        let mut t: FileTrace = "1 R 0x0".parse().unwrap();
        let first = t.next_op();
        assert_eq!(t.next_op(), first);
    }

    #[test]
    fn zero_gap_clamped_to_one() {
        let mut t: FileTrace = "0 R 0x0".parse().unwrap();
        assert_eq!(t.next_op().gap, 1);
    }

    #[test]
    fn rejects_garbage() {
        assert!("x R 0x0".parse::<FileTrace>().is_err());
        assert!("1 Q 0x0".parse::<FileTrace>().is_err());
        assert!("1 R".parse::<FileTrace>().is_err());
        assert!("1 R zz".parse::<FileTrace>().is_err());
        assert!("1 R 0x0 extra".parse::<FileTrace>().is_err());
        assert!("# only comments\n".parse::<FileTrace>().is_err());
    }

    #[test]
    fn error_reports_line_number() {
        let err = "1 R 0x0\nbad line\n".parse::<FileTrace>().unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn load_from_disk() {
        let dir = std::env::temp_dir();
        let path = dir.join("xed_memsim_trace_test.txt");
        std::fs::write(&path, SAMPLE).unwrap();
        let t = FileTrace::load(&path).unwrap();
        assert_eq!(t.len(), 3);
        std::fs::remove_file(&path).ok();
    }
}
