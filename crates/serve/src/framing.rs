//! Incremental JSONL frame reassembly for the non-blocking front end.
//!
//! A non-blocking socket delivers the wire stream in arbitrary chunks:
//! half a line, three lines and a fragment, one byte. [`FrameBuf`]
//! accumulates those chunks and yields complete newline-terminated
//! frames, enforcing a hard per-line size cap so a client that never
//! sends `\n` cannot grow the buffer without bound.
//!
//! The scan cursor makes reassembly linear: bytes already searched for
//! `\n` are never rescanned, so a frame arriving one byte at a time
//! costs O(len) total, not O(len²).

/// Frame-level protocol violations. These are connection-fatal: after
/// an oversized line the stream offset is unrecoverable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A line exceeded the configured cap before its `\n` arrived.
    /// Carries the cap for the error message.
    Oversized(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized(cap) => {
                write!(f, "request line exceeds the {cap}-byte frame cap")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Reassembles newline-delimited frames from arbitrary byte chunks.
#[derive(Debug)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Start of un-consumed bytes in `buf`.
    start: usize,
    /// Bytes in `buf[start..]` already scanned without finding `\n`.
    scanned: usize,
    /// Hard cap on a single line, excluding the terminator.
    max_line: usize,
}

impl FrameBuf {
    /// An empty buffer enforcing `max_line` bytes per frame.
    pub fn new(max_line: usize) -> FrameBuf {
        FrameBuf {
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            max_line,
        }
    }

    /// Append a chunk read from the socket.
    pub fn feed(&mut self, chunk: &[u8]) {
        // Compact before growing: once every complete frame has been
        // popped the consumed prefix is dead weight.
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 4096 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Pop the next complete frame (without its `\n`, trailing `\r`
    /// stripped), or `None` when no full line has arrived yet.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] once the pending partial line exceeds
    /// the cap; the connection should send a typed error and close.
    pub fn pop_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let pending = &self.buf[self.start..];
        match pending.iter().skip(self.scanned).position(|&b| b == b'\n') {
            Some(off) => {
                let end = self.scanned + off;
                let mut line = pending[..end].to_vec();
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                self.start += end + 1;
                self.scanned = 0;
                if line.len() > self.max_line {
                    return Err(FrameError::Oversized(self.max_line));
                }
                Ok(Some(line))
            }
            None => {
                self.scanned = pending.len();
                if self.scanned > self.max_line {
                    return Err(FrameError::Oversized(self.max_line));
                }
                Ok(None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop_str(fb: &mut FrameBuf) -> Option<String> {
        fb.pop_frame()
            .expect("no frame error")
            .map(|v| String::from_utf8(v).expect("utf8"))
    }

    #[test]
    fn whole_line_in_one_chunk() {
        let mut fb = FrameBuf::new(1024);
        fb.feed(b"{\"verb\":\"PING\"}\n");
        assert_eq!(pop_str(&mut fb).as_deref(), Some("{\"verb\":\"PING\"}"));
        assert_eq!(pop_str(&mut fb), None);
    }

    /// The tentpole robustness case: a frame split at *every* byte
    /// boundary must reassemble to the identical line.
    #[test]
    fn split_at_every_byte_boundary() {
        let line = b"{\"verb\":\"RECOMMEND\",\"session\":\"alice\",\"sql\":\"SELECT a FROM t\"}\n";
        for split in 0..line.len() {
            let mut fb = FrameBuf::new(4096);
            fb.feed(&line[..split]);
            assert_eq!(
                pop_str(&mut fb),
                None,
                "no frame before the newline (split {split})"
            );
            fb.feed(&line[split..]);
            assert_eq!(
                pop_str(&mut fb).as_deref(),
                Some(std::str::from_utf8(&line[..line.len() - 1]).unwrap()),
                "frame reassembles across split {split}"
            );
            assert_eq!(pop_str(&mut fb), None);
        }
    }

    /// One-byte-at-a-time delivery (pathological slow client).
    #[test]
    fn byte_by_byte_delivery() {
        let line = b"{\"verb\":\"STATS\"}\n";
        let mut fb = FrameBuf::new(1024);
        for (i, b) in line.iter().enumerate() {
            fb.feed(std::slice::from_ref(b));
            let got = pop_str(&mut fb);
            if i + 1 == line.len() {
                assert_eq!(got.as_deref(), Some("{\"verb\":\"STATS\"}"));
            } else {
                assert_eq!(got, None, "byte {i} completes no frame");
            }
        }
    }

    /// Pipelining: several requests arriving in one read are all
    /// yielded, in order.
    #[test]
    fn pipelined_frames_in_one_chunk() {
        let mut fb = FrameBuf::new(1024);
        fb.feed(b"{\"verb\":\"PING\"}\n{\"verb\":\"STATS\"}\n{\"verb\":\"TRACE\"}\npartial");
        assert_eq!(pop_str(&mut fb).as_deref(), Some("{\"verb\":\"PING\"}"));
        assert_eq!(pop_str(&mut fb).as_deref(), Some("{\"verb\":\"STATS\"}"));
        assert_eq!(pop_str(&mut fb).as_deref(), Some("{\"verb\":\"TRACE\"}"));
        assert_eq!(pop_str(&mut fb), None, "trailing partial stays buffered");
        fb.feed(b" tail\n");
        assert_eq!(pop_str(&mut fb).as_deref(), Some("partial tail"));
    }

    #[test]
    fn crlf_terminator_is_stripped() {
        let mut fb = FrameBuf::new(1024);
        fb.feed(b"{\"verb\":\"PING\"}\r\n");
        assert_eq!(pop_str(&mut fb).as_deref(), Some("{\"verb\":\"PING\"}"));
    }

    #[test]
    fn empty_lines_pop_as_empty_frames() {
        let mut fb = FrameBuf::new(1024);
        fb.feed(b"\n\n{\"verb\":\"PING\"}\n");
        assert_eq!(pop_str(&mut fb).as_deref(), Some(""));
        assert_eq!(pop_str(&mut fb).as_deref(), Some(""));
        assert_eq!(pop_str(&mut fb).as_deref(), Some("{\"verb\":\"PING\"}"));
    }

    /// An unterminated line crossing the cap errors *before* the
    /// newline ever arrives — the buffer cannot be grown unboundedly.
    #[test]
    fn oversized_partial_line_is_rejected_early() {
        let mut fb = FrameBuf::new(64);
        fb.feed(&[b'x'; 65]);
        assert_eq!(fb.pop_frame(), Err(FrameError::Oversized(64)));
    }

    /// A terminated line over the cap is also rejected (it may arrive
    /// within one chunk, skipping the partial-line check).
    #[test]
    fn oversized_complete_line_is_rejected() {
        let mut fb = FrameBuf::new(64);
        let mut chunk = vec![b'y'; 80];
        chunk.push(b'\n');
        fb.feed(&chunk);
        assert_eq!(fb.pop_frame(), Err(FrameError::Oversized(64)));
    }

    #[test]
    fn line_exactly_at_cap_is_accepted() {
        let mut fb = FrameBuf::new(8);
        fb.feed(b"12345678\n");
        assert_eq!(pop_str(&mut fb).as_deref(), Some("12345678"));
    }

    /// The scan cursor never rescans: feeding a long partial line in
    /// many chunks stays linear. (Behavioural proxy: correctness with
    /// interleaved pops at every chunk.)
    #[test]
    fn incremental_scan_with_interleaved_pops() {
        let mut fb = FrameBuf::new(1 << 20);
        let chunk = [b'a'; 997];
        for _ in 0..64 {
            fb.feed(&chunk);
            assert_eq!(fb.pop_frame(), Ok(None));
        }
        fb.feed(b"\n");
        let line = fb.pop_frame().unwrap().unwrap();
        assert_eq!(line.len(), 64 * 997);
        assert!(line.iter().all(|&b| b == b'a'));
    }

    /// Compaction reclaims consumed prefixes so a long-lived connection
    /// does not accumulate dead bytes.
    #[test]
    fn consumed_prefix_is_reclaimed() {
        let mut fb = FrameBuf::new(1024);
        for _ in 0..1000 {
            fb.feed(b"{\"verb\":\"PING\"}\n");
            assert!(pop_str(&mut fb).is_some());
        }
        assert!(
            fb.buf.capacity() < 64 * 1024,
            "buffer stays small across 1000 frames, got {}",
            fb.buf.capacity()
        );
    }
}
