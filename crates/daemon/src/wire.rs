//! Length-prefixed framing and binary primitives for the daemon protocol.
//!
//! Every message on the wire is one *frame*:
//!
//! ```text
//! +----------------+---------------------+
//! | len: u32 LE    | payload: len bytes  |
//! +----------------+---------------------+
//! ```
//!
//! The payload's first byte is the message opcode (see [`crate::proto`]).
//! Frames longer than [`MAX_FRAME_LEN`] are rejected *before* any payload
//! allocation, so a hostile length prefix cannot trigger an oversized
//! allocation.  All decoding is bounds-checked: malformed input surfaces as
//! a [`WireError`], never a panic.

use std::io::{self, Read, Write};

/// Upper bound on a frame payload (64 MiB).  Large enough for a 70-qubit
/// witness DAG or a many-thousand-state specification automaton, small
/// enough that a garbage length prefix fails fast.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Everything that can go wrong reading or decoding wire data.
#[derive(Debug)]
pub enum WireError {
    /// The peer closed the connection cleanly (EOF on a frame boundary).
    Closed,
    /// The peer vanished mid-frame (EOF inside a length prefix or payload).
    Truncated,
    /// A frame announced a payload larger than [`MAX_FRAME_LEN`].
    Oversized(u64),
    /// Structurally invalid bytes, with a byte offset into the payload.
    Malformed {
        /// Offset of the offending byte within the frame payload.
        offset: usize,
        /// Description of the problem.
        message: String,
    },
    /// An I/O error from the underlying transport.
    Io(io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Truncated => write!(f, "connection closed mid-frame"),
            WireError::Oversized(len) => {
                write!(
                    f,
                    "frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit"
                )
            }
            WireError::Malformed { offset, message } => {
                write!(f, "malformed frame at byte {offset}: {message}")
            }
            WireError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl WireError {
    pub(crate) fn malformed(offset: usize, message: impl Into<String>) -> Self {
        WireError::Malformed {
            offset,
            message: message.into(),
        }
    }
}

/// Writes one frame (length prefix + payload).
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    assert!(payload.len() <= MAX_FRAME_LEN, "outgoing frame too large");
    writer.write_all(&(payload.len() as u32).to_le_bytes())?;
    writer.write_all(payload)?;
    Ok(())
}

/// Reads one frame, returning its payload.
///
/// # Errors
///
/// [`WireError::Closed`] on EOF at a frame boundary, [`WireError::Truncated`]
/// on EOF inside a frame, [`WireError::Oversized`] for hostile length
/// prefixes, [`WireError::Io`] for transport failures.
pub fn read_frame(reader: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < len_bytes.len() {
        match reader.read(&mut len_bytes[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 {
                    WireError::Closed
                } else {
                    WireError::Truncated
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len == 0 {
        return Err(WireError::malformed(0, "empty frame"));
    }
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized(len as u64));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    })?;
    Ok(payload)
}

/// An append-only payload encoder.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh encoder starting with the given opcode byte.
    pub fn with_opcode(opcode: u8) -> Self {
        Encoder { buf: vec![opcode] }
    }

    /// Consumes the encoder, returning the payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    pub fn put_u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// LEB128 variable-length unsigned integer.
    pub fn put_varint(&mut self, mut value: u64) {
        loop {
            let byte = (value & 0x7f) as u8;
            value >>= 7;
            if value == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    pub fn put_u128(&mut self, value: u128) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_varint(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, text: &str) {
        self.put_bytes(text.as_bytes());
    }
}

/// A bounds-checked payload decoder.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Starts decoding at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    fn error(&self, message: impl Into<String>) -> WireError {
        WireError::malformed(self.pos, message)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless the whole payload was consumed.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(self.error(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }

    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        let byte = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| self.error("unexpected end of payload"))?;
        self.pos += 1;
        Ok(byte)
    }

    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let bytes = self.get_raw(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    pub fn get_u128(&mut self) -> Result<u128, WireError> {
        let bytes = self.get_raw(16)?;
        Ok(u128::from_le_bytes(bytes.try_into().expect("16 bytes")))
    }

    pub fn get_varint(&mut self) -> Result<u64, WireError> {
        let mut value: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.get_u8()?;
            let bits = u64::from(byte & 0x7f);
            if shift == 63 && bits > 1 {
                return Err(self.error("varint overflows u64"));
            }
            value |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(self.error("varint longer than 10 bytes"))
    }

    fn get_raw(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < len {
            return Err(self.error(format!(
                "unexpected end of payload (need {len} bytes, have {})",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Length-prefixed byte string.  The announced length is checked against
    /// the remaining payload before any allocation.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, WireError> {
        self.get_byte_slice().map(<[u8]>::to_vec)
    }

    /// [`Decoder::get_bytes`] without the copy: the string borrowed from the
    /// payload.
    pub fn get_byte_slice(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_varint()?;
        if len > self.remaining() as u64 {
            return Err(self.error(format!(
                "byte string of {len} bytes exceeds the remaining {} payload bytes",
                self.remaining()
            )));
        }
        self.get_raw(len as usize)
    }

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        let start = self.pos;
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes).map_err(|_| WireError::malformed(start, "invalid UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, &[7u8; 1000]).unwrap();
        let mut reader = &buf[..];
        assert_eq!(read_frame(&mut reader).unwrap(), b"hello");
        assert_eq!(read_frame(&mut reader).unwrap(), vec![7u8; 1000]);
        assert!(matches!(read_frame(&mut reader), Err(WireError::Closed)));
    }

    #[test]
    fn truncation_is_distinguished_from_close() {
        // Cut inside the length prefix.
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        for cut in 1..buf.len() {
            let mut reader = &buf[..cut];
            assert!(
                matches!(read_frame(&mut reader), Err(WireError::Truncated)),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversized_frames_are_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        let mut reader = &buf[..];
        assert!(matches!(
            read_frame(&mut reader),
            Err(WireError::Oversized(_))
        ));
        let mut empty = &[0u8, 0, 0, 0][..];
        assert!(matches!(
            read_frame(&mut empty),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn primitives_round_trip() {
        let mut enc = Encoder::with_opcode(9);
        enc.put_u8(1);
        enc.put_u32(0xDEAD_BEEF);
        enc.put_varint(0);
        enc.put_varint(300);
        enc.put_varint(u64::MAX);
        enc.put_u128(u128::MAX - 1);
        enc.put_bytes(b"bytes");
        enc.put_str("text");
        let payload = enc.finish();
        let mut dec = Decoder::new(&payload);
        assert_eq!(dec.get_u8().unwrap(), 9);
        assert_eq!(dec.get_u8().unwrap(), 1);
        assert_eq!(dec.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.get_varint().unwrap(), 0);
        assert_eq!(dec.get_varint().unwrap(), 300);
        assert_eq!(dec.get_varint().unwrap(), u64::MAX);
        assert_eq!(dec.get_u128().unwrap(), u128::MAX - 1);
        assert_eq!(dec.get_bytes().unwrap(), b"bytes");
        assert_eq!(dec.get_str().unwrap(), "text");
        dec.expect_end().unwrap();
    }

    #[test]
    fn hostile_byte_string_lengths_do_not_allocate() {
        // Claims a 2^60-byte string with 2 bytes of payload behind it.
        let mut enc = Encoder::default();
        enc.put_varint(1u64 << 60);
        enc.put_u8(0);
        enc.put_u8(0);
        let payload = enc.finish();
        let mut dec = Decoder::new(&payload);
        assert!(dec.get_bytes().is_err());
    }
}
