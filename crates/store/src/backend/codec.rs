//! The journal's byte format and the checkpoint image's frame.
//!
//! A journal record is a frame, `[u32 len][u32 sum][payload]`
//! (little-endian), and it is encoded exactly once: under the shard lock,
//! straight from the borrowed key and operation, into a buffer the shard
//! reuses ([`Enc::reuse`]). The engine keeps frames back to back in a
//! segment, in memory or in a file, and reads them back through
//! [`scan_frames`]. A payload is a tag byte and the
//! record's fields. The hot kinds have encoders of their own
//! (`Enc::apply_record`, `Enc::open_batch` and its siblings), which the
//! server writes straight from the ops it applied; [`JournalRecord`], the
//! decoded form recovery replays, encodes through them, and writes the rare
//! kinds itself.
//!
//! A journaled op is a head byte (bit 0: a clock follows; bit 1: the object
//! is named by entry id), then the object — a `u32` entry id or the whole
//! key — then the operation and the clock. An op names by id an entry that
//! replay will have rebuilt when it reads the frame (the image's, or one an
//! earlier frame created; entry ids are dense, never reused and kept by
//! images), and by key any other object, the one it creates among them. A
//! clocked increment named by id is 22 bytes. [`decode_record`] resolves ids
//! through the keys replay holds, in id order, and tells an id it cannot
//! resolve ([`Undecodable::UnknownEntry`]) from a torn record.
//!
//! A checkpoint image is one frame too, written by
//! `StoreInstance::encode_image` straight from the live instance and read
//! back by `StoreInstance::decode_image` straight into a new one
//! ([`encode_image_frame`], [`decode_image_frame`]).
//!
//! The workspace's vendored `serde` is a derive-only stand-in with no
//! serialization machinery (all JSON in the repo is written by hand), so the
//! record and checkpoint-image formats are encoded here explicitly:
//! little-endian fixed-width integers, `u32`-length-prefixed strings and
//! sequences, and one leading tag byte per enum variant.
//!
//! Decoding is total over torn input: every accessor returns `None` at the
//! first missing byte instead of panicking, so a segment truncated mid-record
//! by a crash degrades to "fewer records", never to garbage state.

use super::JournalRecord;
use crate::key::{Clock, InstanceId, ObjectKey, StateKey, VertexId};
use crate::ops::{Condition, Operation};
use crate::store::StoreInstance;
use crate::value::Value;
use chc_packet::{FlowKey, ScopeKey};
use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// The frame checksum: 64-bit FNV-1a over the payload read as
/// little-endian `u64` words, then over its tail bytes one at a time, then
/// over its length, folded to 32 bits (high half XOR low half). Reading
/// words makes it about fifteen times cheaper than byte-wise FNV-1a on a
/// 300-byte record.
///
/// What it detects is a 32-bit claim and no more. Each step (XOR in a word
/// or tail byte, multiply by an odd prime) is a bijection of the 64-bit
/// state, so two payloads of one length that differ only inside one word or
/// one tail byte — every single-byte flip among them — reach different
/// 64-bit states, and only the fold can hide that: never when the
/// difference lies in a word's upper half, for about one pair in 2³²
/// otherwise. Any other corruption — a torn or zero-filled tail, bit rot
/// across words — passes with probability about 2⁻³². It is not a CRC (no
/// burst length is guaranteed) and no defence against a deliberate edit.
pub(crate) fn folded_word_fnv(data: &[u8]) -> u32 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let step = |h: u64, word: u64| (h ^ word).wrapping_mul(PRIME);
    let mut words = data.chunks_exact(8);
    let mut h = words.by_ref().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        step(
            h,
            u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]),
        )
    });
    h = words
        .remainder()
        .iter()
        .fold(h, |h, &b| step(h, u64::from(b)));
    h = step(h, data.len() as u64);
    (h ^ (h >> 32)) as u32
}

/// Bytes of the frame header every journal record and image is written
/// behind: `[u32 len][u32 folded_word_fnv(payload)]`, little-endian.
pub(crate) const FRAME_HEADER: usize = 8;

/// Where an `ApplyBatch` payload keeps its op count: after the header, the
/// tag byte and the requester. [`Enc::close_batch`] writes it last.
const BATCH_COUNT_AT: usize = FRAME_HEADER + 1 + 4;

/// Append-side encoder over a caller's buffer, with fixed-width primitives.
/// The buffer starts with room for the frame header, so a payload is built
/// where it is written from, once.
pub(crate) struct Enc<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Enc<'a> {
    /// An encoder writing one frame into `buf`. The buffer is emptied first
    /// and keeps its capacity, so one reused across records stops
    /// allocating once it has held the largest of them.
    pub(crate) fn reuse(buf: &'a mut Vec<u8>) -> Enc<'a> {
        buf.clear();
        buf.extend_from_slice(&[0; FRAME_HEADER]);
        Enc { buf }
    }

    /// The finished frame: the header, filled in here, then the payload.
    pub(crate) fn finish(self) -> &'a [u8] {
        let (header, payload) = self.buf.split_at_mut(FRAME_HEADER);
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&folded_word_fnv(payload).to_le_bytes());
        self.buf
    }

    /// An [`JournalRecord::Apply`] payload.
    pub(crate) fn apply_record(
        &mut self,
        requester: InstanceId,
        object: Named<'_>,
        op: &Operation,
        clock: Option<Clock>,
    ) {
        self.u8(0);
        self.u32(requester.0);
        self.journaled_op(object, op, clock);
    }

    /// Open a [`JournalRecord::ApplyBatch`] payload: add its ops with
    /// [`Enc::batch_op`], then write how many with [`Enc::close_batch`].
    pub(crate) fn open_batch(&mut self, requester: InstanceId, ordered: bool) {
        self.u8(if ordered { 7 } else { 4 });
        self.u32(requester.0);
        self.u32(0);
    }

    /// One op of an open batch.
    pub(crate) fn batch_op(&mut self, object: Named<'_>, op: &Operation, clock: Option<Clock>) {
        self.journaled_op(object, op, clock);
    }

    /// Write the op count of the batch opened by [`Enc::open_batch`].
    pub(crate) fn close_batch(&mut self, ops: u32) {
        self.buf[BATCH_COUNT_AT..BATCH_COUNT_AT + 4].copy_from_slice(&ops.to_le_bytes());
    }

    /// One journaled op: a head byte saying how the object is named and
    /// whether a clock follows, the entry id or the key, the operation, and
    /// the clock.
    fn journaled_op(&mut self, object: Named<'_>, op: &Operation, clock: Option<Clock>) {
        let by_id = matches!(object, Named::Id(_));
        self.u8(u8::from(clock.is_some()) | u8::from(by_id) << 1);
        match object {
            Named::Id(id) => self.u32(id),
            Named::Key(key) => self.state_key(key),
        }
        self.operation(op);
        if let Some(clock) = clock {
            self.u64(clock.0);
        }
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `v` in LEB128: seven bits a byte, low first, the top bit set on every
    /// byte but the last. Small numbers take one byte, a `u64` at most ten.
    pub(crate) fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    pub(crate) fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    pub(crate) fn value(&mut self, v: &Value) {
        match v {
            Value::None => self.u8(0),
            Value::Int(i) => {
                self.u8(1);
                self.i64(*i);
            }
            Value::List(items) => {
                self.u8(2);
                self.u32(items.len() as u32);
                for item in items {
                    self.value(item);
                }
            }
            Value::Bytes(b) => {
                self.u8(3);
                self.bytes(b);
            }
            Value::Pair(a, b) => {
                self.u8(4);
                self.i64(*a);
                self.i64(*b);
            }
        }
    }

    fn condition(&mut self, c: &Condition) {
        match c {
            Condition::Equals(v) => {
                self.u8(0);
                self.value(v);
            }
            Condition::LessThan(b) => {
                self.u8(1);
                self.i64(*b);
            }
            Condition::GreaterThan(b) => {
                self.u8(2);
                self.i64(*b);
            }
            Condition::Absent => self.u8(3),
        }
    }

    pub(crate) fn operation(&mut self, op: &Operation) {
        match op {
            Operation::Get => self.u8(0),
            Operation::Set(v) => {
                self.u8(1);
                self.value(v);
            }
            Operation::Delete => self.u8(2),
            Operation::Increment(d) => {
                self.u8(3);
                self.i64(*d);
            }
            Operation::Decrement(d) => {
                self.u8(4);
                self.i64(*d);
            }
            Operation::AddPair(a, b) => {
                self.u8(5);
                self.i64(*a);
                self.i64(*b);
            }
            Operation::PushBack(v) => {
                self.u8(6);
                self.value(v);
            }
            Operation::PushFront(v) => {
                self.u8(7);
                self.value(v);
            }
            Operation::PopFront => self.u8(8),
            Operation::PopBack => self.u8(9),
            Operation::CompareAndUpdate { condition, new } => {
                self.u8(10);
                self.condition(condition);
                self.value(new);
            }
        }
    }

    fn scope_key(&mut self, sk: &ScopeKey) {
        match sk {
            ScopeKey::Flow(FlowKey(v)) => {
                self.u8(0);
                self.u128(*v);
            }
            ScopeKey::HostPair(a, b) => {
                self.u8(1);
                self.u32((*a).into());
                self.u32((*b).into());
            }
            ScopeKey::Host(a) => {
                self.u8(2);
                self.u32((*a).into());
            }
            ScopeKey::Port(p) => {
                self.u8(3);
                self.u16(*p);
            }
            ScopeKey::Global => self.u8(4),
        }
    }

    pub(crate) fn opt_instance(&mut self, instance: Option<InstanceId>) {
        match instance {
            None => self.u8(0),
            Some(InstanceId(i)) => {
                self.u8(1);
                self.u32(i);
            }
        }
    }

    pub(crate) fn state_key(&mut self, key: &StateKey) {
        self.u32(key.vertex.0);
        self.opt_instance(key.instance);
        self.str(&key.object.name);
        match &key.object.scope_key {
            None => self.u8(0),
            Some(sk) => {
                self.u8(1);
                self.scope_key(sk);
            }
        }
    }
}

/// Recovery-side decoder over a byte slice. Every accessor returns `None`
/// once the input runs out; callers treat that as "the rest was torn off".
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    pub(crate) fn is_exhausted(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Some(out)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    /// The payload of the next frame, if the frame is whole and its checksum
    /// holds.
    pub(crate) fn frame(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        let sum = self.u32()?;
        let payload = self.take(len)?;
        (folded_word_fnv(payload) == sum).then_some(payload)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.array().map(u8::from_le_bytes)
    }

    pub(crate) fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    pub(crate) fn i64(&mut self) -> Option<i64> {
        self.array().map(i64::from_le_bytes)
    }

    pub(crate) fn u128(&mut self) -> Option<u128> {
        self.array().map(u128::from_le_bytes)
    }

    /// A number [`Enc::varint`] wrote; `None` past ten bytes or past a
    /// `u64`, or for a trailing zero byte (a number has one spelling).
    pub(crate) fn varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let bits = u64::from(byte & 0x7f);
            if shift == 63 && bits > 1 {
                return None;
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return (byte != 0 || shift == 0).then_some(v);
            }
        }
        None
    }

    pub(crate) fn bytes(&mut self) -> Option<Vec<u8>> {
        let len = self.u32()? as usize;
        self.take(len).map(|b| b.to_vec())
    }

    /// A string, borrowed from the input.
    fn borrowed_str(&mut self) -> Option<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).ok()
    }

    pub(crate) fn value(&mut self) -> Option<Value> {
        Some(match self.u8()? {
            0 => Value::None,
            1 => Value::Int(self.i64()?),
            2 => {
                let n = self.u32()? as usize;
                let mut items = VecDeque::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    items.push_back(self.value()?);
                }
                Value::List(items)
            }
            3 => Value::Bytes(self.bytes()?),
            4 => Value::Pair(self.i64()?, self.i64()?),
            _ => return None,
        })
    }

    fn condition(&mut self) -> Option<Condition> {
        Some(match self.u8()? {
            0 => Condition::Equals(self.value()?),
            1 => Condition::LessThan(self.i64()?),
            2 => Condition::GreaterThan(self.i64()?),
            3 => Condition::Absent,
            _ => return None,
        })
    }

    pub(crate) fn operation(&mut self) -> Option<Operation> {
        Some(match self.u8()? {
            0 => Operation::Get,
            1 => Operation::Set(self.value()?),
            2 => Operation::Delete,
            3 => Operation::Increment(self.i64()?),
            4 => Operation::Decrement(self.i64()?),
            5 => Operation::AddPair(self.i64()?, self.i64()?),
            6 => Operation::PushBack(self.value()?),
            7 => Operation::PushFront(self.value()?),
            8 => Operation::PopFront,
            9 => Operation::PopBack,
            10 => Operation::CompareAndUpdate {
                condition: self.condition()?,
                new: self.value()?,
            },
            _ => return None,
        })
    }

    fn scope_key(&mut self) -> Option<ScopeKey> {
        Some(match self.u8()? {
            0 => ScopeKey::Flow(FlowKey(self.u128()?)),
            1 => ScopeKey::HostPair(Ipv4Addr::from(self.u32()?), Ipv4Addr::from(self.u32()?)),
            2 => ScopeKey::Host(Ipv4Addr::from(self.u32()?)),
            3 => ScopeKey::Port(self.u16()?),
            4 => ScopeKey::Global,
            _ => return None,
        })
    }

    pub(crate) fn opt_instance(&mut self) -> Option<Option<InstanceId>> {
        Some(match self.u8()? {
            0 => None,
            1 => Some(InstanceId(self.u32()?)),
            _ => return None,
        })
    }

    /// A key, with one allocation: its name, built from the borrowed bytes.
    pub(crate) fn state_key(&mut self) -> Option<StateKey> {
        let vertex = VertexId(self.u32()?);
        let instance = self.opt_instance()?;
        let name = Arc::from(self.borrowed_str()?);
        let scope_key = match self.u8()? {
            0 => None,
            1 => Some(self.scope_key()?),
            _ => return None,
        };
        let object = ObjectKey::shared_name(name, scope_key);
        Some(StateKey::new(vertex, instance, object))
    }

    /// One journaled op, its object resolved through `names` if the frame
    /// names it by id.
    fn journaled_op(&mut self, names: &[StateKey]) -> Result<JournalOp, Undecodable> {
        let head = self.u8().ok_or(Undecodable::Torn)?;
        if head > 3 {
            return Err(Undecodable::Torn);
        }
        let key = if head & 2 != 0 {
            let id = self.u32().ok_or(Undecodable::Torn)?;
            names
                .get(id as usize)
                .ok_or(Undecodable::UnknownEntry)?
                .clone()
        } else {
            self.state_key().ok_or(Undecodable::Torn)?
        };
        let op = self.operation().ok_or(Undecodable::Torn)?;
        let clock = match head & 1 {
            0 => None,
            _ => Some(Clock(self.u64().ok_or(Undecodable::Torn)?)),
        };
        Ok((key, op, clock))
    }
}

/// How a journaled op names its object: by the entry id replay will have
/// rebuilt when it reads the frame, or by the whole key.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Named<'a> {
    /// An entry the image holds or an earlier frame created.
    Id(u32),
    /// Any object, including one this very frame creates.
    Key(&'a StateKey),
}

/// A journaled op, decoded.
type JournalOp = (StateKey, Operation, Option<Clock>);

/// Why a payload that passed its checksum did not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Undecodable {
    /// It is not one whole record: the scan ends there.
    Torn,
    /// It names an entry id the names it was read with do not hold.
    UnknownEntry,
}

impl JournalRecord {
    /// Encode this record through the one encoder of its kind.
    pub(crate) fn encode(&self, e: &mut Enc<'_>) {
        match self {
            JournalRecord::Apply {
                requester,
                key,
                op,
                clock,
            } => e.apply_record(*requester, Named::Key(key), op, *clock),
            JournalRecord::Callback { key, instance } => {
                e.u8(1);
                e.u32(instance.0);
                e.state_key(key);
            }
            JournalRecord::Reassign { from, to } => {
                e.u8(3);
                e.u32(from.0);
                e.u32(to.0);
            }
            JournalRecord::Owner { key, owner } => {
                e.u8(5);
                e.opt_instance(*owner);
                e.state_key(key);
            }
            JournalRecord::Nondet { clock, slot, value } => {
                e.u8(6);
                e.u64(clock.0);
                e.u32(*slot);
                e.value(value);
            }
            JournalRecord::ApplyBatch {
                requester,
                ordered,
                ops,
            } => {
                e.open_batch(*requester, *ordered);
                for (key, op, clock) in ops {
                    e.batch_op(Named::Key(key), op, *clock);
                }
                e.close_batch(ops.len() as u32);
            }
        }
    }

    /// This record as one finished frame, in a buffer of its own: what
    /// [`super::Engine::append`] takes.
    pub fn to_frame(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut e = Enc::reuse(&mut buf);
        self.encode(&mut e);
        e.finish();
        buf
    }
}

/// Decode one record payload, resolving the entry ids its ops name through
/// `names` (entry id order): an error unless it is exactly one whole record
/// whose every id `names` holds.
pub(crate) fn decode_record(
    payload: &[u8],
    names: &[StateKey],
) -> Result<JournalRecord, Undecodable> {
    use Undecodable::Torn;
    let mut d = Dec::new(payload);
    let record = match d.u8().ok_or(Torn)? {
        0 => {
            let requester = InstanceId(d.u32().ok_or(Torn)?);
            let (key, op, clock) = d.journaled_op(names)?;
            JournalRecord::Apply {
                requester,
                key,
                op,
                clock,
            }
        }
        tag @ (4 | 7) => {
            let requester = InstanceId(d.u32().ok_or(Torn)?);
            let n = d.u32().ok_or(Torn)? as usize;
            let mut ops = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                ops.push(d.journaled_op(names)?);
            }
            JournalRecord::ApplyBatch {
                requester,
                ordered: tag == 7,
                ops,
            }
        }
        tag => decode_rare(tag, &mut d).ok_or(Torn)?,
    };
    d.is_exhausted().then_some(record).ok_or(Torn)
}

/// The payload of a record of a rare kind, after its tag.
fn decode_rare(tag: u8, d: &mut Dec<'_>) -> Option<JournalRecord> {
    Some(match tag {
        1 => JournalRecord::Callback {
            instance: InstanceId(d.u32()?),
            key: d.state_key()?,
        },
        3 => JournalRecord::Reassign {
            from: InstanceId(d.u32()?),
            to: InstanceId(d.u32()?),
        },
        5 => JournalRecord::Owner {
            owner: d.opt_instance()?,
            key: d.state_key()?,
        },
        6 => JournalRecord::Nondet {
            clock: Clock(d.u64()?),
            slot: d.u32()?,
            value: d.value()?,
        },
        _ => return None,
    })
}

/// Hand the payloads of the intact frames at the head of `bytes` to `visit`
/// in order, and return the length of the prefix it accepted. The scan ends
/// at the first short frame or failed checksum, or where `visit` declines a
/// payload (it does not decode): a torn tail.
pub(crate) fn scan_frames(bytes: &[u8], visit: &mut dyn FnMut(&[u8]) -> bool) -> usize {
    let mut d = Dec::new(bytes);
    loop {
        let intact = d.pos;
        match d.frame() {
            Some(payload) if visit(payload) => {}
            _ => return intact,
        }
    }
}

/// `instance`'s checkpoint image as one finished frame, encoded into `buf`
/// (emptied first) straight from the live instance: what the engine keeps
/// as its checkpoint image. Public so that the image can be priced
/// and round-trip tested from outside the crate.
pub fn encode_image_frame<'a>(instance: &StoreInstance, buf: &'a mut Vec<u8>) -> &'a [u8] {
    let mut e = Enc::reuse(buf);
    instance.encode_image(&mut e);
    e.finish()
}

/// The instance an image frame holds, decoded in place. `None` unless
/// `frame` is exactly one intact frame holding exactly one image.
pub fn decode_image_frame(frame: &[u8]) -> Option<StoreInstance> {
    let mut d = Dec::new(frame);
    let payload = d.frame().filter(|_| d.is_exhausted())?;
    StoreInstance::decode_image(&mut Dec::new(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One frame, built by `encode`, in a buffer of its own.
    fn frame(encode: impl FnOnce(&mut Enc<'_>)) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut enc = Enc::reuse(&mut buf);
        encode(&mut enc);
        enc.finish();
        buf
    }

    fn round_trip_value(v: Value) {
        let frame = frame(|enc| enc.value(&v));
        let mut dec = Dec::new(&frame[FRAME_HEADER..]);
        assert_eq!(dec.value(), Some(v));
        assert!(dec.is_exhausted());
    }

    #[test]
    fn varints_round_trip_and_reject_what_no_encoder_writes() {
        for v in [0, 1, 127, 128, 300, 1 << 35, u64::MAX - 1, u64::MAX] {
            let frame = frame(|enc| enc.varint(v));
            let mut dec = Dec::new(&frame[FRAME_HEADER..]);
            assert_eq!(dec.varint(), Some(v));
            assert!(dec.is_exhausted());
        }
        // One byte below 128, ten for the top of the range.
        assert_eq!(frame(|enc| enc.varint(127)).len(), FRAME_HEADER + 1);
        assert_eq!(frame(|enc| enc.varint(u64::MAX)).len(), FRAME_HEADER + 10);
        // A trailing zero byte, an eleventh byte, bits past 64, a torn one.
        for bytes in [
            &[0x80, 0x00][..],
            &[0xff; 11],
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02],
            &[0x80],
        ] {
            assert_eq!(Dec::new(bytes).varint(), None, "{bytes:?}");
        }
    }

    #[test]
    fn values_round_trip() {
        round_trip_value(Value::None);
        round_trip_value(Value::Int(-42));
        round_trip_value(Value::Pair(i64::MIN, i64::MAX));
        round_trip_value(Value::Bytes(vec![0, 1, 255]));
        round_trip_value(Value::List(
            [Value::Int(1), Value::list_of_ints([2, 3]), Value::None]
                .into_iter()
                .collect(),
        ));
    }

    #[test]
    fn operations_and_keys_round_trip() {
        let ops = [
            Operation::Get,
            Operation::Set(Value::Int(7)),
            Operation::Delete,
            Operation::Increment(3),
            Operation::Decrement(-9),
            Operation::AddPair(1, -2),
            Operation::PushBack(Value::Bytes(vec![9])),
            Operation::PushFront(Value::None),
            Operation::PopFront,
            Operation::PopBack,
            Operation::CompareAndUpdate {
                condition: Condition::Equals(Value::Pair(0, 1)),
                new: Value::Int(5),
            },
            Operation::CompareAndUpdate {
                condition: Condition::LessThan(10),
                new: Value::None,
            },
            Operation::CompareAndUpdate {
                condition: Condition::GreaterThan(-1),
                new: Value::Int(0),
            },
            Operation::CompareAndUpdate {
                condition: Condition::Absent,
                new: Value::Int(1),
            },
        ];
        let keys = [
            StateKey::shared(VertexId(0), ObjectKey::named("plain")),
            StateKey::shared(
                VertexId(1),
                ObjectKey::scoped("flow", ScopeKey::Flow(FlowKey(7))),
            ),
            StateKey::per_flow(
                VertexId(2),
                InstanceId(9),
                ObjectKey::scoped(
                    "pair",
                    ScopeKey::HostPair(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2)),
                ),
            ),
            StateKey::shared(
                VertexId(3),
                ObjectKey::scoped("host", ScopeKey::Host(Ipv4Addr::new(192, 168, 0, 1))),
            ),
            StateKey::shared(VertexId(4), ObjectKey::scoped("port", ScopeKey::Port(443))),
            StateKey::shared(VertexId(5), ObjectKey::scoped("global", ScopeKey::Global)),
        ];
        // Every op on every key, named by key with a clock and by id
        // without one, as a journaled op writes them.
        let clock = Clock(3 << 56 | 12345);
        for op in &ops {
            for (id, key) in keys.iter().enumerate() {
                let frame = frame(|enc| {
                    enc.state_key(key);
                    enc.batch_op(Named::Key(key), op, Some(clock));
                    enc.batch_op(Named::Id(id as u32), op, None);
                });
                let mut dec = Dec::new(&frame[FRAME_HEADER..]);
                assert_eq!(dec.state_key().as_ref(), Some(key));
                let op = op.clone();
                let by_key = (key.clone(), op.clone(), Some(clock));
                assert_eq!(dec.journaled_op(&[]), Ok(by_key));
                let by_id = (key.clone(), op, None);
                assert_eq!(dec.journaled_op(&keys), Ok(by_id));
                assert!(dec.is_exhausted());
            }
        }
        // An id the names do not hold.
        let frame = frame(|enc| enc.batch_op(Named::Id(6), &Operation::Get, None));
        let mut dec = Dec::new(&frame[FRAME_HEADER..]);
        assert_eq!(dec.journaled_op(&keys), Err(Undecodable::UnknownEntry));
    }

    fn flow_key(i: u64) -> StateKey {
        StateKey::per_flow(
            VertexId(2),
            InstanceId(9),
            ObjectKey::scoped("port_map", ScopeKey::Flow(FlowKey(7 << 64 | u128::from(i)))),
        )
    }

    /// A batch of the size a write-behind drain journals on one shard: a
    /// few hundred bytes.
    fn drain_batch() -> JournalRecord {
        JournalRecord::ApplyBatch {
            requester: InstanceId(9),
            ordered: false,
            ops: (0..6)
                .map(|i| {
                    let clock = Some(Clock::with_root(0, 100 + i));
                    (flow_key(i), Operation::Increment(64), clock)
                })
                .collect(),
        }
    }

    #[test]
    fn a_frame_leads_with_length_and_checksum() {
        let key = flow_key(3);
        let by_key = frame(|enc| {
            enc.apply_record(InstanceId(9), Named::Key(&key), &Operation::Delete, None);
        });
        let payload = &by_key[FRAME_HEADER..];
        assert_eq!(by_key[..4], (payload.len() as u32).to_le_bytes());
        assert_eq!(
            by_key[4..FRAME_HEADER],
            folded_word_fnv(payload).to_le_bytes()
        );
        // The tag, the requester, then the op: named by key, no clock.
        let mut dec = Dec::new(payload);
        assert_eq!((dec.u8(), dec.u32(), dec.u8()), (Some(0), Some(9), Some(0)));
        assert_eq!(dec.state_key(), Some(key));
        assert_eq!(dec.operation(), Some(Operation::Delete));
        assert!(dec.is_exhausted());
        // By id, with a clock: 22 bytes past the requester for an increment.
        let by_id = frame(|enc| {
            let clock = Some(Clock::with_root(0, 7));
            enc.apply_record(InstanceId(9), Named::Id(3), &Operation::Increment(1), clock);
        });
        assert_eq!(by_id.len(), FRAME_HEADER + 5 + 22);
    }

    #[test]
    fn every_record_kind_round_trips_through_its_frame() {
        let records = [
            JournalRecord::Apply {
                requester: InstanceId(1),
                key: flow_key(1),
                op: Operation::PushBack(Value::Int(80)),
                clock: Some(Clock(2 << 56 | 7)),
            },
            JournalRecord::Callback {
                key: flow_key(2),
                instance: InstanceId(4),
            },
            JournalRecord::Reassign {
                from: InstanceId(3),
                to: InstanceId(5),
            },
            JournalRecord::Owner {
                key: flow_key(4),
                owner: Some(InstanceId(6)),
            },
            JournalRecord::Owner {
                key: flow_key(5),
                owner: None,
            },
            JournalRecord::Nondet {
                clock: Clock(1 << 56 | 9),
                slot: 2,
                value: Value::list_of_ints([4, 5]),
            },
            drain_batch(),
        ];
        let bytes: Vec<u8> = records.iter().flat_map(JournalRecord::to_frame).collect();
        let mut decoded = Vec::new();
        let intact = scan_frames(&bytes, &mut |payload| {
            decoded.extend(decode_record(payload, &[]));
            true
        });
        assert_eq!(intact, bytes.len());
        assert_eq!(decoded, records);
    }

    #[test]
    fn a_corrupt_payload_fails_the_frame_check_and_ends_the_scan() {
        let first = JournalRecord::Reassign {
            from: InstanceId(1),
            to: InstanceId(2),
        }
        .to_frame();
        let middle = drain_batch().to_frame();
        let last = JournalRecord::Nondet {
            clock: Clock(5),
            slot: 0,
            value: Value::Int(-1),
        }
        .to_frame();
        let scan = |middle: &[u8]| {
            let bytes = [&first[..], middle, &last[..]].concat();
            let mut records = 0;
            let intact = scan_frames(&bytes, &mut |payload| {
                records += 1;
                decode_record(payload, &[]).is_ok()
            });
            (records, intact)
        };
        let whole = first.len() + middle.len() + last.len();
        assert_eq!(scan(&middle), (3, whole));
        // Every single-byte flip of the middle payload.
        let mut corrupt = middle.clone();
        for at in FRAME_HEADER..middle.len() {
            for flip in 1..=u8::MAX {
                corrupt[at] = middle[at] ^ flip;
                assert_eq!(Dec::new(&corrupt).frame(), None, "byte {at} ^ {flip:#04x}");
                assert_eq!(scan(&corrupt), (1, first.len()), "byte {at} ^ {flip:#04x}");
            }
            corrupt[at] = middle[at];
        }
        // A zero-filled payload behind an intact header.
        corrupt[FRAME_HEADER..].fill(0);
        assert_eq!(Dec::new(&corrupt).frame(), None);
        assert_eq!(scan(&corrupt), (1, first.len()));
    }

    #[test]
    fn truncated_input_decodes_to_none_not_panic() {
        let frame = frame(|enc| {
            enc.state_key(&StateKey::shared(VertexId(1), ObjectKey::named("x")));
            enc.operation(&Operation::Set(Value::Bytes(vec![1, 2, 3, 4])));
        });
        let bytes = &frame[FRAME_HEADER..];
        // Every strict prefix must decode cleanly to None somewhere, never
        // panic or loop.
        for cut in 0..bytes.len() {
            let mut dec = Dec::new(&bytes[..cut]);
            if let Some(k) = dec.state_key() {
                assert_eq!(&*k.object.name, "x");
                assert!(dec.operation().is_none());
            }
        }
        // Likewise every strict prefix of a record's frame: no record,
        // nothing intact.
        let record = drain_batch().to_frame();
        for cut in 0..record.len() {
            assert_eq!(scan_frames(&record[..cut], &mut |_| panic!("torn")), 0);
        }
    }

    /// The image of a fixed history and one id-named journal frame, pinned
    /// byte for byte: a change that moves either format fails here.
    #[test]
    fn a_fixed_history_encodes_to_the_pinned_bytes() {
        let mut store = StoreInstance::new();
        let pkts = StateKey::shared(VertexId(1), ObjectKey::named("pkt_count"));
        let pool = StateKey::shared(VertexId(2), ObjectKey::named("free_ports"));
        let flow = flow_key(5);
        let mut apply = |key: &StateKey, op: Operation, counter: u64| {
            let clock = Some(Clock(counter));
            store.apply(InstanceId(9), key, &op, clock).unwrap();
        };
        apply(&pkts, Operation::Increment(1), 7);
        apply(&pool, Operation::PushBack(Value::Int(1024)), 7);
        apply(&pool, Operation::PushBack(Value::Int(1025)), 8);
        apply(&pool, Operation::PopFront, 9);
        apply(&flow, Operation::Set(Value::Pair(10, 443)), 9);
        apply(&pkts, Operation::Increment(2), 12);
        store.nondet_value(Clock(9), 1, Value::Int(-77));
        let image = encode_image_frame(&store, &mut Vec::new()).to_vec();
        assert_eq!(
            (image.len(), folded_word_fnv(&image)),
            (261, 3_944_192_442),
            "the image format moved"
        );
        let increment = frame(|enc| {
            let clock = Some(Clock(12));
            enc.apply_record(InstanceId(9), Named::Id(0), &Operation::Increment(2), clock);
        });
        #[rustfmt::skip]
        let pinned = [
            27, 0, 0, 0, 242, 228, 52, 189, // length, checksum
            0, 9, 0, 0, 0,                  // an apply by instance 9
            3, 0, 0, 0, 0,                  // clocked, named by entry id 0
            3, 2, 0, 0, 0, 0, 0, 0, 0,      // increment by 2
            12, 0, 0, 0, 0, 0, 0, 0,        // clock 12
        ];
        assert_eq!(increment, pinned, "the journal frame format moved");
    }

    /// An ordered writer's history: its increments leave marks, which an
    /// image carries as a trailing section, and its batch frame says it
    /// raises them. Both pinned byte for byte, and the image round-trips.
    #[test]
    fn a_history_with_marks_encodes_to_the_pinned_bytes() {
        let mut store = StoreInstance::new();
        let pkts = StateKey::shared(VertexId(1), ObjectKey::named("pkt_count"));
        let bytes = StateKey::shared(VertexId(3), ObjectKey::named("server_bytes"));
        let mut apply = |writer: u32, key: &StateKey, op: Operation, counter: u64| {
            let clock = Some(Clock(counter));
            let (result, _) = store.apply_named(InstanceId(writer), key, &op, clock, true, true);
            assert!(!result.unwrap().outcome.emulated);
        };
        apply(9, &pkts, Operation::Increment(3), 7);
        apply(9, &bytes, Operation::Increment(1_500), 8);
        apply(4, &bytes, Operation::Increment(60), 6);
        apply(9, &pkts, Operation::Increment(1), 12);
        apply(9, &bytes, Operation::Set(Value::Int(0)), 13);
        let image = encode_image_frame(&store, &mut Vec::new()).to_vec();
        let decoded = decode_image_frame(&image).expect("the image decodes");
        assert_eq!(encode_image_frame(&decoded, &mut Vec::new()), image);
        assert_eq!(
            (image.len(), folded_word_fnv(&image)),
            (150, 3_694_796_655),
            "the image format moved"
        );
        // The tail: three marks, (entry id, writer, counter) each.
        let marks = &image[image.len() - 52..];
        assert_eq!(marks[..4], 3u32.to_le_bytes());
        assert_eq!(
            marks[4..20],
            [
                &0u32.to_le_bytes()[..],
                &9u32.to_le_bytes(),
                &12u64.to_le_bytes()
            ]
            .concat()
        );
        let increment = frame(|enc| {
            enc.open_batch(InstanceId(9), true);
            enc.batch_op(Named::Id(0), &Operation::Increment(2), Some(Clock(14)));
            enc.close_batch(1);
        });
        #[rustfmt::skip]
        let pinned = [
            31, 0, 0, 0, 166, 196, 64, 182, // length, checksum
            7, 9, 0, 0, 0,                  // an ordered writer's batch, by instance 9
            1, 0, 0, 0,                     // of one op
            3, 0, 0, 0, 0,                  // clocked, named by entry id 0
            3, 2, 0, 0, 0, 0, 0, 0, 0,      // increment by 2
            14, 0, 0, 0, 0, 0, 0, 0,        // clock 14
        ];
        assert_eq!(increment, pinned, "the ordered batch frame format moved");
        let record = decode_record(&increment[FRAME_HEADER..], std::slice::from_ref(&pkts));
        let ops = vec![(pkts, Operation::Increment(2), Some(Clock(14)))];
        let (requester, ordered) = (InstanceId(9), true);
        let want = JournalRecord::ApplyBatch {
            requester,
            ordered,
            ops,
        };
        assert_eq!(record, Ok(want));
    }

    #[test]
    fn folded_word_fnv_is_stable_and_input_sensitive() {
        assert_eq!(folded_word_fnv(b"abc"), folded_word_fnv(b"abc"));
        assert_ne!(folded_word_fnv(b"abc"), folded_word_fnv(b"abd"));
        assert_ne!(folded_word_fnv(b""), folded_word_fnv(b"\0"));
        // A word, and the tail past the last whole word.
        assert_ne!(
            folded_word_fnv(b"abcdefgh-ij"),
            folded_word_fnv(b"abcdefgX-ij")
        );
        assert_ne!(
            folded_word_fnv(b"abcdefgh-ij"),
            folded_word_fnv(b"abcdefgh-iX")
        );
        // The length is summed: zeros are not free.
        assert_ne!(folded_word_fnv(&[0; 8]), folded_word_fnv(&[0; 16]));
    }
}
