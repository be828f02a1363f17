//! Hand-rolled binary codec for the append-only flat-file engine.
//!
//! The workspace's vendored `serde` is a derive-only stand-in with no
//! serialization machinery (all JSON in the repo is written by hand), so the
//! durable record and checkpoint-image formats are encoded here explicitly:
//! little-endian fixed-width integers, `u32`-length-prefixed strings and
//! sequences, and one leading tag byte per enum variant.
//!
//! Decoding is total over torn input: every accessor returns `None` at the
//! first missing byte instead of panicking, so a segment truncated mid-record
//! by a crash degrades to "fewer records", never to garbage state.

use crate::key::{Clock, InstanceId, ObjectKey, StateKey, VertexId};
use crate::ops::{Condition, Operation};
use crate::value::Value;
use chc_packet::{FlowKey, ScopeKey};
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// FNV-1a over the payload; stored with every record so a torn or bit-rotted
/// tail is detected and dropped at recovery instead of decoded as noise.
pub(crate) fn fnv32(data: &[u8]) -> u32 {
    let mut h = 0x811c_9dc5u32;
    for &b in data {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Bytes of the frame header every durable record and image is written
/// behind: `[u32 len][u32 fnv32(payload)]`, little-endian.
pub(crate) const FRAME_HEADER: usize = 8;

/// Append-side encoder: a growable byte buffer with fixed-width primitives.
/// The buffer starts with room for the frame header, so a payload is built
/// where it is written from, once.
pub(crate) struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn new() -> Enc {
        Enc {
            buf: vec![0; FRAME_HEADER],
        }
    }

    /// The finished frame: the header, filled in here, then the payload.
    pub(crate) fn into_frame(mut self) -> Vec<u8> {
        let (header, payload) = self.buf.split_at_mut(FRAME_HEADER);
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&fnv32(payload).to_le_bytes());
        self.buf
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
            Operation::Custom { name, arg } => {
                self.u8(11);
                self.str(name);
                self.value(arg);
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

    pub(crate) fn state_key(&mut self, key: &StateKey) {
        self.u32(key.vertex.0);
        match key.instance {
            None => self.u8(0),
            Some(InstanceId(i)) => {
                self.u8(1);
                self.u32(i);
            }
        }
        self.str(&key.object.name);
        match &key.object.scope_key {
            None => self.u8(0),
            Some(sk) => {
                self.u8(1);
                self.scope_key(sk);
            }
        }
    }

    pub(crate) fn opt_clock(&mut self, clock: Option<Clock>) {
        match clock {
            None => self.u8(0),
            Some(c) => {
                self.u8(1);
                self.u64(c.0);
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

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    pub(crate) fn u16(&mut self) -> Option<u16> {
        self.take(2)
            .map(|b| u16::from_le_bytes(b.try_into().unwrap()))
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    pub(crate) fn i64(&mut self) -> Option<i64> {
        self.take(8)
            .map(|b| i64::from_le_bytes(b.try_into().unwrap()))
    }

    pub(crate) fn u128(&mut self) -> Option<u128> {
        self.take(16)
            .map(|b| u128::from_le_bytes(b.try_into().unwrap()))
    }

    pub(crate) fn bytes(&mut self) -> Option<Vec<u8>> {
        let len = self.u32()? as usize;
        self.take(len).map(|b| b.to_vec())
    }

    pub(crate) fn str(&mut self) -> Option<String> {
        String::from_utf8(self.bytes()?).ok()
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
            11 => Operation::Custom {
                name: self.str()?,
                arg: self.value()?,
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

    pub(crate) fn state_key(&mut self) -> Option<StateKey> {
        let vertex = VertexId(self.u32()?);
        let instance = match self.u8()? {
            0 => None,
            1 => Some(InstanceId(self.u32()?)),
            _ => return None,
        };
        let name = self.str()?;
        let object = match self.u8()? {
            0 => ObjectKey::named(&name),
            1 => ObjectKey::scoped(&name, self.scope_key()?),
            _ => return None,
        };
        Some(StateKey::new(vertex, instance, object))
    }

    pub(crate) fn opt_clock(&mut self) -> Option<Option<Clock>> {
        Some(match self.u8()? {
            0 => None,
            1 => Some(Clock(self.u64()?)),
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_value(v: Value) {
        let mut enc = Enc::new();
        enc.value(&v);
        let frame = enc.into_frame();
        let mut dec = Dec::new(&frame[FRAME_HEADER..]);
        assert_eq!(dec.value(), Some(v));
        assert!(dec.is_exhausted());
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
            Operation::Custom {
                name: "clamp".into(),
                arg: Value::Int(100),
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
        for op in &ops {
            for key in &keys {
                let mut enc = Enc::new();
                enc.state_key(key);
                enc.operation(op);
                enc.opt_clock(Some(Clock::with_root(3, 12345)));
                enc.opt_clock(None);
                let frame = enc.into_frame();
                let mut dec = Dec::new(&frame[FRAME_HEADER..]);
                assert_eq!(dec.state_key().as_ref(), Some(key));
                assert_eq!(dec.operation().as_ref(), Some(op));
                assert_eq!(dec.opt_clock(), Some(Some(Clock::with_root(3, 12345))));
                assert_eq!(dec.opt_clock(), Some(None));
                assert!(dec.is_exhausted());
            }
        }
    }

    #[test]
    fn a_frame_leads_with_length_and_checksum() {
        let key = StateKey::per_flow(
            VertexId(2),
            InstanceId(9),
            ObjectKey::scoped("port_map", ScopeKey::Flow(FlowKey(7 << 64 | 3))),
        );
        // An `Apply` record's payload after its tag: requester, then key.
        let mut enc = Enc::new();
        enc.u8(0);
        enc.u32(9);
        enc.state_key(&key);
        let frame = enc.into_frame();
        let payload = &frame[FRAME_HEADER..];
        assert_eq!(frame[..4], (payload.len() as u32).to_le_bytes());
        assert_eq!(frame[4..FRAME_HEADER], fnv32(payload).to_le_bytes());
        let mut dec = Dec::new(payload);
        assert_eq!((dec.u8(), dec.u32()), (Some(0), Some(9)));
        assert_eq!(dec.state_key(), Some(key));
        assert!(dec.is_exhausted());
    }

    #[test]
    fn truncated_input_decodes_to_none_not_panic() {
        let mut enc = Enc::new();
        enc.state_key(&StateKey::shared(VertexId(1), ObjectKey::named("x")));
        enc.operation(&Operation::Set(Value::Bytes(vec![1, 2, 3, 4])));
        let frame = enc.into_frame();
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
    }

    #[test]
    fn fnv32_is_stable_and_input_sensitive() {
        assert_eq!(fnv32(b"abc"), fnv32(b"abc"));
        assert_ne!(fnv32(b"abc"), fnv32(b"abd"));
        assert_ne!(fnv32(b""), fnv32(b"\0"));
    }
}
