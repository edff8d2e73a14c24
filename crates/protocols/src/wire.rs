//! A compact binary wire format for protocol update messages.
//!
//! The simulators exchange in-memory route values; real protocols exchange
//! bytes.  This module provides the (de)serialisation layer for both
//! engines so that traffic volumes can be measured in bytes as well as in
//! messages, and so that the encode/decode path is itself under test:
//!
//! * [`RipUpdate`] — a RIP-style vector of `(destination, metric)` entries;
//! * [`BgpUpdate`] — a BGP-style incremental announcement or withdrawal of
//!   a single destination, carrying level, communities and the AS path.
//!
//! The format is deliberately simple (fixed-width big-endian integers,
//! length-prefixed sequences) but strict: decoders reject truncated or
//! trailing input.

use dbf_bgp::route::{BgpRoute, CommunitySet};
use dbf_paths::{NodeId, SimplePath};
use std::fmt;

/// Errors arising while decoding a wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the message was complete.
    Truncated,
    /// The message decoded but left unconsumed bytes behind.
    TrailingBytes(usize),
    /// A length or tag field had a nonsensical value.
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::Malformed(what) => write!(f, "malformed field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The metric value used on the wire for "unreachable".
pub const WIRE_INFINITY: u32 = u32::MAX;

/// The largest network the format carries.  Node ids, entry counts and
/// path lengths are u16 fields, and a full-table RIP update has one entry
/// per node, so the *count* `n` itself must fit — not just the ids below
/// it.  The engines assert this at construction and the scenario layer
/// rejects larger specs, so [`RipUpdate::encode`]/[`BgpUpdate::encode`]
/// panic on a wider value instead of truncating it.
pub const MAX_NODES: usize = u16::MAX as usize;

/// Append a node id, entry count or path length as its u16 wire field.
fn put_u16(buf: &mut Vec<u8>, x: usize) {
    let x = u16::try_from(x).expect("node ids and counts fit the u16 wire fields (n <= MAX_NODES)");
    buf.extend_from_slice(&x.to_be_bytes());
}

fn put_u32(buf: &mut Vec<u8>, x: u32) {
    buf.extend_from_slice(&x.to_be_bytes());
}

fn be_u16(b: &[u8]) -> u16 {
    u16::from_be_bytes([b[0], b[1]])
}

fn be_u32(b: &[u8]) -> u32 {
    u32::from_be_bytes([b[0], b[1], b[2], b[3]])
}

/// A checked big-endian read cursor over a received message: every read
/// that would pass the end is [`WireError::Truncated`], and a sequence's
/// bytes are claimed (so its length is bounded by the input) before
/// anything is allocated for it.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (head, rest) = self.0.split_at_checked(n).ok_or(WireError::Truncated)?;
        self.0 = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        self.bytes(2).map(be_u16)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        self.bytes(4).map(be_u32)
    }

    fn finish(self) -> Result<(), WireError> {
        match self.0.len() {
            0 => Ok(()),
            n => Err(WireError::TrailingBytes(n)),
        }
    }
}

/// A RIP-style update: a vector of `(destination, metric)` pairs, where
/// `WIRE_INFINITY` encodes an unreachable destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RipUpdate {
    /// The advertising router.
    pub from: NodeId,
    /// The advertised entries.
    pub entries: Vec<(NodeId, u32)>,
}

impl RipUpdate {
    /// Encode to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_size());
        put_u16(&mut buf, self.from);
        put_u16(&mut buf, self.entries.len());
        for (dest, metric) in &self.entries {
            put_u16(&mut buf, *dest);
            put_u32(&mut buf, *metric);
        }
        buf
    }

    /// Decode from bytes.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader(buf);
        let from = r.u16()? as NodeId;
        let count = r.u16()? as usize;
        let entries = r
            .bytes(count * 6)?
            .chunks_exact(6)
            .map(|e| (be_u16(e) as NodeId, be_u32(&e[2..])))
            .collect();
        r.finish()?;
        Ok(Self { from, entries })
    }

    /// The encoded size in bytes.
    pub fn wire_size(&self) -> usize {
        4 + self.entries.len() * 6
    }
}

/// A BGP-style incremental update for one destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BgpUpdate {
    /// The advertising router.
    pub from: NodeId,
    /// The destination the update refers to.
    pub dest: NodeId,
    /// The announced route, or `None` for a withdrawal.
    pub route: Option<AnnouncedRoute>,
}

/// The payload of a BGP-style announcement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnouncedRoute {
    /// The level (local preference; lower preferred).
    pub level: u32,
    /// The community values.
    pub communities: Vec<u32>,
    /// The AS path, source first.
    pub path: Vec<NodeId>,
}

impl BgpUpdate {
    /// Build an update from an algebra route (`None`/invalid ⇒ withdrawal).
    pub fn from_route(from: NodeId, dest: NodeId, route: &BgpRoute) -> Self {
        let route = match route {
            BgpRoute::Invalid => None,
            BgpRoute::Valid {
                level,
                communities,
                path,
            } => Some(AnnouncedRoute {
                level: *level,
                communities: communities.iter().collect(),
                path: path.nodes().to_vec(),
            }),
        };
        Self { from, dest, route }
    }

    /// Convert back into an algebra route.
    ///
    /// Returns an error if the carried path is not simple.
    pub fn to_route(&self) -> Result<BgpRoute, WireError> {
        match &self.route {
            None => Ok(BgpRoute::Invalid),
            Some(r) => {
                let path = SimplePath::from_nodes(r.path.clone())
                    .map_err(|_| WireError::Malformed("AS path is not a simple path"))?;
                Ok(BgpRoute::valid(
                    r.level,
                    CommunitySet::from_iter(r.communities.iter().copied()),
                    path,
                ))
            }
        }
    }

    /// Encode to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16);
        put_u16(&mut buf, self.from);
        put_u16(&mut buf, self.dest);
        match &self.route {
            None => buf.push(0),
            Some(r) => {
                buf.push(1);
                put_u32(&mut buf, r.level);
                put_u16(&mut buf, r.communities.len());
                for c in &r.communities {
                    put_u32(&mut buf, *c);
                }
                put_u16(&mut buf, r.path.len());
                for n in &r.path {
                    put_u16(&mut buf, *n);
                }
            }
        }
        buf
    }

    /// Decode from bytes.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader(buf);
        let from = r.u16()? as NodeId;
        let dest = r.u16()? as NodeId;
        let route = match r.u8()? {
            0 => None,
            1 => {
                let level = r.u32()?;
                let comm_count = r.u16()? as usize;
                let communities = r
                    .bytes(comm_count * 4)?
                    .chunks_exact(4)
                    .map(be_u32)
                    .collect();
                let path_len = r.u16()? as usize;
                let path = r
                    .bytes(path_len * 2)?
                    .chunks_exact(2)
                    .map(|n| be_u16(n) as NodeId)
                    .collect();
                Some(AnnouncedRoute {
                    level,
                    communities,
                    path,
                })
            }
            _ => return Err(WireError::Malformed("unknown announcement tag")),
        };
        r.finish()?;
        Ok(Self { from, dest, route })
    }

    /// The encoded size in bytes.
    pub fn wire_size(&self) -> usize {
        self.encode().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rip_update_round_trips() {
        let upd = RipUpdate {
            from: 3,
            entries: vec![(0, 1), (1, 7), (5, WIRE_INFINITY)],
        };
        let bytes = upd.encode();
        assert_eq!(bytes.len(), upd.wire_size());
        let decoded = RipUpdate::decode(&bytes).unwrap();
        assert_eq!(decoded, upd);
    }

    #[test]
    fn rip_decode_rejects_bad_input() {
        let upd = RipUpdate {
            from: 1,
            entries: vec![(2, 3)],
        };
        let bytes = upd.encode();
        // truncated
        let short = &bytes[..bytes.len() - 1];
        assert_eq!(RipUpdate::decode(short), Err(WireError::Truncated));
        // trailing bytes
        let mut extended = bytes.clone();
        extended.push(0xFF);
        assert_eq!(
            RipUpdate::decode(&extended),
            Err(WireError::TrailingBytes(1))
        );
        // empty
        assert_eq!(RipUpdate::decode(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn bgp_update_round_trips_announcements_and_withdrawals() {
        use dbf_bgp::route::CommunitySet;
        let announce = BgpUpdate::from_route(
            2,
            5,
            &BgpRoute::valid(
                30,
                CommunitySet::from_iter([1, 99]),
                SimplePath::from_nodes(vec![2, 4, 5]).unwrap(),
            ),
        );
        let bytes = announce.encode();
        assert_eq!(bytes.len(), announce.wire_size());
        let decoded = BgpUpdate::decode(&bytes).unwrap();
        assert_eq!(decoded, announce);
        let route = decoded.to_route().unwrap();
        assert_eq!(route.level(), Some(30));
        assert!(route.communities().unwrap().contains(99));
        assert_eq!(route.simple_path().unwrap().nodes(), &[2, 4, 5]);

        let withdraw = BgpUpdate::from_route(2, 5, &BgpRoute::Invalid);
        let decoded = BgpUpdate::decode(&withdraw.encode()).unwrap();
        assert_eq!(decoded.route, None);
        assert_eq!(decoded.to_route().unwrap(), BgpRoute::Invalid);
    }

    #[test]
    fn bgp_decode_rejects_bad_input() {
        let announce = BgpUpdate {
            from: 0,
            dest: 1,
            route: Some(AnnouncedRoute {
                level: 5,
                communities: vec![8],
                path: vec![0, 1],
            }),
        };
        let bytes = announce.encode();
        for cut in 1..bytes.len() {
            let short = &bytes[..bytes.len() - cut];
            assert_eq!(
                BgpUpdate::decode(short),
                Err(WireError::Truncated),
                "cut {cut}"
            );
        }
        let mut bad_tag = bytes.clone();
        bad_tag[4] = 7;
        assert!(matches!(
            BgpUpdate::decode(&bad_tag),
            Err(WireError::Malformed(_))
        ));
        // a looping AS path is rejected when converting to a route
        let looping = BgpUpdate {
            from: 0,
            dest: 1,
            route: Some(AnnouncedRoute {
                level: 0,
                communities: vec![],
                path: vec![0, 1, 0],
            }),
        };
        let decoded = BgpUpdate::decode(&looping.encode()).unwrap();
        assert!(matches!(decoded.to_route(), Err(WireError::Malformed(_))));
    }

    // The three vectors below were recorded from the `bytes`-backed encoder
    // at the commit before the codec moved to `std`.  Together with the
    // per-phase `bytes` counters in dbf-scenario's `pinned_counters.txt`
    // they pin the format: fix the encoder, never these arrays.
    const GOLDEN_RIP: [u8; 22] = [
        1, 2, 0, 3, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 0, 5, 255, 255, 255, 255,
    ];
    const GOLDEN_ANNOUNCE: [u8; 27] = [
        0, 2, 3, 5, 1, 0, 0, 0, 30, 0, 2, 0, 0, 0, 1, 10, 11, 12, 13, 0, 3, 0, 2, 1, 4, 3, 5,
    ];
    const GOLDEN_WITHDRAW: [u8; 5] = [0, 2, 3, 5, 0];

    fn golden_rip() -> RipUpdate {
        RipUpdate {
            from: 0x0102,
            entries: vec![(0, 1), (0x0203, 0x0405_0607), (5, WIRE_INFINITY)],
        }
    }

    fn golden_bgp(route: Option<AnnouncedRoute>) -> BgpUpdate {
        BgpUpdate {
            from: 2,
            dest: 0x0305,
            route,
        }
    }

    fn golden_announce() -> BgpUpdate {
        golden_bgp(Some(AnnouncedRoute {
            level: 30,
            communities: vec![1, 0x0A0B_0C0D],
            path: vec![2, 0x0104, 0x0305],
        }))
    }

    #[test]
    fn golden_vectors_pin_every_emitted_byte() {
        assert_eq!(golden_rip().encode(), GOLDEN_RIP);
        assert_eq!(RipUpdate::decode(&GOLDEN_RIP), Ok(golden_rip()));
        assert_eq!(golden_announce().encode(), GOLDEN_ANNOUNCE);
        assert_eq!(BgpUpdate::decode(&GOLDEN_ANNOUNCE), Ok(golden_announce()));
        assert_eq!(golden_bgp(None).encode(), GOLDEN_WITHDRAW);
        assert_eq!(BgpUpdate::decode(&GOLDEN_WITHDRAW), Ok(golden_bgp(None)));
    }

    #[test]
    fn every_strict_prefix_is_truncated_and_one_extra_byte_is_trailing() {
        fn check<T: std::fmt::Debug + PartialEq>(
            name: &str,
            golden: &[u8],
            decode: fn(&[u8]) -> Result<T, WireError>,
        ) {
            for cut in 0..golden.len() {
                assert_eq!(
                    decode(&golden[..cut]).unwrap_err(),
                    WireError::Truncated,
                    "{name} prefix of {cut} bytes"
                );
            }
            let mut extended = golden.to_vec();
            extended.push(0xEE);
            assert_eq!(
                decode(&extended).unwrap_err(),
                WireError::TrailingBytes(1),
                "{name} plus one byte"
            );
        }
        check("rip", &GOLDEN_RIP, RipUpdate::decode);
        check("announce", &GOLDEN_ANNOUNCE, BgpUpdate::decode);
        check("withdraw", &GOLDEN_WITHDRAW, BgpUpdate::decode);
    }

    #[test]
    #[should_panic(expected = "u16 wire fields")]
    fn a_node_id_wider_than_its_wire_field_panics_instead_of_truncating() {
        BgpUpdate {
            from: MAX_NODES + 1,
            dest: 0,
            route: None,
        }
        .encode();
    }

    #[test]
    fn wire_error_display() {
        assert!(WireError::Truncated.to_string().contains("truncated"));
        assert!(WireError::TrailingBytes(3).to_string().contains('3'));
        assert!(WireError::Malformed("x").to_string().contains('x'));
    }
}
