//! Border pack/unpack with message aggregation, and the two-neighbour
//! exchange every rank schedule runs.
//!
//! The paper stores each velocity's distribution contiguously precisely so
//! that border exchange can aggregate *all* velocities into one message per
//! neighbour (§IV: "to maximize messaging performance"). A packed border of
//! width `h` planes is laid out `[velocity][plane][y][z]`, and since planes
//! are contiguous `ny·nz` runs, packing is `Q·h` slice copies.
//!
//! `Exchange` is the one place messages are sent: `Exchange::post`
//! packs and sends both borders and posts both receives,
//! `Exchange::complete` waits and unpacks. Received payloads become the
//! next send buffers, so a steady exchange allocates no payload and copies
//! nothing beyond the pack and unpack.

use lbm_comm::{Comm, CommResult, RecvRequest};
use lbm_core::field::DistField;

/// Which side of the subdomain a border/halo is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Low-x side.
    Left,
    /// High-x side.
    Right,
}

impl Side {
    /// The opposite side.
    pub fn opposite(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

/// Number of doubles in a packed border of width `h` for field `f`.
pub fn packed_len(f: &DistField, h: usize) -> usize {
    f.q() * h * f.alloc_dims().plane()
}

/// Pack the outermost `h` **owned** planes on `side` into one aggregated
/// message buffer (reusing `buf`).
pub fn pack_border(f: &DistField, side: Side, h: usize, buf: &mut Vec<f64>) {
    let d = f.alloc_dims();
    let plane = d.plane();
    let owned = f.owned_x();
    assert!(h <= owned.len(), "border width exceeds owned planes");
    let x0 = match side {
        Side::Left => owned.start,
        Side::Right => owned.end - h,
    };
    buf.clear();
    buf.reserve(packed_len(f, h));
    for i in 0..f.q() {
        let slab = f.slab(i);
        for p in 0..h {
            let base = d.idx(x0 + p, 0, 0);
            buf.extend_from_slice(&slab[base..base + plane]);
        }
    }
}

/// Unpack a received border into the `h` halo planes on `side`.
///
/// The neighbour packed its planes in ascending global x, so they land in
/// our halo in the same ascending order.
pub fn unpack_halo(f: &mut DistField, side: Side, h: usize, data: &[f64]) {
    let d = f.alloc_dims();
    let plane = d.plane();
    assert_eq!(data.len(), packed_len(f, h), "bad packed border length");
    assert!(h <= f.halo(), "halo narrower than received border");
    let x0 = match side {
        Side::Left => f.halo() - h,
        Side::Right => f.owned_x().end,
    };
    let mut off = 0;
    for i in 0..f.q() {
        let slab = f.slab_mut(i);
        for p in 0..h {
            let base = d.idx(x0 + p, 0, 0);
            slab[base..base + plane].copy_from_slice(&data[off..off + plane]);
            off += plane;
        }
    }
}

/// Fill both halos of a *single-rank* periodic field from its own borders
/// (left halo ← right border, right halo ← left border).
pub fn fill_periodic_self(f: &mut DistField, h: usize) {
    let mut buf = Vec::new();
    pack_border(f, Side::Right, h, &mut buf);
    unpack_halo(f, Side::Left, h, &buf);
    pack_border(f, Side::Left, h, &mut buf);
    unpack_halo(f, Side::Right, h, &buf);
}

/// One rank's exchange with its left and right neighbours.
///
/// A message to the left travels under the `to_left` tag and one to the
/// right under `to_right`, so the two payloads of a 2-rank ring (where
/// left and right are the same rank) cannot cross.
pub(crate) struct Exchange {
    left: usize,
    right: usize,
    /// Complete the receives one at a time (the blocking schedule's sum of
    /// delays) instead of with one waitall.
    one_at_a_time: bool,
    /// Send buffers (left, right), refilled from the last payloads
    /// received.
    bufs: [Vec<f64>; 2],
    /// Receives posted and not yet completed: (from left, from right).
    pending: Option<[RecvRequest; 2]>,
}

impl Exchange {
    pub(crate) fn new(left: usize, right: usize, one_at_a_time: bool) -> Self {
        Self {
            left,
            right,
            one_at_a_time,
            bufs: [Vec::new(), Vec::new()],
            pending: None,
        }
    }

    /// Whether an exchange is posted and not yet completed.
    pub(crate) fn is_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Drop the posted receives (a restore starts with nothing in flight).
    pub(crate) fn clear(&mut self) {
        self.pending = None;
    }

    /// Pack both borders with `pack(side, buf)`, send them, and post both
    /// receives.
    pub(crate) fn post(
        &mut self,
        comm: &mut Comm,
        (to_left, to_right): (u64, u64),
        mut pack: impl FnMut(Side, &mut Vec<f64>),
    ) -> CommResult<()> {
        debug_assert!(self.pending.is_none(), "an exchange is already in flight");
        for (side, dst, tag) in [
            (Side::Left, self.left, to_left),
            (Side::Right, self.right, to_right),
        ] {
            let buf = &mut self.bufs[side as usize];
            pack(side, buf);
            let _ = comm.isend(dst, tag, std::mem::take(buf))?;
        }
        self.pending = Some([
            comm.irecv(self.left, to_right)?,
            comm.irecv(self.right, to_left)?,
        ]);
        Ok(())
    }

    /// Wait for the posted receives and hand each payload to
    /// `unpack(side, data)`; the payloads are kept as the next send
    /// buffers.
    pub(crate) fn complete(
        &mut self,
        comm: &mut Comm,
        mut unpack: impl FnMut(Side, &[f64]),
    ) -> CommResult<()> {
        let reqs = self.pending.take().expect("complete follows a post");
        let payloads = if self.one_at_a_time {
            reqs.into_iter()
                .map(|r| comm.wait(r))
                .collect::<CommResult<Vec<_>>>()?
        } else {
            comm.waitall(reqs.into())?
        };
        for (side, data) in [Side::Left, Side::Right].into_iter().zip(payloads) {
            unpack(side, &data);
            self.bufs[side as usize] = data;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm_core::index::Dim3;

    fn field_with_x_tags(q: usize, nx: usize, halo: usize) -> DistField {
        // Encode (slab, global x) in every cell so copies are traceable.
        let mut f = DistField::new(q, Dim3::new(nx, 2, 3), halo).unwrap();
        let d = f.alloc_dims();
        for i in 0..q {
            for x in 0..d.nx {
                let base = d.idx(x, 0, 0);
                let v = (i * 1000 + x) as f64;
                f.slab_mut(i)[base..base + d.plane()].fill(v);
            }
        }
        f
    }

    #[test]
    fn pack_reads_owned_planes_only() {
        let f = field_with_x_tags(2, 4, 2); // owned x: 2..6
        let mut buf = Vec::new();
        pack_border(&f, Side::Left, 2, &mut buf);
        assert_eq!(buf.len(), packed_len(&f, 2));
        // First plane of slab 0 must be owned x=2 (tag 2).
        assert!(buf[..6].iter().all(|&v| v == 2.0));
        // Second plane is x=3.
        assert!(buf[6..12].iter().all(|&v| v == 3.0));
        pack_border(&f, Side::Right, 2, &mut buf);
        assert!(buf[..6].iter().all(|&v| v == 4.0));
        assert!(buf[6..12].iter().all(|&v| v == 5.0));
    }

    #[test]
    fn unpack_writes_halo_planes_only() {
        let mut f = field_with_x_tags(2, 4, 2);
        let payload = vec![7.5; packed_len(&f, 2)];
        unpack_halo(&mut f, Side::Left, 2, &payload);
        let d = f.alloc_dims();
        for i in 0..2 {
            for x in 0..2 {
                let base = d.idx(x, 0, 0);
                assert!(f.slab(i)[base..base + d.plane()].iter().all(|&v| v == 7.5));
            }
            // Owned untouched.
            let base = d.idx(2, 0, 0);
            assert!(f.slab(i)[base..base + d.plane()]
                .iter()
                .all(|&v| v == (i * 1000 + 2) as f64));
        }
    }

    #[test]
    fn pack_unpack_round_trip_between_neighbours() {
        // Rank A's right border must land in rank B's left halo such that
        // B's halo plane g corresponds to A's owned plane (end-h+g).
        let a = field_with_x_tags(3, 5, 2); // owned x 2..7 (tags 2..=6)
        let mut b = field_with_x_tags(3, 5, 2);
        let mut buf = Vec::new();
        pack_border(&a, Side::Right, 2, &mut buf);
        unpack_halo(&mut b, Side::Left, 2, &buf);
        let d = b.alloc_dims();
        // B's left halo planes (x=0,1) should now carry A's tags 5, 6.
        for i in 0..3 {
            let p0 = d.idx(0, 0, 0);
            let p1 = d.idx(1, 0, 0);
            assert!(b.slab(i)[p0..p0 + d.plane()]
                .iter()
                .all(|&v| v == (i * 1000 + 5) as f64));
            assert!(b.slab(i)[p1..p1 + d.plane()]
                .iter()
                .all(|&v| v == (i * 1000 + 6) as f64));
        }
    }

    #[test]
    fn self_periodic_fill_wraps() {
        let mut f = field_with_x_tags(1, 4, 2); // owned tags 2..=5
        fill_periodic_self(&mut f, 2);
        let d = f.alloc_dims();
        // Left halo (x=0,1) ← right border (tags 4,5).
        assert!(f.slab(0)[d.idx(0, 0, 0)..d.idx(0, 0, 0) + d.plane()]
            .iter()
            .all(|&v| v == 4.0));
        assert!(f.slab(0)[d.idx(1, 0, 0)..d.idx(1, 0, 0) + d.plane()]
            .iter()
            .all(|&v| v == 5.0));
        // Right halo (x=6,7) ← left border (tags 2,3).
        assert!(f.slab(0)[d.idx(6, 0, 0)..d.idx(6, 0, 0) + d.plane()]
            .iter()
            .all(|&v| v == 2.0));
        assert!(f.slab(0)[d.idx(7, 0, 0)..d.idx(7, 0, 0) + d.plane()]
            .iter()
            .all(|&v| v == 3.0));
    }

    #[test]
    fn partial_width_unpack_fills_innermost_halo_planes() {
        // h smaller than the allocated halo must fill the planes adjacent
        // to the owned region (left halo: highest-x halo planes).
        let mut f = field_with_x_tags(1, 4, 3);
        let payload = vec![9.0; packed_len(&f, 1)];
        unpack_halo(&mut f, Side::Left, 1, &payload);
        let d = f.alloc_dims();
        let adj = d.idx(2, 0, 0); // halo=3, so plane x=2 is adjacent to owned x=3
        assert!(f.slab(0)[adj..adj + d.plane()].iter().all(|&v| v == 9.0));
    }

    #[test]
    fn exchange_recycles_received_payloads_as_send_buffers() {
        use lbm_comm::{CostModel, Universe};
        use std::collections::BTreeSet;
        for one_at_a_time in [false, true] {
            // Per rank, per round: the addresses of both send buffers
            // after the exchange completed.
            let per_rank = Universe::run(2, CostModel::free(), |comm| {
                let peer = 1 - comm.rank();
                let mut f = field_with_x_tags(2, 4, 2);
                let mut ex = Exchange::new(peer, peer, one_at_a_time);
                (0..4u64)
                    .map(|round| {
                        ex.post(comm, (2 * round, 2 * round + 1), |side, buf| {
                            pack_border(&f, side, 2, buf)
                        })
                        .unwrap();
                        ex.complete(comm, |side, data| unpack_halo(&mut f, side, 2, data))
                            .unwrap();
                        ex.bufs.iter().map(|b| b.as_ptr() as usize).collect()
                    })
                    .collect::<Vec<Vec<usize>>>()
            });
            let round = |r: usize| -> BTreeSet<usize> {
                per_rank
                    .iter()
                    .flat_map(|rounds| rounds[r].clone())
                    .collect()
            };
            // The ring's four payloads are allocated once and then only
            // circulate: every later round holds the same four buffers.
            assert_eq!(round(0).len(), 4, "one_at_a_time={one_at_a_time}");
            for r in 1..4 {
                assert_eq!(
                    round(r),
                    round(0),
                    "one_at_a_time={one_at_a_time} round {r}"
                );
            }
        }
    }
}
