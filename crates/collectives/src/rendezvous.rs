//! The rendezvous table: the transport under every collective.
//!
//! A collective over group `G` with sequence number `s` is a *slot* keyed by
//! `(group key, s)`. Every participant deposits its input; the last arrival
//! runs a pure combine function that maps `rank → input` to `rank → output`;
//! everyone picks up its own output. The slot is freed when the last output
//! is taken. Timeouts make peer death observable instead of deadlocking —
//! the property the paper's integrity barrier relies on.

use crate::{CollectiveError, Result};
use bcp_monitor::sync::{lock, wait_timeout};
use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

type AnyBox = Box<dyn Any + Send>;

/// Key identifying one collective operation instance.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SlotKey {
    /// Stable hash of the sorted member ranks of the group.
    pub group: u64,
    /// Per-(group, rank) monotonically increasing op sequence number.
    pub seq: u64,
}

#[derive(Default)]
struct Slot {
    deposits: BTreeMap<usize, AnyBox>,
    outputs: Option<BTreeMap<usize, AnyBox>>,
    taken: usize,
}

/// Shared rendezvous table for one [`crate::CommWorld`].
pub struct Rendezvous {
    slots: Mutex<HashMap<SlotKey, Slot>>,
    /// Per-(group, rank) next sequence number.
    seqs: Mutex<HashMap<(u64, usize), u64>>,
    /// Ranks marked failed by failure injection.
    failed: Mutex<Vec<usize>>,
    cond: Condvar,
    /// Point-to-point mailbox: non-blocking sends deposit here; receivers
    /// block on [`Rendezvous::take`]. Keyed like collectives, but over a
    /// *directional channel* key so A→B and B→A streams stay independent.
    mailbox: Mutex<HashMap<SlotKey, AnyBox>>,
    mail_cond: Condvar,
}

impl Rendezvous {
    /// Create an empty table.
    pub fn new() -> Arc<Rendezvous> {
        Arc::new(Rendezvous {
            slots: Mutex::new(HashMap::new()),
            seqs: Mutex::new(HashMap::new()),
            failed: Mutex::new(Vec::new()),
            cond: Condvar::new(),
            mailbox: Mutex::new(HashMap::new()),
            mail_cond: Condvar::new(),
        })
    }

    /// Allocate the next sequence number for `rank` on `group`.
    ///
    /// Collectives are matched positionally (standard SPMD contract): the
    /// k-th collective a rank issues on a group pairs with every other
    /// member's k-th collective on that group.
    pub fn next_seq(&self, group: u64, rank: usize) -> u64 {
        let mut seqs = lock(&self.seqs);
        let e = seqs.entry((group, rank)).or_insert(0);
        let s = *e;
        *e += 1;
        s
    }

    /// Mark a rank as failed: every in-flight and future rendezvous that
    /// expects it errors out promptly instead of timing out.
    ///
    /// The notifications are issued while holding each waiter's mutex:
    /// without that, a waiter that has just checked the failed set and is
    /// about to call `wait_timeout` misses the wakeup entirely and sleeps out
    /// its full timeout — the overlapped-load hang window. Taking the lock
    /// serializes this notify against every check-then-wait sequence.
    pub fn mark_failed(&self, rank: usize) {
        lock(&self.failed).push(rank);
        {
            let _slots = lock(&self.slots);
            self.cond.notify_all();
        }
        {
            let _mailbox = lock(&self.mailbox);
            self.mail_cond.notify_all();
        }
    }

    /// Deposit a point-to-point message under `key` without blocking. The
    /// non-blocking contract is what lets a set of ranks all send before any
    /// receives — eager forwarding cannot deadlock.
    pub fn post<T: Send + 'static>(&self, key: SlotKey, value: T) {
        lock(&self.mailbox).insert(key, Box::new(value));
        self.mail_cond.notify_all();
    }

    /// Take the message deposited under `key`, blocking up to `timeout`.
    /// `from` is the expected sender: if it is marked failed before its
    /// message arrives, this errors promptly with `PeerFailed`.
    pub fn take<T: Send + 'static>(
        &self,
        op_name: &'static str,
        key: SlotKey,
        from: usize,
        timeout: Duration,
    ) -> Result<T> {
        let deadline = std::time::Instant::now() + timeout;
        let mut mailbox = lock(&self.mailbox);
        loop {
            if let Some(boxed) = mailbox.remove(&key) {
                return Ok(*boxed.downcast::<T>().expect("uniform p2p message type per channel"));
            }
            if lock(&self.failed).contains(&from) {
                return Err(CollectiveError::PeerFailed { rank: from });
            }
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Err(CollectiveError::Timeout { op: op_name, arrived: 0, expected: 1 });
            }
            mailbox = wait_timeout(&self.mail_cond, mailbox, remaining);
        }
    }

    /// Execute one collective: deposit `input` for `rank`, wait for all
    /// `members`, combine with `f` (run exactly once, by the last arrival),
    /// and return this rank's output.
    #[allow(clippy::too_many_arguments)] // a collective op's full identity
    pub fn exchange<I, O, F>(
        &self,
        op_name: &'static str,
        key: SlotKey,
        members: &[usize],
        rank: usize,
        input: I,
        timeout: Duration,
        f: F,
    ) -> Result<O>
    where
        I: Send + 'static,
        O: Send + 'static,
        F: FnOnce(BTreeMap<usize, I>) -> BTreeMap<usize, O>,
    {
        if !members.contains(&rank) {
            return Err(CollectiveError::NotAMember { rank });
        }
        let expected = members.len();
        let mut slots = lock(&self.slots);
        {
            let slot = slots.entry(key.clone()).or_default();
            slot.deposits.insert(rank, Box::new(input));
            if slot.deposits.len() == expected {
                // Last arrival: run the combine function.
                let deposits = std::mem::take(&mut slot.deposits);
                let typed: BTreeMap<usize, I> = deposits
                    .into_iter()
                    .map(|(r, b)| (r, *b.downcast::<I>().expect("uniform collective input type")))
                    .collect();
                let outputs = f(typed);
                slot.outputs =
                    Some(outputs.into_iter().map(|(r, o)| (r, Box::new(o) as AnyBox)).collect());
                self.cond.notify_all();
            }
        }
        // Wait for outputs to materialize.
        let deadline = std::time::Instant::now() + timeout;
        loop {
            {
                let slot = slots.get_mut(&key).expect("slot present until all outputs taken");
                if let Some(outputs) = slot.outputs.as_mut() {
                    let out = outputs
                        .remove(&rank)
                        .expect("combine produced an output for every member")
                        .downcast::<O>()
                        .expect("uniform collective output type");
                    slot.taken += 1;
                    if slot.taken == expected {
                        slots.remove(&key);
                    }
                    return Ok(*out);
                }
                // Check failure injection: if any expected member is failed
                // and has not deposited, abort.
                let failed = lock(&self.failed);
                if let Some(&dead) =
                    failed.iter().find(|r| members.contains(r) && !slot.deposits.contains_key(r))
                {
                    // Remove our deposit so a retry does not double-count.
                    slot.deposits.remove(&rank);
                    if slot.deposits.is_empty() {
                        slots.remove(&key);
                    }
                    return Err(CollectiveError::PeerFailed { rank: dead });
                }
            }
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                let arrived = slots.get(&key).map_or(0, |s| s.deposits.len());
                return Err(CollectiveError::Timeout { op: op_name, arrived, expected });
            }
            slots = wait_timeout(&self.cond, slots, remaining);
        }
    }
}

/// Stable group key from member ranks (order-independent).
pub fn group_key(members: &[usize]) -> u64 {
    let mut sorted: Vec<usize> = members.to_vec();
    sorted.sort_unstable();
    // FNV-1a over the rank list.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in sorted {
        for b in (r as u64).to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn exchange_runs_combine_once_and_routes_outputs() {
        let rdv = Rendezvous::new();
        let members = vec![0usize, 1, 2];
        let gk = group_key(&members);
        let mut handles = Vec::new();
        for rank in 0..3usize {
            let rdv = rdv.clone();
            let members = members.clone();
            handles.push(thread::spawn(move || {
                let seq = rdv.next_seq(gk, rank);
                rdv.exchange(
                    "test",
                    SlotKey { group: gk, seq },
                    &members,
                    rank,
                    rank * 10,
                    Duration::from_secs(5),
                    |inputs| {
                        let sum: usize = inputs.values().sum();
                        inputs.keys().map(|&r| (r, sum + r)).collect()
                    },
                )
                .unwrap()
            }));
        }
        let results: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(results, vec![30, 31, 32]);
    }

    #[test]
    fn timeout_when_member_missing() {
        let rdv = Rendezvous::new();
        let members = vec![0usize, 1];
        let gk = group_key(&members);
        let seq = rdv.next_seq(gk, 0);
        let err = rdv
            .exchange::<(), (), _>(
                "lonely",
                SlotKey { group: gk, seq },
                &members,
                0,
                (),
                Duration::from_millis(50),
                |i| i.keys().map(|&r| (r, ())).collect(),
            )
            .unwrap_err();
        assert_eq!(err, CollectiveError::Timeout { op: "lonely", arrived: 1, expected: 2 });
    }

    #[test]
    fn failure_injection_aborts_promptly() {
        let rdv = Rendezvous::new();
        let members = vec![0usize, 1];
        let gk = group_key(&members);
        rdv.mark_failed(1);
        let seq = rdv.next_seq(gk, 0);
        let start = std::time::Instant::now();
        let err = rdv
            .exchange::<(), (), _>(
                "dead-peer",
                SlotKey { group: gk, seq },
                &members,
                0,
                (),
                Duration::from_secs(10),
                |i| i.keys().map(|&r| (r, ())).collect(),
            )
            .unwrap_err();
        assert_eq!(err, CollectiveError::PeerFailed { rank: 1 });
        assert!(start.elapsed() < Duration::from_secs(1), "should abort fast, not wait timeout");
    }

    #[test]
    fn exchange_aborts_promptly_when_peer_fails_mid_wait() {
        // The failure lands while rank 0 is already blocked inside the
        // slot condvar — the notify must not be lost to the check-then-wait
        // window, or the exchange sleeps out the full 10s timeout.
        let rdv = Rendezvous::new();
        let members = vec![0usize, 1];
        let gk = group_key(&members);
        let seq = rdv.next_seq(gk, 0);
        let killer = {
            let rdv = rdv.clone();
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(50));
                rdv.mark_failed(1);
            })
        };
        let start = std::time::Instant::now();
        let err = rdv
            .exchange::<(), (), _>(
                "dies-mid-wait",
                SlotKey { group: gk, seq },
                &members,
                0,
                (),
                Duration::from_secs(10),
                |i| i.keys().map(|&r| (r, ())).collect(),
            )
            .unwrap_err();
        killer.join().unwrap();
        assert_eq!(err, CollectiveError::PeerFailed { rank: 1 });
        assert!(start.elapsed() < Duration::from_secs(2), "mid-wait failure must abort promptly");
    }

    #[test]
    fn take_aborts_promptly_when_peer_fails_mid_wait() {
        let rdv = Rendezvous::new();
        let key = SlotKey { group: group_key(&[0, 1]), seq: 0 };
        let killer = {
            let rdv = rdv.clone();
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(50));
                rdv.mark_failed(1);
            })
        };
        let start = std::time::Instant::now();
        let err = rdv.take::<u32>("recv-dead-peer", key, 1, Duration::from_secs(10)).unwrap_err();
        killer.join().unwrap();
        assert_eq!(err, CollectiveError::PeerFailed { rank: 1 });
        assert!(start.elapsed() < Duration::from_secs(2), "mailbox wait must abort promptly");
    }

    #[test]
    fn non_member_rejected() {
        let rdv = Rendezvous::new();
        let members = vec![0usize, 1];
        let gk = group_key(&members);
        let err = rdv
            .exchange::<(), (), _>(
                "outsider",
                SlotKey { group: gk, seq: 0 },
                &members,
                7,
                (),
                Duration::from_millis(10),
                |i| i.keys().map(|&r| (r, ())).collect(),
            )
            .unwrap_err();
        assert_eq!(err, CollectiveError::NotAMember { rank: 7 });
    }

    #[test]
    fn group_key_is_order_independent_and_distinguishing() {
        assert_eq!(group_key(&[0, 1, 2]), group_key(&[2, 1, 0]));
        assert_ne!(group_key(&[0, 1, 2]), group_key(&[0, 1, 3]));
        assert_ne!(group_key(&[0, 1]), group_key(&[0, 1, 2]));
    }

    #[test]
    fn sequences_are_per_group_and_per_rank() {
        let rdv = Rendezvous::new();
        assert_eq!(rdv.next_seq(1, 0), 0);
        assert_eq!(rdv.next_seq(1, 0), 1);
        assert_eq!(rdv.next_seq(1, 1), 0);
        assert_eq!(rdv.next_seq(2, 0), 0);
    }
}
