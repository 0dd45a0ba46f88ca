//! Crash-fault tolerance for the mutating M-Proxy paths: a simulated
//! write-ahead journal, checkpoints, and idempotency keys.
//!
//! Every layer so far assumes the middleware process never dies: proxy
//! state, cache stamps and circuit breakers all live in memory, so a
//! crash silently loses accepted mutations and re-delivery duplicates
//! them. This module makes process death an ordinary fault class, the
//! same way the resilience layer absorbed transport faults and the
//! overload layer absorbed traffic storms:
//!
//! * a **[`Journal`]** — an append-only write-ahead log with length +
//!   FNV-1a checksum record framing, a volatile buffer drained to the
//!   durable image by an explicit [`Journal::fsync`] barrier, segment
//!   rotation at record boundaries, and torn-tail detection: recovery
//!   scans the durable image, truncates the first incomplete or
//!   checksum-corrupt frame, and replays only fully committed records;
//! * a **[`CheckpointCell`]** — a typed snapshot of arbitrary state
//!   plus the journal high-water mark it covers, so recovery is
//!   replay-from-checkpoint, never replay-from-genesis;
//! * **[`IdempotencyKey`]s** — deterministic per `(seed, device,
//!   round, op)` and carried down the call path through an ambient
//!   per-thread scope ([`with_idempotency_key`]), exactly like the
//!   overload layer's deadlines. A mutation whose key is already
//!   journaled as committed is answered from the journal — the typed
//!   [`ProxyErrorKind::AlreadyApplied`] fast path, counted and
//!   converted back into the memoized success, never surfaced as a
//!   failure;
//! * the stack's **`Journaled` stage** for the mutating proxy surfaces
//!   (SMS send, HTTP submit, `setProperty`), which appends an intent
//!   record and crosses the fsync barrier *before* the side effect
//!   runs. The stage sits between the overload and resilience stages
//!   (`… → Overload → Journaled → Resilient → …`), so shed calls burn
//!   no intent and resilience retries of one logical call never
//!   re-append.
//!
//! The fsync barrier charges a deterministic latency
//! ([`JournalPolicy::fsync_latency_ms`]) to the device's simulated
//! clock — the same "the caller advances its clock" convention the
//! network uses — so durability costs show up in latency distributions
//! while every run still replays bit-identically.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use mobivine_device::Device;
use mobivine_telemetry::span::{ambient, Plane};

use crate::error::{ProxyError, ProxyErrorKind};

// ---------------------------------------------------------------------
// Checksums and framing
// ---------------------------------------------------------------------

/// FNV-1a over a byte slice — the journal's record checksum. The same
/// fold the fleet report uses, so a corrupt frame and a corrupt
/// checksum disagree with probability 1 − 2⁻⁶⁴ per bit pattern.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for b in bytes {
        hash = (hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Frame header size: `[u32 payload len LE][u64 FNV-1a checksum LE]`.
const FRAME_HEADER: usize = 12;

/// A log sequence number — a global byte offset into the journal's
/// durable image. Monotone, never reused, survives segment rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lsn:{}", self.0)
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

counter_block! {
    /// Shared durability counters, updated by the journal, the stack's
    /// journaled stage and the recovery path, snapshotted by
    /// observability code.
    JournalMetrics => JournalSnapshot, "journal" {
        /// Intent records appended (volatile until the next fsync).
        appends,
        /// fsync barriers crossed (volatile buffer drained durably).
        fsyncs,
        /// Segments sealed and rotated out of the active position.
        rotations,
        /// Torn tail records truncated during recovery (incomplete or
        /// checksum-corrupt frames that never committed).
        torn_truncated,
        /// Committed records replayed by recovery after a crash.
        replayed,
        /// Recovery passes completed (one per crash survived).
        recoveries,
        /// Mutations answered from the journal because their idempotency
        /// key was already committed — the `AlreadyApplied` fast path.
        already_applied,
        /// Checkpoints taken (state snapshot + high-water mark saved).
        checkpoints,
    }
}

impl JournalMetrics {
    /// Counts one `AlreadyApplied` fast-path hit (callers outside this
    /// module — e.g. a server-side durability layer — dedup too).
    pub fn note_already_applied(&self) {
        self.already_applied.inc();
    }

    /// Counts one checkpoint taken.
    pub fn note_checkpoint(&self) {
        self.checkpoints.inc();
    }
}

impl fmt::Display for JournalSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "appends={} fsyncs={} rotations={} torn={} replayed={} \
             recoveries={} already_applied={} checkpoints={}",
            self.appends,
            self.fsyncs,
            self.rotations,
            self.torn_truncated,
            self.replayed,
            self.recoveries,
            self.already_applied,
            self.checkpoints,
        )
    }
}

// ---------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------

/// Tunable knobs for the durability layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalPolicy {
    fsync_latency_ms: u64,
    segment_bytes: usize,
}

impl Default for JournalPolicy {
    /// One simulated millisecond per fsync barrier — cheap flash, not
    /// spinning rust — and 4 KiB segments so rotation actually happens
    /// at simulation scale.
    fn default() -> Self {
        Self {
            fsync_latency_ms: 1,
            segment_bytes: 4096,
        }
    }
}

impl JournalPolicy {
    /// Sets the simulated latency charged per fsync barrier.
    #[must_use]
    pub fn fsync_latency_ms(mut self, ms: u64) -> Self {
        self.fsync_latency_ms = ms;
        self
    }

    /// Sets the segment size; the active segment rotates at the first
    /// record boundary at or past this many bytes.
    #[must_use]
    pub fn segment_bytes(mut self, bytes: usize) -> Self {
        self.segment_bytes = bytes.max(FRAME_HEADER + 1);
        self
    }

    /// The configured fsync latency (virtual ms).
    pub fn fsync_latency(&self) -> u64 {
        self.fsync_latency_ms
    }

    /// The configured segment size (bytes).
    pub fn segment_size(&self) -> usize {
        self.segment_bytes
    }
}

// ---------------------------------------------------------------------
// The journal
// ---------------------------------------------------------------------

/// One sealed-or-active run of durable bytes.
#[derive(Debug, Clone)]
struct Segment {
    start_lsn: u64,
    bytes: Vec<u8>,
}

/// A committed record handed back by [`Journal::recover`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// The record's position (frame start) in the durable image.
    pub lsn: Lsn,
    /// The record payload, checksum-verified.
    pub payload: Vec<u8>,
}

/// The outcome of a recovery scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Committed records at or past the scan origin, in LSN order.
    pub records: Vec<JournalRecord>,
    /// Torn-tail records truncated (0 or 1 per scan — a torn frame is
    /// always the last thing on disk).
    pub torn_records: u64,
    /// Bytes dropped with the torn tail.
    pub torn_bytes: u64,
}

/// A simulated append-only write-ahead log.
///
/// Appends land in a volatile buffer; [`Journal::fsync`] is the
/// durability barrier that moves them into the durable image (a list
/// of [`Segment`]s, rotated at record boundaries). [`Journal::crash`]
/// models process death: the volatile buffer is lost, except an
/// optional torn prefix that had reached the disk queue. Recovery
/// validates frames from a given LSN and truncates the torn tail.
#[derive(Debug)]
pub struct Journal {
    segments: Vec<Segment>,
    volatile: Vec<u8>,
    segment_bytes: usize,
    metrics: Arc<JournalMetrics>,
}

impl Journal {
    /// An empty journal rotating at `policy.segment_bytes`, counting
    /// into `metrics`.
    pub fn new(policy: &JournalPolicy, metrics: Arc<JournalMetrics>) -> Self {
        Self {
            segments: vec![Segment {
                start_lsn: 0,
                bytes: Vec::new(),
            }],
            volatile: Vec::new(),
            segment_bytes: policy.segment_bytes,
            metrics,
        }
    }

    /// Total durable bytes (the LSN the next fsync extends from).
    pub fn durable_end(&self) -> Lsn {
        match self.segments.last() {
            Some(last) => Lsn(last.start_lsn + last.bytes.len() as u64),
            None => Lsn(0),
        }
    }

    /// Bytes appended but not yet fsynced.
    pub fn volatile_len(&self) -> usize {
        self.volatile.len()
    }

    /// Number of durable segments (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Appends one intent record to the volatile buffer and returns
    /// the LSN its frame will occupy once fsynced.
    pub fn append(&mut self, payload: &[u8]) -> Lsn {
        let lsn = Lsn(self.durable_end().0 + self.volatile.len() as u64);
        let len = payload.len() as u32;
        self.volatile.extend_from_slice(&len.to_le_bytes());
        self.volatile
            .extend_from_slice(&fnv1a(payload).to_le_bytes());
        self.volatile.extend_from_slice(payload);
        self.metrics.appends.inc();
        lsn
    }

    /// The durability barrier: drains the volatile buffer into the
    /// durable image and rotates the active segment at the record
    /// boundary if it has grown past the policy size.
    pub fn fsync(&mut self) {
        if !self.volatile.is_empty() {
            let mut pending = std::mem::take(&mut self.volatile);
            self.active_mut().bytes.append(&mut pending);
        }
        self.metrics.fsyncs.inc();
        self.maybe_rotate();
    }

    /// Process death. The volatile buffer is lost — except the first
    /// `torn_keep` bytes, which had already reached the disk queue and
    /// now sit on the durable image as a torn (incomplete or
    /// checksum-corrupt) tail for recovery to truncate.
    pub fn crash(&mut self, torn_keep: Option<usize>) {
        let keep = torn_keep.unwrap_or(0).min(self.volatile.len());
        if keep > 0 {
            let torn: Vec<u8> = self.volatile[..keep].to_vec();
            self.active_mut().bytes.extend_from_slice(&torn);
        }
        self.volatile.clear();
    }

    /// Recovery scan: validates every frame at or past `from`,
    /// truncates the torn tail (an incomplete frame or one whose
    /// checksum disagrees with its payload), and returns the committed
    /// records in LSN order. Unfsynced bytes never survive — the
    /// volatile buffer is dropped.
    ///
    /// `from` must be a record boundary (an LSN previously returned by
    /// [`Journal::append`], or [`Lsn`]`(0)`, or a checkpoint
    /// high-water mark).
    pub fn recover(&mut self, from: Lsn) -> Recovery {
        self.volatile.clear();
        let mut out = Recovery::default();
        let mut torn_at: Option<(usize, usize)> = None; // (segment idx, offset)
        'segments: for (idx, segment) in self.segments.iter().enumerate() {
            let seg_end = segment.start_lsn + segment.bytes.len() as u64;
            if seg_end <= from.0 {
                continue;
            }
            // Frames never span segments (rotation happens at fsync,
            // which only moves whole records), so scanning restarts
            // cleanly at each segment head.
            let mut offset = usize::try_from(from.0.saturating_sub(segment.start_lsn))
                .unwrap_or(segment.bytes.len());
            while offset < segment.bytes.len() {
                let rest = &segment.bytes[offset..];
                let frame_ok = rest.len() >= FRAME_HEADER && {
                    let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
                    rest.len() >= FRAME_HEADER + len && {
                        let want = u64::from_le_bytes([
                            rest[4], rest[5], rest[6], rest[7], rest[8], rest[9], rest[10],
                            rest[11],
                        ]);
                        fnv1a(&rest[FRAME_HEADER..FRAME_HEADER + len]) == want
                    }
                };
                if !frame_ok {
                    torn_at = Some((idx, offset));
                    break 'segments;
                }
                let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
                out.records.push(JournalRecord {
                    lsn: Lsn(segment.start_lsn + offset as u64),
                    payload: rest[FRAME_HEADER..FRAME_HEADER + len].to_vec(),
                });
                offset += FRAME_HEADER + len;
            }
        }
        if let Some((idx, offset)) = torn_at {
            let dropped: u64 = (self.segments[idx].bytes.len() - offset) as u64
                + self.segments[idx + 1..]
                    .iter()
                    .map(|s| s.bytes.len() as u64)
                    .sum::<u64>();
            self.segments[idx].bytes.truncate(offset);
            self.segments.truncate(idx + 1);
            out.torn_records = 1;
            out.torn_bytes = dropped;
            self.metrics.torn_truncated.inc();
        }
        self.metrics.recoveries.inc();
        self.metrics.replayed.add(out.records.len() as u64);
        out
    }

    /// Garbage-collects sealed segments that end at or before `upto`
    /// (typically a checkpoint high-water mark). The active segment is
    /// never dropped.
    pub fn truncate_before(&mut self, upto: Lsn) {
        while self.segments.len() > 1 {
            let first = &self.segments[0];
            if first.start_lsn + first.bytes.len() as u64 <= upto.0 {
                self.segments.remove(0);
            } else {
                break;
            }
        }
    }

    /// Test-only bit rot: flips one byte of the durable image at
    /// global offset `at`, so recovery's checksum validation has a
    /// genuinely corrupt (not merely incomplete) frame to reject.
    #[cfg(test)]
    fn corrupt_durable_byte(&mut self, at: u64) {
        for segment in &mut self.segments {
            let end = segment.start_lsn + segment.bytes.len() as u64;
            if at >= segment.start_lsn && at < end {
                let idx = (at - segment.start_lsn) as usize;
                segment.bytes[idx] ^= 0xFF;
                return;
            }
        }
        panic!("offset {at} is not durable");
    }

    fn active_mut(&mut self) -> &mut Segment {
        if self.segments.is_empty() {
            self.segments.push(Segment {
                start_lsn: 0,
                bytes: Vec::new(),
            });
        }
        let last = self.segments.len() - 1;
        &mut self.segments[last]
    }

    fn maybe_rotate(&mut self) {
        let end = self.durable_end().0;
        let rotate = self
            .segments
            .last()
            .is_some_and(|active| active.bytes.len() >= self.segment_bytes);
        if rotate {
            self.segments.push(Segment {
                start_lsn: end,
                bytes: Vec::new(),
            });
            self.metrics.rotations.inc();
        }
    }
}

// ---------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------

/// A typed checkpoint slot: a snapshot of arbitrary state plus the
/// journal high-water mark it covers. Recovery loads the snapshot and
/// replays only the journal suffix past the mark.
#[derive(Debug, Default)]
pub struct CheckpointCell<T: Clone> {
    slot: Option<(T, Lsn)>,
}

impl<T: Clone> CheckpointCell<T> {
    /// An empty cell (recovery replays from genesis until the first
    /// save).
    pub fn new() -> Self {
        Self { slot: None }
    }

    /// Atomically replaces the checkpoint: `state` covers every journal
    /// record below `high_water`.
    pub fn save(&mut self, state: T, high_water: Lsn) {
        self.slot = Some((state, high_water));
    }

    /// The latest checkpoint, if one was ever saved.
    pub fn load(&self) -> Option<(T, Lsn)> {
        self.slot.clone()
    }

    /// The high-water mark replay should start from (genesis when no
    /// checkpoint exists).
    pub fn high_water(&self) -> Lsn {
        self.slot.as_ref().map(|(_, lsn)| *lsn).unwrap_or_default()
    }
}

// ---------------------------------------------------------------------
// Idempotency keys
// ---------------------------------------------------------------------

/// A deterministic identity for one logical mutation. Two deliveries
/// of the same logical call — a resilience retry, an at-least-once
/// re-send after a crash — carry the same key, so the durability layer
/// can commit the effect exactly once and answer duplicates from the
/// journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IdempotencyKey(pub u64);

impl IdempotencyKey {
    /// Derives the key for `(seed, device, round, op)` — a splitmix64
    /// finalizer over orthogonally-mixed coordinates, so keys collide
    /// only if the coordinates do.
    pub fn derive(seed: u64, device: u64, round: u64, op: u64) -> Self {
        let mut x = seed
            ^ device.wrapping_mul(0xA076_1D64_78BD_642F)
            ^ round.wrapping_mul(0xE703_7ED1_A0B4_28DB)
            ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self(x ^ (x >> 31))
    }

    /// The key as fixed-width lowercase hex — the wire form carried in
    /// the `idem` URL query parameter.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the wire form back. `None` for anything that is not
    /// exactly 16 hex digits.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(Self)
    }
}

impl fmt::Display for IdempotencyKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "idem:{:016x}", self.0)
    }
}

thread_local! {
    /// The ambient idempotency-key stack, mirroring the overload
    /// layer's ambient deadline stack: the innermost
    /// [`with_idempotency_key`] scope is what
    /// [`current_idempotency_key`] sees.
    static IDEM_KEYS: RefCell<Vec<IdempotencyKey>> = const { RefCell::new(Vec::new()) };
}

/// Guard popping the ambient key on drop (panic-safe).
struct KeyScope;

impl Drop for KeyScope {
    fn drop(&mut self) {
        IDEM_KEYS.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// Runs `f` with `key` as the ambient idempotency key for the current
/// thread. Scopes nest; the outer key is restored when the scope ends,
/// even on panic.
pub fn with_idempotency_key<T>(key: IdempotencyKey, f: impl FnOnce() -> T) -> T {
    IDEM_KEYS.with(|stack| stack.borrow_mut().push(key));
    let _scope = KeyScope;
    f()
}

/// The innermost ambient idempotency key on the current thread, if any
/// scope is open.
pub fn current_idempotency_key() -> Option<IdempotencyKey> {
    IDEM_KEYS.with(|stack| stack.borrow().last().copied())
}

// ---------------------------------------------------------------------
// The client-side journal engine
// ---------------------------------------------------------------------

/// The client journal proper: the WAL plus the applied-key table the
/// dedup fast path consults. One per runtime, shared by every stack's
/// journaled stage.
#[derive(Debug)]
struct ClientJournal {
    journal: Journal,
    /// Committed SMS sends by idempotency key → the message id the
    /// binding returned, memoized so a duplicate delivery can answer
    /// with the original id.
    applied: HashMap<IdempotencyKey, u64>,
}

/// Shared state + policy + metrics behind the stack's journaled stage.
pub struct JournalEngine {
    device: Device,
    policy: JournalPolicy,
    metrics: Arc<JournalMetrics>,
    state: Mutex<ClientJournal>,
}

impl JournalEngine {
    /// A fresh engine for `device` under `policy`, counting into
    /// `metrics`.
    pub fn new(device: Device, policy: JournalPolicy, metrics: Arc<JournalMetrics>) -> Self {
        let journal = Journal::new(&policy, Arc::clone(&metrics));
        Self {
            device,
            policy,
            metrics,
            state: Mutex::new(ClientJournal {
                journal,
                applied: HashMap::new(),
            }),
        }
    }

    /// The engine's counter block.
    pub fn metrics(&self) -> &Arc<JournalMetrics> {
        &self.metrics
    }

    /// The policy the engine was wired with.
    pub fn policy(&self) -> &JournalPolicy {
        &self.policy
    }

    /// The typed duplicate check: `Err(AlreadyApplied)` when `key` is
    /// already journaled as committed. The SMS path converts the
    /// error back into the memoized success — callers of the uniform
    /// API never see it — but the seam stays typed so tests (and any
    /// future cross-process re-delivery path) can assert on it.
    pub fn check(&self, key: IdempotencyKey) -> Result<(), ProxyError> {
        if self.state.lock().applied.contains_key(&key) {
            self.metrics.already_applied.inc();
            return Err(ProxyError::new(
                ProxyErrorKind::AlreadyApplied,
                format!("{key} already committed; answered from the journal"),
            ));
        }
        Ok(())
    }

    /// The message id memoized for a committed SMS key, if any.
    pub fn memoized_message(&self, key: IdempotencyKey) -> Option<u64> {
        self.state.lock().applied.get(&key).copied()
    }

    /// Appends one intent record and crosses the fsync barrier,
    /// charging the barrier's simulated latency to the device clock.
    /// This MUST run before the side effect it covers.
    pub fn intent(&self, payload: &[u8]) -> Lsn {
        let lsn = {
            let mut state = self.state.lock();
            let lsn = state.journal.append(payload);
            state.journal.fsync();
            lsn
        };
        if self.policy.fsync_latency_ms > 0 {
            self.device.advance_ms(self.policy.fsync_latency_ms);
        }
        if ambient::is_active() {
            if let Some(mut span) =
                ambient::child("journal:fsync", Plane::Resilience, self.device.now_ms())
            {
                span.attr("lsn", lsn.to_string());
                span.end(self.device.now_ms());
            }
        }
        lsn
    }

    /// Marks an SMS key committed with the message id the binding
    /// returned.
    pub fn mark_applied(&self, key: IdempotencyKey, message_id: u64) {
        self.state.lock().applied.insert(key, message_id);
    }
}

impl fmt::Debug for JournalEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JournalEngine")
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

/// Appends `?idem=<key>` (or `&idem=` when a query already exists) so
/// the server-side durability layer can dedup at-least-once
/// re-deliveries. The uniform [`HttpProxy`] surface carries no
/// headers, so the key travels in the URL like any other query
/// parameter.
pub fn url_with_idempotency_key(url: &str, key: IdempotencyKey) -> String {
    let sep = if url.contains('?') { '&' } else { '?' };
    format!("{url}{sep}idem={}", key.to_hex())
}

// ---------------------------------------------------------------------
// Client journal path
// ---------------------------------------------------------------------

fn intent_payload(op: &str, key: Option<IdempotencyKey>, detail: &str) -> Vec<u8> {
    let key = key
        .map(IdempotencyKey::to_hex)
        .unwrap_or_else(|| "-".into());
    format!("{op}|{key}|{detail}").into_bytes()
}

impl JournalEngine {
    /// The write-ahead path of one mutation `op` (an HTTP submit, a
    /// `setProperty`): journals the intent, stamped with its
    /// idempotency `key` when it has one, across the fsync barrier,
    /// then runs `effect`. HTTP never suppresses a send here: only the
    /// server knows whether a previous delivery committed, so the key
    /// travels on the URL (`?idem=…`) and the server owns exactly-once.
    pub(crate) fn journaled<T>(
        &self,
        op: &str,
        key: Option<IdempotencyKey>,
        detail: &str,
        effect: &dyn Fn() -> Result<T, ProxyError>,
    ) -> Result<T, ProxyError> {
        self.intent(&intent_payload(op, key, detail));
        effect()
    }

    /// The exactly-once SMS path: a send whose ambient idempotency key
    /// is already committed is answered with the memoized message id
    /// (counted, not errored — re-delivery observes the original
    /// outcome); otherwise the intent is journaled before `effect`
    /// sends, and the returned id is memoized under the key.
    pub(crate) fn send_once(
        &self,
        destination: &str,
        effect: &dyn Fn() -> Result<u64, ProxyError>,
    ) -> Result<u64, ProxyError> {
        let key = current_idempotency_key();
        if let Some(key) = key {
            if let Err(duplicate) = self.check(key) {
                debug_assert!(duplicate.kind().is_duplicate());
                if let Some(id) = self.memoized_message(key) {
                    return Ok(id);
                }
            }
        }
        self.intent(&intent_payload("send_sms", key, destination));
        let id = effect()?;
        if let Some(key) = key {
            self.mark_applied(key, id);
        }
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal() -> (Journal, Arc<JournalMetrics>) {
        let metrics = JournalMetrics::shared();
        (
            Journal::new(&JournalPolicy::default(), Arc::clone(&metrics)),
            metrics,
        )
    }

    #[test]
    fn append_is_volatile_until_fsync() {
        let (mut j, _m) = journal();
        j.append(b"one");
        assert_eq!(j.durable_end(), Lsn(0));
        assert_eq!(j.volatile_len(), FRAME_HEADER + 3);
        j.fsync();
        assert_eq!(j.volatile_len(), 0);
        assert_eq!(j.durable_end(), Lsn((FRAME_HEADER + 3) as u64));
    }

    #[test]
    fn recover_replays_committed_records_in_order() {
        let (mut j, m) = journal();
        let a = j.append(b"alpha");
        let b = j.append(b"beta");
        j.fsync();
        let rec = j.recover(Lsn(0));
        assert_eq!(rec.torn_records, 0);
        assert_eq!(
            rec.records,
            vec![
                JournalRecord {
                    lsn: a,
                    payload: b"alpha".to_vec()
                },
                JournalRecord {
                    lsn: b,
                    payload: b"beta".to_vec()
                },
            ]
        );
        assert_eq!(m.snapshot().replayed, 2);
        assert_eq!(m.snapshot().recoveries, 1);
    }

    #[test]
    fn recover_from_a_high_water_mark_skips_the_prefix() {
        let (mut j, _m) = journal();
        j.append(b"old");
        let b = j.append(b"new");
        j.fsync();
        let rec = j.recover(b);
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].payload, b"new");
    }

    #[test]
    fn crash_drops_unfsynced_appends() {
        let (mut j, _m) = journal();
        j.append(b"committed");
        j.fsync();
        j.append(b"lost");
        j.crash(None);
        let rec = j.recover(Lsn(0));
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].payload, b"committed");
        assert_eq!(rec.torn_records, 0);
    }

    #[test]
    fn torn_tail_is_detected_and_truncated() {
        let (mut j, m) = journal();
        j.append(b"committed");
        j.fsync();
        j.append(b"torn-away-record");
        // Keep all but the last byte: length field says more bytes
        // than exist → incomplete frame → truncate.
        let keep = j.volatile_len() - 1;
        j.crash(Some(keep));
        let end_before = j.durable_end();
        let rec = j.recover(Lsn(0));
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.torn_records, 1);
        assert_eq!(rec.torn_bytes, keep as u64);
        assert!(j.durable_end() < end_before);
        assert_eq!(m.snapshot().torn_truncated, 1);
        // The journal is clean again: a fresh append + fsync commits.
        j.append(b"after");
        j.fsync();
        let rec2 = j.recover(Lsn(0));
        assert_eq!(rec2.records.len(), 2);
        assert_eq!(rec2.torn_records, 0);
    }

    #[test]
    fn corrupt_checksum_counts_as_torn() {
        let (mut j, _m) = journal();
        j.append(b"good");
        let evil = j.append(b"evil");
        j.fsync();
        // Flip a payload byte of the last record: the frame is
        // complete but its checksum no longer matches, so recovery
        // must truncate it as a torn tail.
        j.corrupt_durable_byte(evil.0 + FRAME_HEADER as u64);
        let rec = j.recover(Lsn(0));
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].payload, b"good");
        assert_eq!(rec.torn_records, 1);
    }

    #[test]
    fn segments_rotate_at_record_boundaries_and_gc() {
        let metrics = JournalMetrics::shared();
        let policy = JournalPolicy::default().segment_bytes(64);
        let mut j = Journal::new(&policy, Arc::clone(&metrics));
        for i in 0..8 {
            j.append(format!("record-{i}-padding-padding").as_bytes());
            j.fsync();
        }
        assert!(j.segment_count() > 1, "64-byte segments must rotate");
        assert!(metrics.snapshot().rotations > 0);
        let all = j.recover(Lsn(0));
        assert_eq!(all.records.len(), 8);
        // GC everything below the 6th record; replay from there still
        // works and earlier segments are gone.
        let keep_from = all.records[5].lsn;
        j.truncate_before(keep_from);
        let tail = j.recover(keep_from);
        assert_eq!(tail.records.len(), 3);
        assert_eq!(tail.records[0].payload, b"record-5-padding-padding");
    }

    #[test]
    fn checkpoint_cell_round_trips() {
        let mut cell: CheckpointCell<Vec<u64>> = CheckpointCell::new();
        assert_eq!(cell.high_water(), Lsn(0));
        assert!(cell.load().is_none());
        cell.save(vec![1, 2, 3], Lsn(96));
        let (state, hw) = cell.load().expect("saved above");
        assert_eq!(state, vec![1, 2, 3]);
        assert_eq!(hw, Lsn(96));
        assert_eq!(cell.high_water(), Lsn(96));
    }

    #[test]
    fn idempotency_keys_are_deterministic_and_distinct() {
        let a = IdempotencyKey::derive(11, 3, 2, 0);
        let b = IdempotencyKey::derive(11, 3, 2, 0);
        assert_eq!(a, b);
        let others = [
            IdempotencyKey::derive(12, 3, 2, 0),
            IdempotencyKey::derive(11, 4, 2, 0),
            IdempotencyKey::derive(11, 3, 3, 0),
            IdempotencyKey::derive(11, 3, 2, 1),
        ];
        for other in others {
            assert_ne!(a, other);
        }
        let hex = a.to_hex();
        assert_eq!(hex.len(), 16);
        assert_eq!(IdempotencyKey::from_hex(&hex), Some(a));
        assert_eq!(IdempotencyKey::from_hex("xyz"), None);
    }

    #[test]
    fn ambient_key_scopes_nest_and_restore() {
        assert_eq!(current_idempotency_key(), None);
        let outer = IdempotencyKey(7);
        let inner = IdempotencyKey(9);
        with_idempotency_key(outer, || {
            assert_eq!(current_idempotency_key(), Some(outer));
            with_idempotency_key(inner, || {
                assert_eq!(current_idempotency_key(), Some(inner));
            });
            assert_eq!(current_idempotency_key(), Some(outer));
        });
        assert_eq!(current_idempotency_key(), None);
    }

    #[test]
    fn url_key_stamping_handles_existing_queries() {
        let key = IdempotencyKey(0xabcd);
        assert_eq!(
            url_with_idempotency_key("http://h/p", key),
            format!("http://h/p?idem={}", key.to_hex())
        );
        assert_eq!(
            url_with_idempotency_key("http://h/p?a=1", key),
            format!("http://h/p?a=1&idem={}", key.to_hex())
        );
    }
}
