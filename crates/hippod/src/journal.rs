//! The daemon's write-ahead job journal — and, since PR 10, the campaign
//! scheduler's lease ledger and the primary-election epoch record.
//!
//! Same discipline (and same on-disk framing) as the `pmtx` repair
//! journal: line-oriented, every line checksummed, appends synced before
//! the daemon acknowledges. The event kinds:
//!
//! - `Submitted { id, spec }` — written *before* the client sees
//!   `Accepted`. An acknowledged job is therefore always durable.
//! - `Finished { view }` — written when the job reaches a terminal state
//!   (`Done`/`Failed`/`Canceled`), carrying the full result.
//! - `Epoch { epoch, pid }` — a primary won the election at this
//!   monotonic epoch. Written by [`JobJournal::elect`] under the journal
//!   flock; the highest epoch in the journal names the legitimate primary.
//! - `LeaseAcquired` / `LeaseRenewed` / `LeaseReclaimed` /
//!   `ShardQuarantined` — the campaign scheduler's lease ledger (see
//!   [`pmtx::LeaseTable`]): who ran which shard, which leases expired, and
//!   which shards were quarantined after exhausting their retry budget.
//!   Together they are the campaign's structured degradation trail.
//! - `ShardFinished { job, shard, result }` — one shard's committed
//!   result. On resume, committed shards are *not* re-run: the successor
//!   merges the journaled shard results with its own.
//! - `Compacted { dropped }` — a compaction checkpoint: this journal was
//!   rewritten with `dropped` superseded records removed. Compaction
//!   preserves resume byte-identity (see [`compact_events`]).
//!
//! **Resume rule:** on restart, every `Submitted` without a matching
//! `Finished` re-enters the queue in submission order (sharded campaigns
//! re-enter with their journaled `ShardFinished` results pre-seeded);
//! every `Finished` job serves its journaled result directly. Job and
//! shard execution are deterministic in the spec, so a re-run of an
//! interrupted job commits the same result the killed run would have.
//!
//! **Epoch fencing.** A deposed primary must never corrupt its
//! successor's journal. Every append first verifies that the journal file
//! is exactly where this handle last left it — same inode, same length.
//! If another writer advanced it (a rival primary's `Epoch` record, a
//! successor's compaction), the append is refused with a fenced error
//! ([`is_fenced`]) instead of performed, and the caller demotes. Combined
//! with the flock this closes the standby takeover race window: even a
//! writer that somehow bypasses the lock cannot make a deposed primary's
//! stale write land silently.
//!
//! A torn final line (the daemon was SIGKILLed mid-append) is dropped and
//! truncated away; corruption anywhere *else* is refused loudly.
//! Exclusive advisory locking ([`pmtx::FileLock`]) makes a second daemon
//! on the same journal refuse with the holder's pid instead of
//! interleaving appends.

use crate::jobs::{JobSpec, JobView, ShardDone};
use pmtx::framing::{decode_line, encode_line, split_lines};
use pmtx::FileLock;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};

/// The journal's schema tag, checked on resume.
pub const JOBS_JOURNAL_SCHEMA: &str = "hippo.jobs.v1";

/// The prefix of every epoch-fencing refusal; [`is_fenced`] keys on it.
const FENCED: &str = "epoch fenced";

/// Whether a journal append error is an epoch-fencing refusal — the
/// signal that this primary was deposed and must demote instead of retry.
pub fn is_fenced(err: &str) -> bool {
    err.starts_with(FENCED)
}

/// The first journal line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobJournalHeader {
    pub schema: String,
}

/// One journaled lifecycle event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobEvent {
    Submitted {
        id: String,
        spec: JobSpec,
    },
    Finished {
        view: JobView,
    },
    /// A primary won the election at this monotonic epoch.
    Epoch {
        epoch: u64,
        pid: u32,
    },
    /// A worker acquired the lease on one campaign shard.
    LeaseAcquired {
        job: String,
        shard: u64,
        epoch: u64,
        owner: String,
        attempt: u32,
    },
    /// The holder heartbeat-renewed its lease (journaled coarsely: the
    /// first renewal of each attempt, so the ledger shows liveness without
    /// growing per heartbeat).
    LeaseRenewed {
        job: String,
        shard: u64,
        epoch: u64,
        owner: String,
    },
    /// The reaper reclaimed an expired (or revoked) lease; the shard goes
    /// back to the scheduler with its attempt counter advanced.
    LeaseReclaimed {
        job: String,
        shard: u64,
        epoch: u64,
        owner: String,
        attempt: u32,
        reason: String,
    },
    /// The shard exhausted its retry budget: poison-shard quarantine.
    ShardQuarantined {
        job: String,
        shard: u64,
        attempts: u32,
        reason: String,
    },
    /// One shard's committed (first-commit-wins) result.
    ShardFinished {
        job: String,
        shard: u64,
        result: ShardDone,
    },
    /// Compaction checkpoint: `dropped` superseded records were removed
    /// when this journal was rewritten.
    Compacted {
        dropped: u64,
    },
}

/// An open, exclusively locked job journal.
#[derive(Debug)]
pub struct JobJournal {
    file: File,
    path: PathBuf,
    /// Where this handle believes the journal ends; a mismatch on append
    /// means another writer advanced it — the epoch fence.
    expected_len: u64,
    /// The highest election epoch seen or written through this handle.
    epoch: u64,
    _lock: FileLock,
}

impl JobJournal {
    /// Opens (creating if absent) the journal, replaying every committed
    /// event. A torn final line is truncated away; the replayed events are
    /// returned in append order.
    ///
    /// # Errors
    ///
    /// Fails when another process holds the journal (the message names the
    /// holder's pid), on interior corruption, on a schema mismatch, and on
    /// I/O errors.
    pub fn open(path: impl AsRef<Path>) -> Result<(JobJournal, Vec<JobEvent>), String> {
        let path = path.as_ref().to_path_buf();
        let lock = FileLock::acquire(&path).map_err(|e| e.to_string())?;
        let mut file = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let mut text = String::new();
        file.read_to_string(&mut text)
            .map_err(|e| format!("{}: {e}", path.display()))?;

        let mut journal = JobJournal {
            file,
            path,
            expected_len: 0,
            epoch: 0,
            _lock: lock,
        };
        if text.is_empty() {
            journal.append_line(&JobJournalHeader {
                schema: JOBS_JOURNAL_SCHEMA.to_string(),
            })?;
            return Ok((journal, vec![]));
        }

        let lines = split_lines(&text);
        let mut events = vec![];
        let mut truncate_at: Option<usize> = None;
        for (i, line) in lines.iter().enumerate() {
            let last = i + 1 == lines.len();
            let payload = match decode_line(line.body) {
                Ok(p) if line.terminated => p,
                // A torn tail — unterminated or checksum-failed final
                // line — is the one legal form of damage: the process died
                // mid-append, the event was never acknowledged. Drop it.
                _ if last => {
                    truncate_at = Some(line.offset);
                    break;
                }
                Ok(_) | Err(_) => {
                    return Err(format!(
                        "{}: corrupted journal line {} (not at the tail); refusing to resume \
                         from a damaged journal",
                        journal.path.display(),
                        i + 1
                    ));
                }
            };
            if i == 0 {
                let header: JobJournalHeader = serde_json::from_str(payload)
                    .map_err(|e| format!("{}: bad journal header: {e}", journal.path.display()))?;
                if header.schema != JOBS_JOURNAL_SCHEMA {
                    return Err(format!(
                        "{}: journal schema is `{}`, this daemon speaks `{JOBS_JOURNAL_SCHEMA}`",
                        journal.path.display(),
                        header.schema
                    ));
                }
                continue;
            }
            match serde_json::from_str::<JobEvent>(payload) {
                Ok(ev) => events.push(ev),
                Err(e) if last => {
                    // Structurally torn JSON with an accidentally valid
                    // checksum cannot happen (the checksum covers the whole
                    // payload), but a half-written *terminated* line at the
                    // tail is still unacknowledged work: drop it too.
                    let _ = e;
                    truncate_at = Some(line.offset);
                }
                Err(e) => {
                    return Err(format!(
                        "{}: journal line {} does not parse: {e}",
                        journal.path.display(),
                        i + 1
                    ));
                }
            }
        }
        if let Some(offset) = truncate_at {
            journal
                .file
                .set_len(offset as u64)
                .map_err(|e| format!("{}: truncate: {e}", journal.path.display()))?;
            journal
                .file
                .seek(std::io::SeekFrom::End(0))
                .map_err(|e| format!("{}: {e}", journal.path.display()))?;
        }
        if events.is_empty() && truncate_at == Some(0) {
            // Even the header was torn; start fresh.
            journal.append_line(&JobJournalHeader {
                schema: JOBS_JOURNAL_SCHEMA.to_string(),
            })?;
        }
        journal.epoch = max_epoch(&events);
        journal.expected_len = journal
            .file
            .metadata()
            .map_err(|e| format!("{}: {e}", journal.path.display()))?
            .len();
        Ok((journal, events))
    }

    fn append_line<T: Serialize>(&mut self, value: &T) -> Result<(), String> {
        let payload =
            serde_json::to_string(value).map_err(|e| format!("encode journal record: {e}"))?;
        let line = encode_line(&payload);
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| format!("{}: append: {e}", self.path.display()))?;
        self.file
            .sync_data()
            .map_err(|e| format!("{}: sync: {e}", self.path.display()))?;
        // Advance by this handle's own bytes only: re-reading the length
        // would absorb a rival's record appended since the fence check.
        self.expected_len += line.len() as u64;
        Ok(())
    }

    /// Verifies that the journal file on disk is exactly where this handle
    /// last left it (same inode, same length). A mismatch means another
    /// writer advanced or replaced it — this primary was deposed.
    fn check_fence(&self) -> Result<(), String> {
        let on_disk = match std::fs::metadata(&self.path) {
            Ok(m) => m,
            Err(e) => {
                return Err(format!(
                    "{FENCED}: journal {} vanished from under this primary ({e}); demoting",
                    self.path.display()
                ));
            }
        };
        #[cfg(unix)]
        {
            use std::os::unix::fs::MetadataExt;
            let own = self
                .file
                .metadata()
                .map_err(|e| format!("{}: {e}", self.path.display()))?;
            if own.ino() != on_disk.ino() || own.dev() != on_disk.dev() {
                return Err(format!(
                    "{FENCED}: journal {} was replaced out from under this primary{}; \
                     refusing stale write and demoting",
                    self.path.display(),
                    rival_epoch_note(&self.path, self.epoch)
                ));
            }
        }
        if on_disk.len() != self.expected_len {
            return Err(format!(
                "{FENCED}: journal {} advanced behind this primary ({} bytes on disk, {} \
                 expected){}; refusing stale write and demoting",
                self.path.display(),
                on_disk.len(),
                self.expected_len,
                rival_epoch_note(&self.path, self.epoch)
            ));
        }
        Ok(())
    }

    /// Appends one event, durable (synced) before returning.
    ///
    /// # Errors
    ///
    /// Refuses with a fenced error ([`is_fenced`]) when another writer
    /// advanced or replaced the journal since this handle's last append —
    /// the caller must demote, not retry. Also propagates serialization
    /// and I/O failures.
    pub fn append(&mut self, event: &JobEvent) -> Result<(), String> {
        self.check_fence()?;
        self.append_line(event)?;
        if let JobEvent::Epoch { epoch, .. } = event {
            self.epoch = (*epoch).max(self.epoch);
        }
        Ok(())
    }

    /// Claims the primaryship: appends an `Epoch` record one past the
    /// highest epoch this journal has seen, returning the new epoch.
    ///
    /// The flock held by this handle makes the claim atomic; the record
    /// makes it durable, so a deposed predecessor's fence check (and any
    /// auditor) can see who the legitimate primary is.
    ///
    /// # Errors
    ///
    /// Propagates [`JobJournal::append`] failures, including fencing.
    pub fn elect(&mut self) -> Result<u64, String> {
        let epoch = self.epoch + 1;
        self.append(&JobEvent::Epoch {
            epoch,
            pid: std::process::id(),
        })?;
        Ok(epoch)
    }

    /// The highest election epoch seen or written through this handle.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Rewrites the journal with superseded records removed (see
    /// [`compact_events`]), preserving resume semantics exactly. `events`
    /// must be this journal's full replayed event list.
    ///
    /// The rewrite goes to a `.compact` sibling which is synced and then
    /// renamed over the journal — crash-atomic, and safe under the flock
    /// because the lock lives on a sidecar file whose inode is untouched.
    /// Returns the number of records dropped.
    ///
    /// # Errors
    ///
    /// Refuses with a fenced error when a rival writer advanced the
    /// journal; propagates I/O failures (the original journal is intact
    /// unless the rename itself succeeded).
    pub fn compact(&mut self, events: &[JobEvent]) -> Result<u64, String> {
        self.check_fence()?;
        let (kept, dropped) = compact_events(events);
        let mut text = String::new();
        let header = serde_json::to_string(&JobJournalHeader {
            schema: JOBS_JOURNAL_SCHEMA.to_string(),
        })
        .map_err(|e| format!("encode journal header: {e}"))?;
        text.push_str(&encode_line(&header));
        let checkpoint = serde_json::to_string(&JobEvent::Compacted { dropped })
            .map_err(|e| format!("encode journal record: {e}"))?;
        text.push_str(&encode_line(&checkpoint));
        for event in &kept {
            let payload =
                serde_json::to_string(event).map_err(|e| format!("encode journal record: {e}"))?;
            text.push_str(&encode_line(&payload));
        }
        let tmp = PathBuf::from(format!("{}.compact", self.path.display()));
        {
            let mut f =
                File::create(&tmp).map_err(|e| format!("{}: create: {e}", tmp.display()))?;
            f.write_all(text.as_bytes())
                .map_err(|e| format!("{}: write: {e}", tmp.display()))?;
            f.sync_all()
                .map_err(|e| format!("{}: sync: {e}", tmp.display()))?;
        }
        std::fs::rename(&tmp, &self.path)
            .map_err(|e| format!("rename {} over {}: {e}", tmp.display(), self.path.display()))?;
        self.file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| format!("{}: reopen after compaction: {e}", self.path.display()))?;
        self.expected_len = self
            .file
            .metadata()
            .map_err(|e| format!("{}: {e}", self.path.display()))?
            .len();
        Ok(dropped)
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn max_epoch(events: &[JobEvent]) -> u64 {
    events
        .iter()
        .filter_map(|e| match e {
            JobEvent::Epoch { epoch, .. } => Some(*epoch),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

/// A human-readable note naming the rival epoch that fenced us, when the
/// tail of the journal is still readable enough to find one.
fn rival_epoch_note(path: &Path, own: u64) -> String {
    match read_events(path) {
        Ok(events) => {
            let newest = max_epoch(&events);
            if newest > own {
                format!(" — a rival primary holds epoch {newest} (ours: {own})")
            } else {
                String::new()
            }
        }
        Err(_) => String::new(),
    }
}

/// Compacts a replayed event list, dropping every record that no longer
/// affects resume:
///
/// - all `Epoch` records collapse into the single latest one, emitted
///   first so a resuming primary knows the fence floor before anything
///   else;
/// - terminal jobs keep `Submitted` + `Finished` (the cached result);
/// - pending jobs keep `Submitted` plus their committed `ShardFinished`
///   (first commit per shard — later duplicates lost the
///   first-commit-wins race) and `ShardQuarantined` records;
/// - lease acquire/renew/reclaim history and prior `Compacted`
///   checkpoints are dropped — they describe the past, not the resume
///   state.
///
/// Replaying the compacted list reconstructs exactly the same scheduler
/// state (and therefore byte-identical campaign output) as the original.
/// Returns `(kept, dropped_count)`.
pub fn compact_events(events: &[JobEvent]) -> (Vec<JobEvent>, u64) {
    use std::collections::HashSet;
    let finished: HashSet<&str> = events
        .iter()
        .filter_map(|e| match e {
            JobEvent::Finished { view } => Some(view.id.as_str()),
            _ => None,
        })
        .collect();
    let newest_epoch = max_epoch(events);
    let mut kept = Vec::new();
    if newest_epoch > 0 {
        kept.push(JobEvent::Epoch {
            epoch: newest_epoch,
            pid: std::process::id(),
        });
    }
    let mut committed: HashSet<(String, u64)> = HashSet::new();
    for event in events {
        match event {
            JobEvent::Submitted { .. } | JobEvent::Finished { .. } => kept.push(event.clone()),
            JobEvent::ShardFinished { job, shard, .. }
                if !finished.contains(job.as_str()) && committed.insert((job.clone(), *shard)) =>
            {
                kept.push(event.clone());
            }
            JobEvent::ShardQuarantined { job, .. } if !finished.contains(job.as_str()) => {
                kept.push(event.clone());
            }
            JobEvent::Epoch { .. }
            | JobEvent::LeaseAcquired { .. }
            | JobEvent::LeaseRenewed { .. }
            | JobEvent::LeaseReclaimed { .. }
            | JobEvent::ShardFinished { .. }
            | JobEvent::ShardQuarantined { .. }
            | JobEvent::Compacted { .. } => {}
        }
    }
    let dropped = events.len().saturating_sub(kept.len()) as u64;
    (kept, dropped)
}

/// Reads a journal's events without taking the lock — the audit path used
/// by tests, the chaos gate, and post-mortem tooling while (or after) a
/// daemon holds the journal. Tolerates a torn tail (skipped, like
/// [`JobJournal::open`], but without truncating); refuses interior
/// corruption and schema mismatches.
///
/// # Errors
///
/// Fails on I/O errors, a bad or missing header, and interior corruption.
pub fn read_events(path: impl AsRef<Path>) -> Result<Vec<JobEvent>, String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if text.is_empty() {
        return Err(format!("{}: empty journal (no header)", path.display()));
    }
    let lines = split_lines(&text);
    let mut events = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let last = i + 1 == lines.len();
        let payload = match decode_line(line.body) {
            Ok(p) if line.terminated => p,
            _ if last => break,
            Ok(_) | Err(_) => {
                return Err(format!(
                    "{}: corrupted journal line {} (not at the tail)",
                    path.display(),
                    i + 1
                ));
            }
        };
        if i == 0 {
            let header: JobJournalHeader = serde_json::from_str(payload)
                .map_err(|e| format!("{}: bad journal header: {e}", path.display()))?;
            if header.schema != JOBS_JOURNAL_SCHEMA {
                return Err(format!(
                    "{}: journal schema is `{}`, this reader speaks `{JOBS_JOURNAL_SCHEMA}`",
                    path.display(),
                    header.schema
                ));
            }
            continue;
        }
        match serde_json::from_str::<JobEvent>(payload) {
            Ok(ev) => events.push(ev),
            Err(_) if last => break,
            Err(e) => {
                return Err(format!(
                    "{}: journal line {} does not parse: {e}",
                    path.display(),
                    i + 1
                ));
            }
        }
    }
    Ok(events)
}

/// Chaos/test helper: appends an `Epoch` record to a journal *without*
/// taking the flock or checking the fence — simulating a rival primary
/// that claimed the journal behind the holder's back. The holder's next
/// [`JobJournal::append`] is then refused with a fenced error, which is
/// exactly the property the double-primary chaos archetype exercises.
pub fn append_rival_epoch(path: impl AsRef<Path>, epoch: u64) -> Result<(), String> {
    let path = path.as_ref();
    let payload = serde_json::to_string(&JobEvent::Epoch {
        epoch,
        pid: std::process::id(),
    })
    .map_err(|e| format!("encode journal record: {e}"))?;
    let mut f = OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    f.write_all(encode_line(&payload).as_bytes())
        .map_err(|e| format!("{}: append: {e}", path.display()))?;
    f.sync_data()
        .map_err(|e| format!("{}: sync: {e}", path.display()))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{JobKind, JobState};

    fn spec() -> JobSpec {
        JobSpec::new(
            JobKind::Lint,
            vec![("a.pmc".to_string(), "fn main() {}".to_string())],
        )
    }

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("hippod-journal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d.join("jobs.journal")
    }

    fn submitted(id: &str) -> JobEvent {
        JobEvent::Submitted {
            id: id.to_string(),
            spec: spec(),
        }
    }

    fn finished(id: &str) -> JobEvent {
        JobEvent::Finished {
            view: JobView {
                id: id.to_string(),
                kind: JobKind::Lint,
                state: JobState::Done,
                error: None,
                result: None,
            },
        }
    }

    #[test]
    fn events_replay_in_append_order() {
        let path = tmp("replay");
        {
            let (mut j, replayed) = JobJournal::open(&path).unwrap();
            assert!(replayed.is_empty());
            j.append(&submitted("job-1")).unwrap();
            j.append(&submitted("job-2")).unwrap();
            j.append(&finished("job-1")).unwrap();
        }
        let (_j, replayed) = JobJournal::open(&path).unwrap();
        assert_eq!(
            replayed,
            vec![submitted("job-1"), submitted("job-2"), finished("job-1")]
        );
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let path = tmp("torn");
        {
            let (mut j, _) = JobJournal::open(&path).unwrap();
            j.append(&submitted("job-1")).unwrap();
        }
        // Simulate a SIGKILL mid-append: half a line, no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"Finished\":{\"view\":{\"id\":\"job")
            .unwrap();
        drop(f);
        let before = std::fs::metadata(&path).unwrap().len();
        let (_j, replayed) = JobJournal::open(&path).unwrap();
        assert_eq!(replayed, vec![submitted("job-1")]);
        assert!(
            std::fs::metadata(&path).unwrap().len() < before,
            "the torn tail must be truncated away"
        );
    }

    #[test]
    fn interior_corruption_is_refused() {
        let path = tmp("interior");
        {
            let (mut j, _) = JobJournal::open(&path).unwrap();
            j.append(&submitted("job-1")).unwrap();
            j.append(&finished("job-1")).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let flipped = text.replacen("job-1", "job-X", 1);
        std::fs::write(&path, flipped).unwrap();
        let err = JobJournal::open(&path).unwrap_err();
        assert!(err.contains("corrupted journal line"), "{err}");
    }

    fn shard_finished(id: &str, shard: u64) -> JobEvent {
        JobEvent::ShardFinished {
            job: id.to_string(),
            shard,
            result: ShardDone {
                output: format!("report for {id} shard {shard}\n"),
                summary: format!("shard {shard}/4: clean"),
                clean: true,
            },
        }
    }

    #[test]
    fn election_epochs_are_monotonic_across_reopens() {
        let path = tmp("elect");
        {
            let (mut j, _) = JobJournal::open(&path).unwrap();
            assert_eq!(j.epoch(), 0);
            assert_eq!(j.elect().unwrap(), 1);
            assert_eq!(j.elect().unwrap(), 2);
        }
        let (mut j, events) = JobJournal::open(&path).unwrap();
        assert_eq!(j.epoch(), 2, "replay must recover the highest epoch");
        assert_eq!(j.elect().unwrap(), 3);
        assert!(events
            .iter()
            .any(|e| matches!(e, JobEvent::Epoch { epoch: 2, .. })));
    }

    #[test]
    fn rival_epoch_append_fences_the_holder() {
        let path = tmp("fence");
        let (mut j, _) = JobJournal::open(&path).unwrap();
        j.elect().unwrap();
        j.append(&submitted("job-1")).unwrap();
        // A rival primary sneaks an epoch record past the flock.
        append_rival_epoch(&path, 7).unwrap();
        let err = j.append(&finished("job-1")).unwrap_err();
        assert!(is_fenced(&err), "{err}");
        assert!(err.contains("epoch 7"), "the fence names the rival: {err}");
        // The stale write was refused, not performed: the journal holds the
        // rival's record and nothing after it.
        let events = read_events(&path).unwrap();
        assert_eq!(
            events.last(),
            Some(&JobEvent::Epoch {
                epoch: 7,
                pid: std::process::id()
            })
        );
        assert!(!events.iter().any(|e| e == &finished("job-1")));
        // Fencing is sticky: the deposed handle stays fenced.
        assert!(is_fenced(&j.append(&submitted("job-2")).unwrap_err()));
    }

    #[test]
    fn rival_epoch_during_an_append_still_fences_the_next_one() {
        let path = tmp("fence-window");
        let (mut j, _) = JobJournal::open(&path).unwrap();
        j.elect().unwrap();
        j.check_fence().unwrap();
        // The rival lands after this append's fence check, before its write.
        append_rival_epoch(&path, 7).unwrap();
        j.append_line(&submitted("job-1")).unwrap();
        let err = j.append(&finished("job-1")).unwrap_err();
        assert!(is_fenced(&err), "{err}");
    }

    #[test]
    fn compaction_preserves_replay_state_and_accepts_new_appends() {
        let path = tmp("compact");
        let before;
        {
            let (mut j, _) = JobJournal::open(&path).unwrap();
            j.elect().unwrap();
            j.append(&submitted("job-1")).unwrap();
            j.append(&finished("job-1")).unwrap();
            j.append(&submitted("job-2")).unwrap();
            j.append(&JobEvent::LeaseAcquired {
                job: "job-2".to_string(),
                shard: 0,
                epoch: 1,
                owner: "worker-0".to_string(),
                attempt: 0,
            })
            .unwrap();
            j.append(&shard_finished("job-2", 0)).unwrap();
            j.append(&JobEvent::LeaseReclaimed {
                job: "job-2".to_string(),
                shard: 1,
                epoch: 1,
                owner: "worker-1".to_string(),
                attempt: 1,
                reason: "lease expired".to_string(),
            })
            .unwrap();
            j.elect().unwrap();
            before = std::fs::metadata(&path).unwrap().len();
        }
        // Reopen cleanly, compact, then verify the replayed state matches.
        let dropped = {
            let (mut j, events) = JobJournal::open(&path).unwrap();
            let dropped = j.compact(&events).unwrap();
            // The compacted journal still accepts appends (fence re-armed at
            // the new length).
            j.append(&submitted("job-3")).unwrap();
            dropped
        };
        assert!(dropped >= 3, "epochs + lease records collapse: {dropped}");
        assert!(
            std::fs::metadata(&path).unwrap().len() < before,
            "compaction must shrink the journal"
        );
        let (j, events) = JobJournal::open(&path).unwrap();
        assert_eq!(j.epoch(), 2, "the latest epoch survives compaction");
        assert!(events.iter().any(|e| e == &submitted("job-1")));
        assert!(events.iter().any(|e| e == &finished("job-1")));
        assert!(events.iter().any(|e| e == &submitted("job-2")));
        assert!(events.iter().any(|e| e == &shard_finished("job-2", 0)));
        assert!(events.iter().any(|e| e == &submitted("job-3")));
        assert!(
            !events.iter().any(|e| matches!(
                e,
                JobEvent::LeaseAcquired { .. } | JobEvent::LeaseReclaimed { .. }
            )),
            "lease history is dropped"
        );
        assert!(events
            .iter()
            .any(|e| matches!(e, JobEvent::Compacted { .. })));
    }

    #[test]
    fn compact_events_keeps_first_commit_and_drops_terminal_shards() {
        let mut second = shard_finished("job-2", 0);
        if let JobEvent::ShardFinished { result, .. } = &mut second {
            result.output = "a LOSING duplicate commit".to_string();
        }
        let events = vec![
            JobEvent::Epoch { epoch: 1, pid: 1 },
            submitted("job-1"),
            shard_finished("job-1", 0),
            finished("job-1"),
            submitted("job-2"),
            shard_finished("job-2", 0),
            second,
            JobEvent::ShardQuarantined {
                job: "job-2".to_string(),
                shard: 3,
                attempts: 4,
                reason: "injected worker kill".to_string(),
            },
            JobEvent::Epoch { epoch: 2, pid: 2 },
        ];
        let (kept, dropped) = compact_events(&events);
        assert_eq!(
            kept[0],
            JobEvent::Epoch {
                epoch: 2,
                pid: std::process::id()
            },
            "the latest epoch leads"
        );
        // job-1 is terminal: its shard commits are superseded by Finished.
        assert!(!kept.iter().any(|e| e == &shard_finished("job-1", 0)));
        // job-2 is pending: its FIRST shard-0 commit survives, not the dup.
        assert!(kept.iter().any(|e| e == &shard_finished("job-2", 0)));
        assert_eq!(
            kept.iter()
                .filter(|e| matches!(e, JobEvent::ShardFinished { job, shard, .. } if job == "job-2" && *shard == 0))
                .count(),
            1
        );
        assert!(kept.iter().any(
            |e| matches!(e, JobEvent::ShardQuarantined { job, shard: 3, .. } if job == "job-2")
        ));
        // Dropped: the two epochs collapse into one, job-1's superseded
        // shard commit goes, and so does the losing duplicate.
        assert_eq!(dropped, 3);
    }

    #[test]
    fn read_events_audits_without_taking_the_lock() {
        let path = tmp("audit");
        let (mut j, _) = JobJournal::open(&path).unwrap();
        j.elect().unwrap();
        j.append(&submitted("job-1")).unwrap();
        // The holder is still alive and locked; the audit reads anyway.
        let events = read_events(&path).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1], submitted("job-1"));
    }

    #[test]
    fn second_open_is_refused_with_holder_pid() {
        let path = tmp("locked");
        let (_j, _) = JobJournal::open(&path).unwrap();
        let err = JobJournal::open(&path).unwrap_err();
        assert!(err.contains("held by pid"), "{err}");
        assert!(
            err.contains(&std::process::id().to_string()),
            "the message must name the holder: {err}"
        );
    }
}
