//! Coordinated checkpoint/restart: versioned, checksummed binary snapshots
//! of the hydro state plus the solver bookkeeping needed to resume a run
//! bit-identically (the PCG warm-start cache, the adaptive dt, and the
//! step/retry counters).
//!
//! ## Format (version 1)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"BLASTCKP"
//! 8       4     format version (u32 LE)          = 1
//! 12      4     reserved flags (u32 LE)          = 0
//! 16      8     payload length in bytes (u64 LE)
//! 24      n     payload (see below)
//! 24+n    4     CRC-32 (IEEE) over bytes [0, 24+n) (u32 LE)
//! ```
//!
//! Payload: `t`, `dt` (f64), `steps`, `retries` (u64), then four
//! length-prefixed f64 arrays (`v`, `e`, `x`, `accel_prev`), everything
//! little-endian. The trailing CRC covers header *and* payload, so a
//! truncated file, a flipped byte, or a bad length all surface as a typed
//! [`CheckpointError`] — the restore path then falls back to the previous
//! generation instead of resuming from garbage.

use std::path::PathBuf;

use crate::state::HydroState;

/// Checkpoint format magic bytes.
const CHECKPOINT_MAGIC: [u8; 8] = *b"BLASTCKP";

/// Current checkpoint format version.
const CHECKPOINT_VERSION: u32 = 1;

const HEADER_LEN: usize = 24;
const FOOTER_LEN: usize = 4;

/// Why a checkpoint image failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Image shorter than header + CRC.
    TooShort {
        /// Bytes present.
        len: usize,
    },
    /// Magic bytes do not match `CHECKPOINT_MAGIC`.
    BadMagic,
    /// Format version newer than this reader understands.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// Header payload length disagrees with the image size.
    Truncated {
        /// Payload bytes the header promised.
        expected: usize,
        /// Payload bytes actually present.
        present: usize,
    },
    /// CRC-32 over header + payload does not match the stored checksum.
    ChecksumMismatch {
        /// Checksum stored in the image.
        stored: u32,
        /// Checksum computed from the bytes.
        computed: u32,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::TooShort { len } => {
                write!(f, "checkpoint image too short: {len} bytes")
            }
            CheckpointError::BadMagic => write!(f, "checkpoint magic mismatch"),
            CheckpointError::UnsupportedVersion { found } => {
                write!(f, "unsupported checkpoint version {found} (reader understands {CHECKPOINT_VERSION})")
            }
            CheckpointError::Truncated { expected, present } => {
                write!(f, "truncated checkpoint: header promises {expected} payload bytes, {present} present")
            }
            CheckpointError::ChecksumMismatch { stored, computed } => {
                write!(f, "checkpoint checksum mismatch: stored {stored:#010x}, computed {computed:#010x}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), table built at
// compile time — no external crates.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of a byte slice.
fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// One coordinated snapshot: the state plus everything `Hydro::run` needs
/// to continue exactly where the snapshot was taken.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// The hydro state `(v, e, x, t)`.
    pub state: HydroState,
    /// The momentum PCG warm-start cache at snapshot time. Restoring it
    /// keeps the resumed iteration counts (and therefore the billed energy)
    /// identical to an uninterrupted run.
    pub accel_prev: Vec<f64>,
    /// Adaptive dt in effect for the next step.
    pub dt: f64,
    /// Accepted steps so far.
    pub steps: u64,
    /// Redo count so far (rollbacks + CFL redos).
    pub retries: u64,
}

fn push_f64s(buf: &mut Vec<u8>, values: &[f64]) {
    buf.extend_from_slice(&(values.len() as u64).to_le_bytes());
    for v in values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.pos + n > self.bytes.len() {
            return Err(CheckpointError::Truncated {
                expected: self.pos + n,
                present: self.bytes.len(),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f64s(&mut self) -> Result<Vec<f64>, CheckpointError> {
        let n = self.u64()? as usize;
        let raw = self.take(n * 8)?;
        Ok(raw.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes"))).collect())
    }
}

impl Checkpoint {
    /// Serializes to the versioned, CRC-protected binary image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(
            32 + 8 * (self.state.v.len() + self.state.e.len() + self.state.x.len() + self.accel_prev.len() + 4),
        );
        payload.extend_from_slice(&self.state.t.to_le_bytes());
        payload.extend_from_slice(&self.dt.to_le_bytes());
        payload.extend_from_slice(&self.steps.to_le_bytes());
        payload.extend_from_slice(&self.retries.to_le_bytes());
        push_f64s(&mut payload, &self.state.v);
        push_f64s(&mut payload, &self.state.e);
        push_f64s(&mut payload, &self.state.x);
        push_f64s(&mut payload, &self.accel_prev);

        let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + FOOTER_LEN);
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // reserved flags
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Validates and decodes an image produced by [`Self::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < HEADER_LEN + FOOTER_LEN {
            return Err(CheckpointError::TooShort { len: bytes.len() });
        }
        if bytes[0..8] != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }
        let payload_len =
            u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes")) as usize;
        let present = bytes.len() - HEADER_LEN - FOOTER_LEN;
        if payload_len != present {
            return Err(CheckpointError::Truncated { expected: payload_len, present });
        }
        let body_end = HEADER_LEN + payload_len;
        let stored = u32::from_le_bytes(bytes[body_end..].try_into().expect("4 bytes"));
        let computed = crc32(&bytes[..body_end]);
        if stored != computed {
            return Err(CheckpointError::ChecksumMismatch { stored, computed });
        }

        let mut r = Reader { bytes: &bytes[HEADER_LEN..body_end], pos: 0 };
        let t = r.f64()?;
        let dt = r.f64()?;
        let steps = r.u64()?;
        let retries = r.u64()?;
        let v = r.f64s()?;
        let e = r.f64s()?;
        let x = r.f64s()?;
        let accel_prev = r.f64s()?;
        Ok(Self { state: HydroState { v, e, x, t }, accel_prev, dt, steps, retries })
    }
}

/// When `Hydro::run` writes a coordinated checkpoint.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CheckpointPolicy {
    /// No checkpointing.
    Never,
    /// Write after every `n` accepted steps.
    EverySteps(usize),
    /// Write when at least this much *simulated* wall-clock (host timeline
    /// seconds) has elapsed since the previous checkpoint.
    EveryWallclock(f64),
}

impl CheckpointPolicy {
    /// Whether a checkpoint is due, given accepted steps and simulated
    /// seconds since the last one.
    pub fn due(&self, steps_since: usize, wall_since_s: f64) -> bool {
        match *self {
            CheckpointPolicy::Never => false,
            CheckpointPolicy::EverySteps(n) => n > 0 && steps_since >= n,
            CheckpointPolicy::EveryWallclock(s) => wall_since_s >= s,
        }
    }
}

/// A checkpoint restored by [`CheckpointStore::latest_valid`], with the
/// metadata recovery accounting needs.
#[derive(Clone, Debug)]
pub struct LoadedCheckpoint {
    /// Monotonic generation id of the image that decoded cleanly.
    pub generation: u64,
    /// Image size in bytes (drives the restore's DRAM-traffic billing).
    pub bytes: usize,
    /// Newer generations that were skipped because they failed validation.
    pub skipped: usize,
    /// The decoded checkpoint.
    pub checkpoint: Checkpoint,
}

/// Generation-based checkpoint store: in-memory, optionally mirrored to a
/// directory so a *new process* can resume (`examples/checkpoint_restart`).
///
/// Generations are kept newest-last; [`Self::latest_valid`] walks backwards
/// past corrupt or truncated images, which is how a flipped byte in the
/// newest checkpoint falls back to the previous generation.
#[derive(Debug)]
pub struct CheckpointStore {
    /// `(generation id, image bytes)`, oldest first.
    generations: Vec<(u64, Vec<u8>)>,
    max_generations: usize,
    dir: Option<PathBuf>,
    next_gen: u64,
}

impl CheckpointStore {
    /// A purely in-memory store (checkpoints die with the process).
    pub fn in_memory() -> Self {
        Self { generations: Vec::new(), max_generations: 3, dir: None, next_gen: 0 }
    }

    /// A store mirrored to `dir`: every write lands in
    /// `dir/ckpt_<generation>.blastck`, and construction re-loads whatever
    /// generations a previous process left there (newest
    /// `max_generations`, unreadable files simply skipped).
    pub fn on_disk(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut found: Vec<(u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(gen_str) =
                name.strip_prefix("ckpt_").and_then(|s| s.strip_suffix(".blastck"))
            {
                if let Ok(gen_id) = gen_str.parse::<u64>() {
                    found.push((gen_id, entry.path()));
                }
            }
        }
        found.sort_by_key(|(gen_id, _)| *gen_id);
        let mut store = Self {
            generations: Vec::new(),
            max_generations: 3,
            dir: Some(dir),
            next_gen: found.last().map(|(g, _)| g + 1).unwrap_or(0),
        };
        let keep = found.len().saturating_sub(store.max_generations);
        for (gen_id, path) in found.into_iter().skip(keep) {
            if let Ok(bytes) = std::fs::read(&path) {
                store.generations.push((gen_id, bytes));
            }
        }
        Ok(store)
    }

    /// Sets how many generations to retain (older ones are pruned on
    /// write). At least 2 is needed for corrupt-newest fallback.
    pub fn keep_generations(mut self, n: usize) -> Self {
        assert!(n >= 1, "must keep at least one generation");
        self.max_generations = n;
        self
    }

    /// Serializes and stores `ck` as a new generation, pruning old ones.
    /// Returns the image size in bytes (for energy billing).
    ///
    /// On-disk writes go to a dotfile temp name first and are atomically
    /// renamed into place, so a crash mid-write can never leave a
    /// half-written `ckpt_*.blastck` shadowing an older good generation:
    /// the directory either has the complete new image or none at all
    /// (the temp name doesn't match the loader's `ckpt_` prefix).
    pub fn write(&mut self, ck: &Checkpoint) -> std::io::Result<usize> {
        let bytes = ck.to_bytes();
        let len = bytes.len();
        let gen_id = self.next_gen;
        self.next_gen += 1;
        if let Some(dir) = &self.dir {
            let tmp = dir.join(format!(".ckpt_{gen_id}.blastck.tmp"));
            std::fs::write(&tmp, &bytes)?;
            std::fs::rename(&tmp, dir.join(format!("ckpt_{gen_id}.blastck")))?;
        }
        self.generations.push((gen_id, bytes));
        while self.generations.len() > self.max_generations {
            let (old_gen, _) = self.generations.remove(0);
            if let Some(dir) = &self.dir {
                let _ = std::fs::remove_file(dir.join(format!("ckpt_{old_gen}.blastck")));
            }
        }
        Ok(len)
    }

    /// Number of retained generations.
    pub fn generations(&self) -> usize {
        self.generations.len()
    }

    /// Newest checkpoint that validates (magic, version, length, CRC),
    /// walking backwards past corrupt generations. `None` when nothing
    /// decodes.
    pub fn latest_valid(&self) -> Option<LoadedCheckpoint> {
        for (skipped, (gen_id, bytes)) in self.generations.iter().rev().enumerate() {
            if let Ok(checkpoint) = Checkpoint::from_bytes(bytes) {
                return Some(LoadedCheckpoint {
                    generation: *gen_id,
                    bytes: bytes.len(),
                    skipped,
                    checkpoint,
                });
            }
        }
        None
    }

    /// Mutable access to the image of the `idx_from_newest`-th generation
    /// (0 = newest) — the corruption hook the flipped-byte tests use.
    pub fn image_mut(&mut self, idx_from_newest: usize) -> Option<&mut Vec<u8>> {
        let n = self.generations.len();
        if idx_from_newest >= n {
            return None;
        }
        Some(&mut self.generations[n - 1 - idx_from_newest].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            state: HydroState {
                v: vec![0.5, -1.25, 3.0],
                e: vec![2.0, 4.5],
                x: vec![0.0, 0.25, 0.5],
                t: 0.125,
            },
            accel_prev: vec![1.0, -2.0, 0.125],
            dt: 1e-3,
            steps: 17,
            retries: 3,
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_is_exact() {
        let ck = sample_checkpoint();
        let bytes = ck.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ck);
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let ck = sample_checkpoint();
        let bytes = ck.to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                Checkpoint::from_bytes(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample_checkpoint().to_bytes();
        for cut in [0, 5, HEADER_LEN, bytes.len() - 1] {
            assert!(Checkpoint::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn version_and_magic_are_checked() {
        let mut bytes = sample_checkpoint().to_bytes();
        bytes[0] = b'X';
        assert_eq!(Checkpoint::from_bytes(&bytes), Err(CheckpointError::BadMagic));
        let mut bytes = sample_checkpoint().to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        // Re-CRC so the version check (not the CRC) fires.
        let body_end = bytes.len() - FOOTER_LEN;
        let crc = crc32(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::UnsupportedVersion { found: 99 })
        );
    }

    #[test]
    fn policy_triggers_as_configured() {
        assert!(!CheckpointPolicy::Never.due(1000, 1e9));
        assert!(CheckpointPolicy::EverySteps(5).due(5, 0.0));
        assert!(!CheckpointPolicy::EverySteps(5).due(4, 1e9));
        assert!(CheckpointPolicy::EveryWallclock(1.0).due(0, 1.5));
        assert!(!CheckpointPolicy::EveryWallclock(1.0).due(1000, 0.5));
    }

    #[test]
    fn store_falls_back_past_a_flipped_byte() {
        let mut store = CheckpointStore::in_memory();
        let mut ck = sample_checkpoint();
        store.write(&ck).unwrap();
        ck.steps = 18;
        ck.state.t = 0.5;
        store.write(&ck).unwrap();
        // Corrupt the newest image: one flipped payload byte.
        store.image_mut(0).unwrap()[HEADER_LEN + 3] ^= 0x10;
        let loaded = store.latest_valid().expect("previous generation valid");
        assert_eq!(loaded.skipped, 1, "newest generation must be skipped");
        assert_eq!(loaded.checkpoint.steps, 17, "fell back to generation 0");
    }

    #[test]
    fn store_prunes_old_generations() {
        let mut store = CheckpointStore::in_memory().keep_generations(2);
        let mut ck = sample_checkpoint();
        for s in 0..5 {
            ck.steps = s;
            store.write(&ck).unwrap();
        }
        assert_eq!(store.generations(), 2);
        assert_eq!(store.latest_valid().unwrap().checkpoint.steps, 4);
    }

    #[test]
    fn on_disk_truncated_tail_falls_back_a_generation() {
        let dir = std::env::temp_dir()
            .join(format!("blast_ckpt_trunc_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut store = CheckpointStore::on_disk(&dir).unwrap();
            let mut ck = sample_checkpoint();
            ck.steps = 7;
            store.write(&ck).unwrap();
            ck.steps = 8;
            store.write(&ck).unwrap();
        }
        // The process died mid-flush: the newest on-disk image lost its
        // tail (payload end + CRC gone).
        let newest = dir.join("ckpt_1.blastck");
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() - 12]).unwrap();

        // Restart: restore must fall back, not error out.
        let store = CheckpointStore::on_disk(&dir).unwrap();
        let loaded = store.latest_valid().expect("previous generation must load");
        assert_eq!(loaded.skipped, 1, "truncated newest generation is skipped");
        assert_eq!(loaded.checkpoint.steps, 7, "fell back to the older image");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn on_disk_leftover_temp_file_is_ignored() {
        let dir = std::env::temp_dir()
            .join(format!("blast_ckpt_tmp_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut store = CheckpointStore::on_disk(&dir).unwrap();
            store.write(&sample_checkpoint()).unwrap();
        }
        // A crash between temp write and rename leaves the dotfile behind;
        // it must neither load as a generation nor break construction.
        std::fs::write(dir.join(".ckpt_9.blastck.tmp"), b"partial garbage").unwrap();
        let store = CheckpointStore::on_disk(&dir).unwrap();
        assert_eq!(store.generations(), 1);
        assert_eq!(store.latest_valid().unwrap().checkpoint.steps, 17);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn on_disk_store_survives_a_new_process() {
        let dir = std::env::temp_dir().join(format!("blast_ckpt_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut store = CheckpointStore::on_disk(&dir).unwrap();
            let mut ck = sample_checkpoint();
            ck.steps = 7;
            store.write(&ck).unwrap();
            ck.steps = 8;
            store.write(&ck).unwrap();
        }
        // "New process": a fresh store over the same directory.
        let store = CheckpointStore::on_disk(&dir).unwrap();
        assert_eq!(store.generations(), 2);
        assert_eq!(store.latest_valid().unwrap().checkpoint.steps, 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
