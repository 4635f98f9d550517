//! The lab's one seam onto the filesystem: every file the run path
//! mutates is written, renamed, removed and synced through a [`Disk`].
//! The trait's provided methods are the filesystem itself, as `FsDisk`
//! uses them; a [`FaultInjector`](crate::FaultInjector) wraps an
//! `FsDisk` and overrides the write and the journal append to apply its
//! plan. A [`LabStore`](crate::LabStore) picks its disk once. The disk
//! counts the barriers it issues — a group commit's file sync and
//! directory fsync, and every synced journal append — and that count is
//! `store.fsyncs`.

use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// The mutating file operations of the lab's run path.
pub trait Disk: std::fmt::Debug + Send + Sync {
    /// Where this disk counts the barriers it issues.
    fn barrier_count(&self) -> &AtomicU64;

    /// Barriers issued so far.
    fn barriers(&self) -> u64 {
        self.barrier_count().load(Ordering::Relaxed)
    }

    /// Attempt `attempt` (0 first) of one logical write of `bytes` bound
    /// for `path`: durable (temp file, fsync, rename, directory fsync)
    /// without a `tmp`; with one, only `tmp` is written, unsynced, for a
    /// group commit to sync ([`Disk::sync_files`]) and rename over `path`.
    fn write(&self, path: &Path, tmp: Option<&Path>, bytes: &[u8], attempt: u32) -> io::Result<()> {
        let _ = attempt;
        match tmp {
            None => apex_scenario::atomic_write_bytes(path, bytes),
            Some(tmp) => std::fs::write(tmp, bytes),
        }
    }

    /// Append `text`, whole journal lines, to `path` in one write, then
    /// fsync the file when `sync` is set.
    fn append(&self, path: &Path, text: &str, sync: bool) -> io::Result<()> {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(text.as_bytes())?;
        if sync {
            file.sync_all()?;
            self.barrier_count().fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Rename `from` over `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    /// Remove the file at `path`.
    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    /// Barrier 1 of a group commit: make `files` (a batch's temp files
    /// and its journal) durable. On Linux this is one `syncfs(2)` of the
    /// filesystem holding `dir`; elsewhere each file that exists is
    /// synced in turn.
    fn sync_files(&self, dir: &Path, files: &[&Path]) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        {
            let _ = files;
            syncfs(dir)?;
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = dir;
            let sync = |path: &Path| {
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(path)?
                    .sync_all()
            };
            for file in files {
                match sync(file) {
                    // Swept by a farm worker that found the suite
                    // finished (see `Committer::commit`).
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    synced => synced?,
                }
            }
        }
        self.barrier_count().fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Barrier 2 of a group commit: fsync the directory `dir` so the
    /// renames into it are durable (best-effort, like
    /// [`apex_scenario::atomic_write`]: no barrier when `dir` cannot be
    /// opened).
    fn sync_dir(&self, dir: &Path) {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
            self.barrier_count().fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The filesystem as a [`Disk`]: every provided method as it is.
#[derive(Debug, Default)]
pub(crate) struct FsDisk {
    barriers: AtomicU64,
}

impl Disk for FsDisk {
    fn barrier_count(&self) -> &AtomicU64 {
        &self.barriers
    }
}

/// `syncfs(2)` on the filesystem holding `dir`: one barrier that makes
/// every dirty file on it durable — a whole batch of temp files and the
/// journal's pending lines at once.
#[cfg(target_os = "linux")]
fn syncfs(dir: &Path) -> io::Result<()> {
    use std::os::fd::AsRawFd as _;
    extern "C" {
        fn syncfs(fd: std::os::raw::c_int) -> std::os::raw::c_int;
    }
    let d = std::fs::File::open(dir)?;
    // SAFETY: `syncfs` reads no memory of ours; it takes one descriptor,
    // which `d` keeps open for the duration of the call.
    if unsafe { syncfs(d.as_raw_fd()) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}
