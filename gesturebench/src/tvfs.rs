//! A timing [`Vfs`] wrapper for the traced run: delegates every call to
//! [`StdVfs`] and counts calls, bytes and nanoseconds per method. Each
//! call is also recorded as a `store` leaf span under whatever span the
//! calling thread has open, so store I/O is subtracted from the self
//! time of the layer that caused it.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use isis_store::{StdVfs, Vfs};

use crate::spans::Recorder;

/// The methods the `store.*` metrics read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Read,
    Write,
    Append,
    Sync,
    Other,
}

const METHODS: usize = 5;

/// Calls, bytes and time for one method.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MethodStats {
    pub calls: u64,
    pub bytes: u64,
    pub ns: u64,
}

/// A snapshot of every method's counters; subtract two to get what a
/// gesture did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats([MethodStats; METHODS]);

impl IoStats {
    pub fn get(&self, m: Method) -> MethodStats {
        self.0[m as usize]
    }

    /// Time spent in every method.
    pub fn total_ns(&self) -> u64 {
        self.0.iter().map(|s| s.ns).sum()
    }

    pub fn since(&self, before: &IoStats) -> IoStats {
        let mut out = *self;
        for (o, b) in out.0.iter_mut().zip(before.0.iter()) {
            o.calls -= b.calls;
            o.bytes -= b.bytes;
            o.ns -= b.ns;
        }
        out
    }
}

#[derive(Debug)]
pub struct TimingVfs {
    inner: StdVfs,
    recorder: Arc<Recorder>,
    counters: [[AtomicU64; 3]; METHODS],
}

impl TimingVfs {
    pub fn new(recorder: Arc<Recorder>) -> TimingVfs {
        TimingVfs {
            inner: StdVfs::new(),
            recorder,
            counters: Default::default(),
        }
    }

    pub fn stats(&self) -> IoStats {
        let mut out = IoStats::default();
        for (o, c) in out.0.iter_mut().zip(self.counters.iter()) {
            *o = MethodStats {
                calls: c[0].load(Ordering::Relaxed),
                bytes: c[1].load(Ordering::Relaxed),
                ns: c[2].load(Ordering::Relaxed),
            };
        }
        out
    }

    fn timed<T>(&self, m: Method, bytes: u64, f: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
        let start = Instant::now();
        let out = f();
        self.note(m, bytes, start);
        out
    }

    fn note(&self, m: Method, bytes: u64, start: Instant) {
        let end = Instant::now();
        let c = &self.counters[m as usize];
        c[0].fetch_add(1, Ordering::Relaxed);
        c[1].fetch_add(bytes, Ordering::Relaxed);
        c[2].fetch_add((end - start).as_nanos() as u64, Ordering::Relaxed);
        self.recorder.leaf("store", start, end);
    }
}

impl Vfs for TimingVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let start = Instant::now();
        let out = self.inner.read(path);
        let n = out.as_ref().map_or(0, |b| b.len() as u64);
        self.note(Method::Read, n, start);
        out
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.timed(Method::Write, bytes.len() as u64, || {
            self.inner.write(path, bytes)
        })
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.timed(Method::Append, bytes.len() as u64, || {
            self.inner.append(path, bytes)
        })
    }
    fn truncate(&self, path: &Path) -> io::Result<()> {
        self.timed(Method::Other, 0, || self.inner.truncate(path))
    }
    fn truncate_to(&self, path: &Path, len: u64) -> io::Result<()> {
        self.timed(Method::Other, 0, || self.inner.truncate_to(path, len))
    }
    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.timed(Method::Sync, 0, || self.inner.sync_file(path))
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.timed(Method::Sync, 0, || self.inner.sync_dir(dir))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.timed(Method::Other, 0, || self.inner.rename(from, to))
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.timed(Method::Other, 0, || self.inner.remove_file(path))
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.timed(Method::Other, 0, || self.inner.file_len(path))
    }
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.timed(Method::Other, 0, || self.inner.read_dir(dir))
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.timed(Method::Other, 0, || self.inner.create_dir_all(dir))
    }
}
