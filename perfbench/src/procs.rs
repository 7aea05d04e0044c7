//! Shard server processes.
//!
//! Each shard server is this benchmark's own executable started in its
//! `shard-server` mode, which serves one shard through the program's
//! public `ShardServer::spawn` and announces `LISTENING <addr>` on
//! stdout. There is no fallback to an in-process server: a child that
//! fails to start fails the run. Children are killed and reaped when
//! [`ShardProcs`] is stopped or dropped, on every exit path; a child also
//! exits on its own once its stdin closes, so a parent that dies without
//! unwinding leaves nothing behind.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};

use crate::Result;

/// Running shard server processes.
#[derive(Default)]
pub struct ShardProcs {
    children: Vec<Child>,
}

impl ShardProcs {
    /// Start a server for `shard` of the sharded catalog in `dir`;
    /// returns the endpoint it listens on.
    pub fn spawn(&mut self, exe: &Path, dir: &Path, shard: usize) -> Result<String> {
        let mut child = Command::new(exe)
            .arg("shard-server")
            .arg("--dir")
            .arg(dir)
            .arg("--shard")
            .arg(shard.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn shard server {}: {e}", exe.display()))?;
        let stdout = child.stdout.take();
        self.children.push(child);
        let mut line = String::new();
        if let Some(out) = stdout {
            BufReader::new(out).read_line(&mut line).map_err(|e| format!("read banner: {e}"))?;
        }
        line.trim()
            .strip_prefix("LISTENING ")
            .map(str::to_string)
            .ok_or_else(|| format!("shard server {shard} did not start (banner {line:?})"))
    }

    /// Peak resident set (`VmHWM`) summed over the running children, in
    /// KiB.
    pub fn peak_rss_kib(&self) -> u64 {
        self.children.iter().map(|c| crate::host::vm_hwm_kib_of(&c.id().to_string())).sum()
    }

    /// Kill and reap every child.
    pub fn stop(&mut self) {
        for mut c in self.children.drain(..) {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

impl Drop for ShardProcs {
    fn drop(&mut self) {
        self.stop();
    }
}
