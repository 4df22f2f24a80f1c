//! The program under test as a child process: `qsync-serve serve` on a
//! loopback port, with the flags and environment [`crate::config`] fixes.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::config;

/// A path beside this executable, in the build directory it runs from (so
/// inside the checkout): where `qsync-serve` is, and where scratch and trace
/// files go.
pub fn beside_executable(file_name: &str) -> Result<PathBuf, String> {
    let own = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    Ok(own.with_file_name(file_name))
}

/// The `qsync-serve` the same build produced.
pub fn serve_binary() -> Result<PathBuf, String> {
    let path = beside_executable("qsync-serve")?;
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found: build the repository's qsync-serve first",
            path.display()
        ))
    }
}

pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// Drains the child's stderr so it never blocks on a full pipe.
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawn the server and wait for its `listening on` line.
    pub fn spawn(bin: &Path, store: Option<&Path>) -> Result<Server, String> {
        let mut command = Command::new(bin);
        command.args(config::SERVER_ARGS);
        if let Some(store) = store {
            command.arg("--store").arg(store);
        }
        for (name, value) in config::SERVER_ENV {
            command.env(name, value);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stderr = BufReader::new(child.stderr.take().expect("stderr was piped"));
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in stderr.lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("qsync-serve: listening on ") {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        });
        let mut server = Server {
            child,
            addr: ([127, 0, 0, 1], 0).into(),
            stderr: Some(reader),
        };
        match rx.recv_timeout(Duration::from_secs(20)) {
            Ok(addr) => match addr.parse() {
                Ok(addr) => {
                    server.addr = addr;
                    Ok(server)
                }
                Err(e) => {
                    server.stop();
                    Err(format!("unparseable listen address {addr:?}: {e}"))
                }
            },
            Err(_) => {
                let status = server
                    .exit_status()
                    .unwrap_or_else(|| "still running".into());
                server.stop();
                Err(format!("qsync-serve never reported its address ({status})"))
            }
        }
    }

    /// Peak resident set of the child so far (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// `None` while the child runs; its exit code or signal once it is gone.
    pub fn exit_status(&mut self) -> Option<String> {
        use std::os::unix::process::ExitStatusExt;
        match self.child.try_wait() {
            Ok(None) => None,
            Ok(Some(status)) => Some(match (status.code(), status.signal()) {
                (Some(code), _) => format!("exit code {code}"),
                (None, Some(signal)) => format!("signal {signal}"),
                (None, None) => "unknown status".into(),
            }),
            Err(e) => Some(format!("wait failed: {e}")),
        }
    }

    /// Kill the child, reap it and join the stderr reader.
    pub fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let status =
        std::fs::read_to_string(status_path).map_err(|e| format!("read {status_path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {status_path}"))
}
