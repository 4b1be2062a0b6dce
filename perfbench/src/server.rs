//! A `hyperq serve` child process at default options, with its journal,
//! artifacts and scenario cache in one directory of the run.

use hq_bench::service::{Client, Request, Response, StatusReport};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running server. Dropping it kills and reaps the child, so no
/// server outlives the benchmark even when a workload panics.
pub struct Server {
    child: Option<Child>,
    pub socket: PathBuf,
    pub dir: PathBuf,
}

impl Server {
    /// Spawn `hyperq serve` on a fresh directory and wait until it
    /// answers a ping.
    pub fn boot(dir: &Path) -> Result<Server, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let socket = dir.join("svc.sock");
        let path = |p: PathBuf| p.to_str().expect("run paths are UTF-8").to_string();
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let child = Command::new(exe)
            .args(["--serve-child", "serve", "--socket"])
            .arg(path(socket.clone()))
            .arg("--journal")
            .arg(path(dir.join("journal").join("service.wal")))
            .arg("--artifact-dir")
            .arg(path(dir.join("artifacts")))
            .env("HQ_RESULTS", dir.join("results"))
            .env_remove("HQ_SCENARIO_CACHE")
            .env_remove("HQ_AUDIT")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut server = Server {
            child: Some(child),
            socket,
            dir: dir.to_path_buf(),
        };
        let give_up = Instant::now() + Duration::from_secs(20);
        // The server's accept loop polls every 25 ms. Wait until its
        // socket is bound, then a little longer, so the first ping
        // always lands after the loop's first poll and boot time does
        // not flip between two values depending on that race.
        while !server.socket.exists() && Instant::now() < give_up {
            std::thread::sleep(Duration::from_micros(500));
        }
        std::thread::sleep(Duration::from_millis(2));
        loop {
            if let Ok(mut c) = Client::connect(&server.socket) {
                if let Ok(Response::Pong) = c.call(&Request::Ping) {
                    return Ok(server);
                }
            }
            if let Some(status) = server
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok())
                .flatten()
            {
                server.child = None;
                return Err(format!("server exited during boot: {status}"));
            }
            if Instant::now() > give_up {
                return Err("server did not answer a ping within 20 s".to_string());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// A new connection to the server.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.socket)
    }

    /// The server's counters.
    pub fn status(&self) -> Result<StatusReport, String> {
        match self.connect()?.call(&Request::Status)? {
            Response::Status(s) => Ok(s),
            other => Err(format!("status answered {other:?}")),
        }
    }

    /// Peak resident set (`VmHWM`) of the server process, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let pid = self.child.as_ref().ok_or("server not running")?.id();
        vm_hwm_mb(&format!("/proc/{pid}/status"))
    }

    /// Drain and stop the server, and wait for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let said_bye = matches!(
            self.connect().and_then(|mut c| c.call(&Request::Shutdown)),
            Ok(Response::Bye { .. })
        );
        let mut child = self.child.take().expect("server running until shutdown");
        let give_up = Instant::now() + Duration::from_secs(30);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() && said_bye => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < give_up => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server did not drain within 30 s".to_string());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MB.
pub fn vm_hwm_mb(status_path: &str) -> Result<f64, String> {
    let text =
        std::fs::read_to_string(status_path).map_err(|e| format!("read {status_path}: {e}"))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {status_path}"))?;
    Ok(kb / 1024.0)
}
