//! The program under test, run as a child process of the bench, and
//! the parent's handle on it.
//!
//! The child is this same binary (`--server-child`): it trains the fixed
//! bench model, starts `qrec_serve::Server` with `ServerConfig::default()`
//! apart from `quant`, `data_dir` and the store's fsync policy
//! (`workloads::store_config`), and prints `READY <addr> <json>`.
//! Everything else it learns arrives as protocol lines over loopback
//! TCP. The parent sees it only through that socket, its stdout, and
//! `/proc/<pid>/{stat,status}`.

use crate::workloads::{store_config, train_bench_model, Scale, Workload};
use qrec_serve::{Client, ModelZoo, Server, ServerConfig, StatsReply};
use serde_json::json;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::mpsc::{channel, Receiver};
use std::time::{Duration, Instant};

/// How long the parent waits for a `READY` or `STOPPED` line.
const CHILD_LINE_TIMEOUT: Duration = Duration::from_secs(60);
/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`,
/// fixed at 100 on Linux).
const CLK_TCK: f64 = 100.0;

// ------------------------------------------------------------------ child

/// Body of the server child. Serves until `SHUTDOWN`; when `restarts`
/// is not 0 it then starts again on the same data directory with the
/// model the zoo persisted, as a rebooted deployment would.
pub fn run_child(
    workload: Workload,
    scale: &Scale,
    data_dir: Option<PathBuf>,
    restarts: usize,
) -> ExitCode {
    let (mut model, _catalog, generate_s, train_s) = train_bench_model(scale);
    let cfg = ServerConfig {
        quant: workload.quant(),
        data_dir: data_dir.clone(),
        store: store_config(),
        ..ServerConfig::default()
    };
    for boot in 0..=restarts {
        let t0 = Instant::now();
        let mut server = match Server::start(model, "127.0.0.1:0", cfg.clone()) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("bench_e2e child: Server::start failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let info = json!({
            "generate_s": generate_s,
            "train_s": train_s,
            "start_ms": t0.elapsed().as_secs_f64() * 1e3,
            "pool_threads": qrec_tensor::pool::configured_threads(),
        });
        println!("READY {} {}", server.local_addr(), line(&info));
        server.wait_for_shutdown_request(None);
        let rehydrated = server.sessions().rehydrated();
        server.shutdown();
        drop(server);
        println!("STOPPED {}", line(&json!({ "rehydrated": rehydrated })));
        if boot == restarts {
            break;
        }
        let dir = data_dir
            .as_deref()
            .expect("a restart needs a data directory");
        model = match ModelZoo::open(&dir.join("zoo")).and_then(|z| z.load_current()) {
            Ok(Some((_epoch, m))) => m,
            Ok(None) => {
                eprintln!("bench_e2e child: the zoo holds no model to restart from");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("bench_e2e child: zoo: {e}");
                return ExitCode::FAILURE;
            }
        };
    }
    ExitCode::SUCCESS
}

fn line(v: &serde_json::Value) -> String {
    serde_json::to_string(v).expect("a Value serialises")
}

// ----------------------------------------------------------------- parent

/// What the child reported on a `READY` line.
#[derive(Debug, Clone, Default)]
pub struct ReadyInfo {
    pub generate_s: f64,
    pub train_s: f64,
    pub start_ms: f64,
    pub pool_threads: u64,
}

/// A running server child. Dropping the handle kills the child and
/// waits for it, so a failed run leaves no process behind.
pub struct ServerHandle {
    child: Child,
    lines: Receiver<String>,
    reader: Option<std::thread::JoinHandle<()>>,
    pub addr: String,
    pub ready: ReadyInfo,
}

impl ServerHandle {
    /// Spawn the child and wait for its first `READY`.
    pub fn spawn(
        workload: Workload,
        scale: &Scale,
        data_dir: Option<&Path>,
        restarts: usize,
    ) -> Result<ServerHandle, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["--server-child", "--workload", workload.name()]);
        if scale.smoke {
            cmd.arg("--smoke");
        }
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        cmd.args(["--restarts", &restarts.to_string()]);
        // The pool size and the lock-order sanitizer change what is
        // measured; an ambient setting must not leak into the child.
        cmd.env_remove("QREC_THREADS")
            .env_remove("QREC_LOCK_ORDER_CHECK")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn server child: {e}"))?;
        let stdout = child.stdout.take().ok_or("server child has no stdout")?;
        let (tx, lines) = channel();
        let reader = std::thread::Builder::new()
            .name("bench-e2e-child-stdout".into())
            .spawn(move || {
                for l in BufReader::new(stdout).lines().map_while(Result::ok) {
                    if tx.send(l).is_err() {
                        break;
                    }
                }
            })
            .map_err(|e| format!("spawn stdout reader: {e}"))?;
        let mut handle = ServerHandle {
            child,
            lines,
            reader: Some(reader),
            addr: String::new(),
            ready: ReadyInfo::default(),
        };
        handle.await_ready()?;
        Ok(handle)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn next_line(&mut self, prefix: &str) -> Result<String, String> {
        let l = self
            .lines
            .recv_timeout(CHILD_LINE_TIMEOUT)
            .map_err(|_| format!("server child printed no {prefix} line in time"))?;
        l.strip_prefix(prefix)
            .map(|rest| rest.trim().to_string())
            .ok_or_else(|| format!("expected {prefix} from the server child, got {l:?}"))
    }

    /// Wait for a `READY <addr> <json>` line (first boot or a restart).
    pub fn await_ready(&mut self) -> Result<(), String> {
        let rest = self.next_line("READY ")?;
        let (addr, info) = rest.split_once(' ').ok_or("malformed READY line")?;
        let v: serde_json::Value =
            serde_json::from_str(info).map_err(|e| format!("READY payload: {e}"))?;
        let f = |k: &str| {
            v.as_object()
                .and_then(|o| o.get(k))
                .and_then(|x| x.as_f64())
                .unwrap_or(0.0)
        };
        self.addr = addr.to_string();
        self.ready = ReadyInfo {
            generate_s: f("generate_s"),
            train_s: f("train_s"),
            start_ms: f("start_ms"),
            pool_threads: f("pool_threads") as u64,
        };
        Ok(())
    }

    /// A control connection of its own (`STATS`, `DUMP`, `PING`,
    /// `SHUTDOWN`), through the repository's blocking client.
    pub fn control(&self) -> Result<Client, String> {
        Client::connect(self.addr.as_str()).map_err(|e| format!("control connection: {e}"))
    }

    pub fn stats(&self) -> Result<StatsReply, String> {
        self.control()?.stats().map_err(|e| format!("STATS: {e}"))
    }

    pub fn dump(&self) -> Result<String, String> {
        self.control()?.dump().map_err(|e| format!("DUMP: {e}"))
    }

    /// Ask the server to stop and wait for its `STOPPED` line; returns
    /// the number of sessions it rehydrated from disk while it ran.
    pub fn stop(&mut self) -> Result<u64, String> {
        self.control()?
            .shutdown_server()
            .map_err(|e| format!("SHUTDOWN: {e}"))?;
        let rest = self.next_line("STOPPED ")?;
        let v: serde_json::Value =
            serde_json::from_str(&rest).map_err(|e| format!("STOPPED payload: {e}"))?;
        Ok(v.as_object()
            .and_then(|o| o.get("rehydrated"))
            .and_then(|x| x.as_i128())
            .unwrap_or(0) as u64)
    }

    /// Wait for the child to exit by itself after its last `STOPPED`.
    pub fn wait_exit(mut self) -> Result<(), String> {
        let deadline = Instant::now() + CHILD_LINE_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server child exited with {status}")),
                Ok(None) if Instant::now() >= deadline => {
                    return Err("server child did not exit".into())
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("wait for server child: {e}")),
            }
        }
    }

    /// CPU seconds (user + system) the child has used so far.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.pid());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        parse_stat_cpu_ticks(&text)
            .map(|t| t as f64 / CLK_TCK)
            .ok_or_else(|| format!("{path}: unexpected format"))
    }

    /// The child's resident-set high-water mark in MiB.
    pub fn resident_hwm_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        parse_status_kb(&text, "VmHWM")
            .map(|kb| kb as f64 / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Errors are ignored: the child may already have exited.
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line, in
/// clock ticks. The command name (field 2) may itself hold spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_ascii_whitespace();
    // `after` starts at field 3 (state); utime is field 14.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The kB value of a `Key:   123 kB` line of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|l| {
        let rest = l.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (bench) e2e) (x) S 1 4242 4242 0 -1 4194560 2186 0 0 0 \
                    731 269 0 0 20 0 5 0 1234 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1000));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn stat_of_this_process_parses() {
        let text = std::fs::read_to_string("/proc/self/stat").expect("procfs");
        assert!(parse_stat_cpu_ticks(&text).is_some());
    }

    #[test]
    fn status_kb_picks_the_named_line() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(20480));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(100));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        // A key that is a prefix of another must not match it.
        assert_eq!(parse_status_kb("VmHWMx:\t1 kB\n", "VmHWM"), None);
    }
}
