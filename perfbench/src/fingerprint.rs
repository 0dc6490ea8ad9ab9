//! The machine and configuration a result was measured on.

use flo_json::Json;
use std::process::Command;

fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    Some(text.lines().next()?.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `(rev, dirty)` of the source tree, or `None` outside a git checkout.
fn git_rev() -> Option<(String, bool)> {
    let rev = first_line("git", &["rev-parse", "HEAD"])?;
    let dirty = Command::new("git")
        .args(["status", "--porcelain", "--untracked-files=no"])
        .output()
        .ok()
        .is_some_and(|o| !o.stdout.is_empty());
    Some((rev, dirty))
}

/// Every `FLO_*` variable the benchmark process inherited, merged with
/// the values the workload resolved for the program (`resolved` wins),
/// sorted by name.
pub fn flo_env(resolved: &[(&str, String)]) -> Json {
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("FLO_"))
        .collect();
    for (k, v) in resolved {
        match vars.iter_mut().find(|(name, _)| name == k) {
            Some(slot) => slot.1 = v.clone(),
            None => vars.push((k.to_string(), v.clone())),
        }
    }
    vars.sort();
    let mut j = Json::obj();
    for (k, v) in vars {
        j = j.set(&k, v.as_str());
    }
    j
}

/// The fingerprint object recorded with every result.
pub fn fingerprint(workload: &str, seed: u64, resolved_env: &[(&str, String)]) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let rustc = first_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let (rev, dirty) = match git_rev() {
        Some((rev, dirty)) => (Json::from(rev.as_str()), Json::Bool(dirty)),
        None => (Json::Null, Json::Null),
    };
    Json::obj()
        .set("cpu_model", cpu_model().as_str())
        .set("nproc", nproc as u64)
        .set("kernel", kernel.as_str())
        .set("rustc", rustc.as_str())
        .set("git_rev", rev)
        .set("git_dirty", dirty)
        .set("flo_env", flo_env(resolved_env))
        .set("workload", workload)
        .set("seed", seed)
}
