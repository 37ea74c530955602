//! `spawn`: runs one command and reports its wall time, exit code and
//! peak resident set.
//!
//! The peak comes from `wait4`'s `ru_maxrss`. Linux folds the resident
//! high-water mark of the address space a process leaves at `exec` into
//! that figure, and a process started with `vfork` (as Python's
//! `subprocess` does) leaves its parent's. Started from this small
//! process instead, a command's figure has this process's few MiB as its
//! floor rather than the caller's.

use std::os::raw::{c_int, c_long};
use std::process::Command;
use std::time::Instant;

use fua::trace::Json;

/// `struct rusage` as Linux lays it out.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
}

/// Runs `argv` with this process's stdin, stdout and stderr, waits for
/// it, and returns `{"seconds", "code", "maxrss_kib"}`. A command killed
/// by signal `n` reports code `-n`.
pub fn run(argv: &[String]) -> Result<Json, String> {
    let (program, args) = argv.split_first().ok_or("spawn needs a command")?;
    let start = Instant::now();
    let child = Command::new(program)
        .args(args)
        .spawn()
        .map_err(|e| format!("starting {program}: {e}"))?;
    let mut status: c_int = 0;
    let mut usage = Rusage::default();
    // SAFETY: `status` and `usage` are live, writable and laid out as
    // wait4 expects; the pid is our own unreaped child.
    let pid = unsafe { wait4(child.id() as c_int, &mut status, 0, &mut usage) };
    let seconds = start.elapsed().as_secs_f64();
    if pid < 0 {
        return Err(format!("wait4: {}", std::io::Error::last_os_error()));
    }
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -(status & 0x7f)
    };
    Ok(Json::obj([
        ("seconds", Json::Float(seconds)),
        ("code", Json::Int(code as i64)),
        ("maxrss_kib", Json::UInt(usage.maxrss as u64)),
    ]))
}
