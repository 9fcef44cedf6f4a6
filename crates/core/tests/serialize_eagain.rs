//! A full signal queue must not mark a live thread gone.
//!
//! `pthread_sigqueue` fails with `EAGAIN` while the process's
//! `RLIMIT_SIGPENDING` is exhausted. That is transient: the target is
//! alive and still needs serializing, so `RemoteThread::serialize` must
//! retry, not deactivate the slot (which would drop the thread from every
//! later serialization). This test lowers its own process's limit to 0,
//! starts a serialization, and restores the limit from another thread.
//! It is a binary of its own because the limit is process-wide.

use lbmf::registry::register_current_thread;
use lbmf::sys;
use std::os::raw::{c_int, c_void};
use std::os::unix::thread::JoinHandleExt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const RLIMIT_SIGPENDING: c_int = 11;

#[repr(C)]
#[derive(Clone, Copy, Debug)]
struct Rlimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
}

fn set_sigpending(limit: Rlimit) {
    // SAFETY: a valid pointer to a plain struct.
    assert_eq!(
        unsafe { setrlimit(RLIMIT_SIGPENDING, &limit) },
        0,
        "setrlimit"
    );
}

#[test]
fn eagain_retries_and_keeps_the_target_active() {
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel();
    let stop2 = stop.clone();
    let target = std::thread::spawn(move || {
        let reg = register_current_thread();
        tx.send(reg.remote()).unwrap();
        while !stop2.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    let remote = rx.recv().unwrap();

    let mut saved = Rlimit { cur: 0, max: 0 };
    // SAFETY: a valid out-pointer.
    assert_eq!(unsafe { getrlimit(RLIMIT_SIGPENDING, &mut saved) }, 0);
    set_sigpending(Rlimit {
        cur: 0,
        max: saved.max,
    });
    // The premise: with the limit at 0 the kernel refuses to queue. (A
    // null payload is harmless: the handler ignores it.)
    let probe = sys::sigval {
        sival_ptr: std::ptr::null_mut::<c_void>(),
    };
    let pthread = target.as_pthread_t() as sys::pthread_t;
    // SAFETY: the target is alive and registered (handler installed).
    let rc = unsafe { sys::pthread_sigqueue(pthread, sys::SIGRTMIN() + 3, probe) };
    assert_eq!(
        rc,
        sys::EAGAIN,
        "RLIMIT_SIGPENDING = 0 must make sigqueue fail"
    );

    // The sleep only makes the retry loop likely to spin for a while; a
    // late serialize call would pass without exercising it, never fail.
    let restorer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        set_sigpending(saved);
    });
    let acks = remote.slot().acks();
    let serialized = remote.serialize();
    restorer.join().unwrap();

    assert!(serialized, "a full signal queue is not a dead thread");
    assert!(remote.slot().is_active(), "the target must stay registered");
    assert!(remote.slot().acks() > acks, "the round trip completed");
    stop.store(true, Ordering::Relaxed);
    target.join().unwrap();
}
