//! Load generation: one closed-loop round, one open-loop round, the
//! core-clock reading the single-core workloads are normalised by (and the
//! pin that makes `service_burst` one of them), and the resident-set
//! high-water mark.

use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What one iteration of the reference chain costs at the reference clock:
/// a 6-cycle dependency chain at 4.2 GHz, the highest of the four levels
/// (1.43 / 1.62 / 1.71 / 1.82 ns) the host this was sized on moves between.
/// Another machine scales every speed by one constant.
pub const REFERENCE_NS_PER_ITER: f64 = 1.43;
/// Iterations per stretch: ≈ 0.2 ms, long enough that timer granularity is
/// below 1 % of it.
const REFERENCE_ITERS: u64 = 131_072;
/// Stretches run before timing starts (≈ 1 ms of scalar code).
const DISCARDED: usize = 4;
/// Timed stretches per reading; the reading is their median, so one stretch
/// that a context switch landed in does not move it.
const TIMED: usize = 3;
/// A closed loop takes a new reading when the last one is older than this;
/// the clock levels seen here last 0.3 s and more.
const READ_EVERY: Duration = Duration::from_millis(100);

/// Runs the xorshift64 dependency chain — serial integer work that nothing
/// but core frequency can speed up or slow down — and returns ns per
/// iteration.
fn chain_ns_per_iter() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(88_172_645_463_325_252u64);
    for _ in 0..REFERENCE_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t0.elapsed().as_nanos() as f64 / REFERENCE_ITERS as f64
}

/// The calling core's clock relative to the reference clock, right now: 1.0
/// at the reference clock, below 1 on a slower clock. ≈ 1.5 ms.
///
/// Why it exists: with one vCPU busy and the other idle, the host this runs
/// on moves the busy core between four clock levels, 27 % apart, every
/// 0.3–10 s (measured: the same `compute_dcam` at 7.9 and at 10.4 ms, the
/// chain in lockstep). A run is too short to average that out, so the
/// wall-clock medians of identical single-threaded code spread by 6–27 %
/// from run to run.
///
/// Only the workloads whose work runs on the core the generator reads are
/// normalised (`clocked`): the engine workloads, which work on the
/// generator's own thread, and `service_burst`, whose generator and single
/// worker are pinned to one core ([`pin_to`]). The levels are
/// per core, and a reading says nothing about a core another thread works
/// on. Every round also keeps the times the wall clock read. The first stretches are discarded so that the reading is not taken
/// in the tail of the operation before it: after ≈ 1 ms of scalar code the
/// frequency licence the f32 kernels took has lapsed, the int8 kernels'
/// mostly (the README's "limits of the correction" has the measurements).
pub fn clock_speed() -> f64 {
    for _ in 0..DISCARDED {
        chain_ns_per_iter();
    }
    let timed: Vec<f64> = (0..TIMED).map(|_| chain_ns_per_iter()).collect();
    REFERENCE_NS_PER_ITER / median(&timed)
}

/// What one round of one generator produced. `attempted` is
/// `latencies_ms.len() + failed`.
#[derive(Debug, Clone)]
pub struct Round {
    /// Wall-clock latency of every operation that succeeded (open loop: that
    /// also met the limit), in completion order.
    pub latencies_ms: Vec<f64>,
    /// The same latencies at the reference clock: each × the clock speed
    /// read last before it started. Equal to `latencies_ms` when the round
    /// was not clocked.
    pub reference_ms: Vec<f64>,
    /// Errors, refusals, wrong answers and (open loop) over-limit requests.
    pub failed: usize,
    /// Wall time the round covered, without the time a closed loop spent
    /// reading the clock.
    pub wall_s: f64,
    /// `wall_s` at the reference clock. A closed loop's operation count
    /// follows the clock: its operations count at their reference latencies
    /// and the rest of the round × `speed`. An open loop's schedule does
    /// not: `wall_s` itself.
    pub reference_wall_s: f64,
    /// Open loop only: how late the generator ran at worst.
    pub late_max_ms: f64,
    /// Median clock speed read during the round; 1.0 when it was not
    /// clocked.
    pub speed: f64,
}

impl Default for Round {
    fn default() -> Self {
        Round {
            latencies_ms: Vec::new(),
            reference_ms: Vec::new(),
            failed: 0,
            wall_s: 0.0,
            reference_wall_s: 0.0,
            late_max_ms: 0.0,
            speed: 1.0,
        }
    }
}

impl Round {
    pub fn attempted(&self) -> usize {
        self.latencies_ms.len() + self.failed
    }

    fn succeeded(&mut self, wall_ms: f64, speed: f64) {
        self.latencies_ms.push(wall_ms);
        self.reference_ms.push(wall_ms * speed);
    }

    /// Successful operations per second of round wall time, as the wall
    /// clock read it or at the reference clock.
    pub fn throughput(&self, at_reference: bool) -> f64 {
        let wall_s = if at_reference {
            self.reference_wall_s
        } else {
            self.wall_s
        };
        self.latencies_ms.len() as f64 / wall_s
    }

    /// Folds in a concurrent generator's round (same start, same length),
    /// or a later round of the same generator when pooling passes.
    pub fn merge(&mut self, other: Round) {
        let (n, m) = (self.attempted() as f64, other.attempted() as f64);
        if n + m > 0.0 {
            self.speed = (self.speed * n + other.speed * m) / (n + m);
        }
        self.latencies_ms.extend(other.latencies_ms);
        self.reference_ms.extend(other.reference_ms);
        self.failed += other.failed;
        self.wall_s = self.wall_s.max(other.wall_s);
        self.reference_wall_s = self.reference_wall_s.max(other.reference_wall_s);
        self.late_max_ms = self.late_max_ms.max(other.late_max_ms);
    }
}

/// Closed loop, one caller: the next operation starts when the previous one
/// returns, until `len` has passed. `op(i)` runs operation number `i` (the
/// caller maps it onto its input pool) and says whether it succeeded; `next`
/// carries the operation counter across rounds. `clocked` reads the clock
/// between operations (see [`clock_speed`]); pass it only when `op` does its
/// work on the calling thread.
pub fn closed_round(
    len: Duration,
    next: &mut usize,
    clocked: bool,
    mut op: impl FnMut(usize) -> bool,
) -> Round {
    let mut round = Round::default();
    let mut readings = Vec::new();
    let mut reading_s = 0.0;
    let mut read_at: Option<Instant> = None;
    let start = Instant::now();
    loop {
        if clocked && read_at.is_none_or(|t| t.elapsed() >= READ_EVERY) {
            let began = Instant::now();
            readings.push(clock_speed());
            read_at = Some(Instant::now());
            reading_s += began.elapsed().as_secs_f64();
        }
        let speed = readings.last().copied().unwrap_or(1.0);
        let t0 = Instant::now();
        if t0.duration_since(start) >= len {
            break;
        }
        let ok = op(*next);
        *next += 1;
        if ok {
            round.succeeded(t0.elapsed().as_secs_f64() * 1e3, speed);
        } else {
            round.failed += 1;
        }
    }
    round.wall_s = start.elapsed().as_secs_f64() - reading_s;
    if !readings.is_empty() {
        round.speed = median(&readings);
    }
    // Each operation's time at the reading it was timed under; what is left
    // of the round (the loop itself, failed operations) at the median one.
    let in_ops_s = round.latencies_ms.iter().sum::<f64>() / 1e3;
    let in_ops_reference_s = round.reference_ms.iter().sum::<f64>() / 1e3;
    round.reference_wall_s = in_ops_reference_s + (round.wall_s - in_ops_s) * round.speed;
    round
}

/// The open-loop schedule: `burst` requests every `period`, each held to
/// `limit` measured from the instant its burst was due.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    pub burst: usize,
    pub period: Duration,
    pub limit: Duration,
}

/// How long the generator naps between polls of the outstanding requests;
/// bounds both its lateness and the resolution of an observed completion.
const POLL_NAP: Duration = Duration::from_micros(200);
/// A clocked open loop reads the clock only when the next burst is at least
/// this far off, so that a reading (≈ 1.5 ms) never makes a burst late.
const READING_ROOM: Duration = Duration::from_millis(5);

/// The clock readings of a clocked open loop. A reading is taken in the idle
/// gap once everything sent has drained — while requests are running the
/// core is theirs — and applies to every latency observed since the reading
/// before it: the burst that has just run, ≈ 0.1 s of the 0.3 s and more a
/// clock level lasts.
#[derive(Default)]
struct GapReadings {
    readings: Vec<f64>,
    /// Latencies from this index on still await their reading.
    unread: usize,
}

impl GapReadings {
    fn owed(&self, round: &Round) -> bool {
        self.unread < round.reference_ms.len()
    }

    fn read(&mut self, round: &mut Round) {
        let speed = clock_speed();
        self.readings.push(speed);
        for latency in &mut round.reference_ms[self.unread..] {
            *latency *= speed;
        }
        self.unread = round.reference_ms.len();
    }
}

/// Open loop, one generator thread: `bursts` bursts go out on the schedule
/// whether or not earlier ones have completed. `submit(i)` sends request
/// number `i` and returns its handle (or `None` when refused); `poll` says
/// `Some(ok)` once a request has completed. `clocked` reads the clock after
/// each burst has drained (see [`clock_speed`]); pass it only when the
/// requests are served on the core this thread runs on.
///
/// A request's latency runs **from the instant its burst was due**, not from
/// when it was actually sent, so a generator or submit stall is charged to
/// the requests it delayed. A request that errs, is refused, or has not
/// completed correctly within `limit` of its due instant counts as failed.
pub fn open_round<H>(
    cfg: OpenLoop,
    bursts: usize,
    next: &mut usize,
    clocked: bool,
    mut submit: impl FnMut(usize) -> Option<H>,
    mut poll: impl FnMut(&H) -> Option<bool>,
) -> Round {
    let mut round = Round::default();
    let mut gaps = GapReadings::default();
    let start = Instant::now();
    // (due instant, handle) of every request still in flight.
    let mut pending: Vec<(Instant, H)> = Vec::new();

    let mut sweep = |pending: &mut Vec<(Instant, H)>, round: &mut Round| {
        let now = Instant::now();
        pending.retain(|(due, h)| {
            let waited = now.duration_since(*due);
            match poll(h) {
                Some(true) if waited <= cfg.limit => {
                    round.succeeded(waited.as_secs_f64() * 1e3, 1.0);
                    false
                }
                // Completed late, completed wrong, or still running past
                // its limit: a miss either way, and no longer worth polling.
                Some(_) => {
                    round.failed += 1;
                    false
                }
                None if waited > cfg.limit => {
                    round.failed += 1;
                    false
                }
                None => true,
            }
        });
    };

    for b in 0..bursts {
        let due = start + cfg.period * b as u32;
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            sweep(&mut pending, &mut round);
            let room = due.saturating_duration_since(Instant::now());
            if clocked && pending.is_empty() && gaps.owed(&round) && room >= READING_ROOM {
                gaps.read(&mut round);
            }
            std::thread::sleep(POLL_NAP.min(due.saturating_duration_since(Instant::now())));
        }
        let late = Instant::now().duration_since(due).as_secs_f64() * 1e3;
        round.late_max_ms = round.late_max_ms.max(late);
        for _ in 0..cfg.burst {
            match submit(*next) {
                Some(h) => pending.push((due, h)),
                None => round.failed += 1,
            }
            *next += 1;
        }
    }
    // The round covers its whole schedule; stragglers get until their limit.
    let end = start + cfg.period * bursts as u32;
    while !pending.is_empty() || Instant::now() < end {
        sweep(&mut pending, &mut round);
        if clocked && pending.is_empty() && gaps.owed(&round) {
            gaps.read(&mut round);
        }
        std::thread::sleep(POLL_NAP);
    }
    round.wall_s = start.elapsed().as_secs_f64();
    // The schedule, not the clock, sets how many requests a round holds.
    round.reference_wall_s = round.wall_s;
    if !gaps.readings.is_empty() {
        round.speed = median(&gaps.readings);
    }
    round
}

/// Which core [`pin_to`] narrows the calling thread to.
#[derive(Debug, Clone, Copy)]
pub enum Core {
    /// The one the thread is running on.
    Current,
    /// The n-th (from 0) of those the thread may run on now.
    Nth(usize),
}

/// Pins the calling thread — and every thread it spawns from now on — to one
/// core, until the guard is dropped. Two uses, both to take a freedom from
/// the scheduler that otherwise decides a run's result (README "Placement"):
/// `service_burst` puts the service's single worker and the open-loop
/// generator on one core, so that a reading the generator takes in the gap
/// after a burst is a reading of the core that burst ran on; the HTTP tier
/// puts the shard on one core and the router with the generator's
/// connections on another. `None` where the platform has no such call,
/// refuses it, or has no such core; the caller then runs unpinned.
pub fn pin_to(core: Core) -> Option<Pinned> {
    affinity::pin(core)
}

/// Restores the affinity the thread had before [`pin_to`]. Not `Send`: it
/// must be dropped on the thread it pinned.
pub struct Pinned {
    #[cfg_attr(not(target_os = "linux"), allow(dead_code))]
    before: affinity::Mask,
    on_its_thread: std::marker::PhantomData<*const ()>,
}

impl Drop for Pinned {
    fn drop(&mut self) {
        affinity::restore(&self.before);
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    use super::{Core, Pinned};

    /// Room for 1024 cores, the size of glibc's `cpu_set_t`.
    pub type Mask = [u64; 16];

    // From the C library std already links.
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    fn set(mask: &Mask) -> bool {
        // SAFETY: `mask` is a live, readable buffer of the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }

    pub fn pin(core: Core) -> Option<Pinned> {
        let mut before: Mask = [0; 16];
        // SAFETY: `before` is a live, writable buffer of the size passed.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), before.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = match core {
            // SAFETY: takes no arguments.
            Core::Current => usize::try_from(unsafe { sched_getcpu() }).ok()?,
            Core::Nth(n) => (0..64 * before.len())
                .filter(|cpu| before[cpu / 64] >> (cpu % 64) & 1 == 1)
                .nth(n)?,
        };
        let mut one: Mask = [0; 16];
        *one.get_mut(cpu / 64)? = 1 << (cpu % 64);
        set(&one).then_some(Pinned {
            before,
            on_its_thread: std::marker::PhantomData,
        })
    }

    pub fn restore(before: &Mask) {
        set(before);
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub type Mask = ();
    pub fn pin(_: super::Core) -> Option<super::Pinned> {
        None
    }
    pub fn restore(_: &Mask) {}
}

/// Resets the kernel's resident-set high-water mark of this process, so the
/// next [`peak_rss_mb`] reads the peak since now. Returns whether the kernel
/// allowed it (otherwise the peak stays that of the whole process).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` of this process in MB (0 where `/proc` does not provide it).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn closed_round_counts_failures_apart_from_latencies() {
        let mut next = 5;
        let r = closed_round(Duration::from_millis(30), &mut next, false, |i| {
            std::thread::sleep(Duration::from_millis(2));
            i % 3 != 0
        });
        assert!(r.attempted() >= 5 && r.failed >= 1);
        assert_eq!(next, 5 + r.attempted());
        assert!(r.latencies_ms.iter().all(|&l| l >= 2.0), "{r:?}");
        assert!(r.wall_s >= 0.030);
        // Not clocked: the reference figures are the wall-clock figures.
        assert_eq!((r.speed, &r.reference_ms), (1.0, &r.latencies_ms));
    }

    #[test]
    fn a_clocked_round_keeps_wall_clock_and_reference_latencies() {
        let mut next = 0;
        let r = closed_round(Duration::from_millis(250), &mut next, true, |_| {
            std::thread::sleep(Duration::from_millis(5));
            true
        });
        assert!(r.speed > 0.05 && r.speed < 20.0, "clock speed {}", r.speed);
        assert_eq!(r.latencies_ms.len(), r.reference_ms.len());
        // Each reference latency is its wall-clock latency × a reading.
        for (wall, reference) in r.latencies_ms.iter().zip(&r.reference_ms) {
            let speed = reference / wall;
            assert!((0.5 * r.speed..2.0 * r.speed).contains(&speed), "{r:?}");
        }
        let ops_s: f64 = r.latencies_ms.iter().sum::<f64>() / 1e3;
        assert!(r.wall_s >= ops_s, "{r:?}");
        // A closed loop's operation count follows the clock, so its
        // throughput is normalised too: by the same readings as its
        // latencies.
        let reference_ops_s: f64 = r.reference_ms.iter().sum::<f64>() / 1e3;
        let rest_s = (r.wall_s - ops_s) * r.speed;
        assert!((r.reference_wall_s - reference_ops_s - rest_s).abs() < 1e-9);
    }

    #[test]
    fn a_clocked_open_round_reads_the_clock_after_each_burst() {
        let cfg = OpenLoop {
            burst: 2,
            period: Duration::from_millis(60),
            limit: Duration::from_millis(250),
        };
        let mut next = 0;
        let r = open_round(
            cfg,
            3,
            &mut next,
            true,
            |_| Some(Instant::now()),
            fake_poll(Duration::from_millis(20)),
        );
        assert_eq!((r.attempted(), r.failed), (6, 0));
        assert!(r.speed > 0.05 && r.speed < 20.0, "clock speed {}", r.speed);
        // Both requests of a burst carry the reading taken once it drained.
        let speeds: Vec<f64> = r
            .reference_ms
            .iter()
            .zip(&r.latencies_ms)
            .map(|(reference, wall)| reference / wall)
            .collect();
        for burst in speeds.chunks(2) {
            assert!((burst[0] - burst[1]).abs() < 1e-9, "{speeds:?}");
            assert!((0.5 * r.speed..2.0 * r.speed).contains(&burst[0]), "{r:?}");
        }
        // The readings fit in the gaps: no burst went out late for them, and
        // the schedule, not the clock, sets the throughput.
        assert!(r.late_max_ms < 5.0, "generator late {}", r.late_max_ms);
        assert_eq!(r.throughput(true), r.throughput(false));
    }

    #[test]
    fn pinning_narrows_the_thread_to_one_core_until_dropped() {
        let cores = || std::thread::available_parallelism().map_or(0, |n| n.get());
        let before = cores();
        for core in [Core::Current, Core::Nth(0)] {
            let pinned = pin_to(core);
            assert_eq!(pinned.is_some(), cfg!(target_os = "linux"), "{core:?}");
            let Some(pinned) = pinned else { return };
            assert_eq!(cores(), 1);
            // A thread spawned while pinned starts on the same single core.
            assert_eq!(std::thread::spawn(cores).join().unwrap(), 1);
            drop(pinned);
            assert_eq!(cores(), before);
        }
        // There is no core beyond those the thread may run on.
        assert!(pin_to(Core::Nth(before)).is_none());
        assert_eq!(cores(), before);
    }

    /// A fake backend whose requests complete `service` after they were
    /// actually sent.
    fn fake_poll(service: Duration) -> impl FnMut(&Instant) -> Option<bool> {
        move |sent: &Instant| (sent.elapsed() >= service).then_some(true)
    }

    #[test]
    fn open_loop_times_from_due_instant_not_from_send() {
        let cfg = OpenLoop {
            burst: 2,
            period: Duration::from_millis(100),
            limit: Duration::from_millis(250),
        };
        let mut next = 0;
        let r = open_round(
            cfg,
            4,
            &mut next,
            false,
            |_| Some(Instant::now()),
            fake_poll(Duration::from_millis(20)),
        );
        assert_eq!((r.attempted(), r.failed, next), (8, 0, 8));
        assert!(r.latencies_ms.iter().all(|&l| (20.0..60.0).contains(&l)));
        assert!((r.throughput(false) - 8.0 / r.wall_s).abs() < 1e-9);
        // Not clocked: the reference figures are the wall-clock figures.
        assert_eq!(r.throughput(true), r.throughput(false));
        assert_eq!((r.speed, &r.reference_ms), (1.0, &r.latencies_ms));
        assert!(r.late_max_ms < 5.0, "generator late {}", r.late_max_ms);
        assert!(r.wall_s >= 0.4);
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_it_delays() {
        // Burst 0's first submit stalls 300 ms. Its own handle is sent at
        // once, but everything behind it goes out late: the rest of burst 0
        // (due at 0, sent at ≈ 300 ms) and bursts 1 and 2 (due at 100 and
        // 200 ms, sent at ≈ 300 ms). Measured from send they would all read
        // 20 ms; measured from due they read ≈ 320, 220 and 120 ms — so the
        // following requests' latencies lengthen and the 250 ms limit trips.
        let cfg = OpenLoop {
            burst: 2,
            period: Duration::from_millis(100),
            limit: Duration::from_millis(250),
        };
        let stalled = Cell::new(false);
        let mut next = 0;
        let r = open_round(
            cfg,
            4,
            &mut next,
            false,
            |i| {
                let sent = Instant::now();
                if i == 0 && !stalled.replace(true) {
                    std::thread::sleep(Duration::from_millis(300));
                }
                Some(sent)
            },
            fake_poll(Duration::from_millis(20)),
        );
        assert_eq!(r.attempted(), 8);
        // Request 0 (completed during the stall, observed at ≈ 300 ms) and
        // request 1 (sent at ≈ 300 ms) both miss the limit.
        assert_eq!(r.failed, 2, "latencies {:?}", r.latencies_ms);
        let mut lat = r.latencies_ms.clone();
        lat.sort_by(f64::total_cmp);
        // Burst 3 (due at 300 ms) is on time again; bursts 2 and 1 carry
        // the stall: ≈ 120 ms and ≈ 220 ms instead of 20 ms.
        assert!(lat[0] < 60.0 && lat[1] < 60.0, "{lat:?}");
        assert!((100.0..180.0).contains(&lat[2]), "{lat:?}");
        assert!((200.0..260.0).contains(&lat[5]), "{lat:?}");
        assert!(r.late_max_ms >= 190.0, "late_max {}", r.late_max_ms);
    }

    #[test]
    fn merging_pools_latencies_and_weights_the_speed() {
        let mut a = Round {
            speed: 0.8,
            ..Round::default()
        };
        (0..50).for_each(|_| a.succeeded(10.0, 0.8));
        let mut b = Round::default();
        (0..150).for_each(|_| b.succeeded(8.0, 1.0));
        a.merge(b);
        assert_eq!((a.latencies_ms.len(), a.reference_ms.len()), (200, 200));
        assert!(a.reference_ms.iter().all(|&l| l == 8.0));
        assert!((a.speed - 0.95).abs() < 1e-9);
    }

    #[test]
    fn refusals_and_wrong_answers_fail() {
        let cfg = OpenLoop {
            burst: 3,
            period: Duration::from_millis(20),
            limit: Duration::from_millis(50),
        };
        let mut next = 0;
        let r = open_round(
            cfg,
            1,
            &mut next,
            false,
            |i| (i != 0).then_some(i),
            |&i| Some(i != 1),
        );
        assert_eq!((r.attempted(), r.failed, r.latencies_ms.len()), (3, 2, 1));
    }

    #[test]
    fn peak_rss_reads_something_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
