//! Open-loop load generation: every operation has a due time fixed by the
//! schedule, and is sent at that time whether or not earlier operations
//! have completed. A stall in the sender (or backpressure from the
//! system) makes later operations late; their latency is measured from
//! the due time, so the stall is charged to every operation it delayed.

use std::time::{Duration, Instant};

/// A fixed-rate schedule: operation `i` is due `i / rate` seconds after
/// the start.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    /// Operations per second.
    pub rate: f64,
    /// Number of operations.
    pub count: usize,
}

impl Schedule {
    /// Offset of operation `i`'s due time from the start.
    pub fn offset(&self, i: usize) -> Duration {
        Duration::from_secs_f64(i as f64 / self.rate)
    }
}

/// Sends every operation of `schedule` at its due time: sleeps until the
/// due time when early, sends at once when late. `send(i, due)` must not
/// wait for the operation to complete. When the generator is more than
/// `lead` early for operation `i`, it calls `idle(i)` `lead` before the
/// due time (side work that must not delay the send; it should take well
/// under `lead`). Returns each operation's lateness in seconds (send start
/// minus due time).
pub fn drive(
    schedule: &Schedule,
    start: Instant,
    lead: Duration,
    mut idle: impl FnMut(usize),
    mut send: impl FnMut(usize, Instant),
) -> Vec<f64> {
    let mut late = Vec::with_capacity(schedule.count);
    for i in 0..schedule.count {
        let due = start + schedule.offset(i);
        let now = Instant::now();
        if now + lead < due {
            std::thread::sleep(due - lead - now);
            idle(i);
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        late.push(Instant::now().saturating_duration_since(due).as_secs_f64());
        send(i, due);
    }
    late
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stall inside one send delays every later operation until the
    /// generator catches up, and their latency from due time carries it.
    #[test]
    fn a_stall_is_carried_by_later_operations() {
        const STALL: Duration = Duration::from_millis(40);
        let schedule = Schedule {
            rate: 1000.0,
            count: 80,
        };
        let mut latency = vec![0.0; schedule.count];
        let start = Instant::now();
        let late = drive(
            &schedule,
            start,
            Duration::ZERO,
            |_| {},
            |i, due| {
                if i == 10 {
                    std::thread::sleep(STALL);
                }
                // An instantly answering system: response time = send time.
                latency[i] = Instant::now().duration_since(due).as_secs_f64();
            },
        );
        // Op 11 was due 1 ms after op 10 but could only go out once the
        // 40 ms stall ended: it is at least ~39 ms late, and so on down.
        for (i, &l) in late.iter().enumerate().take(20).skip(11) {
            let carried = STALL.as_secs_f64() - (i - 10) as f64 * 1e-3;
            assert!(
                l >= carried - 1e-3,
                "op {i} late {l}s, expected >= {carried}s"
            );
            assert!(latency[i] >= l, "latency counts from the due time");
        }
        // The stalled op itself was on time; its own latency has the stall.
        assert!(late[10] < STALL.as_secs_f64());
        assert!(latency[10] >= STALL.as_secs_f64());
        // Lateness shrinks as the generator catches up (back-to-back sends).
        assert!(late[30] < late[11]);
    }

    /// Idle work runs ahead of the due time, only when there is room.
    #[test]
    fn idle_work_runs_ahead_of_the_send() {
        let schedule = Schedule {
            rate: 100.0,
            count: 5,
        };
        let lead = Duration::from_millis(5);
        let mut idled = Vec::new();
        let late = drive(
            &schedule,
            Instant::now(),
            lead,
            |i| idled.push(i),
            |_, _| {},
        );
        // Operation 0 is due at once: no room for idle work.
        assert_eq!(idled, [1, 2, 3, 4]);
        assert!(late.iter().all(|&l| l < 5e-3));
    }

    #[test]
    fn offsets_follow_the_rate() {
        let s = Schedule {
            rate: 400.0,
            count: 3,
        };
        assert_eq!(s.offset(0), Duration::ZERO);
        assert_eq!(s.offset(2), Duration::from_millis(5));
    }
}
