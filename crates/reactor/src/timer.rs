//! A hashed timer wheel for connection deadlines.
//!
//! The reactor arms at most one deadline per connection (idle deadline,
//! request-read deadline, or a chaos delay), so the wheel optimizes for
//! cheap arm/disarm at modest precision: slots of [`TICK`] granularity,
//! entries hashed into `deadline / TICK % SLOTS`, and an overflow list
//! for deadlines beyond one rotation. Deadlines never fire early and at
//! worst one tick late, which is ample for multi-millisecond I/O
//! timeouts.
//!
//! Each source keeps its own [`Deadline`]: the tick it currently wants
//! and the tick of the one wheel entry filed for it. Re-arming to a
//! later deadline — an idle timer pushed back on every request — only
//! moves the wanted tick and files nothing; when the filed entry comes
//! due, [`TimerWheel::settle`] refiles it once at the moved deadline.
//! Disarming files nothing either: the filed entry is discarded when it
//! comes due. So the wheel holds about one entry per armed source, no
//! matter how often sources re-arm.

use std::time::{Duration, Instant};

/// Wheel granularity. Deadlines are rounded up to the next tick.
pub const TICK: Duration = Duration::from_millis(8);

const SLOTS: usize = 512;

#[derive(Debug, Clone, Copy)]
struct Entry {
    tick: u64,
    token: u64,
}

/// A wheel entry that came due: which registration, and the tick it was
/// filed under. Pass it to [`TimerWheel::settle`] with the source's
/// [`Deadline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fired {
    pub token: u64,
    tick: u64,
}

/// One source's timer state, kept beside the source by its owner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Deadline {
    /// The tick the source currently wants its timer at.
    due: Option<u64>,
    /// The tick of the wheel entry filed for this source, if any.
    filed: Option<u64>,
}

impl Deadline {
    /// Disarms the timer. The filed entry stays in the wheel and is
    /// discarded by [`TimerWheel::settle`] when it comes due.
    pub fn disarm(&mut self) {
        self.due = None;
    }
}

#[derive(Debug)]
pub struct TimerWheel {
    slots: Vec<Vec<Entry>>,
    /// Entries more than one rotation away; re-filed as the wheel turns.
    overflow: Vec<Entry>,
    /// The smallest tick in `overflow` (`u64::MAX` when empty), so the
    /// overflow list is only walked once something in it is in reach.
    overflow_min: u64,
    base: Instant,
    /// The next tick `advance` will process. Every slotted entry's tick
    /// lies in `cursor..cursor + SLOTS`, so each slot holds one tick.
    cursor: u64,
    /// Entries in `slots` (not counting `overflow`).
    slotted: usize,
}

impl TimerWheel {
    pub fn new(base: Instant) -> TimerWheel {
        TimerWheel {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            base,
            cursor: 0,
            slotted: 0,
        }
    }

    /// The first tick at or after `at` — where a deadline is filed.
    fn tick_of(&self, at: Instant) -> u64 {
        let since = at.saturating_duration_since(self.base);
        since.as_micros().div_ceil(TICK.as_micros()) as u64
    }

    /// The last tick at or before `now` — everything filed up to it is
    /// due, so a deadline never fires early.
    fn ticks_elapsed(&self, now: Instant) -> u64 {
        let since = now.saturating_duration_since(self.base);
        (since.as_micros() / TICK.as_micros()) as u64
    }

    /// Files one entry for `token` at `tick` (at the earliest, the
    /// cursor); returns the tick it was filed under.
    fn file(&mut self, tick: u64, token: u64) -> u64 {
        let tick = tick.max(self.cursor);
        let entry = Entry { tick, token };
        if tick >= self.cursor + SLOTS as u64 {
            self.overflow.push(entry);
            self.overflow_min = self.overflow_min.min(tick);
        } else {
            self.slots[(tick % SLOTS as u64) as usize].push(entry);
            self.slotted += 1;
        }
        tick
    }

    /// Arms `deadline` (the state of the source registered as `token`)
    /// to expire at `at`, replacing whatever it was armed for. Moving a
    /// deadline later files nothing: the entry already filed comes due
    /// first and [`TimerWheel::settle`] refiles it once.
    pub fn arm(&mut self, deadline: &mut Deadline, at: Instant, token: u64) {
        let due = self.tick_of(at);
        deadline.due = Some(due);
        if deadline.filed.is_some_and(|filed| filed <= due) {
            return;
        }
        deadline.filed = Some(self.file(due, token));
    }

    /// Resolves a fired entry against its source's `deadline`. Returns
    /// true when the deadline has been reached and the source's timer
    /// callback should run. Returns false when the entry was superseded
    /// by an earlier one, the deadline was disarmed, or it moved later —
    /// in which case it is refiled here, once.
    pub fn settle(&mut self, deadline: &mut Deadline, fired: Fired) -> bool {
        if deadline.filed != Some(fired.tick) {
            return false; // a stale entry; the live one is filed elsewhere
        }
        deadline.filed = None;
        match deadline.due {
            Some(due) if due <= fired.tick => {
                deadline.due = None;
                true
            }
            Some(due) => {
                deadline.filed = Some(self.file(due, fired.token));
                false
            }
            None => false,
        }
    }

    /// Entries currently filed, stale ones included until they come due.
    pub fn len(&self) -> usize {
        self.slotted + self.overflow.len()
    }

    /// Whether no entry is filed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How long `epoll_wait` may block without missing a filed entry:
    /// `None` when nothing is filed (block forever), otherwise the time
    /// to the nearest filed tick, clamped below by zero. Walks at most
    /// one rotation of slots; never the entries themselves.
    pub fn next_timeout(&self, now: Instant) -> Option<Duration> {
        let mut nearest = self.overflow_min;
        if self.slotted > 0 {
            if let Some(tick) = (self.cursor..self.cursor + SLOTS as u64)
                .find(|t| !self.slots[(t % SLOTS as u64) as usize].is_empty())
            {
                nearest = nearest.min(tick);
            }
        }
        if nearest == u64::MAX {
            return None;
        }
        if nearest <= self.ticks_elapsed(now) {
            return Some(Duration::ZERO);
        }
        let target = self.base + TICK * nearest as u32;
        Some(target.saturating_duration_since(now))
    }

    /// Collects every entry due at or before `now` into `fired`,
    /// advancing the wheel cursor.
    pub fn advance(&mut self, now: Instant, fired: &mut Vec<Fired>) {
        let now_tick = self.ticks_elapsed(now);
        if now_tick < self.cursor {
            return;
        }
        // Bound the walk to one full rotation; beyond that every slot
        // has been visited once and the overflow refile below covers
        // the rest.
        if self.slotted > 0 {
            let last = now_tick.min(self.cursor + SLOTS as u64 - 1);
            for tick in self.cursor..=last {
                let slot = &mut self.slots[(tick % SLOTS as u64) as usize];
                self.slotted -= slot.len();
                fired.extend(slot.drain(..).map(|e| Fired {
                    token: e.token,
                    tick: e.tick,
                }));
            }
        }
        self.cursor = now_tick + 1;
        // Re-file overflow entries that are now within one rotation (or
        // already due) — only once the nearest of them is in reach.
        if self.overflow_min >= self.cursor + SLOTS as u64 {
            return;
        }
        self.overflow_min = u64::MAX;
        let mut i = 0;
        while i < self.overflow.len() {
            let e = self.overflow[i];
            if e.tick <= now_tick {
                self.overflow.swap_remove(i);
                fired.push(Fired {
                    token: e.token,
                    tick: e.tick,
                });
            } else if e.tick < self.cursor + SLOTS as u64 {
                self.overflow.swap_remove(i);
                self.slots[(e.tick % SLOTS as u64) as usize].push(e);
                self.slotted += 1;
            } else {
                self.overflow_min = self.overflow_min.min(e.tick);
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Advances to `now` and settles every fired entry against the
    /// single source's `deadline`; returns how many timers ran.
    fn run(w: &mut TimerWheel, deadline: &mut Deadline, now: Instant) -> usize {
        let mut fired = Vec::new();
        w.advance(now, &mut fired);
        fired.into_iter().filter(|f| w.settle(deadline, *f)).count()
    }

    #[test]
    fn fires_at_deadline_not_before() {
        let base = Instant::now();
        let mut w = TimerWheel::new(base);
        let mut d = Deadline::default();
        w.arm(&mut d, base + Duration::from_millis(50), 1);
        assert_eq!(run(&mut w, &mut d, base + Duration::from_millis(20)), 0);
        assert_eq!(run(&mut w, &mut d, base + Duration::from_millis(80)), 1);
        assert!(w.is_empty());
    }

    #[test]
    fn overflow_beyond_one_rotation_still_fires() {
        let base = Instant::now();
        let mut w = TimerWheel::new(base);
        let mut d = Deadline::default();
        // Far beyond SLOTS * TICK (512 * 8ms ≈ 4s).
        w.arm(&mut d, base + Duration::from_secs(10), 2);
        assert_eq!(run(&mut w, &mut d, base + Duration::from_secs(5)), 0);
        let mut fired = Vec::new();
        w.advance(base + Duration::from_secs(11), &mut fired);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].token, 2);
        assert!(w.settle(&mut d, fired[0]));
    }

    #[test]
    fn next_timeout_tracks_nearest_deadline() {
        let base = Instant::now();
        let mut w = TimerWheel::new(base);
        assert_eq!(w.next_timeout(base), None, "no timers: block forever");
        let (mut a, mut b) = (Deadline::default(), Deadline::default());
        w.arm(&mut a, base + Duration::from_millis(100), 1);
        w.arm(&mut b, base + Duration::from_millis(40), 2);
        let t = w.next_timeout(base).unwrap();
        assert!(t <= Duration::from_millis(48), "{t:?}");
        assert!(t >= Duration::from_millis(30), "{t:?}");
        // Overflow entries count too.
        let mut w = TimerWheel::new(base);
        w.arm(&mut Deadline::default(), base + Duration::from_secs(30), 1);
        let t = w.next_timeout(base).unwrap();
        assert!(t >= Duration::from_secs(29), "{t:?}");
    }

    #[test]
    fn many_timers_on_same_tick() {
        let base = Instant::now();
        let mut w = TimerWheel::new(base);
        let mut deadlines = vec![Deadline::default(); 1000];
        for (i, d) in deadlines.iter_mut().enumerate() {
            w.arm(d, base + Duration::from_millis(16), i as u64);
        }
        let mut fired = Vec::new();
        w.advance(base + Duration::from_millis(24), &mut fired);
        assert_eq!(fired.len(), 1000);
        assert!(fired
            .iter()
            .all(|f| w.settle(&mut deadlines[f.token as usize], *f)));
    }

    #[test]
    fn rearming_later_files_nothing_and_fires_at_the_last_deadline() {
        // An idle timeout re-armed on every request: 100 000 re-arms of
        // one source, each 30 s out from a moving clock.
        let base = Instant::now();
        let mut w = TimerWheel::new(base);
        let mut d = Deadline::default();
        let timeout = Duration::from_secs(30);
        let mut now = base;
        for _ in 0..100_000 {
            now += Duration::from_micros(20);
            w.arm(&mut d, now + timeout, 7);
            assert_eq!(run(&mut w, &mut d, now), 0);
            assert!(w.len() <= 2, "wheel grew to {} entries", w.len());
        }
        let last = now + timeout;
        // The first filed entry comes due at 30 s and refiles once.
        assert_eq!(run(&mut w, &mut d, base + timeout + TICK), 0);
        assert!(w.len() <= 2, "wheel grew to {} entries", w.len());
        let just_before = last - Duration::from_micros(1);
        assert_eq!(run(&mut w, &mut d, just_before), 0, "fired early");
        assert_eq!(run(&mut w, &mut d, last + TICK), 1);
        assert!(w.is_empty());
    }

    #[test]
    fn rearming_earlier_supersedes_and_disarm_discards() {
        let base = Instant::now();
        let mut w = TimerWheel::new(base);
        let mut d = Deadline::default();
        w.arm(&mut d, base + Duration::from_millis(200), 3);
        w.arm(&mut d, base + Duration::from_millis(40), 3);
        assert_eq!(run(&mut w, &mut d, base + Duration::from_millis(56)), 1);
        // The superseded 200 ms entry is discarded, not fired.
        assert_eq!(run(&mut w, &mut d, base + Duration::from_millis(300)), 0);
        assert!(w.is_empty());
        w.arm(&mut d, base + Duration::from_millis(400), 3);
        d.disarm();
        assert_eq!(run(&mut w, &mut d, base + Duration::from_millis(500)), 0);
        assert!(w.is_empty());
    }
}
