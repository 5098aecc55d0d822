//! Before/after arithmetic over two server telemetry snapshots.
//!
//! Only exact figures are used: counter values and histogram counts and
//! sums. The histograms' power-of-two bucket quantiles are never read —
//! they resolve a latency only to within a factor of two.

use aid_obs::MetricsSnapshot;

/// The change in the server's registry across a timed window.
pub struct Delta<'a> {
    before: &'a MetricsSnapshot,
    after: &'a MetricsSnapshot,
}

impl<'a> Delta<'a> {
    /// The delta from `before` to `after` (both from the same server).
    pub fn new(before: &'a MetricsSnapshot, after: &'a MetricsSnapshot) -> Delta<'a> {
        Delta { before, after }
    }

    /// Growth of counter `name`; a counter registered only during the
    /// window counts from zero, one never registered reads zero.
    pub fn counter(&self, name: &str) -> u64 {
        let at = |s: &MetricsSnapshot| s.counter(name).unwrap_or(0);
        at(self.after).saturating_sub(at(self.before))
    }

    /// Observations histogram `name` gained.
    pub fn count(&self, name: &str) -> u64 {
        let at = |s: &MetricsSnapshot| s.histogram(name).map_or(0, |h| h.count);
        at(self.after).saturating_sub(at(self.before))
    }

    /// Growth of the exact sum of histogram `name` (its recorded unit).
    pub fn sum(&self, name: &str) -> u64 {
        let at = |s: &MetricsSnapshot| s.histogram(name).map_or(0, |h| h.sum);
        at(self.after).saturating_sub(at(self.before))
    }

    /// [`Delta::counter`] summed over every engine shard
    /// (`engine.shard{N}.{suffix}`).
    pub fn shard_counter(&self, suffix: &str) -> u64 {
        self.shard_names(suffix).map(|n| self.counter(&n)).sum()
    }

    /// [`Delta::sum`] summed over every engine shard.
    pub fn shard_sum(&self, suffix: &str) -> u64 {
        self.shard_names(suffix).map(|n| self.sum(&n)).sum()
    }

    /// Every `engine.shard{N}.{suffix}` name either snapshot carries.
    fn shard_names(&self, suffix: &str) -> impl Iterator<Item = String> {
        let mut names: Vec<String> = [self.before, self.after]
            .iter()
            .flat_map(|s| s.entries.iter())
            .filter(|e| is_shard_metric(&e.name, suffix))
            .map(|e| e.name.clone())
            .collect();
        names.sort();
        names.dedup();
        names.into_iter()
    }
}

/// Whether `name` is `engine.shard{digits}.{suffix}`.
fn is_shard_metric(name: &str, suffix: &str) -> bool {
    let Some(rest) = name.strip_prefix("engine.shard") else {
        return false;
    };
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    digits > 0
        && rest[digits..]
            .strip_prefix('.')
            .is_some_and(|tail| tail == suffix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aid_obs::MetricsRegistry;

    #[test]
    fn counters_and_histograms_diff_exactly() {
        let registry = MetricsRegistry::enabled();
        let frames = registry.counter("serve.frames_in");
        let frame_us = registry.histogram("serve.frame_us");
        frames.add(5);
        frame_us.record(8000);
        let before = registry.snapshot();
        frames.add(7);
        frame_us.record(3);
        frame_us.record(10_000);
        let after = registry.snapshot();
        let d = Delta::new(&before, &after);
        assert_eq!(d.counter("serve.frames_in"), 7);
        assert_eq!(d.count("serve.frame_us"), 2);
        // The exact sum, not a bucket bound.
        assert_eq!(d.sum("serve.frame_us"), 10_003);
    }

    #[test]
    fn absent_names_read_zero_or_count_from_zero() {
        let registry = MetricsRegistry::enabled();
        let before = registry.snapshot();
        registry.counter("sim.vm.steps").add(42);
        registry.histogram("store.refresh_us").record(900);
        let after = registry.snapshot();
        let d = Delta::new(&before, &after);
        assert_eq!(d.counter("sim.vm.steps"), 42);
        assert_eq!(d.count("store.refresh_us"), 1);
        assert_eq!(d.sum("store.refresh_us"), 900);
        assert_eq!(d.counter("never.registered"), 0);
        assert_eq!(d.sum("never.registered"), 0);
        // A name that is a counter, read as a histogram, is absent too.
        assert_eq!(d.count("sim.vm.steps"), 0);
    }

    #[test]
    fn shard_sums_cover_every_shard_and_nothing_else() {
        let registry = MetricsRegistry::enabled();
        let before = registry.snapshot();
        registry.counter("engine.shard0.executions").add(3);
        registry.counter("engine.shard1.executions").add(4);
        registry.counter("engine.shard12.executions").add(5);
        // Lookalikes that must not be summed.
        registry.counter("engine.shard.executions").add(100);
        registry.counter("engine.shardx1.executions").add(100);
        registry.counter("engine.shard2.executions_total").add(100);
        registry.counter("engine.pool.worker0.tasks").add(100);
        registry.histogram("engine.shard0.exec.run_us").record(10);
        registry.histogram("engine.shard3.exec.run_us").record(32);
        let after = registry.snapshot();
        let d = Delta::new(&before, &after);
        assert_eq!(d.shard_counter("executions"), 12);
        assert_eq!(d.shard_sum("exec.run_us"), 42);
        assert_eq!(d.shard_counter("cache.hits"), 0);
    }

    #[test]
    fn shard_metric_names() {
        assert!(is_shard_metric("engine.shard0.cache.hits", "cache.hits"));
        assert!(is_shard_metric("engine.shard31.cache.hits", "cache.hits"));
        assert!(!is_shard_metric("engine.shard0.cache.hits", "hits"));
        assert!(!is_shard_metric("engine.shard0cache.hits", "cache.hits"));
        assert!(!is_shard_metric("serve.shard0.cache.hits", "cache.hits"));
    }
}
