//! Outage logs: the normalized form of field data.

/// One recorded outage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outage {
    /// Start of the outage, hours since observation start.
    pub start_hours: f64,
    /// Duration of the outage, hours.
    pub duration_hours: f64,
}

/// An outage log for one system over an observation window.
#[derive(Debug, Clone, PartialEq)]
pub struct OutageLog {
    observation_hours: f64,
    outages: Vec<Outage>,
}

impl OutageLog {
    /// Creates an empty log over the given observation window (hours).
    ///
    /// # Panics
    ///
    /// Panics if the window is not positive and finite.
    #[must_use]
    pub fn new(observation_hours: f64) -> Self {
        assert!(
            observation_hours > 0.0 && observation_hours.is_finite(),
            "observation window must be positive"
        );
        OutageLog { observation_hours, outages: Vec::new() }
    }

    /// Records an outage starting at `start_hours` lasting
    /// `duration_hours`.
    ///
    /// # Panics
    ///
    /// Panics if the outage lies outside the observation window or
    /// overlaps going backwards in time.
    pub fn record(&mut self, start_hours: f64, duration_hours: f64) {
        assert!(start_hours >= 0.0 && duration_hours >= 0.0, "negative time");
        assert!(
            start_hours + duration_hours <= self.observation_hours + 1e-9,
            "outage beyond observation window"
        );
        if let Some(last) = self.outages.last() {
            assert!(start_hours >= last.start_hours + last.duration_hours, "overlapping outage");
        }
        self.outages.push(Outage { start_hours, duration_hours });
    }

    /// Observation window, hours.
    #[must_use]
    pub fn observation_hours(&self) -> f64 {
        self.observation_hours
    }

    /// The recorded outages in time order.
    #[must_use]
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// Total downtime, hours.
    #[must_use]
    pub fn downtime_hours(&self) -> f64 {
        self.outages.iter().map(|o| o.duration_hours).sum()
    }

    /// Empirical availability.
    #[must_use]
    pub fn availability(&self) -> f64 {
        1.0 - self.downtime_hours() / self.observation_hours
    }

    /// Builds a log from an up/down event sequence
    /// (`(time_hours, up)`), assuming the system starts up at time 0.
    #[must_use]
    pub fn from_events(observation_hours: f64, events: &[(f64, bool)]) -> Self {
        let mut log = OutageLog::new(observation_hours);
        let mut down_since: Option<f64> = None;
        for &(t, up) in events {
            match (up, down_since) {
                (false, None) => down_since = Some(t),
                (true, Some(s)) => {
                    log.record(s, t - s);
                    down_since = None;
                }
                _ => {}
            }
        }
        if let Some(s) = down_since {
            log.record(s, observation_hours - s);
        }
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_accumulates() {
        let mut log = OutageLog::new(1000.0);
        log.record(10.0, 1.0);
        log.record(500.0, 2.5);
        assert_eq!(log.outages().len(), 2);
        assert!((log.downtime_hours() - 3.5).abs() < 1e-12);
        assert!((log.availability() - 0.9965).abs() < 1e-12);
    }

    #[test]
    fn from_events_matches_manual() {
        let events = [(10.0, false), (11.0, true), (500.0, false), (502.5, true)];
        let log = OutageLog::from_events(1000.0, &events);
        assert_eq!(log.outages().len(), 2);
        assert!((log.downtime_hours() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn open_outage_truncated_at_window() {
        let log = OutageLog::from_events(100.0, &[(95.0, false)]);
        assert!((log.downtime_hours() - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlap_rejected() {
        let mut log = OutageLog::new(100.0);
        log.record(10.0, 5.0);
        log.record(12.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "beyond observation window")]
    fn beyond_window_rejected() {
        let mut log = OutageLog::new(100.0);
        log.record(99.0, 5.0);
    }
}
