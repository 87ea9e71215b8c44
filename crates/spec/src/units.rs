//! Unit newtypes for the engineering language.
//!
//! RAScad's parameter list mixes hours (MTBF, service response), minutes
//! (MTTR parts, failover times), and FIT (transient failure rates,
//! failures per 10⁹ hours). Newtypes keep them from being confused and
//! make conversions explicit.

/// A duration in hours.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Hours(pub f64);

/// A duration in minutes.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Minutes(pub f64);

/// A failure rate in FIT (failures per 10⁹ hours).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Fit(pub f64);

impl Hours {
    /// Hours in a (non-leap) year, the conversion RAScad uses for
    /// yearly-downtime reporting.
    pub const PER_YEAR: f64 = 8760.0;

    /// Converts to minutes.
    #[must_use]
    pub fn to_minutes(self) -> Minutes {
        Minutes(self.0 * 60.0)
    }

    /// The corresponding exponential rate (per hour); zero duration maps
    /// to an infinite rate and must be handled by callers.
    #[must_use]
    pub fn to_rate(self) -> f64 {
        1.0 / self.0
    }
}

impl Minutes {
    /// Converts to hours.
    #[must_use]
    pub fn to_hours(self) -> Hours {
        Hours(self.0 / 60.0)
    }
}

impl Fit {
    /// Converts a FIT value to a per-hour rate.
    #[must_use]
    pub fn to_rate_per_hour(self) -> f64 {
        self.0 * 1e-9
    }
}

impl From<Minutes> for Hours {
    fn from(m: Minutes) -> Hours {
        m.to_hours()
    }
}

impl From<Hours> for Minutes {
    fn from(h: Hours) -> Minutes {
        h.to_minutes()
    }
}

impl std::fmt::Display for Hours {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} h", self.0)
    }
}

impl std::fmt::Display for Minutes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} min", self.0)
    }
}

impl std::fmt::Display for Fit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} FIT", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hour_minute_roundtrip() {
        let h = Hours(2.5);
        assert_eq!(h.to_minutes(), Minutes(150.0));
        assert_eq!(Minutes(150.0).to_hours(), Hours(2.5));
        assert_eq!(Hours::from(Minutes(30.0)), Hours(0.5));
        assert_eq!(Minutes::from(Hours(0.5)), Minutes(30.0));
    }

    #[test]
    fn fit_conversion() {
        // 500 FIT = 5e-7 per hour.
        assert!((Fit(500.0).to_rate_per_hour() - 5e-7).abs() < 1e-20);
    }

    #[test]
    fn rate_conversion() {
        assert!((Hours(10_000.0).to_rate() - 1e-4).abs() < 1e-18);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Hours(4.0).to_string(), "4 h");
        assert_eq!(Minutes(30.0).to_string(), "30 min");
        assert_eq!(Fit(100.0).to_string(), "100 FIT");
    }
}
