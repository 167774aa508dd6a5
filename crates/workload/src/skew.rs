//! The shared workload-skew knob.
//!
//! Each generator used to hard-code its popularity skew (the wiki's
//! Zipf β, the forum's hot-topic concentration, the hotcrp reviewers'
//! uniform paper choice, the shop's product Zipf). This module threads
//! one knob through all four so experiments sweep the same parameter
//! space: a Zipf exponent `theta` for whatever each workload's "popular
//! thing" is, and a session-length multiplier for how many requests a
//! logged-in session issues before it ends.
//!
//! Callers build a [`Skew`] and pass it to a generator's
//! `Params::with_skew`. Unset fields leave the generator's default
//! untouched, so the paper's published parameters remain the defaults
//! everywhere.

/// A skew override. `None` fields keep the workload defaults.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Skew {
    /// Zipf exponent over each workload's popularity axis (wiki pages,
    /// forum topics, hotcrp papers, shop products).
    pub theta: Option<f64>,
    /// Session-length multiplier: how many requests a logged-in session
    /// issues relative to the workload's default.
    pub session_len: Option<f64>,
}

impl Skew {
    /// `theta`, defaulting to `base` when not overridden.
    pub fn theta_or(&self, base: f64) -> f64 {
        self.theta.unwrap_or(base)
    }

    /// `base` requests scaled by the session-length multiplier, never
    /// below one request.
    pub fn scale_session(&self, base: usize) -> usize {
        match self.session_len {
            Some(f) => ((base as f64 * f).round() as usize).max(1),
            None => base,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_pass_through() {
        let s = Skew::default();
        assert_eq!(s.theta_or(0.53), 0.53);
        assert_eq!(s.scale_session(7), 7);
        let s = Skew {
            theta: Some(1.1),
            session_len: Some(0.1),
        };
        assert_eq!(s.theta_or(0.53), 1.1);
        assert_eq!(s.scale_session(3), 1, "never below one request");
    }
}
