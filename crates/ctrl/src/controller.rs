//! Regime classification and the feedback controller.

use std::sync::Mutex;

use resoftmax_serve::{
    ControlAction, ControlDecision, ControlInit, ControlPlane, FleetSignals, ServeConfig,
};

use crate::table::PolicyTable;

/// The classified load regime. Knob sets are chosen per regime (see
/// [`PolicyTable`]), so the classifier's hysteresis is what keeps the
/// fleet from thrashing its configuration between adjacent samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Nothing queued and nothing running.
    Idle,
    /// Arrivals are absorbed without sustained queue growth.
    Steady,
    /// Queue pressure exceeds the active batch capacity: prefills back up.
    Burst,
    /// Pressure far exceeds capacity; completions alone cannot drain it.
    Overload,
}

impl Regime {
    /// Stable lowercase label, recorded verbatim in the decision log.
    pub fn label(self) -> &'static str {
        match self {
            Regime::Idle => "idle",
            Regime::Steady => "steady",
            Regime::Burst => "burst",
            Regime::Overload => "overload",
        }
    }
}

/// Hysteretic regime classifier over the *load* signal: total queue depth
/// divided by the fleet's active batch capacity (accepting replicas ×
/// `max_batch`). Entry thresholds sit above exit thresholds, so a load
/// oscillating inside the band does not flap the regime.
#[derive(Debug, Clone, PartialEq)]
pub struct RegimeClassifier {
    burst_enter: f64,
    burst_exit: f64,
    overload_enter: f64,
    overload_exit: f64,
    current: Regime,
}

impl Default for RegimeClassifier {
    fn default() -> Self {
        RegimeClassifier {
            burst_enter: 1.5,
            burst_exit: 0.75,
            overload_enter: 4.0,
            overload_exit: 2.0,
            current: Regime::Steady,
        }
    }
}

impl RegimeClassifier {
    /// A classifier with the default thresholds (burst 1.5↑/0.75↓,
    /// overload 4.0↑/2.0↓ in queue-per-batch-slot units), starting steady.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current regime without reclassifying.
    pub fn current(&self) -> Regime {
        self.current
    }

    /// Classifies one sample: `load` is queue depth per active batch slot,
    /// `idle` is "nothing queued and nothing running".
    pub fn classify(&mut self, load: f64, idle: bool) -> Regime {
        self.current = if idle {
            Regime::Idle
        } else {
            match self.current {
                Regime::Overload => {
                    if load >= self.overload_exit {
                        Regime::Overload
                    } else if load >= self.burst_exit {
                        Regime::Burst
                    } else {
                        Regime::Steady
                    }
                }
                Regime::Burst => {
                    if load >= self.overload_enter {
                        Regime::Overload
                    } else if load >= self.burst_exit {
                        Regime::Burst
                    } else {
                        Regime::Steady
                    }
                }
                Regime::Idle | Regime::Steady => {
                    if load >= self.overload_enter {
                        Regime::Overload
                    } else if load >= self.burst_enter {
                        Regime::Burst
                    } else {
                        Regime::Steady
                    }
                }
            }
        };
        self.current
    }
}

/// Controller cadence and scaling thresholds. All times are simulated
/// seconds; loads are in queue-per-batch-slot units (the classifier's
/// signal).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Decision period.
    pub interval_s: f64,
    /// Sliding-window width for the fleet's TTFT/TBT signal percentiles.
    pub window_s: f64,
    /// When the first decision fires.
    pub first_decision_s: f64,
    /// Scale standby replicas up when load reaches this.
    pub scale_up_load: f64,
    /// Demand sizing: each scale-up decision recruits enough standbys to
    /// bring the projected load back down to this (at least one). Must sit
    /// between `scale_down_load` and `scale_up_load` or the fleet flaps.
    pub scale_target_load: f64,
    /// Scale the most recent activation back down when load falls to this
    /// (and the regime is steady or idle).
    pub scale_down_load: f64,
    /// Minimum time between scaling actions — with the gap between
    /// `scale_up_load` and `scale_down_load`, this is the anti-flap
    /// guarantee.
    pub cooldown_s: f64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            interval_s: 0.25,
            window_s: 2.0,
            first_decision_s: 0.25,
            scale_up_load: 1.5,
            scale_target_load: 1.0,
            scale_down_load: 0.5,
            cooldown_s: 1.0,
        }
    }
}

#[derive(Debug)]
struct CtrlState {
    classifier: RegimeClassifier,
    applied_regime: Option<Regime>,
    /// Replicas this controller scaled up, in activation order; scale-downs
    /// pop the most recent so the fleet returns to its base footprint.
    activated: Vec<usize>,
    last_scale_s: f64,
    admission_on: bool,
}

impl CtrlState {
    fn fresh() -> Self {
        CtrlState {
            classifier: RegimeClassifier::new(),
            applied_regime: None,
            activated: Vec::new(),
            last_scale_s: f64::NEG_INFINITY,
            admission_on: false,
        }
    }
}

/// The feedback controller: classifies the load regime each interval,
/// switches the fleet to that regime's [`PolicyTable`] knobs on regime
/// *changes* (never per sample), and auto-scales standby replicas against
/// queue pressure with a cooldown.
///
/// Implements [`ControlPlane`] with interior mutability;
/// [`begin`](ControlPlane::begin) resets all state, so reruns of the same
/// fleet produce bit-identical reports.
#[derive(Debug)]
pub struct Controller {
    table: PolicyTable,
    config: ControllerConfig,
    state: Mutex<CtrlState>,
}

impl Controller {
    /// A controller over `table` with the default cadence and thresholds.
    pub fn new(table: PolicyTable) -> Self {
        Controller::with_config(table, ControllerConfig::default())
    }

    /// A controller over `table` with an explicit configuration.
    pub fn with_config(table: PolicyTable, config: ControllerConfig) -> Self {
        Controller {
            table,
            config,
            state: Mutex::new(CtrlState::fresh()),
        }
    }

    /// The regime→knob table this controller actuates.
    pub fn table(&self) -> &PolicyTable {
        &self.table
    }

    /// The cadence and thresholds this controller runs with.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }
}

impl ControlPlane for Controller {
    fn begin(&self, _cfg: &ServeConfig) -> ControlInit {
        *self.state.lock().expect("controller state poisoned") = CtrlState::fresh();
        ControlInit {
            first_decision_s: self.config.first_decision_s,
            window_s: self.config.window_s,
        }
    }

    fn decide(&self, signals: &FleetSignals) -> ControlDecision {
        let mut st = self.state.lock().expect("controller state poisoned");
        let active = signals.replicas.iter().filter(|r| r.accepting).count();
        let running: usize = signals.replicas.iter().map(|r| r.running).sum();
        let idle = signals.queue_depth == 0 && running == 0;
        let slots = (active.max(1) * signals.max_batch.max(1)) as f64;
        let load = signals.queue_depth as f64 / slots;
        let regime = st.classifier.classify(load, idle);

        let mut actions = Vec::new();
        if st.applied_regime != Some(regime) {
            let knobs = self.table.knobs(regime);
            actions.push(ControlAction::SetPolicy(knobs.policy));
            actions.push(ControlAction::SetPrefillChunk(knobs.prefill_chunk));
            match knobs.admission_tokens_per_s {
                Some(per_replica) => {
                    // The table prices admission per prefill-capable
                    // replica; scale to however many are in rotation now.
                    let prefill = signals
                        .replicas
                        .iter()
                        .filter(|r| r.accepting && r.role.prefill_capable())
                        .count();
                    let rate = per_replica * prefill.max(1) as f64;
                    actions.push(ControlAction::SetAdmission {
                        tokens_per_s: rate,
                        burst_tokens: rate,
                    });
                    st.admission_on = true;
                }
                None => {
                    if st.admission_on {
                        actions.push(ControlAction::ClearAdmission);
                        st.admission_on = false;
                    }
                }
            }
            st.applied_regime = Some(regime);
        }

        let cooled = signals.now_s - st.last_scale_s >= self.config.cooldown_s;
        let warming = signals.replicas.iter().any(|r| r.warming);
        if load >= self.config.scale_up_load && cooled && !warming {
            // Recruit enough standbys in one decision to bring the
            // projected load back to the target. Trickling one replica per
            // cooldown would point the least-loaded router's entire arrival
            // stream at a single fresh (empty) replica, serializing a
            // convoy of prefills behind each other — the one queue
            // preemptive priority cannot jump.
            let want = ((signals.queue_depth as f64
                / (self.config.scale_target_load * signals.max_batch.max(1) as f64))
                .ceil() as usize)
                .saturating_sub(active)
                .max(1);
            let mut recruited = 0usize;
            for r in signals.replicas.iter().filter(|r| r.standby && !r.warming) {
                if recruited == want {
                    break;
                }
                actions.push(ControlAction::ScaleUp { replica: r.id });
                st.activated.push(r.id);
                recruited += 1;
            }
            if recruited > 0 {
                st.last_scale_s = signals.now_s;
            }
        } else if load <= self.config.scale_down_load
            && matches!(regime, Regime::Idle | Regime::Steady)
            && cooled
        {
            if let Some(&target) = st.activated.last() {
                st.activated.pop();
                // A replica that faulted while active is simply forgotten;
                // scaling down a non-accepting replica would be rejected.
                if signals
                    .replicas
                    .iter()
                    .any(|r| r.id == target && r.accepting)
                {
                    actions.push(ControlAction::ScaleDown { replica: target });
                    st.last_scale_s = signals.now_s;
                }
            }
        }

        ControlDecision {
            regime: regime.label().to_owned(),
            actions,
            next_s: signals.now_s + self.config.interval_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hysteresis_holds_the_regime_inside_the_band() {
        let mut c = RegimeClassifier::new();
        assert_eq!(c.classify(0.2, false), Regime::Steady);
        assert_eq!(c.classify(1.6, false), Regime::Burst);
        // Oscillating between the burst exit (0.75) and entry (1.5)
        // thresholds must NOT flap the regime.
        for _ in 0..10 {
            assert_eq!(c.classify(1.0, false), Regime::Burst);
            assert_eq!(c.classify(1.4, false), Regime::Burst);
            assert_eq!(c.classify(0.8, false), Regime::Burst);
        }
        assert_eq!(c.classify(0.5, false), Regime::Steady);
        // Same load that held Burst above now holds Steady from below.
        for _ in 0..10 {
            assert_eq!(c.classify(1.0, false), Regime::Steady);
            assert_eq!(c.classify(1.4, false), Regime::Steady);
        }
    }

    #[test]
    fn overload_enters_high_and_exits_low() {
        let mut c = RegimeClassifier::new();
        assert_eq!(c.classify(4.5, false), Regime::Overload);
        // Below the entry (4.0) but above the exit (2.0): still overloaded.
        assert_eq!(c.classify(3.0, false), Regime::Overload);
        assert_eq!(c.classify(2.1, false), Regime::Overload);
        // Below the exit it steps down to Burst, not straight to Steady.
        assert_eq!(c.classify(1.2, false), Regime::Burst);
        assert_eq!(c.classify(0.1, false), Regime::Steady);
    }

    #[test]
    fn idle_wins_whenever_nothing_is_in_flight() {
        let mut c = RegimeClassifier::new();
        assert_eq!(c.classify(5.0, false), Regime::Overload);
        assert_eq!(c.classify(0.0, true), Regime::Idle);
        assert_eq!(c.current(), Regime::Idle);
    }

    #[test]
    fn regime_labels_are_stable() {
        assert_eq!(Regime::Idle.label(), "idle");
        assert_eq!(Regime::Steady.label(), "steady");
        assert_eq!(Regime::Burst.label(), "burst");
        assert_eq!(Regime::Overload.label(), "overload");
    }
}
