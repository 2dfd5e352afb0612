//! # healthmon — node health sensors, detectors and failure prediction
//!
//! The paper triggers migrations either by user request or by "an abnormal
//! event of system health status such as reported by IPMI or other failure
//! prediction models". This crate provides that trigger source: per-node
//! sensor models (temperature, ECC error counts, fan speed), a sampling
//! monitor daemon, and a detector that publishes FTB events when a
//! threshold is crossed or a linear trend predicts a crossing within a
//! prediction horizon.
//!
//! Event vocabulary (namespace [`HEALTH_SPACE`]):
//! * `HEALTH_WARN` — a warning threshold crossed.
//! * `HEALTH_CRITICAL` — a critical threshold crossed (node about to die).
//! * `HEALTH_PREDICT` — trend analysis predicts a critical crossing within
//!   the horizon; this is the proactive signal a Job Manager migrates on.

#![forbid(unsafe_code)]

use ftb::{FtbClient, FtbEvent, Severity};
use ibfabric::NodeId;
use rand::Rng;
use simkit::{Ctx, SimHandle, SimTime};
use std::collections::VecDeque;
use std::time::Duration;

/// FTB namespace for health events.
pub const HEALTH_SPACE: &str = "FTB.HEALTH";

/// Sensor types modelled after IPMI sensor classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensorKind {
    /// CPU/ambient temperature in °C (rises when failing).
    TemperatureC,
    /// Correctable ECC errors per sampling window (rises when failing).
    EccPerWindow,
    /// Fan speed in RPM (falls when failing).
    FanRpm,
}

/// Evolution of one sensor on one node.
#[derive(Debug, Clone)]
pub struct SensorProfile {
    /// Which sensor.
    pub kind: SensorKind,
    /// Healthy baseline value.
    pub base: f64,
    /// Gaussian-ish noise amplitude applied per sample.
    pub noise: f64,
    /// Optional deterioration: from `ramp_start`, drift `ramp_rate` per
    /// second (positive for temperature/ECC, negative for fans).
    pub ramp_start: Option<Duration>,
    /// Drift per second once ramping.
    pub ramp_rate: f64,
}

impl SensorProfile {
    /// A healthy sensor that stays near its baseline forever.
    pub fn healthy(kind: SensorKind, base: f64, noise: f64) -> Self {
        SensorProfile {
            kind,
            base,
            noise,
            ramp_start: None,
            ramp_rate: 0.0,
        }
    }

    /// A deteriorating sensor.
    pub fn deteriorating(
        kind: SensorKind,
        base: f64,
        noise: f64,
        ramp_start: Duration,
        ramp_rate: f64,
    ) -> Self {
        SensorProfile {
            kind,
            base,
            noise,
            ramp_start: Some(ramp_start),
            ramp_rate,
        }
    }

    /// Sample the sensor at `now` (adds deterministic-RNG noise).
    pub fn sample(&self, now: SimTime, rng_draw: f64) -> f64 {
        let mut v = self.base;
        if let Some(start) = self.ramp_start {
            let t = now.as_secs_f64() - start.as_secs_f64();
            if t > 0.0 {
                v += self.ramp_rate * t;
            }
        }
        v + (rng_draw * 2.0 - 1.0) * self.noise
    }
}

/// Warning/critical thresholds per sensor kind.
#[derive(Debug, Clone, Copy)]
pub struct Thresholds {
    /// Warning level (`HEALTH_WARN`).
    pub warn: f64,
    /// Critical level (`HEALTH_CRITICAL`).
    pub critical: f64,
    /// True when the sensor fails *downward* (fans).
    pub inverted: bool,
}

impl Thresholds {
    /// Standard thresholds for a sensor kind (IPMI-typical values).
    pub fn standard(kind: SensorKind) -> Self {
        match kind {
            SensorKind::TemperatureC => Thresholds {
                warn: 78.0,
                critical: 90.0,
                inverted: false,
            },
            SensorKind::EccPerWindow => Thresholds {
                warn: 8.0,
                critical: 40.0,
                inverted: false,
            },
            SensorKind::FanRpm => Thresholds {
                warn: 4500.0,
                critical: 2500.0,
                inverted: true,
            },
        }
    }

    fn breach(&self, v: f64, level: f64) -> bool {
        if self.inverted {
            v <= level
        } else {
            v >= level
        }
    }
}

/// Payload attached to health events.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthAlert {
    /// Affected node.
    pub node: NodeId,
    /// Sensor that fired.
    pub kind: SensorKind,
    /// Observed value.
    pub value: f64,
    /// For `HEALTH_PREDICT`: projected time until the critical threshold.
    pub predicted_in: Option<Duration>,
}

/// Monitor daemon configuration.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Sampling period.
    pub interval: Duration,
    /// Trend window length (number of samples for the linear fit).
    pub window: usize,
    /// Publish `HEALTH_PREDICT` when the projected critical crossing is
    /// within this horizon.
    pub horizon: Duration,
    /// Consecutive predicting windows required before the event fires
    /// (suppresses noise-driven false positives).
    pub confirm: u32,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            interval: Duration::from_millis(500),
            window: 12,
            horizon: Duration::from_secs(60),
            confirm: 3,
        }
    }
}

/// Spawn the health monitor daemon for `node`: samples `profiles`, applies
/// standard thresholds, publishes alerts through `client`. Each alert kind
/// is published at most once per (sensor, level) to avoid event storms.
pub fn spawn_monitor(
    handle: &SimHandle,
    node: NodeId,
    profiles: Vec<SensorProfile>,
    client: FtbClient,
    cfg: MonitorConfig,
) -> simkit::ProcHandle {
    handle.spawn_daemon(&format!("healthmon@{node}"), move |ctx| {
        monitor_loop(ctx, node, profiles, client, cfg)
    })
}

fn monitor_loop(
    ctx: &Ctx,
    node: NodeId,
    profiles: Vec<SensorProfile>,
    client: FtbClient,
    cfg: MonitorConfig,
) {
    struct SensorState {
        profile: SensorProfile,
        th: Thresholds,
        history: VecDeque<(f64, f64)>, // (t_secs, value)
        warned: bool,
        predicted: bool,
        critical: bool,
        predict_streak: u32,
    }
    let mut sensors: Vec<SensorState> = profiles
        .into_iter()
        .map(|p| SensorState {
            th: Thresholds::standard(p.kind),
            profile: p,
            history: VecDeque::new(),
            warned: false,
            predicted: false,
            critical: false,
            predict_streak: 0,
        })
        .collect();
    loop {
        ctx.sleep(cfg.interval);
        let now = ctx.now();
        for s in &mut sensors {
            let draw: f64 = ctx.with_rng(|r| r.gen());
            let v = s.profile.sample(now, draw);
            s.history.push_back((now.as_secs_f64(), v));
            if s.history.len() > cfg.window {
                s.history.pop_front();
            }
            if !s.critical && s.th.breach(v, s.th.critical) {
                s.critical = true;
                client.publish(
                    ctx,
                    FtbEvent::with_payload(
                        HEALTH_SPACE,
                        "HEALTH_CRITICAL",
                        Severity::Fatal,
                        node,
                        HealthAlert {
                            node,
                            kind: s.profile.kind,
                            value: v,
                            predicted_in: None,
                        },
                    ),
                );
                continue;
            }
            if !s.warned && s.th.breach(v, s.th.warn) {
                s.warned = true;
                client.publish(
                    ctx,
                    FtbEvent::with_payload(
                        HEALTH_SPACE,
                        "HEALTH_WARN",
                        Severity::Warning,
                        node,
                        HealthAlert {
                            node,
                            kind: s.profile.kind,
                            value: v,
                            predicted_in: None,
                        },
                    ),
                );
            }
            if !s.predicted && s.history.len() >= cfg.window {
                let predicting = predict_crossing(&s.history, s.th)
                    .map(|eta| eta <= cfg.horizon)
                    .unwrap_or(false);
                s.predict_streak = if predicting { s.predict_streak + 1 } else { 0 };
                if let Some(eta) = predict_crossing(&s.history, s.th) {
                    if eta <= cfg.horizon && s.predict_streak >= cfg.confirm {
                        s.predicted = true;
                        client.publish(
                            ctx,
                            FtbEvent::with_payload(
                                HEALTH_SPACE,
                                "HEALTH_PREDICT",
                                Severity::Error,
                                node,
                                HealthAlert {
                                    node,
                                    kind: s.profile.kind,
                                    value: v,
                                    predicted_in: Some(eta),
                                },
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// Least-squares linear fit over the window; returns time until the fitted
/// line crosses the critical threshold, if the trend heads that way.
fn predict_crossing(history: &VecDeque<(f64, f64)>, th: Thresholds) -> Option<Duration> {
    let n = history.len() as f64;
    if n < 3.0 {
        return None;
    }
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for (t, v) in history {
        sx += t;
        sy += v;
        sxx += t * t;
        sxy += t * v;
    }
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    let (t_last, v_last) = *history.back().unwrap();
    let heading = if th.inverted {
        slope < 0.0
    } else {
        slope > 0.0
    };
    if !heading {
        return None;
    }
    if th.breach(v_last, th.critical) {
        return Some(Duration::ZERO);
    }
    let t_cross = (th.critical - intercept) / slope;
    let eta = t_cross - t_last;
    if eta <= 0.0 {
        Some(Duration::ZERO)
    } else {
        Some(Duration::from_secs_f64(eta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(points: &[(f64, f64)]) -> VecDeque<(f64, f64)> {
        points.iter().copied().collect()
    }

    #[test]
    fn flat_trend_predicts_nothing() {
        let h = hist(&[(0.0, 50.0), (1.0, 50.0), (2.0, 50.0), (3.0, 50.0)]);
        assert_eq!(
            predict_crossing(&h, Thresholds::standard(SensorKind::TemperatureC)),
            None
        );
    }

    #[test]
    fn rising_trend_predicts_crossing_time() {
        // 1 °C per second from 80: critical 90 crossed 10 s after t=3.
        let h = hist(&[(0.0, 77.0), (1.0, 78.0), (2.0, 79.0), (3.0, 80.0)]);
        let eta = predict_crossing(&h, Thresholds::standard(SensorKind::TemperatureC)).unwrap();
        assert!((eta.as_secs_f64() - 10.0).abs() < 0.2, "eta {eta:?}");
    }

    #[test]
    fn falling_fan_predicts_crossing() {
        let th = Thresholds::standard(SensorKind::FanRpm);
        let h = hist(&[(0.0, 5000.0), (1.0, 4500.0), (2.0, 4000.0), (3.0, 3500.0)]);
        let eta = predict_crossing(&h, th).unwrap();
        assert!((eta.as_secs_f64() - 2.0).abs() < 0.2, "eta {eta:?}");
    }

    #[test]
    fn cooling_trend_predicts_nothing() {
        let h = hist(&[(0.0, 80.0), (1.0, 79.0), (2.0, 78.0), (3.0, 77.0)]);
        assert_eq!(
            predict_crossing(&h, Thresholds::standard(SensorKind::TemperatureC)),
            None
        );
    }

    #[test]
    fn sensor_profile_ramp_kicks_in_at_start() {
        let p = SensorProfile::deteriorating(
            SensorKind::TemperatureC,
            60.0,
            0.0,
            Duration::from_secs(100),
            0.5,
        );
        assert_eq!(p.sample(SimTime::from_secs_f64(50.0), 0.5), 60.0);
        let v = p.sample(SimTime::from_secs_f64(120.0), 0.5);
        assert!((v - 70.0).abs() < 1e-9, "got {v}");
    }

    #[test]
    fn thresholds_inverted_logic() {
        let th = Thresholds::standard(SensorKind::FanRpm);
        assert!(th.breach(2000.0, th.critical));
        assert!(!th.breach(5000.0, th.critical));
        let tt = Thresholds::standard(SensorKind::TemperatureC);
        assert!(tt.breach(95.0, tt.critical));
        assert!(!tt.breach(50.0, tt.critical));
    }
}
