//! Seeded stochastic weather synthesis.
//!
//! The paper feeds its simulation with "real weather data from weather
//! stations" (Weather Underground traces for Turin). Those traces are not
//! redistributable, so we substitute a *statistically equivalent* generator:
//! a Markov chain over daily sky states (clear / partly cloudy / overcast)
//! driving an autocorrelated intra-day clearness index, plus a
//! seasonal + diurnal ambient-temperature model. Everything is derived
//! deterministically from one `u64` seed, making experiments reproducible.
//!
//! What matters for the floorplanning algorithm is preserved: a strongly
//! skewed irradiance distribution (motivating the percentile-based
//! suitability metric), day-to-day persistence, and realistic magnitudes
//! for a north-Italian site.

use pv_units::{Celsius, SimulationClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Daily sky condition of the Markov weather model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SkyState {
    /// Mostly clear sky: high, stable clearness index.
    Clear,
    /// Broken clouds: mid clearness with strong fluctuations.
    PartlyCloudy,
    /// Overcast: low clearness, weak fluctuations.
    Overcast,
}

impl SkyState {
    /// Mean clearness index of this state.
    #[must_use]
    pub fn mean_clearness(self) -> f64 {
        match self {
            Self::Clear => 0.70,
            Self::PartlyCloudy => 0.45,
            Self::Overcast => 0.18,
        }
    }

    /// Standard deviation of the intra-day clearness fluctuations.
    #[must_use]
    pub fn clearness_sigma(self) -> f64 {
        match self {
            Self::Clear => 0.04,
            Self::PartlyCloudy => 0.13,
            Self::Overcast => 0.06,
        }
    }

    /// Diurnal temperature swing amplitude typical of this state, °C.
    #[must_use]
    pub fn diurnal_amplitude(self) -> f64 {
        match self {
            Self::Clear => 6.0,
            Self::PartlyCloudy => 4.5,
            Self::Overcast => 2.5,
        }
    }
}

/// One synthesized weather sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeatherSample {
    /// Clearness index `kt = GHI / extraterrestrial-horizontal`, in `[0, 0.85]`.
    pub clearness: f64,
    /// Ambient air temperature.
    pub ambient: Celsius,
    /// The sky state of the sample's day.
    pub sky: SkyState,
}

/// Seeded generator of per-step weather samples over a simulation period.
///
/// ```
/// use pv_gis::WeatherGenerator;
/// use pv_units::SimulationClock;
/// let clock = SimulationClock::days_at_minutes(10, 60);
/// let a = WeatherGenerator::new(42).generate(clock);
/// let b = WeatherGenerator::new(42).generate(clock);
/// assert_eq!(a.len(), 240);
/// assert_eq!(a[17], b[17]); // bit-reproducible per seed
/// ```
#[derive(Clone, Debug)]
pub struct WeatherGenerator {
    seed: u64,
    annual_mean: f64,
    annual_swing: f64,
}

impl WeatherGenerator {
    /// Creates a generator with Turin-like temperature climatology
    /// (annual mean 13 °C, seasonal swing ±10 °C).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            annual_mean: 13.0,
            annual_swing: 10.0,
        }
    }

    /// Overrides the annual mean temperature (°C).
    #[must_use]
    pub fn annual_mean(mut self, mean_c: f64) -> Self {
        self.annual_mean = mean_c;
        self
    }

    /// Overrides the seasonal temperature swing (°C, half peak-to-peak).
    #[must_use]
    pub fn annual_swing(mut self, swing_c: f64) -> Self {
        self.annual_swing = swing_c;
        self
    }

    /// Generates one weather sample per clock step.
    #[must_use]
    pub fn generate(&self, clock: SimulationClock) -> Vec<WeatherSample> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let num_steps = clock.num_steps() as usize;
        let mut samples = Vec::with_capacity(num_steps);

        // Burn the Markov chain in so the first simulated day is drawn
        // from (approximately) the stationary sky-state distribution
        // rather than always following a clear day; otherwise short
        // simulations are systematically sunnier than long ones.
        let mut state = SkyState::Clear;
        for _ in 0..16 {
            state = Self::next_state(state, &mut rng);
        }
        let mut current_day = u32::MAX;
        // AR(1) residuals for clearness and temperature.
        let mut kt_resid = 0.0f64;
        let mut t_resid = 0.0f64;

        for step in clock.steps() {
            let day = step.day_of_year();
            if day != current_day {
                current_day = day;
                state = Self::next_state(state, &mut rng);
            }

            // Clearness: state mean + AR(1) noise, clipped to physical band.
            kt_resid = 0.92 * kt_resid + state.clearness_sigma() * (rng.gen::<f64>() * 2.0 - 1.0);
            let clearness = (state.mean_clearness() + kt_resid).clamp(0.03, 0.82);

            // Ambient temperature: seasonal cosine (min ~Jan 19) + diurnal
            // cosine (peak 14:00, amplitude depends on sky) + AR(1) noise.
            let seasonal = self.annual_mean
                - self.annual_swing
                    * (core::f64::consts::TAU * (f64::from(day) - 19.0) / 365.0).cos();
            let hour = step.hour_of_day();
            let diurnal = state.diurnal_amplitude() / 2.0
                * (core::f64::consts::TAU * (hour - 14.0) / 24.0).cos();
            t_resid = 0.95 * t_resid + 0.5 * (rng.gen::<f64>() * 2.0 - 1.0);
            let ambient = Celsius::new(seasonal + diurnal + t_resid);

            samples.push(WeatherSample {
                clearness,
                ambient,
                sky: state,
            });
        }
        samples
    }

    fn next_state(prev: SkyState, rng: &mut StdRng) -> SkyState {
        // Row-stochastic daily transition matrix with strong persistence.
        let row = match prev {
            SkyState::Clear => [0.68, 0.24, 0.08],
            SkyState::PartlyCloudy => [0.30, 0.45, 0.25],
            SkyState::Overcast => [0.15, 0.40, 0.45],
        };
        let u: f64 = rng.gen();
        if u < row[0] {
            SkyState::Clear
        } else if u < row[0] + row[1] {
            SkyState::PartlyCloudy
        } else {
            SkyState::Overcast
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed_and_sensitive_to_seed() {
        let clock = SimulationClock::days_at_minutes(30, 60);
        let a = WeatherGenerator::new(1).generate(clock);
        let b = WeatherGenerator::new(1).generate(clock);
        let c = WeatherGenerator::new(2).generate(clock);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn clearness_stays_in_physical_band() {
        let clock = SimulationClock::days_at_minutes(120, 30);
        for s in WeatherGenerator::new(7).generate(clock) {
            assert!((0.03..=0.82).contains(&s.clearness), "kt {}", s.clearness);
        }
    }

    #[test]
    fn summer_is_warmer_than_winter() {
        let clock = SimulationClock::year_at_minutes(60);
        let samples = WeatherGenerator::new(3).generate(clock);
        let mean_of_day_range = |from: u32, to: u32| {
            let vals: Vec<f64> = samples
                .iter()
                .zip(clock.steps())
                .filter(|(_, st)| (from..to).contains(&st.day_of_year()))
                .map(|(s, _)| s.ambient.as_celsius())
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        let january = mean_of_day_range(0, 31);
        let july = mean_of_day_range(181, 212);
        assert!(july - january > 12.0, "jan {january} jul {july}");
    }

    #[test]
    fn afternoons_are_warmer_than_nights() {
        let clock = SimulationClock::days_at_minutes(60, 30);
        let samples = WeatherGenerator::new(5).generate(clock);
        let mean_at_hour = |h: f64| {
            let vals: Vec<f64> = samples
                .iter()
                .zip(clock.steps())
                .filter(|(_, st)| (st.hour_of_day() - h).abs() < 0.26)
                .map(|(s, _)| s.ambient.as_celsius())
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        assert!(mean_at_hour(14.0) > mean_at_hour(3.0) + 1.5);
    }

    #[test]
    fn clearness_distribution_is_skewed_with_persistence() {
        // The paper motivates the percentile metric with skewed
        // distributions; verify the generator produces day-scale
        // persistence (lag-1 day autocorrelation of daily means > 0).
        let clock = SimulationClock::year_at_minutes(60);
        let samples = WeatherGenerator::new(11).generate(clock);
        let daily: Vec<f64> = (0..365)
            .map(|d| {
                let day = &samples[d * 24..(d + 1) * 24];
                day.iter().map(|s| s.clearness).sum::<f64>() / 24.0
            })
            .collect();
        let mean = daily.iter().sum::<f64>() / daily.len() as f64;
        let var: f64 =
            daily.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / daily.len() as f64;
        let lag1: f64 = daily
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum::<f64>()
            / (daily.len() - 1) as f64;
        assert!(lag1 / var > 0.15, "autocorrelation {}", lag1 / var);
    }

    #[test]
    fn all_states_visited_over_a_year() {
        let clock = SimulationClock::year_at_minutes(240);
        let samples = WeatherGenerator::new(9).generate(clock);
        let mut seen = [false; 3];
        for s in samples {
            match s.sky {
                SkyState::Clear => seen[0] = true,
                SkyState::PartlyCloudy => seen[1] = true,
                SkyState::Overcast => seen[2] = true,
            }
        }
        assert_eq!(seen, [true; 3]);
    }
}
