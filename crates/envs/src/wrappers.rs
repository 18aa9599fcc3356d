//! Environment wrappers and vectorised execution.
//!
//! `VecEnv` steps a homogeneous set of environments in turn on the calling
//! thread. Concurrency between actors comes from running one actor per
//! thread (the paper's serverful actors are one process each, §VII), not
//! from inside a `VecEnv`. `NormalizedEnv` maintains running observation
//! statistics, the standard preprocessing for MuJoCo-style continuous
//! control.

use crate::env::{Action, ActionSpace, Env, Step};

/// A batch of environments stepped together.
pub struct VecEnv {
    envs: Vec<Box<dyn Env>>,
    obs_dim: usize,
}

impl VecEnv {
    /// Wraps a set of environments (all must share obs/action geometry).
    pub fn new(envs: Vec<Box<dyn Env>>) -> Self {
        assert!(!envs.is_empty(), "VecEnv needs at least one environment");
        let obs_dim = envs[0].obs_dim();
        let space = envs[0].action_space();
        for e in &envs {
            assert_eq!(e.obs_dim(), obs_dim, "heterogeneous observation dims");
            assert_eq!(e.action_space(), space, "heterogeneous action spaces");
        }
        Self { envs, obs_dim }
    }

    /// Number of environments.
    pub fn len(&self) -> usize {
        self.envs.len()
    }

    /// True when empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.envs.is_empty()
    }

    /// Shared observation dimensionality.
    pub fn obs_dim(&self) -> usize {
        self.obs_dim
    }

    /// Shared action space.
    pub fn action_space(&self) -> ActionSpace {
        self.envs[0].action_space()
    }

    /// Resets every environment (seed offset per index); returns the
    /// flattened `[n, obs_dim]` observation rows.
    pub fn reset_all(&mut self, seed: u64) -> Vec<Vec<f32>> {
        self.envs
            .iter_mut()
            .enumerate()
            .map(|(i, e)| e.reset(seed.wrapping_add(i as u64 * 7919)))
            .collect()
    }

    /// Steps every environment with its own action, in index order. Done
    /// environments are auto-reset (the returned step keeps `done = true`
    /// and the *post-reset* observation, the common vec-env convention).
    pub fn step_all(&mut self, actions: &[Action], reset_seed: u64) -> Vec<Step> {
        assert_eq!(actions.len(), self.envs.len(), "one action per environment");
        self.envs
            .iter_mut()
            .zip(actions.iter())
            .enumerate()
            .map(|(i, (env, action))| {
                let mut step = env.step(action);
                if step.done {
                    step.obs = env.reset(reset_seed.wrapping_add(i as u64 * 104_729));
                }
                step
            })
            .collect()
    }
}

/// Running mean/variance tracker (Welford's algorithm).
#[derive(Clone, Debug)]
pub struct RunningStat {
    count: f64,
    mean: Vec<f64>,
    m2: Vec<f64>,
}

impl RunningStat {
    /// Creates a tracker for `dim`-dimensional vectors.
    pub fn new(dim: usize) -> Self {
        Self {
            count: 0.0,
            mean: vec![0.0; dim],
            m2: vec![0.0; dim],
        }
    }

    /// Feeds one observation.
    pub fn update(&mut self, x: &[f32]) {
        assert_eq!(x.len(), self.mean.len(), "dimension mismatch");
        self.count += 1.0;
        for ((&xi, mean), m2) in x.iter().zip(self.mean.iter_mut()).zip(self.m2.iter_mut()) {
            let delta = xi as f64 - *mean;
            *mean += delta / self.count;
            let delta2 = xi as f64 - *mean;
            *m2 += delta * delta2;
        }
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.count as u64
    }

    /// Current per-dimension mean.
    pub fn mean(&self) -> Vec<f32> {
        self.mean.iter().map(|&m| m as f32).collect()
    }

    /// Current per-dimension standard deviation (>= 1e-4 for stability).
    pub fn std(&self) -> Vec<f32> {
        self.m2
            .iter()
            .map(|&m2| ((m2 / self.count.max(1.0)).sqrt() as f32).max(1e-4))
            .collect()
    }

    /// Normalises a vector in place with the current statistics.
    pub fn normalize(&self, x: &mut [f32]) {
        let std = self.std();
        for i in 0..x.len() {
            x[i] = ((x[i] - self.mean[i] as f32) / std[i]).clamp(-10.0, 10.0);
        }
    }
}

/// Wrapper normalising observations with running statistics.
pub struct NormalizedEnv<E: Env> {
    inner: E,
    stat: RunningStat,
    /// Freeze statistics (evaluation mode).
    pub frozen: bool,
}

impl<E: Env> NormalizedEnv<E> {
    /// Wraps an environment.
    pub fn new(inner: E) -> Self {
        let dim = inner.obs_dim();
        Self {
            inner,
            stat: RunningStat::new(dim),
            frozen: false,
        }
    }

    /// Read access to the running statistics.
    pub fn stat(&self) -> &RunningStat {
        &self.stat
    }

    fn process(&mut self, mut obs: Vec<f32>) -> Vec<f32> {
        if !self.frozen {
            self.stat.update(&obs);
        }
        self.stat.normalize(&mut obs);
        obs
    }
}

impl<E: Env> Env for NormalizedEnv<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn obs_shape(&self) -> Vec<usize> {
        self.inner.obs_shape()
    }

    fn action_space(&self) -> ActionSpace {
        self.inner.action_space()
    }

    fn reset(&mut self, seed: u64) -> Vec<f32> {
        let obs = self.inner.reset(seed);
        self.process(obs)
    }

    fn step(&mut self, action: &Action) -> Step {
        let step = self.inner.step(action);
        Step {
            obs: self.process(step.obs),
            reward: step.reward,
            done: step.done,
        }
    }

    fn max_steps(&self) -> usize {
        self.inner.max_steps()
    }
}

/// Action-repeat (frame-skip) wrapper: each policy action is applied for
/// `repeat` consecutive environment steps with rewards summed — the
/// standard Atari preprocessing the paper's per-step costs assume.
pub struct ActionRepeat<E: Env> {
    inner: E,
    repeat: usize,
}

impl<E: Env> ActionRepeat<E> {
    /// Wraps an environment with an action-repeat factor (>= 1).
    pub fn new(inner: E, repeat: usize) -> Self {
        assert!(repeat >= 1, "repeat factor must be >= 1");
        Self { inner, repeat }
    }
}

impl<E: Env> Env for ActionRepeat<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn obs_shape(&self) -> Vec<usize> {
        self.inner.obs_shape()
    }

    fn action_space(&self) -> ActionSpace {
        self.inner.action_space()
    }

    fn reset(&mut self, seed: u64) -> Vec<f32> {
        self.inner.reset(seed)
    }

    fn step(&mut self, action: &Action) -> Step {
        let mut total = 0.0f32;
        let mut last = None;
        for _ in 0..self.repeat {
            let s = self.inner.step(action);
            total += s.reward;
            let done = s.done;
            last = Some(s);
            if done {
                break;
            }
        }
        let mut out = last.expect("repeat >= 1 guarantees one step");
        out.reward = total;
        out
    }

    fn max_steps(&self) -> usize {
        self.inner.max_steps().div_ceil(self.repeat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::PointMass;
    use crate::env::{make_env, EnvConfig, EnvId};

    #[test]
    fn vec_env_steps_in_lockstep() {
        let envs: Vec<Box<dyn Env>> = (0..4)
            .map(|_| make_env(EnvId::PointMass, EnvConfig::tiny()))
            .collect();
        let mut v = VecEnv::new(envs);
        assert_eq!(v.len(), 4);
        assert_eq!(v.obs_dim(), 6);
        let obs = v.reset_all(0);
        assert_eq!(obs.len(), 4);
        let actions: Vec<Action> = (0..4).map(|_| Action::Continuous(vec![0.1, 0.0])).collect();
        let steps = v.step_all(&actions, 1);
        assert_eq!(steps.len(), 4);
        assert!(steps.iter().all(|s| s.reward.is_finite()));
    }

    #[test]
    fn vec_env_auto_resets_done_envs() {
        let envs: Vec<Box<dyn Env>> = (0..2)
            .map(|_| {
                make_env(
                    EnvId::ChainMdp,
                    EnvConfig {
                        max_steps: 3,
                        ..EnvConfig::tiny()
                    },
                )
            })
            .collect();
        let mut v = VecEnv::new(envs);
        v.reset_all(0);
        let a = vec![Action::Discrete(1), Action::Discrete(1)];
        for i in 0..3 {
            let steps = v.step_all(&a, 9);
            if i == 2 {
                assert!(steps.iter().all(|s| s.done));
                // Post-reset observation: back at state 0 (one-hot).
                assert_eq!(steps[0].obs[0], 1.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "one action per environment")]
    fn vec_env_rejects_wrong_action_count() {
        let envs: Vec<Box<dyn Env>> = vec![make_env(EnvId::PointMass, EnvConfig::tiny())];
        let mut v = VecEnv::new(envs);
        v.reset_all(0);
        v.step_all(&[], 0);
    }

    #[test]
    fn running_stat_matches_batch_statistics() {
        let mut s = RunningStat::new(2);
        let data = [[1.0f32, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0]];
        for row in &data {
            s.update(row);
        }
        assert_eq!(s.count(), 4);
        let mean = s.mean();
        assert!((mean[0] - 2.5).abs() < 1e-6);
        assert!((mean[1] - 25.0).abs() < 1e-5);
        let std = s.std();
        // Population std of [1,2,3,4] = sqrt(1.25).
        assert!((std[0] - 1.25f32.sqrt()).abs() < 1e-4);
    }

    #[test]
    fn normalized_env_whitens_observations() {
        let mut env = NormalizedEnv::new(PointMass::new(EnvConfig::tiny()));
        env.reset(0);
        let mut all = Vec::new();
        for _ in 0..200 {
            let s = env.step(&Action::Continuous(vec![0.5, -0.5]));
            all.extend(s.obs);
        }
        let mean: f32 = all.iter().sum::<f32>() / all.len() as f32;
        assert!(
            mean.abs() < 1.0,
            "normalised stream should be near zero mean: {mean}"
        );
        assert!(all.iter().all(|x| x.abs() <= 10.0), "clamped to +-10");
    }

    #[test]
    fn action_repeat_sums_rewards_and_stops_at_done() {
        use crate::diagnostics::ChainMdp;
        let mut env = ActionRepeat::new(
            ChainMdp::new(EnvConfig {
                max_steps: 20,
                ..EnvConfig::tiny()
            }),
            4,
        );
        env.reset(0);
        // Four rights per wrapped step; after three wrapped steps the agent
        // has marched 12 states (capped at 9) and collected the jackpot.
        let mut total = 0.0;
        for _ in 0..3 {
            total += env.step(&Action::Discrete(1)).reward;
        }
        assert!(total >= 10.0, "{total}");
        // Done propagates as soon as the inner episode ends.
        let mut env = ActionRepeat::new(
            ChainMdp::new(EnvConfig {
                max_steps: 2,
                ..EnvConfig::tiny()
            }),
            8,
        );
        env.reset(0);
        let s = env.step(&Action::Discrete(1));
        assert!(s.done, "inner time-limit must end the wrapped step early");
    }

    #[test]
    fn frozen_stats_stop_updating() {
        let mut env = NormalizedEnv::new(PointMass::new(EnvConfig::tiny()));
        env.reset(0);
        for _ in 0..10 {
            env.step(&Action::Continuous(vec![1.0, 0.0]));
        }
        let n = env.stat().count();
        env.frozen = true;
        env.step(&Action::Continuous(vec![1.0, 0.0]));
        assert_eq!(env.stat().count(), n);
    }
}
