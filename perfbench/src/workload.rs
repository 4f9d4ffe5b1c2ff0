//! The benchmark's workloads and one episode of the live pipeline.
//!
//! An episode is what a user of the system pays for one deployment:
//! bind the staging server and spawn its bucket worker (remote
//! workloads), construct the simulation, run `run_pipeline` for a fixed
//! number of steps, and tear the deployment down. Everything runs in
//! this process: the rank grid is `[2, 1, 1]` with one staging bucket.

use crate::probe::{self, Plant, Probe, TaskTrace};
use sitra_core::remote::{run_bucket_worker, BucketWorkerOpts};
use sitra_core::wire::encode_analysis_output;
use sitra_core::{
    run_pipeline, AnalysisSpec, HybridStats, HybridTopology, HybridViz, InSituViz,
    LagrangianFlowMap, PipelineConfig, PipelineResult, Placement, StagingMode,
};
use sitra_dataspaces::{SchedStats, SpaceServer};
use sitra_mesh::BBox3;
use sitra_net::Addr;
use sitra_obs::{MetricValue, Snapshot};
use sitra_sim::{SimConfig, Simulation, Variable};
use sitra_viz::{TransferFunction, View, ViewAxis};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The rank grid: two ranks, one per core of a 2-vCPU host.
pub const PARTS: [usize; 3] = [2, 1, 1];

/// Where hybrid analyses aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Staging {
    /// In-process buckets (DART fabric + in-process scheduler).
    Local,
    /// An in-process `SpaceServer` on `tcp://127.0.0.1:0` with one
    /// `run_bucket_worker` thread.
    Remote,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub dims: [usize; 3],
    pub staging: Staging,
    /// Steps per `run_pipeline` call.
    pub episode_steps: usize,
    /// The self-test's planted aggregation delay: longer than a step
    /// where output discovery waits for the next step boundary (remote),
    /// short enough that the in-process bucket keeps pace (local).
    pub plant_delay_ms: u64,
    roster: fn([usize; 3]) -> Vec<AnalysisSpec>,
    extra_variables: &'static [Variable],
}

/// Every workload the benchmark knows.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "table2-local",
        dims: [32, 26, 21],
        staging: Staging::Local,
        episode_steps: 50,
        plant_delay_ms: 10,
        roster: table2_roster,
        extra_variables: &[],
    },
    Workload {
        name: "table2-remote",
        dims: [32, 26, 21],
        staging: Staging::Remote,
        episode_steps: 50,
        plant_delay_ms: 60,
        roster: table2_roster,
        extra_variables: &[],
    },
    Workload {
        name: "bulk-flowmap-remote",
        dims: [40, 33, 26],
        staging: Staging::Remote,
        episode_steps: 40,
        plant_delay_ms: 60,
        roster: bulk_roster,
        extra_variables: &[Variable::VelU, Variable::VelV, Variable::VelW],
    },
];

/// Every label any workload registers, in a fixed order.
pub const ALL_LABELS: [&str; 6] = [
    "viz-insitu",
    "viz-hybrid",
    "stats-insitu",
    "stats-hybrid",
    "topology",
    "flow-map",
];

/// The label the planted-slowdown self-test delays (present in every
/// workload).
pub const PLANT_LABEL: &str = "viz-hybrid";

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

fn view(dims: [usize; 3]) -> View {
    View::full_res(BBox3::from_dims(dims), ViewAxis::Z, false)
}

fn tf() -> TransferFunction {
    TransferFunction::hot(250.0, 2500.0)
}

/// The paper's Table II roster, every analysis due every step.
fn table2_roster(dims: [usize; 3]) -> Vec<AnalysisSpec> {
    vec![
        AnalysisSpec::new(
            Arc::new(InSituViz {
                view: view(dims),
                tf: tf(),
            }),
            Placement::InSitu,
            1,
        ),
        AnalysisSpec::new(
            Arc::new(HybridViz {
                stride: 2,
                view: view(dims),
                tf: tf(),
            }),
            Placement::Hybrid,
            1,
        ),
        AnalysisSpec::new(Arc::new(HybridStats::default()), Placement::InSitu, 1)
            .with_label("stats-insitu"),
        AnalysisSpec::new(Arc::new(HybridStats::default()), Placement::Hybrid, 1)
            .with_label("stats-hybrid"),
        AnalysisSpec::new(Arc::new(HybridTopology::default()), Placement::Hybrid, 1),
    ]
}

/// Full-resolution in-transit rendering sharing the queue with the
/// Lagrangian flow map.
fn bulk_roster(dims: [usize; 3]) -> Vec<AnalysisSpec> {
    vec![
        AnalysisSpec::new(
            Arc::new(HybridViz {
                stride: 1,
                view: view(dims),
                tf: tf(),
            }),
            Placement::Hybrid,
            1,
        ),
        AnalysisSpec::new(Arc::new(LagrangianFlowMap::default()), Placement::Hybrid, 1),
    ]
}

impl Workload {
    pub fn roster(&self) -> Vec<AnalysisSpec> {
        (self.roster)(self.dims)
    }

    pub fn labels(&self) -> Vec<String> {
        self.roster().into_iter().map(|s| s.label).collect()
    }

    fn config(&self, analyses: Vec<AnalysisSpec>, staging: StagingMode) -> PipelineConfig {
        let mut cfg = PipelineConfig::new(PARTS, 1, self.episode_steps).with_staging_mode(staging);
        cfg.analyses = analyses;
        cfg.extra_variables = self.extra_variables.to_vec();
        cfg
    }

    /// Every `(label, step)` an episode must produce.
    pub fn expected_tasks(&self) -> Vec<(String, u64)> {
        let roster = self.roster();
        (1..=self.episode_steps as u64)
            .flat_map(|step| {
                roster
                    .iter()
                    .filter(move |s| s.due(step))
                    .map(move |s| (s.label.clone(), step))
            })
            .collect()
    }

    /// The fully in-situ reference outputs for `seed`, encoded, keyed by
    /// `(label, step)`. Runs the unwrapped roster.
    pub fn reference(&self, seed: u64) -> BTreeMap<(String, u64), Vec<u8>> {
        let mut sim = Simulation::new(SimConfig::small(self.dims, seed));
        let cfg = self.config(self.roster(), StagingMode::InSitu);
        let result = run_pipeline(&mut sim, &cfg).expect("reference roster is a valid config");
        encoded(&result)
            .into_iter()
            .map(|(label, step, bytes)| ((label, step), bytes))
            .collect()
    }

    /// Run one episode: set up the deployment (the staging server and
    /// its bucket worker on remote workloads, the wrapped roster, the
    /// simulation), run the timed pipeline, and tear it down.
    pub fn episode(&self, seed: u64, traced: bool, plant: bool) -> Episode {
        let labels = self.labels();
        let plant = plant.then(|| Plant {
            label: labels
                .iter()
                .position(|l| l == PLANT_LABEL)
                .expect("every workload registers the planted label"),
            delay: Duration::from_millis(self.plant_delay_ms),
        });
        let probe = Probe::new(labels, traced, plant);

        let t_setup = Instant::now();
        let analyses = probe::wrap(&self.roster(), &probe, self.staging);
        let staged = (self.staging == Staging::Remote).then(|| {
            let bind: Addr = "tcp://127.0.0.1:0".parse().expect("literal address");
            let server = SpaceServer::start(&bind, 1).expect("bind loopback staging server");
            let endpoint = server.addr();
            let analyses = analyses.clone();
            let worker = std::thread::Builder::new()
                .name("bench-bucket".into())
                .spawn(move || {
                    run_bucket_worker(&endpoint, &analyses, 0, &BucketWorkerOpts::default())
                })
                .expect("spawn bucket worker");
            (server, worker)
        });
        let mut sim = Simulation::new(SimConfig::small(self.dims, seed));
        let cfg = match &staged {
            None => self.config(analyses, StagingMode::Local),
            Some((server, _)) => {
                let probe = Arc::clone(&probe);
                self.config(analyses, StagingMode::Remote(server.addr().to_string()))
                    .with_staging_output_hook(Arc::new(move |label: &str, step| {
                        probe.delivered(label, step)
                    }))
            }
        };
        let setup_s = t_setup.elapsed().as_secs_f64();

        let obs_before = sitra_obs::global().snapshot();
        let cpu_before = crate::os::cpu_seconds();
        let t_run = Instant::now();
        let result = run_pipeline(&mut sim, &cfg).expect("workload roster is a valid config");
        let wall_s = t_run.elapsed().as_secs_f64();
        let cpu_s = crate::os::cpu_seconds() - cpu_before;
        let obs = ObsDiff::between(&obs_before, &sitra_obs::global().snapshot());

        // The pipeline run closed the remote scheduler, which retires
        // the worker.
        let sched = staged.map(|(server, worker)| {
            worker
                .join()
                .expect("bucket worker panicked")
                .expect("bucket worker failed");
            let stats = server.sched_stats();
            server.shutdown();
            stats
        });
        Episode {
            setup_s,
            wall_s,
            cpu_s,
            obs,
            sched,
            tasks: probe.take(),
            result,
        }
    }
}

/// A run's outputs as `(label, step, encoded bytes)`.
pub fn encoded(result: &PipelineResult) -> Vec<(String, u64, Vec<u8>)> {
    result
        .outputs
        .iter()
        .map(|(label, step, out)| (label.clone(), *step, encode_analysis_output(out).to_vec()))
        .collect()
}

/// Counter and histogram movement across one episode.
#[derive(Debug, Clone, Default)]
pub struct ObsDiff {
    counters: BTreeMap<String, u64>,
    /// `(count, sum_ns)` per histogram.
    histograms: BTreeMap<String, (u64, u64)>,
}

impl ObsDiff {
    fn between(before: &Snapshot, after: &Snapshot) -> Self {
        let mut diff = ObsDiff::default();
        for (name, value) in &after.metrics {
            match (value, before.metrics.get(name)) {
                (MetricValue::Counter(a), b) => {
                    let b = match b {
                        Some(MetricValue::Counter(b)) => *b,
                        _ => 0,
                    };
                    diff.counters.insert(name.clone(), a - b);
                }
                (MetricValue::Histogram(ac, asum, _), b) => {
                    let (bc, bsum) = match b {
                        Some(MetricValue::Histogram(bc, bsum, _)) => (*bc, *bsum),
                        _ => (0, 0),
                    };
                    diff.histograms.insert(name.clone(), (ac - bc, asum - bsum));
                }
                (MetricValue::Gauge(..), _) => {}
            }
        }
        diff
    }

    /// Sum of every counter series of `family` (e.g. all
    /// `net.conn.frames_sent{peer=…}` series).
    pub fn counter(&self, family: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| {
                *k == family || k.strip_prefix(family).is_some_and(|r| r.starts_with('{'))
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// `(count, sum_ns)` of one histogram.
    pub fn histogram(&self, name: &str) -> (u64, u64) {
        self.histograms.get(name).copied().unwrap_or_default()
    }

    pub fn add(&mut self, other: &ObsDiff) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, (c, s)) in &other.histograms {
            let e = self.histograms.entry(k.clone()).or_default();
            e.0 += c;
            e.1 += s;
        }
    }
}

/// Everything one episode measured.
pub struct Episode {
    pub setup_s: f64,
    /// Wall time of `run_pipeline`, drain included.
    pub wall_s: f64,
    /// Process CPU seconds over `run_pipeline`.
    pub cpu_s: f64,
    pub obs: ObsDiff,
    /// The staging server's scheduler counters (remote workloads).
    pub sched: Option<SchedStats>,
    /// What the probe recorded, by `(label index, step)`.
    pub tasks: HashMap<(usize, u64), TaskTrace>,
    pub result: PipelineResult,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_families_sum_labelled_series_only() {
        let reg = sitra_obs::Registry::new();
        let before = reg.snapshot();
        reg.counter("net.conn.frames_sent{peer=a}").add(3);
        reg.counter("net.conn.frames_sent{peer=b}").add(4);
        reg.counter("net.conn.frames_sent_total").add(100);
        reg.counter("space.rpc.requests").add(5);
        reg.histogram("sched.task.wait_ns").observe_ns(2_000);
        let diff = ObsDiff::between(&before, &reg.snapshot());
        assert_eq!(diff.counter("net.conn.frames_sent"), 7);
        assert_eq!(diff.counter("space.rpc.requests"), 5);
        assert_eq!(diff.counter("absent"), 0);
        assert_eq!(diff.histogram("sched.task.wait_ns"), (1, 2_000));
    }

    #[test]
    fn workloads_have_valid_names_and_enough_steps_per_plant() {
        for w in WORKLOADS {
            assert!(crate::stats::valid_metric_name(w.name));
            assert!(w.labels().iter().any(|l| l == PLANT_LABEL), "{}", w.name);
            assert!(w.labels().iter().all(|l| ALL_LABELS.contains(&l.as_str())));
            assert_eq!(w.dims[0] % PARTS[0], 0, "ranks must tile the grid");
        }
    }
}
