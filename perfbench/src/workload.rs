//! The five workloads and the seeded inputs they run on.

use euler_gen::eulerize::eulerize;
use euler_gen::rmat::RmatGenerator;
use euler_gen::synthetic;
use euler_graph::Graph;

/// How a pipeline workload executes its run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathKind {
    /// Default `InProcessBackend`, dense Phase 1.
    InProcess,
    /// `.streaming_phase1(true)` under a fragment `memory_budget`.
    WStream,
    /// `BspBackend` with 2 workers over `MemTransport`.
    Wire,
}

/// The input graph of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Input {
    /// Eulerized R-MAT at `scale` with average degree 8, seeded by `--seed`.
    Rmat { scale: u32 },
    /// `side × side` torus (seed-independent).
    Torus { side: u64 },
}

impl Input {
    /// Generates the graph for `seed`.
    pub fn generate(self, seed: u64) -> Graph {
        match self {
            Input::Rmat { scale } => {
                let raw = RmatGenerator::new(scale)
                    .with_avg_degree(8.0)
                    .with_seed(seed)
                    .generate();
                eulerize(&raw).0
            }
            Input::Torus { side } => synthetic::torus_grid(side, side),
        }
    }

    /// File stem of the packed input.
    pub fn stem(self) -> String {
        match self {
            Input::Rmat { scale } => format!("rmat{scale}"),
            Input::Torus { side } => format!("torus{side}"),
        }
    }
}

/// A workload the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One pipeline path on one input.
    Pipeline {
        name: &'static str,
        input: Input,
        parts: u32,
        path: PathKind,
    },
    /// The service under two closed-loop clients.
    Service,
}

/// The service workload's name.
pub const SERVICE: &str = "service-2c";

/// The service workload's graphs, in checksum-table order.
pub const SERVICE_INPUTS: [Input; 2] = [Input::Rmat { scale: 16 }, Input::Torus { side: 354 }];

/// Every workload.
pub const WORKLOADS: [Workload; 5] = [
    Workload::Pipeline {
        name: "rmat-8p",
        input: Input::Rmat { scale: 18 },
        parts: 8,
        path: PathKind::InProcess,
    },
    Workload::Pipeline {
        name: "torus-1p",
        input: Input::Torus { side: 708 },
        parts: 1,
        path: PathKind::InProcess,
    },
    Workload::Pipeline {
        name: "torus-4p-wstream",
        input: Input::Torus { side: 708 },
        parts: 4,
        path: PathKind::WStream,
    },
    Workload::Pipeline {
        name: "rmat-8p-wire",
        input: Input::Rmat { scale: 18 },
        parts: 8,
        path: PathKind::Wire,
    },
    Workload::Service,
];

impl Workload {
    /// The workload's name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Pipeline { name, .. } => name,
            Workload::Service => SERVICE,
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name() == name)
    }
}
