//! Movement, time and memory metrics; the per-run [`Outcome`] summary.

use crate::ids::AgentId;

/// Counters accumulated while a protocol runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metrics {
    total_moves: u64,
    moves_per_agent: Vec<u64>,
    peak_memory_bits: usize,
    memory_samples: u64,
}

impl Metrics {
    /// Fresh metrics for `k` agents.
    pub fn new(k: usize) -> Self {
        Metrics {
            total_moves: 0,
            moves_per_agent: vec![0; k],
            peak_memory_bits: 0,
            memory_samples: 0,
        }
    }

    /// Reset to the state of `Metrics::new(k)` while keeping the per-agent
    /// buffer's allocation (the `WorldPool` rebuild path).
    pub fn into_reset(mut self, k: usize) -> Self {
        self.total_moves = 0;
        self.moves_per_agent.clear();
        self.moves_per_agent.resize(k, 0);
        self.peak_memory_bits = 0;
        self.memory_samples = 0;
        self
    }

    /// Record one edge traversal by `agent`.
    pub fn record_move(&mut self, agent: AgentId) {
        self.total_moves += 1;
        self.moves_per_agent[agent.index()] += 1;
    }

    /// Record one cohort hop: `riders` members traversed an edge together.
    /// Only the total is bumped eagerly; per-agent attribution happens when
    /// a rider is extracted ([`Metrics::credit_rider_moves`]).
    pub fn record_cohort_move(&mut self, riders: u64) {
        self.total_moves += riders;
    }

    /// Attribute `delta` ridden edges to `agent` (extraction / accounting
    /// flush). Does not touch the total, which was counted per hop.
    pub fn credit_rider_moves(&mut self, agent: AgentId, delta: u64) {
        self.moves_per_agent[agent.index()] += delta;
    }

    /// Record a sample of the maximum per-agent persistent memory, in bits.
    pub fn record_memory_sample(&mut self, max_bits_over_agents: usize) {
        self.peak_memory_bits = self.peak_memory_bits.max(max_bits_over_agents);
        self.memory_samples += 1;
    }

    /// Total edge traversals by all agents.
    pub fn total_moves(&self) -> u64 {
        self.total_moves
    }

    /// Edge traversals of one agent.
    pub fn moves_of(&self, agent: AgentId) -> u64 {
        self.moves_per_agent[agent.index()]
    }

    /// The largest per-agent move count.
    pub fn max_moves_per_agent(&self) -> u64 {
        self.moves_per_agent.iter().copied().max().unwrap_or(0)
    }

    /// Peak (over sampled instants) of the maximum (over agents) persistent
    /// memory, in bits.
    pub fn peak_memory_bits(&self) -> usize {
        self.peak_memory_bits
    }

    /// Number of memory samples taken.
    pub fn memory_samples(&self) -> u64 {
        self.memory_samples
    }
}

/// Summary of one protocol execution, as produced by the runners.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Completed SYNC rounds (0 for ASYNC runs).
    pub rounds: u64,
    /// Completed ASYNC scheduler steps (0 for SYNC runs).
    pub steps: u64,
    /// Completed epochs (equals `rounds` for SYNC runs).
    pub epochs: u64,
    /// Total individual agent activations.
    pub activations: u64,
    /// Total edge traversals by all agents.
    pub total_moves: u64,
    /// Largest per-agent number of edge traversals.
    pub max_moves_per_agent: u64,
    /// Peak per-agent persistent memory observed, in bits.
    pub peak_memory_bits: usize,
    /// Whether the protocol reported termination (as opposed to hitting a
    /// runner limit).
    pub terminated: bool,
    /// Number of agents.
    pub k: usize,
    /// Number of graph nodes.
    pub n: usize,
    /// Number of graph edges.
    pub m: usize,
    /// Maximum degree of the graph.
    pub max_degree: usize,
}

impl Outcome {
    /// The time measure the paper uses: rounds for SYNC, epochs for ASYNC.
    pub fn time(&self) -> u64 {
        if self.steps == 0 {
            self.rounds
        } else {
            self.epochs
        }
    }

    /// The names of [`Outcome::flat_fields`], in order.
    pub const FIELDS: [&'static str; 12] = [
        "rounds",
        "steps",
        "epochs",
        "activations",
        "total_moves",
        "max_moves_per_agent",
        "peak_memory_bits",
        "terminated",
        "k",
        "n",
        "m",
        "max_degree",
    ];

    /// Flatten into stable `(field, value)` pairs for streaming writers
    /// (JSONL, CSV). `terminated` is encoded as 0/1. The field names are part
    /// of the on-disk campaign format; [`Outcome::from_named`] is the inverse.
    pub fn flat_fields(&self) -> [(&'static str, u64); 12] {
        let values = [
            self.rounds,
            self.steps,
            self.epochs,
            self.activations,
            self.total_moves,
            self.max_moves_per_agent,
            self.peak_memory_bits as u64,
            self.terminated as u64,
            self.k as u64,
            self.n as u64,
            self.m as u64,
            self.max_degree as u64,
        ];
        std::array::from_fn(|i| (Outcome::FIELDS[i], values[i]))
    }

    /// Rebuild an outcome from a field lookup (e.g. a parsed JSON object).
    /// Returns `None` if any field of the [`Outcome::flat_fields`] schema is
    /// missing.
    pub fn from_named(mut get: impl FnMut(&'static str) -> Option<u64>) -> Option<Outcome> {
        let mut values = [0; 12];
        for (value, name) in values.iter_mut().zip(Outcome::FIELDS) {
            *value = get(name)?;
        }
        Some(Outcome::from_fields(values))
    }

    /// Rebuild an outcome from the values of [`Outcome::flat_fields`], in
    /// the order of [`Outcome::FIELDS`].
    pub fn from_fields(values: [u64; 12]) -> Outcome {
        let [rounds, steps, epochs, activations, total_moves, max_moves_per_agent, peak_memory_bits, terminated, k, n, m, max_degree] =
            values;
        Outcome {
            rounds,
            steps,
            epochs,
            activations,
            total_moves,
            max_moves_per_agent,
            peak_memory_bits: peak_memory_bits as usize,
            terminated: terminated != 0,
            k: k as usize,
            n: n as usize,
            m: m as usize,
            max_degree: max_degree as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn move_accounting() {
        let mut m = Metrics::new(3);
        m.record_move(AgentId(0));
        m.record_move(AgentId(0));
        m.record_move(AgentId(2));
        assert_eq!(m.total_moves(), 3);
        assert_eq!(m.moves_of(AgentId(0)), 2);
        assert_eq!(m.moves_of(AgentId(1)), 0);
        assert_eq!(m.max_moves_per_agent(), 2);
    }

    #[test]
    fn memory_peak_is_monotone() {
        let mut m = Metrics::new(1);
        m.record_memory_sample(10);
        m.record_memory_sample(4);
        m.record_memory_sample(25);
        m.record_memory_sample(7);
        assert_eq!(m.peak_memory_bits(), 25);
        assert_eq!(m.memory_samples(), 4);
    }

    #[test]
    fn outcome_time_prefers_rounds_for_sync() {
        let sync = Outcome {
            rounds: 12,
            steps: 0,
            epochs: 12,
            activations: 0,
            total_moves: 0,
            max_moves_per_agent: 0,
            peak_memory_bits: 0,
            terminated: true,
            k: 1,
            n: 1,
            m: 0,
            max_degree: 0,
        };
        assert_eq!(sync.time(), 12);
        let asynch = Outcome {
            rounds: 0,
            steps: 99,
            epochs: 7,
            ..sync.clone()
        };
        assert_eq!(asynch.time(), 7);
    }

    #[test]
    fn flat_fields_round_trip_through_from_named() {
        let out = Outcome {
            rounds: 12,
            steps: 34,
            epochs: 7,
            activations: 99,
            total_moves: 41,
            max_moves_per_agent: 6,
            peak_memory_bits: 17,
            terminated: true,
            k: 8,
            n: 9,
            m: 10,
            max_degree: 3,
        };
        let fields = out.flat_fields();
        let lookup = |name: &'static str| fields.iter().find(|(f, _)| *f == name).map(|&(_, v)| v);
        assert_eq!(Outcome::from_named(lookup), Some(out.clone()));
        assert_eq!(Outcome::from_named(|_| None), None);
    }
}
