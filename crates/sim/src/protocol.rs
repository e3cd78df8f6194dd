//! The protocol trait implemented by dispersion algorithms.

use crate::ids::AgentId;
use crate::world::ActivationCtx;

/// A mobile-agent protocol.
///
/// The protocol object owns the persistent state of *all* agents (that is
/// just an implementation convenience — conceptually each agent owns its own
/// slice of it). The runners call [`AgentProtocol::on_activate`] once per CCM
/// cycle of an agent; the implementation must base its decisions only on
/// that agent's own state, the states of co-located agents (the paper's
/// local communication model allows reading and writing those), and the
/// local information exposed by [`ActivationCtx`].
pub trait AgentProtocol {
    /// One Communicate–Compute–Move cycle of `agent`.
    fn on_activate(&mut self, agent: AgentId, ctx: &mut ActivationCtx<'_>);

    /// Whether the protocol has (locally detectably) finished. Runners stop
    /// at the end of the round/step in which this becomes true.
    fn is_terminated(&self) -> bool;

    /// Whether `agent` currently considers itself settled. Dispersion
    /// protocols should override this; it powers the every-step safety
    /// invariant ("no two settled agents share a node") checked by the
    /// invariant harness, and defaults to `false` for protocols without a
    /// settlement notion.
    fn is_settled(&self, _agent: AgentId) -> bool {
        false
    }

    /// Notification that `agent` crashed (crash-fault adversary). Called by
    /// the runners *after* the world has removed the agent, so the protocol
    /// can retract any claims the corpse held (e.g. un-count a settled node
    /// so survivors may re-settle it). Crash-tolerant protocols override
    /// this; the default ignores the fault, which is correct for protocols
    /// only ever run in fault-free worlds.
    fn on_crash(&mut self, _agent: AgentId) {}

    /// Persistent memory of `agent` in bits, counted as the paper counts it:
    /// the number of bits stored at the agent *between* CCM cycles (temporary
    /// compute-phase memory is free).
    fn memory_bits(&self, agent: AgentId) -> usize;

    /// The current maximum of [`memory_bits`](AgentProtocol::memory_bits)
    /// over all agents, if the protocol can produce it in `O(1)` — e.g. from
    /// per-role counts when the footprint is a function of the role alone.
    /// The runners' periodic memory sampling uses this fast path when it is
    /// available and falls back to the `O(k)` per-agent scan otherwise. An
    /// override MUST return exactly the value the scan would compute;
    /// `disp-core`'s `tests/max_memory.rs` holds every registered protocol
    /// to the scan. The paper protocols answer from the per-class counts
    /// of one census in `disp-core` (`crates/core/src/census.rs`).
    fn max_memory_bits(&self) -> Option<usize> {
        None
    }

    /// Per-role class histogram: push one `(class-name, live-agent-count)`
    /// pair per protocol role, in the protocol's canonical order. The
    /// flight recorder ([`crate::timeline`]) calls this at every sampled
    /// round/epoch boundary, so an override must run in O(classes), and
    /// sums the classes named `"settled"` into its settled count. The
    /// default pushes nothing, which the recorder reports as an unknown
    /// class breakdown (settled count 0). The paper protocols answer from
    /// one census in `disp-core` (`crates/core/src/census.rs`), which keeps
    /// their per-class counts and derives `is_settled` from the class of
    /// that name.
    fn class_counts(&self, _out: &mut Vec<(&'static str, u32)>) {}

    /// Human-readable protocol name (used in reports and traces).
    fn name(&self) -> &'static str {
        "unnamed-protocol"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Idle;
    impl AgentProtocol for Idle {
        fn on_activate(&mut self, _agent: AgentId, _ctx: &mut ActivationCtx<'_>) {}
        fn is_terminated(&self) -> bool {
            true
        }
        fn memory_bits(&self, _agent: AgentId) -> usize {
            0
        }
    }

    #[test]
    fn default_name() {
        assert_eq!(Idle.name(), "unnamed-protocol");
    }
}
