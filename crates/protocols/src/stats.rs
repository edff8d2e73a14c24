//! Shared traffic and convergence statistics for the protocol engines.

use std::fmt;

/// Counters accumulated by a protocol engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtocolStats {
    /// Update messages sent.
    pub updates_sent: u64,
    /// Update messages dropped by fault injection.
    pub updates_lost: u64,
    /// Update messages processed by their recipients.
    pub updates_processed: u64,
    /// Withdrawal messages sent (path-vector engines only).
    pub withdrawals_sent: u64,
    /// Routing-table entry changes across all routers.
    pub table_changes: u64,
    /// Bytes put on the wire (engines that encode their updates through
    /// [`crate::wire`]; 0 for engines that exchange in-memory values).
    pub bytes_sent: u64,
    /// Simulated time of the last table change.
    pub last_change_time: u64,
    /// Simulated time at which the run finished.
    pub finish_time: u64,
    /// Periodic update rounds that fired.
    pub periodic_rounds: u64,
}

impl ProtocolStats {
    /// Total messages sent (updates plus withdrawals).
    pub fn messages_sent(&self) -> u64 {
        self.updates_sent + self.withdrawals_sent
    }

    /// The telemetry view of these counters: uniform message-plane
    /// accounting for the `messages` event.  `bytes` is always `Some` —
    /// the protocol engines put their updates through [`crate::wire`].
    pub fn counters(&self) -> dbf_telemetry::MessageCounters {
        dbf_telemetry::MessageCounters {
            sent: self.messages_sent(),
            delivered: self.updates_processed,
            dropped: self.updates_lost,
            duplicated: 0,
            bytes: Some(self.bytes_sent),
        }
    }
}

impl fmt::Display for ProtocolStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sent={} lost={} processed={} withdrawals={} changes={} bytes={} last_change={} finish={} rounds={}",
            self.updates_sent,
            self.updates_lost,
            self.updates_processed,
            self.withdrawals_sent,
            self.table_changes,
            self.bytes_sent,
            self.last_change_time,
            self.finish_time,
            self.periodic_rounds,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let s = ProtocolStats {
            updates_sent: 100,
            updates_lost: 25,
            withdrawals_sent: 10,
            ..ProtocolStats::default()
        };
        assert_eq!(s.messages_sent(), 110);
        let c = s.counters();
        assert_eq!((c.sent, c.dropped, c.bytes), (110, 25, Some(0)));
        assert!(s.to_string().contains("sent=100"));
    }
}
