//! Typed payloads for the control frames of the sweep service.
//!
//! Control payloads are small line-oriented `key value` texts, one key per
//! line, in a fixed order.  Free-text fields (the request id, reject/error
//! reasons) occupy the rest of their line; reasons are sanitised to a single
//! line before they hit the wire.  The heavyweight CELL payload lives in
//! [`codec`](crate::codec).

use teg_sim::{GridSpec, RuntimePolicy};
use teg_units::Seconds;

use crate::wire::{malformed, Lines, WireError};

/// Longest accepted request id.
pub const MAX_ID_LEN: usize = 64;

/// Checks a client-chosen request id: 1–64 characters from
/// `[A-Za-z0-9._-]`.  Ids name checkpoint files, so the charset is
/// deliberately path-safe.
///
/// # Errors
///
/// Returns [`WireError::Malformed`] describing the violation.
pub fn validate_id(id: &str) -> Result<(), WireError> {
    if id.is_empty() || id.len() > MAX_ID_LEN {
        return Err(malformed(format!(
            "request id must be 1–{MAX_ID_LEN} characters"
        )));
    }
    if !id
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
    {
        return Err(malformed(
            "request id may only contain ASCII letters, digits, `.`, `_` and `-`",
        ));
    }
    Ok(())
}

/// Collapses a free-text reason onto one line for the wire.
#[must_use]
pub fn sanitise_reason(reason: &str) -> String {
    reason.replace(['\n', '\r'], " ")
}

/// Renders a runtime policy as its wire token: `measured` or
/// `fixed:<seconds>` with the exact-round-trip `f64` display form.
#[must_use]
pub fn policy_token(policy: RuntimePolicy) -> String {
    match policy {
        RuntimePolicy::Measured => "measured".to_owned(),
        RuntimePolicy::Fixed(secs) => format!("fixed:{}", secs.value()),
    }
}

/// Parses a [`policy_token`] back into a policy.
///
/// # Errors
///
/// Returns [`WireError::Malformed`] for unknown tokens or a non-finite /
/// negative fixed charge.
pub fn parse_policy(token: &str) -> Result<RuntimePolicy, WireError> {
    if token == "measured" {
        return Ok(RuntimePolicy::Measured);
    }
    if let Some(secs) = token.strip_prefix("fixed:") {
        let value: f64 = secs
            .parse()
            .map_err(|_| malformed(format!("bad fixed-policy seconds `{secs}`")))?;
        if !value.is_finite() || value < 0.0 {
            return Err(malformed(format!(
                "fixed-policy seconds must be finite and non-negative, got `{secs}`"
            )));
        }
        return Ok(RuntimePolicy::Fixed(Seconds::new(value)));
    }
    Err(malformed(format!("unknown runtime policy `{token}`")))
}

/// A client's sweep submission.
#[derive(Debug, Clone)]
pub struct SubmitRequest {
    /// Client-chosen id; also names the checkpoint journal.
    pub id: String,
    /// The sweep to run.
    pub grid: GridSpec,
    /// Runtime accounting policy for every cell.
    pub policy: RuntimePolicy,
}

impl SubmitRequest {
    /// Serialises the submission.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Malformed`] for an invalid id or a grid whose
    /// profiles cannot be expressed as a spec string.
    pub fn encode(&self) -> Result<String, WireError> {
        validate_id(&self.id)?;
        let grid = self
            .grid
            .spec()
            .map_err(|err| malformed(format!("grid is not spec-serialisable: {err}")))?;
        Ok(format!(
            "id {}\ngrid {}\npolicy {}\n",
            self.id,
            grid,
            policy_token(self.policy)
        ))
    }

    /// Parses a SUBMIT payload.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Malformed`] naming the offending line.
    pub fn decode(text: &str) -> Result<Self, WireError> {
        let mut lines = Lines::new(text);
        let id = lines.rest("id")?.to_owned();
        validate_id(&id)?;
        let grid = GridSpec::parse(lines.rest("grid")?)
            .map_err(|err| malformed(format!("bad grid spec: {err}")))?;
        let policy = parse_policy(lines.rest("policy")?)?;
        lines.done()?;
        Ok(Self { id, grid, policy })
    }
}

/// The server's admission reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Accepted {
    /// Echo of the request id.
    pub id: String,
    /// Total cells in the sweep.
    pub cells: usize,
    /// Cells restored from a checkpoint (never re-solved).
    pub resumed: usize,
}

impl Accepted {
    /// Serialises the reply.
    #[must_use]
    pub fn encode(&self) -> String {
        format!(
            "id {}\ncells {}\nresumed {}\n",
            self.id, self.cells, self.resumed
        )
    }

    /// Parses an ACCEPTED payload.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Malformed`] naming the offending line.
    pub fn decode(text: &str) -> Result<Self, WireError> {
        let mut lines = Lines::new(text);
        let id = lines.rest("id")?.to_owned();
        let cells = lines.usize("cells")?;
        let resumed = lines.usize("resumed")?;
        lines.done()?;
        Ok(Self { id, cells, resumed })
    }
}

/// The server's refusal (backpressure, budget, parse failure, checkpoint
/// mismatch).  Rejection happens *before* any cell is solved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejected {
    /// Echo of the request id (empty when the id itself did not parse).
    pub id: String,
    /// One-line human-readable cause.
    pub reason: String,
}

impl Rejected {
    /// Serialises the reply, collapsing the reason onto one line.
    #[must_use]
    pub fn encode(&self) -> String {
        format!("id {}\nreason {}\n", self.id, sanitise_reason(&self.reason))
    }

    /// Parses a REJECTED payload.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Malformed`] naming the offending line.
    pub fn decode(text: &str) -> Result<Self, WireError> {
        let mut lines = Lines::new(text);
        let id = lines.rest("id")?.to_owned();
        let reason = lines.rest("reason")?.to_owned();
        lines.done()?;
        Ok(Self { id, reason })
    }
}

/// Completion marker closing a result stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Done {
    /// Echo of the request id.
    pub id: String,
    /// The grid's deterministic cold-cache thermal-solve budget
    /// ([`ScenarioGrid::expected_thermal_solves`](teg_sim::ScenarioGrid::expected_thermal_solves)),
    /// deliberately independent of cache warmth so repeated submissions
    /// stream byte-identical DONE frames.
    pub thermal_solves: usize,
    /// Cells actually solved by this run.
    pub executed: usize,
    /// Cells replayed from the checkpoint.
    pub resumed: usize,
}

impl Done {
    /// Serialises the reply.
    #[must_use]
    pub fn encode(&self) -> String {
        format!(
            "id {}\nthermal_solves {}\nexecuted {}\nresumed {}\n",
            self.id, self.thermal_solves, self.executed, self.resumed
        )
    }

    /// Parses a DONE payload.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Malformed`] naming the offending line.
    pub fn decode(text: &str) -> Result<Self, WireError> {
        let mut lines = Lines::new(text);
        let id = lines.rest("id")?.to_owned();
        let thermal_solves = lines.usize("thermal_solves")?;
        let executed = lines.usize("executed")?;
        let resumed = lines.usize("resumed")?;
        lines.done()?;
        Ok(Self {
            id,
            thermal_solves,
            executed,
            resumed,
        })
    }
}

/// A post-admission failure terminating a result stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorReply {
    /// Echo of the request id.
    pub id: String,
    /// One-line human-readable cause.
    pub reason: String,
}

impl ErrorReply {
    /// Serialises the reply, collapsing the reason onto one line.
    #[must_use]
    pub fn encode(&self) -> String {
        format!("id {}\nreason {}\n", self.id, sanitise_reason(&self.reason))
    }

    /// Parses an ERROR payload.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Malformed`] naming the offending line.
    pub fn decode(text: &str) -> Result<Self, WireError> {
        let mut lines = Lines::new(text);
        let id = lines.rest("id")?.to_owned();
        let reason = lines.rest("reason")?.to_owned();
        lines.done()?;
        Ok(Self { id, reason })
    }
}

/// Cancellation of a named request from any connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cancel {
    /// The request to cancel.
    pub id: String,
}

impl Cancel {
    /// Serialises the request.
    #[must_use]
    pub fn encode(&self) -> String {
        format!("id {}\n", self.id)
    }

    /// Parses a CANCEL payload.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Malformed`] naming the offending line.
    pub fn decode(text: &str) -> Result<Self, WireError> {
        let mut lines = Lines::new(text);
        let id = lines.rest("id")?.to_owned();
        validate_id(&id)?;
        lines.done()?;
        Ok(Self { id })
    }
}

/// Service counters, answered to a STATS frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsReply {
    /// Requests admitted and not yet finished.
    pub active: usize,
    /// Cells sitting in the worker queue right now.
    pub queued_cells: usize,
    /// Requests that ran to DONE since the server started.
    pub completed_requests: usize,
    /// Entries in the shared trace cache.
    pub cache_len: usize,
    /// Trace-cache hits since start.
    pub cache_hits: usize,
    /// Trace-cache misses since start.
    pub cache_misses: usize,
    /// Traces evicted by the cache's capacity bound.
    pub cache_evictions: usize,
    /// Worker threads solving cells.
    pub workers: usize,
    /// Retired: the daemon no longer plans thermal solves ahead of its
    /// cells, so this always reports 0.  The line stays on the wire because
    /// every decoder requires it.
    pub presolve_planned: usize,
    /// Retired with `presolve_planned`; always 0.  Each unique thermal key's
    /// solve now shows up as one `cache_misses`.
    pub presolve_solved: usize,
    /// Dead worker threads the supervisor replaced since start.
    pub workers_respawned: usize,
    /// Connections currently open (handler threads alive).
    pub connections: usize,
    /// Accepts answered with a busy ERROR at the connection cap since
    /// start.
    pub connections_rejected: usize,
}

impl StatsReply {
    /// Serialises the counters.
    #[must_use]
    pub fn encode(&self) -> String {
        format!(
            "active {}\nqueued_cells {}\ncompleted_requests {}\ncache_len {}\ncache_hits {}\ncache_misses {}\ncache_evictions {}\nworkers {}\npresolve_planned {}\npresolve_solved {}\nworkers_respawned {}\nconnections {}\nconnections_rejected {}\n",
            self.active,
            self.queued_cells,
            self.completed_requests,
            self.cache_len,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.workers,
            self.presolve_planned,
            self.presolve_solved,
            self.workers_respawned,
            self.connections,
            self.connections_rejected
        )
    }

    /// Parses a STATS_REPLY payload.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Malformed`] naming the offending line.
    pub fn decode(text: &str) -> Result<Self, WireError> {
        let mut lines = Lines::new(text);
        let reply = Self {
            active: lines.usize("active")?,
            queued_cells: lines.usize("queued_cells")?,
            completed_requests: lines.usize("completed_requests")?,
            cache_len: lines.usize("cache_len")?,
            cache_hits: lines.usize("cache_hits")?,
            cache_misses: lines.usize("cache_misses")?,
            cache_evictions: lines.usize("cache_evictions")?,
            workers: lines.usize("workers")?,
            presolve_planned: lines.usize("presolve_planned")?,
            presolve_solved: lines.usize("presolve_solved")?,
            workers_respawned: lines.usize("workers_respawned")?,
            connections: lines.usize("connections")?,
            connections_rejected: lines.usize("connections_rejected")?,
        };
        lines.done()?;
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trips_including_fixed_policy_bits() {
        let request = SubmitRequest {
            id: "night-sweep.v2".into(),
            grid: GridSpec::parse("modules=8,12|seeds=1,2|drive=city:15").unwrap(),
            policy: RuntimePolicy::Fixed(Seconds::new(0.0021)),
        };
        let decoded = SubmitRequest::decode(&request.encode().unwrap()).unwrap();
        assert_eq!(decoded.id, request.id);
        assert_eq!(decoded.policy, request.policy);
        assert_eq!(decoded.grid.spec().unwrap(), request.grid.spec().unwrap());
        let measured = SubmitRequest {
            policy: RuntimePolicy::Measured,
            ..request
        };
        assert_eq!(
            SubmitRequest::decode(&measured.encode().unwrap())
                .unwrap()
                .policy,
            RuntimePolicy::Measured
        );
    }

    #[test]
    fn a_kernel_axis_is_refused_and_the_default_payload_is_unchanged() {
        let base = GridSpec::parse("modules=8,12|seeds=1,2|drive=city:15").unwrap();
        let request = SubmitRequest {
            id: "exact-sweep".into(),
            grid: base,
            policy: RuntimePolicy::Measured,
        };
        let payload = request.encode().unwrap();
        assert_eq!(
            payload,
            "id exact-sweep\ngrid modules=8,12|seeds=1,2|drive=city:15|var=none|fault=healthy|lineup=paper\npolicy measured\n"
        );
        // There is one kernel per job, so a grid naming a kernel axis is an
        // unknown-axis grid and the daemon refuses it as malformed.
        let with_kernel = payload.replace("lineup=paper\n", "lineup=paper|kernel=fast\n");
        match SubmitRequest::decode(&with_kernel) {
            Err(WireError::Malformed { reason }) => {
                assert!(reason.contains("\"kernel\""), "{reason}");
            }
            other => panic!("expected a malformed-grid error, got {other:?}"),
        }
    }

    #[test]
    fn a_grid_naming_a_retired_scheme_is_refused_as_malformed() {
        let payload =
            "id retired\ngrid modules=8|seeds=1|lineup=fixed:search:aco+inor\npolicy measured\n";
        match SubmitRequest::decode(payload) {
            Err(WireError::Malformed { reason }) => {
                assert!(reason.contains("cannot parse value"), "{reason}");
            }
            other => panic!("expected a malformed-grid error, got {other:?}"),
        }
    }

    #[test]
    fn ids_are_validated_on_both_sides() {
        for bad in ["", "has space", "semi;colon", "a/b", &"x".repeat(65)] {
            assert!(validate_id(bad).is_err(), "{bad:?}");
            let payload = format!("id {bad}\ngrid modules=8\npolicy measured\n");
            assert!(SubmitRequest::decode(&payload).is_err(), "{bad:?}");
        }
        validate_id("ok-id_1.a").unwrap();
    }

    #[test]
    fn control_replies_round_trip() {
        let accepted = Accepted {
            id: "a".into(),
            cells: 12,
            resumed: 3,
        };
        assert_eq!(Accepted::decode(&accepted.encode()).unwrap(), accepted);
        let rejected = Rejected {
            id: "a".into(),
            reason: "queue full:\ntry later".into(),
        };
        let decoded = Rejected::decode(&rejected.encode()).unwrap();
        assert_eq!(decoded.reason, "queue full: try later");
        let done = Done {
            id: "a".into(),
            thermal_solves: 40,
            executed: 9,
            resumed: 3,
        };
        assert_eq!(Done::decode(&done.encode()).unwrap(), done);
        let error = ErrorReply {
            id: "a".into(),
            reason: "cell 4 failed".into(),
        };
        assert_eq!(ErrorReply::decode(&error.encode()).unwrap(), error);
        let cancel = Cancel { id: "a".into() };
        assert_eq!(Cancel::decode(&cancel.encode()).unwrap(), cancel);
        // A live daemon always sends 0 for the two retired presolve lines;
        // the codec still carries any value, so payloads from older daemons
        // keep decoding.
        let stats = StatsReply {
            active: 1,
            queued_cells: 7,
            completed_requests: 4,
            cache_len: 9,
            cache_hits: 100,
            cache_misses: 11,
            cache_evictions: 2,
            workers: 8,
            presolve_planned: 12,
            presolve_solved: 10,
            workers_respawned: 1,
            connections: 3,
            connections_rejected: 5,
        };
        assert_eq!(StatsReply::decode(&stats.encode()).unwrap(), stats);
    }

    #[test]
    fn policy_tokens_reject_nonsense() {
        assert!(parse_policy("fixed:-1").is_err());
        assert!(parse_policy("fixed:inf").is_err());
        assert!(parse_policy("fixed:abc").is_err());
        assert!(parse_policy("adaptive").is_err());
        assert_eq!(parse_policy("measured").unwrap(), RuntimePolicy::Measured);
        let fixed = parse_policy("fixed:0.002").unwrap();
        assert_eq!(fixed, RuntimePolicy::Fixed(Seconds::new(0.002)));
        // The token is the exact-round-trip display form.
        assert_eq!(policy_token(fixed), "fixed:0.002");
    }

    #[test]
    fn malformed_control_payloads_are_named() {
        assert!(Accepted::decode("id a\ncells x\nresumed 0\n").is_err());
        assert!(Done::decode("id a\n").is_err());
        assert!(StatsReply::decode("active 1\n").is_err());
        assert!(SubmitRequest::decode("grid modules=8\n").is_err());
        assert!(Accepted::decode("id a\ncells 1\nresumed 0\nextra\n").is_err());
    }
}
